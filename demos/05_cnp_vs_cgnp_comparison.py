"""Head-to-head: CNP vs CGNP vs the edgeless CGNP control, at toy scale.

The full desk-scale comparison (20000 batches, 1000 test episodes, 3 seeds)
lives in the acceptance suite and the `cgnp compare` command. This demo runs
a miniature version (1500 batches, 150 test episodes, one seed) that already
shows the qualitative gap: the radius-0.7 CGNP beats the CNP, and the
edgeless CGNP tracks the CNP baseline.
"""

from cgnp import EqKernelSpec, ModelConfig, ProtocolConfig, TrainConfig, make_test_set
from cgnp.training import compare_models

proto = ProtocolConfig(train_batches=1500, test_episodes=150, master_seed=0)
kern = EqKernelSpec()
base = TrainConfig(
    model=ModelConfig(kind="cnp", latent_dim=8, radius=0.7),
    kernel=kern,
    protocol=proto,
)

test_set = make_test_set(proto, kern)  # shape buckets, shared by every run
results = compare_models(base, seeds=1, test_set=test_set, log=print)

print(f"\n{'model':<16} {'rho':>5} {'nll/point':>10} {'nll/episode':>12} {'mse':>8}")
for res in results:
    rho = "-" if res.radius is None else f"{res.radius:.1f}"
    m = res.runs[0].metrics
    print(f"{res.label:<16} {rho:>5} {m.nll_per_point:>10.4f} {m.nll_per_episode:>12.2f} {m.mse:>8.4f}")
print("\n(1500 batches is 7.5% of the desk protocol; gaps widen with training)")
