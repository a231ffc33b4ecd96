"""Fit one test function with a CGNP and export the predictive curve.

Trains briefly, then predicts (mu, sigma) along the full 400-point grid of
one test episode and writes the curve to fit_curve.csv (and a PNG when
matplotlib is available). Context points are flagged in the CSV, matching
the format of the `cgnp plot` command.
"""

import numpy as np

from cgnp import (
    EpisodeBatch,
    EqKernelSpec,
    ModelConfig,
    ProtocolConfig,
    TrainConfig,
    forward_tensors,
    gaussian_head,
    make_test_episode,
    train,
)
from cgnp.autodiff import no_grad

cfg = TrainConfig(
    model=ModelConfig(kind="cgnp", latent_dim=8, radius=0.7),
    kernel=EqKernelSpec(),
    protocol=ProtocolConfig(train_batches=3000, master_seed=0),
    eval_every=0,
    heldout_episodes=0,
)
print("training a cgnp for 3000 batches...")
store, report = train(cfg)
print(f"done in {report.wall_seconds:.1f}s")

ep = make_test_episode(cfg.protocol, cfg.kernel, episode_index=4)  # a batch of one
xs = np.concatenate([ep.x_c[0], ep.x_t[0]])
ys = np.concatenate([ep.y_c[0], ep.y_t[0]])
is_ctx = np.concatenate([np.ones(ep.n_context, int), np.zeros(ep.n_target, int)])
order = np.argsort(xs)
xs, ys, is_ctx = xs[order], ys[order], is_ctx[order]

# predict at every grid point: same context, all 400 points as targets; no
# gradient is taken, so no tape is built, and batch norm uses its running
# statistics
with no_grad():
    head = forward_tensors(EpisodeBatch(ep.x_c, ep.y_c, xs[None], ys[None]), store)
mu, sigma = (column.ravel() for column in gaussian_head(head.value))

with open("fit_curve.csv", "w", encoding="utf-8") as fh:
    fh.write("x,y_true,mu,sigma,is_context\n")
    for x, y, m, sd, flag in zip(xs, ys, mu, sigma, is_ctx):
        fh.write(f"{float(x)!r},{float(y)!r},{float(m)!r},{float(sd)!r},{flag}\n")
print(f"wrote fit_curve.csv ({xs.size} rows, {ep.n_context} context points)")

inside = np.abs(ys - mu) <= 2 * sigma
print(f"coverage of the 2-sigma band: {inside.mean():.1%}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 3.5))
    ax.plot(xs, ys, "k--", lw=1.0, label="true function")
    ax.plot(xs, mu, lw=1.5, label="predictive mean")
    ax.fill_between(xs, mu - 2 * sigma, mu + 2 * sigma, alpha=0.25, label="2-sigma band")
    ax.scatter(ep.x_c[0], ep.y_c[0], color="k", zorder=3, s=25, label="context")
    ax.set_xlabel("x")
    ax.legend(loc="upper right", fontsize=8)
    fig.tight_layout()
    fig.savefig("fit_curve.png", dpi=120)
    print("saved fit_curve.png")
except ImportError:
    print("matplotlib not available; skipping the figure")
