"""Draw functions from the data-generating prior and check their statistics.

The generator samples random smooth functions from a Gaussian process with
an exponentiated quadratic kernel (length scale 0.4) on [-2, 2]. This script
draws a few functions on a dense grid, prints how the empirical statistics
line up with the kernel, and shows what a training episode looks like.
"""

import numpy as np

from cgnp import (
    EqKernelSpec,
    ProtocolConfig,
    eq_kernel,
    kernel_matrix,
    make_test_episode,
    make_train_batch,
    sample_function_values,
)

kern = EqKernelSpec()
rng = np.random.default_rng(0)

# a handful of smooth functions on a dense grid
grid = np.linspace(-2, 2, 200)
draws = np.stack([sample_function_values(grid, kern, rng) for _ in range(2000)])
print("2000 function draws on a 200-point grid")
print(f"  per-point mean    : {draws.mean():+.4f}   (prior says 0)")
print(f"  per-point variance: {draws.var():.4f}   (prior says 1)")

# correlation falls off with distance exactly as the kernel prescribes
for lag in (10, 25, 60):
    dx = grid[lag] - grid[0]
    emp = np.corrcoef(draws[:, 0], draws[:, lag])[0, 1]
    print(f"  corr at dx={dx:.3f} : {emp:+.4f}   (kernel: {eq_kernel(0.0, dx, kern):+.4f})")

# episodes are how the models consume these functions
proto = ProtocolConfig()
batch = make_train_batch(proto, kern, batch_index=0)
print(f"\ntraining batch 0: {len(batch)} episodes, "
      f"N_c={batch.n_context}, N_t={batch.n_target}")
print(f"  first episode context x: {np.sort(batch.x_c[0]).round(3)}")

test = make_test_episode(proto, kern, episode_index=0)  # a batch of one
print(f"test episode 0: {test.n_context} context + {test.n_target} targets "
      f"on the 400-point grid")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 3.5))
    for row in draws[:5]:
        ax.plot(grid, row, lw=1.0, alpha=0.8)
    ax.scatter(test.x_c[0], test.y_c[0], color="k", zorder=3, label="context of test episode 0")
    ax.set_xlabel("x")
    ax.set_ylabel("f(x)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("gp_samples.png", dpi=120)
    print("\nsaved gp_samples.png")
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
