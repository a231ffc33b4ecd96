"""Acceptance suite: one test per criterion, each at its stated tolerance.

Criteria 1-3 and the loss-drop check share one desk-scale training campaign
(three models x three paired seeds, 20000 batches each, evaluated on one
shared 1000-episode test set). The campaign fixture takes roughly 8
minutes on one CPU core; everything else finishes in about a minute.

Each test prints one `criterion N` line with the measured numbers.
"""

import time

import numpy as np
import pytest

from cgnp import (
    EpisodeBatch,
    EqKernelSpec,
    ModelConfig,
    ProtocolConfig,
    TrainConfig,
    backward,
    init_params,
    kernel_matrix,
    make_test_set,
    sample_function_values,
)
from cgnp.graph import radius_neighborhood
from cgnp.training import batch_loss, compare_models

from helpers import episode, predict, zero_grads
from models_oracle import cnp_weights_from_cgnp

DESK_PROTOCOL = ProtocolConfig(train_batches=20_000, test_episodes=1_000, master_seed=0)
KERNEL = EqKernelSpec()
SEEDS = 3


def random_episode(rng):
    n_c = int(rng.integers(3, 11))
    n_t = int(rng.integers(2, 11))
    xs = rng.uniform(-2, 2, n_c + n_t)
    ys = rng.standard_normal(n_c + n_t)
    return episode(xs[:n_c], ys[:n_c], xs[n_c:], ys[n_c:])


def randomize_bn(store, rng):
    for state in store.bn.values():
        state.gamma.value[...] = rng.uniform(0.5, 1.5, state.gamma.value.shape)
        state.beta.value[...] = rng.standard_normal(state.beta.value.shape) * 0.3
        state.running_mean[...] = rng.standard_normal(state.running_mean.shape) * 0.1
        state.running_var[...] = rng.uniform(0.5, 2.0, state.running_var.shape)


@pytest.fixture(scope="module")
def campaign():
    """Desk-scale comparison: cnp, cgnp(0.7), cgnp(0.0), three paired seeds."""
    base = TrainConfig(
        model=ModelConfig(kind="cnp", latent_dim=8, radius=0.7, init_seed=0),
        kernel=KERNEL,
        protocol=DESK_PROTOCOL,
        lr=1e-3,
        eval_every=0,
        heldout_episodes=0,
    )
    test_set = make_test_set(DESK_PROTOCOL, KERNEL)
    results = compare_models(base, seeds=SEEDS, test_set=test_set, log=None)
    return {res.label: res for res in results}


# ---------------------------------------------------------------------------
# criterion 1: NLL ordering at desk scale
# ---------------------------------------------------------------------------


def test_criterion_1_nll_ordering(campaign):
    """Mean test NLL (per-point normalization): CGNP(rho=0.7) < CNP."""
    cgnp_nll = campaign["cgnp"].mean_std("nll_per_point")[0]
    cnp_nll = campaign["cnp"].mean_std("nll_per_point")[0]
    for res in campaign.values():
        for run in res.runs:
            assert run.wall_seconds <= 45 * 60, "run exceeded the 45-minute budget"
    print(f"criterion 1 PASS: nll/point cgnp(0.7)={cgnp_nll:.4f} < cnp={cnp_nll:.4f} "
          f"(3-seed means)")
    assert cgnp_nll < cnp_nll


def test_criterion_2_edgeless_returns_to_baseline(campaign):
    """CGNP(rho=0) mean NLL within 2 standard deviations of the CNP seeds."""
    cnp_mean, cnp_std = campaign["cnp"].mean_std("nll_per_point")
    edge_mean = campaign["cgnp_edgeless"].mean_std("nll_per_point")[0]
    gap = abs(edge_mean - cnp_mean)
    print(f"criterion 2 PASS: |edgeless - cnp| = {gap:.5f} <= 2*std = {2 * cnp_std:.5f} "
          f"(edgeless={edge_mean:.4f}, cnp={cnp_mean:.4f})")
    assert gap <= 2.0 * cnp_std


def test_criterion_3_mse_sanity(campaign):
    """Every trained model's MSE < 0.8; cgnp(0.7) lowest in >= 2 of 3 seeds."""
    for res in campaign.values():
        for run in res.runs:
            assert run.metrics.mse < 0.8, f"{res.label} seed {run.init_seed}: mse {run.metrics.mse}"
    wins = 0
    for i in range(SEEDS):
        cgnp_mse = campaign["cgnp"].runs[i].metrics.mse
        others = (campaign["cnp"].runs[i].metrics.mse,
                  campaign["cgnp_edgeless"].runs[i].metrics.mse)
        wins += int(cgnp_mse < min(others))
    mses = {label: res.mean_std("mse")[0] for label, res in campaign.items()}
    print(f"criterion 3 PASS: mse means {mses}; cgnp lowest in {wins}/3 seeds")
    assert wins >= 2


# ---------------------------------------------------------------------------
# criterion 4: radius-0 collapse
# ---------------------------------------------------------------------------


def test_criterion_4_radius_zero_equivalence():
    """CGNP(rho=0) and the corresponding CNP agree within 1e-9 relative on
    100 random episodes under the documented weight correspondence."""
    rng = np.random.default_rng(2024)
    cfg = ModelConfig(kind="cgnp", latent_dim=8, radius=0.0, init_seed=5)
    store = init_params(cfg)
    randomize_bn(store, rng)
    cnp_store = cnp_weights_from_cgnp(store)
    worst = 0.0
    for _ in range(100):
        ep = random_episode(rng)
        mu_a, sigma_a = predict(ep, store)
        mu_b, sigma_b = predict(ep, cnp_store)
        np.testing.assert_allclose(mu_a, mu_b, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(sigma_a, sigma_b, rtol=1e-9, atol=1e-12)
        denom = np.maximum(np.abs(mu_b), 1e-12)
        worst = max(worst, float(np.max(np.abs(mu_a - mu_b) / denom)))
    print(f"criterion 4 PASS: 100 episodes, worst relative mu gap {worst:.2e} (<= 1e-9)")


# ---------------------------------------------------------------------------
# criterion 5: gradient suite
# ---------------------------------------------------------------------------


def test_criterion_5_gradient_suite():
    """Analytic episode-NLL gradients match central finite differences
    (h=1e-4, rtol 1e-3, atol 1e-6) for every parameter, both model kinds,
    10 random episodes."""
    h = 1e-4
    rng = np.random.default_rng(7930)
    episodes = [random_episode(rng) for _ in range(10)]
    checked = 0
    for kind in ("cnp", "cgnp"):
        cfg = ModelConfig(kind=kind, latent_dim=8, radius=0.7, init_seed=1)
        store = init_params(cfg)
        params = store.parameters()
        for batch in episodes:
            zero_grads(params)
            backward(batch_loss(batch, store))
            analytic = {p.name: p.grad.copy() for p in params}
            zero_grads(params)
            for p in params:
                flat = p.value.ravel()
                fd = np.zeros(flat.size)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = float(batch_loss(batch, store).value[0, 0])
                    flat[i] = orig - h
                    down = float(batch_loss(batch, store).value[0, 0])
                    flat[i] = orig
                    fd[i] = (up - down) / (2.0 * h)
                np.testing.assert_allclose(
                    analytic[p.name].ravel(), fd, rtol=1e-3, atol=1e-6,
                    err_msg=f"{kind} {p.name}",
                )
                checked += flat.size
    print(f"criterion 5 PASS: {checked} gradient entries match finite differences")


# ---------------------------------------------------------------------------
# criterion 6: GP generator statistics
# ---------------------------------------------------------------------------


def test_criterion_6_gp_generator_suite():
    """Over 10^4 samples on a fixed 10-point grid: empirical mean within
    0.05 of zero and empirical covariance within 0.05 of the kernel."""
    grid = np.linspace(-2, 2, 10)
    rng = np.random.default_rng(7)
    draws = np.stack([sample_function_values(grid, KERNEL, rng) for _ in range(10_000)])
    mean_err = float(np.max(np.abs(draws.mean(axis=0))))
    cov_err = float(np.max(np.abs(np.cov(draws, rowvar=False, bias=True) - kernel_matrix(grid, KERNEL))))
    print(f"criterion 6 PASS: max |mean| {mean_err:.4f} <= 0.05, "
          f"max |cov err| {cov_err:.4f} <= 0.05 over 10^4 draws")
    assert mean_err <= 0.05
    assert cov_err <= 0.05


# ---------------------------------------------------------------------------
# criterion 7: graph suite
# ---------------------------------------------------------------------------


def test_criterion_7_graph_suite():
    """200 random coordinate sets (size <= 12) at rho in {0, 0.3, 0.7, 5}:
    exact agreement with the pairwise-distance oracle, and monotone nesting
    of neighbor lists in rho on every trial."""
    rng = np.random.default_rng(77)
    radii = (0.0, 0.3, 0.7, 5.0)
    for trial in range(200):
        n_in = int(rng.integers(1, 13))
        n_out = int(rng.integers(1, 13))
        coords_in = rng.uniform(-2, 2, n_in)
        coords_out = rng.uniform(-2, 2, n_out)
        if trial % 4 == 0:  # exercise exact-tie handling
            coords_out[0] = coords_in[0]
        per_radius = []
        for rho in radii:
            mask = radius_neighborhood(coords_in, coords_out, rho).mask[0]
            neighbors = [np.flatnonzero(row) for row in mask]
            for o in range(n_out):
                oracle = [i for i in range(n_in) if abs(coords_in[i] - coords_out[o]) <= rho]
                np.testing.assert_array_equal(neighbors[o], oracle)
            per_radius.append(neighbors)
        for small, large in zip(per_radius, per_radius[1:]):
            for a, b in zip(small, large):
                assert set(a.tolist()) <= set(b.tolist())
    print("criterion 7 PASS: 200 trials x 4 radii match the exhaustive oracle, nesting holds")


# ---------------------------------------------------------------------------
# criterion 8: invariance suite
# ---------------------------------------------------------------------------


def test_criterion_8_permutation_invariance():
    """Context permutation moves both models' outputs by <= 1e-6 relative."""
    rng = np.random.default_rng(88)
    worst = 0.0
    for kind in ("cnp", "cgnp"):
        cfg = ModelConfig(kind=kind, latent_dim=8, radius=0.7, init_seed=2)
        store = init_params(cfg)
        randomize_bn(store, rng)
        for _ in range(25):
            ep = random_episode(rng)
            perm = rng.permutation(ep.n_context)
            mu, sigma = predict(ep, store)
            mu_p, sigma_p = predict(EpisodeBatch(ep.x_c[:, perm], ep.y_c[:, perm], ep.x_t, ep.y_t), store)
            np.testing.assert_allclose(mu_p, mu, rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(sigma_p, sigma, rtol=1e-6, atol=1e-9)
            rel = np.max(np.abs(mu_p - mu) / np.maximum(np.abs(mu), 1e-9))
            worst = max(worst, float(rel))
    print(f"criterion 8 (invariance) PASS: worst relative change {worst:.2e} <= 1e-6")


def test_criterion_8_sigma_floor_on_100k_predictions():
    """sigma >= 0.1 on at least 10^5 random predictions."""
    rng = np.random.default_rng(99)
    total = 0
    minimum = np.inf
    for kind in ("cnp", "cgnp"):
        for scale in (1.0, 10.0):
            cfg = ModelConfig(kind=kind, latent_dim=8, radius=0.7, init_seed=int(scale))
            store = init_params(cfg)
            randomize_bn(store, rng)
            for p in store.parameters():
                if not p.name.endswith((".gamma", ".beta")):
                    p.value *= scale
            for _ in range(70):
                n_t = int(rng.integers(300, 500))
                xs = rng.uniform(-2, 2, 5 + n_t)
                ep = episode(xs[:5], rng.standard_normal(5) * scale, xs[5:], np.zeros(n_t))
                _, sigma = predict(ep, store)
                total += sigma.size
                minimum = min(minimum, float(sigma.min()))
                assert np.all(sigma >= 0.1)
    assert total >= 100_000
    print(f"criterion 8 (sigma floor) PASS: min sigma {minimum:.6f} >= 0.1 "
          f"over {total} predictions")


def test_criterion_8_loss_decrease_smoke(campaign):
    """Moving-average training loss drops >= 20% on every desk-scale run.

    Implemented exactly as stated: the 1000-batch average at the end of
    training must sit at least 20% below the average over the first 1000
    batches. See the decisions ledger: at the pinned protocol (width-8
    layers, Adam at 1e-3, 20000 batches of 64) the reachable drop measures
    9-13% for every variant, and an independent framework replica of the
    same architecture reproduces the same plateau, so this criterion is
    expected to fail; it is kept faithful rather than loosened.
    """
    drops = {
        res.label: [run.loss_drop for run in res.runs] for res in campaign.values()
    }
    print(f"criterion 8 (loss decrease) measured drops: "
          + "; ".join(f"{k}: {['%.1f%%' % (100 * d) for d in v]}" for k, v in drops.items()))
    for label, values in drops.items():
        for drop in values:
            assert drop >= 0.20, (
                f"{label}: moving-average loss drop {drop:.1%} < 20% "
                "(see decisions ledger: unattainable at the pinned protocol)"
            )
