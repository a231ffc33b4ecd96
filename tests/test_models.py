import numpy as np
import pytest

from cgnp.autodiff import Tensor, backward
from cgnp.gp import Episode, EpisodeBatch, EqKernelSpec, ProtocolConfig, make_train_batch
from cgnp.models import (
    GaussianPrediction,
    ModelConfig,
    cnp_weights_from_cgnp,
    decode_targets,
    encode_context,
    forward,
    forward_tensors,
    init_params,
    pool_latent,
)
from cgnp.optim import zero_grads
from cgnp.training import batch_loss

from helpers import assert_grads_match

CNP = ModelConfig(kind="cnp", latent_dim=8, init_seed=0)
CGNP = ModelConfig(kind="cgnp", latent_dim=8, radius=0.7, init_seed=0)


def random_episode(rng, n_c=None, n_t=None):
    n_c = n_c or int(rng.integers(3, 11))
    n_t = n_t or int(rng.integers(2, 11))
    xs = rng.uniform(-2, 2, n_c + n_t)
    ys = rng.standard_normal(n_c + n_t)
    return Episode(xs[:n_c], ys[:n_c], xs[n_c:], ys[n_c:])


def randomize_store(store, rng):
    """Give batch-norm state non-trivial values so eval mode is exercised."""
    for state in store.bn.values():
        state.gamma.value[...] = rng.uniform(0.5, 1.5, state.gamma.value.shape)
        state.beta.value[...] = rng.standard_normal(state.beta.value.shape) * 0.3
        state.running_mean = rng.standard_normal(state.running_mean.shape) * 0.1
        state.running_var = rng.uniform(0.5, 2.0, state.running_var.shape)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_is_deterministic():
    a, b = init_params(CGNP), init_params(CGNP)
    for name, p in a.params.items():
        assert np.array_equal(p.value, b.params[name].value)


def test_cnp_layer_widths():
    store = init_params(CNP)
    assert store["enc1.w"].value.shape == (2, 8)
    assert store["enc2.w"].value.shape == (8, 8)
    assert store["enc3.w"].value.shape == (8, 8)
    assert store["dec1.w"].value.shape == (9, 8)
    assert store["dec2.w"].value.shape == (8, 2)
    for layer in ("enc1", "enc2", "enc3", "dec1"):
        assert store.bn[f"{layer}.bn"].width == 8
    assert "dec2.bn" not in store.bn


def test_cgnp_widths_add_relative_position_column():
    store = init_params(CGNP)
    assert store["enc1.w_nbr"].value.shape == (3, 8)
    assert store["enc2.w_nbr"].value.shape == (9, 8)
    assert store["enc3.w_nbr"].value.shape == (9, 8)
    assert store["dec1.w_nbr"].value.shape == (9, 8)
    assert store["dec1.w_self"].value.shape == (9, 8)
    assert store["dec2.w"].value.shape == (8, 2)


def test_init_seed_changes_weights():
    a = init_params(CNP)
    b = init_params(ModelConfig(kind="cnp", latent_dim=8, init_seed=1))
    assert not np.array_equal(a["enc1.w"].value, b["enc1.w"].value)


def test_config_validation():
    with pytest.raises(ValueError, match="kind"):
        ModelConfig(kind="gp")
    with pytest.raises(ValueError, match="latent_dim"):
        ModelConfig(kind="cnp", latent_dim=0)
    with pytest.raises(ValueError, match="radius"):
        ModelConfig(kind="cgnp", radius=-0.5)


# ---------------------------------------------------------------------------
# stage surfaces
# ---------------------------------------------------------------------------


def test_encoder_is_permutation_equivariant():
    rng = np.random.default_rng(1)
    ep = random_episode(rng, n_c=7)
    for cfg in (CNP, CGNP):
        store = init_params(cfg)
        randomize_store(store, rng)
        h = encode_context(ep.x_c, ep.y_c, store, cfg).value
        perm = rng.permutation(7)
        h_perm = encode_context(ep.x_c[perm], ep.y_c[perm], store, cfg).value
        np.testing.assert_allclose(h_perm, h[perm], rtol=1e-9, atol=1e-12)


def test_single_context_encoders_coincide_for_any_radius():
    rng = np.random.default_rng(2)
    for radius in (0.0, 0.7, 5.0):
        cgnp = ModelConfig(kind="cgnp", latent_dim=8, radius=radius, init_seed=4)
        store = init_params(cgnp)
        randomize_store(store, rng)
        cnp_store, cnp_cfg = cnp_weights_from_cgnp(store, cgnp)
        h_g = encode_context([0.3], [-1.1], store, cgnp).value
        h_c = encode_context([0.3], [-1.1], cnp_store, cnp_cfg).value
        np.testing.assert_allclose(h_g, h_c, rtol=1e-9, atol=1e-12)


def test_pool_latent_shape_and_invariance():
    rng = np.random.default_rng(3)
    store = init_params(CNP)
    for n_c in range(3, 11):
        ep = random_episode(rng, n_c=n_c)
        r = pool_latent(encode_context(ep.x_c, ep.y_c, store, CNP))
        assert r.value.shape == (1, 8)
    h = Tensor(rng.standard_normal((6, 8)))
    r = pool_latent(h).value
    r_perm = pool_latent(Tensor(h.value[rng.permutation(6)])).value
    np.testing.assert_allclose(r_perm, r, rtol=1e-9)


def test_decode_targets_sigma_floor_and_far_target():
    rng = np.random.default_rng(4)
    store = init_params(CGNP)
    randomize_store(store, rng)
    # contexts far to the left; the target at 2.0 has an empty radius ball
    x_c = rng.uniform(-2, -1, 5)
    y_c = rng.standard_normal(5)
    h = encode_context(x_c, y_c, store, CGNP)
    r = pool_latent(h)
    pred = decode_targets([2.0, -1.5], r, h, x_c, store, CGNP)
    assert isinstance(pred, GaussianPrediction)
    assert np.all(np.isfinite(pred.mu)) and np.all(np.isfinite(pred.sigma))
    assert np.all(pred.sigma >= 0.1)


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------


def test_forward_shapes_across_protocol_sizes():
    rng = np.random.default_rng(5)
    for cfg in (CNP, CGNP):
        store = init_params(cfg)
        for n_c, n_t in ((1, 1), (1, 399), (10, 390), (37, 113), (400, 400)):
            ep = random_episode(rng, n_c=n_c, n_t=n_t)
            pred = forward(ep, store, cfg)
            assert pred.mu.shape == (n_t,) and pred.sigma.shape == (n_t,)
            assert np.all(pred.sigma >= 0.1)


def test_forward_is_invariant_to_context_permutation():
    rng = np.random.default_rng(6)
    for cfg in (CNP, CGNP):
        store = init_params(cfg)
        randomize_store(store, rng)
        ep = random_episode(rng, n_c=9, n_t=14)
        base = forward(ep, store, cfg)
        perm = rng.permutation(9)
        swapped = forward(
            Episode(ep.x_c[perm], ep.y_c[perm], ep.x_t, ep.y_t), store, cfg
        )
        np.testing.assert_allclose(swapped.mu, base.mu, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(swapped.sigma, base.sigma, rtol=1e-6, atol=1e-9)


def test_stacked_forward_matches_per_episode_in_eval_mode():
    rng = np.random.default_rng(7)
    for n_c, n_t in ((3, 2), (7, 9), (10, 390)):
        episodes = [random_episode(rng, n_c=n_c, n_t=n_t) for _ in range(5)]
        for cfg in (CNP, CGNP):
            store = init_params(cfg)
            randomize_store(store, rng)
            mu, sigma, ep_ids = forward_tensors(episodes, store, cfg, train=False)
            assert mu.value.shape == sigma.value.shape == (5 * n_t, 1)
            for i, ep in enumerate(episodes):
                single = forward(ep, store, cfg)
                rows = slice(i * n_t, (i + 1) * n_t)
                np.testing.assert_allclose(mu.value[rows, 0], single.mu, rtol=1e-12)
                np.testing.assert_allclose(sigma.value[rows, 0], single.sigma, rtol=1e-12)
                assert np.all(ep_ids[rows] == i)


def test_stacked_forward_rejects_mixed_shapes():
    rng = np.random.default_rng(12)
    episodes = [random_episode(rng, n_c=3, n_t=4), random_episode(rng, n_c=3, n_t=5)]
    with pytest.raises(ValueError, match=r"share \(N_c, N_t\).*\(3, 4\), \(3, 5\)"):
        forward_tensors(episodes, init_params(CGNP), CGNP, train=False)


def test_radius_zero_equals_cnp_on_100_random_episodes():
    rng = np.random.default_rng(8)
    cgnp = ModelConfig(kind="cgnp", latent_dim=8, radius=0.0, init_seed=11)
    store = init_params(cgnp)
    randomize_store(store, rng)
    cnp_store, cnp_cfg = cnp_weights_from_cgnp(store, cgnp)
    for _ in range(100):
        ep = random_episode(rng)
        a = forward(ep, store, cgnp)
        b = forward(ep, cnp_store, cnp_cfg)
        np.testing.assert_allclose(a.mu, b.mu, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(a.sigma, b.sigma, rtol=1e-9, atol=1e-12)


def test_radius_zero_equivalence_holds_in_train_mode():
    rng = np.random.default_rng(9)
    cgnp = ModelConfig(kind="cgnp", latent_dim=8, radius=0.0, init_seed=12)
    store = init_params(cgnp)
    cnp_store, cnp_cfg = cnp_weights_from_cgnp(store, cgnp)
    ep = random_episode(rng, n_c=6, n_t=5)
    a = forward(ep, store, cgnp, train=True)
    b = forward(ep, cnp_store, cnp_cfg, train=True)
    np.testing.assert_allclose(a.mu, b.mu, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(a.sigma, b.sigma, rtol=1e-9, atol=1e-12)


def test_every_parameter_reaches_the_loss():
    rng = np.random.default_rng(10)
    ep = random_episode(rng, n_c=6, n_t=5)
    batch = EpisodeBatch((ep, random_episode(rng, n_c=6, n_t=5)))
    for cfg in (CNP, CGNP):
        store = init_params(cfg)
        loss = batch_loss(batch, store, cfg)
        backward(loss)
        for name, p in store.params.items():
            assert np.any(p.grad != 0.0), f"{name} received no gradient"


@pytest.mark.parametrize("kind", ["cnp", "cgnp"])
def test_end_to_end_gradients_match_finite_differences(kind):
    # 5-context / 4-target episode, every named parameter, train-mode loss.
    # Seeds put every pre-relu activation out of reach of the h=1e-4 stencil;
    # crossing a kink invalidates the oracle, not the gradient.
    rng = np.random.default_rng(100)
    cfg = ModelConfig(kind=kind, latent_dim=8, radius=0.7, init_seed=0)
    store = init_params(cfg)
    ep = random_episode(rng, n_c=5, n_t=4)
    batch = EpisodeBatch((ep,))

    def build_loss():
        return batch_loss(batch, store, cfg)

    assert_grads_match(
        lambda: float(build_loss().value[0, 0]), build_loss, store.parameters()
    )
