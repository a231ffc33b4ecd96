import numpy as np
import pytest

from cgnp.autodiff import Parameter, Tensor, backward, block_mean, gaussian_head
from cgnp.formats import load_checkpoint, save_checkpoint
from cgnp.gp import EpisodeBatch, ProtocolConfig, bucket_episodes
from cgnp.models import (
    ModelConfig,
    ParameterStore,
    _layout,
    cnp_weights_from_cgnp,
    flat_sizes,
    forward_tensors,
    init_params,
)
from cgnp.training import TrainConfig, batch_loss, train

from helpers import assert_grads_match, episode, predict

CNP = ModelConfig(kind="cnp", latent_dim=8, init_seed=0)
CGNP = ModelConfig(kind="cgnp", latent_dim=8, radius=0.7, init_seed=0)


def random_episode(rng, n_c=None, n_t=None):
    n_c = n_c or int(rng.integers(3, 11))
    n_t = n_t or int(rng.integers(2, 11))
    xs = rng.uniform(-2, 2, n_c + n_t)
    ys = rng.standard_normal(n_c + n_t)
    return episode(xs[:n_c], ys[:n_c], xs[n_c:], ys[n_c:])


def randomize_store(store, rng):
    """Give batch-norm state non-trivial values so eval mode is exercised."""
    for state in store.bn.values():
        state.gamma.value[...] = rng.uniform(0.5, 1.5, state.gamma.value.shape)
        state.beta.value[...] = rng.standard_normal(state.beta.value.shape) * 0.3
        state.running_mean[...] = rng.standard_normal(state.running_mean.shape) * 0.1
        state.running_var[...] = rng.uniform(0.5, 2.0, state.running_var.shape)


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


def test_cgnp_widths_add_relative_position_and_neighbor_rows():
    store = init_params(CGNP)
    assert store["enc1.w"].value.shape == (3, 8)
    assert store["enc2.w"].value.shape == (9, 8)
    assert store["enc3.w"].value.shape == (9, 8)
    assert store["dec1.w"].value.shape == (18, 8)  # neighbor rows over the self term's
    assert store["dec2.w"].value.shape == (8, 2)


def test_both_kinds_share_parameter_names_and_the_dec1_fan_in():
    cnp, cgnp = init_params(CNP), init_params(CGNP)
    assert list(cnp.params) == list(cgnp.params)
    assert list(cnp.bn) == list(cgnp.bn)
    bound = 1.0 / np.sqrt(1 + CNP.latent_dim)  # one message's fan-in, for both kinds
    for rows in (cnp["dec1.w"].value, cgnp["dec1.w"].value[:9], cgnp["dec1.w"].value[9:]):
        assert bound / np.sqrt(2) < np.abs(rows).max() <= bound  # not the stacked height's bound


def test_init_seed_changes_weights():
    a = init_params(CNP)
    b = init_params(ModelConfig(kind="cnp", latent_dim=8, init_seed=1))
    assert not np.array_equal(a["enc1.w"].value, b["enc1.w"].value)


def test_config_validation():
    with pytest.raises(ValueError, match="kind"):
        ModelConfig(kind="gp")
    with pytest.raises(ValueError, match="latent_dim"):
        ModelConfig(kind="cnp", latent_dim=0)
    assert ModelConfig(kind="cnp", latent_dim=512).latent_dim == 512
    with pytest.raises(ValueError, match="^latent_dim must be between 1 and 512, got 513$"):
        ModelConfig(kind="cnp", latent_dim=513)
    with pytest.raises(ValueError, match="radius"):
        ModelConfig(kind="cgnp", radius=-0.5)
    with pytest.raises(ValueError, match="radius"):
        ModelConfig(kind="cgnp", radius=float("nan"))
    with pytest.raises(ValueError, match="latent_dim must be an int, got 8.0"):
        ModelConfig(kind="cnp", latent_dim=8.0)
    with pytest.raises(ValueError, match="init_seed must be an int, got False"):
        ModelConfig(kind="cnp", init_seed=False)


@pytest.mark.parametrize("latent_dim", [1, 2, 3, 8, 17])
@pytest.mark.parametrize("kind", ["cnp", "cgnp"])
def test_flat_sizes_count_what_init_params_allocates(kind, latent_dim):
    cfg = ModelConfig(kind=kind, latent_dim=latent_dim)
    store = init_params(cfg)
    values = sum(p.value.size for p in store.parameters())
    bn_width = sum(state.running_mean.size for state in store.bn.values())
    assert flat_sizes(cfg) == (values, bn_width)


def assert_views_tile(flat, views):
    """The (name, shape, array) triples of `views` are views of `flat`, in
    order, with no gap and no overlap."""
    base = flat.__array_interface__["data"][0]
    start = 0
    for name, shape, view in views:
        assert view.shape == shape and view.flags.c_contiguous, name
        assert np.shares_memory(view, flat), name
        assert view.__array_interface__["data"][0] == base + start * flat.itemsize, name
        start += view.size
    assert start == flat.size


def assert_views_tile_the_buffers(store, cfg):
    """Each parameter's value and grad, and each batch-norm layer's running
    statistics, are views of the store's four flat buffers in `_layout`
    order."""
    layout = _layout(cfg)
    assert list(store.params) == [name for name, _ in layout]
    for attr in ("value", "grad"):
        assert_views_tile(getattr(store, attr), [(name, shape, getattr(store[name], attr)) for name, shape in layout])
    layers = [(name.removesuffix(".gamma"), shape) for name, shape in layout if name.endswith(".gamma")]
    assert list(store.bn) == [layer for layer, _ in layers]
    for attr in ("running_mean", "running_var"):
        assert_views_tile(getattr(store, attr), [(layer, shape, getattr(store.bn[layer], attr)) for layer, shape in layers])
    assert flat_sizes(cfg) == (store.value.size, store.running_mean.size)


@pytest.mark.parametrize("latent_dim", [1, 3, 8])
@pytest.mark.parametrize("kind", ["cnp", "cgnp"])
def test_parameter_views_tile_the_flat_buffers_in_layout_order(tmp_path, kind, latent_dim):
    cfg = ModelConfig(kind=kind, latent_dim=latent_dim)
    assert_views_tile_the_buffers(init_params(cfg), cfg)
    # train-mode batch norm must update the running statistics in place
    protocol = ProtocolConfig(batch_size=8, train_batches=3)
    store, _ = train(TrainConfig(model=cfg, protocol=protocol, eval_every=0, heldout_episodes=0))
    assert_views_tile_the_buffers(store, cfg)
    assert (store.running_var != 1.0).all()
    save_checkpoint(tmp_path / "c.json", store)
    loaded, _ = load_checkpoint(tmp_path / "c.json")
    assert_views_tile_the_buffers(loaded, cfg)
    for attr in ("value", "running_mean", "running_var"):
        assert np.array_equal(getattr(loaded, attr), getattr(store, attr)), attr
    if kind == "cgnp":
        cnp = cnp_weights_from_cgnp(loaded)
        assert_views_tile_the_buffers(cnp, cnp.cfg)
        for attr in ("running_mean", "running_var"):
            assert np.array_equal(getattr(cnp, attr), getattr(store, attr)), attr


def test_init_params_allocates_no_gradient_beside_the_stores(monkeypatch):
    # each parameter takes its view of store.grad when it is made
    def no_zeros_like(*args, **kwargs):
        raise AssertionError("a gradient buffer was allocated beside the store's")

    monkeypatch.setattr(np, "zeros_like", no_zeros_like)
    cfg = ModelConfig(kind="cgnp")
    assert_views_tile_the_buffers(init_params(cfg), cfg)


def test_store_add_rejects_a_duplicate_name():
    store = ParameterStore(CGNP)
    store.add(Parameter("a", [[1.0]]))
    with pytest.raises(ValueError, match="duplicate parameter 'a'"):
        store.add(Parameter("a", [[2.0]]))
    assert store["a"].value[0, 0] == 1.0


# ---------------------------------------------------------------------------
# encoder, pooling and decoder head
# ---------------------------------------------------------------------------


def test_stacked_forward_is_invariant_to_context_permutation():
    # each episode's context shuffled on its own, in train mode (batch norm
    # pools statistics over every context row) and in eval mode
    rng = np.random.default_rng(1)
    (batch,) = bucket_episodes(random_episode(rng, n_c=7, n_t=5) for _ in range(4))
    perms = np.stack([rng.permutation(7) for _ in range(4)])
    rows = np.arange(4)[:, None]
    shuffled = EpisodeBatch(batch.x_c[rows, perms], batch.y_c[rows, perms], batch.x_t, batch.y_t)
    for cfg in (CNP, CGNP):
        store = init_params(cfg)
        randomize_store(store, rng)
        for train in (True, False):
            mu, sigma = gaussian_head(forward_tensors(batch, store, train).value)
            mu_p, sigma_p = gaussian_head(forward_tensors(shuffled, store, train).value)
            np.testing.assert_allclose(mu_p, mu, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(sigma_p, sigma, rtol=1e-9, atol=1e-12)


def test_single_context_encoders_coincide_for_any_radius():
    # one context point is its own only neighbor at any radius, so the CGNP
    # encoder equals the CNP's; targets beyond the radius leave the decoder
    # with its self term alone, so the whole forward must agree
    rng = np.random.default_rng(2)
    for radius in (0.0, 0.7, 5.0):
        cgnp = ModelConfig(kind="cgnp", latent_dim=8, radius=radius, init_seed=4)
        store = init_params(cgnp)
        randomize_store(store, rng)
        cnp_store = cnp_weights_from_cgnp(store)
        far = [0.3 - radius - 0.5, 0.3 + radius + 0.25]
        ep = episode([0.3], [-1.1], far, [0.0, 0.0])
        (mu_a, sigma_a), (mu_b, sigma_b) = predict(ep, store), predict(ep, cnp_store)
        np.testing.assert_allclose(mu_a, mu_b, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(sigma_a, sigma_b, rtol=1e-9, atol=1e-12)


def test_pooled_latent_shape_and_invariance():
    rng = np.random.default_rng(3)
    for blocks in (1, 3):
        for n_c in range(3, 11):
            r = block_mean(Tensor(rng.standard_normal((blocks * n_c, 8))), blocks)
            assert r.value.shape == (blocks, 8)
    h = rng.standard_normal((3, 6, 8))
    r = block_mean(Tensor(h.reshape(18, 8)), 3).value
    shuffled = np.stack([block[rng.permutation(6)] for block in h])
    r_perm = block_mean(Tensor(shuffled.reshape(18, 8)), 3).value
    np.testing.assert_allclose(r_perm, r, rtol=1e-9)
    np.testing.assert_allclose(r, h.mean(axis=1), rtol=1e-12)


def test_sigma_floor_at_a_far_target():
    rng = np.random.default_rng(4)
    store = init_params(CGNP)
    randomize_store(store, rng)
    # contexts far to the left; the target at 2.0 has an empty radius ball
    x_c = rng.uniform(-2, -1, 5)
    y_c = rng.standard_normal(5)
    mu, sigma = predict(episode(x_c, y_c, [2.0, -1.5], [0.0, 0.0]), store)
    assert mu.shape == sigma.shape == (2,)
    assert np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))
    assert np.all(sigma >= 0.1)


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------


def test_forward_shapes_across_protocol_sizes():
    rng = np.random.default_rng(5)
    for cfg in (CNP, CGNP):
        store = init_params(cfg)
        for n_c, n_t in ((1, 1), (1, 399), (10, 390), (37, 113), (400, 400)):
            ep = random_episode(rng, n_c=n_c, n_t=n_t)
            mu, sigma = predict(ep, store)
            assert mu.shape == (n_t,) and sigma.shape == (n_t,)
            assert np.all(sigma >= 0.1)


def test_forward_is_invariant_to_context_permutation():
    rng = np.random.default_rng(6)
    for cfg in (CNP, CGNP):
        store = init_params(cfg)
        randomize_store(store, rng)
        ep = random_episode(rng, n_c=9, n_t=14)
        mu, sigma = predict(ep, store)
        perm = rng.permutation(9)
        mu_p, sigma_p = predict(
            EpisodeBatch(ep.x_c[:, perm], ep.y_c[:, perm], ep.x_t, ep.y_t), store
        )
        np.testing.assert_allclose(mu_p, mu, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(sigma_p, sigma, rtol=1e-6, atol=1e-9)


def test_stacked_forward_matches_per_episode_in_eval_mode():
    rng = np.random.default_rng(7)
    for n_c, n_t in ((3, 2), (7, 9), (10, 390)):
        episodes = [random_episode(rng, n_c=n_c, n_t=n_t) for _ in range(5)]
        for cfg in (CNP, CGNP):
            store = init_params(cfg)
            randomize_store(store, rng)
            (batch,) = bucket_episodes(episodes)
            mu, sigma = gaussian_head(forward_tensors(batch, store, train=False).value)
            assert mu.shape == sigma.shape == (5 * n_t, 1)
            for i, ep in enumerate(episodes):
                single_mu, single_sigma = predict(ep, store)
                rows = slice(i * n_t, (i + 1) * n_t)
                np.testing.assert_allclose(mu[rows, 0], single_mu, rtol=1e-12)
                np.testing.assert_allclose(sigma[rows, 0], single_sigma, rtol=1e-12)


def test_stacked_forward_rejects_mixed_shapes():
    # rows of different N_t cannot share one batch; bucketing keeps them apart
    rng = np.random.default_rng(12)
    episodes = [random_episode(rng, n_c=3, n_t=4), random_episode(rng, n_c=3, n_t=5)]
    x_c, y_c, x_t, y_t = ([getattr(ep, n)[0] for ep in episodes] for n in ("x_c", "y_c", "x_t", "y_t"))
    with pytest.raises(ValueError, match="inhomogeneous"):
        EpisodeBatch(x_c, y_c, x_t, y_t)
    assert [(b.n_target, b.index.tolist()) for b in bucket_episodes(episodes)] == [(4, [0]), (5, [1])]
    with pytest.raises(TypeError, match="EpisodeBatch"):
        forward_tensors(x_c, init_params(CGNP), train=False)


def test_radius_zero_equals_cnp_on_100_random_episodes():
    rng = np.random.default_rng(8)
    cgnp = ModelConfig(kind="cgnp", latent_dim=8, radius=0.0, init_seed=11)
    store = init_params(cgnp)
    randomize_store(store, rng)
    cnp_store = cnp_weights_from_cgnp(store)
    for _ in range(100):
        ep = random_episode(rng)
        mu_a, sigma_a = predict(ep, store)
        mu_b, sigma_b = predict(ep, cnp_store)
        np.testing.assert_allclose(mu_a, mu_b, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(sigma_a, sigma_b, rtol=1e-9, atol=1e-12)


def test_radius_zero_equivalence_holds_in_train_mode():
    rng = np.random.default_rng(9)
    cgnp = ModelConfig(kind="cgnp", latent_dim=8, radius=0.0, init_seed=12)
    store = init_params(cgnp)
    cnp_store = cnp_weights_from_cgnp(store)
    ep = random_episode(rng, n_c=6, n_t=5)
    mu_a, sigma_a = predict(ep, store, train=True)
    mu_b, sigma_b = predict(ep, cnp_store, train=True)
    np.testing.assert_allclose(mu_a, mu_b, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(sigma_a, sigma_b, rtol=1e-9, atol=1e-12)


def test_every_parameter_reaches_the_loss():
    rng = np.random.default_rng(10)
    ep = random_episode(rng, n_c=6, n_t=5)
    (batch,) = bucket_episodes((ep, random_episode(rng, n_c=6, n_t=5)))
    for cfg in (CNP, CGNP):
        store = init_params(cfg)
        loss = batch_loss(batch, store)
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
    batch = random_episode(rng, n_c=5, n_t=4)

    def build_loss():
        return batch_loss(batch, store)

    assert_grads_match(
        lambda: float(build_loss().value[0, 0]), build_loss, store.parameters()
    )
