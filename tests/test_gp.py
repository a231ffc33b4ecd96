import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cgnp.gp as gp
from cgnp.gp import (
    INTERVAL,
    N_CONTEXT,
    N_TARGET,
    EpisodeBatch,
    EqKernelSpec,
    NotPositiveDefiniteError,
    ProtocolConfig,
    bucket_episodes,
    cholesky,
    eq_kernel,
    kernel_matrix,
    make_heldout_set,
    make_test_episode,
    make_test_set,
    make_train_batch,
    sample_function_values,
)
from cgnp.models import ModelConfig
from cgnp.seeds import DOMAIN_TRAIN, derive_rng
from cgnp.training import TrainConfig

from helpers import episode

SPEC = EqKernelSpec()  # length scale 0.4, unit variance, jitter 1e-6
PROTO = ProtocolConfig()


# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------


def test_eq_kernel_values():
    assert eq_kernel(0.0, 0.0, SPEC) == 1.0
    np.testing.assert_allclose(eq_kernel(0.0, 0.4, SPEC), math.exp(-0.5), rtol=1e-14)
    np.testing.assert_allclose(eq_kernel(-1.0, 1.0, SPEC), math.exp(-12.5), rtol=1e-14)


def test_kernel_matrix_values():
    k = kernel_matrix([0.0], EqKernelSpec(jitter=0.0))
    np.testing.assert_array_equal(k, [[1.0]])
    k = kernel_matrix([-1.0, 0.0, 1.0], SPEC)
    np.testing.assert_allclose(k[0, 1], math.exp(-3.125), rtol=1e-14)
    np.testing.assert_allclose(k[0, 2], math.exp(-12.5), rtol=1e-14)


def test_kernel_matrix_of_stacked_rows_is_each_row_s_matrix():
    xs = np.random.default_rng(0).uniform(-2.0, 2.0, (4, 7))
    k = kernel_matrix(xs, SPEC)
    assert k.shape == (4, 7, 7)
    for row, matrix in zip(xs, k):
        assert np.array_equal(matrix, kernel_matrix(row, SPEC))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=15), st.integers(0, 2**32 - 1))
def test_kernel_matrix_symmetry_and_range(xs, seed):
    k = kernel_matrix(xs, SPEC)
    assert np.array_equal(k, k.T)
    np.testing.assert_allclose(np.diag(k), 1.0 + SPEC.jitter, rtol=1e-15)
    off = k[~np.eye(len(xs), dtype=bool)]
    assert np.all(off > 0.0) and np.all(off <= 1.0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        EqKernelSpec(length_scale=0.0)
    with pytest.raises(ValueError, match="jitter must be between 0 and 1, got -1e-09"):
        EqKernelSpec(jitter=-1e-9)
    with pytest.raises(ValueError, match="jitter must be between 0 and 1, got 1.5"):
        EqKernelSpec(jitter=1.5)
    assert EqKernelSpec(jitter=0.0).jitter == 0.0 and EqKernelSpec(jitter=1.0).jitter == 1.0
    for field in ("length_scale", "jitter"):
        with pytest.raises(ValueError, match=field):
            EqKernelSpec(**{field: math.nan})


def test_protocol_validation():
    with pytest.raises(ValueError, match="train_batches"):
        ProtocolConfig(train_batches=0)
    with pytest.raises(ValueError, match="test_episodes"):
        ProtocolConfig(test_episodes=-1)
    # batch norm needs two rows; the upper bounds are the ones README states for the config keys
    for name, bad, good in [("batch_size", 1, 2), ("batch_size", 4097, 4096), ("train_batches", 10**7 + 1, 10**7),
                            ("test_episodes", 10**5 + 1, 10**5)]:
        assert getattr(ProtocolConfig(**{name: good}), name) == good
        with pytest.raises(ValueError, match=f"^{name} must be between \\d+ and \\d+, got {bad}$"):
            ProtocolConfig(**{name: bad})


# every numeric field of the four config dataclasses: how to build the config, and the types it takes
NUMERIC_FIELDS = {
    "batch_size": (ProtocolConfig, "int"),
    "train_batches": (ProtocolConfig, "int"),
    "test_episodes": (ProtocolConfig, "int"),
    "master_seed": (ProtocolConfig, "int"),
    "length_scale": (EqKernelSpec, "int or float"),
    "jitter": (EqKernelSpec, "int or float"),
    "latent_dim": (partial(ModelConfig, kind="cnp"), "int"),
    "radius": (partial(ModelConfig, kind="cgnp"), "int or float"),
    "init_seed": (partial(ModelConfig, kind="cnp"), "int"),
    "lr": (partial(TrainConfig, model=ModelConfig(kind="cnp")), "int or float"),
    "eval_every": (partial(TrainConfig, model=ModelConfig(kind="cnp")), "int"),
    "heldout_episodes": (partial(TrainConfig, model=ModelConfig(kind="cnp")), "int"),
}


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{value}-{name}")
    for value in (1.5, 2.0, True, "3", None)
    for name, (_, types) in NUMERIC_FIELDS.items()
    if types == "int" or not isinstance(value, float)
])
def test_protocol_rejects_a_field_that_is_not_an_int(name, value):
    # exact types, in every config dataclass: a float seed would train as
    # its int(), a bool would pass as 0 or 1, and a str would fail naming no field
    make, types = NUMERIC_FIELDS[name]
    with pytest.raises(ValueError, match=f"^{name} must be an {types}, got {re.escape(repr(value))}$"):
        make(**{name: value})


# ---------------------------------------------------------------------------
# cholesky
# ---------------------------------------------------------------------------


def test_cholesky_identity_and_scalar():
    np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))
    np.testing.assert_array_equal(cholesky([[4.0]]), [[2.0]])


def test_cholesky_hand_case():
    ell = cholesky([[2.0, 1.0], [1.0, 2.0]])
    expected = [[math.sqrt(2.0), 0.0], [1.0 / math.sqrt(2.0), math.sqrt(1.5)]]
    np.testing.assert_allclose(ell, expected, atol=1e-12)


def test_cholesky_rejects_indefinite():
    for factor in (cholesky, gp._column_cholesky):
        with pytest.raises(NotPositiveDefiniteError):
            factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 20))
def test_cholesky_reconstructs_protocol_matrices(seed, n):
    xs = derive_rng(seed, 7).uniform(-2, 2, n)
    k = kernel_matrix(xs, SPEC)
    ell = cholesky(k)
    assert np.max(np.abs(ell @ ell.T - k)) <= 1e-10
    column = gp._column_cholesky(k)
    assert np.array_equal(column, np.tril(column))
    assert np.max(np.abs(column @ column.T - k)) <= 1e-10


def test_cholesky_succeeds_on_ten_thousand_protocol_draws():
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        xs = rng.uniform(-2, 2, int(rng.integers(5, 21)))
        cholesky(kernel_matrix(xs, SPEC))  # must not raise


# ---------------------------------------------------------------------------
# GP sampling statistics
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic_given_rng_state():
    xs = np.linspace(-2, 2, 7)
    a = sample_function_values(xs, SPEC, np.random.default_rng(5))
    b = sample_function_values(xs, SPEC, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_sampling_marginal_statistics():
    # Monte Carlo against the analytic prior: unit variance per point and
    # correlation exp(-0.5) at distance 0.4
    xs = np.array([-1.0, -0.6, 0.3, 0.7])
    rng = np.random.default_rng(42)
    draws = np.stack([sample_function_values(xs, SPEC, rng) for _ in range(10_000)])
    var = draws.var(axis=0)
    np.testing.assert_allclose(var, 1.0, atol=0.05)
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    np.testing.assert_allclose(corr, math.exp(-0.5), atol=0.05)
    corr = np.corrcoef(draws[:, 2], draws[:, 3])[0, 1]
    np.testing.assert_allclose(corr, math.exp(-0.5), atol=0.05)


def test_sampling_mean_and_covariance_match_kernel():
    grid = np.linspace(-2, 2, 10)
    rng = np.random.default_rng(7)
    draws = np.stack([sample_function_values(grid, SPEC, rng) for _ in range(10_000)])
    np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.05)
    emp = np.cov(draws, rowvar=False, bias=True)
    np.testing.assert_allclose(emp, kernel_matrix(grid, SPEC), atol=0.05)


# ---------------------------------------------------------------------------
# training batches
# ---------------------------------------------------------------------------


def per_episode_train_batch(cfg, spec, batch_index):
    """Reference: the training batch as one single-episode batch per row of
    the joint draw, as make_train_batch built it before batches became arrays."""
    rng = derive_rng(cfg.master_seed, DOMAIN_TRAIN, batch_index)
    n_c = int(rng.integers(N_CONTEXT[0], N_CONTEXT[1] + 1))
    n_t = int(rng.integers(N_TARGET[0], N_TARGET[1] + 1))
    xs = rng.uniform(*INTERVAL, (cfg.batch_size, n_c + n_t))
    zs = rng.standard_normal((cfg.batch_size, n_c + n_t))
    try:
        k = eq_kernel(xs[:, :, None], xs[:, None, :], spec) + spec.jitter * np.eye(n_c + n_t)
        ys = np.einsum("bij,bj->bi", np.linalg.cholesky(k), zs)
    except np.linalg.LinAlgError:
        ys = np.stack([gp._factor(x, spec) @ z for x, z in zip(xs, zs)])
    return [episode(x[:n_c], y[:n_c], x[n_c:], y[n_c:]) for x, y in zip(xs, ys)]


def assert_batch_equals_episodes(batch, episodes):
    assert len(batch) == len(episodes)
    for k, ep in enumerate(episodes):
        for name in ("x_c", "y_c", "x_t", "y_t"):
            assert np.array_equal(getattr(batch, name)[k], getattr(ep, name)[0]), (k, name)


def test_train_batch_shared_counts_and_interval():
    for index in (0, 1, 17):
        batch = make_train_batch(PROTO, SPEC, index)
        assert len(batch) == 64
        n_c, n_t = batch.n_context, batch.n_target
        assert 3 <= n_c <= 10 and 2 <= n_t <= 10
        assert batch.x_c.shape == batch.y_c.shape == (64, n_c)
        assert batch.x_t.shape == batch.y_t.shape == (64, n_t)
        for xs in (batch.x_c, batch.x_t):
            assert np.all(xs >= -2.0) and np.all(xs <= 2.0)


def test_train_batch_matches_per_episode_construction():
    for index in (0, 1, 17, 123, 19_999):
        batch = make_train_batch(PROTO, SPEC, index)
        assert_batch_equals_episodes(batch, per_episode_train_batch(PROTO, SPEC, index))


def test_train_batch_jitter_retry_gives_the_same_arrays(monkeypatch):
    proto = ProtocolConfig(batch_size=8)
    batched = [make_train_batch(proto, SPEC, index) for index in (0, 3)]
    real = np.linalg.cholesky

    def batched_factor_fails(a):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("forced failure of the batched factor")
        return real(a)

    monkeypatch.setattr(gp.np.linalg, "cholesky", batched_factor_fails)
    for index, plain in zip((0, 3), batched):
        retried = make_train_batch(proto, SPEC, index)
        assert_batch_equals_episodes(retried, per_episode_train_batch(proto, SPEC, index))
        for name in ("x_c", "x_t"):
            assert np.array_equal(getattr(retried, name), getattr(plain, name))
        for name in ("y_c", "y_t"):
            np.testing.assert_allclose(getattr(retried, name), getattr(plain, name), rtol=1e-12, atol=1e-12)


def test_train_batch_deterministic_and_order_independent():
    a = make_train_batch(PROTO, SPEC, 5)
    _ = make_train_batch(PROTO, SPEC, 2)
    b = make_train_batch(PROTO, SPEC, 5)
    for name in ("x_c", "y_c", "x_t", "y_t"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_train_batch_counts_vary_across_batches():
    pairs = {
        (make_train_batch(PROTO, SPEC, i).n_context, make_train_batch(PROTO, SPEC, i).n_target)
        for i in range(25)
    }
    assert len(pairs) > 3


def test_train_batch_index_validation():
    with pytest.raises(ValueError, match="batch_index"):
        make_train_batch(PROTO, SPEC, PROTO.train_batches)


# ---------------------------------------------------------------------------
# test episodes
# ---------------------------------------------------------------------------


def test_test_episode_grid_structure():
    ep = make_test_episode(PROTO, SPEC, 0)
    assert len(ep) == 1 and ep.index.tolist() == [0]
    assert ep.n_context + ep.n_target == 400
    assert 3 <= ep.n_context <= 10
    grid = np.sort(np.concatenate([ep.x_c[0], ep.x_t[0]]))
    np.testing.assert_allclose(grid[0], -2.0)
    np.testing.assert_allclose(grid[-1], 2.0)
    np.testing.assert_allclose(np.diff(grid), 4.0 / 399.0, rtol=1e-12)
    assert np.unique(ep.x_c).size == ep.n_context  # distinct context positions


def test_test_episode_deterministic():
    a = make_test_episode(PROTO, SPEC, 3)
    b = make_test_episode(PROTO, SPEC, 3)
    assert np.array_equal(a.x_c, b.x_c) and np.array_equal(a.y_t, b.y_t)


def test_test_and_heldout_streams_differ():
    test = make_test_episode(PROTO, SPEC, 0)
    (held,) = make_heldout_set(PROTO, SPEC, 1)
    assert not np.array_equal(test.y_t, held.y_t)


def test_training_batches_and_heldout_sets_are_read_only():
    # a batch and a held-out set feed several runs at once in compare_models
    heldout = make_heldout_set(PROTO, SPEC, 12)
    assert len(heldout) >= 2  # several shape buckets
    for batch in [make_train_batch(PROTO, SPEC, 4), *heldout]:
        for name in ("x_c", "y_c", "x_t", "y_t", "index"):
            array = getattr(batch, name)
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0
            with pytest.raises(ValueError, match="read-only"):
                array += 1


def test_episode_validation():
    with pytest.raises(ValueError, match="non-empty"):
        episode([], [], [0.0], [0.0])
    with pytest.raises(ValueError, match=r"y_c \(1, 2\)"):
        episode([0.0], [0.0, 1.0], [0.0], [0.0])
    with pytest.raises(ValueError, match="one integer per row"):
        EpisodeBatch(*(np.zeros((2, 3)) for _ in range(4)), index=[0])
    with pytest.raises(ValueError, match="one integer per row"):
        EpisodeBatch(*(np.zeros((2, 3)) for _ in range(4)), index=[0.0, 1.0])


def test_episode_batch_requires_shared_counts():
    # every bucket shares one (N_c, N_t); an empty input gives no bucket
    a = episode([0.0, 1.0], [0.0, 0.0], [0.5], [0.0])
    b = episode([0.0], [0.0], [0.5], [0.0])
    buckets = bucket_episodes((a, b, a))
    assert [(x.n_context, x.n_target, len(x)) for x in buckets] == [(2, 1, 2), (1, 1, 1)]
    assert bucket_episodes([]) == []


def test_bucket_episodes_stacks_in_order_and_records_positions():
    a = episode([0.0, 1.0], [2.0, 3.0], [0.5], [4.0])
    b = episode([-1.0, -0.5], [5.0, 6.0], [1.5], [7.0])
    c = episode([9.0], [9.0], [9.5], [9.0])
    first, second = bucket_episodes([a, c, b])
    assert len(first) == 2 and first.n_context == 2 and first.n_target == 1
    np.testing.assert_array_equal(first.x_c, [[0.0, 1.0], [-1.0, -0.5]])
    np.testing.assert_array_equal(first.y_t, [[4.0], [7.0]])
    assert first.index.tolist() == [0, 2] and second.index.tolist() == [1]
    # multi-row inputs: positions count rows across the whole input
    buckets = bucket_episodes([c, first, c])
    assert [x.index.tolist() for x in buckets] == [[0, 3], [1, 2]]


def test_test_set_buckets_hold_every_episode_at_its_index():
    proto = ProtocolConfig(test_episodes=40)
    buckets = make_test_set(proto, SPEC)
    assert sorted(np.concatenate([b.index for b in buckets]).tolist()) == list(range(40))
    assert len({(b.n_context, b.n_target) for b in buckets}) == len(buckets)
    for bucket in buckets:
        assert np.all(np.diff(bucket.index) > 0)  # input order kept inside a bucket
        for row, i in enumerate(bucket.index):
            single = make_test_episode(proto, SPEC, int(i))
            for name in ("x_c", "y_c", "x_t", "y_t"):
                assert np.array_equal(getattr(bucket, name)[row], getattr(single, name)[0])


@pytest.mark.parametrize("field", ["x_c", "y_c", "x_t", "y_t"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_episode_batch_rejects_non_finite_values_naming_the_field(field, bad):
    arrays = {n: np.zeros((3, 4 if n.endswith("_c") else 2)) for n in ("x_c", "y_c", "x_t", "y_t")}
    arrays[field][2, 1] = bad
    with pytest.raises(ValueError, match=f"{field} holds a non-finite value"):
        EpisodeBatch(**arrays)


def test_episode_batch_rejects_mismatched_shapes():
    c, t = np.zeros((3, 4)), np.zeros((3, 2))
    for args in (
        (c, np.zeros((3, 5)), t, t),  # y_c differs from x_c
        (c, c, t, np.zeros((3, 3))),  # y_t differs from x_t
        (c, c, np.zeros((2, 2)), np.zeros((2, 2))),  # episode counts differ
        (c[0], c[0], t[0], t[0]),  # one episode must still be 2-D
        (np.zeros((3, 0)), np.zeros((3, 0)), t, t),  # no context point
        (c, c, np.zeros((3, 0)), np.zeros((3, 0))),  # no target point
    ):
        with pytest.raises(ValueError, match=r"\(B, N_c\).*\(B, N_t\); got x_c"):
            EpisodeBatch(*args)
