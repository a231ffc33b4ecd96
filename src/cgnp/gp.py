"""Gaussian-process data protocol for 1-D function regression.

Functions are drawn from a zero-mean GP with a unit-variance exponentiated
quadratic kernel (length scale 0.4) on the interval [-2, 2]. Training
batches hold 64 episodes sharing one (N_c, N_t) draw with inputs sampled
uniformly; test episodes sample the GP jointly on a 400-point even grid and
promote a random subset of 3..10 grid points to context. The interval, the
count ranges and the grid are the protocol's fixed constants INTERVAL,
N_CONTEXT, N_TARGET and TEST_GRID, and the kernel's variance is fixed at 1.
Every episode and batch is a pure function of (master_seed, index), via
the derived streams in ``seeds``, whatever the BLAS thread count: the test
grid's kernel (and any `sample_function_values` draw) is factored column
by column, whose bytes do not depend on it, and LAPACK factors only the
small per-episode kernels of training batches (20 points at most), which
it does not split.

`EpisodeBatch` is the one episode record: a single episode is a batch of
one, and an episode set (test, held-out or loaded from a file) is a list
of shape buckets from `bucket_episodes`, each remembering the position of
its rows in the set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .seeds import DOMAIN_HELDOUT, DOMAIN_TEST, DOMAIN_TRAIN, derive_rng

__all__ = [
    "EqKernelSpec",
    "EpisodeBatch",
    "bucket_episodes",
    "ProtocolConfig",
    "NotPositiveDefiniteError",
    "eq_kernel",
    "kernel_matrix",
    "cholesky",
    "sample_function_values",
    "make_train_batch",
    "make_test_episode",
    "make_test_set",
    "make_heldout_set",
]


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot; the matrix is not PD."""


INTERVAL = (-2.0, 2.0)
N_CONTEXT = (3, 10)  # inclusive
N_TARGET = (2, 10)  # inclusive, training only
TEST_GRID = 400


def _check_field(obj, name: str, types: tuple[type, ...], low=None, high=None) -> None:
    """Raise a ValueError naming field `name` of config `obj` unless its
    value's type is exactly one of `types`, so that a bool fails where an
    int is asked for, and it lies in [low, high] (`high` only with `low`);
    NaN fails either bound."""
    value = getattr(obj, name)
    if type(value) not in types:
        raise ValueError(f"{name} must be an {' or '.join(t.__name__ for t in types)}, got {value!r}")
    if low is not None and not (value >= low and (high is None or value <= high)):
        if high is not None:
            rule = f"between {low} and {high}"
        else:
            rule = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True)
class EqKernelSpec:
    """Unit-variance exponentiated quadratic kernel k(x, x') = exp(-(x-x')^2 / (2 l^2)),
    plus `jitter` on the diagonal of a kernel matrix."""

    length_scale: float = 0.4
    jitter: float = 1e-6

    def __post_init__(self):
        # eq_kernel divides (x-x')^2 by 2 l^2: within these bounds that is a positive double
        # and the quotient finite for |x - x'| up to 1e4; past them it underflows or overflows
        _check_field(self, "length_scale", (int, float), 1e-150, 1e150)
        # a diagonal stabiliser never needs to reach the kernel's unit variance
        _check_field(self, "jitter", (int, float), 0, 1)


_FIELDS = ("x_c", "y_c", "x_t", "y_t")


def _check_shapes(x_c, y_c, x_t, y_t) -> None:
    """Raise unless the four shapes are (B, N_c), (B, N_c), (B, N_t) and
    (B, N_t), none of B, N_c and N_t zero."""
    if not (len(x_c) == len(x_t) == 2 and x_c == y_c and x_t == y_t and x_c[0] == x_t[0] and 0 not in x_c + x_t):
        got = ", ".join(f"{n} {shape}" for n, shape in zip(_FIELDS, (x_c, y_c, x_t, y_t)))
        raise ValueError(
            f"a batch needs non-empty x_c, y_c of shape (B, N_c) and x_t, y_t of shape (B, N_t); got {got}"
        )


def _check_finite(record) -> None:
    """Raise naming the first of the four fields that holds NaN or inf."""
    values = np.concatenate([getattr(record, n).ravel() for n in _FIELDS])
    if np.count_nonzero(np.isfinite(values)) != values.size:  # cheaper than .all() at this size
        bad = next(n for n in _FIELDS if not np.isfinite(getattr(record, n)).all())
        raise ValueError(f"{bad} holds a non-finite value (NaN or inf)")


@dataclass(frozen=True)
class EpisodeBatch:
    """B episodes that share one (N_c, N_t) pair, as four stacked arrays:
    x_c and y_c of shape (B, N_c), x_t and y_t of shape (B, N_t), one row
    per episode. Every value must be finite. `index[k]` is row k's position
    in the episode set the batch belongs to (0..B-1 unless given)."""

    x_c: np.ndarray
    y_c: np.ndarray
    x_t: np.ndarray
    y_t: np.ndarray
    index: np.ndarray | None = None

    def __post_init__(self):
        for name in _FIELDS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        _check_shapes(*(getattr(self, n).shape for n in _FIELDS))
        _check_finite(self)
        index = np.arange(len(self)) if self.index is None else np.asarray(self.index)
        if index.shape != (len(self),) or index.dtype.kind not in "iu":
            raise ValueError(f"index must hold one integer per row, got shape {index.shape}")
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return self.x_c.shape[0]

    @property
    def n_context(self) -> int:
        return self.x_c.shape[1]

    @property
    def n_target(self) -> int:
        return self.x_t.shape[1]


def bucket_episodes(batches) -> list[EpisodeBatch]:
    """The rows of `batches` regrouped by (N_c, N_t): buckets in order of
    first appearance, rows in input order within each. A bucket's `index`
    holds each row's position among all input rows, counted from 0.

    `batches` may be a generator; each shape group's input batches are
    released as soon as its bucket is built, so at most one group is held
    twice."""
    groups: dict[tuple[int, int], list[tuple[int, EpisodeBatch]]] = {}
    start = 0
    for batch in batches:
        groups.setdefault((batch.n_context, batch.n_target), []).append((start, batch))
        start += len(batch)
    buckets = []
    while groups:
        members = groups.pop(next(iter(groups)))
        buckets.append(EpisodeBatch(
            *(np.concatenate([getattr(b, n) for _, b in members]) for n in _FIELDS),
            index=np.concatenate([np.arange(s, s + len(b)) for s, b in members]),
        ))
    return buckets


@dataclass(frozen=True)
class ProtocolConfig:
    """Data-generation protocol. Defaults are the desk-scale run; the full
    protocol uses train_batches=200_000 and test_episodes=10_000."""

    batch_size: int = 64
    train_batches: int = 20_000
    test_episodes: int = 1_000
    master_seed: int = 0

    def __post_init__(self):
        # batch norm needs 2+ rows; the upper bounds cap what a run allocates
        _check_field(self, "batch_size", (int,), 2, 4096)
        _check_field(self, "train_batches", (int,), 1, 10**7)
        _check_field(self, "test_episodes", (int,), 0, 10**5)
        _check_field(self, "master_seed", (int,), 0)


# ---------------------------------------------------------------------------
# kernel and sampling
# ---------------------------------------------------------------------------


def eq_kernel(x1, x2, spec: EqKernelSpec):
    """Kernel value(s); broadcasts over array inputs."""
    d = np.asarray(x1, dtype=np.float64) - np.asarray(x2, dtype=np.float64)
    return np.exp(-(d**2) / (2.0 * spec.length_scale**2))


def kernel_matrix(xs, spec: EqKernelSpec) -> np.ndarray:
    """Symmetric kernel matrix with spec.jitter added to the diagonal, one
    (n, n) matrix per row of n points for xs of shape (..., n)."""
    xs = np.asarray(xs, dtype=np.float64)
    k = eq_kernel(xs[..., :, None], xs[..., None, :], spec)
    return k + spec.jitter * np.eye(xs.shape[-1])


def cholesky(k: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T = k."""
    try:
        return np.linalg.cholesky(np.asarray(k, dtype=np.float64))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc


def _column_cholesky(k: np.ndarray) -> np.ndarray:
    """`cholesky` computed one column per step (unblocked, left-looking).
    LAPACK's blocked factorisation of a large matrix splits its work by the
    BLAS thread count, and its bytes change with it; each step here is one
    matrix-vector product, whose bytes do not."""
    ell = np.zeros_like(k)
    for j in range(k.shape[0]):
        col = k[j:, j] - ell[j:, :j] @ ell[j, :j]
        if not col[0] > 0.0:  # NaN fails too
            raise NotPositiveDefiniteError(f"matrix is not positive definite: pivot {j} is {col[0]}")
        ell[j:, j] = col / np.sqrt(col[0])
    return ell


def _factor(xs, spec: EqKernelSpec, factor=cholesky) -> np.ndarray:
    try:
        return factor(kernel_matrix(xs, spec))
    except NotPositiveDefiniteError:
        # one retry with 100x jitter before giving up
        bumped = dataclasses.replace(spec, jitter=max(spec.jitter, 1e-12) * 100.0)
        return factor(kernel_matrix(xs, bumped))


def sample_function_values(xs, spec: EqKernelSpec, rng: np.random.Generator) -> np.ndarray:
    """One joint GP draw at the points xs: L @ z with z standard normal."""
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all(np.isfinite(xs)):
        raise ValueError("sample points must be finite")
    return _factor(xs, spec, _column_cholesky) @ rng.standard_normal(xs.size)


# ---------------------------------------------------------------------------
# episode construction
# ---------------------------------------------------------------------------


def make_train_batch(cfg: ProtocolConfig, spec: EqKernelSpec, batch_index: int) -> EpisodeBatch:
    """Training batch `batch_index`: one (N_c, N_t) draw shared by all episodes.

    Draw order is fixed: N_c, N_t, all inputs (batch_size x n), then all
    standard normals. Each episode's function values are one joint GP draw
    at that episode's inputs. The arrays are read-only.
    """
    if not 0 <= batch_index < cfg.train_batches:
        raise ValueError(f"batch_index {batch_index} outside 0..{cfg.train_batches - 1}")
    rng = derive_rng(cfg.master_seed, DOMAIN_TRAIN, batch_index)
    n_c = int(rng.integers(N_CONTEXT[0], N_CONTEXT[1] + 1))
    n_t = int(rng.integers(N_TARGET[0], N_TARGET[1] + 1))
    xs = rng.uniform(*INTERVAL, (cfg.batch_size, n_c + n_t))
    zs = rng.standard_normal((cfg.batch_size, n_c + n_t))
    try:
        ys = np.einsum("bij,bj->bi", np.linalg.cholesky(kernel_matrix(xs, spec)), zs)
    except np.linalg.LinAlgError:
        # some episode needed the jitter retry; factor them one at a time
        ys = np.stack([_factor(x, spec) @ z for x, z in zip(xs, zs)])
    return _read_only(EpisodeBatch(xs[:, :n_c], ys[:, :n_c], xs[:, n_c:], ys[:, n_c:]))


def _read_only(batch: EpisodeBatch) -> EpisodeBatch:
    """`batch` with its arrays made read-only: a training batch or held-out
    set may feed several runs at once (`training.compare_models`)."""
    for name in (*_FIELDS, "index"):
        getattr(batch, name).flags.writeable = False
    return batch


@lru_cache(maxsize=8)
def _grid_factor(spec: EqKernelSpec):
    grid = np.linspace(*INTERVAL, TEST_GRID)
    factor = _factor(grid, spec, _column_cholesky)
    grid.flags.writeable = False
    factor.flags.writeable = False
    return grid, factor


def _grid_episode(spec: EqKernelSpec, rng: np.random.Generator) -> EpisodeBatch:
    # draw order: function values, then N_c, then the context indices
    grid, factor = _grid_factor(spec)
    y = factor @ rng.standard_normal(TEST_GRID)
    n_c = int(rng.integers(N_CONTEXT[0], N_CONTEXT[1] + 1))
    ctx = rng.choice(TEST_GRID, size=n_c, replace=False)
    mask = np.zeros(TEST_GRID, dtype=bool)
    mask[ctx] = True
    return EpisodeBatch(grid[mask][None], y[mask][None], grid[~mask][None], y[~mask][None])


def make_test_episode(cfg: ProtocolConfig, spec: EqKernelSpec, episode_index: int) -> EpisodeBatch:
    """Test episode `episode_index` as a batch of one: joint sample on the
    even grid, random context subset, all remaining grid points as targets."""
    if not 0 <= episode_index < cfg.test_episodes:
        raise ValueError(f"episode_index {episode_index} outside 0..{cfg.test_episodes - 1}")
    rng = derive_rng(cfg.master_seed, DOMAIN_TEST, episode_index)
    return _grid_episode(spec, rng)


def make_test_set(cfg: ProtocolConfig, spec: EqKernelSpec) -> list[EpisodeBatch]:
    """The test episodes, shape-bucketed; index i is test episode i."""
    return bucket_episodes(make_test_episode(cfg, spec, i) for i in range(cfg.test_episodes))


def make_heldout_set(cfg: ProtocolConfig, spec: EqKernelSpec, count: int) -> list[EpisodeBatch]:
    """Grid episodes from the held-out stream, disjoint from train and test,
    shape-bucketed like the test set, with read-only arrays."""
    return [_read_only(bucket) for bucket in bucket_episodes(
        _grid_episode(spec, derive_rng(cfg.master_seed, DOMAIN_HELDOUT, i))
        for i in range(count)
    )]
