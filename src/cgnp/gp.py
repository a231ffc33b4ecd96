"""Gaussian-process data protocol for 1-D function regression.

Functions are drawn from a zero-mean GP with a unit-variance exponentiated
quadratic kernel (length scale 0.4) on the interval [-2, 2]. Training
batches hold 64 episodes sharing one (N_c, N_t) draw with inputs sampled
uniformly; test episodes sample the GP jointly on a 400-point even grid and
promote a random subset of 3..10 grid points to context. Every episode and
batch is a pure function of (master_seed, index), via the derived streams
in ``seeds``, whatever the BLAS thread count: the test grid's kernel (and
any `sample_function_values` draw) is factored column by column, whose
bytes do not depend on it, and LAPACK factors only the small per-episode
kernels of training batches (20 points at most by default), which it does
not split.

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


@dataclass(frozen=True)
class EqKernelSpec:
    """Exponentiated quadratic kernel k(x, x') = v * exp(-(x-x')^2 / (2 l^2))."""

    length_scale: float = 0.4
    signal_variance: float = 1.0
    jitter: float = 1e-6

    def __post_init__(self):
        # eq_kernel divides (x-x')^2 by 2 l^2: within these bounds that is a positive double
        # and the quotient finite for |x - x'| up to 1e4; past them it underflows or overflows
        if not 1e-150 <= self.length_scale <= 1e150:  # NaN fails every check here
            raise ValueError(f"length_scale must be between 1e-150 and 1e150, got {self.length_scale}")
        if not self.signal_variance > 0.0:
            raise ValueError(f"signal_variance must be positive, got {self.signal_variance}")
        if not self.jitter >= 0.0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")


_FIELDS = ("x_c", "y_c", "x_t", "y_t")


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
        ok = (
            self.x_c.ndim == self.x_t.ndim == 2
            and self.x_c.shape == self.y_c.shape
            and self.x_t.shape == self.y_t.shape
            and self.x_c.shape[0] == self.x_t.shape[0]
            and self.x_c.size > 0
            and self.x_t.size > 0
        )
        if not ok:
            shapes = ", ".join(f"{n} {getattr(self, n).shape}" for n in _FIELDS)
            raise ValueError(
                f"a batch needs non-empty x_c, y_c of shape (B, N_c) and x_t, y_t of shape (B, N_t); got {shapes}"
            )
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

    `batches` may be a generator (`formats.load_episodes` feeds one line
    at a time); each shape group's input batches are released as soon as
    its bucket is built, so at most one group is held twice."""
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

    interval: tuple[float, float] = (-2.0, 2.0)
    n_context: tuple[int, int] = (3, 10)  # inclusive
    n_target: tuple[int, int] = (2, 10)  # inclusive, training only
    batch_size: int = 64
    train_batches: int = 20_000
    test_grid: int = 400
    test_episodes: int = 1_000
    master_seed: int = 0

    def __post_init__(self):
        if not self.interval[0] < self.interval[1]:
            raise ValueError(f"empty interval {self.interval}")
        for lo, hi in (self.n_context, self.n_target):
            if lo < 1 or hi < lo:
                raise ValueError("count ranges must be non-empty and positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.train_batches < 1:
            raise ValueError(f"train_batches must be at least 1, got {self.train_batches}")
        if self.test_episodes < 0:
            raise ValueError(f"test_episodes must be non-negative, got {self.test_episodes}")
        if self.test_grid < self.n_context[1] + 1:
            raise ValueError("test grid must exceed the largest context count")
        if self.test_grid > 4096:  # it sizes a (test_grid, test_grid) kernel matrix
            raise ValueError(f"test_grid must be at most 4096, got {self.test_grid}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")


# ---------------------------------------------------------------------------
# kernel and sampling
# ---------------------------------------------------------------------------


def eq_kernel(x1, x2, spec: EqKernelSpec):
    """Kernel value(s); broadcasts over array inputs."""
    d = np.asarray(x1, dtype=np.float64) - np.asarray(x2, dtype=np.float64)
    return spec.signal_variance * np.exp(-(d**2) / (2.0 * spec.length_scale**2))


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
    n_c = int(rng.integers(cfg.n_context[0], cfg.n_context[1] + 1))
    n_t = int(rng.integers(cfg.n_target[0], cfg.n_target[1] + 1))
    lo, hi = cfg.interval
    xs = rng.uniform(lo, hi, (cfg.batch_size, n_c + n_t))
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
def _grid_factor(interval: tuple[float, float], n: int, spec: EqKernelSpec):
    grid = np.linspace(interval[0], interval[1], n)
    factor = _factor(grid, spec, _column_cholesky)
    grid.flags.writeable = False
    factor.flags.writeable = False
    return grid, factor


def _grid_episode(cfg: ProtocolConfig, spec: EqKernelSpec, rng: np.random.Generator) -> EpisodeBatch:
    # draw order: function values, then N_c, then the context indices
    grid, factor = _grid_factor(cfg.interval, cfg.test_grid, spec)
    y = factor @ rng.standard_normal(cfg.test_grid)
    n_c = int(rng.integers(cfg.n_context[0], cfg.n_context[1] + 1))
    ctx = rng.choice(cfg.test_grid, size=n_c, replace=False)
    mask = np.zeros(cfg.test_grid, dtype=bool)
    mask[ctx] = True
    return EpisodeBatch(grid[mask][None], y[mask][None], grid[~mask][None], y[~mask][None])


def make_test_episode(cfg: ProtocolConfig, spec: EqKernelSpec, episode_index: int) -> EpisodeBatch:
    """Test episode `episode_index` as a batch of one: joint sample on the
    even grid, random context subset, all remaining grid points as targets."""
    if not 0 <= episode_index < cfg.test_episodes:
        raise ValueError(f"episode_index {episode_index} outside 0..{cfg.test_episodes - 1}")
    rng = derive_rng(cfg.master_seed, DOMAIN_TEST, episode_index)
    return _grid_episode(cfg, spec, rng)


def make_test_set(cfg: ProtocolConfig, spec: EqKernelSpec) -> list[EpisodeBatch]:
    """The test episodes, shape-bucketed; index i is test episode i."""
    return bucket_episodes(make_test_episode(cfg, spec, i) for i in range(cfg.test_episodes))


def make_heldout_set(cfg: ProtocolConfig, spec: EqKernelSpec, count: int) -> list[EpisodeBatch]:
    """Grid episodes from the held-out stream, disjoint from train and test,
    shape-bucketed like the test set, with read-only arrays."""
    return [_read_only(bucket) for bucket in bucket_episodes(
        _grid_episode(cfg, spec, derive_rng(cfg.master_seed, DOMAIN_HELDOUT, i))
        for i in range(count)
    )]
