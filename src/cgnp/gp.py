"""Gaussian-process data protocol for 1-D function regression.

Functions are drawn from a zero-mean GP with a unit-variance exponentiated
quadratic kernel (length scale 0.4) on the interval [-2, 2]. Training
batches hold 64 episodes sharing one (N_c, N_t) draw with inputs sampled
uniformly; test episodes sample the GP jointly on a 400-point even grid and
promote a random subset of 3..10 grid points to context. Every episode and
batch is a pure function of (master_seed, index), via the derived streams
in ``seeds``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .seeds import DOMAIN_HELDOUT, DOMAIN_TEST, DOMAIN_TRAIN, derive_rng

__all__ = [
    "EqKernelSpec",
    "Episode",
    "EpisodeBatch",
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
        if self.length_scale <= 0.0:
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")
        if self.signal_variance <= 0.0:
            raise ValueError(f"signal_variance must be positive, got {self.signal_variance}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")


@dataclass(frozen=True)
class Episode:
    """One function instance split into context and target sets; every
    value must be finite."""

    x_c: np.ndarray
    y_c: np.ndarray
    x_t: np.ndarray
    y_t: np.ndarray

    def __post_init__(self):
        for name in ("x_c", "y_c", "x_t", "y_t"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.x_c.shape != self.y_c.shape or self.x_c.ndim != 1 or self.x_c.size < 1:
            raise ValueError("context arrays must be equal-length 1-D with at least one point")
        if self.x_t.shape != self.y_t.shape or self.x_t.ndim != 1 or self.x_t.size < 1:
            raise ValueError("target arrays must be equal-length 1-D with at least one point")
        values = np.concatenate([self.x_c, self.y_c, self.x_t, self.y_t])
        if np.count_nonzero(np.isfinite(values)) != values.size:  # cheaper than .all() at this size
            bad = next(n for n in ("x_c", "y_c", "x_t", "y_t") if not np.isfinite(getattr(self, n)).all())
            raise ValueError(f"{bad} holds a non-finite value (NaN or inf)")

    @property
    def n_context(self) -> int:
        return self.x_c.size

    @property
    def n_target(self) -> int:
        return self.x_t.size


@dataclass(frozen=True)
class EpisodeBatch:
    """Episodes trained together; all share one (N_c, N_t) pair."""

    episodes: tuple[Episode, ...]

    def __post_init__(self):
        object.__setattr__(self, "episodes", tuple(self.episodes))
        if not self.episodes:
            raise ValueError("batch must contain at least one episode")
        n_c = {ep.n_context for ep in self.episodes}
        n_t = {ep.n_target for ep in self.episodes}
        if len(n_c) != 1 or len(n_t) != 1:
            raise ValueError("episodes in a batch must share (N_c, N_t)")

    @property
    def n_context(self) -> int:
        return self.episodes[0].n_context

    @property
    def n_target(self) -> int:
        return self.episodes[0].n_target


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
        if self.interval[0] >= self.interval[1]:
            raise ValueError(f"empty interval {self.interval}")
        for lo, hi in (self.n_context, self.n_target):
            if lo < 1 or hi < lo:
                raise ValueError("count ranges must be non-empty and positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.test_grid < self.n_context[1] + 1:
            raise ValueError("test grid must exceed the largest context count")


# ---------------------------------------------------------------------------
# kernel and sampling
# ---------------------------------------------------------------------------


def eq_kernel(x1, x2, spec: EqKernelSpec):
    """Kernel value(s); broadcasts over array inputs."""
    d = np.asarray(x1, dtype=np.float64) - np.asarray(x2, dtype=np.float64)
    return spec.signal_variance * np.exp(-(d**2) / (2.0 * spec.length_scale**2))


def kernel_matrix(xs, spec: EqKernelSpec) -> np.ndarray:
    """Symmetric kernel matrix with spec.jitter added to the diagonal."""
    xs = np.asarray(xs, dtype=np.float64)
    k = eq_kernel(xs[:, None], xs[None, :], spec)
    return k + spec.jitter * np.eye(xs.size)


def cholesky(k: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T = k."""
    try:
        return np.linalg.cholesky(np.asarray(k, dtype=np.float64))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc


def _factor(xs, spec: EqKernelSpec) -> np.ndarray:
    try:
        return cholesky(kernel_matrix(xs, spec))
    except NotPositiveDefiniteError:
        # one retry with 100x jitter before giving up
        bumped = dataclasses.replace(spec, jitter=max(spec.jitter, 1e-12) * 100.0)
        return cholesky(kernel_matrix(xs, bumped))


def sample_function_values(xs, spec: EqKernelSpec, rng: np.random.Generator) -> np.ndarray:
    """One joint GP draw at the points xs: L @ z with z standard normal."""
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all(np.isfinite(xs)):
        raise ValueError("sample points must be finite")
    return _factor(xs, spec) @ rng.standard_normal(xs.size)


# ---------------------------------------------------------------------------
# episode construction
# ---------------------------------------------------------------------------


def make_train_batch(cfg: ProtocolConfig, spec: EqKernelSpec, batch_index: int) -> EpisodeBatch:
    """Training batch `batch_index`: one (N_c, N_t) draw shared by all episodes.

    Draw order is fixed: N_c, N_t, all inputs (batch_size x n), then all
    standard normals. Each episode's function values are one joint GP draw
    at that episode's inputs.
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
        k = eq_kernel(xs[:, :, None], xs[:, None, :], spec) + spec.jitter * np.eye(n_c + n_t)
        ys = np.einsum("bij,bj->bi", np.linalg.cholesky(k), zs)
    except np.linalg.LinAlgError:
        # some episode needed the jitter retry; factor them one at a time
        ys = np.stack([_factor(x, spec) @ z for x, z in zip(xs, zs)])
    episodes = [
        Episode(x[:n_c], y[:n_c], x[n_c:], y[n_c:]) for x, y in zip(xs, ys)
    ]
    return EpisodeBatch(tuple(episodes))


@lru_cache(maxsize=8)
def _grid_factor(interval: tuple[float, float], n: int, spec: EqKernelSpec):
    grid = np.linspace(interval[0], interval[1], n)
    factor = _factor(grid, spec)
    grid.flags.writeable = False
    factor.flags.writeable = False
    return grid, factor


def _grid_episode(cfg: ProtocolConfig, spec: EqKernelSpec, rng: np.random.Generator) -> Episode:
    # draw order: function values, then N_c, then the context indices
    grid, factor = _grid_factor(cfg.interval, cfg.test_grid, spec)
    y = factor @ rng.standard_normal(cfg.test_grid)
    n_c = int(rng.integers(cfg.n_context[0], cfg.n_context[1] + 1))
    ctx = rng.choice(cfg.test_grid, size=n_c, replace=False)
    mask = np.zeros(cfg.test_grid, dtype=bool)
    mask[ctx] = True
    return Episode(grid[mask], y[mask], grid[~mask], y[~mask])


def make_test_episode(cfg: ProtocolConfig, spec: EqKernelSpec, episode_index: int) -> Episode:
    """Test episode `episode_index`: joint sample on the even grid, random
    context subset, all remaining grid points as targets."""
    if not 0 <= episode_index < cfg.test_episodes:
        raise ValueError(f"episode_index {episode_index} outside 0..{cfg.test_episodes - 1}")
    rng = derive_rng(cfg.master_seed, DOMAIN_TEST, episode_index)
    return _grid_episode(cfg, spec, rng)


def make_test_set(cfg: ProtocolConfig, spec: EqKernelSpec) -> list[Episode]:
    return [make_test_episode(cfg, spec, i) for i in range(cfg.test_episodes)]


def make_heldout_set(cfg: ProtocolConfig, spec: EqKernelSpec, count: int) -> list[Episode]:
    """Grid episodes from the held-out stream, disjoint from train and test."""
    return [
        _grid_episode(cfg, spec, derive_rng(cfg.master_seed, DOMAIN_HELDOUT, i))
        for i in range(count)
    ]
