"""Training loop and test metrics.

Training minimizes the batch NLL (mean over episodes of the mean per-target
NLL) with Adam at a fixed learning rate, drawing a fresh 64-episode batch
per step; the batch arrives as stacked arrays and goes to the model as is.
Evaluation reports the NLL under two normalizations (per target point and
per episode) plus the MSE of the predictive mean, all over target points
only; it takes an episode set as shape buckets (`gp.bucket_episodes`),
runs one forward per chunk of a bucket, and adds each chunk's NLL and
squared-error sums to running totals as soon as it is computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor, backward, gaussian_nll, nll_terms
from .gp import EpisodeBatch, EqKernelSpec, ProtocolConfig, make_heldout_set, make_train_batch
from .models import ModelConfig, ParameterStore, forward_tensors, init_params
from .optim import AdamState, adam_step, zero_grads

__all__ = [
    "TrainConfig",
    "Metrics",
    "TrainReport",
    "TrainingDivergedError",
    "batch_loss",
    "train",
    "evaluate",
    "loss_drop",
    "VariantResult",
    "SeedRun",
    "compare_models",
    "COMPARE_VARIANTS",
]


# Target rows per stacked evaluation forward: large enough to amortise the
# per-op overhead, small enough to keep the tape's arrays in cache and off
# the peak resident set.
EVAL_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    kernel: EqKernelSpec = EqKernelSpec()
    protocol: ProtocolConfig = ProtocolConfig()
    lr: float = 1e-3
    eval_every: int = 1000  # 0 disables periodic held-out evaluation
    heldout_episodes: int = 64

    def __post_init__(self):
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if not self.eval_every >= 0:
            raise ValueError(f"eval_every must be non-negative, got {self.eval_every}")
        if self.protocol.batch_size < 2:
            raise ValueError("batch_size must be at least 2 (batch norm needs 2+ rows)")


@dataclass(frozen=True)
class Metrics:
    nll_per_point: float
    nll_per_episode: float
    mse: float
    episode_count: int


@dataclass
class TrainReport:
    losses: np.ndarray  # training loss per batch
    heldout: list[tuple[int, Metrics]] = field(default_factory=list)
    final_metrics: Metrics | None = None
    wall_seconds: float = 0.0
    config: TrainConfig | None = None


class TrainingDivergedError(RuntimeError):
    def __init__(self, batch_index: int, loss_value: float, store: ParameterStore):
        norms = ", ".join(
            f"{name}={np.linalg.norm(p.value):.3g}" for name, p in store.params.items()
        )
        super().__init__(
            f"non-finite loss {loss_value} at batch {batch_index}; parameter norms: {norms}"
        )
        self.batch_index = batch_index
        self.loss_value = loss_value


def batch_loss(batch: EpisodeBatch, store: ParameterStore, cfg: ModelConfig) -> Tensor:
    """NLL of one training batch as a differentiable scalar.

    Episodes in a batch share N_t, so the flat mean over all stacked target
    points equals the mean over episodes of each episode's per-target mean.
    """
    mu, sigma = forward_tensors(batch, store, cfg, train=True)
    return gaussian_nll(batch.y_t.reshape(-1, 1), mu, sigma)


def train(cfg: TrainConfig, log=None) -> tuple[ParameterStore, TrainReport]:
    """Run the training protocol; returns the trained store and a report.

    ``log(batch_index, loss, metrics_or_none)`` is called every
    ``eval_every`` batches and on the final batch.
    """
    start = time.perf_counter()
    store = init_params(cfg.model)
    adam = AdamState(store.parameters(), lr=cfg.lr)
    heldout = make_heldout_set(cfg.protocol, cfg.kernel, cfg.heldout_episodes)
    n_batches = cfg.protocol.train_batches
    losses = np.empty(n_batches)
    report = TrainReport(losses=losses, config=cfg)

    for b in range(n_batches):
        batch = make_train_batch(cfg.protocol, cfg.kernel, b)
        loss = batch_loss(batch, store, cfg.model)
        loss_value = float(loss.value[0, 0])
        if not np.isfinite(loss_value):
            raise TrainingDivergedError(b, loss_value, store)
        losses[b] = loss_value
        backward(loss)
        adam_step(adam)
        zero_grads(adam)

        at_eval = cfg.eval_every > 0 and (b % cfg.eval_every == 0 or b == n_batches - 1)
        if at_eval:
            metrics = evaluate(store, cfg.model, heldout) if heldout else None
            if metrics is not None:
                report.heldout.append((b, metrics))
            if log is not None:
                log(b, loss_value, metrics)

    if report.heldout:  # the last batch was just evaluated
        report.final_metrics = report.heldout[-1][1]
    elif heldout:
        report.final_metrics = evaluate(store, cfg.model, heldout)
    report.wall_seconds = time.perf_counter() - start
    return store, report


def evaluate(store: ParameterStore, cfg: ModelConfig, batches) -> Metrics:
    """Eval-mode metrics of a frozen store over a non-empty episode set,
    given as shape buckets.

    Each bucket runs through stacked forwards of at most EVAL_CHUNK_ROWS
    target rows (at least one episode); eval-mode batch norm is row-wise,
    so predictions equal per-episode forwards up to rounding. Each chunk's
    NLL and squared-error sums go straight into the totals, so metrics
    equal per-episode scoring up to summation order.
    """
    batches = list(batches)
    episodes = sum(len(batch) for batch in batches)
    if not episodes:
        raise ValueError("need at least one episode to evaluate")
    total_nll = total_sq = 0.0
    total_points = 0
    for batch in batches:
        step = max(1, EVAL_CHUNK_ROWS // batch.n_target)
        for start in range(0, len(batch), step):
            rows = slice(start, start + step)
            chunk = EpisodeBatch(batch.x_c[rows], batch.y_c[rows], batch.x_t[rows], batch.y_t[rows])
            mu, sigma = forward_tensors(chunk, store, cfg, train=False)
            y = chunk.y_t.reshape(-1, 1)
            total_nll += float(nll_terms(y, mu.value, sigma.value).sum())
            total_sq += float(((y - mu.value) ** 2).sum())
            total_points += y.size
    return Metrics(
        nll_per_point=total_nll / total_points,
        nll_per_episode=total_nll / episodes,
        mse=total_sq / total_points,
        episode_count=episodes,
    )


def loss_drop(losses: np.ndarray, window: int = 1000) -> float:
    """Relative drop between the first and last `window`-batch loss averages."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 2 * window:
        raise ValueError(f"need at least {2 * window} batches, got {losses.size}")
    first = losses[:window].mean()
    last = losses[-window:].mean()
    return (first - last) / abs(first)


# ---------------------------------------------------------------------------
# multi-model comparison
# ---------------------------------------------------------------------------

COMPARE_VARIANTS = ("cnp", "cgnp", "cgnp_edgeless")


@dataclass(frozen=True)
class SeedRun:
    master_seed: int
    init_seed: int
    metrics: Metrics
    loss_drop: float
    wall_seconds: float


@dataclass(frozen=True)
class VariantResult:
    label: str
    kind: str
    radius: float | None  # None for the cnp baseline
    runs: tuple[SeedRun, ...]

    def mean_std(self, metric: str) -> tuple[float, float]:
        values = np.array([getattr(run.metrics, metric) for run in self.runs])
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        return float(values.mean()), std


def compare_models(base: TrainConfig, seeds: int, test_set, log=None) -> list[VariantResult]:
    """Train cnp, cgnp, and edgeless cgnp over a shared seed schedule and
    evaluate all of them on one shared test set of shape buckets.

    Seed i uses master_seed + i and init_seed + i, identical across the
    three variants, so per-seed comparisons are paired.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    test_set = list(test_set)
    variants = {
        "cnp": replace(base.model, kind="cnp"),
        "cgnp": replace(base.model, kind="cgnp"),
        "cgnp_edgeless": replace(base.model, kind="cgnp", radius=0.0),
    }
    results = []
    for label in COMPARE_VARIANTS:
        model = variants[label]
        runs = []
        for i in range(seeds):
            cfg = replace(
                base,
                model=replace(model, init_seed=model.init_seed + i),
                protocol=replace(base.protocol, master_seed=base.protocol.master_seed + i),
            )
            if log is not None:
                log(f"training {label} seed {i} "
                    f"(master={cfg.protocol.master_seed}, init={cfg.model.init_seed})")
            store, report = train(cfg)
            metrics = evaluate(store, cfg.model, test_set)
            runs.append(
                SeedRun(
                    master_seed=cfg.protocol.master_seed,
                    init_seed=cfg.model.init_seed,
                    metrics=metrics,
                    loss_drop=loss_drop(report.losses)
                    if report.losses.size >= 2000
                    else float("nan"),
                    wall_seconds=report.wall_seconds,
                )
            )
            if log is not None:
                log(f"  nll_per_point={metrics.nll_per_point:.4f} mse={metrics.mse:.4f}")
        results.append(
            VariantResult(
                label=label,
                kind=model.kind,
                radius=None if model.kind == "cnp" else model.radius,
                runs=tuple(runs),
            )
        )
    return results
