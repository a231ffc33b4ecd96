"""Training loop and test metrics.

Training minimizes the batch NLL (mean over episodes of the mean per-target
NLL) with Adam at a fixed learning rate, drawing a fresh 64-episode batch
per step. Evaluation reports the NLL under two normalizations (per target
point and per episode) plus the MSE of the predictive mean, all over target
points only; it runs episodes of equal (N_c, N_t) through stacked forwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor, backward, gaussian_nll
from .gp import EpisodeBatch, EqKernelSpec, ProtocolConfig, make_heldout_set, make_train_batch
from .models import (
    GaussianPrediction,
    ModelConfig,
    ParameterStore,
    forward_tensors,
    init_params,
)
from .optim import AdamState, adam_step, zero_grads

__all__ = [
    "TrainConfig",
    "Metrics",
    "TrainReport",
    "TrainingDivergedError",
    "batch_loss",
    "train",
    "evaluate",
    "prediction_metrics",
    "nll_terms",
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
        if self.lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
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
    mu, sigma, _ = forward_tensors(batch.episodes, store, cfg, train=True)
    y = np.concatenate([ep.y_t for ep in batch.episodes])[:, None]
    return gaussian_nll(y, mu, sigma)


def train(cfg: TrainConfig, log=None) -> tuple[ParameterStore, TrainReport]:
    """Run the training protocol; returns the trained store and a report.

    ``log(batch_index, loss, metrics_or_none)`` is called every
    ``eval_every`` batches and on the final batch.
    """
    start = time.perf_counter()
    store = init_params(cfg.model)
    params = store.parameters()
    adam = AdamState(params, lr=cfg.lr)
    heldout = (
        make_heldout_set(cfg.protocol, cfg.kernel, cfg.heldout_episodes)
        if cfg.heldout_episodes > 0
        else []
    )
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
        adam_step(params, adam)
        zero_grads(params)

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


def nll_terms(y: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per-point Gaussian NLL, value-level (no autodiff)."""
    return 0.5 * np.log(2.0 * np.pi * sigma**2) + (y - mu) ** 2 / (2.0 * sigma**2)


def prediction_metrics(predictions, episodes) -> Metrics:
    """Accumulate both NLL normalizations and MSE over target points."""
    predictions, episodes = list(predictions), list(episodes)
    if len(predictions) != len(episodes) or not episodes:
        raise ValueError("need one prediction per episode and at least one episode")
    total_nll = 0.0
    total_sq = 0.0
    total_points = 0
    for pred, ep in zip(predictions, episodes):
        total_nll += float(nll_terms(ep.y_t, pred.mu, pred.sigma).sum())
        total_sq += float(((ep.y_t - pred.mu) ** 2).sum())
        total_points += ep.n_target
    return Metrics(
        nll_per_point=total_nll / total_points,
        nll_per_episode=total_nll / len(episodes),
        mse=total_sq / total_points,
        episode_count=len(episodes),
    )


def evaluate(store: ParameterStore, cfg: ModelConfig, episodes) -> Metrics:
    """Eval-mode metrics of a frozen store over an episode set.

    Episodes are grouped by (N_c, N_t) and each group runs through stacked
    forwards of at most EVAL_CHUNK_ROWS target rows (at least one episode);
    eval-mode batch norm is row-wise, so predictions equal per-episode
    forwards up to rounding. Metrics accumulate in the given episode order.
    """
    episodes = list(episodes)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, ep in enumerate(episodes):
        groups.setdefault((ep.n_context, ep.n_target), []).append(i)
    preds: list[GaussianPrediction | None] = [None] * len(episodes)
    for (_, n_t), members in groups.items():
        step = max(1, EVAL_CHUNK_ROWS // n_t)
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            mu, sigma, _ = forward_tensors([episodes[i] for i in chunk], store, cfg, train=False)
            mu, sigma = mu.value.reshape(len(chunk), n_t), sigma.value.reshape(len(chunk), n_t)
            for k, i in enumerate(chunk):
                preds[i] = GaussianPrediction(mu=mu[k], sigma=sigma[k])
    return prediction_metrics(preds, episodes)


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
    evaluate all of them on one shared test set.

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
