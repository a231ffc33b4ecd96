"""Training loop and test metrics.

Training minimizes the batch NLL (mean over episodes of the mean per-target
NLL) with Adam at a fixed learning rate, drawing a fresh 64-episode batch
per step; the batch arrives as stacked arrays and goes to the model as is.
A `Run` holds one run part-way through and `advance` takes it one batch on;
`train` advances one run over its protocol's batches, and `compare_models`
advances a seed's three variants in lockstep over one shared batch stream
and held-out set.
Evaluation reports the NLL under two normalizations (per target point and
per episode) plus the MSE of the predictive mean, all over target points
only; it takes an episode set as shape buckets (`gp.bucket_episodes`),
runs one tapeless forward (`autodiff.no_grad`) per chunk of a bucket, and
adds each chunk's NLL and squared-error sums to running totals as soon as
it is computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor, backward, gaussian_nll, nll_terms, no_grad
from .gp import EpisodeBatch, EqKernelSpec, ProtocolConfig, make_heldout_set, make_train_batch
from .models import ModelConfig, ParameterStore, forward_tensors, init_params
from .optim import AdamState, adam_step

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
# Run, start_run, advance and finish_run stay out of __all__: perfbench
# traces the functions listed here, and a span around every step would
# reparent the held-out evaluations its per-layer metrics find under train.


# Target rows per stacked evaluation forward: large enough to amortise the
# per-op overhead, small enough to keep each op's arrays in cache and off
# the peak resident set. It also fixes the summation order of the metrics.
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
    """A non-finite training loss or held-out metric; `what` names it."""

    def __init__(self, batch_index: int, what: str, value: float, store: ParameterStore):
        norms = ", ".join(
            f"{name}={np.linalg.norm(p.value):.3g}" for name, p in store.params.items()
        )
        super().__init__(
            f"non-finite {what} {value} at batch {batch_index}; parameter norms: {norms}"
        )
        self.batch_index = batch_index
        self.value = value


def batch_loss(batch: EpisodeBatch, store: ParameterStore, cfg: ModelConfig) -> Tensor:
    """NLL of one training batch as a differentiable scalar.

    Episodes in a batch share N_t, so the flat mean over all stacked target
    points equals the mean over episodes of each episode's per-target mean.
    """
    mu, sigma = forward_tensors(batch, store, cfg, train=True)
    return gaussian_nll(batch.y_t.reshape(-1, 1), mu, sigma)


@dataclass
class Run:
    """A training run part-way through: `report.losses[:next_batch]` are
    its losses so far and `report.heldout` its records on `heldout_set`."""

    cfg: TrainConfig
    store: ParameterStore
    adam: AdamState
    heldout_set: list[EpisodeBatch]
    report: TrainReport
    next_batch: int = 0


def start_run(cfg: TrainConfig, heldout_set: list[EpisodeBatch]) -> Run:
    """A fresh run of `cfg`, scored on its protocol's `make_heldout_set`."""
    store = init_params(cfg.model)
    report = TrainReport(losses=np.empty(cfg.protocol.train_batches), config=cfg)
    return Run(cfg, store, AdamState(store, lr=cfg.lr), heldout_set, report)


def _heldout_metrics(run: Run, b: int) -> Metrics:
    metrics = evaluate(run.store, run.cfg.model, run.heldout_set)
    for name in ("nll_per_point", "mse"):  # nll_per_episode scales nll_per_point
        if not np.isfinite(getattr(metrics, name)):
            raise TrainingDivergedError(b, f"held-out {name}", getattr(metrics, name), run.store)
    return metrics


def advance(run: Run, batch: EpisodeBatch, log=None) -> None:
    """One training step of `run` on its next batch, then the held-out
    evaluation when due: ``log(batch_index, loss, metrics_or_none)`` is
    called every ``eval_every`` batches and on the final batch."""
    b, cfg = run.next_batch, run.cfg
    loss = batch_loss(batch, run.store, cfg.model)
    loss_value = float(loss.value[0, 0])
    if not np.isfinite(loss_value):
        raise TrainingDivergedError(b, "loss", loss_value, run.store)
    run.report.losses[b] = loss_value
    backward(loss)
    adam_step(run.adam)
    run.store.grad.fill(0.0)
    run.next_batch = b + 1

    if cfg.eval_every > 0 and (b % cfg.eval_every == 0 or run.next_batch == cfg.protocol.train_batches):
        metrics = _heldout_metrics(run, b) if run.heldout_set else None
        if metrics is not None:
            run.report.heldout.append((b, metrics))
        if log is not None:
            log(b, loss_value, metrics)


def finish_run(run: Run) -> TrainReport:
    """The report of a run that has seen all its batches, with its final
    held-out metrics (the last periodic evaluation when there was one)."""
    n_batches = run.cfg.protocol.train_batches
    if run.next_batch != n_batches:
        raise ValueError(f"run stopped at batch {run.next_batch} of {n_batches}")
    report = run.report
    if report.heldout:  # the last batch was just evaluated
        report.final_metrics = report.heldout[-1][1]
    elif run.heldout_set:
        report.final_metrics = _heldout_metrics(run, n_batches - 1)
    return report


def train(cfg: TrainConfig, log=None) -> tuple[ParameterStore, TrainReport]:
    """Run the training protocol; returns the trained store and a report
    whose `wall_seconds` covers the whole call. `log` is as in `advance`.
    """
    start = time.perf_counter()
    run = start_run(cfg, make_heldout_set(cfg.protocol, cfg.kernel, cfg.heldout_episodes))
    for b in range(cfg.protocol.train_batches):
        advance(run, make_train_batch(cfg.protocol, cfg.kernel, b), log)
    report = finish_run(run)
    report.wall_seconds = time.perf_counter() - start
    return run.store, report


@no_grad()
def evaluate(store: ParameterStore, cfg: ModelConfig, batches) -> Metrics:
    """Eval-mode metrics of a frozen store over a non-empty episode set,
    given as shape buckets.

    Each bucket runs through stacked forwards of at most EVAL_CHUNK_ROWS
    target rows (at least one episode); eval-mode batch norm is row-wise,
    so predictions equal per-episode forwards up to rounding. The forwards
    build no tape, so each op's intermediates are freed as soon as the next
    op has used them. Each chunk's NLL and squared-error sums go straight
    into the totals, so metrics equal per-episode scoring up to summation
    order.
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
    three variants, so per-seed comparisons are paired. A seed's three runs
    advance in lockstep: its held-out set and each of its batches are made
    once and fed to the runs in COMPARE_VARIANTS order, so every result
    equals that of a separate `train` call. A run's `wall_seconds` is the
    time of its own steps plus a third of the seed's data generation.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    test_set = list(test_set)
    variants = {
        "cnp": replace(base.model, kind="cnp"),
        "cgnp": replace(base.model, kind="cgnp"),
        "cgnp_edgeless": replace(base.model, kind="cgnp", radius=0.0),
    }
    seed_runs = {label: [] for label in COMPARE_VARIANTS}
    for i in range(seeds):
        protocol = replace(base.protocol, master_seed=base.protocol.master_seed + i)
        if log is not None:
            log(f"training seed {i} (master={protocol.master_seed}, init={base.model.init_seed + i})")
        walls = dict.fromkeys([*COMPARE_VARIANTS, "shared"], 0.0)
        last = time.perf_counter()

        def charge(who: str) -> None:  # the time since the last charge was `who`'s
            nonlocal last
            now = time.perf_counter()
            walls[who] += now - last
            last = now

        heldout_set = make_heldout_set(protocol, base.kernel, base.heldout_episodes)
        charge("shared")
        runs = {}
        for label, model in variants.items():
            cfg = replace(base, model=replace(model, init_seed=model.init_seed + i), protocol=protocol)
            runs[label] = start_run(cfg, heldout_set)
            charge(label)
        try:
            for b in range(protocol.train_batches):
                batch = make_train_batch(protocol, base.kernel, b)
                charge("shared")
                for label, run in runs.items():
                    advance(run, batch)
                    charge(label)
            for label, run in runs.items():
                finish_run(run)
                charge(label)
        except TrainingDivergedError as exc:  # `label` and `run` are the run that raised
            exc.args = (f"{label} seed {i} (master={protocol.master_seed}, "
                        f"init={run.cfg.model.init_seed}): {exc}",)
            raise
        for label, run in runs.items():
            metrics = evaluate(run.store, run.cfg.model, test_set)
            losses = run.report.losses
            seed_runs[label].append(
                SeedRun(
                    master_seed=protocol.master_seed,
                    init_seed=run.cfg.model.init_seed,
                    metrics=metrics,
                    loss_drop=loss_drop(losses) if losses.size >= 2000 else float("nan"),
                    wall_seconds=walls[label] + walls["shared"] / len(runs),
                )
            )
            if log is not None:
                log(f"  {label} nll_per_point={metrics.nll_per_point:.4f} mse={metrics.mse:.4f}")
    return [
        VariantResult(
            label=label,
            kind=model.kind,
            radius=None if model.kind == "cnp" else model.radius,
            runs=tuple(seed_runs[label]),
        )
        for label, model in variants.items()
    ]
