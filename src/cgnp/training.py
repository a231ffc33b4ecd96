"""Training loop and test metrics.

Training minimizes the batch NLL (mean over episodes of the mean per-target
NLL) with Adam at a fixed learning rate, drawing a fresh 64-episode batch
per step; the batch arrives as stacked arrays and goes to the model as is.
One driver, `_train_group`, steps a group of `Run`s in lockstep over one
shared batch stream and held-out set: `train` is a group of one, and
`compare_models` trains each seed's three variants as one group with no
held-out set, since it reports only the shared test set.
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
# _train_group stays private, so perfbench's tracer parents train's batch and held-out spans under train


# Target rows per stacked evaluation forward: large enough to amortise the
# per-op overhead, small enough to keep each op's arrays in cache and off
# the peak resident set. It also fixes the summation order of the metrics.
EVAL_CHUNK_ROWS = 4096

# Batches averaged at each end of a loss curve by `loss_drop`.
LOSS_WINDOW = 1000


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    kernel: EqKernelSpec = EqKernelSpec()
    protocol: ProtocolConfig = ProtocolConfig()
    lr: float = 1e-3
    eval_every: int = 1000  # 0 disables periodic held-out evaluation
    heldout_episodes: int = 64  # 0 disables held-out evaluation

    def __post_init__(self):
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        for name in ("eval_every", "heldout_episodes"):  # exact type, as in ModelConfig, so a bool fails
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
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


class TrainingDivergedError(RuntimeError):
    """A non-finite training loss or metric; `what` names it and `run_name`,
    if given, prefixes the message."""

    def __init__(self, batch_index: int, what: str, value: float, store: ParameterStore, run_name=None):
        norms = ", ".join(
            f"{name}={np.linalg.norm(p.value):.3g}" for name, p in store.params.items()
        )
        prefix = f"{run_name}: " if run_name else ""
        super().__init__(
            f"{prefix}non-finite {what} {value} at batch {batch_index}; parameter norms: {norms}"
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
    its losses so far and `report.heldout` its held-out records; `name`,
    if any, prefixes its divergence errors."""

    cfg: TrainConfig
    store: ParameterStore
    adam: AdamState
    report: TrainReport
    name: str | None = None
    next_batch: int = 0


def _checked_metrics(run: Run, batches, what: str, b: int) -> Metrics:
    """`evaluate` of the run on `batches`; a non-finite nll_per_point or mse
    raises TrainingDivergedError naming `what` and batch `b`."""
    metrics = evaluate(run.store, run.cfg.model, batches)
    for name in ("nll_per_point", "mse"):  # nll_per_episode scales nll_per_point
        value = getattr(metrics, name)
        if not np.isfinite(value):
            raise TrainingDivergedError(b, f"{what} {name}", value, run.store, run.name)
    return metrics


def _train_group(cfgs: list[TrainConfig], names: list[str] | None = None, log=None) -> list[Run]:
    """Train a group of configs that share the first one's protocol, kernel
    and held-out set size over one batch stream. The held-out set (if any)
    and each batch are made once, and the runs step on them in order, so
    each run ends as it would trained alone. ``log(batch_index, loss,
    metrics_or_none)`` is called every ``eval_every`` batches and on the
    final batch. A run's `wall_seconds` is the time of its own work plus an
    equal share of the rest of the call; a divergence is prefixed with the
    run's entry in `names`.
    """
    start = time.perf_counter()
    protocol, kernel = cfgs[0].protocol, cfgs[0].kernel
    n_batches, n_heldout = protocol.train_batches, cfgs[0].heldout_episodes
    heldout_set = make_heldout_set(protocol, kernel, n_heldout) if n_heldout else []
    runs, own = [], [0.0] * len(cfgs)
    for k, cfg in enumerate(cfgs):
        last = time.perf_counter()
        store = init_params(cfg.model)
        report = TrainReport(losses=np.empty(n_batches))
        runs.append(Run(cfg, store, AdamState(store, lr=cfg.lr), report, names[k] if names else None))
        own[k] += time.perf_counter() - last
    for b in range(n_batches):
        batch = make_train_batch(protocol, kernel, b)
        last = time.perf_counter()
        for k, run in enumerate(runs):
            loss = batch_loss(batch, run.store, run.cfg.model)
            loss_value = float(loss.value[0, 0])
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(b, "loss", loss_value, run.store, run.name)
            run.report.losses[b] = loss_value
            backward(loss)
            adam_step(run.adam)
            run.store.grad.fill(0.0)
            run.next_batch = b + 1
            eval_every = run.cfg.eval_every
            if eval_every > 0 and (b % eval_every == 0 or run.next_batch == n_batches):
                metrics = _checked_metrics(run, heldout_set, "held-out", b) if heldout_set else None
                if metrics is not None:
                    run.report.heldout.append((b, metrics))
                if log is not None:
                    log(b, loss_value, metrics)
            now = time.perf_counter()
            own[k] += now - last
            last = now
    for k, run in enumerate(runs):  # final metrics: the last periodic evaluation if any
        last = time.perf_counter()
        if run.report.heldout:
            run.report.final_metrics = run.report.heldout[-1][1]
        elif heldout_set:
            run.report.final_metrics = _checked_metrics(run, heldout_set, "held-out", n_batches - 1)
        own[k] += time.perf_counter() - last
    shared = (time.perf_counter() - start - sum(own)) / len(runs)
    for run, seconds in zip(runs, own):
        run.report.wall_seconds = seconds + shared
    return runs


def train(cfg: TrainConfig, log=None) -> tuple[ParameterStore, TrainReport]:
    """Run the training protocol; returns the trained store and a report
    whose `wall_seconds` covers the whole call. `log` is as in `_train_group`.
    """
    (run,) = _train_group([cfg], log=log)
    return run.store, run.report


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


def loss_drop(losses: np.ndarray) -> float:
    """Relative drop between the first and last LOSS_WINDOW-batch loss averages."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 2 * LOSS_WINDOW:
        raise ValueError(f"need at least {2 * LOSS_WINDOW} batches, got {losses.size}")
    first = losses[:LOSS_WINDOW].mean()
    last = losses[-LOSS_WINDOW:].mean()
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
    three variants, so per-seed comparisons are paired. Each seed's three
    runs are one `_train_group` in COMPARE_VARIANTS order, so every result
    equals that of a separate `train` call. The runs make no held-out set,
    whatever `base` asks, as only the test set is reported; a non-finite
    training loss, test nll_per_point or test mse raises
    TrainingDivergedError naming the variant and seed.
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
        cfgs = [replace(base, model=replace(model, init_seed=model.init_seed + i), protocol=protocol,
                        heldout_episodes=0) for model in variants.values()]
        names = [f"{label} seed {i} (master={protocol.master_seed}, init={cfg.model.init_seed})"
                 for label, cfg in zip(variants, cfgs)]
        for label, run in zip(variants, _train_group(cfgs, names)):
            metrics = _checked_metrics(run, test_set, "test", run.next_batch - 1)
            losses = run.report.losses
            seed_runs[label].append(
                SeedRun(
                    master_seed=protocol.master_seed,
                    init_seed=run.cfg.model.init_seed,
                    metrics=metrics,
                    loss_drop=loss_drop(losses) if losses.size >= 2 * LOSS_WINDOW else float("nan"),
                    wall_seconds=run.report.wall_seconds,
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
