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
runs the tapeless (`autodiff.no_grad`) encoder and pool once per bucket and
the decoder once per chunk of a bucket. Batch norm uses batch statistics
while taping (training), running statistics inside `no_grad` (evaluation).
The buckets are independent, so a set of enough chunks is scored on a
thread per usable core, and the chunks' NLL and squared-error sums are
added up afterwards in bucket order, then chunk order: the metrics do not
depend on the thread count.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .autodiff import Tensor, backward, gaussian_head, gaussian_nll, nll_terms, no_grad
from .gp import EpisodeBatch, EqKernelSpec, ProtocolConfig, _check_field, make_heldout_set, make_train_batch
from .models import ModelConfig, ParameterStore, decode, encode, forward_tensors, init_params
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


# Target rows per decoder pass in evaluation: large enough to amortise the
# per-op overhead, small enough to keep each op's arrays in cache and off
# the peak resident set. It also fixes the summation order of the metrics.
EVAL_CHUNK_ROWS = 4096

# Decoder chunks per evaluation thread at least: a thread pays only over
# enough work. On a 2-core VM, two threads scored 64 and 100 test episodes
# (10 and 13 chunks) 4-40% slower than one, broke even near 16-19 chunks,
# and were 13-25% faster at 30 chunks and 21-37% at 104 (1000 episodes).
EVAL_CHUNKS_PER_THREAD = 12

# The CPU quota of the process's cgroup (v2), as "<quota> <period>" or "max <period>".
CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"

# Batches averaged at each end of a loss curve by `loss_drop`.
LOSS_WINDOW = 1000

# Floating-point errors numpy does not report in training and test
# evaluation: every non-finite value there ends in TrainingDivergedError.
QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    kernel: EqKernelSpec = EqKernelSpec()
    protocol: ProtocolConfig = ProtocolConfig()
    lr: float = 1e-3
    eval_every: int = 1000  # 0 disables periodic held-out evaluation
    heldout_episodes: int = 64  # 0 disables held-out evaluation

    def __post_init__(self):
        _check_field(self, "lr", (int, float))
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        _check_field(self, "eval_every", (int,), 0)
        _check_field(self, "heldout_episodes", (int,), 0)


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
    """A non-finite training loss or metric of `run`; `what` names it, the
    run's name, if any, prefixes the message, and its parameter norms and
    step size end it."""

    def __init__(self, run: Run, batch_index: int, what: str, value: float):
        norms = ", ".join(
            f"{name}={np.linalg.norm(p.value):.3g}" for name, p in run.store.params.items()
        )
        prefix = f"{run.name}: " if run.name else ""
        super().__init__(
            f"{prefix}non-finite {what} {value} at batch {batch_index}; parameter norms: {norms}; "
            f"train.lr={run.cfg.lr}"
        )
        self.batch_index = batch_index
        self.value = value


def batch_loss(batch: EpisodeBatch, store: ParameterStore) -> Tensor:
    """NLL of one training batch as a differentiable scalar.

    Episodes in a batch share N_t, so the flat mean over all stacked target
    points equals the mean over episodes of each episode's per-target mean.
    """
    return gaussian_nll(batch.y_t.reshape(-1, 1), forward_tensors(batch, store))


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
    metrics = evaluate(run.store, batches)
    for name in ("nll_per_point", "mse"):  # nll_per_episode scales nll_per_point
        value = getattr(metrics, name)
        if not np.isfinite(value):
            raise TrainingDivergedError(run, b, f"{what} {name}", value)
    return metrics


def _train_group(cfgs: list[TrainConfig], names: list[str] | None = None, log=None) -> list[Run]:
    """Train a group of configs that share the first one's protocol, kernel
    and held-out set size over one batch stream. The held-out set (if any)
    and each batch are made once, and the runs step on them in order, so
    each run ends as it would trained alone. ``log(batch_index, loss,
    metrics_or_none)`` is called every ``eval_every`` batches and on the
    final batch, and never if ``eval_every`` is 0. A run's `final_metrics`
    is its held-out evaluation at the last batch. A run's `wall_seconds`
    is the time of its own work plus an equal share of the rest of the
    call; a divergence is prefixed with the run's entry in `names`.
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
    with np.errstate(**QUIET):  # a non-finite value ends in TrainingDivergedError, not in numpy warnings
        for b in range(n_batches):
            batch = make_train_batch(protocol, kernel, b)
            last = time.perf_counter()
            for k, run in enumerate(runs):
                loss = batch_loss(batch, run.store)
                loss_value = float(loss.value[0, 0])
                if not np.isfinite(loss_value):
                    raise TrainingDivergedError(run, b, "loss", loss_value)
                run.report.losses[b] = loss_value
                backward(loss)
                adam_step(run.adam)
                run.store.grad.fill(0.0)
                run.next_batch = b + 1
                eval_every, final = run.cfg.eval_every, run.next_batch == n_batches
                if final or eval_every > 0 and b % eval_every == 0:
                    metrics = _checked_metrics(run, heldout_set, "held-out", b) if heldout_set else None
                    if final:
                        run.report.final_metrics = metrics
                    if eval_every > 0:
                        if metrics is not None:
                            run.report.heldout.append((b, metrics))
                        if log is not None:
                            log(b, loss_value, metrics)
                now = time.perf_counter()
                own[k] += now - last
                last = now
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


def _chunk_episodes(batch: EpisodeBatch) -> int:
    """Episodes per decoder chunk of a bucket: at most EVAL_CHUNK_ROWS
    target rows, at least one episode."""
    return max(1, EVAL_CHUNK_ROWS // batch.n_target)


def _bucket_sums(store: ParameterStore, batch: EpisodeBatch) -> list[tuple[float, float, int]]:
    """(NLL sum, squared-error sum, target count) of each decoder chunk of
    one shape bucket, in chunk order: the encoder and the pool run once,
    the decoder once per chunk."""
    h, r = encode(batch.x_c, batch.y_c, store)
    n_c, step = batch.n_context, _chunk_episodes(batch)
    sums = []
    for start in range(0, len(batch), step):
        rows = slice(start, start + step)
        h_rows = h.value[start * n_c:(start + step) * n_c]
        out = decode(batch.x_c[rows], h_rows, r.value[rows], batch.x_t[rows], store)
        mu, sigma = gaussian_head(out.value)
        y = batch.y_t[rows].reshape(-1, 1)
        sums.append((float(nll_terms(y, mu, sigma).sum()), float(((y - mu) ** 2).sum()), y.size))
    return sums


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the platform
    keeps one, else every CPU, capped by a cgroup v2 CPU quota if one is set."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with contextlib.suppress(OSError, ValueError):
        with open(CGROUP_CPU_MAX) as f:
            quota, period = f.read().split()
        if quota != "max":
            cores = min(cores, max(1, int(quota) // int(period)))
    return cores


def _each_bucket(score, batches: list) -> list:
    """``[score(batch) for batch in batches]``, on up to one thread per
    usable core, but no more than buckets or than EVAL_CHUNKS_PER_THREAD
    decoder chunks per thread. The caller is one of the threads: helpers
    take buckets from the front and the caller from the back, each one
    that is not yet started, so the caller's malloc arena, warm from
    loading, holds one of the working sets. Each helper runs in its own
    copy of the caller's context, so `no_grad` and `np.errstate` hold
    there too. An error in any bucket is raised, and the buckets not yet
    started then are cancelled."""
    chunks = sum(-(-len(batch) // _chunk_episodes(batch)) for batch in batches)
    threads = min(len(batches), _usable_cores(), chunks // EVAL_CHUNKS_PER_THREAD)
    if threads < 2:
        return [score(batch) for batch in batches]
    # imported on first use: it brings in `logging`, about 0.5 MiB resident
    # that a process which never starts a pool need not hold
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, score, batch) for batch in batches]
        try:
            mine = {k: score(batches[k]) for k in reversed(range(len(batches))) if futures[k].cancel()}
            return [mine[k] if k in mine else future.result() for k, future in enumerate(futures)]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


@no_grad()
def evaluate(store: ParameterStore, batches) -> Metrics:
    """Eval-mode metrics of a frozen store over a non-empty episode set,
    given as shape buckets.

    Each bucket is one `_bucket_sums`, run by `_each_bucket` on the
    caller's thread or a pool's. Inside `no_grad` batch norm uses the
    running statistics, row by row, so predictions equal per-episode
    forwards up to rounding. The forwards build no tape, so each op's
    intermediates are freed as soon as the next op has used them. The
    chunk sums go into the totals in bucket order, then chunk order, so
    the metrics have the same bits at any thread count and equal
    per-episode scoring up to summation order.
    """
    batches = list(batches)
    episodes = sum(len(batch) for batch in batches)
    if not episodes:
        raise ValueError("need at least one episode to evaluate")
    total_nll = total_sq = 0.0
    total_points = 0
    for sums in _each_bucket(partial(_bucket_sums, store), batches):
        for nll, sq, points in sums:
            total_nll += nll
            total_sq += sq
            total_points += points
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
            with np.errstate(**QUIET):
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
