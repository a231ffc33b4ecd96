"""The three workloads: their set-up, the command each repeats, and the
checks on that command's output files.

Every workload is a closed loop with one client: the runner starts the next
command only after the previous one has returned. The workload seed reaches
the program only as ``seed.master=``/``seed.init=`` overrides and through the
files set-up generates from them.

Models trained for a few hundred batches score differently on every data
seed: held-out MSE spreads about 15% between seeds on 64 episodes. So each
workload varies one thing with the workload seed and holds the rest at the
protocol's default seed 0: the initialisation in ``train_cnp`` and
``campaign``, the 1000-episode test file in ``eval_cgnp``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Command:
    argv: list[str]
    ops: int  # training batches, evaluated episodes, or (variant, seed) runs
    key: str  # commands with one key must write byte-identical outputs


@dataclass(frozen=True)
class Outcome:
    nll_per_point: float
    mse: float
    fingerprint: str  # digest of every output file
    problems: list[str]


DEFAULT_SEED = 0


def _read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _episode_count(path: Path) -> int:
    with path.open(encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _nonfinite(rows, columns, what: str) -> list[str]:
    bad = [f"{what} row {i} {c}={row[c]!r}" for i, row in enumerate(rows) for c in columns
           if not math.isfinite(float(row[c]))]
    return [f"non-finite values: {', '.join(bad[:3])}"] if bad else []


METRIC_COLUMNS = ("nll_per_point", "nll_per_episode", "mse")


class TrainCnp:
    """`cgnp train model.kind=cnp` at the default protocol, fewer batches."""

    name = "train_cnp"
    why = "the training loop with no graph layer: gp, autodiff backward and optim gains show here; graph calls read 0"
    batches = 400
    inits_per_run = 4  # held-out metrics are averaged over these initialisations

    def __init__(self, work: Path, seed: int):
        self.out = work / "train"
        self.inits = [seed * self.inits_per_run + k for k in range(self.inits_per_run)]

    def _argv(self, init: int, batches: int) -> list[str]:
        return ["train", "--out-dir", str(self.out), "model.kind=cnp", f"train.batches={batches}",
                f"seed.master={DEFAULT_SEED}", f"seed.init={init}"]

    def setup(self, run) -> None:
        run(self._argv(self.inits[0], 20))  # warm-up: fills the held-out grid factor

    def commands(self) -> list[Command]:
        return [Command(self._argv(i, self.batches), self.batches, f"init{i}") for i in self.inits]

    def check(self) -> Outcome:
        report = _read_csv(self.out / "report.csv")
        curve = _read_csv(self.out / "loss_curve.csv")
        problems = _nonfinite(report, METRIC_COLUMNS, "report.csv") + _nonfinite(curve, ["loss"], "loss_curve.csv")
        if len(curve) != self.batches:
            problems.append(f"loss curve has {len(curve)} batches, expected {self.batches}")
        files = [self.out / n for n in ("checkpoint.json", "report.csv", "loss_curve.csv")]
        row = report[0]
        return Outcome(float(row["nll_per_point"]), float(row["mse"]), _digest(files), problems)


class EvalCgnp:
    """`cgnp eval` of a CGNP(rho=0.7) checkpoint on a `cgnp generate` file.
    The checkpoint is trained at seed 0; the workload seed picks the file."""

    name = "eval_cgnp"
    why = "forward only, one 400-point episode per call, eval-mode batch norm and formats parsing; backward and optim read 0"
    train_batches = 100
    episodes = 1000

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.ckpt_dir = work / "checkpoint"
        self.data = work / "test.jsonl"
        self.out = work / "eval"

    def _eval_argv(self) -> list[str]:
        return ["eval", "--checkpoint", str(self.ckpt_dir / "checkpoint.json"),
                "--data", str(self.data), "--out", str(self.out / "metrics.csv")]

    def setup(self, run) -> None:
        # training runs the same forward and formats code, so it is the warm-up
        run(["train", "--out-dir", str(self.ckpt_dir), "model.kind=cgnp", "model.radius=0.7",
             f"train.batches={self.train_batches}", f"seed.master={DEFAULT_SEED}", f"seed.init={DEFAULT_SEED}"])
        run(["generate", "--out", str(self.data), f"data.test_episodes={self.episodes}",
             f"seed.master={self.seed}"])

    def commands(self) -> list[Command]:
        return [Command(self._eval_argv(), self.episodes, f"data{self.seed}")]

    def check(self) -> Outcome:
        rows = _read_csv(self.out / "metrics.csv")
        problems = _nonfinite(rows, METRIC_COLUMNS, "metrics.csv")
        file_episodes = _episode_count(self.data)
        if int(rows[0]["episode_count"]) != file_episodes:
            problems.append(f"episode_count {rows[0]['episode_count']} != {file_episodes} episodes in the test file")
        row = rows[0]
        return Outcome(float(row["nll_per_point"]), float(row["mse"]),
                       _digest([self.out / "metrics.csv"]), problems)


class Campaign:
    """`cgnp compare` of the three variants at reduced batches."""

    name = "campaign"
    why = "end to end: cnp, cgnp(0.7) and cgnp(0) runs, graph backward, save_episodes, shared test set; only place a run pool shows"
    seeds = 2  # one per core of the 2-core reference box
    batches = 100
    episodes = 100
    variants = {("cnp", ""), ("cgnp", "0.7"), ("cgnp", "0.0")}

    def __init__(self, work: Path, seed: int):
        self.init = seed * self.seeds  # compare uses init, init + 1, ...: runs never share one
        self.out = work / "compare"

    def _argv(self, seeds: int, batches: int, episodes: int) -> list[str]:
        return ["compare", "--seeds", str(seeds), "--out", str(self.out / "table.csv"),
                f"train.batches={batches}", f"data.test_episodes={episodes}",
                f"seed.master={DEFAULT_SEED}", f"seed.init={self.init}"]

    def setup(self, run) -> None:
        run(self._argv(1, 10, 10))  # warm-up

    def commands(self) -> list[Command]:
        return [Command(self._argv(self.seeds, self.batches, self.episodes),
                        len(self.variants) * self.seeds, f"init{self.init}")]

    def check(self) -> Outcome:
        table = _read_csv(self.out / "table.csv")
        per_seed = _read_csv(self.out / "table_seeds.csv")
        problems = _nonfinite(table, METRIC_COLUMNS, "table.csv") + _nonfinite(per_seed, METRIC_COLUMNS, "table_seeds.csv")
        found = {(row["model"], row["rho"]) for row in table}
        if found != self.variants or len(table) != len(self.variants):
            problems.append(f"compare table has variants {sorted(found)}, expected {sorted(self.variants)}")
        if len(per_seed) != len(self.variants) * self.seeds:
            problems.append(f"per-seed table has {len(per_seed)} rows, expected {len(self.variants) * self.seeds}")
        file_episodes = _episode_count(self.out / "table_testset.jsonl")
        if file_episodes != self.episodes:
            problems.append(f"shared test set has {file_episodes} episodes, expected {self.episodes}")
        nll = sum(float(r["nll_per_point"]) for r in table) / max(len(table), 1)
        mse = sum(float(r["mse"]) for r in table) / max(len(table), 1)
        files = [self.out / n for n in ("table.csv", "table_seeds.csv", "table_testset.jsonl")]
        return Outcome(nll, mse, _digest(files), problems)


WORKLOADS = {w.name: w for w in (TrainCnp, EvalCgnp, Campaign)}
