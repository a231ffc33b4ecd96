"""Benchmark of the cgnp command line, run in-process through cgnp.cli.main.

    python3 perfbench/run.py --workload train_cnp --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The workload's command is repeated in a
closed loop for --seconds; its outputs are checked after every run. With
--trace 0 the last stdout line is a JSON result holding the end-to-end
metrics; with --trace 1 the loop runs half untraced and half traced and the
result holds the per-layer metrics. See perfbench/README.md.
"""

import os
import sys

# One BLAS thread, set before numpy loads: with the default OpenBLAS threads
# run-to-run spread is about three times wider on a 2-core box.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_THREADS = {v: os.environ.get(v) for v in THREAD_VARS}
os.environ.update({v: "1" for v in THREAD_VARS})

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# Nothing is compiled into the tree, and no cached bytecode is read, so every
# checkout imports the same way.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(OUT / "no-pycache")

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import time

import numpy as np

from metrics import END_TO_END, LAYERS, MEASURES, NAMED_FUNCTIONS, PER_LAYER, layer_metrics, median, tail
from tracer import Tracer, write_spans
from workloads import WORKLOADS

SETUP_REPEATS = 3

# Shared hosts drift in speed: on a 2-core VM one process ran the same CNP
# step in 2.1-3.6 ms across 2-second bins, with no steal time visible. A fixed
# reference kernel, timed right after each command and each set-up, measures
# the host's speed at that moment. Times are rescaled to the speed at which
# the kernel takes CAL_REF_S, about its median on that VM. Rescaled, the CNP
# step time drifted a third as much.
CAL_REF_S = 0.2


def calibration_s() -> float:
    """Seconds for a fixed kernel of small numpy ops on a 400 x 8 matrix, the
    op mix and shapes of the models' batch work."""
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((400, 8)), rng.standard_normal((8, 8))
    start = time.perf_counter()
    for _ in range(3000):
        y = np.maximum(x @ w, 0.0)
        x = (y - y.mean(axis=0, keepdims=True)) / (y.std(axis=0, keepdims=True) + 1.0)
    return time.perf_counter() - start


class SetupError(RuntimeError):
    pass


def fresh_cli():
    """Import cgnp anew (numpy stays loaded) so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "cgnp" or n.startswith("cgnp.")]:
        del sys.modules[name]
    cli = importlib.import_module("cgnp.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"imported cgnp from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def invoke(cli, argv) -> tuple[int, str, float]:
    """Run one command; returns (exit code, captured stderr, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return code, err.getvalue(), seconds


def tree_state() -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file in the checkout outside .git and OUT."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if Path(dirpath, d) not in (ROOT / ".git", OUT)]
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            state[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
    return state


def machine() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = " ".join(f"{v}=1(was {INHERITED_THREADS[v]})" for v in THREAD_VARS)
    return (f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas} cpu={platform.machine()} {threads}")


class Loop:
    """Runs a workload's commands in a closed loop and keeps every outcome."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.commands = workload.commands()
        self.attempted = 0
        self.failed = 0
        self.quality: dict[str, tuple[float, float]] = {}
        self.fingerprints: dict[str, str] = {}
        self.problems: list[str] = []

    def run(self, budget: float) -> list[tuple[float, float]]:
        """Repeat commands for ``budget`` seconds, at least twice each;
        returns (wall seconds, calibration seconds) per command."""
        timings = []
        deadline = time.perf_counter() + budget
        while len(timings) < 2 * len(self.commands) or time.perf_counter() < deadline:
            command = self.commands[len(timings) % len(self.commands)]
            timings.append((self._one(command), calibration_s()))
        return timings

    def _one(self, command) -> float:
        shutil.rmtree(self.workload.out, ignore_errors=True)
        self.workload.out.mkdir(parents=True)
        before = tree_state()
        code, err, wall = invoke(self.cli, command.argv)
        problems = [f"exit code {code}: {err.strip()[-300:]}"] if code != 0 else []
        if code == 0:
            try:
                outcome = self.workload.check()
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            else:
                problems += outcome.problems
                first = self.fingerprints.setdefault(command.key, outcome.fingerprint)
                if outcome.fingerprint != first:
                    problems.append(f"outputs of {command.key} differ from its first run")
                self.quality.setdefault(command.key, (outcome.nll_per_point, outcome.mse))
        after = tree_state()
        stray = sorted(p for p in set(before) | set(after) if before.get(p) != after.get(p))
        if stray:
            problems.append(f"wrote inside the repo tree: {', '.join(stray[:3])}")
        self.attempted += command.ops
        if problems:
            self.failed += command.ops
            self.problems.extend(f"{command.argv[0]} {command.key}: {p}" for p in problems)
        return wall


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / f"work-{name}-{os.getpid()}"
    workload = WORKLOADS[name](work, seed)
    try:
        setup_timings = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cli = fresh_cli()

            def setup_run(argv):
                code, err, _ = invoke(cli, argv)
                if code != 0:
                    raise SetupError(f"set-up command {' '.join(argv)} exited {code}: {err.strip()}")

            workload.setup(setup_run)
            setup_timings.append((time.perf_counter() - start, calibration_s()))

        loop = Loop(workload, cli)
        print(f"workload: {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
        for command in loop.commands:
            print(f"command: cgnp {' '.join(command.argv)}")
        if not trace:
            metrics = end_to_end(workload, loop, loop.run(seconds), setup_timings)
        else:
            metrics = traced(name, seed, loop, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in loop.problems:
        print(f"check failed: {problem}")
    return {
        "correct": not loop.problems and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }


def reference_walls(timings) -> list[float]:
    """Wall times rescaled to the reference host speed."""
    return [wall * CAL_REF_S / cal for wall, cal in timings]


def end_to_end(workload, loop, timings, setup_timings) -> dict:
    ops = loop.commands[0].ops
    walls = [wall for wall, _ in timings]
    level, wall_tail = tail(walls)
    print(f"command wall: p50={median(walls):.4f}s p{level:g}={wall_tail:.4f}s n={len(walls)}")
    speed = median([CAL_REF_S / cal for _, cal in timings])
    print(f"host speed: {speed:.4f} of reference (calibration kernel p50={median([c for _, c in timings]):.4f}s)")
    print(f"set-up: p50={median([w for w, _ in setup_timings]):.4f}s as measured, n={len(setup_timings)}")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    quality = list(loop.quality.values()) or [(0.0, 0.0)]  # no command passed: correct is false
    values = {
        "setup_s": median(reference_walls(setup_timings)),
        "ops_per_ref_s": median([ops / w for w in reference_walls(timings)]),
        "nll_per_point": float(np.mean([q[0] for q in quality])),
        "mse": float(np.mean([q[1] for q in quality])),
        "ok_frac": 1.0 - loop.failed / max(loop.attempted, 1),
        "peak_rss_mb": rss / 1024.0,
    }
    raw = median([ops / w for w in walls])
    alias = {
        "train_cnp": f"train_steps_per_s={raw:.4f} batches/s",
        "eval_cgnp": f"eval_episodes_per_s={raw:.4f} episodes/s",
        "campaign": f"campaign_s={median(walls):.4f} s",
    }[workload.name]
    print(f"{workload.name}: {alias} as measured, ops_per_ref_s={values['ops_per_ref_s']:.4f} at reference speed")
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}


def traced(name, seed, loop, seconds) -> dict:
    untraced = loop.run(seconds / 2)
    tracer = Tracer(LAYERS, MEASURES)
    tracer.install()
    try:
        with_trace = loop.run(seconds / 2)
    finally:
        tracer.restore()
    overhead = median(reference_walls(with_trace)) / median(reference_walls(untraced)) - 1.0
    values, notes = layer_metrics(tracer.spans, overhead)
    absent = [f for f in NAMED_FUNCTIONS if f not in tracer.traced]
    print(f"absent: layers={','.join(tracer.absent_layers) or '-'} functions={','.join(absent) or '-'}")
    for note in notes:
        print(f"tail: {note}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.csv.gz"
    write_spans(path, tracer.spans, f"{name} seed={seed} {machine()}")
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "cgnp" / "__init__.py").is_file():
        print(f"error: no cgnp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print(f"machine: {machine()}")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for metric, entry in result["metrics"].items():
        print(f"metric: {metric} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
