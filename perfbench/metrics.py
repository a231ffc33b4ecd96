"""Metric names, the percentile rule, and per-layer metrics from spans.

Layers are the modules of ``src/cgnp``; a span is named
``<layer>.<function>`` (see tracer.py). Per-layer metrics are normalised so
that two runs of one workload compare whatever their length:

- ``.calls``, ``.self_s``, ``.errors`` and ``cli.self_s`` are per workload
  command (one ``cli.main`` call);
- ``.s`` and ``.bytes`` are per call of the named function;
- ``.share`` is the summed duration of the named spans, children
  included, over the summed command wall time;
- ``_per_step`` is per training batch, or per evaluated episode
  (``models.forward`` call) when the workload trains nothing.

A metric whose function never ran, or no longer exists, reads 0.
"""

from __future__ import annotations

import os
import re
from collections import defaultdict

import numpy as np

from tracer import END, INFO, NAME, PARENT, RAISED, START, self_times

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

LAYERS = ("gp", "autodiff", "graph", "models", "optim", "training", "formats", "cli")

END_TO_END = {  # name -> (unit, better)
    "setup_s": ("s", "lower"),
    "ops_per_ref_s": ("1/s", "higher"),
    "nll_per_point": ("nats", "lower"),
    "mse": ("sq_units", "lower"),
    "ok_frac": ("frac", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

AUTODIFF_OPS = (
    "affine", "matmul", "add", "add_rowvec", "relu", "bounded_softplus", "batch_norm",
    "gaussian_nll", "concat_cols", "slice_cols", "gather_rows", "segment_sum",
    "segment_mean", "row_scale",
)
VARIANTS = ("cnp", "cgnp", "cgnp_edgeless")
FORMATS_IO = ("load_episodes", "save_episodes", "load_checkpoint", "save_checkpoint")

PER_LAYER = (  # (name, unit) pairs
    [
        ("gp.make_train_batch.ms_p50", "ms"),
        ("gp.make_train_batch.share", "frac"),
        ("gp.cholesky.calls", "count"),
        ("gp.make_test_set.s", "s"),
        ("graph.radius_edge_set.calls", "count"),
        ("graph.radius_edge_set.ms_p50", "ms"),
        ("graph.edges_per_call", "count"),
        ("graph.bipartite_conv.share", "frac"),
        ("models.forward_tensors.ms_p50", "ms"),
        ("models.forward_tensors.ms_p99", "ms"),
        ("models.forward.ms_p50", "ms"),
        ("models.forward.ms_p99", "ms"),
    ]
    + [(f"autodiff.{op}.{kind}", unit) for op in AUTODIFF_OPS
       for kind, unit in (("self_s", "s"), ("calls", "count"))]
    + [
        ("autodiff.op_calls_per_step", "count"),
        ("autodiff.output_mb_per_step", "MiB"),
        ("autodiff.backward.ms_p50", "ms"),
        ("autodiff.backward.ms_p99", "ms"),
        ("autodiff.backward.share", "frac"),
        ("autodiff.backward.calls", "count"),
        ("optim.adam_step.ms_p50", "ms"),
        ("optim.adam_step.calls", "count"),
        ("optim.zero_grads.ms_p50", "ms"),
        ("optim.share", "frac"),
        ("training.step_ms.p50", "ms"),
        ("training.step_ms.p99", "ms"),
    ]
    + [(f"training.step_ms.{q}.{v}", "ms") for v in VARIANTS for q in ("p50", "p99")]
    + [
        ("training.heldout_share", "frac"),
        ("training.compare_models.overlap", "ratio"),
    ]
    + [(f"formats.{fn}.{kind}", unit) for fn in FORMATS_IO
       for kind, unit in (("s", "s"), ("bytes", "bytes"))]
    + [("cli.self_s", "s")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.overhead", "ratio")]
)

# Per-layer metrics where a larger value is better; lower is better for the rest.
PER_LAYER_HIGHER = {"training.compare_models.overlap"}

# Functions the per-layer metrics read; any the program no longer has are
# reported as absent.
NAMED_FUNCTIONS = sorted(
    {"gp.make_train_batch", "gp.cholesky", "gp.make_test_set", "graph.radius_edge_set",
     "graph.bipartite_conv", "models.forward_tensors", "models.forward", "autodiff.backward",
     "optim.adam_step", "optim.zero_grads", "training.train", "training.evaluate",
     "training.compare_models", "cli.main"}
    | {f"autodiff.{op}" for op in AUTODIFF_OPS}
    | {f"formats.{fn}" for fn in FORMATS_IO}
)


# ---------------------------------------------------------------------------
# the percentile rule
# ---------------------------------------------------------------------------

LADDER = (99.9, 99.0, 90.0)


def tail_level(n: int, cap: float = 100.0) -> float:
    """The highest percentile of the ladder, at most ``cap``, that has at
    least ten of ``n`` samples beyond it; the median when none has."""
    for level in LADDER:
        if level <= cap and n * (100.0 - level) / 100.0 >= 10.0 - 1e-9:
            return level
    return 50.0


def tail(values, cap: float = 100.0) -> tuple[float, float]:
    """(level, value) of the tail percentile of ``values`` by `tail_level`."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 50.0, 0.0
    level = tail_level(values.size, cap)
    return level, float(np.percentile(values, level))


def median(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values)) if values.size else 0.0


# ---------------------------------------------------------------------------
# measure hooks: numbers read from a traced call's arguments or result
# ---------------------------------------------------------------------------


def _output_bytes(args, kwargs, result):
    return result.value.nbytes


def _edge_count(args, kwargs, result):
    return result.edge_in.size


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _variant(args, kwargs, result):
    model = args[0].model
    if model.kind == "cnp":
        return "cnp"
    return "cgnp_edgeless" if model.radius == 0.0 else "cgnp"


MEASURES = {
    **{f"autodiff.{op}": _output_bytes for op in AUTODIFF_OPS},
    "graph.radius_edge_set": _edge_count,
    **{f"formats.{fn}": _file_bytes for fn in FORMATS_IO},
    "training.train": _variant,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans, overhead: float) -> tuple[dict[str, float], list[str]]:
    """Every PER_LAYER metric from one traced run, plus text notes giving
    the percentile level and sample count behind each tail value."""
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)
    durations = np.array([s[END] - s[START] for s in spans], dtype=np.float64)
    selfs = self_times(spans) if spans else durations
    commands = max(len(by_name["cli.main"]), 1)
    command_wall = float(durations[by_name["cli.main"]].sum()) or 1.0
    notes: list[str] = []

    def durs(name, keep=None):
        idx = by_name.get(name, [])
        if keep is not None:
            idx = [i for i in idx if keep(spans[i])]
        return durations[idx]

    def p50_ms(values):
        return 1e3 * median(values)

    def p99_ms(values, label):
        level, value = tail(values, cap=99.0)
        if len(values):
            notes.append(f"{label}: p{level:g} of n={len(values)}")
        return 1e3 * value

    def per_call(name, column):
        idx = by_name.get(name, [])
        if not idx:
            return 0.0
        if column is None:
            return float(durations[idx].mean())
        return float(np.mean([spans[i][column] for i in idx]))

    def calls(name):
        return len(by_name.get(name, [])) / commands

    def share(*names):
        return sum(float(durs(n).sum()) for n in names) / command_wall

    def parent_is(name):
        return lambda s: s[PARENT] >= 0 and spans[s[PARENT]][NAME] == name

    m: dict[str, float] = {}
    m["gp.make_train_batch.ms_p50"] = p50_ms(durs("gp.make_train_batch"))
    m["gp.make_train_batch.share"] = share("gp.make_train_batch")
    m["gp.cholesky.calls"] = calls("gp.cholesky")
    m["gp.make_test_set.s"] = per_call("gp.make_test_set", None)

    m["graph.radius_edge_set.calls"] = calls("graph.radius_edge_set")
    m["graph.radius_edge_set.ms_p50"] = p50_ms(durs("graph.radius_edge_set"))
    m["graph.edges_per_call"] = per_call("graph.radius_edge_set", INFO)
    m["graph.bipartite_conv.share"] = share("graph.bipartite_conv")

    in_forward = parent_is("models.forward")
    batch_fwd = durs("models.forward_tensors", lambda s: not in_forward(s))
    episode_fwd = durs("models.forward")
    m["models.forward_tensors.ms_p50"] = p50_ms(batch_fwd)
    m["models.forward_tensors.ms_p99"] = p99_ms(batch_fwd, "models.forward_tensors.ms_p99")
    m["models.forward.ms_p50"] = p50_ms(episode_fwd)
    m["models.forward.ms_p99"] = p99_ms(episode_fwd, "models.forward.ms_p99")

    op_names = [n for n in by_name if n.startswith("autodiff.") and n != "autodiff.backward"]
    for op in AUTODIFF_OPS:
        idx = by_name.get(f"autodiff.{op}", [])
        m[f"autodiff.{op}.self_s"] = float(selfs[idx].sum()) / commands
        m[f"autodiff.{op}.calls"] = calls(f"autodiff.{op}")
    steps = len(by_name.get("gp.make_train_batch", [])) or len(by_name.get("models.forward", [])) or 1
    op_spans = [i for n in op_names for i in by_name[n]]
    # composite ops (affine) return a child's tensor: count leaf outputs only
    composite = {spans[i][PARENT] for i in op_spans}
    out_bytes = sum(spans[i][INFO] or 0 for i in op_spans if i not in composite)
    m["autodiff.op_calls_per_step"] = len(op_spans) / steps
    m["autodiff.output_mb_per_step"] = out_bytes / steps / 2**20
    backward = durs("autodiff.backward")
    m["autodiff.backward.ms_p50"] = p50_ms(backward)
    m["autodiff.backward.ms_p99"] = p99_ms(backward, "autodiff.backward.ms_p99")
    m["autodiff.backward.share"] = share("autodiff.backward")
    m["autodiff.backward.calls"] = calls("autodiff.backward")

    m["optim.adam_step.ms_p50"] = p50_ms(durs("optim.adam_step"))
    m["optim.adam_step.calls"] = calls("optim.adam_step")
    m["optim.zero_grads.ms_p50"] = p50_ms(durs("optim.zero_grads"))
    m["optim.share"] = share("optim.adam_step", "optim.zero_grads")

    # step time: gaps between consecutive batch starts inside one train call
    starts = defaultdict(list)
    for i in by_name.get("gp.make_train_batch", []):
        starts[spans[i][PARENT]].append(spans[i][START])
    steps_all, steps_by_variant = [], defaultdict(list)
    for parent, values in starts.items():
        gaps = np.diff(values)
        steps_all.extend(gaps)
        if parent >= 0 and spans[parent][NAME] == "training.train":
            steps_by_variant[spans[parent][INFO]].extend(gaps)
    steps_all = np.asarray(steps_all)
    m["training.step_ms.p50"] = p50_ms(steps_all)
    m["training.step_ms.p99"] = p99_ms(steps_all, "training.step_ms.p99")
    for v in VARIANTS:
        values = np.asarray(steps_by_variant.get(v, []))
        m[f"training.step_ms.p50.{v}"] = p50_ms(values)
        m[f"training.step_ms.p99.{v}"] = p99_ms(values, f"training.step_ms.p99.{v}")
    m["training.heldout_share"] = (
        float(durs("training.evaluate", parent_is("training.train")).sum()) / command_wall
    )
    compare_wall = float(durs("training.compare_models").sum())
    in_compare = parent_is("training.compare_models")
    m["training.compare_models.overlap"] = (
        (float(durs("training.train", in_compare).sum()) + float(durs("training.evaluate", in_compare).sum()))
        / compare_wall
        if compare_wall
        else 0.0
    )

    for fn in FORMATS_IO:
        m[f"formats.{fn}.s"] = per_call(f"formats.{fn}", None)
        m[f"formats.{fn}.bytes"] = per_call(f"formats.{fn}", INFO)

    cli_idx = [i for n, idx in by_name.items() if n.startswith("cli.") for i in idx]
    m["cli.self_s"] = float(selfs[cli_idx].sum()) / commands
    raised = [s[NAME].split(".", 1)[0] for s in spans if s[RAISED]]
    for layer in LAYERS:
        m[f"{layer}.errors"] = raised.count(layer) / commands
    m["trace.overhead"] = overhead

    return m, notes
