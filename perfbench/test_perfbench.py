"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from metrics import (END_TO_END, LAYERS, MEASURES, NAME_RE, PER_LAYER, PER_LAYER_HIGHER, layer_metrics,
                     tail, tail_level)
from tracer import Tracer, self_times

UNIT_RE = r"[A-Za-z0-9_/%.-]{1,16}"


@pytest.mark.parametrize(
    "n, cap, level",
    [(0, 100, 50), (19, 100, 50), (99, 100, 50), (100, 100, 90), (999, 100, 90),
     (1000, 100, 99), (9999, 100, 99), (10000, 100, 99.9), (10000, 99, 99)],
)
def test_tail_level_is_highest_percentile_with_ten_samples_beyond(n, cap, level):
    assert tail_level(n, cap) == level


def test_tail_value_is_that_percentile():
    values = np.arange(1000.0)
    assert tail(values) == (99.0, float(np.percentile(values, 99.0)))
    assert tail([]) == (50.0, 0.0)


def test_self_time_subtracts_direct_children():
    spans = [
        ("root", 0.0, 10.0, -1, False, None),
        ("a", 1.0, 4.0, 0, False, None),
        ("a.inner", 2.0, 3.0, 1, False, None),
        ("b", 5.0, 9.0, 0, False, None),
    ]
    assert self_times(spans).tolist() == [3.0, 2.0, 1.0, 4.0]


def _bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "cgnp" or name.startswith("cgnp.")
        for attr, value in vars(module).items()
    }


def test_install_catches_calls_through_every_module_and_restore_is_exact():
    import cgnp
    from cgnp import autodiff, cli, formats, graph, models, training  # noqa: F401  every layer loaded

    before = _bindings()
    tracer = Tracer(LAYERS, MEASURES)
    tracer.install()
    try:
        assert training.backward is not before[("cgnp.training", "backward")]
        assert graph.matmul is not before[("cgnp.graph", "matmul")]
        assert models.batch_norm is not before[("cgnp.models", "batch_norm")]
        assert cgnp.affine is not before[("cgnp", "affine")]
        autodiff.affine(np.ones((3, 2)), np.ones((2, 4)), np.ones((1, 4)))
        with pytest.raises(ValueError):
            autodiff.matmul(np.ones((3, 2)), np.ones((3, 2)))
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = [s[0] for s in tracer.spans]
    assert names == ["autodiff.affine", "autodiff.matmul", "autodiff.add_rowvec", "autodiff.matmul"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1]
    assert [s[4] for s in tracer.spans] == [False, False, False, True]
    assert tracer.spans[1][5] == 3 * 4 * 8  # output bytes of the matmul


def test_missing_layer_is_absent_and_metrics_still_complete():
    tracer = Tracer(("autodiff", "no_such_layer"))
    tracer.install()
    tracer.restore()
    assert tracer.absent_layers == ["no_such_layer"]
    values, _ = layer_metrics([], overhead=0.1)
    assert set(values) == {name for name, _ in PER_LAYER}
    assert values["trace.overhead"] == 0.1
    assert values["graph.radius_edge_set.calls"] == 0.0


def test_step_time_share_and_errors_from_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1, False, None),
        ("training.train", 0.0, 8.0, 0, False, "cnp"),
        ("gp.make_train_batch", 1.0, 1.5, 1, False, None),
        ("gp.make_train_batch", 3.0, 3.5, 1, False, None),
        ("gp.make_train_batch", 5.0, 5.5, 1, False, None),
        ("gp.cholesky", 6.0, 6.5, 1, True, None),
    ]
    values, _ = layer_metrics(spans, overhead=0.0)
    assert values["training.step_ms.p50"] == 2000.0
    assert values["training.step_ms.p50.cnp"] == 2000.0
    assert values["training.step_ms.p50.cgnp"] == 0.0
    assert values["gp.make_train_batch.share"] == pytest.approx(0.15)
    assert values["gp.cholesky.calls"] == 1.0
    assert values["gp.errors"] == 1.0
    assert values["cli.self_s"] == 2.0


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {m["name"] for m in spec["per_layer"] if m["better"] == "higher"} == PER_LAYER_HIGHER
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(UNIT_RE, u) for u in units)
