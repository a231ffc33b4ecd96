"""The benchmark's traced run works on the program as it is: each kind of
command the `perfbench/` workloads repeat exits 0 under its `Tracer`, every
span closes, and `metrics.layer_metrics` reads the spans.

A measure hook that raises inside a traced call leaves that call's span
None and makes the command exit 1, and `layer_metrics` then fails. The
hooks hold the program to a few contracts: `autodiff.affine`,
`concat_cols` and `gaussian_nll` return Tensors, `training.train` takes its
`TrainConfig` first, and the four file functions of `formats` take the path
first. The files under `perfbench/` are used as they are."""

from pathlib import Path

import cgnp.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TINY = ["train.batches=3", "train.batch_size=4", "data.test_episodes=5"]


def test_the_benchmark_commands_exit_0_traced_and_every_span_closes(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from metrics import LAYERS, MEASURES, layer_metrics
    from tracer import RAISED, Tracer

    data = tmp_path / "test.jsonl"
    kinds = ("cnp", "cgnp")
    commands = [
        ["generate", "--out", str(data), *TINY],
        # held-out evaluation at the first and the last batch
        *(["train", "--out-dir", str(tmp_path / kind), f"model.kind={kind}", *TINY] for kind in kinds),
        *(["eval", "--checkpoint", str(tmp_path / kind / "checkpoint.json"), "--data", str(data),
            "--out", str(tmp_path / f"{kind}.csv")] for kind in kinds),
        ["compare", "--seeds", "1", "--out", str(tmp_path / "compare" / "table.csv"), *TINY],
    ]
    tracer = Tracer(LAYERS, MEASURES)
    tracer.install()
    try:
        codes = [cgnp.cli.main(argv) for argv in commands]  # through the module, so main is traced too
    finally:
        tracer.restore()
    assert codes == [0] * len(commands), capsys.readouterr().err
    assert None not in tracer.spans
    assert not any(span[RAISED] for span in tracer.spans)
    metrics, _ = layer_metrics(tracer.spans, 1.0)
    # a number read by each kind of measure hook
    assert metrics["autodiff.output_mb_per_step"] > 0
    assert metrics["training.step_ms.p50.cnp"] > 0 and metrics["training.step_ms.p50.cgnp"] > 0
    assert all(metrics[f"formats.{fn}.bytes"] > 0
               for fn in ("save_episodes", "load_episodes", "save_checkpoint", "load_checkpoint"))
