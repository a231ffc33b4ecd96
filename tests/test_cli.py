import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cgnp
from cgnp.cli import _train_config, main, parse_run_config
from cgnp.formats import file_sha256, load_episodes, save_checkpoint, save_episodes
from cgnp.gp import EqKernelSpec, ProtocolConfig, make_test_set
from cgnp.models import ModelConfig, init_params
from cgnp.training import TrainConfig

FAST = [
    "train.batches=40",
    "train.batch_size=8",
    "train.eval_every=20",
    "data.test_episodes=6",
]


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_defaults_follow_protocol():
    cfg = parse_run_config(None)
    assert cfg["model.latent_dim"] == 8
    assert cfg["model.radius"] == 0.7
    assert cfg["train.lr"] == 1e-3
    assert cfg["data.length_scale"] == 0.4


def test_default_run_config_is_the_dataclass_defaults():
    assert _train_config(parse_run_config(None)) == TrainConfig(model=ModelConfig(kind="cgnp"))


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nmodel.kind = cnp\ntrain.batches = 123\npaths.out = /tmp/x\n")
    cfg = parse_run_config(str(path), ["train.batches=456"])
    assert cfg["model.kind"] == "cnp"
    assert cfg["train.batches"] == 456  # override wins
    assert cfg["paths.out"] == "/tmp/x"


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model.depht = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_run_config(str(path))


def test_bad_value_and_kind_rejected():
    with pytest.raises(ValueError, match="cannot parse"):
        parse_run_config(None, ["train.batches=soon"])
    with pytest.raises(ValueError, match="model.kind"):
        parse_run_config(None, ["model.kind=mlp"])


@pytest.mark.parametrize(
    "override, message",
    [
        ("model.radius=nan", "config key model.radius: must be finite, got nan"),
        ("train.lr=inf", "config key train.lr: must be finite, got inf"),
        ("data.length_scale=nan", "config key data.length_scale: must be finite, got nan"),
        ("train.eval_every=-5", "config key train.eval_every: eval_every must be non-negative, got -5"),
        ("train.batches=0", "config key train.batches: train_batches must be at least 1, got 0"),
        ("seed.master=-1", "config key seed.master: master_seed must be non-negative, got -1"),
        ("seed.init=-1", "config key seed.init: init_seed must be non-negative, got -1"),
    ],
)
def test_bad_config_value_exits_1_naming_the_key_and_writes_nothing(tmp_path, capsys, override, message):
    out_dir = tmp_path / "run"
    assert main(["train", "--out-dir", str(out_dir), "train.batches=3", "train.batch_size=8", override]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_deterministic_episodes(tmp_path, capsys):
    out = tmp_path / "test.jsonl"
    assert run_cli("generate", "--out", str(out), "data.test_episodes=5") == 0
    buckets = load_episodes(out)
    assert sum(len(b) for b in buckets) == 5
    assert all(b.n_context + b.n_target == 400 for b in buckets)
    first_hash = file_sha256(out)
    assert run_cli("generate", "--out", str(out), "data.test_episodes=5") == 0
    assert file_sha256(out) == first_hash


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("run")
    code = main(["train", "--out-dir", str(out_dir), "model.kind=cnp"] + FAST)
    assert code == 0
    return out_dir


def test_train_outputs(trained_dir, capsys):
    assert (trained_dir / "checkpoint.json").exists()
    assert (trained_dir / "report.csv").exists()
    curve = (trained_dir / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "batch,loss"
    assert len(curve) == 41


def test_train_prints_loss_lines(tmp_path, capsys):
    assert main(["train", "--out-dir", str(tmp_path), "model.kind=cnp"] + FAST) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("batch=0 loss=") for line in lines)
    assert any(line.startswith("batch=20 loss=") for line in lines)


def test_eval_prints_record_and_writes_csv(trained_dir, tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    run_cli("generate", "--out", str(data), "data.test_episodes=4")
    capsys.readouterr()
    out = tmp_path / "metrics.csv"
    code = run_cli(
        "eval", "--checkpoint", str(trained_dir / "checkpoint.json"),
        "--data", str(data), "--out", str(out),
    )
    assert code == 0
    record = capsys.readouterr().out.splitlines()[0]
    assert record.startswith("nll_per_point=")
    assert "episode_count=4" in record
    rows = out.read_text().splitlines()
    assert rows[0].startswith("# eval")
    assert "data_sha256=" in rows[0]
    # untrained-ish model on prior data: mse should sit near the prior baseline
    mse = float(rows[2].split(",")[2])
    assert 0.2 < mse < 1.5


def test_eval_is_repeatable(trained_dir, tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    run_cli("generate", "--out", str(data), "data.test_episodes=3")
    capsys.readouterr()
    outputs = []
    for _ in range(2):
        run_cli("eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--data", str(data))
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_eval_on_empty_file_errors(trained_dir, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = run_cli("eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--data", str(empty))
    assert code == 1
    assert "no episodes" in capsys.readouterr().err


def test_eval_untrained_fresh_model_near_prior(tmp_path, capsys):
    # a freshly initialized model should produce finite metrics with mse near 1
    out_dir = tmp_path / "fresh"
    main(["train", "--out-dir", str(out_dir), "model.kind=cnp",
          "train.batches=1", "train.batch_size=8", "train.eval_every=0",
          "data.test_episodes=1"])
    data = tmp_path / "data.jsonl"
    run_cli("generate", "--out", str(data), "data.test_episodes=50")
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", str(out_dir / "checkpoint.json"), "--data", str(data)) == 0
    record = capsys.readouterr().out.splitlines()[0]
    fields = dict(kv.split("=") for kv in record.split())
    assert np.isfinite(float(fields["nll_per_point"]))
    assert 0.7 <= float(fields["mse"]) <= 1.3


# ---------------------------------------------------------------------------
# compare / plot
# ---------------------------------------------------------------------------


def test_compare_table_and_shared_test_set(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["compare", "--seeds", "2", "--out", str(out),
                 "train.batches=30", "train.batch_size=8", "train.eval_every=0",
                 "data.test_episodes=5"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert "test_set_sha256=" in lines[0]
    rows = list(csv.DictReader(lines[1:]))
    assert [r["model"] for r in rows] == ["cnp", "cgnp", "cgnp"]
    assert [r["rho"] for r in rows] == ["", "0.7", "0.0"]
    for r in rows:
        assert np.isfinite(float(r["nll_per_point"]))
    # recorded hash matches the emitted shared test set
    test_path = tmp_path / "table_testset.jsonl"
    assert f"test_set_sha256={file_sha256(test_path)}" in lines[0]
    seeds_file = tmp_path / "table_seeds.csv"
    seed_rows = list(csv.DictReader(seeds_file.read_text().splitlines()[1:]))
    assert len(seed_rows) == 6  # 3 models x 2 seeds


def test_compare_rejects_an_empty_test_set_before_training_or_writing(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["compare", "--seeds", "1", "--out", str(out), "train.batches=3", "data.test_episodes=0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: config key data.test_episodes: compare needs at least one test episode, got 0"
    ]
    assert captured.out == ""  # no "training ..." line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_compare_rejects_fewer_than_one_seed_before_training_or_writing(tmp_path, capsys, seeds):
    out = tmp_path / "table.csv"
    assert main(["compare", "--seeds", seeds, "--out", str(out), "train.batches=3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: --seeds must be at least 1, got {seeds}"]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []  # no _testset.jsonl either


@pytest.mark.parametrize("bad", ["config", "checkpoint", "episodes"])
def test_undecodable_input_file_exits_1_naming_it_and_writes_nothing(tmp_path, capsys, bad):
    cfg = ModelConfig(kind="cnp")
    files = {name: tmp_path / name for name in ("config", "checkpoint", "episodes")}
    files["config"].write_text("train.batches = 3\n")
    save_checkpoint(files["checkpoint"], init_params(cfg), cfg)
    save_episodes(files["episodes"], make_test_set(ProtocolConfig(test_episodes=2), EqKernelSpec()))
    files[bad].write_bytes(b"\xff" + files[bad].read_bytes())
    before = sorted(tmp_path.iterdir())
    if bad == "config":
        argv = ["train", "--config", str(files["config"]), "--out-dir", str(tmp_path / "run")]
    else:
        argv = ["eval", "--checkpoint", str(files["checkpoint"]), "--data", str(files["episodes"]),
                "--out", str(tmp_path / "metrics.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {files[bad]}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    ]
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


def test_plot_exports_fit_curve(trained_dir, tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    run_cli("generate", "--out", str(data), "data.test_episodes=2")
    out = tmp_path / "fit.csv"
    code = run_cli(
        "plot", "--checkpoint", str(trained_dir / "checkpoint.json"),
        "--data", str(data), "--index", "1", "--out", str(out),
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 400
    xs = np.array([float(r["x"]) for r in rows])
    assert np.all(np.diff(xs) > 0)
    assert all(float(r["sigma"]) >= 0.1 for r in rows)
    (bucket,) = [b for b in load_episodes(data) if 1 in b.index]
    assert sum(int(r["is_context"]) for r in rows) == bucket.n_context


def test_plot_index_out_of_range(trained_dir, tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    run_cli("generate", "--out", str(data), "data.test_episodes=2")
    code = run_cli(
        "plot", "--checkpoint", str(trained_dir / "checkpoint.json"),
        "--data", str(data), "--index", "7", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "index" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_console_entry_point_runs():
    # the child imports the package under test, installed or not
    src = str(Path(cgnp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "cgnp", "generate", "--out", "/tmp/cgnp_cli_smoke.jsonl",
         "data.test_episodes=2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "wrote 2 episodes" in proc.stdout
