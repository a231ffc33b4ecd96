import csv
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import cgnp
from cgnp import cli
from cgnp.cli import CONFIG_DEFAULTS, CONFIG_MAXIMA, _train_config, main, parse_run_config
from cgnp.formats import file_sha256, load_checkpoint, load_episodes, save_checkpoint, save_episodes
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


def test_the_readme_names_every_config_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("Keys and defaults:", 1)[1].split(";", 1)[0]
    documented = dict(re.findall(r"`([\w.]+)=([^`]*)`", sentence))
    assert sorted(documented) == sorted(CONFIG_DEFAULTS)
    for key, default in CONFIG_DEFAULTS.items():  # numbers as numbers: 1e-3 == 0.001
        text = documented[key]
        assert (text if isinstance(default, str) else float(text)) == default, key


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


@pytest.mark.parametrize(
    "config, overrides",
    [
        (None, ["train.batch_size=1000000000000", "train.batch_size=4"]),
        (None, ["train.batch_size=nan", "train.batch_size=4"]),
        ("train.batch_size = abc\n", ["train.batch_size=4"]),
        ("train.batch_size = 0\n", ["train.batch_size=4"]),
    ],
    ids=["oversized_then_good", "nan_then_good", "file_unparsable_then_good", "file_out_of_range_then_good"],
)
def test_a_later_value_replaces_an_earlier_bad_one(tmp_path, capsys, config, overrides):
    path = None
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        path = str(path)
    assert parse_run_config(path, overrides)["train.batch_size"] == 4
    argv = ["train", "--out-dir", str(tmp_path / "run"), "train.batches=3", *overrides]
    assert main(argv if path is None else [*argv, "--config", path]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "run" / "checkpoint.json").exists()


@pytest.mark.parametrize(
    "config, overrides, message",
    [
        (None, ["train.batch_size=4", "train.batch_size=1000000000000"],
         "config key train.batch_size: must be at most 4096, got 1000000000000"),
        ("train.batch_size = 4\n", ["train.batch_size=abc"],
         "config key train.batch_size: cannot parse 'abc'"),
        ("train.batch_size = 4\n", ["train.batch_size=0"],
         "config key train.batch_size: batch_size must be at least 1"),
        (None, ["train.bogus=1", "train.batch_size=4"], "unknown config key 'train.bogus'"),
        ("train.bogus = 1\n", ["train.bogus=2"], "unknown config key 'train.bogus'"),
    ],
    ids=["good_then_oversized", "file_good_then_unparsable", "file_good_then_out_of_range",
         "unknown_then_good", "unknown_in_file_and_override"],
)
def test_a_bad_last_value_or_an_unknown_key_exits_1_naming_it(tmp_path, capsys, config, overrides, message):
    argv = ["train", "--out-dir", str(tmp_path / "run"), "train.batches=3", *overrides]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "run.cfg")]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("key", list(CONFIG_MAXIMA))
def test_oversized_value_exits_1_naming_the_key_before_allocating(tmp_path, monkeypatch, capsys, key):
    import cgnp.cli as cli

    def no_allocation(*args, **kwargs):
        raise AssertionError("an oversized value reached allocation")

    monkeypatch.setattr(cli, "train", no_allocation)
    monkeypatch.setattr(cli, "make_test_set", no_allocation)
    bound = CONFIG_MAXIMA[key]
    assert parse_run_config(None, [f"{key}={bound}"])[key] == bound
    for argv in (["train", "--out-dir", str(tmp_path / "run")], ["generate", "--out", str(tmp_path / "t.jsonl")]):
        assert main([*argv, f"{key}={bound + 1}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: config key {key}: must be at most {bound}, got {bound + 1}"]
        assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "", "abc"])
@pytest.mark.parametrize("key", list(CONFIG_DEFAULTS))
def test_every_config_key_takes_a_boundary_value_or_rejects_it_naming_the_key(
    tmp_path, monkeypatch, capsys, key, value
):
    # the full grid of keys x boundary values; 1e308 is left out because
    # train.lr=1e308 diverges, which exits 1 naming the batch, not the key
    monkeypatch.chdir(tmp_path)
    code = main(["train", "--out-dir", "run", "train.batches=3", "data.test_episodes=4", f"{key}={value}"])
    captured = capsys.readouterr()
    if code == 1:
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: config key {key}: ")
        assert list(tmp_path.iterdir()) == []
        return
    assert code == 0 and captured.err == ""
    load_checkpoint(tmp_path / "run" / "checkpoint.json")  # rejects non-finite values
    curve = np.loadtxt(tmp_path / "run" / "loss_curve.csv", delimiter=",", skiprows=1)
    assert curve.shape == (3, 2) and np.isfinite(curve).all()
    assert np.isfinite(np.loadtxt(tmp_path / "run" / "report.csv", delimiter=",", skiprows=2)).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow that diverges it
def test_diverged_training_exits_1_and_leaves_no_output_directory(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["train", "--out-dir", str(out_dir), "train.lr=1e308", "train.batches=3"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: non-finite held-out nll_per_point nan at batch 0; parameter norms: enc1.w_nbr=inf, "
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_final_heldout_metrics_exit_1_and_leave_no_output_directory(tmp_path, capsys):
    # one finite training loss, then only the final held-out evaluation sees the NaN
    out_dir = tmp_path / "run"
    argv = ["train", "--out-dir", str(out_dir), "train.lr=1e308", "train.batches=1", "train.eval_every=0"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: non-finite held-out nll_per_point nan at batch 0; ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["1e-300", "1e300"])
@pytest.mark.parametrize("command", ["generate", "train"])
def test_a_length_scale_that_breaks_the_kernel_exits_1_naming_the_key_before_any_work(
    tmp_path, capsys, command, value
):
    # eq_kernel's divisor 2 * length_scale**2 underflows to 0 at 1e-300 and overflows at 1e300
    out = ["--out", str(tmp_path / "g.jsonl")] if command == "generate" else ["--out-dir", str(tmp_path / "run")]
    assert main([command, *out, f"data.length_scale={value}", "train.batches=3", "data.test_episodes=2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: config key data.length_scale: length_scale must be between 1e-150 and 1e150, got {float(value)}"
    ]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["1e-150", "1e150"])
def test_a_length_scale_at_its_bounds_generates_without_a_warning(tmp_path, capsys, value):
    # pytest turns RuntimeWarning into an error, so an overflow in eq_kernel would fail here
    out = tmp_path / "g.jsonl"
    assert main(["generate", "--out", str(out), f"data.length_scale={value}", "data.test_episodes=2"]) == 0
    assert sum(map(len, load_episodes(out))) == 2


@pytest.mark.parametrize("value", ["2", "1e300"])
@pytest.mark.parametrize("command", ["generate", "train"])
def test_a_jitter_past_the_kernel_variance_exits_1_naming_the_key_before_any_work(tmp_path, capsys, command, value):
    # past the kernel's unit variance the jitter swamps it: 1e300 would give y values near 1e148
    out = ["--out", str(tmp_path / "g.jsonl")] if command == "generate" else ["--out-dir", str(tmp_path / "run")]
    assert main([command, *out, f"data.jitter={value}", "train.batches=3", "data.test_episodes=2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: config key data.jitter: jitter must be between 0 and 1, got {float(value)}"
    ]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_a_jitter_at_its_bound_generates_without_a_warning(tmp_path, capsys):
    out = tmp_path / "g.jsonl"
    assert main(["generate", "--out", str(out), "data.jitter=1", "data.test_episodes=2"]) == 0
    assert capsys.readouterr().err == ""
    assert sum(map(len, load_episodes(out))) == 2


# a value unlike the default for every config key
NON_DEFAULT = {
    "model.kind": "cnp",
    "model.latent_dim": 9,
    "model.radius": 0.5,
    "train.lr": 2e-3,
    "train.batches": 7,
    "train.batch_size": 32,
    "train.eval_every": 3,
    "seed.master": 1,
    "seed.init": 1,
    "data.length_scale": 0.5,
    "data.jitter": 1e-5,
    "data.test_episodes": 5,
}


def config_fields(train_cfg: TrainConfig) -> dict[str, object]:
    """Every field of the model, kernel and protocol configs, and the
    scalar fields of `train_cfg` itself, by qualified name."""
    values = {}
    for part in (train_cfg.model, train_cfg.kernel, train_cfg.protocol, train_cfg):
        for f in fields(part):
            if not is_dataclass(getattr(part, f.name)):
                values[f"{type(part).__name__}.{f.name}"] = getattr(part, f.name)
    return values


def test_every_model_kernel_and_protocol_field_is_set_by_exactly_one_config_key():
    # a field no key reaches is a knob only code can turn; the protocol's fixed values are constants
    assert set(NON_DEFAULT) == set(CONFIG_DEFAULTS)
    default = config_fields(_train_config(CONFIG_DEFAULTS))
    reached = []
    for key, value in NON_DEFAULT.items():
        assert value != CONFIG_DEFAULTS[key], key
        changed = config_fields(_train_config({**CONFIG_DEFAULTS, key: value}))
        diff = [name for name in default if changed[name] != default[name]]
        assert len(diff) == 1, (key, diff)
        reached += diff
    assert len(reached) == len(set(reached))  # no field is reached by two keys
    configs = ("ModelConfig.", "EqKernelSpec.", "ProtocolConfig.")
    assert {name for name in default if name.startswith(configs)} <= set(reached)


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


SMALL_EPISODE = '{"x_c":[0.0],"y_c":[0.0],"x_t":[1.0],"y_t":[1.0]}'
# finite, so the loader takes it, but any model's forward overflows on it
HUGE_EPISODE = '{"x_c":[1e308,-1e308],"y_c":[0.0,0.5],"x_t":[0.0],"y_t":[1.0]}'


def _checkpoint_and_data(tmp_path, kind: str, lines: list[str]) -> tuple[Path, Path]:
    cfg = ModelConfig(kind=kind)
    checkpoint, data = tmp_path / "checkpoint.json", tmp_path / "data.jsonl"
    save_checkpoint(checkpoint, init_params(cfg), cfg)
    data.write_text("".join(line + "\n" for line in lines))
    return checkpoint, data


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow that makes the metrics non-finite
@pytest.mark.parametrize("kind", ["cnp", "cgnp"])  # cnp's metrics are inf, cgnp's nan
def test_eval_exits_1_naming_the_episode_whose_metrics_are_not_finite_and_writes_nothing(tmp_path, capsys, kind):
    # the blank line is not counted: the huge episode is episode 1, as --index counts it
    checkpoint, data = _checkpoint_and_data(tmp_path, kind, [SMALL_EPISODE, "", HUGE_EPISODE, SMALL_EPISODE])
    out = tmp_path / "metrics.csv"
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {data}: episode 1: the model's metrics are not finite"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the sums overflow
def test_eval_exits_1_when_only_the_sums_of_finite_episode_metrics_overflow(tmp_path, capsys):
    # each episode's squared error is 8.1e307; four of them pass the largest double
    line = '{"x_c":[0.0],"y_c":[0.0],"x_t":[0.5],"y_t":[9e153]}'
    checkpoint, data = _checkpoint_and_data(tmp_path, "cnp", [line] * 4)
    out = tmp_path / "metrics.csv"
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {data}: summed over its episodes, the model's metrics are not finite"
    ]
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_plot_exits_1_naming_the_episode_whose_prediction_is_not_finite_and_writes_nothing(tmp_path, capsys):
    checkpoint, data = _checkpoint_and_data(tmp_path, "cgnp", [SMALL_EPISODE, HUGE_EPISODE])
    out = tmp_path / "fit.csv"
    argv = ["plot", "--checkpoint", str(checkpoint), "--data", str(data), "--index", "1", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {data}: episode 1: the model's prediction is not finite"]
    assert captured.out == ""
    assert not out.exists()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow that diverges it
@pytest.mark.parametrize("out", ["table.csv", "made/for/it/table.csv"])
def test_diverged_compare_exits_1_naming_the_variant_and_leaves_no_file(tmp_path, capsys, out):
    argv = ["compare", "--seeds", "1", "--out", str(tmp_path / out),
            "train.lr=1e308", "train.batches=2", "data.test_episodes=2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "training seed 0 (master=0, init=0)\n"
    assert captured.err.startswith(
        "error: cnp seed 0 (master=0, init=0): non-finite loss nan at batch 1; "
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow that diverges it
def test_a_compare_whose_test_metrics_diverge_exits_1_naming_the_variant_and_leaves_no_file(tmp_path, capsys):
    # one batch: its loss is finite, and only the test set sees the diverged weights
    argv = ["compare", "--seeds", "1", "--out", str(tmp_path / "table.csv"),
            "train.lr=1e308", "train.batches=1", "data.test_episodes=2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "training seed 0 (master=0, init=0)\n"
    assert captured.err.startswith(
        "error: cnp seed 0 (master=0, init=0): non-finite test nll_per_point nan at batch 0; "
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("existing", ["d", "d_seeds.csv", "d_testset.jsonl"])
def test_compare_rejects_a_table_path_that_is_a_directory_before_training_or_writing(
    tmp_path, capsys, existing
):
    (tmp_path / existing).mkdir()
    out = tmp_path / "d"
    argv = ["compare", "--seeds", "1", "--out", str(out), "train.batches=3", "data.test_episodes=2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: --out {out}: {tmp_path / existing} is a directory"]
    assert "training seed" not in captured.out
    assert list(tmp_path.iterdir()) == [tmp_path / existing]  # no _testset.jsonl
    assert list((tmp_path / existing).iterdir()) == []


@pytest.mark.parametrize("out_dir", ["f", "f/run"])
def test_train_rejects_an_out_dir_under_a_file_before_training(tmp_path, capsys, out_dir):
    (tmp_path / "f").write_text("kept\n")
    assert main(["train", "--out-dir", str(tmp_path / out_dir), "train.batches=3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: --out-dir {tmp_path / out_dir}: {tmp_path / 'f'} exists and is not a directory"
    ]
    assert captured.out == ""  # no batch line
    assert list(tmp_path.iterdir()) == [tmp_path / "f"]
    assert (tmp_path / "f").read_text() == "kept\n"


@pytest.mark.parametrize("name", ["checkpoint.json", "report.csv", "loss_curve.csv"])
def test_train_rejects_an_output_file_that_is_a_directory_before_training(tmp_path, capsys, name):
    run = tmp_path / "run"
    (run / name).mkdir(parents=True)
    assert main(["train", "--out-dir", str(run), "train.batches=3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: --out-dir {run}: {run / name} is a directory"]
    assert captured.out == ""  # no batch line
    assert list(run.iterdir()) == [run / name]


UNWRITABLE = ["directory", "missing parent", "under a file"]


def _unwritable_out(tmp_path, case: str) -> tuple[Path, str]:
    """An --out that cannot be written, and the problem its error names."""
    if case == "directory":
        (tmp_path / "d").mkdir()
        return tmp_path / "d", f"{tmp_path / 'd'} is a directory"
    if case == "under a file":
        (tmp_path / "f").write_text("kept\n")
        return tmp_path / "f" / "out", f"{tmp_path / 'f'} exists and is not a directory"
    return tmp_path / "nodir" / "out", f"directory {tmp_path / 'nodir'} does not exist"


def _assert_rejected_out_before_any_work(tmp_path, capsys, out, problem, before):
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: --out {out}: {problem}"]
    assert captured.out == ""  # no metrics or "wrote" line
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("case", UNWRITABLE)
def test_generate_rejects_an_unwritable_out_before_generating(tmp_path, capsys, monkeypatch, case):
    out, problem = _unwritable_out(tmp_path, case)
    before = sorted(tmp_path.iterdir())
    monkeypatch.setattr(cli, "make_test_set", lambda *_: pytest.fail("generated before checking --out"))
    assert main(["generate", "--out", str(out), "data.test_episodes=2"]) == 1
    _assert_rejected_out_before_any_work(tmp_path, capsys, out, problem, before)


@pytest.mark.parametrize("case", [*UNWRITABLE, "default beside the checkpoint"])
def test_eval_rejects_an_unwritable_out_before_evaluating(trained_dir, tmp_path, capsys, monkeypatch, case):
    data = tmp_path / "data.jsonl"
    save_episodes(data, make_test_set(ProtocolConfig(test_episodes=2), EqKernelSpec()))
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_bytes((trained_dir / "checkpoint.json").read_bytes())
    if case == "default beside the checkpoint":
        out = tmp_path / "checkpoint.metrics.csv"
        out.mkdir()
        problem, argv = f"{out} is a directory", []
    else:
        out, problem = _unwritable_out(tmp_path, case)
        argv = ["--out", str(out)]
    before = sorted(tmp_path.iterdir())
    monkeypatch.setattr(cli, "evaluate", lambda *_: pytest.fail("evaluated before checking --out"))
    assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data), *argv]) == 1
    _assert_rejected_out_before_any_work(tmp_path, capsys, out, problem, before)


@pytest.mark.parametrize("case", UNWRITABLE)
def test_plot_rejects_an_unwritable_out_before_predicting(trained_dir, tmp_path, capsys, monkeypatch, case):
    data = tmp_path / "data.jsonl"
    save_episodes(data, make_test_set(ProtocolConfig(test_episodes=2), EqKernelSpec()))
    out, problem = _unwritable_out(tmp_path, case)
    before = sorted(tmp_path.iterdir())
    monkeypatch.setattr(cli, "forward_tensors", lambda *_: pytest.fail("predicted before checking --out"))
    argv = ["plot", "--checkpoint", str(trained_dir / "checkpoint.json"), "--data", str(data),
            "--index", "1", "--out", str(out)]
    assert main(argv) == 1
    _assert_rejected_out_before_any_work(tmp_path, capsys, out, problem, before)


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


def test_console_entry_point_runs(tmp_path):
    # the child imports the package under test, installed or not
    src = str(Path(cgnp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "smoke.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "cgnp", "generate", "--out", str(out), "data.test_episodes=2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "wrote 2 episodes" in proc.stdout
    assert len(out.read_text().splitlines()) == 2
