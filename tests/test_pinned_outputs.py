"""Pinned bytes of the command-line outputs that must not drift.

`cgnp generate` files, the three files of a short `cgnp train`, one
`cgnp plot` fit curve and the two tables of a small `cgnp compare` are
compared against sha256 digests taken once, and the `cgnp eval` record
against its text, so a refactor of the episode, training, evaluation or
plotting path that changes a single byte fails here (two runs merely
agreeing with each other is checked elsewhere). `generate`, `train` and
`compare` must write those bytes at one and at two OpenBLAS threads, and
`eval` and `compare` of a set large enough for several evaluation threads
the same bytes on one core and on all of them. The train digests pin the
checkpoint layout and every initial weight draw as well. Re-pin only
together with a note of why the bytes changed.

Last re-pinned when eval-mode batch norm became one scale and one shift,
evaluation came to run the encoder once per shape bucket, and radius
neighbourhoods came to sum their relative positions input-major. Only
rounding moved. The fit curves' mu moved by at most 1.9e-16 absolute and
sigma by at most 2.8e-16 relative; the `compare` table values by at most
2.3e-15 relative and the per-seed values by at most 2.1e-16 relative. The
`eval` records kept their text.

Re-pinned before that when episode files became lines of base64 doubles. The
`generate` digests changed with the bytes and not with the values: written
in the decimal format that episode files had before, the loaded doubles
still give the digests that `DECIMAL_GENERATE` keeps, which were the
`generate` pins until then. The `compare` digests changed only through the
test set's sha256 in the tables' '#' header; every row below it kept its
bytes. `PLOT_AND_EVAL` kept its pins.

Re-pinned before that when the test grid's kernel came to be factored
column by column, so that `generate` writes the same bytes at any BLAS
thread count (grid values moved by at most 4.3e-10), and sums over rows in
the tape became products with a row of ones (the fitted mu and sigma moved
by at most 8.4e-11, the eval record by at most 3.9e-11 relative).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cgnp
from cgnp.cli import main
from cgnp.formats import load_checkpoint, load_episodes

from episode_oracle import oracle_episode_text, oracle_load_episodes
from metrics_oracle import sequential_evaluate

GENERATE = {
    0: "cb12fc501a70a0567633ed104b14ae96ff997a30d7315e183041ce48b7e0d217",
    7: "dc04de36e960268f2de709333e6aa97911d3b54844e01b619d89e234fbe4698a",
}
# the same files' episodes in the decimal JSON-lines format of `episode_oracle`
DECIMAL_GENERATE = {
    0: "1e465bc2d3996e171f515911fe7537beb6ed19b71dff7d1c5228e94f581e5367",
    7: "127430fde9f79a7207aa3ffcbf9c285c4b9aaeae58062e11b51a64a1f71f8ef2",
}
# per model kind: (digest of the index-13 fit curve, first line of the eval record)
PLOT_AND_EVAL = {
    "cgnp": (
        "8461358cd432a234d0b19a83010964dd875330c8e0e0b2cb238f85951fdbc4f9",
        "nll_per_point=1.5452543659739102 nll_per_episode=607.8258048558375 mse=1.0748526085334171 episode_count=40",
    ),
    "cnp": (
        "7bae44b4e09e88cc646a83c77eb4d2e39a83f7c6a2685469943dcf7ac17871b9",
        "nll_per_point=1.4928515614757074 nll_per_episode=587.2131617064695 mse=1.038168141734578 episode_count=40",
    ),
}
# per model kind: the digests of the files `cgnp train` writes with TRAIN
TRAIN_OUTPUTS = {
    "cgnp": {
        "checkpoint.json": "986bcb3b5576e3fb2b26190f44354c72f75f8dedbe37c0fb5beb082aa015d134",
        "loss_curve.csv": "8b8f1837ccf3cd2b32b08d7ac452110af9bd1f92c692d38767155682a9800080",
        "report.csv": "33d43709a0656ffe52f023f1533143c12ac2b49ccc51f1689ce04325175ec2d8",
    },
    "cnp": {
        "checkpoint.json": "b14476442f615b09fd6ce69efc066b5816f173659275b03612e5a16a52146bdc",
        "loss_curve.csv": "004c2cd6b5f4128ef39e3f6178e4ed748cc9b55ece503884cd51e50568788f9d",
        "report.csv": "86e0a27fcf06633dbaac72d65e5972f05bd730a6038137ad294822bc15860528",
    },
}
# the compare table's header holds the shared test set's digest, so it pins that file too
COMPARE = {
    "table.csv": "206d4329af5ce414ef1052549ebfc8fc4b858732242cc4fcff88a47186c8a0cc",
    "table_seeds.csv": "f610b58f05323c0f9162dae0c31a5011a8851944c8f00dcfaa6a992cdc2b77da",
}
TRAIN = ["train.batches=20", "train.batch_size=8", "train.eval_every=0", "seed.init=2"]
COMPARE_ARGS = ["--seeds", "2", "train.batches=30", "train.batch_size=8", "train.eval_every=10",
                "data.test_episodes=5"]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(path, seed: int) -> None:
    assert main(["generate", "--out", str(path), "data.test_episodes=40", f"seed.master={seed}"]) == 0


@pytest.mark.parametrize("seed", sorted(GENERATE))
def test_generate_output_matches_pinned_digest(tmp_path, seed):
    generate(tmp_path / "test.jsonl", seed)
    assert sha256(tmp_path / "test.jsonl") == GENERATE[seed]


@pytest.mark.parametrize("seed", sorted(DECIMAL_GENERATE))
def test_generate_values_are_those_of_the_pinned_decimal_files(tmp_path, seed):
    generate(tmp_path / "test.jsonl", seed)
    loaded = load_episodes(tmp_path / "test.jsonl")
    decimal = tmp_path / "decimal.jsonl"
    decimal.write_text(oracle_episode_text(loaded))
    assert sha256(decimal) == DECIMAL_GENERATE[seed]
    for got, want in zip(loaded, oracle_load_episodes(decimal), strict=True):
        for name in ("x_c", "y_c", "x_t", "y_t"):  # bit for bit
            assert np.array_equal(getattr(got, name).view(np.int64), getattr(want, name).view(np.int64)), name
        assert np.array_equal(got.index, want.index)


def child_cli(*argv: str, blas_threads: str | None = None, one_core: bool = False) -> str:
    """The standard output of `cgnp *argv` in a child interpreter that runs
    OpenBLAS on `blas_threads` threads if given, and that first pins itself
    to one of its cores if `one_core` (evaluation then runs on one thread)."""
    src = str(Path(cgnp.__file__).resolve().parents[1])  # the child imports the package under test
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " if one_core else ""
    code = f"import os, sys; {pin}from cgnp.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True, capture_output=True,
                          text=True, timeout=300).stdout


def test_generate_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.jsonl"
        child_cli("generate", "--out", str(out), "data.test_episodes=40", "seed.master=0", blas_threads=threads)
        digests.append(sha256(out))
    assert digests == [GENERATE[0], GENERATE[0]]


@pytest.mark.parametrize("kind", sorted(TRAIN_OUTPUTS))
def test_train_writes_the_pinned_bytes_at_one_and_two_blas_threads(tmp_path, kind):
    for threads in ("1", "2"):
        run = tmp_path / f"threads{threads}"
        child_cli("train", "--out-dir", str(run), f"model.kind={kind}", *TRAIN, blas_threads=threads)
        assert {path.name: sha256(path) for path in run.iterdir()} == TRAIN_OUTPUTS[kind], threads


def test_compare_writes_the_pinned_bytes_at_one_and_two_blas_threads(tmp_path):
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        child_cli("compare", "--out", str(out / "table.csv"), *COMPARE_ARGS, blas_threads=threads)
        assert {name: sha256(out / name) for name in COMPARE} == COMPARE, threads


def test_eval_and_compare_write_the_same_bytes_on_one_core_and_on_all_cores(tmp_path):
    # 250 test episodes make 28-30 decoder chunks, enough for two evaluation
    # threads on two cores or more; the pinned sets above are too small for
    # a second thread at any core count, and so is `train`'s held-out set
    assert main(["train", "--out-dir", str(tmp_path / "run"), "model.kind=cgnp", *TRAIN]) == 0
    checkpoint, data = tmp_path / "run" / "checkpoint.json", tmp_path / "test.jsonl"
    assert main(["generate", "--out", str(data), "data.test_episodes=250", "seed.master=7"]) == 0
    store, _ = load_checkpoint(checkpoint)
    m = sequential_evaluate(store, load_episodes(data))
    want = (f"nll_per_point={m.nll_per_point!r} nll_per_episode={m.nll_per_episode!r} "
            f"mse={m.mse!r} episode_count={m.episode_count}")
    compare_args = [arg for arg in COMPARE_ARGS if not arg.startswith("data.test_episodes=")]
    tables = []
    for one_core in (True, False):
        out = child_cli("eval", "--checkpoint", str(checkpoint), "--data", str(data),
                        "--out", str(tmp_path / f"m{one_core}.csv"), one_core=one_core)
        assert out.splitlines()[0] == want, one_core  # the sequential oracle's bits
        table = tmp_path / f"one_core{one_core}" / "table.csv"
        table.parent.mkdir()
        child_cli("compare", "--out", str(table), *compare_args, "data.test_episodes=250", one_core=one_core)
        tables.append({name: sha256(table.parent / name) for name in COMPARE})
    assert sha256(tmp_path / "mTrue.csv") == sha256(tmp_path / "mFalse.csv")
    assert tables[0] == tables[1]


@pytest.mark.parametrize("kind", sorted(TRAIN_OUTPUTS))
def test_train_outputs_match_pinned_digests(tmp_path, kind):
    run = tmp_path / "run"
    assert main(["train", "--out-dir", str(run), f"model.kind={kind}"] + TRAIN) == 0
    assert {path.name: sha256(path) for path in run.iterdir()} == TRAIN_OUTPUTS[kind]


@pytest.mark.parametrize("kind", sorted(PLOT_AND_EVAL))
def test_plot_and_eval_outputs_match_pinned_digests(tmp_path, capsys, kind):
    plot_digest, eval_record = PLOT_AND_EVAL[kind]
    data = tmp_path / "test.jsonl"
    generate(data, 7)
    assert main(["train", "--out-dir", str(tmp_path / "run"), f"model.kind={kind}"] + TRAIN) == 0
    ckpt = str(tmp_path / "run" / "checkpoint.json")
    out = tmp_path / "fit.csv"
    assert main(["plot", "--checkpoint", ckpt, "--data", str(data), "--index", "13", "--out", str(out)]) == 0
    assert sha256(out) == plot_digest
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--data", str(data), "--out", str(tmp_path / "m.csv")]) == 0
    record = capsys.readouterr().out.splitlines()[0]
    assert record == eval_record


def test_compare_tables_match_pinned_digests(tmp_path):
    assert main(["compare", "--out", str(tmp_path / "table.csv"), *COMPARE_ARGS]) == 0
    assert {name: sha256(tmp_path / name) for name in COMPARE} == COMPARE
