"""Pinned bytes of the command-line outputs that must not drift.

`cgnp generate` files, one `cgnp plot` fit curve and the two tables of a
small `cgnp compare` are compared against sha256 digests taken once, and the
`cgnp eval` record against its text, so a refactor of the episode,
training, evaluation or plotting path that changes a single byte fails here (two runs merely agreeing with each other is
checked elsewhere). Re-pin only together with a note of why the bytes
changed.

Last re-pinned when the test grid's kernel came to be factored column by
column, so that `generate` writes the same bytes at any BLAS thread count
(grid values moved by at most 4.3e-10), and sums over rows in the tape
became products with a row of ones (the fitted mu and sigma moved by at
most 8.4e-11, the eval record by at most 3.9e-11 relative).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cgnp
from cgnp.cli import main

GENERATE = {
    0: "1e465bc2d3996e171f515911fe7537beb6ed19b71dff7d1c5228e94f581e5367",
    7: "127430fde9f79a7207aa3ffcbf9c285c4b9aaeae58062e11b51a64a1f71f8ef2",
}
# per model kind: (digest of the index-13 fit curve, first line of the eval record)
PLOT_AND_EVAL = {
    "cgnp": (
        "07b7275bae6289327faa439e5456cc98894b81b227d30beb7326331670d99afb",
        "nll_per_point=1.5452543659739102 nll_per_episode=607.8258048558375 mse=1.0748526085334171 episode_count=40",
    ),
    "cnp": (
        "eac0ea7fc760b6de0749b06b25178e73e8fe4b0120ff8e3e63197f0d6527473d",
        "nll_per_point=1.4928515614757074 nll_per_episode=587.2131617064695 mse=1.038168141734578 episode_count=40",
    ),
}
# the compare table's header holds the shared test set's digest, so it pins that file too
COMPARE = {
    "table.csv": "ff0814b573ee424fe4580f8357912020e304544e54ae531b0ff27a5970ca91f6",
    "table_seeds.csv": "f2ca55a4e6093d86ae1947cdd6b03b28d23c28df7f841140e5de2719dddf65d4",
}
TRAIN = ["train.batches=20", "train.batch_size=8", "train.eval_every=0", "seed.init=2"]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(path, seed: int) -> None:
    assert main(["generate", "--out", str(path), "data.test_episodes=40", f"seed.master={seed}"]) == 0


@pytest.mark.parametrize("seed", sorted(GENERATE))
def test_generate_output_matches_pinned_digest(tmp_path, seed):
    generate(tmp_path / "test.jsonl", seed)
    assert sha256(tmp_path / "test.jsonl") == GENERATE[seed]


def test_generate_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    src = str(Path(cgnp.__file__).resolve().parents[1])  # the child imports the package under test
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.jsonl"
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run(
            [sys.executable, "-m", "cgnp", "generate", "--out", str(out), "data.test_episodes=40", "seed.master=0"],
            env=env, check=True, capture_output=True, timeout=120,
        )
        digests.append(sha256(out))
    assert digests == [GENERATE[0], GENERATE[0]]


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
    argv = ["compare", "--seeds", "2", "--out", str(tmp_path / "table.csv"), "train.batches=30",
            "train.batch_size=8", "train.eval_every=10", "data.test_episodes=5"]
    assert main(argv) == 0
    assert {name: sha256(tmp_path / name) for name in COMPARE} == COMPARE
