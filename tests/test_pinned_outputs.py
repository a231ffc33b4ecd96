"""Pinned bytes of the command-line outputs that must not drift.

`cgnp generate` files and one `cgnp plot` fit curve are compared against
sha256 digests taken once, and the `cgnp eval` record against its text, so a
refactor of the episode, evaluation or plotting path that changes a
single byte fails here (two runs merely agreeing with each other is
checked elsewhere). Re-pin only together with a note of why the bytes
changed.
"""

import hashlib

import pytest

from cgnp.cli import main

GENERATE = {
    0: "c34d1e81a4528e7c6464969b28edd98b189ecef0439d656d9d4352d4e99a6081",
    7: "a0c92933f22fed794690c64042c45525d0c6a2a4a8eac532eacdd8f6bfbcc83d",
}
PLOT_INDEX_13 = "a43b0cfd288e7e96a2fb95938a974aa6e28ac33ffffc03bc5ede8a82d7a8046e"
EVAL_RECORD = "nll_per_point=1.5452543659409916 nll_per_episode=607.825804842889 mse=1.0748526084918282 episode_count=40"
TRAIN = ["model.kind=cgnp", "train.batches=20", "train.batch_size=8", "train.eval_every=0", "seed.init=2"]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(path, seed: int) -> None:
    assert main(["generate", "--out", str(path), "data.test_episodes=40", f"seed.master={seed}"]) == 0


@pytest.mark.parametrize("seed", sorted(GENERATE))
def test_generate_output_matches_pinned_digest(tmp_path, seed):
    generate(tmp_path / "test.jsonl", seed)
    assert sha256(tmp_path / "test.jsonl") == GENERATE[seed]


def test_plot_and_eval_outputs_match_pinned_digests(tmp_path, capsys):
    data = tmp_path / "test.jsonl"
    generate(data, 7)
    assert main(["train", "--out-dir", str(tmp_path / "run")] + TRAIN) == 0
    ckpt = str(tmp_path / "run" / "checkpoint.json")
    out = tmp_path / "fit.csv"
    assert main(["plot", "--checkpoint", ckpt, "--data", str(data), "--index", "13", "--out", str(out)]) == 0
    assert sha256(out) == PLOT_INDEX_13
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--data", str(data), "--out", str(tmp_path / "m.csv")]) == 0
    record = capsys.readouterr().out.splitlines()[0]
    assert record == EVAL_RECORD
