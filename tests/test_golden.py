"""Golden fingerprint: short fixed-seed training runs pinned to stored numbers.

Each variant trains 30 batches of 64 at fixed seeds and is scored on 16
held-out grid episodes. The loss of every batch and the final held-out
metrics must match `golden_fingerprint.json` to rtol 1e-9, so a rewrite of a
numeric path that changes results beyond rounding fails here. Rounding-level
drift (reordered sums, aggregate-then-transform) stays near 1e-12.

Re-pin only together with a note of the measured drift:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from cgnp.gp import EqKernelSpec, ProtocolConfig
from cgnp.models import ModelConfig
from cgnp.training import TrainConfig, train

GOLDEN = Path(__file__).with_name("golden_fingerprint.json")
RTOL = 1e-9
VARIANTS = {
    "cnp": ModelConfig(kind="cnp", init_seed=3),
    "cgnp": ModelConfig(kind="cgnp", radius=0.7, init_seed=3),
    "cgnp_edgeless": ModelConfig(kind="cgnp", radius=0.0, init_seed=3),
}
BASE = TrainConfig(
    model=VARIANTS["cnp"],
    kernel=EqKernelSpec(),
    protocol=ProtocolConfig(train_batches=30, master_seed=5),
    eval_every=0,
    heldout_episodes=16,
)


def fingerprint(label: str) -> dict:
    _, report = train(replace(BASE, model=VARIANTS[label]))
    return {"losses": report.losses.tolist(), "final_metrics": asdict(report.final_metrics)}


@pytest.mark.parametrize("label", sorted(VARIANTS))
def test_golden_fingerprint(label):
    want = json.loads(GOLDEN.read_text())[label]
    got = fingerprint(label)
    np.testing.assert_allclose(got["losses"], want["losses"], rtol=RTOL, atol=0.0)
    for key, value in want["final_metrics"].items():
        np.testing.assert_allclose(got["final_metrics"][key], value, rtol=RTOL, atol=0.0, err_msg=key)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({label: fingerprint(label) for label in sorted(VARIANTS)}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
