"""Tier-1 budgets of traced memory, in bytes.

tracemalloc sees the numpy arrays the program allocates and the Python
objects around them. After a warm-up pass, which fills the caches a first
pass fills (`autodiff._ones_row`), the traced peak of a training step
repeats to the byte, and that of a single-threaded `evaluate` to a few
bytes, where the resident set follows the heap's layout. So a change that
keeps an array alive longer, or adds one to a hot path, shows here.

The pins are the peaks of one training step (forward, backward, Adam) of
the CNP and of CGNP(0.7) on a 64-episode batch of the largest training
shape, N_c = N_t = 10, and of one `evaluate` of a fixed 100-episode test
set of each kind on one thread. Each holds within SLACK, both ways: re-pin
lower whenever the peak falls, and higher only with the reason in
CHANGES.md. The pins were taken with numpy 2.4.6 on CPython 3.11; like the
pinned digests, they may move under another version. tracemalloc slows
what it traces, so these tests measure bytes, never time.
"""

import gc
import tracemalloc

import numpy as np
import pytest

import cgnp.training as training
from cgnp.autodiff import backward
from cgnp.gp import EqKernelSpec, ProtocolConfig, make_test_set, make_train_batch
from cgnp.models import ModelConfig, init_params
from cgnp.optim import AdamState, adam_step

KERNEL = EqKernelSpec()
SLACK = 0.005
PINNED_ON = "numpy 2.4.6"
# batch 40 of the default protocol at master seed 0 has N_c = N_t = 10
BATCH_INDEX = 40
KINDS = [ModelConfig(kind="cnp"), ModelConfig(kind="cgnp", radius=0.7)]


def traced_peak(fn) -> int:
    """tracemalloc's peak, in bytes, over one call of fn."""
    assert not tracemalloc.is_tracing()
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_within_budget(peak: int, pinned: int) -> None:
    assert abs(peak - pinned) <= SLACK * pinned, (
        f"traced peak {peak} B, pinned {pinned} B ± {SLACK:.1%} on {PINNED_ON}; running numpy {np.__version__}"
    )


@pytest.mark.parametrize("cfg, pinned", zip(KINDS, [898_544, 1_312_552]), ids=["cnp", "cgnp"])
def test_training_step_traced_peak_budget(cfg, pinned):
    batch = make_train_batch(ProtocolConfig(), KERNEL, BATCH_INDEX)
    assert (len(batch), batch.n_context, batch.n_target) == (64, 10, 10)
    store = init_params(cfg)
    adam = AdamState(store, lr=1e-3)

    def step():
        backward(training.batch_loss(batch, store))
        adam_step(adam)
        store.grad.fill(0.0)

    step()
    assert_within_budget(traced_peak(step), pinned)


@pytest.mark.parametrize("cfg, pinned", zip(KINDS, [1_124_048, 1_516_244]), ids=["cnp", "cgnp"])
def test_single_threaded_evaluate_traced_peak_budget(cfg, pinned, monkeypatch):
    monkeypatch.setattr(training, "_usable_cores", lambda: 1)
    test_set = make_test_set(ProtocolConfig(test_episodes=100), KERNEL)
    store = init_params(cfg)
    training.evaluate(store, test_set)
    assert_within_budget(traced_peak(lambda: training.evaluate(store, test_set)), pinned)
