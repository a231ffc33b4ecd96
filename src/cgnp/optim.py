"""Adam with bias correction over a store's flat parameter buffers.

A `ParameterStore` keeps every parameter's value and gradient in two flat
buffers (see `models._layout`), so an update is a handful of vector ops
over all parameters at once, elementwise the same expressions as a
per-parameter loop, and so bit-identical to one. The moments ``m``/``v``
are flat vectors in the same layout as ``value``; with the step count
``t`` they are Adam's whole state, since the decay rates and epsilon are
the fixed constants BETA1, BETA2 and EPS (Kingma and Ba's defaults).
"""

from __future__ import annotations

import numpy as np

__all__ = ["AdamState", "adam_step"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamState:
    """First/second-moment accumulators over the ``value``/``grad`` arrays
    of a `ParameterStore`, or of a single `Parameter`."""

    def __init__(self, store, lr: float = 1e-3):
        self.lr = float(lr)
        self.t = 0
        self.value, self.grad = store.value, store.grad
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)


def adam_step(state: AdamState) -> None:
    """One bias-corrected Adam update of every parameter in place.
    Gradients are left untouched."""
    state.t += 1
    c1 = 1.0 - BETA1**state.t
    c2 = 1.0 - BETA2**state.t
    g, m, v = state.grad, state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    state.value -= state.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
