"""Adam with bias correction over a store's flat parameter buffers.

A `ParameterStore` keeps every parameter's value and gradient in two flat
buffers (see `models._layout`), so an update is a handful of vector ops
over all parameters at once, elementwise the same expressions as a
per-parameter loop, and so bit-identical to one. The moments ``m``/``v``
are flat vectors in the same layout as ``value``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .autodiff import Parameter

__all__ = ["AdamState", "adam_step", "zero_grads"]


class AdamState:
    """First/second-moment accumulators over the ``value``/``grad`` arrays
    of a `ParameterStore`, or of a single `Parameter`."""

    def __init__(self, store, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.value, self.grad = store.value, store.grad
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)


def adam_step(state: AdamState) -> None:
    """One bias-corrected Adam update of every parameter in place.
    Gradients are left untouched."""
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    g, m, v = state.grad, state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    state.value -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def zero_grads(params: Iterable[Parameter]) -> None:
    """Zero the gradients of some parameters (a store clears all of its
    own with one ``store.grad.fill(0.0)``)."""
    for p in params:
        p.grad[...] = 0.0
