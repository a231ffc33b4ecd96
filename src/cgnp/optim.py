"""Adam with bias correction over one packed parameter buffer.

`AdamState` takes over the storage of its parameters: their values and
gradients are copied once into two flat buffers, and each parameter's
``.value``/``.grad`` becomes a reshaped view into them. An update is then
a handful of vector ops over all parameters at once, elementwise the same
expressions as a per-parameter loop, so results are bit-identical to one.
The moments ``m``/``v`` stay readable by parameter name, as views into
their flat buffers.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .autodiff import Parameter

__all__ = ["AdamState", "adam_step", "zero_grads"]


class AdamState:
    """First/second-moment accumulators for a fixed set of parameters,
    which from construction on live in the state's flat buffers."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        params = list(params)
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.value = np.concatenate([p.value.ravel() for p in params])
        self.grad = np.concatenate([p.grad.ravel() for p in params])
        self.m_flat = np.zeros_like(self.value)
        self.v_flat = np.zeros_like(self.value)
        self.m, self.v = {}, {}
        start = 0
        for p in params:
            shape, stop = p.value.shape, start + p.value.size
            p.value = self.value[start:stop].reshape(shape)
            p.grad = self.grad[start:stop].reshape(shape)
            self.m[p.name] = self.m_flat[start:stop].reshape(shape)
            self.v[p.name] = self.v_flat[start:stop].reshape(shape)
            start = stop


def adam_step(state: AdamState) -> None:
    """One bias-corrected Adam update of every packed parameter.
    Gradients are left untouched."""
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    g, m, v = state.grad, state.m_flat, state.v_flat
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    state.value -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def zero_grads(params: Iterable[Parameter] | AdamState) -> None:
    """Zero the gradients of some parameters, or of all the parameters an
    `AdamState` packs in one fill."""
    if isinstance(params, AdamState):
        params.grad.fill(0.0)
        return
    for p in params:
        p.grad[...] = 0.0
