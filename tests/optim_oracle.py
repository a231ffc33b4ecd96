"""Reference Adam the packed update is held to.

`DictAdamState`/`dict_adam_step` keep one moment array per parameter name
and update the parameters one by one, as the optimizer did before it
packed them into flat buffers. `optim.adam_step` must reproduce their
trajectories bit for bit.
"""

from __future__ import annotations

import numpy as np


class DictAdamState:
    """First/second-moment accumulators keyed by parameter name."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = float(lr), float(beta1), float(beta2), float(eps)
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}


def dict_adam_step(params, state: DictAdamState) -> None:
    """One bias-corrected Adam update, parameter by parameter."""
    state.t += 1
    t = state.t
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for p in params:
        g = p.grad
        m = state.m[p.name] = state.beta1 * state.m[p.name] + (1.0 - state.beta1) * g
        v = state.v[p.name] = state.beta2 * state.v[p.name] + (1.0 - state.beta2) * g * g
        p.value -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
