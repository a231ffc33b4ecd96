"""Reference batch norm the single-pass statistics are held to.

`reference_batch_norm` is the train/eval batch norm written with
`np.mean`/`np.var`, centring the input twice, as the op was before its
statistics were computed in one pass. `autodiff.batch_norm` must match it
exactly: output, running statistics and every gradient.
"""

from __future__ import annotations

import numpy as np

from cgnp.autodiff import BatchNormState, Tensor, _accumulate, _as_tensor


def reference_batch_norm(x, state: BatchNormState, train: bool) -> Tensor:
    x = _as_tensor(x)
    n = x.value.shape[0]
    gamma, beta = state.gamma, state.beta
    if train:
        mean = x.value.mean(axis=0, keepdims=True)
        var = x.value.var(axis=0, keepdims=True)  # biased: divide by n
        inv_std = 1.0 / np.sqrt(var + state.eps)
        xhat = (x.value - mean) * inv_std
        m = state.momentum
        state.running_mean = m * state.running_mean + (1.0 - m) * mean
        state.running_var = m * state.running_var + (1.0 - m) * var

        def vjp(g):
            _accumulate(beta, g.sum(axis=0, keepdims=True))
            _accumulate(gamma, (g * xhat).sum(axis=0, keepdims=True))
            gx = g * gamma.value
            _accumulate(x, (inv_std / n) * (
                n * gx
                - gx.sum(axis=0, keepdims=True)
                - xhat * (gx * xhat).sum(axis=0, keepdims=True)
            ))

    else:
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = (x.value - state.running_mean) * inv_std

        def vjp(g):
            _accumulate(beta, g.sum(axis=0, keepdims=True))
            _accumulate(gamma, (g * xhat).sum(axis=0, keepdims=True))
            _accumulate(x, g * (gamma.value * inv_std))

    return Tensor(gamma.value * xhat + beta.value, (x, gamma, beta), vjp)
