"""Reference ops the autodiff layer is held to.

`matmul`, `add` and `add_rowvec` are the unfused linear-algebra ops, one
taped op each, as they were before every linear map in the models ran
through `autodiff.affine`. They are the oracle `affine` must match, and the
building blocks of the edge-list convolution in `graph_oracle.py` and of
the test compositions.

`topo_order` and `reference_backward` are the depth-first walk `backward`
used before it ran the ops newest first by creation number: every node
reachable from the output, parents before children, with an `id()` seen
set, then each op's rule in the reverse of that order. The tape-size pins
count its nodes, and `backward` must give the same gradients.

`reference_batch_norm` is the train/eval batch norm written with
`np.mean`/`np.var`, centring the input twice, as the op was before its
statistics were computed in one pass. `autodiff.batch_norm` must match it
exactly: output, running statistics and every gradient.
"""

from __future__ import annotations

import numpy as np

from cgnp.autodiff import BatchNormState, Tensor, _accumulate, _as_tensor


def topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def reference_backward(out: Tensor, g=None) -> None:
    """Backpropagate the upstream gradient g from out (ones by default, as
    `backward` seeds a scalar loss)."""
    _accumulate(out, np.ones_like(out.value) if g is None else g)
    for node in reversed(topo_order(out)):
        if node._vjp is not None:
            node._vjp(node.grad)


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


def matmul(x, w) -> Tensor:
    x, w = _as_tensor(x), _as_tensor(w)
    if x.value.shape[1] != w.value.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {x.shape} @ {w.shape}")

    def vjp(g):
        _accumulate(x, g @ w.value.T)
        _accumulate(w, x.value.T @ g)

    return Tensor(x.value @ w.value, (x, w), vjp)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def vjp(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Tensor(a.value + b.value, (a, b), vjp)


def add_rowvec(x, b) -> Tensor:
    """x + b with b a (1, d) row vector broadcast over rows."""
    x, b = _as_tensor(x), _as_tensor(b)
    if b.value.shape != (1, x.value.shape[1]):
        raise ValueError(f"row vector shape {b.shape} does not match {x.shape}")

    def vjp(g):
        _accumulate(x, g)
        _accumulate(b, g.sum(axis=0, keepdims=True))

    return Tensor(x.value + b.value, (x, b), vjp)
