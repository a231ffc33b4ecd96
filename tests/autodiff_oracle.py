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

`relu` and `batch_norm` are the layer's nonlinearity and normalization as
the two taped ops they were before a hidden layer became one
`autodiff.block`: ``relu(batch_norm(affine(x, w, b), state, train=True))``,
or the same without the `relu`, must give the same value, running
statistics and gradients as a taped `block`, bit for bit, and with
``train=False`` the same value as `block` inside `no_grad`, whose running
statistics it leaves as they were.

`reference_batch_norm` is the train/eval batch norm written with
`np.mean`/`np.var`, centring the input twice, and a four-sum train-mode
backward, as the op was before its statistics were computed in one pass
and its sums over rows became products with a row of ones. Its eval mode
is the two-step gamma * ((x - running_mean) * inv_std) + beta the op
computed before it folded the running statistics into one scale and one
shift. `batch_norm` must match it exactly where it takes no sum (the
eval-mode input gradient), within four roundings of each term in the
eval-mode output, and to rounding everywhere else.

`slice_cols`, `bounded_softplus` and the three-input `gaussian_nll` are the
decoder head and its loss as four taped ops, as they were before the head
became one (n, 2) tensor scored by one `autodiff.gaussian_nll`:
``gaussian_nll(y, slice_cols(out, 0, 1), bounded_softplus(slice_cols(out, 1, 2)))``
must give the same loss and the same gradient of ``out``, bit for bit.

`neighbor_mix` and `row_scale` are the graph convolution's message mean
as it was taped before it became one `autodiff.neighbor_mean`:
``row_scale(concat_cols(neighbor_mix(x, mask), Tensor(rel), *self_feats), 1 / count)``
must give the same value and the same gradients of x and of each self
block, bit for bit. The edge-list convolution in `graph_oracle.py` uses
`row_scale` for its mean too.
"""

from __future__ import annotations

import numpy as np

from cgnp.autodiff import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNormState,
    Tensor,
    _accumulate,
    _as_tensor,
    _block_sums,
    nll_terms,
)


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


def relu(x) -> Tensor:
    x = _as_tensor(x)

    def vjp(g):
        # subgradient at exactly 0 is 0 (deterministic tie-break)
        _accumulate(x, g * (x.value > 0.0))

    return Tensor(np.maximum(x.value, 0.0), (x,), vjp)


def batch_norm(x, state: BatchNormState, train: bool) -> Tensor:
    """Normalize each feature column, then scale/shift by gamma/beta.

    Train mode uses batch statistics over the rows (and updates the running
    statistics); eval mode uses the running statistics, folded into one
    scale ``s = gamma * inv_std`` and one shift ``beta - running_mean * s``.
    The backward rule is exact through the batch statistics in train mode.
    """
    x = _as_tensor(x)
    n, d = x.value.shape
    if d != state.width:
        raise ValueError(f"batch norm width mismatch: input {d}, state {state.width}")
    gamma, beta = state.gamma, state.beta

    if train:
        if n < 2:
            raise ValueError(f"batch norm needs at least 2 rows in train mode, got {n}")
        mean = _block_sums(x.value) / n
        centred = x.value - mean
        var = _block_sums(centred * centred) / n  # biased
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = centred * inv_std
        value = gamma.value * xhat + beta.value
        m = BN_MOMENTUM
        state.running_mean[...] = m * state.running_mean + (1.0 - m) * mean
        state.running_var[...] = m * state.running_var + (1.0 - m) * var

        def vjp(g):
            # gamma is constant per column, so the sums of g and g * xhat
            # serve beta, gamma and x alike
            gsum, gxhat = _block_sums(g), _block_sums(g * xhat)
            _accumulate(beta, gsum)
            _accumulate(gamma, gxhat)
            _accumulate(x, (gamma.value * inv_std / n) * (n * g - gsum - xhat * gxhat))

    else:
        inv_std = 1.0 / np.sqrt(state.running_var + BN_EPS)
        mean = state.running_mean.copy()  # a later train-mode call updates the state in place
        scale = gamma.value * inv_std
        value = x.value * scale
        value += beta.value - mean * scale

        def vjp(g):
            _accumulate(beta, _block_sums(g))
            _accumulate(gamma, _block_sums(g * ((x.value - mean) * inv_std)))
            _accumulate(x, g * scale)

    return Tensor(value, (x, gamma, beta), vjp)


def reference_batch_norm(x, state: BatchNormState, train: bool) -> Tensor:
    x = _as_tensor(x)
    n = x.value.shape[0]
    gamma, beta = state.gamma, state.beta
    if train:
        mean = x.value.mean(axis=0, keepdims=True)
        var = x.value.var(axis=0, keepdims=True)  # biased: divide by n
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x.value - mean) * inv_std
        m = BN_MOMENTUM
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
        inv_std = 1.0 / np.sqrt(state.running_var + BN_EPS)
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


def slice_cols(x, start: int, stop: int) -> Tensor:
    x = _as_tensor(x)

    def vjp(g):
        full = np.zeros_like(x.value)
        full[:, start:stop] = g
        _accumulate(x, full)

    return Tensor(x.value[:, start:stop], (x,), vjp)


def bounded_softplus(s) -> Tensor:
    """Scale head 0.1 + 0.9 * ln(1 + exp(s)), overflow-safe for large |s|.

    Output is >= 0.1 for every finite input and strictly increasing in s,
    which keeps predicted standard deviations off zero.
    """
    s = _as_tensor(s)

    def vjp(g):
        sig = 0.5 * (1.0 + np.tanh(0.5 * s.value))  # overflow-safe sigmoid
        _accumulate(s, g * (0.9 * sig))

    return Tensor(0.1 + 0.9 * np.logaddexp(0.0, s.value), (s,), vjp)


def gaussian_nll(y, mu, sigma) -> Tensor:
    """Mean over entries of `nll_terms`, as a (1, 1) scalar tensor.

    Raises on any non-positive sigma.
    """
    y, mu, sigma = _as_tensor(y), _as_tensor(mu), _as_tensor(sigma)
    if not (y.shape == mu.shape == sigma.shape):
        raise ValueError(f"nll shape mismatch: y {y.shape}, mu {mu.shape}, sigma {sigma.shape}")
    sv = sigma.value
    if np.any(sv <= 0.0):
        raise ValueError("gaussian_nll requires strictly positive sigma")
    resid = y.value - mu.value
    terms = nll_terms(y.value, mu.value, sv)
    count = terms.size

    def vjp(g):
        scale = g[0, 0] / count
        _accumulate(mu, scale * (-resid / sv**2))
        _accumulate(y, scale * (resid / sv**2))
        _accumulate(sigma, scale * (1.0 / sv - resid**2 / sv**3))

    return Tensor([[terms.mean()]], (y, mu, sigma), vjp)


def neighbor_mix(x, mask) -> Tensor:
    """Per-episode mask products: x holds B blocks of N_in rows, mask has
    shape (B, N_out, N_in), and output block b is mask[b] @ x_b, so row o of
    block b sums the rows of x_b that mask[b, o] selects (weighted by the
    mask entries). The mask is a constant; backward is mask[b]^T @ g_b."""
    x = _as_tensor(x)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 3:
        raise ValueError(f"neighbor_mix needs a (B, N_out, N_in) mask, got shape {mask.shape}")
    b, n_out, n_in = mask.shape
    d = x.value.shape[1]
    if x.value.shape[0] != b * n_in:
        raise ValueError(f"neighbor_mix expects {b} x {n_in} input rows, got {x.value.shape[0]}")

    def vjp(g):
        _accumulate(x, (mask.transpose(0, 2, 1) @ g.reshape(b, n_out, d)).reshape(b * n_in, d))

    return Tensor((mask @ x.value.reshape(b, n_in, d)).reshape(b * n_out, d), (x,), vjp)


def row_scale(x, scale) -> Tensor:
    """Multiply row i by the constant scale[i] (no gradient for the scales)."""
    x = _as_tensor(x)
    scale = np.asarray(scale, dtype=np.float64)
    if scale.shape != (x.value.shape[0],):
        raise ValueError("row_scale needs one factor per row")

    def vjp(g):
        _accumulate(x, g * scale[:, None])

    return Tensor(x.value * scale[:, None], (x,), vjp)
