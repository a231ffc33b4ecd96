"""Reverse-mode autodiff over dense float64 matrices.

Everything the models train with lives here: a small taped ``Tensor`` type,
the layer ops (``affine``, x @ w + b, and ``block``, a whole hidden layer:
that map, batch norm and a ReLU; each one taped op), the layout and
per-episode pooling ops, ``neighbor_mean`` (the graph convolution's mean of
message inputs over a batched neighbor mask, as one op), and the decoder's
(n, 2) Gaussian head, which `gaussian_head` maps to (mu, sigma) and
`gaussian_nll` scores as one op.
Values are strictly 2-D float64 arrays; row vectors (biases, batch-norm
scale/shift) have shape ``(1, d)``.

A raw array, not a ``Tensor``, given as an input of ``affine``, ``block``,
``concat_cols`` or ``neighbor_mean`` is a constant: it is no node of the
tape, and no gradient is computed for it or accumulated into it. The
models pass their episode data so. ``concat_cols`` and ``neighbor_mean``
of constants alone return their value, a constant too, so that no op of
the tape lacks a ``Tensor`` input.

Every sum over rows (bias and batch-norm gradients, batch statistics, the
per-episode pool and its backward) goes through ``_block_sums``: one
product of a cached row of ones with the rows, which for the narrow
matrices here is several times faster than ``sum(axis=0)`` and agrees with
it to rounding.

``backward`` runs the ops newest first, by creation number: an op's inputs
always exist before its output, so when an op's turn comes every consumer
of its output has already passed its gradient on. Gradient buffers of
intermediate tensors are allocated on the first accumulation, so a forward
pass that is never differentiated (evaluation) allocates none; parameters
keep an eager zero buffer for the optimizer. Inside ``no_grad``
(evaluation) an op's output keeps neither its parents nor its backward
closure, so each intermediate is freed once the next op has used it.
Gradients are exact analytic rules per op. The test suite holds every op,
and random compositions of them, to a central finite-difference oracle.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "BatchNormState",
    "backward",
    "no_grad",
    "affine",
    "block",
    "gaussian_head",
    "gaussian_nll",
    "nll_terms",
    "concat_cols",
    "block_mean",
    "repeat_rows",
    "neighbor_mean",
]


_creation = itertools.count()  # shared by every tape: backward uses only the order
_taping = ContextVar("taping", default=True)  # False inside no_grad


class Tensor:
    """A node in the reverse-mode graph: a 2-D float64 value and its gradient.

    Leaves are built directly from arrays; an op returns its output built
    complete, with its parents and a closure that routes the output gradient
    back to them (neither is kept inside ``no_grad``). Tensors are numbered
    in creation order. ``value`` is treated as immutable once created (ops
    never write into inputs). ``grad`` is None until a gradient first
    reaches the node.
    """

    __slots__ = ("value", "grad", "_parents", "_vjp", "_seq")

    def __init__(self, value, _parents=(), _vjp=None):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D matrices, got shape {arr.shape}")
        self.value = arr
        self.grad = None
        if _taping.get():  # constants among the inputs are no nodes
            self._parents, self._vjp = tuple(p for p in _parents if isinstance(p, Tensor)), _vjp
        else:
            self._parents, self._vjp = (), None
        self._seq = next(_creation)  # larger than every parent's

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape})"


class Parameter(Tensor):
    """A named trainable leaf; gradients accumulate into `grad`, the given
    buffer of the value's shape (a view of the store's) or a zeroed one."""

    __slots__ = ("name",)

    def __init__(self, name: str, value, grad: np.ndarray | None = None):
        super().__init__(value)
        self.grad = np.zeros_like(self.value) if grad is None else grad
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


@contextmanager
def no_grad():
    """Build no tape inside the block: ops compute their values as usual,
    but their outputs record no parents and no backward closure. The
    previous setting is restored however the block exits; other threads
    keep their own."""
    token = _taping.set(False)
    try:
        yield
    finally:
        _taping.reset(token)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _value(x) -> np.ndarray:
    """An op input's value; a raw array is a constant, checked as a Tensor's value is."""
    return _as_tensor(x).value


def _op(value: np.ndarray, inputs, vjp):
    """An op's output: a node of the tape, or, when no input is a Tensor,
    the value alone, a constant."""
    return Tensor(value, inputs, vjp) if any(isinstance(t, Tensor) for t in inputs) else value


def _accumulate(t, g: np.ndarray) -> None:
    """Add g into t.grad, allocating the buffer on the first gradient; a
    constant takes none."""
    if not isinstance(t, Tensor):
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)  # a copy: g may be shared
    else:
        t.grad += g


@lru_cache(maxsize=64)
def _ones_row(n: int) -> np.ndarray:
    ones = np.ones((1, n))
    ones.flags.writeable = False
    return ones


def _block_sums(a: np.ndarray, blocks: int = 1) -> np.ndarray:
    """Column sums of each of ``blocks`` equal runs of consecutive rows of
    ``a``, as a (blocks, d) array, from one product with a row of ones.
    numpy's own column reduction of a narrow C-ordered matrix runs a
    d-wide loop per row, several times slower at these shapes."""
    n, d = a.shape
    size = n // blocks if blocks else 0  # no blocks: no rows either
    return (_ones_row(size) @ a.reshape(blocks, size, d)).reshape(blocks, d)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into ``.grad`` for every reachable node.

    ``loss`` must hold exactly one element. Ops run newest first, so each
    output gradient is complete when its op's turn comes. Leaves that did
    not contribute keep whatever gradient they already had (zero for a
    parameter right after creation or after its store's ``grad`` buffer
    is cleared).
    """
    if loss.value.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    _accumulate(loss, np.ones_like(loss.value))
    pending = {loss._seq: loss} if loss._vjp is not None else {}
    while pending:
        node = pending.pop(max(pending))
        node._vjp(node.grad)
        for parent in node._parents:
            if parent._vjp is not None:
                pending[parent._seq] = parent


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


BN_MOMENTUM = 0.9
BN_EPS = 1e-5


@dataclass(eq=False)
class BatchNormState:
    """Scale/shift parameters plus running statistics for one layer, all
    four given by the caller (`models.init_params` passes views into the
    store's flat buffers).

    ``gamma``/``beta`` are trainable (1, d) parameters. The running
    statistics are (1, d) arrays, updated in place in train mode as
    ``running = BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch``; the
    batch variance is biased (divide by n).
    """

    gamma: Parameter
    beta: Parameter
    running_mean: np.ndarray
    running_var: np.ndarray

    @property
    def width(self) -> int:
        return self.gamma.value.shape[1]


def _affine(x, w, b):
    """x @ w + b of the inputs' values, checked for shape, and the rule
    that routes its gradient g back to them."""
    xv, wv, bv = _value(x), _value(w), _value(b)
    if xv.shape[1] != wv.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {xv.shape} @ {wv.shape}")
    if bv.shape != (1, wv.shape[1]):
        raise ValueError(f"row vector shape {bv.shape} does not match {(xv.shape[0], wv.shape[1])}")
    value = xv @ wv
    value += bv  # in place: no second (n, d) array allocated and freed per call

    def vjp(g):
        if isinstance(x, Tensor):  # no product for a constant
            _accumulate(x, g @ wv.T)
        _accumulate(w, xv.T @ g)
        _accumulate(b, _block_sums(g))

    return value, vjp


def affine(x, w, b) -> Tensor:
    """x @ w + b, the linear map of every layer, as one op."""
    value, vjp = _affine(x, w, b)
    return Tensor(value, (x, w, b), vjp)


def block(x, w, b, state: BatchNormState, train: bool, relu: bool = True) -> Tensor:
    """One hidden layer, relu(batch_norm(x @ w + b)), as one op; no ReLU
    when ``relu`` is False. Batch norm uses the rows' statistics in train
    mode (and updates the running ones), and in eval mode the running ones
    folded into one scale ``s = gamma * inv_std`` and one shift
    ``beta - running_mean * s``. The ReLU's subgradient at 0 is 0."""
    z, affine_vjp = _affine(x, w, b)
    n, d = z.shape
    if d != state.width:
        raise ValueError(f"batch norm width mismatch: input {d}, state {state.width}")
    gamma, beta = state.gamma, state.beta

    if train:
        if n < 2:
            raise ValueError(f"batch norm needs at least 2 rows in train mode, got {n}")
        mean = _block_sums(z) / n
        centred = z - mean
        var = _block_sums(centred * centred) / n  # biased
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = centred * inv_std
        value = gamma.value * xhat + beta.value
        m = BN_MOMENTUM
        state.running_mean[...] = m * state.running_mean + (1.0 - m) * mean
        state.running_var[...] = m * state.running_var + (1.0 - m) * var
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + BN_EPS)
        mean = state.running_mean.copy()  # a later train-mode call updates the state in place
        scale = gamma.value * inv_std
        value = z * scale
        value += beta.value - mean * scale
    if relu:
        np.maximum(value, 0.0, out=value)  # in place on the fresh batch-norm output

    def vjp(g):
        if relu:
            g = g * (value > 0.0)  # > 0 after the ReLU iff > 0 before it
        if train:
            # gamma is constant per column, so the sums of g and g * xhat
            # serve beta, gamma and the affine map alike
            gsum, gxhat = _block_sums(g), _block_sums(g * xhat)
            _accumulate(beta, gsum)
            _accumulate(gamma, gxhat)
            g = (gamma.value * inv_std / n) * (n * g - gsum - xhat * gxhat)
        else:
            _accumulate(beta, _block_sums(g))
            _accumulate(gamma, _block_sums(g * ((z - mean) * inv_std)))
            g = g * scale
        affine_vjp(g)

    return Tensor(value, (x, w, b, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def gaussian_head(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, sigma), each (n, 1), of an (n, 2) head: column 0, and the
    overflow-safe 0.1 + 0.9 * ln(1 + exp(s)) of column 1, >= 0.1 for finite s."""
    return values[:, 0:1], 0.1 + 0.9 * np.logaddexp(0.0, values[:, 1:2])


def nll_terms(y: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per-point Gaussian NLL 0.5*ln(2*pi*sigma^2) + (y - mu)^2 / (2*sigma^2),
    value-level (no tape)."""
    return 0.5 * np.log(2.0 * np.pi * sigma**2) + (y - mu) ** 2 / (2.0 * sigma**2)


def gaussian_nll(y: np.ndarray, head) -> Tensor:
    """Mean over rows of `nll_terms` of the constant (n, 1) targets y under
    `gaussian_head` of the (n, 2) head, as a (1, 1) scalar tensor; backward
    sends the head one (n, 2) gradient, column 1 through the softplus link."""
    head = _as_tensor(head)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (head.value.shape[0], 1) or head.value.shape[1] != 2:
        raise ValueError(f"nll shape mismatch: y {y.shape}, head {head.shape}")
    mu, sv = gaussian_head(head.value)
    resid = y - mu
    terms = nll_terms(y, mu, sv)
    count = terms.size

    def vjp(g):
        scale = g[0, 0] / count
        sig = 0.5 * (1.0 + np.tanh(0.5 * head.value[:, 1:2]))  # overflow-safe sigmoid
        grad = np.empty_like(head.value)
        grad[:, 0:1] = scale * (-resid / sv**2)
        grad[:, 1:2] = scale * (1.0 / sv - resid**2 / sv**3) * (0.9 * sig)
        _accumulate(head, grad)

    return Tensor([[terms.mean()]], (head,), vjp)


# ---------------------------------------------------------------------------
# layout, pooling and neighborhood ops (rows are stacked episode by episode)
# ---------------------------------------------------------------------------


def concat_cols(*blocks) -> Tensor | np.ndarray:
    """The blocks side by side, left to right, as one op (a constant array
    if every block is one); every block has the same number of rows."""
    values = [_value(t) for t in blocks]
    if any(v.shape[0] != values[0].shape[0] for v in values):
        raise ValueError(f"concat_cols row mismatch: {' vs '.join(str(v.shape) for v in values)}")

    def vjp(g):
        start = 0
        for t, v in zip(blocks, values):
            _accumulate(t, g[:, start:start + v.shape[1]])
            start += v.shape[1]

    return _op(np.concatenate(values, axis=1), blocks, vjp)


def block_mean(x, blocks: int) -> Tensor:
    """Column means of each of ``blocks`` equal runs of consecutive rows, as
    a (blocks, d) matrix (pooling per episode over stacked episodes)."""
    x = _as_tensor(x)
    n = x.value.shape[0]
    if blocks < 1 or n == 0 or n % blocks:
        raise ValueError(f"{n} rows do not split into {blocks} equal non-empty blocks")
    size = n // blocks

    def vjp(g):
        _accumulate(x, np.repeat(g / size, size, axis=0))

    return Tensor(_block_sums(x.value, blocks) / size, (x,), vjp)


def repeat_rows(x, times: int) -> Tensor:
    """Each row repeated ``times`` times in place (one latent row per target
    of its episode); backward sums each run of repeats."""
    x = _as_tensor(x)
    n = x.value.shape[0]
    if times < 1:
        raise ValueError(f"repeat count must be positive, got {times}")

    def vjp(g):
        _accumulate(x, _block_sums(g, n))

    return Tensor(np.repeat(x.value, times, axis=0), (x,), vjp)


def neighbor_mean(x, mask, rel, count, self_feats=()) -> Tensor | np.ndarray:
    """The mean of each output node's message inputs, as one op: x holds B
    blocks of N_in rows, mask has shape (B, N_out, N_in), and row o of
    block b is concat(mask[b] @ x_b, rel, *self_feats) / count, row by
    row. mask, rel and count are constants, and so is the result (an array)
    if x and every self block are; backward sends mask[b]^T @ g_b of the
    scaled gradient's first columns to x and each self block its own."""
    xv, self_values = _value(x), [_value(t) for t in self_feats]
    mask, rel = np.asarray(mask, dtype=np.float64), np.asarray(rel, dtype=np.float64)
    if mask.ndim != 3:
        raise ValueError(f"neighbor_mean needs a (B, N_out, N_in) mask, got shape {mask.shape}")
    b, n_out, n_in = mask.shape
    d = xv.shape[1]
    if xv.shape[0] != b * n_in:
        raise ValueError(f"neighbor_mean expects {b} x {n_in} input rows, got {xv.shape[0]}")
    rows, blocks, count = b * n_out, [rel, *self_values], np.asarray(count, dtype=np.float64)
    if count.shape != (rows,) or any(v.ndim != 2 or v.shape[0] != rows for v in blocks):
        shapes = ", ".join(str(v.shape) for v in (*blocks, count))
        raise ValueError(f"neighbor_mean row mismatch: {rows} rows of rel, self features and count expected, "
                         f"got {shapes}")
    scale = (1.0 / count)[:, None]
    value = np.concatenate([(mask @ xv.reshape(b, n_in, d)).reshape(rows, d), *blocks], axis=1)
    value *= scale  # in place on the fresh concatenation

    def vjp(g):
        g = g * scale
        if isinstance(x, Tensor):
            gx = np.ascontiguousarray(g[:, :d]).reshape(b, n_out, d)  # a strided view sums in another order
            _accumulate(x, (mask.transpose(0, 2, 1) @ gx).reshape(b * n_in, d))
        start = d + rel.shape[1]
        for t, v in zip(self_feats, self_values):
            _accumulate(t, g[:, start:start + v.shape[1]])
            start += v.shape[1]

    return _op(value, (x, *self_feats), vjp)
