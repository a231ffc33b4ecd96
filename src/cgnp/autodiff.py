"""Reverse-mode autodiff over dense float64 matrices.

Everything the models train with lives here: a small taped ``Tensor`` type,
the layer primitives (affine, one taped op for x @ w + b and the only linear
map; relu; batch norm; the bounded-softplus scale head), the layout and
per-episode pooling ops, ``neighbor_mix`` (the batched mask-times-features
product behind the graph convolution), and the Gaussian negative
log-likelihood. Values are strictly 2-D float64 arrays; row vectors
(biases, batch-norm scale/shift) have shape ``(1, d)``.

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
    "relu",
    "bounded_softplus",
    "batch_norm",
    "gaussian_nll",
    "nll_terms",
    "concat_cols",
    "concat_rows",
    "slice_cols",
    "block_mean",
    "repeat_rows",
    "neighbor_mix",
    "row_scale",
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
        self._parents, self._vjp = (_parents, _vjp) if _taping.get() else ((), None)
        self._seq = next(_creation)  # larger than every parent's

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape})"


class Parameter(Tensor):
    """A named trainable leaf."""

    __slots__ = ("name",)

    def __init__(self, name: str, value):
        super().__init__(value)
        self.grad = np.zeros_like(self.value)
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


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad, allocating the buffer on the first gradient."""
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
# linear algebra
# ---------------------------------------------------------------------------


def affine(x, w, b) -> Tensor:
    """x @ w + b, the linear map inside every layer, as one op."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.value.shape[1] != w.value.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {x.shape} @ {w.shape}")
    if b.value.shape != (1, w.value.shape[1]):
        raise ValueError(f"row vector shape {b.shape} does not match {(x.shape[0], w.shape[1])}")
    value = x.value @ w.value
    value += b.value  # in place: no second (n, d) array allocated and freed per call

    def vjp(g):
        _accumulate(x, g @ w.value.T)
        _accumulate(w, x.value.T @ g)
        _accumulate(b, _block_sums(g))

    return Tensor(value, (x, w, b), vjp)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def relu(x) -> Tensor:
    x = _as_tensor(x)

    def vjp(g):
        # subgradient at exactly 0 is 0 (deterministic tie-break)
        _accumulate(x, g * (x.value > 0.0))

    return Tensor(np.maximum(x.value, 0.0), (x,), vjp)


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


# ---------------------------------------------------------------------------
# batch normalization
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


def batch_norm(x, state: BatchNormState, train: bool) -> Tensor:
    """Normalize each feature column, then scale/shift by gamma/beta.

    Train mode uses batch statistics over the rows (and updates the running
    statistics); eval mode uses the running statistics. The backward rule is
    exact through the batch statistics in train mode.
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
        xhat = (x.value - state.running_mean) * inv_std

        def vjp(g):
            _accumulate(beta, _block_sums(g))
            _accumulate(gamma, _block_sums(g * xhat))
            _accumulate(x, g * (gamma.value * inv_std))

    return Tensor(gamma.value * xhat + beta.value, (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def nll_terms(y: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per-point Gaussian NLL 0.5*ln(2*pi*sigma^2) + (y - mu)^2 / (2*sigma^2),
    value-level (no tape)."""
    return 0.5 * np.log(2.0 * np.pi * sigma**2) + (y - mu) ** 2 / (2.0 * sigma**2)


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


# ---------------------------------------------------------------------------
# layout, pooling and neighborhood ops (rows are stacked episode by episode)
# ---------------------------------------------------------------------------


def concat_cols(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.value.shape[0] != b.value.shape[0]:
        raise ValueError(f"concat_cols row mismatch: {a.shape} vs {b.shape}")
    da = a.value.shape[1]

    def vjp(g):
        _accumulate(a, g[:, :da])
        _accumulate(b, g[:, da:])

    return Tensor(np.concatenate([a.value, b.value], axis=1), (a, b), vjp)


def concat_rows(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.value.shape[1] != b.value.shape[1]:
        raise ValueError(f"concat_rows column mismatch: {a.shape} vs {b.shape}")
    na = a.value.shape[0]

    def vjp(g):
        _accumulate(a, g[:na])
        _accumulate(b, g[na:])

    return Tensor(np.concatenate([a.value, b.value], axis=0), (a, b), vjp)


def slice_cols(x, start: int, stop: int) -> Tensor:
    x = _as_tensor(x)

    def vjp(g):
        full = np.zeros_like(x.value)
        full[:, start:stop] = g
        _accumulate(x, full)

    return Tensor(x.value[:, start:stop], (x,), vjp)


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
