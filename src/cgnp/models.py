"""CNP and CGNP model assembly.

Both models share the same skeleton: a 3-block encoder maps each context
point to a D-dimensional feature, a mean pool reduces those features to one
latent row per episode, and a 2-block decoder turns concat(target x, latent)
into a per-target (mu, sigma). Blocks are affine maps for the CNP and
radius-graph convolutions for the CGNP; batch norm is applied to each block
output before the ReLU (blocks enc1, enc2, dec1 — enc3 gets batch norm but
no ReLU, and dec2 is a plain affine head).

The CGNP decoder's first block always carries a self term on
concat(target x, latent): targets have no y value to message with, and the
self term is what a target falls back to when its radius ball contains no
context. At radius 0 with distinct coordinates the convolutions collapse to
pointwise affine maps, and `cnp_weights_from_cgnp` maps a CGNP store onto
the CNP that computes the identical function.

Every parameter's name and shape is stated once, in `_layout`.
`init_params` lays the parameters out in that order in two flat buffers,
``store.value`` and ``store.grad``, which Adam updates, and the batch-norm
running statistics, layer after layer, in two more, ``store.running_mean``
and ``store.running_var``; every parameter and statistic is a view into
them. The checkpoint copies ``value`` and the two statistics buffers
whole; `flat_sizes` counts the same table without allocating.

Every forward runs over one `EpisodeBatch`: B episodes that share
(N_c, N_t), as stacked (B, N_c) and (B, N_t) arrays. All points share one
matrix (so train-mode batch norm pools statistics across the whole batch)
while per-episode blocks keep neighborhoods and pooling episode-local, and
neighborhoods are built once per coordinate pair: one `Neighborhood` over
(x_c, x_c) serves all three encoder blocks, one over (x_c, x_t) the decoder.
A single episode is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import (
    BatchNormState,
    Parameter,
    Tensor,
    affine,
    batch_norm,
    block_mean,
    bounded_softplus,
    concat_cols,
    relu,
    repeat_rows,
    slice_cols,
)
from .gp import EpisodeBatch
from .graph import bipartite_conv, radius_neighborhood
from .seeds import DOMAIN_INIT, derive_rng

__all__ = [
    "ModelConfig",
    "ParameterStore",
    "init_params",
    "flat_sizes",
    "forward_tensors",
    "cnp_weights_from_cgnp",
]

ENCODER_DEPTH = 3
DECODER_DEPTH = 2


@dataclass(frozen=True)
class ModelConfig:
    kind: str  # "cnp" or "cgnp"
    latent_dim: int = 8
    radius: float = 0.7  # cgnp only; ignored for cnp
    init_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("cnp", "cgnp"):
            raise ValueError(f"kind must be 'cnp' or 'cgnp', got {self.kind!r}")
        # exact types, so that a bool (an int subclass) is rejected too
        for name, types in (("latent_dim", (int,)), ("init_seed", (int,)), ("radius", (int, float))):
            if type(getattr(self, name)) not in types:
                kinds = " or ".join(t.__name__ for t in types)
                raise ValueError(f"{name} must be an {kinds}, got {getattr(self, name)!r}")
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be at least 1, got {self.latent_dim}")
        if not self.radius >= 0.0:  # NaN fails too
            raise ValueError(f"radius must be non-negative, got {self.radius}")
        if self.init_seed < 0:
            raise ValueError(f"init_seed must be non-negative, got {self.init_seed}")


class ParameterStore:
    """Named parameter leaves plus per-layer batch-norm state. Every
    parameter's ``.value``/``.grad`` is a view into the store's flat
    ``value``/``grad`` buffers, and every layer's ``running_mean``/
    ``running_var`` a view into its flat ``running_mean``/``running_var``,
    all four laid out by `init_params` in `_layout` order."""

    def __init__(self):
        self.params: dict[str, Parameter] = {}
        self.bn: dict[str, BatchNormState] = {}
        self.value, self.grad = np.zeros(0), np.zeros(0)
        self.running_mean, self.running_var = np.zeros(0), np.zeros(0)

    def add(self, param: Parameter) -> Parameter:
        if param.name in self.params:
            raise ValueError(f"duplicate parameter {param.name!r}")
        self.params[param.name] = param
        return param

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def __getitem__(self, name: str) -> Parameter:
        return self.params[name]


def _layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, int]]]:
    """Every parameter's name and shape, in creation order: block by block,
    the weights, the bias and (all but dec2) batch-norm gamma and beta.

    The CGNP's weights are the CNP's plus a relative-position row in each
    encoder weight (w_nbr) and, in dec1, a neighbor weight over encoded
    context features beside the self term on concat(target x, latent)."""
    d, cgnp = cfg.latent_dim, cfg.kind == "cgnp"

    def bias_and_bn(block):
        return [(f"{block}.b", (1, d)), (f"{block}.bn.gamma", (1, d)), (f"{block}.bn.beta", (1, d))]

    layout = []
    for k, d_in in enumerate((2, d, d), start=1):
        weight = (f"enc{k}.w_nbr", (d_in + 1, d)) if cgnp else (f"enc{k}.w", (d_in, d))
        layout += [weight, *bias_and_bn(f"enc{k}")]
    layout += [("dec1.w_nbr", (d + 1, d)), ("dec1.w_self", (1 + d, d))] if cgnp else [("dec1.w", (1 + d, d))]
    return layout + bias_and_bn("dec1") + [("dec2.w", (d, 2)), ("dec2.b", (1, 2))]


def init_params(cfg: ModelConfig) -> ParameterStore:
    """Fan-in-scaled uniform weights, zero biases, unit batch-norm state.

    Weights are drawn in `_layout` order (enc1..enc3 then dec1, w_nbr
    before w_self), so a given init_seed always yields bit-identical stores.
    """
    rng = derive_rng(cfg.init_seed, DOMAIN_INIT)
    store = ParameterStore()
    n_values, bn_width = flat_sizes(cfg)
    store.value, store.grad = np.empty(n_values), np.zeros(n_values)
    store.running_mean, store.running_var = np.zeros(bn_width), np.ones(bn_width)
    start = bn_start = 0
    for name, (rows, cols) in _layout(cfg):
        stop = start + rows * cols
        p = store.add(Parameter(name, store.value[start:stop].reshape(rows, cols)))
        p.grad = store.grad[start:stop].reshape(rows, cols)
        if name.endswith((".b", ".beta")):
            p.value.fill(0.0)
        elif name.endswith(".gamma"):
            p.value.fill(1.0)
        else:
            bound = 1.0 / np.sqrt(rows)  # fan-in
            p.value[...] = rng.uniform(-bound, bound, (rows, cols))
        if name.endswith(".bn.beta"):  # gamma came just before
            layer, stats = name.removesuffix(".beta"), slice(bn_start, bn_start + cols)
            store.bn[layer] = BatchNormState(store[f"{layer}.gamma"], p, store.running_mean[stats].reshape(1, cols),
                                             store.running_var[stats].reshape(1, cols))
            bn_start += cols
        start = stop
    return store


def flat_sizes(cfg: ModelConfig) -> tuple[int, int]:
    """(number of parameter values, total batch-norm width) of
    `init_params(cfg)`, counted without allocating anything."""
    layout = _layout(cfg)
    bn_width = sum(cols for name, (_, cols) in layout if name.endswith(".gamma"))
    return sum(rows * cols for _, (rows, cols) in layout), bn_width


# ---------------------------------------------------------------------------
# stacked forward core
# ---------------------------------------------------------------------------


def _encode(x_c, y_c, store, cfg, train):
    """Context features, one row per context point, episode by episode.

    x_c and y_c are (B, N_c) arrays."""
    h = Tensor(np.column_stack([x_c.ravel(), y_c.ravel()]))
    if cfg.kind == "cgnp":
        nbhd = radius_neighborhood(x_c, x_c, cfg.radius)  # shared by all encoder blocks
    for k in range(1, ENCODER_DEPTH + 1):
        if cfg.kind == "cnp":
            z = affine(h, store[f"enc{k}.w"], store[f"enc{k}.b"])
        else:
            z = bipartite_conv(nbhd, h, store[f"enc{k}.w_nbr"], store[f"enc{k}.b"])
        z = batch_norm(z, store.bn[f"enc{k}.bn"], train)
        h = relu(z) if k < ENCODER_DEPTH else z
    return h


def _decode(x_t, r, h_ctx, x_c, store, cfg, train):
    """Per-target (mu, sigma) tensors for x_t of shape (B, N_t), given the
    (B, D) latent rows and the encoded context at x_c of shape (B, N_c)."""
    own = concat_cols(Tensor(x_t.reshape(-1, 1)), repeat_rows(r, x_t.shape[1]))
    if cfg.kind == "cnp":
        z = affine(own, store["dec1.w"], store["dec1.b"])
    else:
        nbhd = radius_neighborhood(x_c, x_t, cfg.radius)
        z = bipartite_conv(nbhd, h_ctx, store["dec1.w_nbr"], store["dec1.b"], (own, store["dec1.w_self"]))
    z = relu(batch_norm(z, store.bn["dec1.bn"], train))
    out = affine(z, store["dec2.w"], store["dec2.b"])
    return slice_cols(out, 0, 1), bounded_softplus(slice_cols(out, 1, 2))


def forward_tensors(batch: EpisodeBatch, store: ParameterStore, cfg: ModelConfig, train: bool):
    """Differentiable forward over one batch of episodes.

    Returns (mu, sigma) tensors of shape (B * N_t, 1), rows in episode
    order: rows k * N_t .. (k + 1) * N_t - 1 belong to episode k. Episodes
    of different shapes go in separate batches (see `gp.bucket_episodes`).
    """
    if not isinstance(batch, EpisodeBatch):
        raise TypeError(f"forward_tensors takes an EpisodeBatch, got {type(batch).__name__}")
    h = _encode(batch.x_c, batch.y_c, store, cfg, train)
    r = block_mean(h, len(batch))
    return _decode(batch.x_t, r, h, batch.x_c, store, cfg, train)


# ---------------------------------------------------------------------------
# radius-0 collapse
# ---------------------------------------------------------------------------


def cnp_weights_from_cgnp(store: ParameterStore, cfg: ModelConfig) -> tuple[ParameterStore, ModelConfig]:
    """The weight correspondence under which CGNP(radius=0) equals a CNP.

    Encoder blocks drop the relative-position row of w_nbr (that column of
    the input is identically zero at radius 0); the decoder's first affine
    map is the CGNP self term (at radius 0 no target coincides with a
    context, so neighborhoods are empty and the mean reduces to the self
    message alone). Biases and batch-norm state carry over unchanged.
    """
    if cfg.kind != "cgnp":
        raise ValueError("expected a cgnp config")
    cnp_cfg = replace(cfg, kind="cnp")
    out = init_params(cnp_cfg)
    source = {f"enc{k}.w": f"enc{k}.w_nbr" for k in range(1, ENCODER_DEPTH + 1)} | {"dec1.w": "dec1.w_self"}
    for name, p in out.params.items():
        p.value[...] = store[source.get(name, name)].value[: p.value.shape[0]]  # drops w_nbr's last row
    out.running_mean[:] = store.running_mean
    out.running_var[:] = store.running_var
    return out, cnp_cfg
