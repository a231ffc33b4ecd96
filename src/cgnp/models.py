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
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be at least 1, got {self.latent_dim}")
        if not self.radius >= 0.0:  # NaN fails too
            raise ValueError(f"radius must be non-negative, got {self.radius}")
        if self.init_seed < 0:
            raise ValueError(f"init_seed must be non-negative, got {self.init_seed}")


class ParameterStore:
    """Named parameter leaves plus per-layer batch-norm state."""

    def __init__(self):
        self.params: dict[str, Parameter] = {}
        self.bn: dict[str, BatchNormState] = {}

    def add(self, param: Parameter) -> Parameter:
        if param.name in self.params:
            raise ValueError(f"duplicate parameter {param.name!r}")
        self.params[param.name] = param
        return param

    def add_bn(self, state: BatchNormState) -> BatchNormState:
        self.bn[state.name] = state
        self.add(state.gamma)
        self.add(state.beta)
        return state

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def __getitem__(self, name: str) -> Parameter:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params


def _layer_dims(cfg: ModelConfig) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    d = cfg.latent_dim
    encoder = [(2, d), (d, d), (d, d)]
    decoder = [(1 + d, d), (d, 2)]
    return encoder, decoder


def init_params(cfg: ModelConfig) -> ParameterStore:
    """Fan-in-scaled uniform weights, zero biases, unit batch-norm state.

    Draw order is fixed (enc1..enc3 then dec1, w_nbr before w_self), so a
    given init_seed always yields bit-identical stores.
    """
    rng = derive_rng(cfg.init_seed, DOMAIN_INIT)
    store = ParameterStore()

    def draw(name: str, fan_in: int, fan_out: int) -> Parameter:
        bound = 1.0 / np.sqrt(fan_in)
        return store.add(Parameter(name, rng.uniform(-bound, bound, (fan_in, fan_out))))

    encoder, decoder = _layer_dims(cfg)
    for k, (d_in, d_out) in enumerate(encoder, start=1):
        if cfg.kind == "cnp":
            draw(f"enc{k}.w", d_in, d_out)
        else:
            draw(f"enc{k}.w_nbr", d_in + 1, d_out)  # +1 for the relative position
        store.add(Parameter(f"enc{k}.b", np.zeros((1, d_out))))
        store.add_bn(BatchNormState(f"enc{k}.bn", d_out))

    (d_in1, d_out1), (d_in2, d_out2) = decoder
    if cfg.kind == "cnp":
        draw("dec1.w", d_in1, d_out1)
    else:
        draw("dec1.w_nbr", cfg.latent_dim + 1, d_out1)  # neighbors carry encoded features
        draw("dec1.w_self", d_in1, d_out1)
    store.add(Parameter("dec1.b", np.zeros((1, d_out1))))
    store.add_bn(BatchNormState("dec1.bn", d_out1))
    draw("dec2.w", d_in2, d_out2)
    store.add(Parameter("dec2.b", np.zeros((1, d_out2))))
    return store


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
    for k in range(1, ENCODER_DEPTH + 1):
        out[f"enc{k}.w"].value[...] = store[f"enc{k}.w_nbr"].value[:-1, :]
        out[f"enc{k}.b"].value[...] = store[f"enc{k}.b"].value
    out["dec1.w"].value[...] = store["dec1.w_self"].value
    out["dec1.b"].value[...] = store["dec1.b"].value
    out["dec2.w"].value[...] = store["dec2.w"].value
    out["dec2.b"].value[...] = store["dec2.b"].value
    for name, src in store.bn.items():
        dst = out.bn[name]
        dst.gamma.value[...] = src.gamma.value
        dst.beta.value[...] = src.beta.value
        dst.running_mean = src.running_mean.copy()
        dst.running_var = src.running_var.copy()
        dst.momentum = src.momentum
        dst.eps = src.eps
    return out, cnp_cfg
