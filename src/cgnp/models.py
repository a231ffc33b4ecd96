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

Forward passes over many episodes run stacked: all points share one matrix
(so train-mode batch norm pools statistics across the whole batch) while
per-episode blocks keep neighborhoods and pooling episode-local. A stacked
forward takes episodes that share (N_c, N_t), as every training batch
does, so neighborhoods are one dense (B, N_out, N_in) mask per layer.
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
from .gp import Episode
from .graph import ConvLayerParams, bipartite_conv, mean_pool, radius_mask
from .seeds import DOMAIN_INIT, derive_rng

__all__ = [
    "ModelConfig",
    "ParameterStore",
    "GaussianPrediction",
    "init_params",
    "encode_context",
    "pool_latent",
    "decode_targets",
    "forward",
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
    sigma_floor: float = 0.1

    def __post_init__(self):
        if self.kind not in ("cnp", "cgnp"):
            raise ValueError(f"kind must be 'cnp' or 'cgnp', got {self.kind!r}")
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be at least 1, got {self.latent_dim}")
        if self.radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")
        if self.sigma_floor != 0.1:
            # the bounded-softplus head pins the floor at 0.1
            raise ValueError("sigma_floor is fixed at 0.1")


@dataclass(frozen=True)
class GaussianPrediction:
    """Per-target mean and standard deviation; sigma >= 0.1 by construction."""

    mu: np.ndarray
    sigma: np.ndarray


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


def _conv_params(store: ParameterStore, layer: str, with_self: bool) -> ConvLayerParams:
    return ConvLayerParams(
        w_nbr=store[f"{layer}.w_nbr"],
        w_self=store[f"{layer}.w_self"] if with_self else None,
        bias=store[f"{layer}.b"],
    )


def _encode(x_c, y_c, store, cfg, train):
    """Context features, one row per context point, episode by episode.

    x_c and y_c are (B, N_c) arrays."""
    h = Tensor(np.column_stack([x_c.ravel(), y_c.ravel()]))
    if cfg.kind == "cgnp":
        mask = radius_mask(x_c, x_c, cfg.radius)
    for k in range(1, ENCODER_DEPTH + 1):
        if cfg.kind == "cnp":
            z = affine(h, store[f"enc{k}.w"], store[f"enc{k}.b"])
        else:
            z = bipartite_conv(mask, x_c, x_c, h, None, _conv_params(store, f"enc{k}", with_self=False))
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
        mask = radius_mask(x_c, x_t, cfg.radius)
        z = bipartite_conv(mask, x_c, x_t, h_ctx, own, _conv_params(store, "dec1", with_self=True))
    z = relu(batch_norm(z, store.bn["dec1.bn"], train))
    out = affine(z, store["dec2.w"], store["dec2.b"])
    return slice_cols(out, 0, 1), bounded_softplus(slice_cols(out, 1, 2))


def forward_tensors(episodes, store: ParameterStore, cfg: ModelConfig, train: bool):
    """Differentiable stacked forward over episodes that share (N_c, N_t).

    Returns (mu, sigma) tensors of shape (total targets, 1), rows in episode
    order, plus the per-row episode ids. Raises ValueError when the episodes
    differ in shape; group them by (N_c, N_t) first (see
    `training.evaluate`).
    """
    episodes = list(episodes)
    shapes = sorted({(ep.n_context, ep.n_target) for ep in episodes})
    if len(shapes) != 1:
        raise ValueError(f"episodes in one forward must share (N_c, N_t), got {shapes}")
    x_c = np.stack([ep.x_c for ep in episodes])
    y_c = np.stack([ep.y_c for ep in episodes])
    x_t = np.stack([ep.x_t for ep in episodes])
    h = _encode(x_c, y_c, store, cfg, train)
    r = block_mean(h, len(episodes))
    mu, sigma = _decode(x_t, r, h, x_c, store, cfg, train)
    return mu, sigma, np.repeat(np.arange(len(episodes)), x_t.shape[1])


def forward(episode: Episode, store: ParameterStore, cfg: ModelConfig, train: bool = False) -> GaussianPrediction:
    """Encode context, pool the latent, decode every target of one episode."""
    mu, sigma, _ = forward_tensors([episode], store, cfg, train)
    return GaussianPrediction(mu=mu.value.ravel().copy(), sigma=sigma.value.ravel().copy())


# ---------------------------------------------------------------------------
# single-episode stage surfaces
# ---------------------------------------------------------------------------


def encode_context(x_c, y_c, store: ParameterStore, cfg: ModelConfig, train: bool = False) -> Tensor:
    """Per-context-point features, one row per context point."""
    x_c = np.asarray(x_c, dtype=np.float64).reshape(1, -1)
    y_c = np.asarray(y_c, dtype=np.float64).reshape(1, -1)
    return _encode(x_c, y_c, store, cfg, train)


def pool_latent(h: Tensor) -> Tensor:
    """Mean-pooled latent representation as a (1, D) row."""
    return mean_pool(h)


def decode_targets(x_t, r, h, x_c, store: ParameterStore, cfg: ModelConfig, train: bool = False) -> GaussianPrediction:
    """Per-target (mu, sigma) given the pooled latent and encoded context."""
    x_t = np.asarray(x_t, dtype=np.float64).reshape(1, -1)
    x_c = np.asarray(x_c, dtype=np.float64).reshape(1, -1)
    if not isinstance(r, Tensor):
        r = Tensor(np.asarray(r, dtype=np.float64).reshape(1, -1))
    mu, sigma = _decode(x_t, r, h, x_c, store, cfg, train)
    return GaussianPrediction(mu=mu.value.ravel().copy(), sigma=sigma.value.ravel().copy())


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
