"""CNP and CGNP model assembly.

Both models share the same skeleton: a 3-block encoder maps each context
point to a D-dimensional feature, a mean pool reduces those features to one
latent row per episode, and a 2-block decoder turns concat(target x, latent)
into a per-target Gaussian head: one (n, 2) tensor of means and pre-link
scales, which `autodiff.gaussian_head` maps to (mu, sigma). Every hidden
block (enc1-3, dec1) is one `autodiff.block`: an affine map, batch norm and
a ReLU (none for enc3); dec2 is a plain `affine` head. The two kinds differ
only in a block's input: the features themselves for the CNP, and their
radius-graph message mean (`graph.bipartite_conv`) for the CGNP. The
episode data enter as raw arrays, constants that take no gradient.

The CGNP decoder's first block always carries a self term on
concat(target x, latent): targets have no y value to message with, and the
self term is what a target falls back to when its radius ball contains no
context. At radius 0 with distinct coordinates the convolutions collapse to
pointwise affine maps, so a CGNP store maps onto a CNP that computes the
identical function (the tests hold that identity).

Every block has one weight, `enc{k}.w`, `dec1.w` or `dec2.w` for both
kinds, whose rows follow the columns of the block's input. Every
parameter's name and shape is stated once, in `_layout`.
`init_params(cfg)` keeps `cfg` on the store (``store.cfg``), so the
forward, evaluation and checkpoints take the store alone, and lays the
parameters out in `_layout` order in two flat buffers,
``store.value`` and ``store.grad``, which Adam updates, and the batch-norm
running statistics, layer after layer, in two more, ``store.running_mean``
and ``store.running_var``; every parameter and statistic is a view into
them. The checkpoint copies ``value`` and the two statistics buffers
whole; `flat_sizes` counts the same table without allocating.

Every forward runs over one `EpisodeBatch`: B episodes that share
(N_c, N_t), as stacked (B, N_c) and (B, N_t) arrays. All points share one
matrix (so batch norm, while taping, pools its statistics across the
whole batch) while per-episode blocks keep neighborhoods and pooling
episode-local, and neighborhoods are built once per coordinate pair: one
`Neighborhood` over (x_c, x_c) serves all three encoder blocks, one over
(x_c, x_t) the decoder.
A single episode is a batch of one. The forward is two halves, `encode`
(encoder blocks and pool) and `decode`; `forward_tensors` runs one after
the other, and evaluation runs the encoder once per batch and the decoder
over chunks of its episodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import BatchNormState, Parameter, affine, block, block_mean, concat_cols, repeat_rows
from .gp import EpisodeBatch, _check_field
from .graph import bipartite_conv, radius_neighborhood
from .seeds import DOMAIN_INIT, derive_rng

__all__ = [
    "ModelConfig",
    "ParameterStore",
    "init_params",
    "flat_sizes",
    "encode",
    "decode",
    "forward_tensors",
]

ENCODER_DEPTH = 3


@dataclass(frozen=True)
class ModelConfig:
    kind: str  # "cnp" or "cgnp"
    latent_dim: int = 8
    radius: float = 0.7  # cgnp only; ignored for cnp
    init_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("cnp", "cgnp"):
            raise ValueError(f"kind must be 'cnp' or 'cgnp', got {self.kind!r}")
        _check_field(self, "latent_dim", (int,), 1, 512)  # the upper bound caps what a model allocates
        _check_field(self, "radius", (int, float), 0)
        _check_field(self, "init_seed", (int,), 0)


class ParameterStore:
    """Named parameter leaves plus per-layer batch-norm state, under the
    model config `cfg` that gives them their meaning. Every
    parameter's ``.value``/``.grad`` is a view into the store's flat
    ``value``/``grad`` buffers, and every layer's ``running_mean``/
    ``running_var`` a view into its flat ``running_mean``/``running_var``,
    all four laid out by `init_params` in `_layout` order."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
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
    the weight, the bias and (all but dec2) batch-norm gamma and beta.

    A CGNP weight has the CNP's rows plus a relative-position row under
    them in each encoder block, and in dec1 the neighbor rows (context
    features, relative position) above them."""
    d, extra = cfg.latent_dim, int(cfg.kind == "cgnp")

    def block(name, d_in):
        return [(f"{name}.w", (d_in, d)), (f"{name}.b", (1, d)), (f"{name}.bn.gamma", (1, d)),
                (f"{name}.bn.beta", (1, d))]

    layout = [p for k, d_in in enumerate((2, d, d), start=1) for p in block(f"enc{k}", d_in + extra)]
    return layout + block("dec1", (1 + d) * (1 + extra)) + [("dec2.w", (d, 2)), ("dec2.b", (1, 2))]


def init_params(cfg: ModelConfig) -> ParameterStore:
    """Fan-in-scaled uniform weights, zero biases, unit batch-norm state.

    Weights are drawn in `_layout` order, so a given init_seed always
    yields bit-identical stores. A weight's fan-in is its row count, but
    dec1's is one message's, 1 + d, for both kinds.
    """
    rng = derive_rng(cfg.init_seed, DOMAIN_INIT)
    store = ParameterStore(cfg)
    n_values, bn_width = flat_sizes(cfg)
    store.value, store.grad = np.empty(n_values), np.zeros(n_values)
    store.running_mean, store.running_var = np.zeros(bn_width), np.ones(bn_width)
    start = bn_start = 0
    for name, (rows, cols) in _layout(cfg):
        stop = start + rows * cols
        p = store.add(Parameter(name, store.value[start:stop].reshape(rows, cols),
                                store.grad[start:stop].reshape(rows, cols)))
        if name.endswith((".b", ".beta")):
            p.value.fill(0.0)
        elif name.endswith(".gamma"):
            p.value.fill(1.0)
        else:
            bound = 1.0 / np.sqrt(1 + cfg.latent_dim if name == "dec1.w" else rows)
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


def encode(x_c, y_c, store: ParameterStore):
    """The encoder half of the forward: context features, one row per
    context point, episode by episode, and their per-episode mean, one
    latent row per episode. x_c and y_c are (B, N_c) arrays."""
    cfg = store.cfg
    h = np.column_stack([x_c.ravel(), y_c.ravel()])
    if cfg.kind == "cgnp":
        nbhd = radius_neighborhood(x_c, x_c, cfg.radius)  # shared by all encoder blocks
    for k in range(1, ENCODER_DEPTH + 1):
        z = h if cfg.kind == "cnp" else bipartite_conv(nbhd, h)
        h = block(z, store[f"enc{k}.w"], store[f"enc{k}.b"], store.bn[f"enc{k}.bn"], relu=k < ENCODER_DEPTH)
    return h, block_mean(h, x_c.shape[0])


def decode(x_c, h, r, x_t, store: ParameterStore):
    """The decoder half of the forward: the (B * N_t, 2) head tensor, a mean
    and a pre-link scale per target, for x_t of shape (B, N_t), given
    `encode`'s context features h and latent rows r for the contexts at x_c
    of shape (B, N_c)."""
    own = (x_t.reshape(-1, 1), repeat_rows(r, x_t.shape[1]))
    if store.cfg.kind == "cnp":
        z = concat_cols(*own)
    else:
        z = bipartite_conv(radius_neighborhood(x_c, x_t, store.cfg.radius), h, own)
    h = block(z, store["dec1.w"], store["dec1.b"], store.bn["dec1.bn"])
    return affine(h, store["dec2.w"], store["dec2.b"])


def forward_tensors(batch: EpisodeBatch, store: ParameterStore):
    """Differentiable forward over one batch of episodes: `encode`, then
    `decode`, with batch norm's mode following the tape (`autodiff.block`).

    Returns the (B * N_t, 2) head tensor (see `decode`), rows in episode
    order: rows k * N_t .. (k + 1) * N_t - 1 belong to episode k. Episodes
    of different shapes go in separate batches (see `gp.bucket_episodes`).
    """
    if not isinstance(batch, EpisodeBatch):
        raise TypeError(f"forward_tensors takes an EpisodeBatch, got {type(batch).__name__}")
    h, r = encode(batch.x_c, batch.y_c, store)
    return decode(batch.x_c, h, r, batch.x_t, store)

