"""Radius neighborhoods over 1-D coordinates and the mean-reduction graph
convolution defined on them.

An input node i is a neighbor of an output node o iff |x_i - x_o| <= radius
(closed ball, so a node present on both sides is always its own neighbor,
including at radius 0). The convolution maps each neighbor's feature,
concatenated with the relative position x_i - x_o, through a shared weight
matrix, optionally adds a self term on the output node's own feature, and
takes the arithmetic mean of the resulting set.

Neighborhoods are dense 0/1 masks of shape (B, N_out, N_in), one block per
episode, for B episodes that share (N_in, N_out). The message map is
linear, so the mean of the messages is the mean of their inputs mapped once:
neighbor sums (`neighbor_mix`), then the self feature, divided by the
message count, through one `affine` with w_self stacked under w_nbr.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    affine,
    concat_cols,
    concat_rows,
    neighbor_mix,
    row_scale,
)

__all__ = [
    "ConvLayerParams",
    "radius_mask",
    "bipartite_conv",
]


def _blocks(coords) -> np.ndarray:
    """Coordinates as a (B, N) array; a 1-D array is one episode."""
    return np.atleast_2d(np.asarray(coords, dtype=np.float64))


def radius_mask(coords_in, coords_out, radius: float) -> np.ndarray:
    """Closed-ball neighborhoods as a float mask of shape (B, N_out, N_in):
    entry [b, o, i] is 1.0 iff |coords_in[b, i] - coords_out[b, o]| <= radius.

    Coordinates are (B, N) arrays, one row per episode, or 1-D for one
    episode (B = 1).
    """
    coords_in, coords_out = _blocks(coords_in), _blocks(coords_out)
    if radius < 0.0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if not (np.isfinite(coords_in).all() and np.isfinite(coords_out).all()):
        raise ValueError("coordinates must be finite")
    if coords_in.shape[0] != coords_out.shape[0]:
        raise ValueError(f"{coords_in.shape[0]} input episodes vs {coords_out.shape[0]} output episodes")
    within = np.abs(coords_in[:, None, :] - coords_out[:, :, None]) <= radius
    return within.astype(np.float64)


@dataclass
class ConvLayerParams:
    """Weights of one convolution layer.

    ``w_nbr`` acts on concat(neighbor feature, relative position); ``w_self``
    is present exactly when the layer has a self term and acts on the output
    node's own feature.
    """

    w_nbr: Parameter
    w_self: Parameter | None
    bias: Parameter


def bipartite_conv(
    mask: np.ndarray,
    coords_in,
    coords_out,
    feats_in: Tensor,
    self_feats: Tensor | None,
    params: ConvLayerParams,
) -> Tensor:
    """Mean over {w_nbr @ concat(f_i, x_i - x_o) + bias} for i in the
    neighborhood of o, union {w_self @ self_feats[o] + bias} when the layer
    has a self term. Gradients flow to both weight matrices, the bias, and
    the input features.

    ``mask`` comes from `radius_mask` on the same coordinates; feature rows
    are stacked episode by episode (B * N_in input rows, B * N_out output
    rows).
    """
    mask = np.asarray(mask, dtype=np.float64)
    b, n_out, n_in = mask.shape
    coords_in = _blocks(coords_in).reshape(b, n_in)
    coords_out = _blocks(coords_out).reshape(b, n_out)
    n_nbr = params.w_nbr.value.shape[0]
    if n_nbr != feats_in.value.shape[1] + 1:
        raise ValueError(
            f"w_nbr expects width {n_nbr - 1} + relative position, features have {feats_in.value.shape[1]}"
        )

    # summed relative positions, as masked sums of exact pairwise differences
    rel = (mask * (coords_in[:, None, :] - coords_out[:, :, None])).sum(axis=2)
    inputs = concat_cols(neighbor_mix(feats_in, mask), Tensor(rel.reshape(-1, 1)))
    weights = params.w_nbr
    denom = mask.sum(axis=2).ravel()

    if params.w_self is not None:
        if self_feats is None:
            raise ValueError("layer declares a self term but no self features were given")
        inputs = concat_cols(inputs, self_feats)
        weights = concat_rows(weights, params.w_self)
        denom = denom + 1.0
    elif np.any(denom == 0.0):
        raise ValueError("isolated output node: empty neighborhood and no self term")

    return affine(row_scale(inputs, 1.0 / denom), weights, params.bias)
