"""Radius neighborhoods over 1-D coordinates and the mean-reduction graph
convolution defined on them.

An input node i is a neighbor of an output node o iff |x_i - x_o| <= radius
(closed ball, so a node present on both sides is always its own neighbor,
including at radius 0). The convolution maps each neighbor's feature,
concatenated with the relative position x_i - x_o, through a shared weight
matrix, optionally adds a self term on the output node's own feature, and
takes the arithmetic mean of the resulting set.

A `Neighborhood` is built once per (coords_in, coords_out, radius) and serves
every layer on those coordinates: a dense 0/1 mask (B, N_out, N_in) for B
episodes that share (N_in, N_out), with each output's summed relative
position and neighbor count. The message map is linear, so the mean of the
messages is the mean of their inputs mapped once: neighbor sums
(`neighbor_mix`), then the self feature, divided by the message count,
through one `affine` with w_self stacked under w_nbr.
"""

from __future__ import annotations

from typing import NamedTuple

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
    "Neighborhood",
    "radius_neighborhood",
    "bipartite_conv",
]


class Neighborhood(NamedTuple):
    """Closed-ball neighborhoods of B episodes; output rows are stacked
    episode by episode (row b * N_out + o is output node o of episode b)."""

    mask: np.ndarray  # (B, N_out, N_in): 1.0 iff |x_i - x_o| <= radius
    rel: np.ndarray  # (B * N_out, 1): sum of x_i - x_o over the neighbors
    count: np.ndarray  # (B * N_out,): number of neighbors


def radius_neighborhood(coords_in, coords_out, radius: float) -> Neighborhood:
    """The neighborhood of every output node among the input nodes.

    Coordinates are (B, N) arrays, one row per episode, or 1-D for one
    episode (B = 1).
    """
    coords_in = np.atleast_2d(np.asarray(coords_in, dtype=np.float64))
    coords_out = np.atleast_2d(np.asarray(coords_out, dtype=np.float64))
    if not radius >= 0.0:  # NaN fails too
        raise ValueError(f"radius must be non-negative, got {radius}")
    if not (np.isfinite(coords_in).all() and np.isfinite(coords_out).all()):
        raise ValueError("coordinates must be finite")
    if coords_in.shape[0] != coords_out.shape[0]:
        raise ValueError(f"{coords_in.shape[0]} input episodes vs {coords_out.shape[0]} output episodes")
    delta = coords_in[:, None, :] - coords_out[:, :, None]
    mask = (np.abs(delta) <= radius).astype(np.float64)
    # summed relative positions, as masked sums of exact pairwise differences
    rel = (mask * delta).sum(axis=2).reshape(-1, 1)
    return Neighborhood(mask, rel, mask.sum(axis=2).ravel())


def bipartite_conv(
    nbhd: Neighborhood, feats_in: Tensor, w_nbr: Parameter, bias: Parameter, self_term=None
) -> Tensor:
    """Mean over {w_nbr @ concat(f_i, x_i - x_o) + bias} for i in the
    neighborhood of o, union {w_self @ self_feats[o] + bias} when
    ``self_term`` is (self_feats, w_self). Gradients flow to the weights,
    the bias, and the input and self features.

    Feature rows are stacked episode by episode (B * N_in input rows,
    B * N_out output rows); a weight of the wrong height fails in `affine`.
    """
    inputs = concat_cols(neighbor_mix(feats_in, nbhd.mask), Tensor(nbhd.rel))
    weights, count = w_nbr, nbhd.count
    if self_term is not None:
        self_feats, w_self = self_term
        inputs = concat_cols(inputs, self_feats)
        weights = concat_rows(weights, w_self)
        count = count + 1.0
    elif np.any(count == 0.0):
        raise ValueError("isolated output node: empty neighborhood and no self term")

    return affine(row_scale(inputs, 1.0 / count), weights, bias)
