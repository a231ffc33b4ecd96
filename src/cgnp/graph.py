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
position and neighbor count. It is built input-major, as (B, N_in, N_out)
arrays, so every pass runs along the long output axis and the sums over
neighbors are products with a row of ones, as every sum over rows in
`autodiff` is; the mask is the transposed view. The message map is linear,
so the mean of the messages is the mean of their inputs mapped once:
`bipartite_conv` is one `neighbor_mean`, which puts the neighbor feature
sums, the relative-position sum and the self feature blocks side by side,
divided by the message count, and the layer's `autodiff.block` maps it
with its one weight, whose rows follow those columns.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, _block_sums, neighbor_mean

__all__ = [
    "Neighborhood",
    "radius_neighborhood",
    "bipartite_conv",
]


class Neighborhood(NamedTuple):
    """Closed-ball neighborhoods of B episodes; output rows are stacked
    episode by episode (row b * N_out + o is output node o of episode b).
    `mask` is the transposed view of an input-major (B, N_in, N_out) array."""

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
    # input-major (B, N_in, N_out): each pass runs along the long output
    # axis, and each sum over the inputs is one product with a row of ones
    delta = coords_in[:, :, None] - coords_out[:, None, :]
    mask = (np.abs(delta) <= radius).astype(np.float64)
    delta *= mask  # masked sums of exact pairwise differences
    b, n_in, n_out = delta.shape
    rel = _block_sums(delta.reshape(b * n_in, n_out), b).reshape(-1, 1)
    return Neighborhood(mask.transpose(0, 2, 1), rel, _block_sums(mask.reshape(b * n_in, n_out), b).ravel())


def bipartite_conv(nbhd: Neighborhood, feats_in, self_feats=()) -> Tensor | np.ndarray:
    """The input of a convolution layer, whose one weight, w_nbr with
    w_self stacked under it, and bias map it to the mean over
    {w_nbr @ concat(f_i, x_i - x_o) + bias} for i in the neighborhood of o,
    union {w_self @ concat(*self_feats)[o] + bias} when ``self_feats`` holds
    the output nodes' own feature blocks. Gradients flow to the input and
    self features that are Tensors; with none, the result is a constant
    array.

    Feature rows are stacked episode by episode (B * N_in input rows,
    B * N_out output rows).
    """
    if not self_feats and np.any(nbhd.count == 0.0):
        raise ValueError("isolated output node: empty neighborhood and no self term")
    count = nbhd.count + 1.0 if self_feats else nbhd.count
    return neighbor_mean(feats_in, nbhd.mask, nbhd.rel, count, self_feats)
