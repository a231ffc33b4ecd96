"""Reference implementations the dense graph code is held to.

The closed-ball neighbor lists are the plain pairwise predicate. The
convolution is the edge-list form: one message w_nbr @ concat(f_i, x_i - x_o)
per edge, summed per output node through a one-hot incidence matrix, plus
the optional self message, divided by the message count. It runs on one
episode at a time and builds on the autodiff ops, so gradients can be
compared too.
"""

from __future__ import annotations

import numpy as np

from cgnp.autodiff import Tensor, add, add_rowvec, concat_cols, matmul, row_scale


def brute_force_neighbors(coords_in, coords_out, radius):
    """O(n^2) oracle: the closed-ball distance predicate, nothing else."""
    return [
        [i for i, ci in enumerate(coords_in) if abs(ci - co) <= radius]
        for co in coords_out
    ]


def edge_list_conv(coords_in, coords_out, radius, feats_in, self_feats, params):
    """Mean of per-edge messages (and the self message) for one episode."""
    neighbors = brute_force_neighbors(coords_in, coords_out, radius)
    edge_in = np.array([i for nbrs in neighbors for i in nbrs], dtype=np.intp)
    edge_out = np.array([o for o, nbrs in enumerate(neighbors) for _ in nbrs], dtype=np.intp)
    delta = np.asarray(coords_in, dtype=np.float64)[edge_in] - np.asarray(coords_out, dtype=np.float64)[edge_out]
    incidence = np.zeros((len(neighbors), edge_in.size))
    incidence[edge_out, np.arange(edge_in.size)] = 1.0
    gather = np.eye(len(coords_in))[edge_in]  # one-hot rows: exact gathers

    messages = matmul(concat_cols(matmul(Tensor(gather), feats_in), Tensor(delta[:, None])), params.w_nbr)
    pooled = matmul(Tensor(incidence), messages)
    count = incidence.sum(axis=1)
    if params.w_self is not None:
        pooled = add(pooled, matmul(self_feats, params.w_self))
        count = count + 1.0
    elif np.any(count == 0.0):
        raise ValueError("isolated output node: empty neighborhood and no self term")
    return add_rowvec(row_scale(pooled, 1.0 / count), params.bias)
