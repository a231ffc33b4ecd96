"""Radius-neighborhood graphs over 1-D points and the graph convolution.

A bipartite radius graph connects input points to output points whenever
they are within distance rho; `radius_neighborhood` stores it as a dense
0/1 mask with one row per output point, next to each output point's summed
relative position and neighbor count. The convolution averages, per output
node, a learned map of each neighbor's feature concatenated with its
relative position: `bipartite_conv` takes the mean of the inputs, and the
layer's affine map (`affine` here, inside `block` in the models) maps it.
At rho = 0 a node only sees itself and the convolution collapses to a
plain affine map.
"""

import numpy as np

from cgnp import Parameter, Tensor, affine, bipartite_conv, radius_neighborhood
from cgnp.autodiff import block_mean

coords_in = np.array([-1.6, -0.9, -0.2, 0.0, 0.5, 1.4])
coords_out = np.array([-1.0, 0.2, 1.8])

for rho in (0.0, 0.3, 0.7, 2.0):
    mask = radius_neighborhood(coords_in, coords_out, rho).mask[0]  # one episode: (N_out, N_in)
    print(f"rho = {rho}:")
    for o, row in enumerate(mask):
        nbrs = np.flatnonzero(row)
        shown = coords_in[nbrs] if len(nbrs) else "(empty)"
        print(f"  out node at {coords_out[o]:+.1f} sees {shown}")

# the worked convolution example: output node at 0.2 with neighbors at
# 0.0 and 0.5, scalar features 1 and 3, weights summing (feature, dx)
x_in, x_out = np.array([0.0, 0.5]), np.array([0.2])
nbhd = radius_neighborhood(x_in, x_out, 0.7)
out = affine(bipartite_conv(nbhd, Tensor([[1.0], [3.0]])), Parameter("w", [[1.0], [1.0]]), Parameter("bias", [[0.0]]))
print(f"\nconv example: mean of (1 - 0.2) and (3 + 0.3) = {out.value[0, 0]}")

# mean pooling (one block of rows per episode) turns per-node features into
# a fixed-size code
feats = Tensor(np.arange(12.0).reshape(4, 3))
print(f"mean pool of 4 nodes with 3 features: {block_mean(feats, 1).value.ravel()}")
