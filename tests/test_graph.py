import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgnp.autodiff import Parameter, Tensor, backward, block_mean
from cgnp.graph import bipartite_conv, radius_neighborhood
from cgnp.optim import zero_grads

from autodiff_oracle import add, matmul
from graph_oracle import brute_force_neighbors, edge_list_conv
from helpers import assert_grads_match


def neighbor_lists(mask):
    """Sorted neighbor indices per output node of a one-episode mask."""
    assert mask.shape[0] == 1
    return [np.flatnonzero(row) for row in mask[0]]


# ---------------------------------------------------------------------------
# neighborhood masks
# ---------------------------------------------------------------------------


def test_radius_graph_hand_example():
    mask = radius_neighborhood([-1.0, 0.0, 0.5], [0.2], 0.7).mask
    np.testing.assert_array_equal(mask, [[[0.0, 1.0, 1.0]]])  # -1.0 is 1.2 away


def test_zero_radius_keeps_only_coincident_nodes():
    coords = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(radius_neighborhood(coords, coords, 0.0).mask[0], np.eye(3))


def test_radius_covering_diameter_gives_complete_graph():
    rng = np.random.default_rng(0)
    coords_in = rng.uniform(-2, 2, 9)
    coords_out = rng.uniform(-2, 2, 4)
    diameter = max(coords_in.max(), coords_out.max()) - min(coords_in.min(), coords_out.min())
    np.testing.assert_array_equal(radius_neighborhood(coords_in, coords_out, diameter).mask, np.ones((1, 4, 9)))


def test_radius_graph_rejects_bad_inputs():
    with pytest.raises(ValueError, match="non-negative"):
        radius_neighborhood([0.0], [0.0], -0.1)
    with pytest.raises(ValueError, match="non-negative, got nan"):
        radius_neighborhood([0.0, 1.0], [0.0], float("nan"))
    with pytest.raises(ValueError, match="finite"):
        radius_neighborhood([np.nan], [0.0], 1.0)
    with pytest.raises(ValueError, match="episodes"):
        radius_neighborhood(np.zeros((2, 3)), np.zeros((3, 3)), 1.0)


@settings(deadline=None, max_examples=120)
@given(
    st.lists(st.floats(-2, 2), min_size=1, max_size=12),
    st.lists(st.floats(-2, 2), min_size=1, max_size=12),
    st.sampled_from([0.0, 0.3, 0.7, 5.0]),
)
def test_radius_graph_matches_bruteforce_oracle(coords_in, coords_out, radius):
    got = neighbor_lists(radius_neighborhood(coords_in, coords_out, radius).mask)
    for row, want in zip(got, brute_force_neighbors(coords_in, coords_out, radius)):
        np.testing.assert_array_equal(row, want)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(-2, 2), min_size=1, max_size=12),
    st.lists(st.floats(-2, 2), min_size=1, max_size=12),
)
def test_neighbor_lists_nest_monotonically_in_radius(coords_in, coords_out):
    masks = [radius_neighborhood(coords_in, coords_out, r).mask for r in (0.0, 0.3, 0.7, 5.0)]
    for small, large in zip(masks, masks[1:]):
        assert np.all(small <= large)


def test_radius_mask_equals_pairwise_predicate_randomized():
    # batched masks against the exact predicate, block by block, with exact
    # boundary ties |x_i - x_o| = radius and coincident points
    rng = np.random.default_rng(42)
    for trial in range(120):
        n_b, n_in, n_out = int(rng.integers(1, 5)), int(rng.integers(1, 25)), int(rng.integers(1, 25))
        radius = float(rng.choice([0.0, 0.25, 0.5, 5.0]))
        ci, co = rng.uniform(-2, 2, (n_b, n_in)), rng.uniform(-2, 2, (n_b, n_out))
        if trial % 3 == 0:
            co[:, 0] = ci[:, 0]  # coincident
            ci[:, -1] = np.round(ci[:, -1] * 4) / 4  # dyadic, so the tie below is exact
            co[:, -1] = ci[:, -1] + radius
        mask = radius_neighborhood(ci, co, radius).mask
        assert mask.shape == (n_b, n_out, n_in)
        for b in range(n_b):
            want = np.zeros((n_out, n_in))
            for o, nbrs in enumerate(brute_force_neighbors(ci[b], co[b], radius)):
                want[o, nbrs] = 1.0
            np.testing.assert_array_equal(mask[b], want)
        if trial % 3 == 0:
            assert mask[:, -1, -1].all()  # the tie is inside the closed ball


def test_neighborhood_sums_and_counts_match_the_neighbor_lists():
    # rel and count hold, per output row (episode by episode), the sum of
    # x_i - x_o over the neighbors and their number, from the same predicate
    rng = np.random.default_rng(43)
    for _ in range(40):
        n_b, n_in, n_out = int(rng.integers(1, 5)), int(rng.integers(1, 13)), int(rng.integers(1, 13))
        radius = float(rng.choice([0.0, 0.3, 0.7, 5.0]))
        ci, co = rng.uniform(-2, 2, (n_b, n_in)), rng.uniform(-2, 2, (n_b, n_out))
        nbhd = radius_neighborhood(ci, co, radius)
        assert nbhd.rel.shape == (n_b * n_out, 1) and nbhd.count.shape == (n_b * n_out,)
        for b in range(n_b):
            for o, nbrs in enumerate(brute_force_neighbors(ci[b], co[b], radius)):
                row = b * n_out + o
                assert nbhd.count[row] == len(nbrs)
                want = sum(ci[b, i] - co[b, o] for i in nbrs)
                np.testing.assert_allclose(nbhd.rel[row, 0], want, rtol=1e-12, atol=1e-12)


def test_batched_mask_keeps_episodes_disconnected():
    # two episodes with the same coordinates: blocks never mix, whatever the radius
    coords = np.array([[0.0, 0.1], [0.0, 0.1]])
    nbhd = radius_neighborhood(coords, coords, 5.0)
    assert nbhd.mask.shape == (2, 2, 2) and nbhd.mask.sum() == 8  # two complete 2x2 blocks
    feats = Tensor([[1.0], [2.0], [10.0], [20.0]])
    w_nbr, bias, _ = conv_weights([[1.0], [0.0]])
    out = bipartite_conv(nbhd, feats, w_nbr, bias)
    np.testing.assert_allclose(out.value, [[1.5], [1.5], [15.0], [15.0]])


def test_zero_radius_output_ignores_relative_position_weights():
    # with in == out coordinates at radius 0, the relative-position column is
    # exactly zero, so that weight row cannot influence the output
    rng = np.random.default_rng(6)
    coords = rng.uniform(-2, 2, 5)
    nbhd = radius_neighborhood(coords, coords, 0.0)
    np.testing.assert_array_equal(nbhd.rel, np.zeros((5, 1)))
    feats = Tensor(rng.standard_normal((5, 3)))
    w = rng.standard_normal((4, 2))
    bias = Parameter("bias", rng.standard_normal((1, 2)))
    base = bipartite_conv(nbhd, feats, Parameter("w_nbr", w.copy()), bias)
    w[-1, :] = 1e6  # arbitrary change to the delta row
    changed = bipartite_conv(nbhd, feats, Parameter("w_nbr", w), bias)
    np.testing.assert_array_equal(base.value, changed.value)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv_weights(w_nbr, w_self=None, bias=None):
    """Parameters (w_nbr, bias, w_self) of one layer; w_self is None when
    the layer has no self term."""
    bias = bias if bias is not None else np.zeros((1, np.asarray(w_nbr).shape[1]))
    w_self = None if w_self is None else Parameter("w_self", w_self)
    return Parameter("w_nbr", w_nbr), Parameter("bias", bias), w_self


def conv(coords_in, coords_out, radius, feats, self_feats, weights):
    """The dense conv on one episode, building the neighborhood from the coordinates."""
    w_nbr, bias, w_self = weights
    self_term = None if w_self is None else (self_feats, w_self)
    return bipartite_conv(radius_neighborhood(coords_in, coords_out, radius), feats, w_nbr, bias, self_term)


def test_conv_hand_example():
    # neighbors at 0.0 and 0.5 of an output node at 0.2, scalar features 1 and 3,
    # weights summing feature and relative position: mean(0.8, 3.3) = 2.05
    weights = conv_weights([[1.0], [1.0]])
    out = conv([0.0, 0.5], [0.2], 0.7, Tensor([[1.0], [3.0]]), None, weights)
    np.testing.assert_allclose(out.value, [[2.05]])


def test_conv_singleton_at_same_coordinate_is_affine():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal((1, 3))
    f = rng.standard_normal((1, 3))
    out = conv([0.3], [0.3], 0.0, Tensor(f), None, conv_weights(w, bias=b))
    np.testing.assert_allclose(out.value, f @ w[:-1] + b, atol=1e-12)


def test_conv_mean_is_idempotent_for_identical_messages():
    # two neighbors with identical features and identical relative positions
    w = np.array([[1.0, -2.0], [0.5, 0.5]])
    single = conv([0.1], [0.1], 0.5, Tensor([[2.0]]), None, conv_weights(w))
    double = conv([0.1, 0.1], [0.1], 0.5, Tensor([[2.0], [2.0]]), None, conv_weights(w))
    np.testing.assert_allclose(double.value, single.value, atol=1e-14)


def test_conv_self_term_and_empty_neighborhood():
    weights = conv_weights(
        np.ones((3, 2)), w_self=np.full((2, 2), 2.0), bias=np.array([[0.5, 0.5]])
    )
    # no neighbors in range: the mean of the self message alone, 1*2 + 1*2 + bias
    out = conv([-1.5], [1.5], 0.7, Tensor([[1.0, 1.0]]), Tensor([[1.0, 1.0]]), weights)
    np.testing.assert_allclose(out.value, [[4.5, 4.5]])
    # self features of the wrong width or row count are rejected by the ops
    with pytest.raises(ValueError, match="dimension mismatch"):
        conv([-1.5], [1.5], 0.7, Tensor([[1.0, 1.0]]), Tensor([[1.0, 1.0, 1.0]]), weights)
    with pytest.raises(ValueError, match="row mismatch"):
        conv([-1.5], [1.5], 0.7, Tensor([[1.0, 1.0]]), Tensor(np.ones((2, 2))), weights)
    # so is a w_nbr that does not match the feature width + relative position
    with pytest.raises(ValueError, match="dimension mismatch"):
        conv([-1.5], [1.5], 0.7, Tensor([[1.0]]), Tensor([[1.0, 1.0]]), weights)


def test_conv_isolated_node_without_self_term_raises():
    with pytest.raises(ValueError, match="isolated"):
        conv([-1.5], [1.5], 0.7, Tensor([[1.0, 1.0]]), None, conv_weights(np.ones((3, 2))))


def test_conv_self_term_augments_the_mean():
    weights = conv_weights([[2.0], [0.0]], w_self=[[4.0]])
    out = conv([0.0], [0.0], 0.5, Tensor([[1.0]]), Tensor([[1.0]]), weights)
    np.testing.assert_allclose(out.value, [[(2.0 + 4.0) / 2.0]])


def test_conv_permutation_of_inputs_is_invariant():
    rng = np.random.default_rng(3)
    ci, co = rng.uniform(-2, 2, 10), rng.uniform(-2, 2, 6)
    feats = rng.standard_normal((10, 3))
    weights = conv_weights(rng.standard_normal((4, 2)), bias=rng.standard_normal((1, 2)))
    base = conv(ci, co, 1.0, Tensor(feats), None, weights)
    perm = rng.permutation(10)
    swapped = conv(ci[perm], co, 1.0, Tensor(feats[perm]), None, weights)
    np.testing.assert_allclose(swapped.value, base.value, rtol=1e-9)


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    ci, co = rng.uniform(-1, 1, (2, 6)), rng.uniform(-1, 1, (2, 4))
    nbhd = radius_neighborhood(ci, co, 0.9)
    feats = Parameter("feats", rng.standard_normal((12, 3)))
    self_feats = Parameter("self", rng.standard_normal((8, 2)))
    w_nbr, bias, w_self = conv_weights(
        rng.standard_normal((4, 2)),
        w_self=rng.standard_normal((2, 2)),
        bias=rng.standard_normal((1, 2)),
    )
    left = Tensor(rng.standard_normal((1, 8)))
    right = Tensor(rng.standard_normal((2, 1)))

    def build_loss():
        out = bipartite_conv(nbhd, feats, w_nbr, bias, (self_feats, w_self))
        return matmul(matmul(left, out), right)

    leaves = [feats, self_feats, w_nbr, w_self, bias]
    assert_grads_match(lambda: float(build_loss().value[0, 0]), build_loss, leaves)


@pytest.mark.parametrize("radius", [0.0, 0.25, 0.7, 10.0])
@pytest.mark.parametrize("with_self", [False, True])
def test_dense_conv_matches_edge_list_oracle(radius, with_self):
    # values and gradients of the batched dense conv against the per-episode
    # edge-list oracle at 1e-12, on a dyadic grid so that exact ties
    # |x_i - x_o| = radius occur; radius 10 covers the whole domain. Without
    # a self term, draws with an empty neighborhood must raise instead.
    rng = np.random.default_rng(int(radius * 100) + with_self)
    d_in, d_out, d_self = 3, 4, 2
    compared = 0
    for trial in range(12):
        n_b, n_in, n_out = int(rng.integers(1, 5)), int(rng.integers(1, 11)), int(rng.integers(1, 12))
        ci = np.round(rng.uniform(-2, 2, (n_b, n_in)) * 8) / 8
        co = np.round(rng.uniform(-2, 2, (n_b, n_out)) * 8) / 8
        if trial % 2:  # outputs on input points: no empty neighborhoods
            co = ci[:, rng.integers(0, n_in, n_out)]
        co[:, 0] = ci[:, 0] + radius  # a tie in every episode, exact for dyadic radii
        feats = Parameter("feats", rng.standard_normal((n_b * n_in, d_in)))
        self_feats = Parameter("self", rng.standard_normal((n_b * n_out, d_self)))
        w_nbr, bias, w_self = conv_weights(
            rng.standard_normal((d_in + 1, d_out)),
            w_self=rng.standard_normal((d_self, d_out)) if with_self else None,
            bias=rng.standard_normal((1, d_out)),
        )
        leaves = [feats, w_nbr, bias] + ([self_feats, w_self] if with_self else [])
        left = rng.standard_normal((1, n_b * n_out))
        right = Tensor(rng.standard_normal((d_out, 1)))

        def gradients(loss):
            zero_grads(leaves)
            backward(loss)
            return [leaf.grad.copy() for leaf in leaves]

        nbhd = radius_neighborhood(ci, co, radius)
        if not with_self and not nbhd.mask.sum(axis=2).all():
            with pytest.raises(ValueError, match="isolated"):
                bipartite_conv(nbhd, feats, w_nbr, bias)
            continue
        dense = bipartite_conv(nbhd, feats, w_nbr, bias, (self_feats, w_self) if with_self else None)
        dense_grads = gradients(matmul(matmul(Tensor(left), dense), right))

        blocks, loss = [], None
        for b in range(n_b):
            block_self = matmul(Tensor(np.eye(n_b * n_out)[b * n_out : (b + 1) * n_out]), self_feats)
            block = edge_list_conv(
                ci[b], co[b], radius,
                matmul(Tensor(np.eye(n_b * n_in)[b * n_in : (b + 1) * n_in]), feats),
                w_nbr, bias, (block_self, w_self) if with_self else None,
            )
            term = matmul(matmul(Tensor(left[:, b * n_out : (b + 1) * n_out]), block), right)
            blocks.append(block.value)
            loss = term if loss is None else add(loss, term)
        np.testing.assert_allclose(dense.value, np.concatenate(blocks), rtol=1e-12, atol=1e-12)
        for leaf, got, want in zip(leaves, dense_grads, gradients(loss)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=leaf.name)
        compared += 1
    assert compared >= 5


# ---------------------------------------------------------------------------
# pooling: the mean pool of one episode is block_mean over one block
# ---------------------------------------------------------------------------


def test_mean_pool_identical_rows():
    row = np.array([[1.5, -2.0, 0.25]])
    out = block_mean(Tensor(np.repeat(row, 5, axis=0)), 1)
    np.testing.assert_allclose(out.value, row)


def test_mean_pool_two_rows():
    out = block_mean(Tensor([[1.0], [3.0]]), 1)
    np.testing.assert_allclose(out.value, [[2.0]])


def test_mean_pool_matches_bruteforce_average():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((7, 8))
    expected = [sum(feats[i, j] for i in range(7)) / 7.0 for j in range(8)]
    out = block_mean(Tensor(feats), 1)
    np.testing.assert_allclose(out.value[0], expected, atol=1e-12)


def test_mean_pool_empty_raises():
    with pytest.raises(ValueError, match="empty"):
        block_mean(Tensor(np.zeros((0, 3))), 1)


def test_mean_pool_gradient_spreads_evenly():
    feats = Parameter("feats", np.arange(6.0).reshape(3, 2))
    backward(matmul(block_mean(feats, 1), Tensor([[1.0], [1.0]])))
    np.testing.assert_allclose(feats.grad, np.full((3, 2), 1.0 / 3.0))
