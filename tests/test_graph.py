import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgnp.autodiff import Parameter, Tensor, add, backward, matmul
from cgnp.graph import ConvLayerParams, bipartite_conv, mean_pool, radius_mask
from cgnp.optim import zero_grads

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
    mask = radius_mask([-1.0, 0.0, 0.5], [0.2], 0.7)
    np.testing.assert_array_equal(mask, [[[0.0, 1.0, 1.0]]])  # -1.0 is 1.2 away


def test_zero_radius_keeps_only_coincident_nodes():
    coords = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(radius_mask(coords, coords, 0.0)[0], np.eye(3))


def test_radius_covering_diameter_gives_complete_graph():
    rng = np.random.default_rng(0)
    coords_in = rng.uniform(-2, 2, 9)
    coords_out = rng.uniform(-2, 2, 4)
    diameter = max(coords_in.max(), coords_out.max()) - min(coords_in.min(), coords_out.min())
    np.testing.assert_array_equal(radius_mask(coords_in, coords_out, diameter), np.ones((1, 4, 9)))


def test_radius_graph_rejects_bad_inputs():
    with pytest.raises(ValueError, match="non-negative"):
        radius_mask([0.0], [0.0], -0.1)
    with pytest.raises(ValueError, match="finite"):
        radius_mask([np.nan], [0.0], 1.0)
    with pytest.raises(ValueError, match="episodes"):
        radius_mask(np.zeros((2, 3)), np.zeros((3, 3)), 1.0)


@settings(deadline=None, max_examples=120)
@given(
    st.lists(st.floats(-2, 2), min_size=1, max_size=12),
    st.lists(st.floats(-2, 2), min_size=1, max_size=12),
    st.sampled_from([0.0, 0.3, 0.7, 5.0]),
)
def test_radius_graph_matches_bruteforce_oracle(coords_in, coords_out, radius):
    got = neighbor_lists(radius_mask(coords_in, coords_out, radius))
    for row, want in zip(got, brute_force_neighbors(coords_in, coords_out, radius)):
        np.testing.assert_array_equal(row, want)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(-2, 2), min_size=1, max_size=12),
    st.lists(st.floats(-2, 2), min_size=1, max_size=12),
)
def test_neighbor_lists_nest_monotonically_in_radius(coords_in, coords_out):
    masks = [radius_mask(coords_in, coords_out, r) for r in (0.0, 0.3, 0.7, 5.0)]
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
        mask = radius_mask(ci, co, radius)
        assert mask.shape == (n_b, n_out, n_in)
        for b in range(n_b):
            want = np.zeros((n_out, n_in))
            for o, nbrs in enumerate(brute_force_neighbors(ci[b], co[b], radius)):
                want[o, nbrs] = 1.0
            np.testing.assert_array_equal(mask[b], want)
        if trial % 3 == 0:
            assert mask[:, -1, -1].all()  # the tie is inside the closed ball


def test_batched_mask_keeps_episodes_disconnected():
    # two episodes with the same coordinates: blocks never mix, whatever the radius
    coords = np.array([[0.0, 0.1], [0.0, 0.1]])
    mask = radius_mask(coords, coords, 5.0)
    assert mask.shape == (2, 2, 2) and mask.sum() == 8  # two complete 2x2 blocks
    feats = Tensor([[1.0], [2.0], [10.0], [20.0]])
    params = conv_params([[1.0], [0.0]])
    out = bipartite_conv(mask, coords, coords, feats, None, params)
    np.testing.assert_allclose(out.value, [[1.5], [1.5], [15.0], [15.0]])


def test_zero_radius_output_ignores_relative_position_weights():
    # with in == out coordinates at radius 0, the relative-position column is
    # exactly zero, so that weight row cannot influence the output
    rng = np.random.default_rng(6)
    coords = rng.uniform(-2, 2, 5)
    mask = radius_mask(coords, coords, 0.0)
    feats = Tensor(rng.standard_normal((5, 3)))
    w = rng.standard_normal((4, 2))
    bias = rng.standard_normal((1, 2))
    base = bipartite_conv(mask, coords, coords, feats, None, conv_params(w.copy(), bias=bias))
    w[-1, :] = 1e6  # arbitrary change to the delta row
    changed = bipartite_conv(mask, coords, coords, feats, None, conv_params(w, bias=bias))
    np.testing.assert_array_equal(base.value, changed.value)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def conv_params(w_nbr, w_self=None, bias=None, d_out=None):
    d_out = d_out or np.asarray(w_nbr).shape[1]
    return ConvLayerParams(
        w_nbr=Parameter("w_nbr", w_nbr),
        w_self=None if w_self is None else Parameter("w_self", w_self),
        bias=Parameter("bias", bias if bias is not None else np.zeros((1, d_out))),
    )


def conv(coords_in, coords_out, radius, feats, self_feats, params):
    """The dense conv on one episode, building the mask from the coordinates."""
    mask = radius_mask(coords_in, coords_out, radius)
    return bipartite_conv(mask, coords_in, coords_out, feats, self_feats, params)


def test_conv_hand_example():
    # neighbors at 0.0 and 0.5 of an output node at 0.2, scalar features 1 and 3,
    # weights summing feature and relative position: mean(0.8, 3.3) = 2.05
    params = conv_params([[1.0], [1.0]])
    out = conv([0.0, 0.5], [0.2], 0.7, Tensor([[1.0], [3.0]]), None, params)
    np.testing.assert_allclose(out.value, [[2.05]])


def test_conv_singleton_at_same_coordinate_is_affine():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal((1, 3))
    f = rng.standard_normal((1, 3))
    out = conv([0.3], [0.3], 0.0, Tensor(f), None, conv_params(w, bias=b))
    np.testing.assert_allclose(out.value, f @ w[:-1] + b, atol=1e-12)


def test_conv_mean_is_idempotent_for_identical_messages():
    # two neighbors with identical features and identical relative positions
    w = np.array([[1.0, -2.0], [0.5, 0.5]])
    single = conv([0.1], [0.1], 0.5, Tensor([[2.0]]), None, conv_params(w))
    double = conv([0.1, 0.1], [0.1], 0.5, Tensor([[2.0], [2.0]]), None, conv_params(w))
    np.testing.assert_allclose(double.value, single.value, atol=1e-14)


def test_conv_self_term_and_empty_neighborhood():
    params = conv_params(
        np.ones((3, 2)), w_self=np.full((2, 2), 2.0), bias=np.array([[0.5, 0.5]])
    )
    # no neighbors in range: the mean of the self message alone, 1*2 + 1*2 + bias
    out = conv([-1.5], [1.5], 0.7, Tensor([[1.0, 1.0]]), Tensor([[1.0, 1.0]]), params)
    np.testing.assert_allclose(out.value, [[4.5, 4.5]])


def test_conv_isolated_node_without_self_term_raises():
    with pytest.raises(ValueError, match="isolated"):
        conv([-1.5], [1.5], 0.7, Tensor([[1.0, 1.0]]), None, conv_params(np.ones((3, 2))))


def test_conv_self_term_augments_the_mean():
    params = conv_params([[2.0], [0.0]], w_self=[[4.0]])
    out = conv([0.0], [0.0], 0.5, Tensor([[1.0]]), Tensor([[1.0]]), params)
    np.testing.assert_allclose(out.value, [[(2.0 + 4.0) / 2.0]])


def test_conv_permutation_of_inputs_is_invariant():
    rng = np.random.default_rng(3)
    ci, co = rng.uniform(-2, 2, 10), rng.uniform(-2, 2, 6)
    feats = rng.standard_normal((10, 3))
    params = conv_params(rng.standard_normal((4, 2)), bias=rng.standard_normal((1, 2)))
    base = conv(ci, co, 1.0, Tensor(feats), None, params)
    perm = rng.permutation(10)
    swapped = conv(ci[perm], co, 1.0, Tensor(feats[perm]), None, params)
    np.testing.assert_allclose(swapped.value, base.value, rtol=1e-9)


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    ci, co = rng.uniform(-1, 1, (2, 6)), rng.uniform(-1, 1, (2, 4))
    mask = radius_mask(ci, co, 0.9)
    feats = Parameter("feats", rng.standard_normal((12, 3)))
    self_feats = Parameter("self", rng.standard_normal((8, 2)))
    params = conv_params(
        rng.standard_normal((4, 2)),
        w_self=rng.standard_normal((2, 2)),
        bias=rng.standard_normal((1, 2)),
    )
    left = Tensor(rng.standard_normal((1, 8)))
    right = Tensor(rng.standard_normal((2, 1)))

    def build_loss():
        out = bipartite_conv(mask, ci, co, feats, self_feats, params)
        return matmul(matmul(left, out), right)

    leaves = [feats, self_feats, params.w_nbr, params.w_self, params.bias]
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
        params = conv_params(
            rng.standard_normal((d_in + 1, d_out)),
            w_self=rng.standard_normal((d_self, d_out)) if with_self else None,
            bias=rng.standard_normal((1, d_out)),
        )
        leaves = [feats, params.w_nbr, params.bias] + ([self_feats, params.w_self] if with_self else [])
        left = rng.standard_normal((1, n_b * n_out))
        right = Tensor(rng.standard_normal((d_out, 1)))

        def gradients(loss):
            zero_grads(leaves)
            backward(loss)
            return [leaf.grad.copy() for leaf in leaves]

        mask = radius_mask(ci, co, radius)
        if not with_self and not mask.sum(axis=2).all():
            with pytest.raises(ValueError, match="isolated"):
                bipartite_conv(mask, ci, co, feats, None, params)
            continue
        dense = bipartite_conv(mask, ci, co, feats, self_feats if with_self else None, params)
        dense_grads = gradients(matmul(matmul(Tensor(left), dense), right))

        blocks, loss = [], None
        for b in range(n_b):
            block = edge_list_conv(
                ci[b], co[b], radius,
                matmul(Tensor(np.eye(n_b * n_in)[b * n_in : (b + 1) * n_in]), feats),
                matmul(Tensor(np.eye(n_b * n_out)[b * n_out : (b + 1) * n_out]), self_feats) if with_self else None,
                params,
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
# pooling
# ---------------------------------------------------------------------------


def test_mean_pool_identical_rows():
    row = np.array([[1.5, -2.0, 0.25]])
    out = mean_pool(Tensor(np.repeat(row, 5, axis=0)))
    np.testing.assert_allclose(out.value, row)


def test_mean_pool_two_rows():
    out = mean_pool(Tensor([[1.0], [3.0]]))
    np.testing.assert_allclose(out.value, [[2.0]])


def test_mean_pool_matches_bruteforce_average():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((7, 8))
    expected = [sum(feats[i, j] for i in range(7)) / 7.0 for j in range(8)]
    out = mean_pool(Tensor(feats))
    np.testing.assert_allclose(out.value[0], expected, atol=1e-12)


def test_mean_pool_empty_raises():
    with pytest.raises(ValueError, match="empty"):
        mean_pool(Tensor(np.zeros((0, 3))))


def test_mean_pool_gradient_spreads_evenly():
    feats = Parameter("feats", np.arange(6.0).reshape(3, 2))
    backward(matmul(mean_pool(feats), Tensor([[1.0], [1.0]])))
    np.testing.assert_allclose(feats.grad, np.full((3, 2), 1.0 / 3.0))
