import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgnp.autodiff import (
    BN_EPS,
    Parameter,
    Tensor,
    affine,
    backward,
    batch_norm,
    block_mean,
    bounded_softplus,
    concat_cols,
    concat_rows,
    gaussian_nll,
    neighbor_mix,
    relu,
    repeat_rows,
    row_scale,
    slice_cols,
    _block_sums,
)

from autodiff_oracle import add, add_rowvec, matmul, reference_backward, reference_batch_norm
from helpers import assert_grads_match, bn_state, finite_diff_grad


# Sums over rows agree with numpy's sum(axis=0) to rounding: over 20,000
# batch-norm draws with 2-5 rows the largest gap beyond 1e-12 relative was
# 1.2e-13, in the input gradient, where the three terms of the rule cancel.
SUM_RTOL, SUM_ATOL = 1e-12, 1e-11


def scalarize(t, rng):
    """Reduce a tensor to a (1, 1) scalar through fixed random weights."""
    left = Tensor(rng.standard_normal((1, t.value.shape[0])))
    right = Tensor(rng.standard_normal((t.value.shape[1], 1)))
    return matmul(matmul(left, t), right)


# ---------------------------------------------------------------------------
# affine / relu / bounded_softplus values
# ---------------------------------------------------------------------------


def test_affine_identity():
    out = affine(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([[0.0, 0.0]]))
    np.testing.assert_array_equal(out.value, [[1.0, 2.0]])


def test_affine_bias_shift():
    out = affine(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([[3.0, 4.0]]))
    np.testing.assert_array_equal(out.value, [[4.0, 6.0]])


def test_affine_hand_multiply():
    out = affine(Tensor([[2.0, 3.0]]), Tensor([[1.0], [1.0]]), Tensor([[0.5]]))
    np.testing.assert_allclose(out.value, [[5.5]])


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 9), st.integers(1, 9))
def test_affine_is_one_op_equal_to_matmul_then_add_rowvec(seed, n, d_in, d_out):
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(shape) for shape in ((n, d_in), (d_in, d_out), (1, d_out))]
    g = rng.standard_normal((n, d_out))
    one = [Parameter(name, v.copy()) for name, v in zip("xwb", values)]
    two = [Parameter(name, v.copy()) for name, v in zip("xwb", values)]
    out = affine(*one)
    ref = add_rowvec(matmul(two[0], two[1]), two[2])
    assert out._parents == tuple(one)  # one taped node
    assert np.array_equal(out.value, ref.value)
    reference_backward(out, g)
    reference_backward(ref, g)
    for p, q in zip(one[:2], two[:2]):
        assert np.array_equal(p.grad, q.grad), p.name
    # the bias gradient sums rows through a product with ones, the oracle with sum(axis=0)
    np.testing.assert_allclose(one[2].grad, two[2].grad, rtol=SUM_RTOL, atol=SUM_ATOL)


def test_affine_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        affine(Tensor([[1.0, 2.0]]), Tensor([[1.0]]), Tensor([[0.0]]))
    with pytest.raises(ValueError, match="row vector"):
        affine(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([[0.0, 0.0, 0.0]]))


def test_relu_values_and_subgradient_at_zero():
    x = Parameter("x", [[-3.0, 2.0, 0.0]])
    out = relu(x)
    np.testing.assert_array_equal(out.value, [[0.0, 2.0, 0.0]])
    backward(matmul(out, Tensor([[1.0], [1.0], [1.0]])))
    # gradient passes where x > 0 only; exactly 0 gets subgradient 0
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])


def test_bounded_softplus_values():
    out = bounded_softplus(Tensor([[0.0, -40.0, 40.0]]))
    np.testing.assert_allclose(out.value[0, 0], 0.1 + 0.9 * math.log(2.0), rtol=1e-14)
    assert out.value[0, 1] == 0.1  # underflows to the floor in double precision
    np.testing.assert_allclose(out.value[0, 2], 0.1 + 0.9 * 40.0, rtol=1e-14)


def test_bounded_softplus_overflow_safe():
    out = bounded_softplus(Tensor([[-1e6, 1e6]]))
    assert np.all(np.isfinite(out.value))
    assert out.value[0, 0] == 0.1
    np.testing.assert_allclose(out.value[0, 1], 0.1 + 0.9e6)


@settings(deadline=None)
@given(st.lists(st.floats(-708, 708), min_size=1, max_size=20))
def test_bounded_softplus_floor_and_monotone(values):
    out = bounded_softplus(Tensor([sorted(values)])).value[0]
    assert np.all(out >= 0.1)
    assert np.all(np.diff(out) >= 0.0)


def test_bounded_softplus_strictly_increasing_where_representable():
    # below about -34 the softplus term drops under half an ulp of 0.1
    grid = np.linspace(-30.0, 30.0, 121)
    out = bounded_softplus(Tensor([grid])).value[0]
    assert np.all(np.diff(out) > 0.0)


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------


def test_batch_norm_two_point_column():
    state = bn_state("bn", 1)
    out = batch_norm(Tensor([[1.0], [3.0]]), state, train=True)
    expected = 1.0 / math.sqrt(1.0 + BN_EPS)  # mean 2, biased var 1
    np.testing.assert_allclose(out.value, [[-expected], [expected]], rtol=1e-12)


def test_batch_norm_constant_column_maps_to_zero():
    state = bn_state("bn", 1)
    out = batch_norm(Tensor([[5.0], [5.0]]), state, train=True)
    np.testing.assert_array_equal(out.value, [[0.0], [0.0]])


def test_batch_norm_eval_identity():
    # fresh running statistics (mean 0, var 1) leave only the eps in the scale
    state = bn_state("bn", 2)
    x = np.array([[0.3, -1.2], [2.0, 0.7]])
    out = batch_norm(Tensor(x), state, train=False)
    np.testing.assert_allclose(out.value, x / math.sqrt(1.0 + BN_EPS), rtol=1e-9)


def test_batch_norm_updates_running_stats():
    state = bn_state("bn", 1)
    batch_norm(Tensor([[1.0], [3.0]]), state, train=True)
    np.testing.assert_allclose(state.running_mean, [[0.9 * 0.0 + 0.1 * 2.0]])
    np.testing.assert_allclose(state.running_var, [[0.9 * 1.0 + 0.1 * 1.0]])
    # eval mode must not touch them
    batch_norm(Tensor([[7.0], [9.0]]), state, train=False)
    np.testing.assert_allclose(state.running_mean, [[0.2]])


def test_batch_norm_degenerate_batch():
    state = bn_state("bn", 1)
    with pytest.raises(ValueError, match="at least 2 rows"):
        batch_norm(Tensor([[1.0]]), state, train=True)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 5))
def test_batch_norm_normalizes_columns(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, d) + rng.uniform(-2, 2, d)
    state = bn_state("bn", d)
    out = batch_norm(Tensor(x), state, train=True).value
    var_b = x.var(axis=0)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
    # output variance is var/(var + eps) exactly; 1e-6 of 1 once var >> eps
    np.testing.assert_allclose(out.var(axis=0), var_b / (var_b + BN_EPS), atol=1e-9)


def test_batch_norm_unit_variance_for_wide_columns():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64, 4)) * 20.0
    out = batch_norm(Tensor(x), bn_state("bn", 4), train=True).value
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
    np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-6)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 70), st.integers(1, 9), st.booleans(), st.booleans())
@example(seed=1, n=2, d=3, constant_column=True, train=True)
def test_batch_norm_matches_the_mean_var_oracle(seed, n, d, constant_column, train):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * rng.uniform(0.1, 5.0, d) + rng.uniform(-3, 3, d)
    if constant_column:
        x[:, 0] = 2.5
    g = rng.standard_normal((n, d))
    states, outs, leaves = [], [], []
    for op in (batch_norm, reference_batch_norm):
        state = bn_state("bn", d)
        state.gamma.value[...] = np.linspace(0.5, 2.0, d)
        state.beta.value[...] = np.linspace(-1.0, 1.0, d)
        state.running_mean[...] = 0.25
        state.running_var[...] = 1.5
        xp = Parameter("x", x.copy())
        out = op(xp, state, train=train)
        reference_backward(out, g)
        states.append(state)
        outs.append(out.value)
        leaves.append((xp, state.gamma, state.beta))
    # eval mode takes no sum forward or into x's gradient, so those are
    # bit-identical; the op's sums over rows are products with ones, the
    # oracle's are sum(axis=0), so the rest agrees to rounding
    if train:
        np.testing.assert_allclose(outs[0], outs[1], rtol=SUM_RTOL, atol=SUM_ATOL)
        np.testing.assert_allclose(states[0].running_mean, states[1].running_mean, rtol=SUM_RTOL, atol=SUM_ATOL)
        np.testing.assert_allclose(states[0].running_var, states[1].running_var, rtol=SUM_RTOL, atol=SUM_ATOL)
    else:
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(states[0].running_mean, states[1].running_mean)
        assert np.array_equal(states[0].running_var, states[1].running_var)
    for p, q in zip(*leaves):
        if p.name == "x" and not train:
            assert np.array_equal(p.grad, q.grad), p.name
        else:
            np.testing.assert_allclose(p.grad, q.grad, rtol=SUM_RTOL, atol=SUM_ATOL, err_msg=p.name)


# ---------------------------------------------------------------------------
# gaussian nll
# ---------------------------------------------------------------------------


def test_gaussian_nll_standard_values():
    val = gaussian_nll(Tensor([[0.0]]), Tensor([[0.0]]), Tensor([[1.0]])).value[0, 0]
    np.testing.assert_allclose(val, 0.5 * math.log(2.0 * math.pi), rtol=1e-14)
    val = gaussian_nll(Tensor([[1.0]]), Tensor([[0.0]]), Tensor([[1.0]])).value[0, 0]
    np.testing.assert_allclose(val, 0.5 * math.log(2.0 * math.pi) + 0.5, rtol=1e-14)


def test_gaussian_nll_zero_grad_at_mean():
    mu = Parameter("mu", [[1.7], [-0.4]])
    backward(gaussian_nll(Tensor(mu.value.copy()), mu, Tensor([[0.5], [2.0]])))
    np.testing.assert_array_equal(mu.grad, 0.0)


def test_gaussian_nll_minimized_at_mean():
    y = Tensor([[0.3]])
    sigma = Tensor([[0.8]])
    for offset, sign in ((0.1, 1.0), (-0.1, -1.0)):
        mu = Parameter("mu", [[0.3 + offset]])
        backward(gaussian_nll(y, mu, sigma))
        assert np.sign(mu.grad[0, 0]) == sign


def test_gaussian_nll_rejects_nonpositive_sigma():
    with pytest.raises(ValueError, match="positive sigma"):
        gaussian_nll(Tensor([[0.0]]), Tensor([[0.0]]), Tensor([[0.0]]))
    with pytest.raises(ValueError, match="positive sigma"):
        gaussian_nll(Tensor([[0.0]]), Tensor([[0.0]]), Tensor([[-1.0]]))


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------


def test_backward_linear_chain():
    w = Parameter("w", [[3.0]])
    backward(matmul(Tensor([[2.0]]), w))
    np.testing.assert_array_equal(w.grad, [[2.0]])


def test_backward_requires_scalar():
    w = Parameter("w", [[1.0, 2.0]])
    with pytest.raises(ValueError, match="scalar"):
        backward(relu(w))


def test_backward_unreached_leaves_keep_zero_grad():
    used = Parameter("used", [[1.0]])
    unused = Parameter("unused", [[5.0]])
    backward(matmul(Tensor([[2.0]]), used))
    np.testing.assert_array_equal(used.grad, [[2.0]])
    np.testing.assert_array_equal(unused.grad, [[0.0]])


def test_backward_accumulates_through_shared_nodes():
    w = Parameter("w", [[1.5]])
    h = matmul(Tensor([[2.0]]), w)
    backward(add(h, h))  # loss = 2 * 2 * w
    np.testing.assert_allclose(w.grad, [[4.0]])


def test_backward_waits_for_a_consumer_reached_through_a_later_longer_chain():
    """h feeds three ops: a row scale, the start of a slice -> repeat ->
    mean chain, and a concat created after that chain. Its gradient must
    collect all three before its own rule runs. Every value is a small
    integer, so any summation order gives the exact gradient."""

    def build():
        x = Parameter("x", [[1.0, 2.0], [3.0, -1.0]])
        w = Parameter("w", [[1.0, 0.0], [2.0, 1.0]])
        b = Parameter("b", [[0.0, 1.0]])
        h = affine(x, w, b)
        near = row_scale(h, [2.0, 3.0])
        chain = block_mean(repeat_rows(slice_cols(h, 1, 2), 2), 2)
        far = concat_cols(chain, h)
        rows = matmul(concat_cols(near, far), Tensor([[1.0], [2.0], [3.0], [4.0], [5.0]]))
        return matmul(Tensor([[1.0, 1.0]]), rows), h, (x, w, b)

    loss, h, params = build()
    backward(loss)
    np.testing.assert_array_equal(h.grad, [[6.0, 12.0], [7.0, 14.0]])
    expected = ([[6.0, 24.0], [7.0, 28.0]], [[27.0, 54.0], [5.0, 10.0]], [[13.0, 26.0]])
    for p, grad in zip(params, expected):
        np.testing.assert_array_equal(p.grad, grad, err_msg=p.name)
    ref_loss, ref_h, ref_params = build()
    reference_backward(ref_loss)
    assert np.array_equal(ref_h.grad, h.grad)
    for p, q in zip(params, ref_params):
        assert np.array_equal(p.grad, q.grad), p.name


def test_ops_are_deterministic():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 4))
    state1, state2 = bn_state("a", 4), bn_state("b", 4)
    a = batch_norm(relu(Tensor(x)), state1, train=True).value
    b = batch_norm(relu(Tensor(x)), state2, train=True).value
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# finite-difference checks, per op
# ---------------------------------------------------------------------------


def fd_case(build_out, params, seed):
    rng = np.random.default_rng(seed)
    weights = {}

    def build_loss():
        out = build_out()
        if out.value.shape not in weights:
            weights[out.value.shape] = (
                rng.standard_normal((1, out.value.shape[0])),
                rng.standard_normal((out.value.shape[1], 1)),
            )
        left, right = weights[out.value.shape]
        return matmul(matmul(Tensor(left), out), Tensor(right))

    assert_grads_match(lambda: float(build_loss().value[0, 0]), build_loss, params)


def test_fd_matmul_and_bias():
    x = Parameter("x", np.random.default_rng(1).standard_normal((4, 3)))
    w = Parameter("w", np.random.default_rng(2).standard_normal((3, 5)))
    b = Parameter("b", np.random.default_rng(3).standard_normal((1, 5)))
    fd_case(lambda: affine(x, w, b), [x, w, b], seed=10)


def test_fd_relu_away_from_kink():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((5, 4))
    vals[np.abs(vals) < 0.05] = 0.1  # keep h away from the kink
    x = Parameter("x", vals)
    fd_case(lambda: relu(x), [x], seed=11)


def test_fd_bounded_softplus():
    x = Parameter("x", np.random.default_rng(5).standard_normal((3, 4)) * 3)
    fd_case(lambda: bounded_softplus(x), [x], seed=12)


def test_fd_batch_norm_train_and_eval():
    rng = np.random.default_rng(6)
    x = Parameter("x", rng.standard_normal((7, 3)) * 2 + 1)
    state = bn_state("bn", 3)
    state.gamma.value[...] = rng.uniform(0.5, 2.0, (1, 3))
    state.beta.value[...] = rng.standard_normal((1, 3))
    for train in (True, False):
        fd_case(
            lambda: batch_norm(x, state, train=train),
            [x, state.gamma, state.beta],
            seed=13,
        )


def test_fd_gaussian_nll():
    rng = np.random.default_rng(7)
    y = Tensor(rng.standard_normal((5, 1)))
    mu = Parameter("mu", rng.standard_normal((5, 1)))
    raw = Parameter("raw", rng.standard_normal((5, 1)))

    def build_loss():
        return gaussian_nll(y, mu, bounded_softplus(raw))

    assert_grads_match(lambda: float(build_loss().value[0, 0]), build_loss, [mu, raw])


def test_fd_layout_and_segment_ops():
    rng = np.random.default_rng(8)
    a = Parameter("a", rng.standard_normal((6, 2)))
    b = Parameter("b", rng.standard_normal((6, 3)))
    scales = rng.uniform(0.5, 2.0, 18)
    mask = (rng.uniform(size=(2, 4, 3)) < 0.6) * rng.uniform(0.5, 2.0, (2, 4, 3))
    c = Parameter("c", rng.standard_normal((4, 3)))
    fd_case(lambda: concat_cols(a, b), [a, b], seed=14)
    fd_case(lambda: concat_rows(b, c), [b, c], seed=20)
    with pytest.raises(ValueError, match="concat_rows column mismatch"):
        concat_rows(a, b)
    fd_case(lambda: slice_cols(b, 1, 3), [b], seed=15)
    fd_case(lambda: repeat_rows(a, 3), [a], seed=16)
    fd_case(lambda: neighbor_mix(b, mask), [b], seed=17)
    fd_case(lambda: block_mean(b, 3), [b], seed=18)
    fd_case(lambda: row_scale(repeat_rows(b, 3), scales), [b], seed=19)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12), st.integers(1, 9))
@example(seed=0, blocks=1, size=40, d=8)
@example(seed=1, blocks=1, size=1, d=3)
@example(seed=2, blocks=6, size=1, d=5)
def test_block_sums_match_reshape_sum(seed, blocks, size, d):
    a = np.random.default_rng(seed).standard_normal((blocks * size, 2 * d)) * 3.0
    a = a[:, ::2]  # a strided view, as gradient slices arrive
    want = a.reshape(blocks, size, d).sum(axis=1)
    got = _block_sums(a, blocks)
    assert got.shape == (blocks, d)
    if size == 1:
        assert np.array_equal(got, want)  # one row per run: nothing to round
    np.testing.assert_allclose(got, want, rtol=SUM_RTOL, atol=SUM_ATOL)
    if blocks == 1:
        assert np.array_equal(_block_sums(a), got)
    assert _block_sums(a[:0], 0).shape == (0, d)  # repeat_rows backward of a zero-row input


def test_segment_ops_values():
    # per-episode pooling, broadcast and neighbor sums over stacked episodes
    x = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(block_mean(x, 2).value, [[2.0, 3.0], [6.0, 7.0]])
    np.testing.assert_array_equal(block_mean(x, 1).value, [[4.0, 5.0]])
    np.testing.assert_array_equal(
        repeat_rows(Tensor([[1.0, 2.0], [3.0, 4.0]]), 2).value,
        [[1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]],
    )
    with pytest.raises(ValueError, match="equal non-empty blocks"):
        block_mean(x, 3)
    with pytest.raises(ValueError, match="equal non-empty blocks"):
        block_mean(Tensor(np.zeros((0, 2))), 1)
    with pytest.raises(ValueError, match="positive"):
        repeat_rows(x, 0)
    # neighbor_mix: two episodes of two input rows; output block b is mask[b] @ x_b
    mask = np.array([[[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]])
    np.testing.assert_array_equal(
        neighbor_mix(x, mask).value,
        [[4.0, 6.0], [3.0, 4.0], [0.0, 0.0], [5.0, 6.0], [0.0, 0.0], [12.0, 14.0]],
    )
    with pytest.raises(ValueError, match="input rows"):
        neighbor_mix(x, np.ones((3, 1, 2)))
    with pytest.raises(ValueError, match="mask"):
        neighbor_mix(x, np.ones((4, 2)))


def test_intermediate_gradients_are_allocated_on_first_use():
    w = Parameter("w", [[1.0, -1.0]])
    hidden = matmul(Tensor([[2.0], [3.0]]), w)
    assert hidden.grad is None and np.array_equal(w.grad, [[0.0, 0.0]])
    backward(matmul(Tensor([[1.0, 1.0]]), matmul(relu(hidden), Tensor([[1.0], [1.0]]))))
    np.testing.assert_array_equal(hidden.grad, [[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(w.grad, [[5.0, 0.0]])
    # a gradient handed to two parents must not alias between their buffers
    wa, wb = Parameter("wa", [[1.0]]), Parameter("wb", [[1.0]])
    a, b = matmul(Tensor([[1.0]]), wa), matmul(Tensor([[1.0]]), wb)
    backward(add(add(a, b), a))
    assert (wa.grad[0, 0], wb.grad[0, 0]) == (2.0, 1.0)


@pytest.mark.parametrize("seed", range(5))
def test_fd_random_composed_networks(seed):
    """Random affine/bn/relu/softplus stacks up to depth 5 against the oracle."""
    rng = np.random.default_rng(100 + seed)
    depth = seed % 5 + 1
    widths = [3] + [int(rng.integers(2, 6)) for _ in range(depth)]
    n = 6
    x0 = rng.standard_normal((n, widths[0]))
    params = []
    layers = []
    for k in range(depth):
        w = Parameter(f"w{k}", rng.standard_normal((widths[k], widths[k + 1])) * 0.7)
        b = Parameter(f"b{k}", rng.standard_normal((1, widths[k + 1])) * 0.3)
        params += [w, b]
        kind = ["relu", "softplus", "bn"][int(rng.integers(3))]
        state = None
        if kind == "bn":
            state = bn_state(f"bn{k}", widths[k + 1])
            params += [state.gamma, state.beta]
        layers.append((w, b, kind, state))
    y = rng.standard_normal((n, widths[-1]))

    def build_loss():
        h = Tensor(x0)
        for w, b, kind, state in layers:
            h = affine(h, w, b)
            if kind == "relu":
                h = relu(h)
            elif kind == "softplus":
                h = bounded_softplus(h)
            else:
                h = batch_norm(h, state, train=True)
        return gaussian_nll(Tensor(y), h, bounded_softplus(h))

    loss_fn = lambda: float(build_loss().value[0, 0])
    assert_grads_match(loss_fn, build_loss, params)
