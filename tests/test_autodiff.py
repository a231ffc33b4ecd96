import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgnp.autodiff import (
    BN_EPS,
    BatchNormState,
    Parameter,
    Tensor,
    affine,
    backward,
    block,
    block_mean,
    concat_cols,
    gaussian_head,
    gaussian_nll,
    neighbor_mean,
    repeat_rows,
    _block_sums,
)

import autodiff_oracle
from autodiff_oracle import (
    add,
    add_rowvec,
    batch_norm,
    bounded_softplus,
    matmul,
    neighbor_mix,
    reference_backward,
    reference_batch_norm,
    relu,
    row_scale,
    slice_cols,
)
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
# affine / relu values
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


# ---------------------------------------------------------------------------
# the Gaussian head: sigma = 0.1 + 0.9 softplus(s) of column 1
# ---------------------------------------------------------------------------


def head_sigma(s) -> np.ndarray:
    """`gaussian_head`'s sigma for the scale column s, as a flat array."""
    s = np.asarray(s, dtype=np.float64)
    return gaussian_head(np.column_stack([np.zeros_like(s), s]))[1][:, 0]


def test_gaussian_head_splits_the_mean_column_off():
    mu, sigma = gaussian_head(np.array([[1.5, 0.0], [-2.0, 40.0]]))
    np.testing.assert_array_equal(mu, [[1.5], [-2.0]])
    assert sigma.shape == (2, 1)


def test_gaussian_head_sigma_values():
    out = head_sigma([0.0, -40.0, 40.0])
    np.testing.assert_allclose(out[0], 0.1 + 0.9 * math.log(2.0), rtol=1e-14)
    assert out[1] == 0.1  # underflows to the floor in double precision
    np.testing.assert_allclose(out[2], 0.1 + 0.9 * 40.0, rtol=1e-14)


def test_gaussian_head_sigma_overflow_safe():
    out = head_sigma([-1e6, 1e6])
    assert np.all(np.isfinite(out))
    assert out[0] == 0.1
    np.testing.assert_allclose(out[1], 0.1 + 0.9e6)


@settings(deadline=None)
@given(st.lists(st.floats(-708, 708), min_size=1, max_size=20))
def test_gaussian_head_sigma_floor_and_monotone(values):
    out = head_sigma(sorted(values))
    assert np.all(out >= 0.1)
    assert np.all(np.diff(out) >= 0.0)


def test_gaussian_head_sigma_strictly_increasing_where_representable():
    # below about -34 the softplus term drops under half an ulp of 0.1
    out = head_sigma(np.linspace(-30.0, 30.0, 121))
    assert np.all(np.diff(out) > 0.0)


@settings(deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
@example([-1e308, -1e6, 0.0, 1e6, 1e308])
def test_sigma_floor_holds_and_the_nll_gradient_stays_finite_for_any_finite_scale(scales):
    # no finite head reaches a sigma below 0.1, so gaussian_nll needs no
    # sigma > 0 check. At |s| near 1e308 sigma**2 and sigma**3 overflow to
    # inf inside the rule, which only sends their terms to 0.
    s = np.array(scales)
    assert np.all(np.isfinite(head_sigma(s))) and np.all(head_sigma(s) >= 0.1)
    rng = np.random.default_rng(len(scales))
    head = Parameter("head", np.column_stack([rng.standard_normal(s.size), s]))
    with np.errstate(over="ignore"):
        backward(gaussian_nll(rng.standard_normal((s.size, 1)), head))
    assert np.all(np.isfinite(head.grad))


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


def assert_within_eval_rounding(got, want, x, state):
    """`got` is eval-mode batch norm as one scale s = gamma * inv_std and one
    shift beta - running_mean * s, `want` the oracle's two-step
    gamma * ((x - running_mean) * inv_std) + beta. Each rounds four times
    in a row, so to first order they differ by at most 4 eps times the sum
    of |x * s|, |running_mean * s| and |beta|."""
    scale = state.gamma.value / np.sqrt(state.running_var + BN_EPS)
    terms = np.abs(x * scale) + np.abs(state.running_mean * scale) + np.abs(state.beta.value)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(np.float64).eps * terms)


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
    # eval mode takes no sum into x's gradient, which is bit-identical, and
    # its output is the oracle's up to the rounding of one scale and shift;
    # the op's sums over rows are products with ones, the oracle's are
    # sum(axis=0), so the rest agrees to rounding
    if train:
        np.testing.assert_allclose(outs[0], outs[1], rtol=SUM_RTOL, atol=SUM_ATOL)
        np.testing.assert_allclose(states[0].running_mean, states[1].running_mean, rtol=SUM_RTOL, atol=SUM_ATOL)
        np.testing.assert_allclose(states[0].running_var, states[1].running_var, rtol=SUM_RTOL, atol=SUM_ATOL)
    else:
        assert_within_eval_rounding(outs[0], outs[1], x, states[1])
        assert np.array_equal(states[0].running_mean, states[1].running_mean)
        assert np.array_equal(states[0].running_var, states[1].running_var)
    for p, q in zip(*leaves):
        if p.name == "x" and not train:
            assert np.array_equal(p.grad, q.grad), p.name
        else:
            np.testing.assert_allclose(p.grad, q.grad, rtol=SUM_RTOL, atol=SUM_ATOL, err_msg=p.name)


# ---------------------------------------------------------------------------
# block: a whole hidden layer as one op
# ---------------------------------------------------------------------------


def layer_inputs(rng, n, d_in, d_out):
    """Values of x, w, b, gamma, beta and the two running statistics of one
    layer, drawn so that every part of the rules is exercised."""
    return (rng.standard_normal((n, d_in)) * 2.0, rng.standard_normal((d_in, d_out)),
            rng.standard_normal((1, d_out)), rng.uniform(0.5, 2.0, (1, d_out)), rng.standard_normal((1, d_out)),
            rng.standard_normal((1, d_out)), rng.uniform(0.5, 2.0, (1, d_out)))


def layer_leaves(values):
    """Fresh parameters x, w, b and a batch-norm state of their own from
    `layer_inputs` values."""
    x, w, b, gamma, beta, running_mean, running_var = (v.copy() for v in values)
    state = BatchNormState(Parameter("gamma", gamma), Parameter("beta", beta), running_mean, running_var)
    return Parameter("x", x), Parameter("w", w), Parameter("b", b), state


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 9), st.integers(1, 9), st.booleans(),
       st.booleans(), st.booleans())
@example(seed=0, n=2, d_in=1, d_out=1, train=True, with_relu=True, taped_x=True)
@example(seed=1, n=64, d_in=3, d_out=8, train=False, with_relu=False, taped_x=False)
def test_block_equals_relu_of_batch_norm_of_affine_bit_for_bit(seed, n, d_in, d_out, train, with_relu, taped_x):
    rng = np.random.default_rng(seed)
    values = layer_inputs(rng, n, d_in, d_out)
    g = rng.standard_normal((n, d_out))
    x, w, b, state = layer_leaves(values)
    ref_x, ref_w, ref_b, ref_state = layer_leaves(values)
    out = block(x if taped_x else x.value, w, b, state, train, relu=with_relu)
    ref = batch_norm(affine(ref_x, ref_w, ref_b), ref_state, train)
    ref = relu(ref) if with_relu else ref
    # one taped node; a raw-array x is a constant, no node of the tape
    assert out._parents == ((x,) if taped_x else ()) + (w, b, state.gamma, state.beta)
    assert np.array_equal(out.value, ref.value)
    assert np.array_equal(state.running_mean, ref_state.running_mean)
    assert np.array_equal(state.running_var, ref_state.running_var)
    reference_backward(out, g)
    reference_backward(ref, g)
    pairs = [(w, ref_w), (b, ref_b), (state.gamma, ref_state.gamma), (state.beta, ref_state.beta)]
    for p, q in pairs + ([(x, ref_x)] if taped_x else []):
        assert np.array_equal(p.grad, q.grad), p.name
    if not taped_x:
        assert np.array_equal(x.grad, np.zeros((n, d_in)))  # the constant got no gradient


def test_fd_block():
    rng = np.random.default_rng(22)
    x, w, b, state = layer_leaves(layer_inputs(rng, 7, 3, 4))
    for train in (True, False):
        pre = block(x, w, b, state, train, relu=False).value
        # away from the kink, so the stencil never crosses it, and on both sides of it
        assert np.abs(pre).min() > 0.05 and (pre < 0.0).any() and (pre > 0.0).any()
        for with_relu in (True, False):
            fd_case(lambda: block(x, w, b, state, train, relu=with_relu), [x, w, b, state.gamma, state.beta],
                    seed=23)


@pytest.mark.parametrize(
    "x_shape, w_shape, b_shape, width, match",
    [
        ((3, 2), (3, 4), (1, 4), 4, r"matmul dimension mismatch: \(3, 2\) @ \(3, 4\)"),
        ((3, 2), (2, 4), (1, 3), 4, r"row vector shape \(1, 3\) does not match \(3, 4\)"),
        ((3, 2), (2, 4), (1, 4), 5, "batch norm width mismatch: input 4, state 5"),
        ((1, 2), (2, 4), (1, 4), 4, "batch norm needs at least 2 rows in train mode, got 1"),
    ],
    ids=["matmul", "bias-row", "bn-width", "one-row"],
)
def test_block_rejects_mismatched_shapes(x_shape, w_shape, b_shape, width, match):
    args = Tensor(np.ones(x_shape)), Parameter("w", np.ones(w_shape)), Parameter("b", np.zeros(b_shape))
    with pytest.raises(ValueError, match=match):
        block(*args, bn_state("bn", width), train=True)
    if x_shape[0] == 1:  # eval mode normalizes a single row
        assert block(*args, bn_state("bn", width), train=False).shape == (1, 4)


# ---------------------------------------------------------------------------
# gaussian nll
# ---------------------------------------------------------------------------


# the scale column that gives sigma = 1: softplus(s) = 1
UNIT_SCALE = math.log(math.e - 1.0)


def test_gaussian_nll_standard_values():
    head = Tensor([[0.0, UNIT_SCALE]])
    val = gaussian_nll([[0.0]], head).value[0, 0]
    np.testing.assert_allclose(val, 0.5 * math.log(2.0 * math.pi), rtol=1e-14)
    val = gaussian_nll([[1.0]], head).value[0, 0]
    np.testing.assert_allclose(val, 0.5 * math.log(2.0 * math.pi) + 0.5, rtol=1e-14)


def test_gaussian_nll_zero_grad_at_mean():
    head = Parameter("head", [[1.7, -0.3], [-0.4, 2.0]])
    backward(gaussian_nll(head.value[:, :1].copy(), head))
    np.testing.assert_array_equal(head.grad[:, 0], 0.0)


def test_gaussian_nll_minimized_at_mean():
    for offset, sign in ((0.1, 1.0), (-0.1, -1.0)):
        head = Parameter("head", [[0.3 + offset, 0.5]])
        backward(gaussian_nll([[0.3]], head))
        assert np.sign(head.grad[0, 0]) == sign


def test_gaussian_nll_rejects_a_head_that_is_not_two_columns_per_target():
    for y, head in (([[0.0]], [[0.0]]), ([[0.0]], [[0.0, 0.0, 0.0]]), ([[0.0], [1.0]], [[0.0, 0.0]]),
                    ([[0.0, 1.0]], [[0.0, 0.0]])):
        with pytest.raises(ValueError, match="nll shape mismatch"):
            gaussian_nll(y, Tensor(head))


def old_head_loss(y, out):
    """The head and its loss as the four taped ops they were."""
    return autodiff_oracle.gaussian_nll(Tensor(y), slice_cols(out, 0, 1), bounded_softplus(slice_cols(out, 1, 2)))


@pytest.mark.parametrize("seed", range(6))
def test_gaussian_nll_equals_the_four_op_composition_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    values = rng.standard_normal((n, 2)) * [1.0, 10.0 ** (seed % 3)]  # scales up to the softplus tails
    y = rng.standard_normal((n, 1))
    new, old = Parameter("new", values), Parameter("old", values.copy())
    loss, ref = gaussian_nll(y, new), old_head_loss(y, old)
    assert np.array_equal(loss.value, ref.value)
    backward(loss)
    backward(ref)
    assert np.array_equal(new.grad, old.grad)


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


def test_parameter_accumulates_into_the_gradient_buffer_it_is_given():
    flat = np.zeros(3)
    w = Parameter("w", [[3.0]], flat[1:2].reshape(1, 1))
    backward(matmul(Tensor([[2.0]]), w))
    np.testing.assert_array_equal(flat, [0.0, 2.0, 0.0])


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
    x, w, bias = rng.standard_normal((6, 4)), Tensor(rng.standard_normal((4, 3))), Tensor(np.zeros((1, 3)))
    state1, state2 = bn_state("a", 3), bn_state("b", 3)
    a = block(x, w, bias, state1, train=True).value
    b = block(x, w, bias, state2, train=True).value
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
    y = rng.standard_normal((5, 1))
    head = Parameter("head", rng.standard_normal((5, 2)) * [1.0, 3.0])

    def build_loss():
        return gaussian_nll(y, head)

    assert_grads_match(lambda: float(build_loss().value[0, 0]), build_loss, [head])


def test_fd_oracle_bounded_softplus():
    x = Parameter("x", np.random.default_rng(5).standard_normal((3, 4)) * 3)
    fd_case(lambda: bounded_softplus(x), [x], seed=12)


def test_fd_layout_and_segment_ops():
    rng = np.random.default_rng(8)
    a = Parameter("a", rng.standard_normal((6, 2)))
    b = Parameter("b", rng.standard_normal((6, 3)))
    scales = rng.uniform(0.5, 2.0, 18)
    mask = (rng.uniform(size=(2, 4, 3)) < 0.6) * rng.uniform(0.5, 2.0, (2, 4, 3))
    fd_case(lambda: concat_cols(a, b), [a, b], seed=14)
    fd_case(lambda: slice_cols(b, 1, 3), [b], seed=15)
    fd_case(lambda: repeat_rows(a, 3), [a], seed=16)
    fd_case(lambda: neighbor_mix(b, mask), [b], seed=17)
    fd_case(lambda: block_mean(b, 3), [b], seed=18)
    fd_case(lambda: row_scale(repeat_rows(b, 3), scales), [b], seed=19)
    # two episodes of four output rows, with two self blocks beside the sums
    rel, count = rng.standard_normal((8, 1)), rng.uniform(0.5, 4.0, 8)
    s1, s2 = Parameter("s1", rng.standard_normal((8, 2))), Parameter("s2", rng.standard_normal((8, 1)))
    fd_case(lambda: neighbor_mean(b, mask, rel, count, (s1, s2)), [b, s1, s2], seed=20)


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


def test_neighbor_mean_values():
    # two episodes of two input rows and three outputs, one self block; the
    # counts are free constants, powers of two here so every quotient is exact
    x = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    mask = np.array([[[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]])
    rel = np.array([[2.0], [1.0], [0.0], [2.0], [0.0], [4.0]])
    own = Tensor([[6.0], [2.0], [5.0], [4.0], [3.0], [8.0]])
    np.testing.assert_array_equal(
        neighbor_mean(x, mask, rel, np.array([2.0, 2.0, 1.0, 2.0, 1.0, 4.0]), (own,)).value,
        [[2.0, 3.0, 1.0, 3.0], [1.5, 2.0, 0.5, 1.0], [0.0, 0.0, 0.0, 5.0],
         [2.5, 3.0, 1.0, 2.0], [0.0, 0.0, 0.0, 3.0], [3.0, 3.5, 1.0, 2.0]],
    )


def test_an_op_of_constants_alone_is_a_constant():
    x, mask, rel, count = np.array([[1.0], [3.0]]), np.ones((1, 2, 2)), np.zeros((2, 1)), np.full(2, 2.0)
    out = neighbor_mean(x, mask, rel, count)
    assert type(out) is np.ndarray and np.array_equal(out, [[2.0, 0.0], [2.0, 0.0]])
    assert type(concat_cols(x, x)) is np.ndarray and np.array_equal(concat_cols(x, x), np.hstack([x, x]))
    own = Tensor([[5.0], [7.0]])  # one Tensor input makes a node of the tape
    assert isinstance(neighbor_mean(x, mask, rel, count, (own,)), Tensor)
    assert isinstance(concat_cols(x, own), Tensor)


NEIGHBOR_MEAN_ROWS = "row mismatch: 6 rows of rel, self features and count expected"


@pytest.mark.parametrize(
    "x_rows, mask_shape, rel_shape, count_shape, self_rows, match",
    [
        (4, (6, 2), (6, 1), (6,), (), "mask"),
        (5, (2, 3, 2), (6, 1), (6,), (), "input rows"),
        (4, (2, 3, 2), (5, 1), (6,), (), NEIGHBOR_MEAN_ROWS),
        (4, (2, 3, 2), (6,), (6,), (), NEIGHBOR_MEAN_ROWS),
        (4, (2, 3, 2), (6, 1), (5,), (), NEIGHBOR_MEAN_ROWS),
        (4, (2, 3, 2), (6, 1), (6, 1), (), NEIGHBOR_MEAN_ROWS),
        (4, (2, 3, 2), (6, 1), (6,), (6, 5), NEIGHBOR_MEAN_ROWS),
    ],
    ids=["mask-rank", "input-rows", "rel-rows", "rel-rank", "count-rows", "count-rank", "self-rows"],
)
def test_neighbor_mean_rejects_mismatched_shapes(x_rows, mask_shape, rel_shape, count_shape, self_rows, match):
    selfs = tuple(Tensor(np.zeros((n, 1))) for n in self_rows)
    with pytest.raises(ValueError, match=match):
        neighbor_mean(Tensor(np.zeros((x_rows, 2))), np.ones(mask_shape), np.zeros(rel_shape), np.ones(count_shape),
                      selfs)


def old_neighbor_mean(x, mask, rel, count, self_feats):
    """The convolution's message mean as three taped ops and a rel leaf."""
    return row_scale(concat_cols(neighbor_mix(x, mask), Tensor(rel), *self_feats), 1.0 / count)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 9), st.integers(1, 12), st.integers(1, 9),
       st.integers(0, 2))
@example(seed=0, b=16, n_in=20, n_out=50, d=8, n_self=2)  # decoder shapes: x_t and the latent beside the sums
@example(seed=1, b=16, n_in=20, n_out=20, d=8, n_self=0)  # encoder shapes
def test_neighbor_mean_equals_the_three_op_composition_bit_for_bit(seed, b, n_in, n_out, d, n_self):
    rng = np.random.default_rng(seed)
    draw = rng.uniform(size=(b, n_in, n_out))
    mask = (draw < rng.uniform()).astype(np.float64)
    if n_self:
        mask[:, :, 0] = 0.0  # output 0 of each episode has only its self message
    else:
        mask[draw == draw.min(axis=1, keepdims=True)] = 1.0  # every output has a neighbor
    mask = mask.transpose(0, 2, 1)  # the transposed input-major view, as radius_neighborhood builds it
    count = mask.sum(axis=2).ravel() + (1.0 if n_self else 0.0)
    rel = rng.standard_normal((b * n_out, 1))
    x_value = rng.standard_normal((b * n_in, d))
    self_values = [rng.standard_normal((b * n_out, width)) for width in (1, int(rng.integers(1, 9)))[:n_self]]
    g = rng.standard_normal((b * n_out, d + 1 + sum(v.shape[1] for v in self_values)))
    results = []
    for op in (neighbor_mean, old_neighbor_mean):
        x, selfs = Tensor(x_value), tuple(map(Tensor, self_values))
        out = op(x, mask, rel, count, selfs)
        reference_backward(out, g)
        results.append((out.value, x.grad, *(t.grad for t in selfs)))
    new, old = results
    assert len(new) == 2 + n_self
    for got, want in zip(new, old):
        assert np.array_equal(got, want)


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
    """Random affine/relu/softplus stacks and affine + batch norm blocks up
    to depth 5, the last layer two wide and scored as a Gaussian head,
    against the oracle."""
    rng = np.random.default_rng(100 + seed)
    depth = seed % 5 + 1
    widths = [3] + [int(rng.integers(2, 6)) for _ in range(depth - 1)] + [2]
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
    y = rng.standard_normal((n, 1))

    def build_loss():
        h = Tensor(x0)
        for w, b, kind, state in layers:
            if kind == "bn":
                h = block(h, w, b, state, train=True, relu=False)
            elif kind == "relu":
                h = relu(affine(h, w, b))
            else:
                h = bounded_softplus(affine(h, w, b))
        return gaussian_nll(y, h)

    loss_fn = lambda: float(build_loss().value[0, 0])
    assert_grads_match(loss_fn, build_loss, params)
