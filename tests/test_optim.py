import numpy as np
import pytest

from cgnp.autodiff import Parameter
from cgnp.models import ModelConfig, init_params
from cgnp.optim import AdamState, adam_step, zero_grads

from optim_oracle import DictAdamState, dict_adam_step


def test_single_step_matches_hand_computation():
    p = Parameter("w", [[0.5]])
    p.grad[...] = 1.0
    state = AdamState([p], lr=1e-3)
    adam_step(state)
    # m_hat = v_hat = 1 after bias correction, so the step is lr/(1 + eps)
    np.testing.assert_allclose(p.value, [[0.5 - 1e-3 / (1.0 + 1e-8)]], atol=1e-15)
    assert state.t == 1
    np.testing.assert_array_equal(p.grad, [[1.0]])  # grads untouched


def test_zero_gradient_is_a_noop_on_values():
    rng = np.random.default_rng(0)
    p = Parameter("w", rng.standard_normal((3, 4)))
    before = p.value.copy()
    state = AdamState([p])
    adam_step(state)
    assert state.t == 1
    assert np.array_equal(p.value, before)  # bit-exact


def test_constant_gradient_moves_monotonically():
    p = Parameter("w", [[0.0]])
    state = AdamState([p], lr=1e-3)
    values = [p.value[0, 0]]
    for _ in range(100):
        p.grad[...] = 2.5
        adam_step(state)
        values.append(p.value[0, 0])
    assert all(b < a for a, b in zip(values, values[1:]))
    assert state.t == 100


def test_negative_gradient_moves_up():
    p = Parameter("w", [[0.0]])
    state = AdamState([p], lr=1e-3)
    for _ in range(10):
        p.grad[...] = -1.0
        adam_step(state)
    assert p.value[0, 0] > 0.0


def test_moments_track_parameters_by_name():
    a = Parameter("a", [[1.0]])
    b = Parameter("b", [[1.0, 2.0]])
    state = AdamState([a, b])
    assert state.m["a"].shape == (1, 1)
    assert state.v["b"].shape == (1, 2)
    with pytest.raises(ValueError, match="unique"):
        AdamState([a, Parameter("a", [[2.0]])])


def test_zero_grads():
    p = Parameter("w", [[1.0, 2.0]])
    p.grad[...] = 3.0
    zero_grads([p])
    np.testing.assert_array_equal(p.grad, [[0.0, 0.0]])


def test_zero_grads_of_a_state_clears_every_packed_gradient():
    params = [Parameter("a", [[1.0]]), Parameter("b", [[1.0, 2.0]])]
    state = AdamState(params)
    for p in params:
        p.grad[...] = 3.0
    zero_grads(state)
    assert not state.grad.any()
    assert all(not p.grad.any() for p in params)


def test_state_takes_over_parameter_storage():
    store = init_params(ModelConfig(kind="cgnp"))
    before = {name: p.value.copy() for name, p in store.params.items()}
    state = AdamState(store.parameters())
    assert state.value.size == sum(v.size for v in before.values())
    for name, p in store.params.items():
        assert np.array_equal(p.value, before[name])  # packing copies the values over
        assert np.shares_memory(p.value, state.value) and np.shares_memory(p.grad, state.grad)
        assert np.shares_memory(state.m[name], state.m_flat) and np.shares_memory(state.v[name], state.v_flat)


@pytest.mark.parametrize("cfg", [ModelConfig(kind="cnp"), ModelConfig(kind="cgnp")], ids=["cnp", "cgnp"])
def test_packed_update_reproduces_the_per_parameter_oracle(cfg):
    packed, loose = init_params(cfg), init_params(cfg)
    state = AdamState(packed.parameters(), lr=3e-3)
    oracle = DictAdamState(loose.parameters(), lr=3e-3)
    rng = np.random.default_rng(4)
    for _ in range(50):
        for name, p in loose.params.items():
            p.grad[...] = rng.standard_normal(p.grad.shape) * rng.uniform(0.01, 10.0)
            packed[name].grad[...] = p.grad
        adam_step(state)
        dict_adam_step(loose.parameters(), oracle)
        for name, p in loose.params.items():
            assert np.array_equal(packed[name].value, p.value), name
            assert np.array_equal(state.m[name], oracle.m[name]), name
            assert np.array_equal(state.v[name], oracle.v[name]), name
    assert state.t == oracle.t == 50
