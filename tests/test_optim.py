import numpy as np
import pytest

from cgnp.autodiff import Parameter
from cgnp.models import ModelConfig, init_params
from cgnp.optim import AdamState, adam_step, zero_grads

from optim_oracle import DictAdamState, dict_adam_step


def test_single_step_matches_hand_computation():
    p = Parameter("w", [[0.5]])
    p.grad[...] = 1.0
    state = AdamState(p, lr=1e-3)
    adam_step(state)
    # m_hat = v_hat = 1 after bias correction, so the step is lr/(1 + eps)
    np.testing.assert_allclose(p.value, [[0.5 - 1e-3 / (1.0 + 1e-8)]], atol=1e-15)
    assert state.t == 1
    np.testing.assert_array_equal(p.grad, [[1.0]])  # grads untouched


def test_zero_gradient_is_a_noop_on_values():
    rng = np.random.default_rng(0)
    p = Parameter("w", rng.standard_normal((3, 4)))
    before = p.value.copy()
    state = AdamState(p)
    adam_step(state)
    assert state.t == 1
    assert np.array_equal(p.value, before)  # bit-exact


def test_constant_gradient_moves_monotonically():
    p = Parameter("w", [[0.0]])
    state = AdamState(p, lr=1e-3)
    values = [p.value[0, 0]]
    for _ in range(100):
        p.grad[...] = 2.5
        adam_step(state)
        values.append(p.value[0, 0])
    assert all(b < a for a, b in zip(values, values[1:]))
    assert state.t == 100


def test_negative_gradient_moves_up():
    p = Parameter("w", [[0.0]])
    state = AdamState(p, lr=1e-3)
    for _ in range(10):
        p.grad[...] = -1.0
        adam_step(state)
    assert p.value[0, 0] > 0.0


def test_moments_are_flat_vectors_in_the_layout_of_the_store():
    store = init_params(ModelConfig(kind="cnp", latent_dim=1))
    state = AdamState(store)
    assert state.m.shape == state.v.shape == store.value.shape
    g = np.array([1.0, 2.0])
    store["dec2.b"].grad[...] = g  # the last parameter in the layout
    adam_step(state)
    assert np.array_equal(state.m[-2:], (1.0 - 0.9) * g)
    assert np.array_equal(state.v[-2:], (1.0 - 0.999) * g * g)
    assert not state.m[:-2].any() and not state.v[:-2].any()


def test_zero_grads():
    p = Parameter("w", [[1.0, 2.0]])
    p.grad[...] = 3.0
    zero_grads([p])
    np.testing.assert_array_equal(p.grad, [[0.0, 0.0]])


def test_one_fill_of_the_store_gradient_clears_every_parameter_gradient():
    store = init_params(ModelConfig(kind="cgnp"))
    for p in store.parameters():
        p.grad[...] = 3.0
    assert store.grad.all()
    store.grad.fill(0.0)
    assert all(not p.grad.any() for p in store.parameters())


def test_state_updates_the_store_buffers_in_place():
    store = init_params(ModelConfig(kind="cgnp"))
    before = {name: p.value.copy() for name, p in store.params.items()}
    state = AdamState(store)
    assert state.value is store.value and state.grad is store.grad
    assert state.value.size == sum(v.size for v in before.values())
    store.grad.fill(1.0)
    adam_step(state)
    for name, p in store.params.items():
        assert np.shares_memory(p.value, state.value) and np.shares_memory(p.grad, state.grad)
        np.testing.assert_allclose(p.value, before[name] - 1e-3 / (1.0 + 1e-8), rtol=0, atol=1e-15)


@pytest.mark.parametrize("cfg", [ModelConfig(kind="cnp"), ModelConfig(kind="cgnp")], ids=["cnp", "cgnp"])
def test_packed_update_reproduces_the_per_parameter_oracle(cfg):
    packed, loose = init_params(cfg), init_params(cfg)
    state = AdamState(packed, lr=3e-3)
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
        # the oracle's moments, concatenated in store order, are the flat moments
        assert np.array_equal(state.m, np.concatenate([oracle.m[name].ravel() for name in loose.params]))
        assert np.array_equal(state.v, np.concatenate([oracle.v[name].ravel() for name in loose.params]))
    assert state.t == oracle.t == 50
