"""Shared test utilities: the central finite-difference gradient oracle,
gradient clearing, standalone batch-norm states, one-episode batches,
episode-file records and flat predictions."""

from __future__ import annotations

import base64
import json

import numpy as np

from cgnp.autodiff import BatchNormState, Parameter, gaussian_head
from cgnp.gp import EpisodeBatch
from cgnp.models import forward_tensors

H = 1e-4
RTOL = 1e-3
ATOL = 1e-6


def finite_diff_grad(loss_fn, param: Parameter, h: float = H) -> np.ndarray:
    """Central differences of loss_fn() w.r.t. every entry of param.

    loss_fn rebuilds the computation from the param's current value and
    returns a float; entries are perturbed in place and restored.
    """
    grad = np.zeros_like(param.value)
    flat_value = param.value.ravel()
    flat_grad = grad.ravel()
    for i in range(flat_value.size):
        orig = flat_value[i]
        flat_value[i] = orig + h
        up = loss_fn()
        flat_value[i] = orig - h
        down = loss_fn()
        flat_value[i] = orig
        flat_grad[i] = (up - down) / (2.0 * h)
    return grad


def assert_grads_match(loss_fn, build_loss, params, rtol=RTOL, atol=ATOL):
    """Check every param's analytic gradient against finite differences.

    `build_loss()` returns the loss tensor (for the analytic side);
    `loss_fn()` returns its float value (for the oracle side).
    """
    from cgnp.autodiff import backward

    zero_grads(params)
    loss = build_loss()
    backward(loss)
    for p in params:
        expected = finite_diff_grad(loss_fn, p)
        np.testing.assert_allclose(
            p.grad, expected, rtol=rtol, atol=atol, err_msg=f"gradient mismatch for {p.name}"
        )
    zero_grads(params)


def zero_grads(params) -> None:
    """Zero the gradients of some parameters (a store clears all of its
    own with one ``store.grad.fill(0.0)``)."""
    for p in params:
        p.grad[...] = 0.0


def bn_state(name: str, width: int) -> BatchNormState:
    """A batch-norm state of its own arrays, as `init_params` starts every
    layer: gamma ones, beta zeros, running mean 0 and running variance 1."""
    gamma = Parameter(f"{name}.gamma", np.ones((1, width)))
    beta = Parameter(f"{name}.beta", np.zeros((1, width)))
    return BatchNormState(gamma, beta, np.zeros((1, width)), np.ones((1, width)))


def episode(x_c, y_c, x_t, y_t) -> EpisodeBatch:
    """One episode as a batch of one, from four 1-D sequences."""
    return EpisodeBatch(*(np.asarray(a, dtype=np.float64)[None] for a in (x_c, y_c, x_t, y_t)))


def b64(values) -> str:
    """`values` as an episode file holds them: the padded base64 of their
    little-endian doubles."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def episode_record(x_c, y_c, x_t, y_t) -> dict:
    """One episode as the JSON object of its episode-file line."""
    return {"x_c": b64(x_c), "y_c": b64(y_c), "x_t": b64(x_t), "y_t": b64(y_t)}


def episode_line(x_c, y_c, x_t, y_t) -> str:
    """One episode's episode-file line, without its newline."""
    return json.dumps(episode_record(x_c, y_c, x_t, y_t), separators=(",", ":"))


def predict(batch, store, train=False) -> tuple[np.ndarray, np.ndarray]:
    """A forward's (mu, sigma) as flat arrays, targets in episode order."""
    mu, sigma = gaussian_head(forward_tensors(batch, store, train).value)
    return mu.ravel(), sigma.ravel()
