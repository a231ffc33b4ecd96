"""Build a small network with the autodiff kernel and verify its gradients.

Every layer op registers an exact backward rule. Here we stack
affine -> batch norm -> relu -> affine -> bounded softplus into a Gaussian
NLL and compare every analytic gradient entry against central finite
differences.
"""

import numpy as np

from cgnp import BatchNormState, Parameter, Tensor, backward
from cgnp.autodiff import affine, batch_norm, bounded_softplus, gaussian_nll, relu, slice_cols

rng = np.random.default_rng(1)
n, d_in, d_hidden = 12, 3, 6

x = Tensor(rng.standard_normal((n, d_in)))
y = Tensor(rng.standard_normal((n, 1)))
w1 = Parameter("w1", rng.standard_normal((d_in, d_hidden)) * 0.6)
b1 = Parameter("b1", np.zeros((1, d_hidden)))
bn = BatchNormState(
    gamma=Parameter("bn.gamma", np.ones((1, d_hidden))),
    beta=Parameter("bn.beta", np.zeros((1, d_hidden))),
    running_mean=np.zeros((1, d_hidden)),
    running_var=np.ones((1, d_hidden)),
)
w2 = Parameter("w2", rng.standard_normal((d_hidden, 2)) * 0.6)
b2 = Parameter("b2", np.zeros((1, 2)))
params = [w1, b1, bn.gamma, bn.beta, w2, b2]


def loss_tensor():
    h = relu(batch_norm(affine(x, w1, b1), bn, train=True))
    out = affine(h, w2, b2)
    return gaussian_nll(y, slice_cols(out, 0, 1), bounded_softplus(slice_cols(out, 1, 2)))


loss = loss_tensor()
print(f"loss = {loss.value[0, 0]:.6f}")
backward(loss)

h = 1e-4
print(f"\n{'parameter':<10} {'max |analytic - fd|':>20} {'max |analytic|':>16}")
for p in params:
    analytic = p.grad.copy()
    fd = np.zeros_like(p.value)
    flat, fg = p.value.ravel(), fd.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(loss_tensor().value[0, 0])
        flat[i] = orig - h
        down = float(loss_tensor().value[0, 0])
        flat[i] = orig
        fg[i] = (up - down) / (2 * h)
    gap = np.max(np.abs(analytic - fd))
    print(f"{p.name:<10} {gap:>20.3e} {np.max(np.abs(analytic)):>16.3e}")
    assert np.allclose(analytic, fd, rtol=1e-3, atol=1e-6)

for p in params:
    p.grad[...] = 0.0
print("\nall gradients match central finite differences (rtol 1e-3, atol 1e-6)")
