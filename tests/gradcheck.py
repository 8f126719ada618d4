"""Central finite-difference gradient checking used across test modules."""

import numpy as np

import oracles


def fd_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. array x, in place.

    f must recompute its value from the current contents of x; x is
    restored after probing.
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest elementwise deviation, normalized by the largest magnitude."""
    scale = max(1e-8, float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def op_max_rel_error(build, arrays, rng) -> float:
    """Largest relative error across the input gradients of one taped op.

    ``build(*tensors)`` returns the op's output; the scalar checked is its
    sum weighted by standard normals from ``rng``, so every output
    element's gradient path counts.
    """
    weights = oracles.constant(
        rng.standard_normal(build(*[oracles.constant(a) for a in arrays]).data.shape))

    def weighted_sum(*tensors):
        return oracles.sum_all(oracles.mul(build(*tensors), weights))

    def loss_value():
        return float(weighted_sum(*[oracles.constant(a) for a in arrays]).data)

    tensors = [oracles.param(a) for a in arrays]
    with oracles.Tape():
        oracles.backward(weighted_sum(*tensors))
    return max(rel_error(t.grad, fd_gradient(loss_value, a)) for t, a in zip(tensors, arrays))
