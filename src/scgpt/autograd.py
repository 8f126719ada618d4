"""Reverse-mode automatic differentiation over dense numpy arrays.

Just enough machinery for the model's taped loss: a :class:`Tensor`
wrapper, a :class:`Tape` recording forward operations, :func:`emit`,
which records a kernel's output and backward as one op, and
:func:`backward`, which replays the tape in reverse.

The kernels that the model's blocks, its loss and the decode select
share live here too.  GELU, softmax and layer norm run on raw arrays and
return ``(out, backward)``.  :func:`log_softmax` has no backward: its
callers, the head's cross-entropy and the decode select, need only its
output or write a simpler backward of their own.  :func:`dropout_mask`
draws the inverted-dropout multipliers.

Kernels run in whatever float width their inputs carry; training uses
32-bit and gradient checking builds 64-bit tensors.  :func:`emit`
verifies each output is finite and raises :class:`NumericFaultError`
otherwise, which is why attention masking uses a large negative
constant rather than -inf.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonScalarLossError, NumericFaultError

_active_tape = None


class Tape:
    """Records operations for one forward pass; context-manager scoped.

    Backward replays the records in exact reverse order, accumulating
    gradients additively across fan-out.
    """

    def __init__(self):
        self._records = []

    def __enter__(self):
        global _active_tape
        if _active_tape is not None:
            raise RuntimeError("a Tape is already active")
        _active_tape = self
        return self

    def __exit__(self, *exc):
        global _active_tape
        _active_tape = None
        return False


class Tensor:
    """A dense array plus grad bookkeeping.  Data is never mutated by ops."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def emit(op: str, parents, out_data: np.ndarray, backward) -> Tensor:
    """Record ``out_data`` as op ``op`` on ``parents``; ``backward(g)``
    returns one gradient (or None) per parent.  Raises
    :class:`NumericFaultError` on NaN or Inf."""
    if not np.isfinite(out_data).all():
        raise NumericFaultError(f"non-finite values produced by {op}")
    out = Tensor(out_data, requires_grad=any(p.requires_grad for p in parents))
    if _active_tape is not None and out.requires_grad:
        _active_tape._records.append((out, parents, backward))
    return out


GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715


def gelu_kernel(x: np.ndarray):
    """GELU, tanh approximation; returns (out, backward)."""
    t = np.tanh(GELU_C * (x + GELU_A * (x * x * x)))
    out = 0.5 * x * (1.0 + t)

    def backward(g):
        du = GELU_C * (1.0 + 3.0 * GELU_A * x**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du),)

    return out, backward


def softmax_kernel(x: np.ndarray):
    """Row-stable softmax over the last axis; returns (out, backward)."""
    out = np.exp(x - x.max(axis=-1, keepdims=True))
    out /= out.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return out, backward


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-stable log-softmax over the last axis, in the width of x."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


LAYERNORM_EPS = 1e-5


def layernorm_kernel(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm over the last axis, then affine; returns (out, backward)."""
    n = x.shape[-1]
    # the same bits as x.mean and x.var, without their wrappers' overhead
    mu = np.add.reduce(x, -1, keepdims=True) / n
    xc = x - mu
    std = np.sqrt(np.add.reduce(xc * xc, -1, keepdims=True) / n + LAYERNORM_EPS)
    y = xc / std
    out = y * gain + bias

    def backward(g):
        sum_axes = tuple(range(g.ndim - 1))
        gy = g * gain
        dx = gy - gy.mean(axis=-1, keepdims=True) - y * (gy * y).mean(axis=-1, keepdims=True)
        return dx / std, (g * y).sum(axis=sum_axes), g.sum(axis=sum_axes)

    return out, backward


def dropout_mask(shape, p: float, rng: np.random.Generator, dtype) -> np.ndarray:
    """Inverted-dropout multiplier: 0 with probability p, else 1/(1-p)."""
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the active tape.

    Stores on ``tensor.grad`` the gradient of each requires_grad
    :class:`Tensor` reached.
    """
    if _active_tape is None:
        raise RuntimeError("backward requires an active Tape")
    if loss.data.size != 1:
        raise NonScalarLossError(f"loss has shape {loss.data.shape}, expected scalar")
    grads = {id(loss): np.ones_like(loss.data)}
    seen = {id(loss): loss}
    for out, parents, rule in reversed(_active_tape._records):
        g = grads.get(id(out))
        if g is None:
            continue
        parent_grads = rule(g)
        for parent, pg in zip(parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg
            seen[id(parent)] = parent
    for tid, tensor in seen.items():
        tensor.grad = grads[tid]
