"""Reverse-mode automatic differentiation over dense numpy arrays.

Just enough machinery for a small transformer: a :class:`Tensor` wrapper,
a :class:`Tape` recording forward operations, and backward rules for
matmul, broadcasting add/mul, GELU, softmax, layer normalization,
embedding lookup, dropout, and masked cross-entropy.

GELU, softmax and layer norm are also kernels on raw arrays returning
``(out, backward)``; :func:`emit` records such a kernel as one op.
:func:`log_softmax` is a kernel without a backward: its callers, the
cross-entropies and the decode select, need only its output or write a
simpler backward of their own.

Ops run in whatever float width their inputs carry; training uses 32-bit
and gradient checking builds 64-bit tensors.  Every op verifies its
output is finite and raises :class:`NumericFaultError` otherwise, which
is why attention masking uses a large negative constant rather than -inf.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonScalarLossError, NumericFaultError, RangeError, ShapeMismatchError

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

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


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


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy broadcasting over leading dims."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatchError(f"matmul of {a.data.shape} and {b.data.shape}")
    out = a.data @ b.data

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return emit("matmul", (a, b), out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeMismatchError(f"add of {a.data.shape} and {b.data.shape}") from None

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return emit("add", (a, b), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeMismatchError(f"mul of {a.data.shape} and {b.data.shape}") from None

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return emit("mul", (a, b), out, backward)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s

    def backward(g):
        return (g * s,)

    return emit("scale", (a,), out, backward)


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


def gelu(a: Tensor) -> Tensor:
    """GELU activation, tanh approximation."""
    return emit("gelu", (a,), *gelu_kernel(a.data))


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


def softmax_lastdim(a: Tensor) -> Tensor:
    """Row-stable softmax along the last axis."""
    return emit("softmax_lastdim", (a,), *softmax_kernel(a.data))


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


def layernorm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then affine."""
    d = a.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeMismatchError(
            f"layernorm affine shapes {gain.data.shape}/{bias.data.shape} "
            f"for feature dim {d}"
        )
    return emit("layernorm", (a, gain, bias), *layernorm_kernel(a.data, gain.data, bias.data))


def embed_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of an embedding table by integer id array."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise RangeError(
            f"ids outside [0, {table.data.shape[0]}) passed to embed_lookup"
        )
    out = table.data[ids]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return emit("embed_lookup", (table,), out, backward)


def dropout_mask(shape, p: float, rng: np.random.Generator, dtype) -> np.ndarray:
    """Inverted-dropout multiplier: 0 with probability p, else 1/(1-p)."""
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if not 0.0 <= p < 1.0:
        raise RangeError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    keep = dropout_mask(a.data.shape, p, rng, a.data.dtype)
    out = a.data * keep

    def backward(g):
        return (g * keep,)

    return emit("dropout", (a,), out, backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return emit("reshape", (a,), out, backward)


def transpose(a: Tensor, axes: tuple) -> Tensor:
    out = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return emit("transpose", (a,), out, backward)


def take_index(a: Tensor, index: int) -> Tensor:
    """Select one slice along the leading axis, dropping that axis."""
    if not 0 <= index < a.data.shape[0]:
        raise RangeError(f"index {index} out of range for axis of {a.data.shape[0]}")
    out = a.data[index]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[index] = g
        return (ga,)

    return emit("take_index", (a,), out, backward)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def backward(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return emit("sum_all", (a,), out, backward)


def cross_entropy_masked(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over positions where mask is 1.

    ``targets`` supplies the label id per position; labels at mask-0
    positions are ignored entirely.  An all-zero mask yields loss 0 with
    zero gradients.
    """
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=logits.data.dtype)
    if targets.shape != logits.data.shape[:-1] or mask.shape != targets.shape:
        raise ShapeMismatchError(
            f"cross_entropy_masked logits {logits.data.shape}, "
            f"targets {targets.shape}, mask {mask.shape}"
        )
    x = logits.data
    logp = log_softmax(x)
    idx = np.indices(targets.shape)
    picked = logp[(*idx, targets)]
    denom = mask.sum()
    if denom == 0:
        out = np.asarray(0.0, dtype=x.dtype)
    else:
        out = np.asarray(-(picked * mask).sum() / denom)

    def backward(g):
        if denom == 0:
            return (np.zeros_like(x),)
        probs = np.exp(logp)
        grad = probs * mask[..., None]
        grad[(*idx, targets)] -= mask
        return (grad * (g / denom),)

    return emit("cross_entropy_masked", (logits,), out, backward)


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
