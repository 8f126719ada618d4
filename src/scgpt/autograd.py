"""The numpy kernels the model's loss and decoding share, and the
backward pass of the loss's kernel chain.

GELU, softmax and layer norm run on raw arrays and return
``(out, backward)``.  :func:`log_softmax` has no backward: its callers,
the head's cross-entropy and the decode select, need only its output or
write a simpler backward of their own.  :func:`dropout_mask` draws the
inverted-dropout multipliers.

The training loss is a fixed chain of kernels, each recorded as one
link ``(names, rule)``: the names of the weights the kernel took and its
backward.  :func:`backward` walks that chain in reverse and returns the
gradient of every named weight.

Kernels run in whatever float width their inputs carry; training uses
32-bit and gradient checking 64-bit weights.
"""

from __future__ import annotations

import math

import numpy as np

GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715


def gelu_kernel(x: np.ndarray):
    """GELU, tanh approximation; returns (out, backward)."""
    x2 = x * x  # the same bits as x**2, kept for the backward
    t = np.tanh(GELU_C * (x + GELU_A * (x2 * x)))
    out = 0.5 * x * (1.0 + t)

    def backward(g):
        du = GELU_C * (1.0 + 3.0 * GELU_A * x2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),)

    return out, backward


def softmax_kernel(x: np.ndarray):
    """Row-stable softmax over the last axis; returns (out, backward)."""
    # the same bits as x.max and out.sum, without their wrappers' overhead;
    # exp and the division overwrite the shifted scores, the only temporary
    out = x - np.maximum.reduce(x, -1, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, -1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return out, backward


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-stable log-softmax over the last axis, in the width of x."""
    shifted = x - np.maximum.reduce(x, -1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), -1, keepdims=True))


LAYERNORM_EPS = 1e-5


def layernorm_kernel(x: np.ndarray, gain: np.ndarray | None, bias: np.ndarray | None):
    """Layer norm over the last axis, then affine; returns (out, backward).

    With ``gain`` and ``bias`` None the affine is skipped: the output has
    the bits of a unit gain and zero bias, for a forward that folded the
    affine into the weights after it; only the forward may skip it.
    """
    n = x.shape[-1]
    # the same bits as x.mean and x.var, without their wrappers' overhead
    mu = np.add.reduce(x, -1, keepdims=True) / n
    xc = x - mu
    std = np.sqrt(np.add.reduce(xc * xc, -1, keepdims=True) / n + LAYERNORM_EPS)
    y = xc / std
    out = y if gain is None else y * gain + bias

    def backward(g):
        sum_axes = tuple(range(g.ndim - 1))
        gy = g * gain
        dx = gy - gy.mean(axis=-1, keepdims=True) - y * (gy * y).mean(axis=-1, keepdims=True)
        return dx / std, (g * y).sum(axis=sum_axes), g.sum(axis=sum_axes)

    return out, backward


def dropout_mask(shape, p: float, rng: np.random.Generator, dtype) -> np.ndarray:
    """Inverted-dropout multiplier: 0 with probability p, else 1/(1-p)."""
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


def backward(loss: np.ndarray, chain) -> dict:
    """Gradients of the scalar ``loss`` by weight name, keyed in the
    chain's forward order.

    ``chain`` holds the loss's links first to last; a link's ``rule(g)``
    maps the gradient of its output to the gradient of its input (None
    for the first link's token ids) followed by one gradient per name.
    A name that several links take sums their gradients, the later
    link's first.
    """
    grads = dict.fromkeys(name for names, _ in chain for name in names)
    g = np.ones_like(loss)
    for names, rule in reversed(chain):
        g, *weight_grads = rule(g)
        for name, wg in zip(names, weight_grads):
            grads[name] = wg if grads[name] is None else grads[name] + wg
    return grads
