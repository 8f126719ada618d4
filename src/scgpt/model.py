"""Causal transformer language model over dialog-act-prefixed sequences.

Sequences look like ``A' [BOS] x' [EOS]`` where A' is the linearized
dialog act and x' the response; the loss is computed only at positions
whose prediction target lies in the response (first response token
through EOS).  Architecture: learned absolute position embeddings,
pre-layernorm blocks, multi-head causal self-attention, GELU MLP, and an
output head tied to the token embedding.

Each block's two sublayers are written once, as numpy kernels
(:func:`attention_block`, :func:`mlp_block`) that return their output
and a hand-written backward.  The model has one forward per job, and
both run these kernels: the training loss (:func:`nll_loss`) returns
its chain of kernel calls, one link each for its embeddings
(:func:`embed`), every block kernel and its head (:func:`head_loss`),
for :func:`scgpt.autograd.backward` to walk, and :class:`DecodeSession`
runs the block kernels forward only, with its key/value caches.  Tests
hold both forwards to a reference forward in ``tests/oracles.py``,
composed of per-op taped ops written from their definitions, one per
step.

The training loss computes real tokens only.  It packs the examples of
a batch one after another into one [N,d] array of rows, with no padded
[B,T] grid; the embeddings, layer norms, linear layers, MLP and
residuals run on those N rows, and :func:`attention_block` attends
within each example on its own L x L block of them (Krell et al., 2021,
"Efficient sequence packing without cross-contamination"), so the
attention work scales with the sum of L^2, not B * T^2.  The final
layer norm, the tied head and the cross-entropy run on the M loss rows
alone, as one kernel (:func:`head_loss`).  Dropout masks are drawn at
the packed shapes too: [N,d] for rows and [H,L,L] per example for
attention.

Checkpoint format: the text header line ``SCGPT-CKPT v1``, one
``key=value`` config line, then per tensor a ``name dim0 dim1 ...``
metadata line followed by that many raw little-endian float32 bytes and
a trailing newline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import get_type_hints

import numpy as np

from . import autograd as ag
from .bpe import Vocab, encode
from .dialog_act import DialogActSet, linearize
from .errors import (
    ConfigMismatchError,
    ContextOverflowError,
    NumericFaultError,
    RangeError,
    UnknownFormatError,
)

#: Additive attention bias for disallowed positions.  Large but finite so
#: the per-kernel NaN/Inf checks stay meaningful.
NEG_BIAS = -1e9


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    n_layers: int = 4
    n_heads: int = 4
    d_model: int = 128
    d_ff: int = 512
    max_context: int = 256
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("vocab_size", "n_layers", "n_heads", "d_model", "d_ff", "max_context"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


#: Per-layer weights of each sublayer, in the order the kernels take them.
ATTN_WEIGHTS = ("ln1.gain", "ln1.bias", "attn.wqkv", "attn.bqkv", "attn.wo", "attn.bo")
MLP_WEIGHTS = ("ln2.gain", "ln2.bias", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")
#: Weights of the embeddings and of the tied head, as those kernels take them.
EMBED_WEIGHTS = ("tok_emb", "pos_emb")
HEAD_WEIGHTS = ("lnf.gain", "lnf.bias", "tok_emb")


def _param_shapes(cfg: ModelConfig) -> dict:
    d, f = cfg.d_model, cfg.d_ff
    layer_shapes = (
        [(d,), (d,), (d, 3 * d), (3 * d,), (d, d), (d,)]  # ATTN_WEIGHTS
        + [(d,), (d,), (d, f), (f,), (f, d), (d,)]  # MLP_WEIGHTS
    )
    shapes = {"tok_emb": (cfg.vocab_size, d), "pos_emb": (cfg.max_context, d)}
    for i in range(cfg.n_layers):
        for name, shape in zip(ATTN_WEIGHTS + MLP_WEIGHTS, layer_shapes):
            shapes[f"layers.{i}.{name}"] = shape
    shapes["lnf.gain"] = shapes["lnf.bias"] = (d,)
    return shapes


def _layer_names(i: int):
    """The full names of layer i's (attention, MLP) sublayer weights."""
    return tuple(tuple(f"layers.{i}.{n}" for n in ns) for ns in (ATTN_WEIGHTS, MLP_WEIGHTS))


@dataclass
class ModelParams:
    """Named float parameter arrays; the output head shares tok_emb (tied)."""

    config: ModelConfig
    tensors: dict = field(default_factory=dict)

    def named(self):
        return self.tensors.items()

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


INIT_STD = 0.02


def init_params(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelParams:
    """Fresh parameters: N(0, 0.02) matrices, zero biases, unit gains."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _param_shapes(cfg).items():
        if name.endswith(".gain"):
            data = np.ones(shape, dtype=dtype)
        elif name.endswith((".bias", ".b1", ".b2", ".bqkv", ".bo")):
            data = np.zeros(shape, dtype=dtype)
        else:
            data = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
        tensors[name] = data
    return ModelParams(cfg, tensors)


@dataclass(frozen=True)
class LinearizedExample:
    """Token ids plus the 0/1 mask of positions whose prediction counts.

    ``loss_mask[t] == 1`` means position t's next-token prediction (of
    ``ids[t+1]``) enters the loss; ones run from the BOS position through
    the position before EOS.  The last position has no next token, so
    its mask entry must be 0.
    """

    ids: tuple
    loss_mask: tuple

    def __post_init__(self):
        if len(self.ids) != len(self.loss_mask):
            raise ValueError("ids and loss_mask lengths differ")
        if sum(self.loss_mask) < 1:
            raise ValueError("an example needs at least one masked-in target")
        if self.loss_mask[-1]:
            raise ValueError("the last position has no next token to predict")


def build_example(
    acts: DialogActSet, response: str, v: Vocab, max_context: int = 256
) -> LinearizedExample:
    """Linearize (acts, response) into ids and response-only loss mask."""
    prefix = encode(v, linearize(acts))
    body = encode(v, response)
    ids = prefix + [v.bos_id] + body + [v.eos_id]
    if len(ids) > max_context:
        raise ContextOverflowError(
            f"sequence of {len(ids)} tokens (prefix {len(prefix)}, response "
            f"{len(body)}) exceeds max_context {max_context}"
        )
    bos_index = len(prefix)
    mask = [1 if bos_index <= t < len(ids) - 1 else 0 for t in range(len(ids))]
    return LinearizedExample(tuple(ids), tuple(mask))


def build_plain_example(text: str, v: Vocab, max_context: int = 256) -> LinearizedExample:
    """Linearize raw text with every next-token prediction masked in."""
    ids = [v.bos_id] + encode(v, text) + [v.eos_id]
    if len(ids) > max_context:
        raise ContextOverflowError(
            f"text of {len(ids)} tokens exceeds max_context {max_context}"
        )
    mask = [1] * (len(ids) - 1) + [0]
    return LinearizedExample(tuple(ids), tuple(mask))


def pad_batch(batch, pad_id: int):
    """Right-pad examples to a common length.

    Returns (ids [B,T] int array, loss_mask [B,T] float array,
    key_keep [B,T] bool array marking non-PAD positions).

    The training loss does not pad.  This pads the tests' reference
    forward and stays as the lookup site that ``perfbench/tracer.py``
    wraps, until the package records its own spans (ROADMAP item 2).
    """
    T = max(len(ex.ids) for ex in batch)
    B = len(batch)
    ids = np.full((B, T), pad_id, dtype=np.int64)
    mask = np.zeros((B, T), dtype=np.float32)
    keep = np.zeros((B, T), dtype=bool)
    for b, ex in enumerate(batch):
        L = len(ex.ids)
        ids[b, :L] = ex.ids
        mask[b, :L] = ex.loss_mask
        keep[b, :L] = True
    return ids, mask, keep


def _linear_grads(inp: np.ndarray, w: np.ndarray, g: np.ndarray):
    """Gradients (of inp, of w, of b) of the 2-D ``inp @ w + b`` given g."""
    return g @ w.T, inp.T @ g, g.sum(axis=0)


def embed(ids, weights, positions, drop=None):
    """``tok_emb[ids] + pos_emb[positions]`` on raw arrays, ``weights`` being
    (tok_emb, pos_emb); returns (out, backward) like the block kernels,
    ``backward(g)`` giving None for the ids, then the gradients of both
    tables.

    ``ids`` and ``positions`` are integer arrays of one shape, e.g. [B,T]
    or packed [N].  An index outside its table raises
    :class:`RangeError` naming the table and its bound.  ``drop(shape)``
    draws the dropout multipliers of the sum.
    """
    for what, name, table, index in zip(("token ids", "positions"), EMBED_WEIGHTS,
                                        weights, (ids, positions)):
        if index.size and (index.min() < 0 or index.max() >= len(table)):
            raise RangeError(f"{what} outside [0, {len(table)}) of {name} passed to embed")
    tok, pos = weights
    out = tok[ids] + pos[positions]
    mask = drop(out.shape) if drop else None
    if mask is not None:
        out = out * mask

    def backward(g):
        if mask is not None:
            g = g * mask
        dtok, dpos = np.zeros_like(tok), np.zeros_like(pos)
        np.add.at(dtok, ids, g)
        np.add.at(dpos, positions, g)
        return None, dtok, dpos

    return out, backward


def _attend(q, keys, vals, bias, mask=None):
    """Softmax attention of queries q [...,T,dh] over keys and values
    [...,S,dh]: ``bias`` is added to the scaled scores and ``mask``, if
    given, multiplies the probabilities.  Returns (context [...,T,dh],
    the probabilities as applied, the softmax's backward)."""
    scores = q @ keys.swapaxes(-1, -2)
    scores *= q.shape[-1] ** -0.5
    scores += bias
    attn, softmax_backward = ag.softmax_kernel(scores)
    if mask is not None:
        attn = attn * mask
    return attn @ vals, attn, softmax_backward


def attention_block(x, weights, bias, n_heads: int, lengths=None, cache=None, drop=None):
    """``x + attn(ln1(x))`` on raw arrays; returns (out, backward), where
    ``backward(g)`` gives the gradients of x and of each weight.

    ``weights`` are as named by ``ATTN_WEIGHTS``; the layer norm and the
    linear layers run on 2-D rows, one GEMM each, and both layouts below
    share the scores, softmax and context of :func:`_attend`.

    Training: ``x`` [N,d] holds the packed rows of examples of
    ``lengths`` tokens, one after another.  Each example attends on its
    own [H,L,dh] slice of the QKV rows, under ``bias[:L,:L]`` of a [T,T]
    causal bias, and writes its context straight back into its rows.
    ``drop(shape)`` draws the dropout multipliers of each example's
    [H,L,L] attention probabilities, example by example, then of the
    [N,d] output.

    Decoding: ``x`` is [B,T,d], ``bias`` broadcasts to the [B,H,T,S]
    scores, and ``cache=(keys, vals, lo)`` stores the new keys and
    values at columns lo..lo+T of the [B,H,max_len,dh] buffers and
    attends over columns 0..lo+T.  No dropout; backward is None.
    """
    ln_g, ln_b, wqkv, bqkv, wo, bo = weights
    d = x.shape[-1]
    dh = d // n_heads
    x2 = x.reshape(-1, d)
    h, ln_backward = ag.layernorm_kernel(x2, ln_g, ln_b)
    qkv = h @ wqkv + bqkv
    if cache is not None:
        B, T = x.shape[:2]
        q, keys, vals = qkv.reshape(B, T, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
        k_buf, v_buf, lo = cache
        k_buf[:, :, lo : lo + T], v_buf[:, :, lo : lo + T] = keys, vals
        ctx = _attend(q, k_buf[:, :, : lo + T], v_buf[:, :, : lo + T], bias)[0]
        ctx = ctx.transpose(0, 2, 1, 3).reshape(B * T, d)
        return (x2 + ctx @ wo + bo).reshape(x.shape), None

    def heads(rows_qkv):  # [L,3d] rows -> [3,H,L,dh] view
        return rows_qkv.reshape(len(rows_qkv), 3, n_heads, dh).transpose(1, 2, 0, 3)

    ctx = np.empty_like(h)
    saved, start = [], 0
    for L in lengths:
        rows = slice(start, start + L)
        start += L
        q, keys, vals = heads(qkv[rows])
        mask = drop((n_heads, L, L)) if drop else None
        c, attn, softmax_backward = _attend(q, keys, vals, bias[:L, :L], mask)
        ctx.reshape(-1, n_heads, dh)[rows] = c.swapaxes(0, 1)
        saved.append((rows, q, keys, vals, mask, attn, softmax_backward))
    o = ctx @ wo
    out_mask = drop(o.shape) if drop else None
    out = x2 + o + bo if out_mask is None else x2 + (o + bo) * out_mask

    def backward(g):
        go = g if out_mask is None else g * out_mask
        dctx, dwo, dbo = _linear_grads(ctx, wo, go)
        dctx = dctx.reshape(-1, n_heads, dh)
        dqkv = np.empty_like(qkv)
        for rows, q, keys, vals, mask, attn, softmax_backward in saved:
            dc = dctx[rows].swapaxes(0, 1)  # [H,L,dh]
            dattn = dc @ vals.swapaxes(-1, -2)
            if mask is not None:
                dattn *= mask
            dscores = softmax_backward(dattn)[0] * dh**-0.5
            dq, dk, dv = heads(dqkv[rows])
            dq[...] = dscores @ keys
            dk[...] = dscores.swapaxes(-1, -2) @ q
            dv[...] = attn.swapaxes(-1, -2) @ dc
        dh_, dwqkv, dbqkv = _linear_grads(h, wqkv, dqkv)
        dx, dln_g, dln_b = ln_backward(dh_)
        return g + dx, dln_g, dln_b, dwqkv, dbqkv, dwo, dbo

    return out, backward


def mlp_block(x, weights, drop=None):
    """``x + mlp(gelu(ln2(x)))`` on raw arrays, ``weights`` as named by
    ``MLP_WEIGHTS``; otherwise like :func:`attention_block`.  Token-wise,
    so ``x`` may be [B,T,d] or packed rows [N,d]."""
    ln_g, ln_b, w1, b1, w2, b2 = weights
    shape = x.shape
    x2 = x.reshape(-1, shape[-1])
    h, ln_backward = ag.layernorm_kernel(x2, ln_g, ln_b)
    a, gelu_backward = ag.gelu_kernel(h @ w1 + b1)
    o = a @ w2
    out_mask = drop(o.shape) if drop else None
    out = x2 + o + b2 if out_mask is None else x2 + (o + b2) * out_mask

    def backward(g):
        g = g.reshape(x2.shape)
        go = g if out_mask is None else g * out_mask
        da, dw2, db2 = _linear_grads(a, w2, go)
        dh_, dw1, db1 = _linear_grads(h, w1, gelu_backward(da)[0])
        dx, dln_g, dln_b = ln_backward(dh_)
        return (g + dx).reshape(shape), dln_g, dln_b, dw1, db1, dw2, db2

    return out.reshape(shape), backward


def head_loss(x, weights, rows, targets):
    """Mean cross-entropy of the tied head at chosen rows of x [N,d]; returns
    (loss, backward) like the block kernels.

    ``weights`` are (lnf.gain, lnf.bias, tok_emb).  Only the M rows
    ``rows`` go through the final layer norm and ``h @ tok_emb.T``, and
    row ``rows[j]`` is scored against token ``targets[j]``.
    """
    ln_g, ln_b, emb = weights
    h, ln_backward = ag.layernorm_kernel(x[rows], ln_g, ln_b)
    logp = ag.log_softmax(h @ emb.T)
    picked = np.arange(len(rows)), targets
    loss = np.asarray(-logp[picked].sum() / len(rows))

    def backward(g):
        dlogits = np.exp(logp)
        dlogits[picked] -= 1.0
        dlogits *= g / len(rows)
        dh, demb = dlogits @ emb, dlogits.T @ h
        dx_rows, dln_g, dln_b = ln_backward(dh)
        dx = np.zeros_like(x)
        dx[rows] = dx_rows
        return dx, dln_g, dln_b, demb

    return loss, backward


def _link(chain: list, kernel, x, params: ModelParams, names, *args, **kwargs):
    """``kernel`` on x and the weights ``names``; appends the link
    ``(names, backward)`` to ``chain`` and returns the output.  A NaN or
    Inf in the output raises :class:`NumericFaultError`."""
    out, backward = kernel(x, [params[n] for n in names], *args, **kwargs)
    if not np.isfinite(out).all():
        raise NumericFaultError(f"non-finite values produced by {kernel.__name__}")
    chain.append((names, backward))
    return out


def nll_loss(params: ModelParams, batch, rng: np.random.Generator | None = None):
    """Mean masked next-token negative log-likelihood over a batch.

    Returns ``(loss, chain)``: the 0-d loss array and its kernel chain
    for :func:`scgpt.autograd.backward`.  Runs on packed rows (see the
    module docstring), built straight from the examples, where a loss
    row's target is the id one row on, and calls only kernels, each one
    link of the chain: :func:`embed`, then per layer
    :func:`attention_block` and :func:`mlp_block`, then
    :func:`head_loss`, 2 * n_layers + 2 links in all.  A token id
    outside the vocabulary or a sequence longer than ``max_context``
    raises :class:`RangeError`, a non-finite kernel output
    :class:`NumericFaultError`.  ``rng`` enables dropout (training);
    None runs deterministically.  Each dropout mask is drawn at the
    shape it is applied to, in the order embeddings ([N,d]), then per
    layer the attention probabilities ([H,L,L], example by example), the
    attention output and the MLP output ([N,d] each).
    """
    cfg = params.config
    lengths = [len(ex.ids) for ex in batch]
    ids = np.concatenate([ex.ids for ex in batch])
    positions = np.concatenate([np.arange(L) for L in lengths])
    rows = np.flatnonzero(np.concatenate([ex.loss_mask for ex in batch]))
    dtype = params["tok_emb"].dtype
    p_drop = cfg.dropout if rng is not None else 0.0
    drop = partial(ag.dropout_mask, p=p_drop, rng=rng, dtype=dtype) if p_drop else None
    T = max(lengths)
    causal = np.triu(np.full((T, T), NEG_BIAS, dtype=dtype), 1)
    chain = []
    x = _link(chain, embed, ids, params, EMBED_WEIGHTS, positions, drop=drop)
    for i in range(cfg.n_layers):
        attn_names, mlp_names = _layer_names(i)
        x = _link(chain, attention_block, x, params, attn_names, causal, cfg.n_heads, lengths,
                  drop=drop)
        x = _link(chain, mlp_block, x, params, mlp_names, drop=drop)
    loss = _link(chain, head_loss, x, params, HEAD_WEIGHTS, rows, ids[rows + 1])
    return loss, chain


CKPT_MAGIC = "SCGPT-CKPT v1"


def save_checkpoint(params: ModelParams, path) -> None:
    """Write config and all tensors as raw little-endian float32."""
    cfg = params.config
    with open(path, "wb") as f:
        f.write((CKPT_MAGIC + "\n").encode("ascii"))
        cfg_line = " ".join(f"{k}={v}" for k, v in asdict(cfg).items())
        f.write((cfg_line + "\n").encode("ascii"))
        for name, tensor in params.named():
            arr = np.ascontiguousarray(tensor, dtype="<f4")
            meta = " ".join([name] + [str(s) for s in arr.shape])
            f.write((meta + "\n").encode("ascii"))
            f.write(arr.tobytes())
            f.write(b"\n")


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint, validating every tensor shape against the config."""
    with open(path, "rb") as f:
        if f.readline().decode("ascii", "replace").strip() != CKPT_MAGIC:
            raise UnknownFormatError(f"{path}: not a {CKPT_MAGIC} checkpoint")
        types = get_type_hints(ModelConfig)
        values = {}
        for item in f.readline().decode("ascii", "replace").split():
            k, _, v = item.partition("=")
            if k not in types:
                raise ConfigMismatchError(f"{path}: unknown config field {k!r}")
            try:
                values[k] = types[k](v)
            except ValueError:
                raise ConfigMismatchError(
                    f"{path}: {k} needs a {types[k].__name__}, got {v!r}"
                ) from None
        missing = set(types) - set(values)
        if missing:
            raise ConfigMismatchError(f"{path}: config line missing {sorted(missing)}")
        try:
            cfg = ModelConfig(**values)
        except ValueError as e:
            raise ConfigMismatchError(f"{path}: {e}") from None
        expected = _param_shapes(cfg)
        tensors = {}
        for name, shape in expected.items():
            meta = f.readline().decode("ascii", "replace").split()
            if not meta or meta[0] != name:
                raise ConfigMismatchError(
                    f"{path}: expected tensor {name!r}, found {meta[:1] or 'EOF'}"
                )
            dims = [str(d) for d in shape]
            if meta[1:] != dims:
                raise ConfigMismatchError(
                    f"{path}: tensor {name} has shape {' '.join(meta[1:])!r}, "
                    f"config implies {' '.join(dims)!r}"
                )
            n = int(np.prod(shape, dtype=np.int64))
            raw = f.read(4 * n)
            if len(raw) != 4 * n:
                raise ConfigMismatchError(f"{path}: truncated tensor {name}")
            tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
            if f.read(1) != b"\n":
                raise ConfigMismatchError(f"{path}: no newline after tensor {name}")
        if f.read(1):
            raise ConfigMismatchError(f"{path}: bytes after the last tensor")
    return ModelParams(cfg, tensors)


class DecodeSession:
    """Incremental batched decoding with per-layer key/value caches.

    Runs the same sublayer kernels as :func:`nll_loss`, on raw float32
    numpy, forward only.  :func:`attention_block` shares its layer
    norm, linear layers and its scores, softmax and context code with
    training, but runs them batched on the dense [B,T] layout under a
    key bias, writing each new column's keys and values into the
    caches.  Rows may be left-padded: pass per-row position indices and
    mark PAD slots in the key mask.  Logits match a full re-forward to
    within float32 noise.

    All rows share the ``max_len`` buffer columns, so left-padded rows
    with their own step budgets may need more columns than
    ``max_context``; the context bound applies to positions instead.  An
    ``append`` with a position at or beyond ``max_context``, or past the
    buffer, raises :class:`ContextOverflowError`.

    :meth:`take` rebuilds the batch from chosen rows: it keeps, drops or
    repeats rows together with their caches, so one prefill can serve
    several rows with the same prefix and finished rows can leave the
    batch.

    The session keeps the tied head once, as a contiguous [d,V] copy of
    ``tok_emb.T``: at a few rows the matmul with it is several times
    faster than with the strided view.  From three rows up the logits
    have the same bits as with the view; at one or two rows numpy takes
    a matrix-vector path that may round differently, within float32
    noise.
    """

    def __init__(self, params: ModelParams, batch_size: int, max_len: int):
        cfg = params.config
        self.cfg = cfg
        self.B = batch_size
        self.max_len = max_len
        self.t = 0  # filled columns
        dh = cfg.d_model // cfg.n_heads
        shape = (cfg.n_layers, batch_size, cfg.n_heads, max_len, dh)
        self._k = np.zeros(shape, dtype=np.float32)
        self._v = np.zeros(shape, dtype=np.float32)
        # additive key bias of every filled column: 0, or NEG_BIAS at PAD
        self._bias = np.zeros((batch_size, max_len), dtype=np.float32)
        self._w = {name: t.astype(np.float32, copy=False) for name, t in params.named()}
        self._layers = [[[self._w[n] for n in names] for names in _layer_names(i)]
                        for i in range(cfg.n_layers)]
        self._head = np.ascontiguousarray(self._w["tok_emb"].T)

    def append(self, ids: np.ndarray, positions: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Feed T new columns for every row; returns last-column logits [B,V].

        ``ids``, ``positions``, ``keep`` are [B,T]; keep=False marks PAD
        slots that must never be attended to.
        """
        cfg, w = self.cfg, self._w
        B, T = ids.shape
        if B != self.B:
            raise ValueError(f"session built for batch {self.B}, got {B}")
        lo, hi = self.t, self.t + T
        if hi > self.max_len:
            raise ContextOverflowError(
                f"appending {T} to {lo} filled exceeds buffer {self.max_len}"
            )
        if positions.max() >= cfg.max_context:
            raise ContextOverflowError(
                f"position {positions.max()} is beyond max_context {cfg.max_context}"
            )
        self._bias[:, lo:hi] = np.where(keep, 0.0, NEG_BIAS)
        if T == 1:
            bias = self._bias[:, None, None, :hi]
        else:  # each new column attends the kept keys at or before it
            bias = np.where(np.tri(T, hi, lo, dtype=bool), self._bias[:, None, :hi],
                            np.float32(NEG_BIAS))[:, None]

        x = w["tok_emb"][ids] + w["pos_emb"][positions]
        for i, (attn_w, mlp_w) in enumerate(self._layers):
            cache = (self._k[i], self._v[i], lo)
            x, _ = attention_block(x, attn_w, bias, cfg.n_heads, cache=cache)
            x, _ = mlp_block(x, mlp_w)
        self.t = hi
        x_last, _ = ag.layernorm_kernel(x[:, -1], w["lnf.gain"], w["lnf.bias"])
        return x_last @ self._head

    def take(self, index) -> None:
        """Make row ``r`` of the batch a copy of current row ``index[r]``."""
        index = np.asarray(index, dtype=np.intp)
        self._k = self._k[:, index]
        self._v = self._v[:, index]
        self._bias = self._bias[index]
        self.B = len(index)
