"""Causal transformer language model over dialog-act-prefixed sequences.

Sequences look like ``A' [BOS] x' [EOS]`` where A' is the linearized
dialog act and x' the response; the loss is computed only at positions
whose prediction target lies in the response (first response token
through EOS).  Architecture: learned absolute position embeddings,
pre-layernorm blocks, multi-head causal self-attention, GELU MLP, and an
output head tied to the token embedding.

Checkpoint format: the text header line ``SCGPT-CKPT v1``, one
``key=value`` config line, then per tensor a ``name dim0 dim1 ...``
metadata line followed by that many raw little-endian float32 bytes and
a trailing newline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .bpe import Vocab, encode
from .dialog_act import DialogActSet, linearize
from .errors import ConfigMismatchError, ContextOverflowError, UnknownFormatError

#: Additive attention bias for disallowed positions.  Large but finite so
#: the per-op NaN/Inf checks stay meaningful.
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


def _param_shapes(cfg: ModelConfig) -> dict:
    shapes = {
        "tok_emb": (cfg.vocab_size, cfg.d_model),
        "pos_emb": (cfg.max_context, cfg.d_model),
    }
    d, f = cfg.d_model, cfg.d_ff
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        shapes[p + "ln1.gain"] = (d,)
        shapes[p + "ln1.bias"] = (d,)
        shapes[p + "attn.wqkv"] = (d, 3 * d)
        shapes[p + "attn.bqkv"] = (3 * d,)
        shapes[p + "attn.wo"] = (d, d)
        shapes[p + "attn.bo"] = (d,)
        shapes[p + "ln2.gain"] = (d,)
        shapes[p + "ln2.bias"] = (d,)
        shapes[p + "mlp.w1"] = (d, f)
        shapes[p + "mlp.b1"] = (f,)
        shapes[p + "mlp.w2"] = (f, d)
        shapes[p + "mlp.b2"] = (d,)
    shapes["lnf.gain"] = (d,)
    shapes["lnf.bias"] = (d,)
    return shapes


@dataclass
class ModelParams:
    """Named parameter tensors; the output head shares tok_emb (tied)."""

    config: ModelConfig
    tensors: dict = field(default_factory=dict)

    def named(self):
        return self.tensors.items()

    def __getitem__(self, name: str) -> Tensor:
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
        tensors[name] = ag.param(data)
    return ModelParams(cfg, tensors)


def zero_params(cfg: ModelConfig, dtype=np.float32) -> ModelParams:
    """All-zero parameters (gains included); the model is exactly uniform."""
    return ModelParams(
        cfg,
        {
            name: ag.param(np.zeros(shape, dtype=dtype))
            for name, shape in _param_shapes(cfg).items()
        },
    )


@dataclass(frozen=True)
class LinearizedExample:
    """Token ids plus the 0/1 mask of positions whose prediction counts.

    ``loss_mask[t] == 1`` means position t's next-token prediction (of
    ``ids[t+1]``) enters the loss; ones run from the BOS position through
    the position before EOS.
    """

    ids: tuple
    loss_mask: tuple

    def __post_init__(self):
        if len(self.ids) != len(self.loss_mask):
            raise ValueError("ids and loss_mask lengths differ")
        if sum(self.loss_mask) < 1:
            raise ValueError("an example needs at least one masked-in target")


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


def _attention_bias(keep: np.ndarray, dtype) -> np.ndarray:
    # [B,1,T,T]: query t may attend key s iff s <= t and key s is not PAD
    B, T = keep.shape
    causal = np.tril(np.ones((T, T), dtype=bool))
    allowed = causal[None, :, :] & keep[:, None, :]
    return np.where(allowed, 0.0, NEG_BIAS).astype(dtype)[:, None, :, :]


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ag.add(ag.matmul(x, w), b)


def forward_logits(
    params: ModelParams,
    ids: np.ndarray,
    keep: np.ndarray,
    positions: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the transformer; returns pre-softmax logits [B,T,vocab].

    ``rng`` enables dropout (training); None runs deterministically.
    ``positions`` overrides the default 0..T-1 per row (used by left-padded
    incremental decoding).
    """
    cfg = params.config
    B, T = ids.shape
    H, d = cfg.n_heads, cfg.d_model
    dh = d // H
    dtype = params["tok_emb"].data.dtype
    p_drop = cfg.dropout if rng is not None else 0.0

    def drop(t: Tensor) -> Tensor:
        return ag.dropout(t, p_drop, rng) if p_drop else t

    if positions is None:
        positions = np.broadcast_to(np.arange(T), (B, T))
    x = ag.add(
        ag.embed_lookup(params["tok_emb"], ids),
        ag.embed_lookup(params["pos_emb"], positions),
    )
    x = drop(x)
    bias = ag.constant(_attention_bias(keep, dtype))

    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        h = ag.layernorm(x, params[p + "ln1.gain"], params[p + "ln1.bias"])
        qkv = _linear(h, params[p + "attn.wqkv"], params[p + "attn.bqkv"])
        qkv = ag.reshape(qkv, (B, T, 3, H, dh))
        qkv = ag.transpose(qkv, (2, 0, 3, 1, 4))  # [3,B,H,T,dh]
        q = ag.take_index(qkv, 0)
        k = ag.take_index(qkv, 1)
        v_heads = ag.take_index(qkv, 2)
        scores = ag.scale(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), dh**-0.5)
        scores = ag.add(scores, bias)
        attn = ag.softmax_lastdim(scores)
        attn = drop(attn)
        ctx = ag.matmul(attn, v_heads)  # [B,H,T,dh]
        ctx = ag.transpose(ctx, (0, 2, 1, 3))
        ctx = ag.reshape(ctx, (B, T, d))
        x = ag.add(x, drop(_linear(ctx, params[p + "attn.wo"], params[p + "attn.bo"])))

        h = ag.layernorm(x, params[p + "ln2.gain"], params[p + "ln2.bias"])
        h = ag.gelu(_linear(h, params[p + "mlp.w1"], params[p + "mlp.b1"]))
        x = ag.add(x, drop(_linear(h, params[p + "mlp.w2"], params[p + "mlp.b2"])))

    x = ag.layernorm(x, params["lnf.gain"], params["lnf.bias"])
    logits = ag.matmul(x, ag.transpose(params["tok_emb"], (1, 0)))
    return logits


def forward(params: ModelParams, batch) -> np.ndarray:
    """Next-token distributions for a batch of examples, [B,T,vocab].

    The batch is right-padded with PAD internally; PAD positions are
    excluded from attention keys.  Rows sum to 1.
    """
    # the tokenizer always assigns PAD the final id
    pad_id = params.config.vocab_size - 1
    ids, _, keep = pad_batch(batch, pad_id)
    logits = forward_logits(params, ids, keep)
    return ag.softmax_lastdim(logits).data


def nll_loss(
    params: ModelParams, batch, rng: np.random.Generator | None = None
) -> Tensor:
    """Mean masked next-token negative log-likelihood over a batch."""
    pad_id = params.config.vocab_size - 1
    ids, mask, keep = pad_batch(batch, pad_id)
    logits = forward_logits(params, ids, keep, rng=rng)
    targets = np.roll(ids, -1, axis=1)
    targets[:, -1] = 0
    return ag.cross_entropy_masked(logits, targets, mask)


CKPT_MAGIC = "SCGPT-CKPT v1"
_CONFIG_FIELDS = ("vocab_size", "n_layers", "n_heads", "d_model", "d_ff", "max_context", "dropout")


def save_checkpoint(params: ModelParams, path) -> None:
    """Write config and all tensors as raw little-endian float32."""
    cfg = params.config
    with open(path, "wb") as f:
        f.write((CKPT_MAGIC + "\n").encode("ascii"))
        cfg_line = " ".join(f"{k}={getattr(cfg, k)}" for k in _CONFIG_FIELDS)
        f.write((cfg_line + "\n").encode("ascii"))
        for name, tensor in params.named():
            arr = np.ascontiguousarray(tensor.data, dtype="<f4")
            meta = " ".join([name] + [str(s) for s in arr.shape])
            f.write((meta + "\n").encode("ascii"))
            f.write(arr.tobytes())
            f.write(b"\n")


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint, validating every tensor shape against the config."""
    with open(path, "rb") as f:
        if f.readline().decode("ascii", "replace").strip() != CKPT_MAGIC:
            raise UnknownFormatError(f"{path}: not a {CKPT_MAGIC} checkpoint")
        fields = {}
        for item in f.readline().decode("ascii", "replace").split():
            k, _, v = item.partition("=")
            fields[k] = float(v) if k == "dropout" else int(v)
        missing = set(_CONFIG_FIELDS) - set(fields)
        if missing:
            raise ConfigMismatchError(f"{path}: config line missing {sorted(missing)}")
        cfg = ModelConfig(**fields)
        expected = _param_shapes(cfg)
        tensors = {}
        for name, shape in expected.items():
            meta = f.readline().decode("ascii", "replace").split()
            if not meta or meta[0] != name:
                raise ConfigMismatchError(
                    f"{path}: expected tensor {name!r}, found {meta[:1] or 'EOF'}"
                )
            got_shape = tuple(int(s) for s in meta[1:])
            if got_shape != shape:
                raise ConfigMismatchError(
                    f"{path}: tensor {name} has shape {got_shape}, config implies {shape}"
                )
            n = int(np.prod(shape, dtype=np.int64))
            raw = f.read(4 * n)
            if len(raw) != 4 * n:
                raise ConfigMismatchError(f"{path}: truncated tensor {name}")
            tensors[name] = ag.param(np.frombuffer(raw, dtype="<f4").reshape(shape).copy())
            f.read(1)  # trailing newline
    return ModelParams(cfg, tensors)


class DecodeSession:
    """Incremental batched decoding with per-layer key/value caches.

    Works on raw float32 numpy (no tape).  Rows may be left-padded: pass
    per-row position indices and mark PAD slots in the key mask.  Logits
    match a full re-forward to within float32 noise.

    All rows share the ``max_len`` buffer columns, so left-padded rows
    with their own step budgets may need more columns than
    ``max_context``; the context bound applies to positions instead.  An
    ``append`` with a position at or beyond ``max_context``, or past the
    buffer, raises :class:`ContextOverflowError`.

    :meth:`take` rebuilds the batch from chosen rows: it keeps, drops or
    repeats rows together with their caches, so one prefill can serve
    several rows with the same prefix and finished rows can leave the
    batch.
    """

    def __init__(self, params: ModelParams, batch_size: int, max_len: int):
        cfg = params.config
        self.params = params
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
        self._w = {name: t.data.astype(np.float32, copy=False) for name, t in params.named()}

    def _ln(self, x, prefix):
        g, b = self._w[prefix + ".gain"], self._w[prefix + ".bias"]
        # x.mean and x.var give the same float32 bits through slower wrappers
        n = x.shape[-1]
        mu = np.add.reduce(x, -1, keepdims=True) / n
        xc = x - mu
        var = np.add.reduce(xc * xc, -1, keepdims=True) / n
        return xc / np.sqrt(var + ag.LAYERNORM_EPS) * g + b

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
        H, d = cfg.n_heads, cfg.d_model
        dh = d // H
        self._bias[:, lo:hi] = np.where(keep, 0.0, NEG_BIAS)
        bias = self._bias[:, None, None, :hi]
        if T > 1:
            # new-column queries attend old+new keys: causal within new columns
            causal = np.zeros((T, hi), dtype=np.float32)
            causal[:, lo:] = np.triu(np.full((T, T), NEG_BIAS, dtype=np.float32), 1)
            bias = np.minimum(bias, causal)

        x = w["tok_emb"][ids] + w["pos_emb"][positions]
        for i in range(cfg.n_layers):
            p = f"layers.{i}."
            h = self._ln(x, p + "ln1")
            qkv = h @ w[p + "attn.wqkv"] + w[p + "attn.bqkv"]
            qkv = qkv.reshape(B, T, 3, H, dh).transpose(2, 0, 3, 1, 4)
            q, k, v = qkv[0], qkv[1], qkv[2]
            self._k[i][:, :, lo:hi] = k
            self._v[i][:, :, lo:hi] = v
            keys = self._k[i][:, :, :hi]
            vals = self._v[i][:, :, :hi]
            scores = q @ keys.swapaxes(-1, -2) * dh**-0.5 + bias
            scores -= scores.max(axis=-1, keepdims=True)
            e = np.exp(scores)
            attn = e / e.sum(axis=-1, keepdims=True)
            ctx = (attn @ vals).transpose(0, 2, 1, 3).reshape(B, T, d)
            x = x + ctx @ w[p + "attn.wo"] + w[p + "attn.bo"]
            h = self._ln(x, p + "ln2")
            u = h @ w[p + "mlp.w1"] + w[p + "mlp.b1"]
            t_ = np.tanh(ag.GELU_C * (u + ag.GELU_A * (u * u * u)))
            h = 0.5 * u * (1.0 + t_)
            x = x + h @ w[p + "mlp.w2"] + w[p + "mlp.b2"]

        self.t = hi
        x_last = self._ln(x[:, -1], "lnf")
        return x_last @ w["tok_emb"].T

    def step(self, ids: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Feed one real token per row; returns next-token logits [B,V]."""
        B = ids.shape[0]
        return self.append(
            ids.reshape(B, 1),
            positions.reshape(B, 1),
            np.ones((B, 1), dtype=bool),
        )

    def take(self, index) -> None:
        """Make row ``r`` of the batch a copy of current row ``index[r]``."""
        index = np.asarray(index, dtype=np.intp)
        self._k = self._k[:, index]
        self._v = self._v[:, index]
        self._bias = self._bias[index]
        self.B = len(index)
