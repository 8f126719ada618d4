"""Independent reference implementations of the evaluation metrics, of
the transformer forward and of the BPE tokenizer.

The metrics here are written from their definitions alone, using plain
loops and dicts instead of the library's regex and Counter machinery, so
the test suite can cross-check the fast implementations against a second
opinion.  Hand-worked anchor values for the BLEU scorer live in
test_acceptance.py next to the comparison tests.

The transformer forward is composed of per-op taped ops, one per step,
so its gradients come from per-op backward rules rather than the model's
fused kernels.  The ops and the general reverse-mode tape they run on
(``Tensor``, ``emit``, ``Tape`` and a DAG ``backward``) live here, not
in the package, whose loss is a fixed chain of kernels.  Their layer
norm, GELU, softmax and log-softmax are written from the definitions
instead of calling the package's kernels.  Only dropout shares the
package's mask stream (``dropout_mask``), so that both forwards drop the
same units: the reference draws each mask at the packed shape the model
draws it at and lays it onto its padded grid.

The tokenizer trainer recounts every pair of the corpus for each merge,
and the encoder rescans the whole sequence for each merge it applies.
The next-token select works on one logits row at a time, with a full
argsort for top-k.
"""

import math
from collections import Counter

import numpy as np

from scgpt import autograd as ag
from scgpt.bpe import N_BASE, SPECIAL_NAMES, Vocab
from scgpt.errors import (
    CorpusEmptyError,
    NumericFaultError,
    RangeError,
    ScgptError,
    ShapeMismatchError,
)

PLACEHOLDERS = {"?", "yes", "no", "dontcare", "true", "false", "none"}


def _is_word_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def count_occurrences(value: str, text: str) -> int:
    """Non-overlapping occurrences of value in text, case-insensitive,
    rejecting matches glued to a word character or a square bracket."""
    value = value.lower()
    text = text.lower()
    count = 0
    i = 0
    while True:
        j = text.find(value, i)
        if j < 0:
            return count
        end = j + len(value)
        before_ok = j == 0 or (not _is_word_char(text[j - 1]) and text[j - 1] != "[")
        after_ok = end == len(text) or (
            not _is_word_char(text[end]) and text[end] != "]"
        )
        if before_ok and after_ok:
            count += 1
            i = end
        else:
            i = j + 1


def err_oracle(acts, text: str):
    """(M, p, q) by direct counting over the act's lexical values."""
    values = [
        pair.value.lower()
        for act in acts.acts
        for pair in act.pairs
        if pair.value.lower() not in PLACEHOLDERS
    ]
    required = {}
    for v in values:
        required[v] = required.get(v, 0) + 1
    p = q = 0
    for v, r in required.items():
        found = count_occurrences(v, text)
        if found < r:
            p += r - found
        else:
            q += found - r
    return len(values), p, q


def tokenize(text: str) -> list:
    """Lowercased word tokens plus single-character punctuation tokens."""
    tokens = []
    word = ""
    for c in text.lower():
        if _is_word_char(c):
            word += c
        else:
            if word:
                tokens.append(word)
                word = ""
            if not c.isspace():
                tokens.append(c)
    if word:
        tokens.append(word)
    return tokens


def _ngram_counts(tokens: list, n: int) -> dict:
    counts = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i : i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def bleu_oracle(candidates, references) -> float:
    """Corpus BLEU-4: clipped precisions, closest-reference brevity penalty
    (ties to the shorter reference), add-one smoothing only for an order
    n >= 2 whose corpus-level numerator is zero."""
    num = {n: 0 for n in range(1, 5)}
    den = {n: 0 for n in range(1, 5)}
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        ctok = tokenize(cand)
        rtoks = [tokenize(r) for r in refs]
        cand_len += len(ctok)
        best = None
        for rt in rtoks:
            key = (abs(len(rt) - len(ctok)), len(rt))
            if best is None or key < best:
                best = key
        ref_len += best[1]
        for n in range(1, 5):
            cg = _ngram_counts(ctok, n)
            rmax = {}
            for rt in rtoks:
                for g, k in _ngram_counts(rt, n).items():
                    if k > rmax.get(g, 0):
                        rmax[g] = k
            for g, k in cg.items():
                num[n] += min(k, rmax.get(g, 0))
                den[n] += k
    if cand_len == 0 or num[1] == 0:
        return 0.0
    log_sum = 0.25 * math.log(num[1] / den[1])
    for n in range(2, 5):
        if num[n] == 0:
            log_sum += 0.25 * math.log((num[n] + 1) / (den[n] + 1))
        else:
            log_sum += 0.25 * math.log(num[n] / den[n])
    if cand_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum)


def extract_entities(text: str, inventory) -> dict:
    """Multiset of inventory-value occurrences plus number tokens."""
    found = {}
    for value in inventory:
        n = count_occurrences(value, text)
        if n:
            found[value] = found.get(value, 0) + n
    i = 0
    text = text.lower()
    while i < len(text):
        if text[i].isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) - 1 and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < len(text) and text[j].isdigit():
                    j += 1
            tok = text[i:j]
            found[tok] = found.get(tok, 0) + 1
            i = j
        else:
            i += 1
    return found


def entity_f1_oracle(candidates, references, inventory) -> float:
    """Micro-averaged F1 over per-example entity multisets."""
    tp = fp = fn = 0
    for cand, ref in zip(candidates, references):
        ce = extract_entities(cand, inventory)
        re_ = extract_entities(ref, inventory)
        for key in set(ce) | set(re_):
            c = ce.get(key, 0)
            r = re_.get(key, 0)
            tp += min(c, r)
            fp += max(0, c - r)
            fn += max(0, r - c)
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2 * tp / denom


def structural_key(acts):
    """Order-free (intent, slot-name set) signature of a dialog act set."""
    return tuple(
        sorted(
            (act.intent, tuple(sorted(pair.name for pair in act.pairs)))
            for act in acts.acts
        )
    )


def seen_unseen_oracle(train, test):
    """Index lists of test examples whose signature does/doesn't occur in train."""
    train_keys = {structural_key(ex.acts) for ex in train}
    seen = [i for i, ex in enumerate(test) if structural_key(ex.acts) in train_keys]
    unseen = [i for i, ex in enumerate(test) if structural_key(ex.acts) not in train_keys]
    return seen, unseen


def parse_reference_file(path):
    """Read a published few-shot NLG data file into a Corpus.

    Each line holds fields separated by " & ": a dialog-act string like
    ``inform(name='the mill';area=centre)`` followed by the realization
    (further fields, e.g. a delexicalised copy, are ignored).  Quoted
    values lose their quotes; a bare slot name becomes a "?" request.
    """
    import json

    from scgpt.dataset import Corpus, Example
    from scgpt.dialog_act import DialogAct, DialogActSet, SlotValuePair

    def parse_da(s):
        s = s.strip()
        head, _, inner = s.partition("(")
        inner = inner.rsplit(")", 1)[0]
        pairs = []
        for item in inner.split(";"):
            item = item.strip()
            if not item:
                continue
            name, eq, value = item.partition("=")
            value = value.strip().strip("'\"")
            pairs.append(SlotValuePair(name.strip(), value if eq else "?"))
        return DialogActSet((DialogAct(head.strip(), tuple(pairs)),))

    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        rows = json.loads(text)
        lines = [" & ".join(row) if isinstance(row, list) else row for row in rows]
    except json.JSONDecodeError:
        lines = [ln for ln in text.splitlines() if ln.strip()]
    examples = []
    for line in lines:
        fields = [f.strip() for f in line.split(" & ")]
        examples.append(Example(parse_da(fields[0]), fields[1], "restaurant"))
    return Corpus(tuple(examples))


# The reverse-mode tape the reference forward runs on.


class NonScalarLossError(ScgptError):
    """backward() was called on a tensor that is not a scalar."""


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


# Per-op taped ops of the reference forward (see the module docstring).


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


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
    def backward(g):
        return (g * s,)

    return emit("scale", (a,), a.data * s, backward)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: x/2 * (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))."""
    x = a.data
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x**3))

    def backward(g):
        # d/dx of x/2 (1 + tanh u), with tanh' = 1 - tanh^2
        du_dx = c * (1.0 + 3.0 * 0.044715 * x**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du_dx),)

    return emit("gelu", (a,), 0.5 * x * (1.0 + t), backward)


def softmax_lastdim(a: Tensor) -> Tensor:
    """exp(x_i) / sum_j exp(x_j) along the last axis, shifted by the row max."""
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        # Jacobian diag(p) - p p^T applied to g
        return (out * g - out * (out * g).sum(axis=-1, keepdims=True),)

    return emit("softmax_lastdim", (a,), out, backward)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """x_i - log sum_j exp(x_j) along the last axis, shifted by the row max."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def layernorm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """(x - mean) / sqrt(var + eps) along the last axis, then gain and bias."""
    d = a.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeMismatchError(
            f"layernorm affine shapes {gain.data.shape}/{bias.data.shape} "
            f"for feature dim {d}"
        )
    x = a.data
    std = np.sqrt(x.var(axis=-1, keepdims=True) + ag.LAYERNORM_EPS)
    y = (x - x.mean(axis=-1, keepdims=True)) / std

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        gy = g * gain.data
        dx = (gy - gy.mean(axis=-1, keepdims=True)
              - y * (gy * y).mean(axis=-1, keepdims=True)) / std
        return dx, (g * y).sum(axis=lead), g.sum(axis=lead)

    return emit("layernorm", (a, gain, bias), y * gain.data + bias.data, backward)


def embed_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of an embedding table by integer id array."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise RangeError(f"ids outside [0, {table.data.shape[0]}) passed to embed_lookup")

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return emit("embed_lookup", (table,), table.data[ids], backward)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with the model's mask stream; identity when p == 0."""
    if not 0.0 <= p < 1.0:
        raise RangeError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    keep = ag.dropout_mask(a.data.shape, p, rng, a.data.dtype)

    def backward(g):
        return (g * keep,)

    return emit("dropout", (a,), a.data * keep, backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    def backward(g):
        return (g.reshape(a.data.shape),)

    return emit("reshape", (a,), a.data.reshape(shape), backward)


def transpose(a: Tensor, axes: tuple) -> Tensor:
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return emit("transpose", (a,), a.data.transpose(axes), backward)


def take_index(a: Tensor, index: int) -> Tensor:
    """Select one slice along the leading axis, dropping that axis."""
    if not 0 <= index < a.data.shape[0]:
        raise RangeError(f"index {index} out of range for axis of {a.data.shape[0]}")

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[index] = g
        return (ga,)

    return emit("take_index", (a,), a.data[index], backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return emit("sum_all", (a,), np.asarray(a.data.sum()), backward)


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
    logp = _log_softmax(x)
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
        grad = np.exp(logp) * mask[..., None]
        grad[(*idx, targets)] -= mask
        return (grad * (g / denom),)

    return emit("cross_entropy_masked", (logits,), out, backward)


def forward_logits_reference(params, ids, keep, rng=None):
    """Pre-softmax logits [B,T,vocab] built op by op on the tape.

    Wraps each weight array of ``params`` as a taped leaf and returns
    ``(logits, leaves)``, the leaves by weight name, so a caller can
    read their gradients after :func:`backward`.  Draws dropout masks in
    the order and shapes the model does: the embeddings' [N,d], then per
    layer each example's [H,L,L] attention probabilities, the attention
    output's and the MLP output's [N,d].  Each mask is laid onto the
    padded grid, rows through ``keep`` (right-padded) and attention into
    ``[b,:,:L,:L]``, with ones elsewhere.
    """
    cfg = params.config
    leaves = {name: param(a) for name, a in params.named()}
    B, T = ids.shape
    H, d = cfg.n_heads, cfg.d_model
    dh = d // H
    dtype = params["tok_emb"].dtype
    p_drop = cfg.dropout if rng is not None else 0.0

    def drop(t):
        if not p_drop:
            return t
        grid = np.ones(t.data.shape, dtype)
        if t.data.ndim == 3:  # [B,T,d] rows
            grid[keep] = ag.dropout_mask((keep.sum(), d), p_drop, rng, dtype)
        else:  # [B,H,T,T] attention probabilities
            for b, L in enumerate(keep.sum(axis=1)):
                grid[b, :, :L, :L] = ag.dropout_mask((H, L, L), p_drop, rng, dtype)
        return mul(t, constant(grid))

    def linear(x, w, b):
        return add(matmul(x, w), b)

    x = add(
        embed_lookup(leaves["tok_emb"], ids),
        embed_lookup(leaves["pos_emb"], np.broadcast_to(np.arange(T), (B, T))),
    )
    x = drop(x)
    allowed = np.tril(np.ones((T, T), dtype=bool))[None, :, :] & keep[:, None, :]
    bias = constant(np.where(allowed, 0.0, -1e9).astype(dtype)[:, None, :, :])

    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        h = layernorm(x, leaves[p + "ln1.gain"], leaves[p + "ln1.bias"])
        qkv = linear(h, leaves[p + "attn.wqkv"], leaves[p + "attn.bqkv"])
        qkv = transpose(reshape(qkv, (B, T, 3, H, dh)), (2, 0, 3, 1, 4))
        q, k, v = (take_index(qkv, j) for j in range(3))  # [B,H,T,dh]
        scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), dh**-0.5)
        attn = drop(softmax_lastdim(add(scores, bias)))
        ctx = reshape(transpose(matmul(attn, v), (0, 2, 1, 3)), (B, T, d))
        x = add(x, drop(linear(ctx, leaves[p + "attn.wo"], leaves[p + "attn.bo"])))

        h = layernorm(x, leaves[p + "ln2.gain"], leaves[p + "ln2.bias"])
        h = gelu(linear(h, leaves[p + "mlp.w1"], leaves[p + "mlp.b1"]))
        x = add(x, drop(linear(h, leaves[p + "mlp.w2"], leaves[p + "mlp.b2"])))

    x = layernorm(x, leaves["lnf.gain"], leaves["lnf.bias"])
    return matmul(x, transpose(leaves["tok_emb"], (1, 0))), leaves


def _merge_pair(ids: list, a: int, b: int, new_id: int) -> list:
    out = []
    i = 0
    n = len(ids)
    while i < n:
        if i + 1 < n and ids[i] == a and ids[i + 1] == b:
            out.append(new_id)
            i += 2
        else:
            out.append(ids[i])
            i += 1
    return out


def train_bpe_reference(corpus, target_vocab_size: int = 512) -> Vocab:
    """Learn merges from the corpus until the vocabulary reaches the target.

    ``target_vocab_size`` counts the full vocabulary: 256 base tokens,
    learned merges, and the three specials.  Training stops early when no
    adjacent pair occurs at least twice.  Ties between equally frequent
    pairs go to the lexicographically smaller (left bytes, right bytes).
    """
    corpus = list(corpus)
    if not corpus:
        raise CorpusEmptyError("cannot train a tokenizer on an empty corpus")
    n_specials = len(SPECIAL_NAMES)
    if target_vocab_size <= N_BASE + n_specials:
        raise ValueError(
            f"target_vocab_size must exceed {N_BASE + n_specials}, got {target_vocab_size}"
        )

    id_to_token = [bytes([i]) for i in range(N_BASE)]
    merges = []
    seqs = [list(text.encode("utf-8")) for text in corpus]

    while len(id_to_token) + n_specials < target_vocab_size:
        counts = Counter()
        for seq in seqs:
            for i in range(len(seq) - 1):
                counts[(seq[i], seq[i + 1])] += 1
        if not counts:
            break
        best_pair = min(
            counts,
            key=lambda p: (-counts[p], id_to_token[p[0]], id_to_token[p[1]]),
        )
        if counts[best_pair] < 2:
            break
        a, b = best_pair
        new_id = len(id_to_token)
        id_to_token.append(id_to_token[a] + id_to_token[b])
        merges.append((a, b))
        seqs = [_merge_pair(seq, a, b, new_id) for seq in seqs]

    specials = {
        name: len(id_to_token) + k for k, name in enumerate(SPECIAL_NAMES)
    }
    return Vocab(tuple(id_to_token), tuple(merges), specials)


def _apply_merges(v: Vocab, ids: list) -> list:
    ranks = {pair: i for i, pair in enumerate(v.merges)}
    while len(ids) >= 2:
        best_rank = None
        for i in range(len(ids) - 1):
            r = ranks.get((ids[i], ids[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
        if best_rank is None:
            break
        a, b = v.merges[best_rank]
        ids = _merge_pair(ids, a, b, N_BASE + best_rank)
    return ids


def encode_reference(v: Vocab, s: str, wrap: str = "none") -> list:
    """Tokenize a string; ``wrap="bos_eos"`` adds the sequence delimiters.

    Merges apply in learned order, each rewriting every occurrence left
    to right, so encode(train corpus) reproduces the training segmentation.
    """
    if wrap not in ("none", "bos_eos"):
        raise ValueError(f"wrap must be 'none' or 'bos_eos', got {wrap!r}")
    ids = _apply_merges(v, list(s.encode("utf-8")))
    if wrap == "bos_eos":
        ids = [v.bos_id] + ids + [v.eos_id]
    return ids


def _draw(logp: np.ndarray, rng) -> int:
    """Index drawn with probabilities exp(logp).

    The arithmetic of ``rng.choice(len(logp), p=np.exp(logp))``, without
    its argument checks: the same uniform variate gives the same index.
    """
    cdf = np.exp(logp).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def select_next_token_reference(logits: np.ndarray, rng, k: int, temperature: float) -> int:
    """Pick the next token id from a logits row: the argmax when ``rng``
    is None, else a draw from the k largest logits over ``temperature``."""
    if rng is None:
        return int(np.argmax(logits))
    k = min(k, len(logits))
    top = logits.argsort()[: -k - 1 : -1]  # k largest, largest first
    scaled = logits[top] / max(temperature, 1e-6)
    return int(top[_draw(_log_softmax(scaled.astype(np.float64)), rng)])
