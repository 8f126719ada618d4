"""Independent reference implementations of the evaluation metrics, of
the transformer forward and of the BPE tokenizer.

The metrics here are written from their definitions alone, using plain
loops and dicts instead of the library's regex and Counter machinery, so
the test suite can cross-check the fast implementations against a second
opinion.  Hand-worked anchor values for the BLEU scorer live in
test_acceptance.py next to the comparison tests.  The transformer forward
is composed of the generic taped ops, one per step, so its gradients come
from the per-op backward rules rather than the model's fused kernels.
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
from scgpt.decoding import Greedy, TopK
from scgpt.errors import CorpusEmptyError

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


# older aliases kept for the per-module metric tests
err_bruteforce = err_oracle
bleu_reference = bleu_oracle


def f1_bruteforce(candidates, references, extract) -> float:
    """Micro F1 re-derived from any extractor with plain dict arithmetic."""
    tp = fp = fn = 0
    for cand, ref in zip(candidates, references):
        got = dict(extract(cand))
        want = dict(extract(ref))
        for key in set(got) | set(want):
            g, w = got.get(key, 0), want.get(key, 0)
            tp += min(g, w)
            fp += max(0, g - w)
            fn += max(0, w - g)
    if tp + fp == 0 or tp + fn == 0:
        return 1.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def forward_logits_reference(params, ids, keep, rng=None):
    """Pre-softmax logits [B,T,vocab] built op by op on the tape.

    Draws dropout masks in the order and shapes the model does: the
    embeddings, then per layer the attention probabilities, the attention
    output and the MLP output.
    """
    cfg = params.config
    B, T = ids.shape
    H, d = cfg.n_heads, cfg.d_model
    dh = d // H
    dtype = params["tok_emb"].data.dtype
    p_drop = cfg.dropout if rng is not None else 0.0

    def drop(t):
        return ag.dropout(t, p_drop, rng) if p_drop else t

    def linear(x, w, b):
        return ag.add(ag.matmul(x, w), b)

    x = ag.add(
        ag.embed_lookup(params["tok_emb"], ids),
        ag.embed_lookup(params["pos_emb"], np.broadcast_to(np.arange(T), (B, T))),
    )
    x = drop(x)
    allowed = np.tril(np.ones((T, T), dtype=bool))[None, :, :] & keep[:, None, :]
    bias = ag.constant(np.where(allowed, 0.0, -1e9).astype(dtype)[:, None, :, :])

    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        h = ag.layernorm(x, params[p + "ln1.gain"], params[p + "ln1.bias"])
        qkv = linear(h, params[p + "attn.wqkv"], params[p + "attn.bqkv"])
        qkv = ag.transpose(ag.reshape(qkv, (B, T, 3, H, dh)), (2, 0, 3, 1, 4))
        q, k, v = (ag.take_index(qkv, j) for j in range(3))  # [B,H,T,dh]
        scores = ag.scale(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), dh**-0.5)
        attn = drop(ag.softmax_lastdim(ag.add(scores, bias)))
        ctx = ag.reshape(ag.transpose(ag.matmul(attn, v), (0, 2, 1, 3)), (B, T, d))
        x = ag.add(x, drop(linear(ctx, params[p + "attn.wo"], params[p + "attn.bo"])))

        h = ag.layernorm(x, params[p + "ln2.gain"], params[p + "ln2.bias"])
        h = ag.gelu(linear(h, params[p + "mlp.w1"], params[p + "mlp.b1"]))
        x = ag.add(x, drop(linear(h, params[p + "mlp.w2"], params[p + "mlp.b2"])))

    x = ag.layernorm(x, params["lnf.gain"], params["lnf.bias"])
    return ag.matmul(x, ag.transpose(params["tok_emb"], (1, 0)))


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


def select_next_token_reference(logits: np.ndarray, strategy, rng) -> int:
    """Pick the next token id from a logits row under a strategy."""
    if isinstance(strategy, Greedy):
        return int(np.argmax(logits))
    if isinstance(strategy, TopK):
        k = min(strategy.k, len(logits))
        top = logits.argsort()[: -k - 1 : -1]  # k largest, largest first
        scaled = logits[top] / max(strategy.temperature, 1e-6)
        return int(top[_draw(ag.log_softmax(scaled.astype(np.float64)), rng)])
    raise TypeError(f"unknown decode strategy {strategy!r}")
