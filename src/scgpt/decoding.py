"""Autoregressive generation conditioned on linearized dialog acts.

Each dialog act yields ``n_candidates`` realizations: the first decoded
greedily, the rest sampled top-k with a per-candidate seeded RNG.  Every
candidate is scored by slot error rate and the winner is the lowest-ERR
candidate, ties broken by higher mean token log-probability, then by
candidate index.

The candidates of many acts decode together in batches of at most
``MAX_SESSION_ROWS`` rows, with cached attention keys/values, so one
step is a few whole-batch array operations: the model's linear layers
run as 2-D GEMMs over the rows, and :func:`select_next_token` picks every
row's next token at once.  Each distinct act of a call decodes once:
its prefix is prefilled, its caches are copied to its candidate rows,
and its repeats in the call get copies of its candidates.  The prefill
is a left-padded grid of the prefixes whose kept cells and positions
follow from the prefix lengths alone, and it sets the session's rows.
It runs training's packed per-act attention on real tokens only: the
session's prefixes are packed one after another, each attends on its own
block, and each is stored left-padded in the caches, with per-row
position offsets.  A session holds its acts longest prefix first, so a
row's left padding grows down the batch, and every step after the
prefill feeds one column per row and attends each group of rows only
over the key columns from the group's first real key on (the session's
key windows, see :class:`~scgpt.model.DecodeSession`).  Finished rows
leave the batch once they make up a quarter of it.  Every row has its
own budget, ``min(max_new_tokens, max_context - prefix length)``, and
its own RNG stream, seeded by the act's prefix and the candidate index,
so identical acts get identical candidates, whatever else shares the
call.

A step with few rows costs array-call overhead, not arithmetic, so the
loop keeps its fixed work small: the session folds the layer norms'
affines and the query scale into its weights once, and builds its key
windows' biases only when it regroups its rows, so a session without
left padding, such as one act's, adds no key bias after the prefill; each
sampled row draws its whole budget of uniforms before the first step
(the same doubles as one draw per step), so the select reads a step's
uniforms from one array and makes no call per row; the select takes one
log-sum-exp per row and the log-prob of the picked token only; and the
live slots and their rows are worked out again only on a step where
some row finished.  The candidate texts are those of the plain per-step
loop.  A log-prob may differ by float32 rounding where the sums in a
step's attention span other columns than the row's own (an act beside
acts of other lengths), or when one or two rows are left, where numpy
multiplies by the head as a matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import log_softmax
from .bpe import Vocab, decode, encode
from .dialog_act import DialogActSet, linearize
from .errors import ContextOverflowError
from .metrics import slot_error
from .model import DecodeSession, ModelParams


#: Most candidate rows one decode session holds.  A session's key/value
#: caches grow with its rows, so a long act list decodes in groups of
#: whole acts; a 40-act call with five candidates stays one session.
MAX_SESSION_ROWS = 256


@dataclass(frozen=True)
class DecodeConfig:
    n_candidates: int = 5
    max_new_tokens: int = 128
    top_k: int = 20
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be at least 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be at least 1")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if not 0 <= self.temperature < np.inf:
            raise ValueError("temperature must be finite and not negative")
        if self.seed < 0:
            raise ValueError("seed must not be negative")


@dataclass(frozen=True)
class Candidate:
    text: str
    token_logprob_mean: float
    err: float


def select_next_token(logits: np.ndarray, uniforms: np.ndarray, k: int,
                      temperature: float):
    """Next token id of every row of ``logits`` [n,V], and its log-prob.

    The decode loop calls this once per step, on the logits of the
    session's live rows, so a traced run times every select under this
    name.  ``uniforms`` [n] holds each row's draw in [0, 1), NaN for a
    greedy row, which takes the argmax.  Every other row draws from its
    k largest logits divided by ``temperature`` (at least 1e-6) with its
    uniform; the draw is the arithmetic of ``rng.choice(k, p=...)`` over
    the k in descending order, so the uniform that ``rng.choice`` would
    have taken from a generator gives the same pick.  The
    log-probability (float64) is that of the unscaled distribution over
    the vocabulary.

    Ties: a greedy row takes the first largest index.  Among sampled
    logits tied at the k-th largest value, ``argpartition`` decides which
    enter the k and the sort decides their order.  Both depend on the
    logits alone, so a pick is deterministic and always has one of the k
    largest values, though not always the index a full ``argsort`` would
    have ordered there.
    """
    r = np.arange(len(logits))  # indexes [n,V] arrays by row
    best = picked = logits.argmax(axis=-1)
    sampled = np.flatnonzero(~np.isnan(uniforms))
    if len(sampled):
        block = logits[sampled]
        V = block.shape[1]
        k = min(k, V)
        rs = r[: len(sampled), None]  # indexes [s,k] arrays by row
        top = np.argpartition(block, V - k, axis=1)[:, V - k :]
        vals = block[rs, top]
        order = vals.argsort(axis=1)[:, ::-1]  # largest first
        top = top[rs, order]
        scaled = vals[rs, order] / max(temperature, 1e-6)
        cdf = np.exp(log_softmax(scaled.astype(np.float64))).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        # searchsorted(cdf, u, side="right") row by row
        draw = (cdf <= uniforms[sampled, None]).sum(axis=1)
        picked = best.copy()
        picked[sampled] = top[rs[:, 0], draw]
    # log_softmax's arithmetic, evaluated at the picked tokens only; the
    # row maximum is the logit at the argmax
    shifted = logits.astype(np.float64)
    shifted -= shifted[r, best, None]
    logp = shifted[r, picked]
    np.exp(shifted, out=shifted)
    return picked, logp - np.log(np.add.reduce(shifted, -1))


def _candidate_rng(seed: int, cand_index: int, prefix) -> np.random.Generator:
    """The generator of ``SeedSequence((seed, cand_index, *prefix))``, from
    the uint32 words that tuple gives: ``seed`` in little-endian 32-bit
    words, at least one, then one word per other entry.  Numpy converts
    a tuple entry by entry, and one array at once."""
    words = [(seed >> s) & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.array([*words, cand_index, *prefix], dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _generate_rows(params: ModelParams, v: Vocab, prefixes, cfg: DecodeConfig):
    """Decode ``cfg.n_candidates`` rows per act prefix in one batched session.

    The prefixes are distinct.  Candidate 0 of a prefix is greedy; every
    other candidate j draws top-k with a generator seeded by (seed, j,
    the prefix's token ids), which draws the row's whole budget of
    uniforms up front.  The session holds the prefixes longest first, so
    the rows' first kept columns rise down the batch and the session's
    key windows skip most of the left padding.  Each prefix is prefilled
    once and its caches are copied to its n rows.  A row stops at EOS or
    after ``min(max_new_tokens, max_context - len(prefix))`` tokens,
    whatever the other rows do.  Finished rows leave the session once
    they make up a quarter of it: copying the caches on every finish
    costs more than carrying a few dead rows.

    Returns, in the caller's order of ``prefixes``, one list per prefix
    of n ``(ids, mean token log-prob)``, candidate j at index j.  The ids
    are every token the row emitted, the terminating EOS included, and
    may hold other special ids too, since BOS or PAD can be sampled;
    :func:`~scgpt.bpe.decode` renders none of them.  The mean covers
    every emitted id.
    """
    mc, n = params.config, cfg.n_candidates
    order = sorted(range(len(prefixes)), key=lambda u: -len(prefixes[u]))
    prefixes = [prefixes[u] for u in order]
    prefix_lens = np.array([len(p) for p in prefixes])
    T0 = int(prefix_lens.max())
    keep = np.arange(T0) >= T0 - prefix_lens[:, None]  # each prefix left-padded to T0
    ids = np.full(keep.shape, v.pad_id, dtype=np.int64)
    ids[keep] = np.concatenate(prefixes)
    pos = keep.cumsum(axis=1) - keep  # 0 on the padding

    prefill_row = np.repeat(np.arange(len(prefixes)), n)
    start_pos = prefix_lens[prefill_row]
    budget = np.minimum(cfg.max_new_tokens, mc.max_context - start_pos)
    # a row's last token is never fed back
    sess = DecodeSession(params, max_len=T0 + int(budget.max()) - 1)
    logits = sess.append(ids, pos, keep)[prefill_row]
    sess.take(prefill_row)

    B = len(prefill_row)
    tokens = np.zeros((B, int(budget.max())), dtype=np.int64)
    # the uniform each row's select takes at each step; NaN marks greedy rows
    uniforms = np.full(tokens.shape, np.nan)
    for b in range(B):
        if b % n:
            rng = _candidate_rng(cfg.seed, b % n, prefixes[b // n])
            uniforms[b, : budget[b]] = rng.random(budget[b])
    counts = np.zeros(B, dtype=np.int64)
    logprob_sums = np.zeros(B)
    row = np.arange(B)  # the row each session slot decodes
    live = np.ones(B, dtype=bool)  # per session slot
    # set again only on a step where some row finished
    slots, live_rows = row, row
    slot_start = start_pos[:, None]  # position of step 0
    # after the prefill the session takes one kept column per row; a finished
    # slot's column is attended by its own row alone, whose logits no one reads
    keep = np.ones((B, 1), dtype=bool)
    for step in range(tokens.shape[1]):
        picked, logp = select_next_token(logits[slots], uniforms[live_rows, step], cfg.top_k,
                                         cfg.temperature)
        logprob_sums[live_rows] += logp
        tokens[live_rows, step] = picked
        ended = (picked == v.eos_id) | (step + 1 >= budget[live_rows])
        if ended.any():
            counts[live_rows[ended]] = step + 1
            live[slots[ended]] = False
            if not live.any():
                break
            if 4 * np.count_nonzero(~live) >= len(live):
                kept = np.flatnonzero(live)
                sess.take(kept)
                row, live = row[kept], live[kept]
            slots = np.flatnonzero(live)
            live_rows = row[slots]
            # a finished slot's position is arbitrary, within max_context
            slot_start = np.where(live, start_pos[row], 0)[:, None]
        logits = sess.append(tokens[row, step, None], slot_start + step, keep[: len(row)])

    rows = [(tokens[b, : counts[b]].tolist(), float(logprob_sums[b] / counts[b]))
            for b in range(B)]
    out = [None] * len(prefixes)
    for i, u in enumerate(order):
        out[u] = rows[i * n : (i + 1) * n]
    return out


def pick_best(candidates) -> int:
    """Index of the lowest-ERR candidate; ties to higher mean logprob,
    then to the earlier candidate."""
    return min(
        range(len(candidates)),
        key=lambda i: (candidates[i].err, -candidates[i].token_logprob_mean, i),
    )


def generate_candidates(
    params: ModelParams,
    v: Vocab,
    acts_list,
    cfg: DecodeConfig,
) -> list:
    """All candidates for many dialog acts, decoded in batches.

    Returns one list of ``cfg.n_candidates`` :class:`Candidate` per act.
    Candidate 0 is greedy; the rest are top-k samples whose RNG streams
    depend only on (seed, candidate index, the act's prefix).  Each
    distinct act decodes once and its repeats get copies of its list;
    the distinct acts decode in sessions of at most ``MAX_SESSION_ROWS``
    candidate rows (at least one act each); each act's decoded rows
    become its candidates, their texts rendered by
    :func:`~scgpt.bpe.decode` and scored by slot error.  Re-running the
    same call is bitwise deterministic, and identical acts get identical
    candidates, whatever else shares the call, up to float32 accumulation
    order in the log-probs.  An act whose prefix leaves no room to generate
    raises :class:`ContextOverflowError`, naming it, before any decoding.
    """
    acts_list = list(acts_list)
    distinct = list(dict.fromkeys(acts_list))
    max_context = params.config.max_context
    prefixes = []
    for acts in distinct:
        text = linearize(acts)
        prefix = encode(v, text) + [v.bos_id]
        if len(prefix) + 1 > max_context:
            raise ContextOverflowError(
                f"dialog act {text!r}: its prefix of {len(prefix)} tokens leaves "
                f"no room to generate within max_context {max_context}"
            )
        prefixes.append(prefix)
    n = cfg.n_candidates
    per_session = max(1, MAX_SESSION_ROWS // n)
    cands_of = {}
    for lo in range(0, len(distinct), per_session):
        decoded = _generate_rows(params, v, prefixes[lo : lo + per_session], cfg)
        for acts, rows in zip(distinct[lo : lo + per_session], decoded):
            texts = [(decode(v, ids), lp) for ids, lp in rows]
            cands_of[acts] = [Candidate(t, lp, slot_error(acts, t).err) for t, lp in texts]
    return [list(cands_of[acts]) for acts in acts_list]


def generate_reranked(
    params: ModelParams, v: Vocab, acts: DialogActSet, cfg: DecodeConfig
) -> Candidate:
    """Generate n candidates for one act and return the lowest-ERR one."""
    candidates = generate_candidates(params, v, [acts], cfg)[0]
    return candidates[pick_best(candidates)]


def generate_corpus(
    params: ModelParams, v: Vocab, acts_list, cfg: DecodeConfig
) -> list:
    """Reranked winner for every act, decoded as :func:`generate_candidates` does."""
    return [
        cands[pick_best(cands)]
        for cands in generate_candidates(params, v, acts_list, cfg)
    ]
