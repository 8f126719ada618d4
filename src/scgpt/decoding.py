"""Autoregressive generation conditioned on linearized dialog acts.

Each dialog act yields ``n_candidates`` realizations: the first decoded
greedily, the rest sampled top-k with a per-candidate seeded RNG.  Every
candidate is scored by slot error rate and the winner is the lowest-ERR
candidate, ties broken by higher mean token log-probability, then by
candidate index.

The candidates of many acts decode together in batches of at most
``MAX_SESSION_ROWS`` rows, with cached attention keys/values, so one
step is a few whole-batch array operations: the model's linear layers
run as 2-D GEMMs over the rows, and :func:`select_tokens` picks every
row's next token at once.  Each distinct act of a call decodes once:
its prefix is prefilled, left-padded with per-row position offsets, its
caches are copied to its candidate rows, and its repeats in the call get
copies of its candidates.  Finished rows leave the batch once they make
up a quarter of it.  Every row has its own budget,
``min(max_new_tokens, max_context - prefix length)``, and its own RNG
stream, seeded by the act's prefix and the candidate index, so identical
acts get identical candidates, whatever else shares the call.

A step with few rows costs array-call overhead, not arithmetic, so the
loop keeps its fixed work small: the session multiplies by a contiguous
copy of the tied head, the select takes one log-sum-exp per row and the
log-prob of the picked token only, and the live slots, their rows and
their generators are worked out again only on a step where some row
finished.  The candidate texts are those of the plain per-step loop; a
log-prob may differ by float32 rounding when one or two rows are left,
where numpy multiplies by the head as a matrix-vector product.
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


@dataclass(frozen=True)
class Candidate:
    text: str
    token_logprob_mean: float
    err: float


def select_tokens(logits: np.ndarray, rngs, k: int, temperature: float):
    """Next token id of every row of ``logits`` [n,V], and its log-prob.

    A row whose entry in ``rngs`` is None takes the argmax.  Every other
    row draws from its k largest logits divided by ``temperature`` (at
    least 1e-6), with one uniform from its own generator; the draw is
    the arithmetic of ``rng.choice(k, p=...)`` over the k in descending
    order, so the same uniform gives the same pick.  The log-probability
    (float64) is that of the unscaled distribution over the vocabulary.

    Ties: a greedy row takes the first largest index.  Among sampled
    logits tied at the k-th largest value, ``argpartition`` decides which
    enter the k and the sort decides their order.  Both depend on the
    logits alone, so a pick is deterministic and always has one of the k
    largest values, though not always the index a full ``argsort`` would
    have ordered there.
    """
    picked = logits.argmax(axis=-1)
    sampled = [i for i, rng in enumerate(rngs) if rng is not None]
    if sampled:
        block = logits[sampled]
        V = block.shape[1]
        k = min(k, V)
        r = np.arange(len(sampled))[:, None]  # indexes [s,k] arrays by row
        top = np.argpartition(block, V - k, axis=1)[:, V - k :]
        vals = block[r, top]
        order = vals.argsort(axis=1)[:, ::-1]  # largest first
        top = top[r, order]
        scaled = vals[r, order] / max(temperature, 1e-6)
        cdf = np.exp(log_softmax(scaled.astype(np.float64))).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        u = np.array([rngs[i].random() for i in sampled])
        # searchsorted(cdf, u, side="right") row by row
        draw = (cdf <= u[:, None]).sum(axis=1)
        picked[sampled] = top[r[:, 0], draw]
    # log_softmax's arithmetic, evaluated at the picked tokens only
    x = logits.astype(np.float64)
    shifted = x - np.maximum.reduce(x, -1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(shifted), -1))
    return picked, shifted[np.arange(len(picked)), picked] - lse


def select_next_token(logits: np.ndarray, rng, k: int, temperature: float) -> int:
    """Next token id of one logits row: a one-row :func:`select_tokens`,
    greedy when ``rng`` is None.

    Decoding calls :func:`select_tokens` directly.  This name stays as
    the lookup site that ``perfbench/tracer.py`` wraps, until the package
    records its own spans (ROADMAP item 2).
    """
    return int(select_tokens(logits[None], [rng], k, temperature)[0][0])


def _candidate_rng(seed: int, cand_index: int, prefix) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, cand_index, *prefix)))


def _generate_rows(params: ModelParams, v: Vocab, prefixes, cfg: DecodeConfig):
    """Decode ``cfg.n_candidates`` rows per act prefix in one batched session.

    The prefixes are distinct.  Row ``i * n + j`` is candidate j of
    ``prefixes[i]``: candidate 0 is greedy, the others draw top-k with a
    generator seeded by (seed, j, the prefix's token ids).  Each prefix
    is prefilled once and its caches are copied to its n rows.  A row
    stops at EOS or after ``min(max_new_tokens, max_context -
    len(prefix))`` tokens, whatever the other rows do.  Finished rows
    leave the session once they make up a quarter of it: copying the
    caches on every finish costs more than carrying a few dead rows.

    Returns per row (token ids without specials, mean token logprob).
    The mean covers every emitted token including the terminating EOS.
    """
    mc, n = params.config, cfg.n_candidates
    prefix_lens = np.array([len(p) for p in prefixes])
    T0 = int(prefix_lens.max())
    ids = np.full((len(prefixes), T0), v.pad_id, dtype=np.int64)
    keep = np.zeros(ids.shape, dtype=bool)
    pos = np.zeros(ids.shape, dtype=np.int64)
    for u, prefix in enumerate(prefixes):
        L = len(prefix)
        ids[u, T0 - L :] = prefix
        keep[u, T0 - L :] = True
        pos[u, T0 - L :] = np.arange(L)

    prefill_row = np.repeat(np.arange(len(prefixes)), n)
    start_pos = prefix_lens[prefill_row]
    budget = np.minimum(cfg.max_new_tokens, mc.max_context - start_pos)
    # a row's last token is never fed back
    sess = DecodeSession(params, batch_size=len(prefixes), max_len=T0 + int(budget.max()) - 1)
    logits = sess.append(ids, pos, keep)[prefill_row]
    sess.take(prefill_row)

    B = len(prefill_row)
    rngs = [
        _candidate_rng(cfg.seed, b % n, prefixes[b // n]) if b % n else None
        for b in range(B)
    ]
    tokens = np.zeros((B, int(budget.max())), dtype=np.int64)
    counts = np.zeros(B, dtype=np.int64)
    logprob_sums = np.zeros(B)
    row = np.arange(B)  # the row each session slot decodes
    live = np.ones(B, dtype=bool)  # per session slot
    # set again only on a step where some row finished
    slots, live_rows, live_rngs = row, row, rngs
    slot_start, keep = start_pos[:, None], live[:, None]  # position of step 0
    for step in range(tokens.shape[1]):
        picked, logp = select_tokens(logits[slots], live_rngs, cfg.top_k, cfg.temperature)
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
            live_rngs = [rngs[b] for b in live_rows.tolist()]
            # finished slots feed an inert masked column; its position is arbitrary
            slot_start, keep = np.where(live, start_pos[row], 0)[:, None], live[:, None]
        logits = sess.append(tokens[row, step, None], slot_start + step, keep)

    out = []
    for b in range(B):
        emitted = tokens[b, : counts[b]].tolist()
        if emitted[-1] == v.eos_id:
            emitted.pop()
        out.append((emitted, float(logprob_sums[b] / counts[b])))
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
    candidate rows (at least one act each).  Re-running the same call is
    bitwise deterministic, and identical acts get identical candidates,
    whatever else shares the call, up to float32 accumulation order in
    the log-probs.  An act whose prefix leaves no room to generate
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
        for i, acts in enumerate(distinct[lo : lo + per_session]):
            texts = [(decode(v, ids), lp) for ids, lp in decoded[i * n : (i + 1) * n]]
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
