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
row's next token at once.  Each distinct act prefix is prefilled once,
left-padded with per-row position offsets, and its caches are copied to
that act's candidate rows.  Finished rows leave the batch once they make
up a quarter of it.  Every row has its own budget,
``min(max_new_tokens, max_context - prefix length)``, and its own RNG
stream, so an act's candidates do not depend on the acts that share its
batch, only on its index in the call.
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
        if self.temperature < 0:
            raise ValueError("temperature must not be negative")


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
    logp = log_softmax(logits.astype(np.float64))
    picked = logits.argmax(axis=-1)
    sampled = [i for i, rng in enumerate(rngs) if rng is not None]
    if sampled:
        block = logits[sampled]
        V = block.shape[1]
        k = min(k, V)
        top = np.argpartition(block, V - k, axis=1)[:, V - k :]
        vals = np.take_along_axis(block, top, axis=1)
        order = vals.argsort(axis=1)[:, ::-1]  # largest first
        top = np.take_along_axis(top, order, axis=1)
        scaled = np.take_along_axis(vals, order, axis=1) / max(temperature, 1e-6)
        cdf = np.exp(log_softmax(scaled.astype(np.float64))).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        u = np.array([rngs[i].random() for i in sampled])
        # searchsorted(cdf, u, side="right") row by row
        draw = (cdf <= u[:, None]).sum(axis=1)
        picked[sampled] = top[np.arange(len(sampled)), draw]
    return picked, logp[np.arange(len(picked)), picked]


def select_next_token(logits: np.ndarray, rng, k: int, temperature: float) -> int:
    """Next token id of one logits row: a one-row :func:`select_tokens`,
    greedy when ``rng`` is None.

    Decoding calls :func:`select_tokens` directly.  This name stays as
    the lookup site that ``perfbench/tracer.py`` wraps, until the package
    records its own spans (ROADMAP item 1).
    """
    return int(select_tokens(logits[None], [rng], k, temperature)[0][0])


def _candidate_rng(seed: int, da_index: int, cand_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, da_index, cand_index)))


def _generate_rows(params: ModelParams, v: Vocab, prefixes, cfg: DecodeConfig, first_act: int):
    """Decode ``cfg.n_candidates`` rows per act prefix in one batched session.

    Row ``i * n + j`` is candidate j of act ``first_act + i`` of the
    call: candidate 0 is greedy, the others draw top-k with a generator
    seeded by (seed, act index, candidate index).  Each distinct prefix
    is prefilled once and its caches are copied to every row that shares
    it.  A row stops at EOS or after ``min(max_new_tokens, max_context -
    len(prefix))`` tokens, whatever the other rows do.  Finished rows
    leave the session once they make up a quarter of it: copying the
    caches on every finish costs more than carrying a few dead rows.

    Returns per row (token ids without specials, mean token logprob).
    The mean covers every emitted token including the terminating EOS.
    """
    mc, n = params.config, cfg.n_candidates
    first_row = {}  # prefix -> its row in the prefill batch
    unique, act_row = [], []
    for prefix in prefixes:
        key = tuple(prefix)
        if key not in first_row:
            if len(prefix) + 1 > mc.max_context:
                raise ContextOverflowError(
                    f"dialog-act prefix of {len(prefix)} tokens leaves no room to "
                    f"generate within max_context {mc.max_context}"
                )
            first_row[key] = len(unique)
            unique.append(prefix)
        act_row.append(first_row[key])
    prefix_lens = np.array([len(p) for p in unique])
    T0 = int(prefix_lens.max())
    ids = np.full((len(unique), T0), v.pad_id, dtype=np.int64)
    keep = np.zeros(ids.shape, dtype=bool)
    pos = np.zeros(ids.shape, dtype=np.int64)
    for u, prefix in enumerate(unique):
        L = len(prefix)
        ids[u, T0 - L :] = prefix
        keep[u, T0 - L :] = True
        pos[u, T0 - L :] = np.arange(L)

    prefill_row = np.repeat(act_row, n)
    start_pos = prefix_lens[prefill_row]
    budget = np.minimum(cfg.max_new_tokens, mc.max_context - start_pos)
    # a row's last token is never fed back
    sess = DecodeSession(params, batch_size=len(unique), max_len=T0 + int(budget.max()) - 1)
    logits = sess.append(ids, pos, keep)[prefill_row]
    sess.take(prefill_row)

    B = len(prefill_row)
    rngs = [
        _candidate_rng(cfg.seed, first_act + b // n, b % n) if b % n else None
        for b in range(B)
    ]
    tokens = np.zeros((B, int(budget.max())), dtype=np.int64)
    counts = np.zeros(B, dtype=np.int64)
    logprob_sums = np.zeros(B)
    row = np.arange(B)  # the row each session slot decodes
    live = np.ones(B, dtype=bool)  # per session slot
    for step in range(tokens.shape[1]):
        slots = np.flatnonzero(live)
        live_rows = row[slots]
        picked, logp = select_tokens(
            logits[slots], [rngs[b] for b in live_rows.tolist()], cfg.top_k, cfg.temperature
        )
        logprob_sums[live_rows] += logp
        tokens[live_rows, step] = picked
        counts[live_rows] = step + 1
        live[slots] = (picked != v.eos_id) & (step + 1 < budget[live_rows])
        if not live.any():
            break
        if 4 * np.count_nonzero(~live) >= len(live):
            kept = np.flatnonzero(live)
            sess.take(kept)
            row, live = row[kept], live[kept]
        # finished slots feed an inert masked column; position 0 is arbitrary
        logits = sess.append(
            tokens[row, step].reshape(-1, 1),
            np.where(live, start_pos[row] + step, 0).reshape(-1, 1),
            live.reshape(-1, 1),
        )

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
    depend only on (seed, act index in this call, candidate index).
    Acts decode in sessions of at most ``MAX_SESSION_ROWS`` candidate
    rows (at least one act each), in order.  Re-running the same call is
    bitwise deterministic; an act decoded at the same index in another
    call, alone or beside other acts, gets the same candidates up to
    float32 accumulation order.
    """
    acts_list = list(acts_list)
    n = cfg.n_candidates
    per_session = max(1, MAX_SESSION_ROWS // n)
    out = []
    for lo in range(0, len(acts_list), per_session):
        group = acts_list[lo : lo + per_session]
        prefixes = [encode(v, linearize(acts)) + [v.bos_id] for acts in group]
        decoded = _generate_rows(params, v, prefixes, cfg, lo)
        for i, acts in enumerate(group):
            cands = []
            for token_ids, mean_lp in decoded[i * n : (i + 1) * n]:
                text = decode(v, token_ids)
                cands.append(Candidate(text, mean_lp, slot_error(acts, text).err))
            out.append(cands)
    return out


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
