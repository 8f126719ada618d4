"""Autoregressive generation conditioned on linearized dialog acts.

Each dialog act yields ``n_candidates`` realizations: the first decoded
greedily, the rest sampled top-k with a per-candidate seeded RNG.  Every
candidate is scored by slot error rate and the winner is the lowest-ERR
candidate, ties broken by higher mean token log-probability, then by
candidate index.

All candidates for all acts decode together in one batch with cached
attention keys/values, which keeps per-step work to a few wide matrix
products.  Each distinct act prefix is prefilled once, left-padded with
per-row position offsets, and its caches are copied to that act's
candidate rows.  Finished rows leave the batch once they make up a
quarter of it.  Every row has its own budget,
``min(max_new_tokens, max_context - prefix length)``, so an act's
candidates do not depend on the acts that share its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpe import Vocab, decode, encode
from .dialog_act import DialogActSet, linearize
from .errors import ContextOverflowError
from .metrics import slot_error
from .model import DecodeSession, ModelParams


@dataclass(frozen=True)
class Greedy:
    pass


@dataclass(frozen=True)
class TopK:
    k: int = 20
    temperature: float = 1.0


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


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Float64 log-softmax over the last axis."""
    shifted = x.astype(np.float64) - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _draw(logp: np.ndarray, rng) -> int:
    """Index drawn with probabilities exp(logp).

    The arithmetic of ``rng.choice(len(logp), p=np.exp(logp))``, without
    its argument checks: the same uniform variate gives the same index.
    """
    cdf = np.exp(logp).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def select_next_token(logits: np.ndarray, strategy, rng) -> int:
    """Pick the next token id from a logits row under a strategy."""
    if isinstance(strategy, Greedy):
        return int(np.argmax(logits))
    if isinstance(strategy, TopK):
        k = min(strategy.k, len(logits))
        top = logits.argsort()[: -k - 1 : -1]  # k largest, largest first
        scaled = logits[top] / max(strategy.temperature, 1e-6)
        return int(top[_draw(_log_softmax(scaled), rng)])
    raise TypeError(f"unknown decode strategy {strategy!r}")


def _candidate_rng(seed: int, da_index: int, cand_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, da_index, cand_index)))


def _generate_rows(params: ModelParams, v: Vocab, rows, max_new_tokens: int):
    """Decode many (prefix_ids, strategy, rng) rows in one batched session.

    Each distinct prefix is prefilled once and its caches are copied to
    every row that shares it.  A row stops at EOS or after
    ``min(max_new_tokens, max_context - len(prefix))`` tokens, whatever
    the other rows do.  Finished rows leave the session once they make up
    a quarter of it: copying the caches on every finish costs more than
    carrying a few dead rows.

    Returns per row (token ids without specials, mean token logprob).
    The mean covers every emitted token including the terminating EOS.
    """
    cfg = params.config
    first_row = {}  # prefix -> its row in the prefill batch
    prefixes, prefill_row = [], []
    for prefix, _, _ in rows:
        key = tuple(prefix)
        if key not in first_row:
            if len(prefix) + 1 > cfg.max_context:
                raise ContextOverflowError(
                    f"dialog-act prefix of {len(prefix)} tokens leaves no room to "
                    f"generate within max_context {cfg.max_context}"
                )
            first_row[key] = len(prefixes)
            prefixes.append(prefix)
        prefill_row.append(first_row[key])
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

    start_pos = prefix_lens[prefill_row]
    budget = np.minimum(max_new_tokens, cfg.max_context - start_pos)
    # a row's last token is never fed back
    sess = DecodeSession(params, batch_size=len(prefixes), max_len=T0 + int(budget.max()) - 1)
    logits = sess.append(ids, pos, keep)[prefill_row]
    sess.take(prefill_row)

    B = len(rows)
    strategies = [r[1] for r in rows]
    rngs = [r[2] for r in rows]
    tokens = np.zeros((B, int(budget.max())), dtype=np.int64)
    counts = np.zeros(B, dtype=np.int64)
    logprob_sums = np.zeros(B)
    row = np.arange(B)  # the row each session slot decodes
    live = np.ones(B, dtype=bool)  # per session slot
    for step in range(tokens.shape[1]):
        slots = np.flatnonzero(live)
        live_rows = row[slots]
        picked = np.array(
            [
                select_next_token(logits[s], strategies[b], rngs[b])
                for s, b in zip(slots.tolist(), live_rows.tolist())
            ],
            dtype=np.int64,
        )
        logprob_sums[live_rows] += _log_softmax(logits[slots])[np.arange(len(slots)), picked]
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
    """All candidates for many dialog acts, decoded as one batch.

    Returns one list of ``cfg.n_candidates`` :class:`Candidate` per act.
    Candidate 0 is greedy; the rest are top-k samples whose RNG streams
    depend only on (seed, act index, candidate index).  Re-running the
    same call is bitwise deterministic; decoding an act alone reproduces
    its batched candidates up to float32 accumulation order.
    """
    acts_list = list(acts_list)
    if not acts_list:
        return []
    rows = []
    for i, acts in enumerate(acts_list):
        prefix = encode(v, linearize(acts)) + [v.bos_id]
        for j in range(cfg.n_candidates):
            if j == 0:
                rows.append((prefix, Greedy(), None))
            else:
                rows.append(
                    (
                        prefix,
                        TopK(cfg.top_k, cfg.temperature),
                        _candidate_rng(cfg.seed, i, j),
                    )
                )
    decoded = _generate_rows(params, v, rows, cfg.max_new_tokens)
    out = []
    for i, acts in enumerate(acts_list):
        cands = []
        for j in range(cfg.n_candidates):
            token_ids, mean_lp = decoded[i * cfg.n_candidates + j]
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
    """Reranked winner for every act, decoded in one batch."""
    return [
        cands[pick_best(cands)]
        for cands in generate_candidates(params, v, acts_list, cfg)
    ]
