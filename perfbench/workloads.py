"""The four workloads: inputs built from the workload seed, a fixed set
of distinct timed operations that the loop repeats, and the checks on
every output.

Every call into the package goes through a module attribute
(``decoding.generate_reranked``, ``bpe.train_bpe``, ...) so that the
tracer's patches see it.  Checks use the functions saved at import time,
so they never show up as traced program work.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from scgpt import bpe, dataset, decoding, dialog_act, metrics, model, synthetic, training
from scgpt.dataset import Corpus
from scgpt.decoding import DecodeConfig
from scgpt.model import ModelConfig
from scgpt.training import TrainConfig

# Unwrapped references for the checks.
_pick_best = decoding.pick_best
_slot_error = metrics.slot_error
_encode = bpe.encode
_decode = bpe.decode
_linearize = dialog_act.linearize
_generate_candidates = decoding.generate_candidates

# -- serving model and traffic ------------------------------------------
# The serving model is built from this fixed seed and the workload seed
# draws the traffic.  Models trained from different seeds at this size
# differ twofold in how often candidates run to max_new_tokens, which
# would make the latency spread across seeds a property of the model,
# not of the code; a fixed model also makes its checkpoint hash change
# only when the code does.
MODEL_SEED = 2
# Three pretraining domains keep the short pretraining run good enough
# that about nine in ten candidates end at EOS; museum is a held-out
# domain with an intent inventory disjoint from them.
SERVE_DOMAINS = ("hotel", "restaurant", "train")
HELDOUT_DOMAIN = "museum"
VOCAB_SIZE = 448
COINED_FRACTION = 0.2
MODEL = dict(n_layers=2, n_heads=4, d_model=64, d_ff=128, max_context=192, dropout=0.0)
PRETRAIN_PER_DOMAIN = 50
# Long examples make each step cost more than they teach a model this
# small; the traffic still carries acts of every length.
PRETRAIN_MAX_TOKENS = 72
PRETRAIN = dict(stage="da_pretrain", start_lr=4e-3, batch_size=8, max_epochs=6,
                early_stop_patience=10**6, val_fraction=0.05)
HELDOUT_POOL = 300
FINETUNE_K = 8
FINETUNE = dict(stage="finetune", start_lr=1e-3, batch_size=8, max_epochs=4,
                early_stop_patience=10**6, val_fraction=0.0)
DECODE = dict(n_candidates=5, max_new_tokens=64, top_k=5, temperature=0.7)
HELD_SHARE = 0.3
TRAFFIC_BLOCK = 20
MIN_SLOTS, MAX_SLOTS = 1, 5
LENGTH_BINS = 3
MAX_PREFIX_TOKENS = 120  # prefix + max_new_tokens stays within max_context
ONLINE_REQUESTS = 6 * TRAFFIC_BLOCK  # distinct requests, each repeated by the loop
OFFLINE_CHUNK = 40  # acts per generate_corpus call: 200 decode rows
OFFLINE_CHUNKS = 4  # distinct calls, each repeated by the loop

# -- train_da -------------------------------------------------------------
TRAIN_PER_DOMAIN = 50
# The longest batch sets peak memory; a cap that most seeds reach keeps it
# from swinging with the single longest act a seed happens to draw.
TRAIN_MAX_TOKENS = 128
TRAIN_STAGE = dict(stage="da_pretrain", start_lr=5e-3, batch_size=8, max_epochs=1,
                   early_stop_patience=10**6, val_fraction=0.1)

# -- prepare_corpus -------------------------------------------------------
PREPARE_PER_DOMAIN = 15
PREPARE_VOCAB_SIZE = 384
PREPARE_HELDOUT = ("museum", 150, 8)  # domain, examples, k
PREPARE_PASSES = 6  # distinct pass seeds, each repeated by the loop


def sub_seed(seed: int, tag: int) -> int:
    """A distinct, reproducible seed per input stream of one workload seed."""
    return seed * 1000 + tag


def sha256_text(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def example_lines(examples):
    return (f"{_linearize(ex.acts)}\t{ex.response}\t{ex.domain}" for ex in examples)


def corpus_texts(corpus):
    return [dialog_act.linearize(ex.acts) for ex in corpus] + [ex.response for ex in corpus]


def example_tokens(ex, vocab) -> int:
    return len(_encode(vocab, _linearize(ex.acts))) + len(_encode(vocab, ex.response)) + 2


@dataclass
class Op:
    """One timed operation: ``fn()`` does the work of ``items`` acts."""

    fn: object
    items: int
    meta: object = None


@dataclass
class Record:
    """One run of an operation; ``key`` names which distinct operation."""

    op: Op
    key: int
    seconds: float
    out: object = None
    error: str | None = None
    tokens: int = 0  # set by the workload's checks
    scale: float = 1.0  # wall to reference time, set by the loop


@dataclass
class Outcome:
    """What a workload's checks and summaries produce for the report."""

    attempted: int = 0
    failed: int = 0
    extra: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


# -- serving --------------------------------------------------------------
@dataclass
class Serving:
    vocab: object
    params: object
    cfg: DecodeConfig
    traffic: list
    summary: dict  # how the serving model was built, for the report


def build_serving(seed: int, n_traffic: int) -> Serving:
    """Pretraining mix, BPE vocab, da_pretrain, k-shot finetune, traffic."""
    pre = synthetic.generate(synthetic.builtin_grammars(SERVE_DOMAINS), PRETRAIN_PER_DOMAIN,
                             seed=sub_seed(MODEL_SEED, 1))
    pre = synthetic.inject_coined_values(pre, COINED_FRACTION, seed=sub_seed(MODEL_SEED, 2))
    vocab = bpe.train_bpe(corpus_texts(pre), target_vocab_size=VOCAB_SIZE)
    short = Corpus(tuple(ex for ex in pre if example_tokens(ex, vocab) <= PRETRAIN_MAX_TOKENS))

    mc = ModelConfig(vocab_size=vocab.size, **MODEL)
    params = model.init_params(mc, seed=sub_seed(MODEL_SEED, 3))
    params, pre_log = training.run_stage(
        TrainConfig(seed=sub_seed(MODEL_SEED, 4), **PRETRAIN), short, params, vocab)

    held = synthetic.generate([synthetic.builtin_grammar(HELDOUT_DOMAIN)], HELDOUT_POOL,
                              seed=sub_seed(MODEL_SEED, 5))
    few, rest = dataset.build_fewshot(held, {HELDOUT_DOMAIN: FINETUNE_K},
                                      seed=sub_seed(MODEL_SEED, 6))
    fewshot_stats = dataset.stats(few, rest)
    params, ft_log = training.run_stage(
        TrainConfig(seed=sub_seed(MODEL_SEED, 7), **FINETUNE), few, params, vocab)

    traffic = serving_traffic(seed, vocab, rest, n_traffic)
    cfg = DecodeConfig(seed=sub_seed(seed, 8), **DECODE)
    summary = {"pretrain_examples": len(short), "pretrain_val_loss": pre_log[-1]["val_loss"],
               "finetune_train_loss": ft_log[-1]["train_loss"],
               "heldout_train": fewshot_stats.n_train, "heldout_test": fewshot_stats.n_test}
    return Serving(vocab, params, cfg, traffic, summary)


def serving_traffic(seed: int, vocab, heldout_test: Corpus, n: int) -> list:
    """Examples whose acts form the request stream, seen and held-out mixed.

    Requests come in shuffled blocks with a fixed make-up: HELD_SHARE of
    each block is held-out, within each part the slot counts cycle
    through 1..5, and within each slot count the length of the reference
    response cycles through LENGTH_BINS bins, so runs on different seeds
    carry the same traffic mix and differ only in which acts and coined
    values they draw.  Decoding time follows output length, so the length
    bins keep the amount of decoding in a run's requests alike across
    seeds.
    """
    seen = synthetic.generate(
        synthetic.builtin_grammars(SERVE_DOMAINS), 200, seed=sub_seed(seed, 11))
    seen = synthetic.inject_coined_values(seen, COINED_FRACTION, seed=sub_seed(seed, 12))
    held = synthetic.inject_coined_values(heldout_test, COINED_FRACTION, seed=sub_seed(seed, 13))

    def strata(pool):
        by_slots = {}
        for ex in pool:
            n_slots = len(ex.acts.all_pairs())
            prefix = len(_encode(vocab, _linearize(ex.acts)))
            if MIN_SLOTS <= n_slots <= MAX_SLOTS and prefix <= MAX_PREFIX_TOKENS:
                by_slots.setdefault(n_slots, []).append(ex)
        out = []
        for k in sorted(by_slots):
            ranked = sorted(by_slots[k], key=lambda ex: len(_encode(vocab, ex.response)))
            if len(ranked) >= LENGTH_BINS:
                out.append([ranked[b * len(ranked) // LENGTH_BINS:
                                   (b + 1) * len(ranked) // LENGTH_BINS]
                            for b in range(LENGTH_BINS)])
        return out

    seen_strata, held_strata = strata(seen), strata(held)
    n_held = round(TRAFFIC_BLOCK * HELD_SHARE)
    block = ([seen_strata[i % len(seen_strata)] for i in range(TRAFFIC_BLOCK - n_held)]
             + [held_strata[i % len(held_strata)] for i in range(n_held)])
    rng = np.random.default_rng(sub_seed(seed, 14))
    out = []
    while len(out) < n:
        round_ = len(out) // len(block)
        for j in rng.permutation(len(block)):
            bins = block[j]
            pool = bins[(round_ + j) % LENGTH_BINS]
            out.append(pool[int(rng.integers(len(pool)))])
    return out[:n]


def serving_fingerprint(s: Serving, out_dir, tag: str) -> dict:
    vocab_path = out_dir / f"{tag}.bpe"
    ckpt_path = out_dir / f"{tag}.ckpt"
    bpe.save_vocab(s.vocab, vocab_path)
    model.save_checkpoint(s.params, ckpt_path)
    return {
        "inputs_sha256": sha256_text(example_lines(s.traffic)),
        "vocab_sha256": sha256_file(vocab_path),
        "checkpoint_sha256": sha256_file(ckpt_path),
        "serving_model": s.summary,
    }


class Capture:
    """Keeps every generate_candidates result so winners can be checked."""

    def __init__(self):
        self.calls = []

    def __call__(self, params, v, acts_list, cfg):
        out = _generate_candidates(params, v, acts_list, cfg)
        self.calls.append((list(acts_list), out))
        return out

    def install(self):
        decoding.generate_candidates = self

    def uninstall(self):
        decoding.generate_candidates = _generate_candidates


def check_serving(s: Serving, records, capture: Capture, outcome: Outcome) -> list:
    """Check every winner against its candidates, and every repeat of a
    call against its first run, which must give bit-identical candidates,
    as generate_candidates promises; returns (winner, example) pairs of
    each call's first run."""
    checked, first, first_tokens = [], {}, {}
    for rec in records:
        examples, call_index = rec.op.meta
        if rec.error is not None:
            outcome.attempted += len(examples)
            outcome.failed += len(examples)
            outcome.problems.append(rec.error)
            continue
        acts_list, cands_list = capture.calls[call_index]
        if rec.key in first:
            outcome.check((rec.out, cands_list) == first[rec.key],
                          "repeated generate call returned different candidates")
            rec.tokens = first_tokens[rec.key]
            continue
        first[rec.key] = (rec.out, cands_list)
        outcome.check(len(rec.out) == len(examples) == len(cands_list),
                      "winner count differs from act count")
        for ex, acts, winner, cands in zip(examples, acts_list, rec.out, cands_list):
            ok = (acts == ex.acts
                  and len(cands) == s.cfg.n_candidates
                  and winner == cands[_pick_best(cands)]
                  and winner.err == _slot_error(ex.acts, winner.text).err)
            outcome.check(ok, f"winner check failed for {_linearize(ex.acts)!r}")
            rec.tokens += sum(len(_encode(s.vocab, c.text)) + 1 for c in cands)
            checked.append((winner, ex))
        first_tokens[rec.key] = rec.tokens
    outcome.check(len(first) > 0, "no generate call completed")
    return checked


def online_ops(s: Serving, capture: Capture):
    def op(i):
        ex = s.traffic[i]
        return Op(lambda: [decoding.generate_reranked(s.params, s.vocab, ex.acts, s.cfg)],
                  1, ([ex], len(capture.calls)))
    return op


def offline_ops(s: Serving, capture: Capture):
    def op(i):
        lo = i * OFFLINE_CHUNK
        chunk = s.traffic[lo:lo + OFFLINE_CHUNK]
        acts = [ex.acts for ex in chunk]
        return Op(lambda: decoding.generate_corpus(s.params, s.vocab, acts, s.cfg),
                  len(chunk), (chunk, len(capture.calls)))
    return op


def summarize_serving(s: Serving, checked, outcome: Outcome, with_bleu: bool) -> None:
    if not checked:
        return
    outcome.extra["err_mean"] = sum(w.err for w, _ in checked) / len(checked)
    if with_bleu:
        outcome.extra["bleu"] = metrics.corpus_bleu(
            [w.text for w, _ in checked], [[ex.response] for _, ex in checked])


# -- train_da -------------------------------------------------------------
@dataclass
class TrainInputs:
    corpus: Corpus
    vocab: object
    mc: ModelConfig
    seed: int
    loss_tokens: int


def build_train(seed: int) -> TrainInputs:
    """A fixed multi-domain corpus of varied lengths and its vocab."""
    corpus = synthetic.generate(
        synthetic.builtin_grammars(synthetic.PRETRAIN_GRAMMARS), TRAIN_PER_DOMAIN,
        seed=sub_seed(seed, 21))
    corpus = synthetic.inject_coined_values(corpus, COINED_FRACTION, seed=sub_seed(seed, 22))
    vocab = bpe.train_bpe(corpus_texts(corpus), target_vocab_size=VOCAB_SIZE)
    fits = Corpus(tuple(ex for ex in corpus if example_tokens(ex, vocab) <= TRAIN_MAX_TOKENS))
    # every example's response tokens and EOS enter a loss once per epoch:
    # training examples through the taped step, the rest through evaluation
    loss_tokens = sum(example_tokens(ex, vocab) - len(_encode(vocab, _linearize(ex.acts))) - 1
                      for ex in fits)
    return TrainInputs(fits, vocab, ModelConfig(vocab_size=vocab.size, **MODEL),
                       sub_seed(seed, 23), loss_tokens)


def train_ops(t: TrainInputs):
    cfg = TrainConfig(seed=t.seed, **TRAIN_STAGE)

    def op(i):
        params = model.init_params(t.mc, seed=t.seed)
        return Op(lambda: training.run_stage(cfg, t.corpus, params, t.vocab)[1],
                  len(t.corpus) * cfg.max_epochs, None)
    return op


def check_train(t: TrainInputs, records, outcome: Outcome) -> None:
    logs = []
    for rec in records:
        if rec.error is not None:
            outcome.check(False, rec.error)
            continue
        log = rec.out
        finite = bool(log) and all(
            math.isfinite(e["train_loss"]) and math.isfinite(e["val_loss"]) for e in log)
        outcome.check(finite, "non-finite training loss")
        rec.tokens = t.loss_tokens * len(log)
        logs.append(log)
    if logs:
        outcome.check(all(log == logs[0] for log in logs),
                      "identical run_stage calls logged different losses")
        outcome.extra["final_val_loss"] = logs[0][-1]["val_loss"]


def train_fingerprint(t: TrainInputs, out_dir, tag: str) -> dict:
    vocab_path = out_dir / f"{tag}.bpe"
    bpe.save_vocab(t.vocab, vocab_path)
    return {"inputs_sha256": sha256_text(example_lines(t.corpus)),
            "vocab_sha256": sha256_file(vocab_path)}


# -- prepare_corpus -------------------------------------------------------
@dataclass
class PrepareInputs:
    pretrain: tuple
    heldout: object
    seed: int


def build_prepare(seed: int) -> PrepareInputs:
    return PrepareInputs(synthetic.builtin_grammars(synthetic.PRETRAIN_GRAMMARS),
                         synthetic.builtin_grammar(PREPARE_HELDOUT[0]), seed)


def prepare_pass(p: PrepareInputs, pass_seed: int):
    """README walkthrough steps 1, 2 and 4 through the Python API."""
    pre = synthetic.generate(p.pretrain, PREPARE_PER_DOMAIN, seed=pass_seed)
    pre = synthetic.inject_coined_values(pre, COINED_FRACTION, seed=pass_seed)
    texts = corpus_texts(pre)
    vocab = bpe.train_bpe(texts, target_vocab_size=PREPARE_VOCAB_SIZE)
    ids = [bpe.encode(vocab, text) for text in texts]
    domain, n, k = PREPARE_HELDOUT
    held = synthetic.generate([p.heldout], n, seed=pass_seed)
    train, test = dataset.build_fewshot(held, {domain: k}, seed=pass_seed)
    return vocab, texts, ids, dataset.stats(train, test)


def prepare_ops(p: PrepareInputs):
    def op(i):
        pass_seed = sub_seed(p.seed, 100 + i)
        n_examples = PREPARE_PER_DOMAIN * len(p.pretrain) + PREPARE_HELDOUT[1]
        return Op(lambda: prepare_pass(p, pass_seed), n_examples, pass_seed)
    return op


def check_prepare(records, outcome: Outcome) -> None:
    first = {}
    for rec in records:
        if rec.error is not None:
            outcome.check(False, rec.error)
            continue
        vocab, texts, ids, st = rec.out
        if rec.key in first:
            outcome.check(rec.out == first[rec.key].out,
                          f"repeated pass seed {rec.op.meta} gave a different result")
            rec.tokens = first[rec.key].tokens
            continue
        first[rec.key] = rec
        roundtrip = all(_decode(vocab, seq) == text for seq, text in zip(ids, texts))
        outcome.check(roundtrip and len(ids) == len(texts),
                      f"decode(encode(s)) != s in pass seed {rec.op.meta}")
        outcome.check(st.n_train == PREPARE_HELDOUT[2], "few-shot split has the wrong size")
        rec.tokens = sum(len(seq) for seq in ids)
    if first:
        outcome.extra["prepare_s"] = float(np.median([r.seconds * r.scale for r in records
                                                      if r.error is None]))


# -- registry -------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    setup: Callable  # seed -> state
    ops: Callable  # (state, capture) -> (index -> Op)
    finish: Callable  # (state, records, capture, outcome) -> None
    fingerprint: Callable  # (state, out_dir, tag) -> dict
    distinct: int  # distinct operations; the loop repeats them
    blas: bool = True  # whether the operations call BLAS; picks the reference kernel
    eos_id: Callable = lambda state: None
    warmup: int = 0  # untimed operations before the loop


def _finish_serving(with_bleu):
    def finish(s, records, capture, outcome):
        checked = check_serving(s, records, capture, outcome)
        summarize_serving(s, checked, outcome, with_bleu)
    return finish


WORKLOADS = {
    "online_reranked": Workload(
        setup=lambda seed: build_serving(seed, ONLINE_REQUESTS),
        ops=online_ops, finish=_finish_serving(False), fingerprint=serving_fingerprint,
        distinct=ONLINE_REQUESTS, eos_id=lambda s: s.vocab.eos_id, warmup=3),
    "offline_corpus": Workload(
        setup=lambda seed: build_serving(seed, OFFLINE_CHUNKS * OFFLINE_CHUNK),
        ops=offline_ops, finish=_finish_serving(True), fingerprint=serving_fingerprint,
        distinct=OFFLINE_CHUNKS,
        eos_id=lambda s: s.vocab.eos_id),
    "train_da": Workload(
        setup=build_train, ops=lambda t, capture: train_ops(t),
        finish=lambda t, records, capture, outcome: check_train(t, records, outcome),
        fingerprint=train_fingerprint, distinct=1),
    "prepare_corpus": Workload(
        setup=build_prepare, ops=lambda p, capture: prepare_ops(p),
        finish=lambda p, records, capture, outcome: check_prepare(records, outcome),
        fingerprint=lambda p, out_dir, tag: {
            "inputs_sha256": sha256_text([repr(p.pretrain), repr(p.heldout), str(p.seed)])},
        distinct=PREPARE_PASSES, blas=False),
}
