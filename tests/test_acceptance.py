"""Release acceptance suite.

One test per release criterion, each printing a single PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` for the scoreboard).
The assertions carry the same message, so a quiet run fails loudly too.

The three few-shot transfer checks (ordering, reranking, act-edit
robustness) share one module-scoped fixture that pretrains two models
on the same synthetic mix: one conditioned on dialog-act prefixes, one
on bare response text.  Fine-tuning and decoding happen inside each
test; every random stream is seeded, so the whole suite is
reproducible run to run.
"""

import copy
import math
import os
import time

import numpy as np
import pytest

from scgpt.autograd import backward
from scgpt.bpe import encode, train_bpe
from scgpt.cli import main as cli_main
from scgpt.dataset import Corpus, Example, build_fewshot, default_k_map, overlap_pct, stats
from scgpt.decoding import DecodeConfig, generate_candidates, generate_corpus, pick_best
from scgpt.dialog_act import (
    DeleteSlot,
    DialogActSet,
    InsertSlot,
    SubstituteValue,
    act_set,
    canonicalize,
    edit_act,
    linearize,
)
from scgpt.manifest import sha256_file
from scgpt.metrics import (
    corpus_bleu,
    entity_f1,
    make_entity_extractor,
    seen_unseen_split,
    slot_error,
)
from scgpt.model import (
    LinearizedExample,
    ModelConfig,
    init_params,
    nll_loss,
)
from scgpt.synthetic import (
    PRETRAIN_GRAMMARS,
    builtin_grammar,
    builtin_grammars,
    copy_task_grammars,
    generate,
    inject_coined_values,
)
from scgpt.training import TrainConfig, run_stage

from gradcheck import fd_gradient, op_max_rel_error, rel_error
import oracles


def verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradients: every op and the end-to-end model vs central differences


def test_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    r = rng.standard_normal

    def dropout_fixed(a):
        return oracles.dropout(a, 0.35, np.random.default_rng(5))

    def ce(logits):
        targets = np.array([[1, 4, 0, 6], [2, 2, 5, 3]])
        mask = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
        return oracles.cross_entropy_masked(logits, targets, mask)

    ops = {
        "matmul": (lambda a, b: oracles.matmul(a, b), [r((3, 4)), r((4, 5))]),
        "matmul_batched": (lambda a, b: oracles.matmul(a, b), [r((2, 3, 4)), r((2, 4, 5))]),
        "matmul_broadcast": (lambda a, b: oracles.matmul(a, b), [r((2, 3, 4)), r((4, 2))]),
        "add": (lambda a, b: oracles.add(a, b), [r((3, 4)), r((3, 4))]),
        "add_broadcast": (lambda a, b: oracles.add(a, b), [r((3, 4)), r(4)]),
        "mul": (lambda a, b: oracles.mul(a, b), [r((3, 4)), r((3, 4))]),
        "mul_broadcast": (lambda a, b: oracles.mul(a, b), [r((2, 3, 4)), r(4)]),
        "mul_broadcast_column": (lambda a, b: oracles.mul(a, b), [r((3, 4)), r((3, 1))]),
        "scale": (lambda a: oracles.scale(a, -1.7), [r((3, 4))]),
        "gelu": (lambda a: oracles.gelu(a), [r((3, 4)) * 2.0]),
        "softmax_lastdim": (lambda a: oracles.softmax_lastdim(a), [r((3, 5)) * 3.0]),
        "layernorm": (lambda x, g, b: oracles.layernorm(x, g, b),
                      [r((4, 6)), 1.0 + 0.1 * r(6), 0.1 * r(6)]),
        "embed_lookup": (lambda t: oracles.embed_lookup(t, np.array([[0, 2, 2], [5, 1, 0]])),
                         [r((7, 4))]),
        "dropout": (dropout_fixed, [r((4, 5))]),
        "reshape": (lambda a: oracles.reshape(a, (2, 6)), [r((3, 4))]),
        "transpose": (lambda a: oracles.transpose(a, (0, 2, 1)), [r((2, 3, 4))]),
        "take_index": (lambda a: oracles.take_index(a, 2), [r((4, 5))]),
        "sum_all": (lambda a: oracles.sum_all(a), [r((3, 4))]),
        "cross_entropy_masked": (ce, [r((2, 4, 7))]),
    }
    worst_op, worst = max(
        ((name, op_max_rel_error(build, arrays, rng)) for name, (build, arrays) in ops.items()),
        key=lambda kv: kv[1],
    )

    cfg = ModelConfig(vocab_size=17, n_layers=1, n_heads=2, d_model=8,
                      d_ff=16, max_context=12, dropout=0.0)
    params = init_params(cfg, seed=3, dtype=np.float64)
    batch = [
        LinearizedExample(ids=(3, 9, 1, 14, 7, 2, 15), loss_mask=(0, 0, 0, 1, 1, 1, 0)),
        LinearizedExample(ids=(5, 11, 14, 4, 15), loss_mask=(0, 0, 1, 1, 0)),
    ]

    def loss_value():
        return float(nll_loss(params, batch)[0])

    grads = backward(*nll_loss(params, batch))
    e2e = max(
        rel_error(grads[name], fd_gradient(loss_value, w))
        for name, w in params.named()
    )
    elapsed = time.perf_counter() - started
    verdict(
        "per-op and end-to-end gradients",
        worst < 1e-4 and e2e < 1e-3 and elapsed < 60.0,
        f"worst op {worst_op} {worst:.2e} (<1e-4), model {e2e:.2e} (<1e-3), {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# 2. all-zero weights make every next-token distribution uniform


def test_uniform_loss_at_zero_weights():
    worst = 0.0
    for vocab_size, seed in ((11, 0), (97, 1), (515, 2)):
        cfg = ModelConfig(vocab_size=vocab_size, n_layers=2, n_heads=2,
                          d_model=16, d_ff=32, max_context=24, dropout=0.0)
        params = init_params(cfg)
        for _, t in params.named():
            t[...] = 0.0
        rng = np.random.default_rng(seed)
        batch = []
        for _ in range(3):
            n = int(rng.integers(4, 16))
            ids = tuple(int(x) for x in rng.integers(0, vocab_size, n))
            # the last position has no target
            mask = tuple(int(x) for x in rng.integers(0, 2, n))[:-1] + (0,)
            if not any(mask):
                mask = (1,) + mask[1:]
            batch.append(LinearizedExample(ids=ids, loss_mask=mask))
        loss = float(nll_loss(params, batch)[0])
        worst = max(worst, abs(loss - math.log(vocab_size)))
    verdict("uniform loss at zero weights", worst < 1e-5,
            f"max |loss - ln(V)| = {worst:.2e} (<1e-5)")


# ---------------------------------------------------------------------------
# 3. labels outside the response mask cannot move the loss


def test_response_only_loss_masking():
    rng = np.random.default_rng(4)
    cfg = ModelConfig(vocab_size=29, n_layers=2, n_heads=2, d_model=16,
                      d_ff=32, max_context=16, dropout=0.0)
    params = init_params(cfg, seed=1)
    ids = rng.integers(0, 29, (3, 12))
    keep = np.ones((3, 12), dtype=bool)
    logits, _ = oracles.forward_logits_reference(params, ids, keep)
    targets = rng.integers(0, 29, (3, 12))
    mask = rng.integers(0, 2, (3, 12)).astype(np.float64)
    mask[0, :4] = 0.0  # guarantee maskless positions exist
    base = float(oracles.cross_entropy_masked(logits, targets, mask).data)

    zero_positions = np.argwhere(mask == 0.0)
    deviations = 0
    for trial in range(100):
        perturbed = targets.copy()
        if trial % 3 == 0:  # scatter several relabelings at once
            for b, t in zero_positions[rng.integers(0, len(zero_positions), 4)]:
                perturbed[b, t] = rng.integers(0, 29)
        else:
            b, t = zero_positions[rng.integers(0, len(zero_positions))]
            perturbed[b, t] = rng.integers(0, 29)
        relabeled = float(oracles.cross_entropy_masked(logits, perturbed, mask).data)
        if relabeled != base:
            deviations += 1
    verdict("response-only loss masking", deviations == 0,
            f"{deviations}/100 perturbations moved the loss (want 0)")


# ---------------------------------------------------------------------------
# 4. a tiny model memorizes eight (act, response) pairs


OVERFIT_PAIRS = [
    ("ix", "the ix is here"),
    ("rex", "rex sits by the door"),
    ("aria", "aria sings in the hall"),
    ("bloom", "the bloom opens at dawn"),
    ("quill", "a quill rests on the desk"),
    ("vega", "vega shines over the bay"),
    ("moss", "soft moss covers the stone"),
    ("drift", "the drift settles near the pier"),
]


def test_eight_pair_overfit():
    started = time.perf_counter()
    examples = [
        Example(act_set("inform", [("name", name)]), text, "toy")
        for name, text in OVERFIT_PAIRS
    ]
    texts = [linearize(ex.acts) for ex in examples] + [ex.response for ex in examples]
    vocab = train_bpe(texts, target_vocab_size=320)
    cfg = ModelConfig(vocab_size=vocab.size, n_layers=2, n_heads=2, d_model=32,
                      d_ff=64, max_context=96, dropout=0.0)
    tc = TrainConfig(stage="finetune", start_lr=1e-2, weight_decay=0.0,
                     batch_size=8, max_epochs=500, early_stop_patience=10**6,
                     seed=0, val_fraction=0.0)
    params, log = run_stage(tc, Corpus(tuple(examples)), init_params(cfg, seed=0), vocab)
    steps = len(log)  # batch covers the whole corpus, so one step per epoch
    final_loss = log[-1]["train_loss"]

    dc = DecodeConfig(n_candidates=1, max_new_tokens=32, seed=0)
    winners = generate_corpus(params, vocab, [ex.acts for ex in examples], dc)
    reproduced = sum(w.text == ex.response for w, ex in zip(winners, examples))
    elapsed = time.perf_counter() - started
    verdict(
        "eight-pair overfit",
        final_loss < 0.05 and reproduced == 8 and steps <= 500 and elapsed < 300.0,
        f"loss {final_loss:.4f} (<0.05), {reproduced}/8 reproduced, "
        f"{steps} steps (<=500), {elapsed:.0f}s (<300s)",
    )


# ---------------------------------------------------------------------------
# shared fixture for the transfer checks (5, 6, 10)

PRE_N_BASE = 1200         # examples per ordinary pretraining domain
PRE_COINED = 0.6          # share of their slot values swapped for fresh ones
PRE_N_COPY = 4000         # examples per copy-task domain
PRE_EPOCHS = 4
PRE_LR = 3e-3
VOCAB_N_BASE = 200        # examples per ordinary domain that train the tokenizer
VOCAB_SIZE = 1024
FT_EPOCHS = 20
FT_LR = 2e-3
DECODE = dict(n_candidates=5, max_new_tokens=48)
SEEDS = (0, 1, 2, 3, 4)


class Transfer:
    """Pretrained bases plus memoized fine-tuning shared by three tests."""

    def __init__(self):
        started = time.perf_counter()
        base = generate(builtin_grammars(PRETRAIN_GRAMMARS), PRE_N_BASE, seed=11)
        base = inject_coined_values(base, PRE_COINED, seed=13)
        copy_rich = generate(copy_task_grammars(), PRE_N_COPY, seed=12)
        self.pre_corpus = Corpus(base.examples + copy_rich.examples)
        # the tokenizer learns from unrewritten ordinary-domain text: fresh
        # values would spend its merges on strings that never recur
        natural = generate(builtin_grammars(PRETRAIN_GRAMMARS), VOCAB_N_BASE, seed=11)
        texts = [linearize(ex.acts) for ex in natural] + [ex.response for ex in natural]
        self.vocab = train_bpe(texts, target_vocab_size=VOCAB_SIZE)
        self.mc = ModelConfig(vocab_size=self.vocab.size, n_layers=2, n_heads=4,
                              d_model=64, d_ff=256, max_context=160, dropout=0.0)

        def pretrain(stage, data):
            tc = TrainConfig(stage=stage, start_lr=PRE_LR, batch_size=16,
                             max_epochs=PRE_EPOCHS, early_stop_patience=10**6,
                             seed=0, val_fraction=0.05)
            return run_stage(tc, data, init_params(self.mc, seed=0), self.vocab)[0]

        self.da_base = pretrain("da_pretrain", self.pre_corpus)
        self.plain_base = pretrain("plain", [ex.response for ex in self.pre_corpus])

        taxi = generate([builtin_grammar("taxi")], n_per_domain=2000, seed=23)
        self.train8, rest = build_fewshot(taxi, {"taxi": 8}, seed=0)
        self.test100 = Corpus(rest.examples[:100])
        self.train16, _ = build_fewshot(taxi, {"taxi": 16}, seed=1)
        self._cache = {}
        self.setup_seconds = time.perf_counter() - started

    def finetuned(self, kind: str, seed: int, shots: str = "train8"):
        """Fine-tune from a pretrained base ('da'/'plain') or 'random' init."""
        key = (kind, seed, shots)
        if key not in self._cache:
            base = {"da": self.da_base, "plain": self.plain_base, "random": None}[kind]
            start = copy.deepcopy(base) if base else init_params(self.mc, seed=seed)
            tc = TrainConfig(stage="finetune", start_lr=FT_LR, batch_size=8,
                             max_epochs=FT_EPOCHS, early_stop_patience=10**6,
                             seed=seed, val_fraction=0.0)
            self._cache[key] = run_stage(tc, getattr(self, shots), start, self.vocab)[0]
        return self._cache[key]

    def decode(self, params, acts_list, seed: int):
        cfg = DecodeConfig(seed=seed, **DECODE)
        return generate_corpus(params, self.vocab, acts_list, cfg)


@pytest.fixture(scope="module")
def transfer():
    return Transfer()


def test_transfer_vocab_fits_taxi_references(transfer):
    # a reference that needs max_new_tokens tokens or more cannot be
    # realized with its end token within the decode budget
    lengths = [len(encode(transfer.vocab, ex.response)) for ex in transfer.test100]
    too_long = sum(n >= DECODE["max_new_tokens"] for n in lengths) / len(lengths)
    verdict(
        "taxi references fit the decode budget",
        too_long <= 0.05,
        f"{too_long:.0%} of test references need >= {DECODE['max_new_tokens']} tokens (<=5%)",
    )


# ---------------------------------------------------------------------------
# 5. few-shot transfer: act-conditioned pretraining beats plain beats random


def test_fewshot_transfer_ordering(transfer):
    started = time.perf_counter()
    acts = [ex.acts for ex in transfer.test100]
    refs = [[ex.response] for ex in transfer.test100]
    err = {}
    bleu = {}
    for kind in ("da", "plain", "random"):
        errs, bleus = [], []
        for seed in SEEDS:
            winners = transfer.decode(transfer.finetuned(kind, seed), acts, seed)
            errs.append(float(np.mean([w.err for w in winners])))
            bleus.append(corpus_bleu([w.text for w in winners], refs))
        err[kind] = float(np.mean(errs))
        bleu[kind] = float(np.mean(bleus))
    gap = err["random"] - err["da"]
    minutes = (transfer.setup_seconds + time.perf_counter() - started) / 60.0
    verdict(
        "few-shot transfer ordering",
        err["da"] < err["plain"] < err["random"]
        and bleu["da"] > bleu["plain"] > bleu["random"]
        and gap > 0.10
        and minutes < 30.0,
        f"ERR da {err['da']:.3f} < plain {err['plain']:.3f} < random {err['random']:.3f}; "
        f"BLEU da {bleu['da']:.3f} > plain {bleu['plain']:.3f} > random {bleu['random']:.3f}; "
        f"gap {gap:.3f} (>0.10); {minutes:.1f} min (<30)",
    )


# ---------------------------------------------------------------------------
# 6. reranking returns the lowest-error candidate and never hurts on average


def test_lowest_err_reranking(transfer):
    params = transfer.finetuned("da", 0)
    acts = [ex.acts for ex in transfer.test100]
    cfg5 = DecodeConfig(seed=0, **DECODE)
    all_candidates = generate_candidates(params, transfer.vocab, acts, cfg5)
    rerank_ok = all(
        cands[pick_best(cands)].err == min(c.err for c in cands)
        for cands in all_candidates
    )
    mean5 = float(np.mean([cands[pick_best(cands)].err for cands in all_candidates]))

    cfg1 = DecodeConfig(seed=0, **{**DECODE, "n_candidates": 1})
    greedy = generate_corpus(params, transfer.vocab, acts, cfg1)
    mean1 = float(np.mean([w.err for w in greedy]))
    verdict(
        "lowest-error reranking",
        rerank_ok and mean5 <= mean1,
        f"winner==min on {len(all_candidates)}/{len(all_candidates)} acts; "
        f"corpus ERR n=5 {mean5:.3f} <= n=1 {mean1:.3f}",
    )


# ---------------------------------------------------------------------------
# 7. metrics agree with independent brute-force oracles


_FILLERS = ("the", "a", "near", "with", "open", "now", "quite", "so", "there")
_VALUE_POOL = (
    "north", "cheap", "7", "41", "kx 41", "blue sky", "corn exchange",
    "7:30 am", "st mary", "ab", "abc", "dock 9", "low", "lower",
)


def _random_case(rng):
    n_acts = int(rng.integers(1, 3))
    acts = None
    planted = []
    for _ in range(n_acts):
        pairs = []
        for _ in range(int(rng.integers(1, 5))):
            slot = f"s{int(rng.integers(0, 6))}"
            if rng.random() < 0.25:
                value = ("?", "yes", "no", "dontcare", "none")[int(rng.integers(5))]
            else:
                value = _VALUE_POOL[int(rng.integers(len(_VALUE_POOL)))]
                planted.append(value)
            pairs.append((slot, value))
        one = act_set(f"i{int(rng.integers(0, 4))}", pairs)
        acts = one if acts is None else DialogActSet(acts.acts + one.acts)
    words = []
    for _ in range(int(rng.integers(2, 10))):
        words.append(_FILLERS[int(rng.integers(len(_FILLERS)))])
    for value in planted:
        for _ in range(int(rng.integers(0, 3))):
            style = rng.random()
            if style < 0.55:
                words.append(value.upper() if rng.random() < 0.3 else value)
            elif style < 0.75:
                words.append(value + "s")  # glued suffix: must not count
            else:
                words.append(f"[{value}]")  # delexicalised: must not count
    rng.shuffle(words)
    return acts, " ".join(words)


def test_metric_oracles():
    rng = np.random.default_rng(6)
    err_mismatches = 0
    for _ in range(200):
        acts, text = _random_case(rng)
        r = slot_error(acts, text)
        if (r.M, r.p, r.q) != oracles.err_oracle(acts, text):
            err_mismatches += 1

    # hand-worked anchors pin both scorers before they are compared:
    # ["the cat sat"] vs ["the cat sat on the mat"]: every precision term
    # is exact or vacuously smoothed to 1, so BLEU = BP = exp(1 - 6/3)
    anchors_ok = True
    for scorer in (corpus_bleu, oracles.bleu_oracle):
        a1 = scorer(["the cat sat"], [["the cat sat on the mat"]])
        anchors_ok &= abs(a1 - math.exp(-1.0)) < 1e-12
        # ["a b a"] vs ["a b"]: precisions 2/3, 1/2, smoothed 1/2, vacuous 1
        # -> (1/6)^0.25 with no length penalty since the candidate is longer
        a2 = scorer(["a b a"], [["a b"]])
        anchors_ok &= abs(a2 - (1.0 / 6.0) ** 0.25) < 1e-12
        anchors_ok &= scorer(["so, it goes."], [["so, it goes."]]) == 1.0

    token_pool = ("the", "a", "cat", "dog", "sat", "mat", "on", "ran", "7", ",")
    bleu_gap = 0.0
    for _ in range(20):
        cands, refs = [], []
        for _ in range(int(rng.integers(2, 7))):
            cands.append(" ".join(
                token_pool[int(rng.integers(len(token_pool)))]
                for _ in range(int(rng.integers(1, 13)))
            ))
            refs.append([
                " ".join(token_pool[int(rng.integers(len(token_pool)))]
                         for _ in range(int(rng.integers(1, 13))))
                for _ in range(int(rng.integers(1, 4)))
            ])
        bleu_gap = max(bleu_gap, abs(corpus_bleu(cands, refs) - oracles.bleu_oracle(cands, refs)))

    toy = Corpus(tuple(
        Example(act_set("inform", [("name", name), ("area", area)]), resp, "toy")
        for name, area, resp in (
            ("rex", "north", "rex is in the north"),
            ("aria", "south", "aria is in the south with 2 rooms"),
            ("vega", "north", "vega sits north of the bridge"),
        )
    ))
    cands = ["rex is in the north", "aria has 3 rooms", "vega is far south"]
    refs = [ex.response for ex in toy]
    extractor = make_entity_extractor(toy)
    inventory = sorted({
        p.value.lower() for ex in toy for p in ex.acts.all_pairs()
    })
    f1_ok = entity_f1(cands, refs, extractor) == oracles.entity_f1_oracle(cands, refs, inventory)

    source = generate(builtin_grammars(("restaurant",)), 60, seed=2)
    train = Corpus(source.examples[:30])
    split_ok = seen_unseen_split(train, source) == oracles.seen_unseen_oracle(train, source)
    verdict(
        "metric oracles",
        err_mismatches == 0 and anchors_ok and bleu_gap < 1e-9 and f1_ok and split_ok,
        f"ERR mismatches {err_mismatches}/200 (want 0), BLEU anchors {anchors_ok}, "
        f"BLEU gap {bleu_gap:.1e} (<1e-9), entity-F1 exact {f1_ok}, split exact {split_ok}",
    )


# ---------------------------------------------------------------------------
# 8. few-shot dataset protocol on a synthetic source


def test_fewshot_protocol():
    source = generate(builtin_grammars(("restaurant", "taxi")), 3000, seed=5)
    k_map = default_k_map(source.domains())
    train, test = build_fewshot(source, k_map, seed=9)

    per_domain_train = {d: sum(ex.domain == d for ex in train) for d in k_map}
    k_ok = k_map == {"restaurant": 50, "taxi": 40} and per_domain_train == k_map

    disjoint = True
    for domain in k_map:
        train_keys = {canonicalize(ex.acts) for ex in train if ex.domain == domain}
        test_keys = {canonicalize(ex.acts) for ex in test if ex.domain == domain}
        disjoint &= not (train_keys & test_keys)
        oracle_train = {oracles.structural_key(ex.acts) for ex in train if ex.domain == domain}
        oracle_test = {oracles.structural_key(ex.acts) for ex in test if ex.domain == domain}
        disjoint &= not (oracle_train & oracle_test)

    def brute_overlap(a, b):
        a_keys = {oracles.structural_key(ex.acts) for ex in a}
        b_keys = {oracles.structural_key(ex.acts) for ex in b}
        return 100.0 * len(b_keys & a_keys) / len(b_keys)

    built_ok = overlap_pct(train, test) == 0.0 == brute_overlap(train, test)
    slice_a = Corpus(source.examples[:500])
    slice_b = Corpus(source.examples[300:900])
    sliced_ok = overlap_pct(slice_a, slice_b) == brute_overlap(slice_a, slice_b)

    verdict(
        "few-shot dataset protocol",
        k_ok and disjoint and built_ok and sliced_ok,
        f"k map honored {k_ok}, within-domain disjoint {disjoint}, "
        f"overlap built {built_ok} / sliced {sliced_ok}",
    )


_REFERENCE_DIR = os.environ.get("SCGPT_FEWSHOTWOZ_DIR")


@pytest.mark.skipif(
    not _REFERENCE_DIR,
    reason="set SCGPT_FEWSHOTWOZ_DIR to a directory holding the published "
    "restaurant train/test files to enable the reference-statistics check",
)
def test_fewshot_reference_stats():
    from oracles import parse_reference_file  # local import; optional path

    train = parse_reference_file(os.path.join(_REFERENCE_DIR, "restaurant", "train.json"))
    test = parse_reference_file(os.path.join(_REFERENCE_DIR, "restaurant", "test.json"))
    s = stats(train, test)
    ok = (
        s.n_intents == 9
        and s.n_slots == 21
        and s.n_train_das == 50
        and s.n_test_das == 129
        and abs(s.overlap_pct - 35.56) < 0.005
    )
    verdict(
        "reference corpus statistics",
        ok,
        f"intents {s.n_intents} (9), slots {s.n_slots} (21), "
        f"DAs {s.n_train_das}/{s.n_test_das} (50/129), overlap {s.overlap_pct:.2f} (35.56)",
    )


# ---------------------------------------------------------------------------
# 9. any recorded run replays to bit-identical artifacts


def test_replay_determinism(tmp_path, capsys):
    def run(argv):
        return cli_main([str(a) for a in argv])

    corpus = tmp_path / "corpus.jsonl"
    vocab = tmp_path / "vocab.bpe"
    ckpt = tmp_path / "model.ckpt"
    gens = tmp_path / "gens.txt"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "vocab = vocab.bpe\nmodel.n_layers = 1\nmodel.n_heads = 2\n"
        "model.d_model = 16\nmodel.d_ff = 32\nmodel.max_context = 192\n"
        "model.dropout = 0.0\ntrain.start_lr = 1e-3\ntrain.max_epochs = 2\n"
        "decode.n_candidates = 2\ndecode.max_new_tokens = 12\n"
    )
    assert run(["synth", "--domains", "restaurant", "--n-per-domain", 40,
                "--seed", 3, "--out", corpus]) == 0
    assert run(["train-bpe", "--corpus", corpus, "--target-size", 380,
                "--out", vocab]) == 0
    assert run(["pretrain-da", "--config", cfg, "--corpus", corpus,
                "--seed", 0, "--out", ckpt]) == 0
    assert run(["generate", "--config", cfg, "--ckpt", ckpt, "--corpus", corpus,
                "--out", gens]) == 0

    replays = {}
    for manifest, artifact in ((f"{ckpt}.manifest.json", ckpt),
                               (f"{gens}.manifest.json", gens)):
        out_dir = tmp_path / (os.path.basename(artifact) + ".replay")
        code = run(["replay", manifest, "--out-dir", out_dir])
        replayed = out_dir / os.path.basename(artifact)
        replays[os.path.basename(str(artifact))] = (
            code == 0 and sha256_file(replayed) == sha256_file(artifact)
        )
    out = capsys.readouterr().out
    verdict(
        "manifest replay determinism",
        all(replays.values()) and "MISMATCH" not in out,
        "bit-identical artifacts: "
        + ", ".join(f"{k}={v}" for k, v in replays.items()),
    )


# ---------------------------------------------------------------------------
# 10. robustness to act edits the model never saw


def _edited_acts(transfer, n=50):
    """Insert/delete/substitute edits over held-out taxi acts, round-robin."""
    grammar = builtin_grammar("taxi")
    lexicon = dict(grammar.lexicons)
    rng = np.random.default_rng(17)
    edited = []
    pool = [ex.acts for ex in transfer.test100]
    i = 0
    while len(edited) < n:
        acts = pool[i % len(pool)]
        lexical = [p for p in acts.all_pairs() if p.value.lower() in
                   {v.lower() for vs in lexicon.values() for v in vs}]
        mode = len(edited) % 3
        if mode == 0 or not lexical:
            absent = [s for s in lexicon if all(p.name != s for p in acts.all_pairs())]
            slot = absent[int(rng.integers(len(absent)))]
            values = lexicon[slot]
            op = InsertSlot(slot, values[int(rng.integers(len(values)))])
        elif mode == 1:
            victim = lexical[int(rng.integers(len(lexical)))]
            op = DeleteSlot(victim.name)
        else:
            victim = lexical[int(rng.integers(len(lexical)))]
            others = [v for v in lexicon[victim.name] if v != victim.value]
            op = SubstituteValue(victim.name, others[int(rng.integers(len(others)))])
        edited.append(edit_act(acts, op))
        i += 1
    return edited


def test_act_edit_robustness(transfer):
    edited = _edited_acts(transfer)
    means = {}
    for kind in ("da", "plain"):
        per_seed = []
        for seed in SEEDS:
            params = transfer.finetuned(kind, seed, shots="train16")
            winners = transfer.decode(params, edited, seed)
            per_seed.append(float(np.mean([w.err for w in winners])))
        means[kind] = float(np.mean(per_seed))
    verdict(
        "act-edit robustness",
        means["da"] < means["plain"],
        f"mean ERR over {len(edited)} edited acts x {len(SEEDS)} seeds: "
        f"da {means['da']:.3f} < plain {means['plain']:.3f}",
    )
