"""Generation quality metrics: slot error rate, corpus BLEU, entity F1,
and the seen/unseen dialog-act split.

Slot error rate treats a dialog act as a bag of lexical slot values and
counts, per distinct value, how many required occurrences are missing
from the realization (p) and how many surplus occurrences appear (q);
ERR = (p+q)/M with M the number of lexical pairs.  Placeholder values
("?", "yes", "no", "dontcare", "true", "false", "none") have no surface
form and are excluded from M.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from .dataset import Corpus
from .dialog_act import DialogActSet, canonicalize, is_lexical_value, match_count
from .errors import LengthMismatchError

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")


def bleu_tokenize(text: str) -> list:
    """Lowercase and split words and punctuation marks into tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class SlotErrorReport:
    """Slot accounting for one realization.

    M counts lexical slot-value pairs; p is the total shortfall and q the
    total surplus of value occurrences.
    """

    M: int
    p: int
    q: int

    @property
    def err(self) -> float:
        return (self.p + self.q) / self.M if self.M else 0.0


def slot_error(acts: DialogActSet, text: str) -> SlotErrorReport:
    """Count missing and redundant slot values in a realization.

    A value counts as present through case-insensitive word-boundary
    matching; a value required r times contributes max(0, r - found) to p
    and max(0, found - r) to q, so ERR is zero exactly when every lexical
    value appears exactly as often as the act requires.
    """
    lexical = [p for p in acts.all_pairs() if is_lexical_value(p.value)]
    required = Counter(p.value.lower() for p in lexical)
    missing = surplus = 0
    for value, r in required.items():
        found = match_count(value, text)
        missing += max(0, r - found)
        surplus += max(0, found - r)
    return SlotErrorReport(M=len(lexical), p=missing, q=surplus)


def _ngrams(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(candidates, references) -> float:
    """Corpus-level BLEU-4 in [0, 1].

    Geometric mean of clipped modified n-gram precisions (n = 1..4) times
    the brevity penalty; the reference length is the closest to each
    candidate (ties to the shorter).  When an order-2+ precision is zero
    it is smoothed to (num+1)/(den+1); a zero unigram precision or an
    empty candidate corpus yields 0.
    """
    if len(candidates) != len(references):
        raise LengthMismatchError(
            f"{len(candidates)} candidates vs {len(references)} reference lists"
        )
    if any(len(refs) == 0 for refs in references):
        raise LengthMismatchError("every candidate needs at least one reference")

    num = [0] * 5
    den = [0] * 5
    cand_len = ref_len = 0
    for cand, refs in zip(candidates, references):
        ctok = bleu_tokenize(cand)
        rtoks = [bleu_tokenize(r) for r in refs]
        cand_len += len(ctok)
        ref_len += min((abs(len(rt) - len(ctok)), len(rt)) for rt in rtoks)[1]
        for n in range(1, 5):
            cgrams = _ngrams(ctok, n)
            if not cgrams:
                continue
            max_ref = Counter()
            for rt in rtoks:
                for g, k in _ngrams(rt, n).items():
                    max_ref[g] = max(max_ref[g], k)
            num[n] += sum(min(k, max_ref[g]) for g, k in cgrams.items())
            den[n] += sum(cgrams.values())

    if cand_len == 0 or num[1] == 0:
        return 0.0
    log_sum = 0.25 * math.log(num[1] / den[1])
    for n in range(2, 5):
        if num[n] == 0:
            log_sum += 0.25 * math.log((num[n] + 1) / (den[n] + 1))
        else:
            log_sum += 0.25 * math.log(num[n] / den[n])
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum)


def make_entity_extractor(corpus: Corpus):
    """Build the default entity extractor from corpus dialog acts.

    The inventory is every distinct lexical slot value in the corpus
    (lowercased).  The extractor returns a multiset counting word-boundary
    occurrences of each inventory value plus every number token in the
    text.
    """
    inventory = sorted(
        {
            p.value.lower()
            for ex in corpus
            for p in ex.acts.all_pairs()
            if is_lexical_value(p.value)
        }
    )

    def extract(text: str) -> Counter:
        entities = Counter()
        for value in inventory:
            n = match_count(value, text)
            if n:
                entities[value] += n
        for tok in _NUMBER_RE.findall(text.lower()):
            entities[tok] += 1
        return entities

    return extract


def entity_f1(candidates, references, entity_extractor) -> float:
    """Micro-averaged F1 over per-example entity multisets.

    Per example, true positives are the multiset intersection of the
    entities extracted from candidate and reference.  Returns 1.0 when
    neither side yields any entity anywhere.
    """
    if len(candidates) != len(references):
        raise LengthMismatchError(
            f"{len(candidates)} candidates vs {len(references)} references"
        )
    tp = fp = fn = 0
    for cand, ref in zip(candidates, references):
        ce = entity_extractor(cand)
        re_ = entity_extractor(ref)
        inter = sum((ce & re_).values())
        tp += inter
        fp += sum(ce.values()) - inter
        fn += sum(re_.values()) - inter
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2 * tp / denom


def seen_unseen_split(train: Corpus, test: Corpus):
    """Index lists (seen, unseen) of the test examples whose canonical act
    does or does not occur in train."""
    train_keys = {canonicalize(ex.acts) for ex in train}
    seen, unseen = [], []
    for i, ex in enumerate(test):
        (seen if canonicalize(ex.acts) in train_keys else unseen).append(i)
    return seen, unseen


@dataclass(frozen=True)
class EvalReport:
    """Corpus-level scores with a seen/unseen breakdown."""

    domain: str
    bleu: float
    err: float
    entity_f1: float
    n_seen: int
    n_unseen: int
    bleu_seen: float
    err_seen: float
    bleu_unseen: float
    err_unseen: float


def _subset_scores(pairs):
    """BLEU and mean ERR over (example, candidate) pairs."""
    if not pairs:
        return 0.0, 0.0
    bleu = corpus_bleu([c for _, c in pairs], [[ex.response] for ex, _ in pairs])
    err = sum(slot_error(ex.acts, c).err for ex, c in pairs) / len(pairs)
    return bleu, err


def evaluate(train: Corpus, test: Corpus, candidates, domain: str = "") -> EvalReport:
    """Score candidate realizations of the test corpus.

    ``candidates[i]`` realizes ``test.examples[i]``.  BLEU and mean ERR
    are reported overall and per seen/unseen subset (membership decided
    against the train corpus); entity F1 uses the default extractor built
    from the test corpus acts.
    """
    if len(candidates) != len(test):
        raise LengthMismatchError(
            f"{len(candidates)} candidates vs {len(test)} test examples"
        )
    pairs = list(zip(test, candidates))
    seen, unseen = ([pairs[i] for i in part] for part in seen_unseen_split(train, test))
    bleu, err = _subset_scores(pairs)
    bleu_seen, err_seen = _subset_scores(seen)
    bleu_unseen, err_unseen = _subset_scores(unseen)
    extractor = make_entity_extractor(test)
    f1 = entity_f1(list(candidates), [ex.response for ex in test], extractor)
    return EvalReport(
        domain=domain or (test.domains()[0] if len(test) else ""),
        bleu=bleu,
        err=err,
        entity_f1=f1,
        n_seen=len(seen),
        n_unseen=len(unseen),
        bleu_seen=bleu_seen,
        err_seen=err_seen,
        bleu_unseen=bleu_unseen,
        err_unseen=err_unseen,
    )


def render_report(r: EvalReport) -> str:
    """One aligned text record per evaluated domain."""
    fields = [
        ("domain", r.domain or "-"),
        ("bleu", f"{r.bleu:.4f}"),
        ("err", f"{r.err:.4f}"),
        ("entity_f1", f"{r.entity_f1:.4f}"),
        ("n_seen", str(r.n_seen)),
        ("n_unseen", str(r.n_unseen)),
        ("bleu_seen", f"{r.bleu_seen:.4f}" if r.n_seen else "-"),
        ("err_seen", f"{r.err_seen:.4f}" if r.n_seen else "-"),
        ("bleu_unseen", f"{r.bleu_unseen:.4f}" if r.n_unseen else "-"),
        ("err_unseen", f"{r.err_unseen:.4f}" if r.n_unseen else "-"),
    ]
    width = max(len(k) for k, _ in fields)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in fields)
