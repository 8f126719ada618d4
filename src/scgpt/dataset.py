"""Corpus ingestion and few-shot benchmark construction.

A corpus is a list of (dialog acts, response, domain) examples.  The
on-disk format, jsonl_v1, is one JSON object per line::

    {"domain": "hotel",
     "response": "the hilton is in the center",
     "acts": [{"intent": "inform",
               "slots": [{"name": "name", "value": "Hilton"},
                         {"name": "area", "value": "center"}]}]}

:func:`build_fewshot` implements the few-shot split protocol: group
utterances by their delexicalised canonical dialog act within each
domain, keep one utterance per group, drop acts that occur in several
domains, then sample a fixed number of groups per domain into the
training side.  The remainder becomes the test side, so train and test
canonical keys are disjoint within every domain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dialog_act import DialogAct, DialogActSet, SlotValuePair, canonicalize
from .errors import EmptyTestError, InsufficientGroupsError, ParseError

#: Per-domain few-shot sizes used when no explicit map is given.
DEFAULT_K = 50
DOMAIN_K_OVERRIDES = {"taxi": 40}


@dataclass(frozen=True)
class Example:
    """One utterance with its dialog-act annotation."""

    acts: DialogActSet
    response: str
    domain: str


@dataclass(frozen=True)
class Corpus:
    examples: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))

    def __len__(self):
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def domains(self) -> tuple:
        return tuple(sorted({ex.domain for ex in self.examples}))


@dataclass(frozen=True)
class DatasetStats:
    n_intents: int
    n_slots: int
    n_train_das: int
    n_test_das: int
    overlap_pct: float
    avg_das_per_instance: float
    n_train: int
    n_test: int


def _example_from_obj(obj: dict, lineno: int, path) -> Example:
    def fail(message):
        raise ParseError(f"{path}:{lineno}: {message}") from None

    def need(container, key, where, kind=str):
        if key not in container:
            fail(f"missing {key!r} in {where}")
        value = container[key]
        if not isinstance(value, kind):
            fail(f"{key!r} in {where} must be a {kind.__name__}, got {value!r}")
        if kind is list and not all(isinstance(x, dict) for x in value):
            fail(f"every item of {key!r} in {where} must be an object")
        return value

    domain = need(obj, "domain", "example")
    response = need(obj, "response", "example")
    acts_field = need(obj, "acts", "example", list)
    if not acts_field:
        fail("'acts' must be a non-empty list")
    acts = []
    for a in acts_field:
        intent = need(a, "intent", "act")
        slots = need(a, "slots", "act", list) if "slots" in a else []
        try:
            pairs = tuple(
                SlotValuePair(need(s, "name", "slot"), need(s, "value", "slot"))
                for s in slots
            )
            acts.append(DialogAct(intent, pairs))
        except ValueError as e:
            fail(e)
    return Example(DialogActSet(tuple(acts)), response, domain)


def read_lines(path) -> list:
    """A UTF-8 text file's lines, newlines kept; a file that is not UTF-8
    raises :class:`ParseError` naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return list(f)
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None


def ingest(path) -> Corpus:
    """Load a jsonl_v1 corpus file; parse failures name the offending line."""
    examples = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({e.msg})") from None
        if not isinstance(obj, dict):
            raise ParseError(f"{path}:{lineno}: expected a JSON object")
        examples.append(_example_from_obj(obj, lineno, path))
    return Corpus(tuple(examples))


def write_jsonl(corpus: Corpus, path) -> None:
    """Serialize a corpus in jsonl_v1; ingest() inverts this exactly."""
    with open(path, "w", encoding="utf-8") as f:
        for ex in corpus:
            obj = {
                "domain": ex.domain,
                "response": ex.response,
                "acts": [
                    {
                        "intent": act.intent,
                        "slots": [{"name": p.name, "value": p.value} for p in act.pairs],
                    }
                    for act in ex.acts.acts
                ],
            }
            f.write(json.dumps(obj, ensure_ascii=False) + "\n")


def default_k_map(domains) -> dict:
    return {d: DOMAIN_K_OVERRIDES.get(d, DEFAULT_K) for d in domains}


def build_fewshot(source: Corpus, k_per_domain: dict, seed: int):
    """Split a corpus into a few-shot train set and a disjoint test set.

    Within each domain, examples are grouped by canonical dialog act and
    only the first utterance of each group is kept.  Canonical acts seen
    in more than one domain are dropped entirely.  ``k_per_domain[d]``
    groups are then sampled (seeded, uniform) into train; the rest go to
    test.  Domains absent from ``k_per_domain`` are excluded.

    Returns ``(train, test)``.  Raises :class:`InsufficientGroupsError`
    when a domain has fewer groups than requested.
    """
    # first utterance per (domain, canonical key)
    groups = {}
    for ex in source:
        key = (ex.domain, canonicalize(ex.acts))
        groups.setdefault(key, ex)

    # canonical keys spanning domains are ambiguous; drop them
    domains_of_key = {}
    for domain, key in groups:
        domains_of_key.setdefault(key, set()).add(domain)
    groups = {
        (domain, key): ex
        for (domain, key), ex in groups.items()
        if len(domains_of_key[key]) == 1
    }

    rng = np.random.default_rng(seed)
    train, test = [], []
    for domain in sorted(k_per_domain):
        k = k_per_domain[domain]
        domain_keys = sorted(key for (d, key) in groups if d == domain)
        if len(domain_keys) < k:
            raise InsufficientGroupsError(
                f"domain {domain!r} has {len(domain_keys)} dialog-act groups, "
                f"fewer than the requested {k}"
            )
        picked = rng.choice(len(domain_keys), size=k, replace=False)
        chosen = {domain_keys[i] for i in picked}
        for key in domain_keys:
            (train if key in chosen else test).append(groups[(domain, key)])
    return Corpus(tuple(train)), Corpus(tuple(test))


def _distinct_keys(corpus: Corpus) -> set:
    return {canonicalize(ex.acts) for ex in corpus}


def overlap_pct(train: Corpus, test: Corpus) -> float:
    """Share of distinct test canonical acts also present in train, in percent."""
    test_keys = _distinct_keys(test)
    if not test_keys:
        raise EmptyTestError("test corpus has no examples")
    train_keys = _distinct_keys(train)
    return 100.0 * len(test_keys & train_keys) / len(test_keys)


def stats(train: Corpus, test: Corpus) -> DatasetStats:
    """Descriptive statistics over a train/test split."""
    both = list(train) + list(test)
    intents = {act.intent for ex in both for act in ex.acts.acts}
    slots = {p.name for ex in both for p in ex.acts.all_pairs()}
    n_acts = sum(len(ex.acts.acts) for ex in both)
    return DatasetStats(
        n_intents=len(intents),
        n_slots=len(slots),
        n_train_das=len(_distinct_keys(train)),
        n_test_das=len(_distinct_keys(test)),
        overlap_pct=overlap_pct(train, test) if len(test) else 0.0,
        avg_das_per_instance=n_acts / len(both) if both else 0.0,
        n_train=len(train),
        n_test=len(test),
    )


def render_stats(s: DatasetStats, title: str = "corpus") -> str:
    """Aligned text table of split statistics."""
    rows = [
        ("# Intent", str(s.n_intents)),
        ("# Slot", str(s.n_slots)),
        ("# DAs in training", str(s.n_train_das)),
        ("# DAs in testing", str(s.n_test_das)),
        ("Overlap Percentage", f"{s.overlap_pct:.2f}"),
        ("Avg. #DAs per Instance", f"{s.avg_das_per_instance:.2f}"),
        ("# Training Instances", str(s.n_train)),
        ("# Testing Instances", str(s.n_test)),
    ]
    label_w = max(len(r[0]) for r in rows)
    value_w = max(max(len(r[1]) for r in rows), len(title))
    lines = [f"{'Statistics':<{label_w}}  {title:>{value_w}}"]
    lines += [f"{label:<{label_w}}  {value:>{value_w}}" for label, value in rows]
    return "\n".join(lines)
