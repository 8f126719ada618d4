"""Deterministic multi-domain corpus generation from templated grammars.

A grammar file describes one domain in a line-oriented format:

    # comment
    domain taxi
    slot pickup : the old mill | king street station
    slot fare : 8 euros | 14 euros
    template quote ( pickup , fare , wait* ) : the ride from [pickup] costs
        [fare] { with a wait of [wait] } .
    template decline ( area=? ) : which part of town should the cab go to ?

(templates are written on one line; the wrap above is for this docstring
only).  Head entries are lexical slots, optional lexical slots marked with
a trailing ``*``, or fixed ``slot=value`` pairs whose value must be one of
the non-lexical markers.  The body is a whitespace-tokenized response in
which every lexical slot appears once as a ``[slot]`` placeholder; an
optional slot's placeholder sits inside a ``{ ... }`` group that is
dropped when the slot is not sampled.

The central invariant is that any rendering of any template has slot
error 0 against its own dialog act.  Validation enforces its static
preconditions: lexicon values may not collide with template text or with
other slots' values used in the same template, and every lexical slot
surfaces exactly once.  The shipped grammars are additionally swept by
the test suite.
"""

import functools
import hashlib
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dataset import Corpus, Example, read_lines
from .dialog_act import (
    NON_LEXICAL_VALUES,
    RESERVED_CHARS,
    DialogAct,
    DialogActSet,
    SlotValuePair,
    act_set,
    boundary_pattern,
    is_lexical_value,
    match_count,
)
from .errors import GrammarValidationError, ParseError

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")
_PLACEHOLDER_RE = re.compile(r"\[([a-z][a-z0-9_]*)\]")
_HEAD_RE = re.compile(r"([a-z][a-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*$")

PRETRAIN_GRAMMARS = ("attraction", "hotel", "laptop", "restaurant", "shuttle", "train")
HELDOUT_GRAMMARS = ("museum", "taxi")


@dataclass(frozen=True)
class Template:
    """One response pattern: required slots, optional slots, fixed pairs.

    ``body`` holds the response's tokens, braces dropped, as ``(word,
    slot, group)`` triples: ``slot`` is the slot a ``[slot]`` placeholder
    stands for, and ``group`` the optional slot of the ``{ }`` group the
    token sits in; each is None where it does not apply.
    """

    intent: str
    required: tuple
    optional: tuple
    fixed: tuple
    body: tuple


@dataclass(frozen=True)
class DomainGrammar:
    domain: str
    lexicons: tuple  # ordered (slot, (value, ...)) pairs
    templates: tuple

    def lexicon(self, slot: str) -> tuple:
        for name, values in self.lexicons:
            if name == slot:
                return values
        raise KeyError(slot)


def _fail(source: str, lineno: int, msg: str):
    raise GrammarValidationError(f"{source}:{lineno}: {msg}")


def _parse_head(head: str, source: str, lineno: int):
    m = _HEAD_RE.fullmatch(head.strip())
    if m is None:
        _fail(source, lineno, f"template head {head.strip()!r} is not 'intent ( ... )'")
    intent, inner = m.group(1), m.group(2)
    required, optional, fixed = [], [], []
    if inner:
        for item in inner.split(","):
            item = item.strip()
            if "=" in item:
                slot, _, value = item.partition("=")
                slot, value = slot.strip(), value.strip()
                if value.lower() not in NON_LEXICAL_VALUES:
                    _fail(source, lineno,
                          f"fixed value {value!r} for slot {slot!r} is lexical; "
                          "only non-lexical markers may be fixed in a head")
                fixed.append((slot, value))
            elif item.endswith("*"):
                optional.append(item[:-1].strip())
            else:
                required.append(item)
        for slot in required + optional + [s for s, _ in fixed]:
            if not _NAME_RE.fullmatch(slot):
                _fail(source, lineno, f"bad slot name {slot!r} in template head")
    names = required + optional + [s for s, _ in fixed]
    if len(set(names)) != len(names):
        _fail(source, lineno, f"duplicate slot in template head {head.strip()!r}")
    return intent, tuple(required), tuple(optional), tuple(fixed)


def _parse_body(tokens, required, optional, source, lineno) -> tuple:
    """Check group structure and placeholder placement for one template;
    return its body as :class:`Template` ``(word, slot, group)`` triples."""
    body = []
    start = None  # index in body where the open { } group begins
    for tok in tokens:
        if tok == "{":
            if start is not None:
                _fail(source, lineno, "nested { } groups are not allowed")
            start = len(body)
            continue
        if tok == "}":
            if start is None:
                _fail(source, lineno, "unmatched } in template body")
            slots = [slot for _, slot, _ in body[start:] if slot]
            if len(slots) != 1:
                _fail(source, lineno,
                      "each { } group must contain exactly one optional-slot placeholder")
            body[start:] = [(word, slot, slots[0]) for word, slot, _ in body[start:]]
            start = None
            continue
        m = _PLACEHOLDER_RE.fullmatch(tok)
        slot = m.group(1) if m else None
        if slot is None:
            if "[" in tok or "]" in tok or "{" in tok or "}" in tok:
                _fail(source, lineno,
                      f"token {tok!r} mixes brackets with text; placeholders and "
                      "braces must be whole whitespace-separated tokens")
        elif any(slot == s for _, s, _ in body):
            _fail(source, lineno, f"placeholder [{slot}] appears more than once")
        elif slot in required:
            if start is not None:
                _fail(source, lineno, f"required slot [{slot}] may not sit in a {{ }} group")
        elif slot in optional:
            if start is None:
                _fail(source, lineno, f"optional slot [{slot}] must sit inside a {{ }} group")
        else:
            _fail(source, lineno, f"placeholder [{slot}] names no lexical slot of this template")
        body.append((tok, slot, None))
    if start is not None:
        _fail(source, lineno, "unclosed { in template body")
    placed = {slot for _, slot, _ in body}
    for slot in required + optional:
        if slot not in placed:
            _fail(source, lineno, f"lexical slot {slot!r} has no [{slot}] placeholder")
    return tuple(body)


def _check_collisions(grammar: DomainGrammar, source: str):
    """Reject value placements that could break the zero-slot-error invariant."""
    for t in grammar.templates:
        lexical = t.required + t.optional
        literal = " ".join(word for word, slot, _ in t.body if slot is None)
        for slot in lexical:
            for value in grammar.lexicon(slot):
                if match_count(value, literal):
                    raise GrammarValidationError(
                        f"{source}: value {value!r} of slot {slot!r} also occurs "
                        f"literally in a {t.intent} template body")
        for s1 in lexical:
            for s2 in lexical:
                if s1 == s2:
                    continue
                for v1 in grammar.lexicon(s1):
                    for v2 in grammar.lexicon(s2):
                        if match_count(v1, v2):
                            raise GrammarValidationError(
                                f"{source}: value {v1!r} of slot {s1!r} matches inside "
                                f"value {v2!r} of slot {s2!r}; both slots share a "
                                f"{t.intent} template")


def parse_grammar(text: str, source: str = "<string>") -> DomainGrammar:
    """Parse and validate one domain grammar from its file text."""
    domain = None
    lexicons = []
    seen_slots = set()
    templates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "domain":
            if domain is not None:
                _fail(source, lineno, "second domain line")
            if not _NAME_RE.fullmatch(rest):
                _fail(source, lineno, f"bad domain name {rest!r}")
            domain = rest
        elif keyword == "slot":
            name, sep, values_part = rest.partition(":")
            name = name.strip()
            if not sep:
                _fail(source, lineno, "slot line needs 'slot name : v1 | v2'")
            if not _NAME_RE.fullmatch(name):
                _fail(source, lineno, f"bad slot name {name!r}")
            if name in seen_slots:
                _fail(source, lineno, f"slot {name!r} declared twice")
            values = tuple(" ".join(v.split()) for v in values_part.split("|"))
            if any(not v for v in values):
                _fail(source, lineno, f"slot {name!r} has an empty value")
            if len(set(values)) != len(values):
                _fail(source, lineno, f"slot {name!r} repeats a value")
            for v in values:
                bad = RESERVED_CHARS.intersection(v)
                if bad:
                    _fail(source, lineno,
                          f"value {v!r} contains reserved {sorted(bad)!r}")
                if v.lower() in NON_LEXICAL_VALUES:
                    _fail(source, lineno,
                          f"value {v!r} is a non-lexical marker; fix it in a "
                          "template head instead")
            seen_slots.add(name)
            lexicons.append((name, values))
        elif keyword == "template":
            head, sep, body = rest.partition(":")
            if not sep:
                _fail(source, lineno, "template line needs 'template head : body'")
            intent, required, optional, fixed = _parse_head(head, source, lineno)
            tokens = body.split()
            if not tokens:
                _fail(source, lineno, "template body is empty")
            for slot in required + optional:
                if slot not in seen_slots:
                    _fail(source, lineno,
                          f"template uses undeclared slot {slot!r}")
            body = _parse_body(tokens, required, optional, source, lineno)
            templates.append(Template(intent, required, optional, fixed, body))
        else:
            raise ParseError(f"{source}:{lineno}: unknown directive {keyword!r}")
    if domain is None:
        raise GrammarValidationError(f"{source}: missing domain line")
    if not templates:
        raise GrammarValidationError(f"{source}: no templates")
    grammar = DomainGrammar(domain, tuple(lexicons), tuple(templates))
    _check_collisions(grammar, source)
    return grammar


def load_grammar(path) -> DomainGrammar:
    return parse_grammar("".join(read_lines(path)), source=str(path))


def builtin_grammar(name: str) -> DomainGrammar:
    """Load one of the grammars shipped with the package."""
    ref = resources.files("scgpt") / "grammars" / f"{name}.gram"
    if not ref.is_file():
        raise GrammarValidationError(f"no builtin grammar named {name!r}")
    return parse_grammar(ref.read_text(encoding="utf-8"), source=f"builtin:{name}")


def builtin_grammars(names) -> tuple:
    return tuple(builtin_grammar(n) for n in names)


def render(grammar: DomainGrammar, template: Template, values: dict) -> Example:
    """Instantiate one template with concrete slot values.

    ``values`` maps every required slot, plus each optional slot being
    realized, to its value; groups of unrealized optional slots drop out.
    """
    text = " ".join(values[slot] if slot else word
                    for word, slot, group in template.body
                    if group is None or group in values)
    pairs = [(s, values[s]) for s in template.required]
    pairs += [(s, values[s]) for s in template.optional if s in values]
    pairs += list(template.fixed)
    return Example(act_set(template.intent, pairs), text, grammar.domain)


def _domain_rng(seed: int, domain: str) -> np.random.Generator:
    # independent per-domain streams keyed by the domain name itself,
    # so generating a subset of domains never shifts another's draws
    tag = int.from_bytes(hashlib.sha256(domain.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _sample_example(grammar: DomainGrammar, rng) -> Example:
    t = grammar.templates[int(rng.integers(len(grammar.templates)))]
    chosen = dict.fromkeys(t.required)
    for slot in t.optional:
        if int(rng.integers(2)):
            chosen[slot] = None
    for slot in chosen:
        lex = grammar.lexicon(slot)
        chosen[slot] = lex[int(rng.integers(len(lex)))]
    return render(grammar, t, chosen)


def generate(grammars, n_per_domain: int, seed: int = 0) -> Corpus:
    """Sample a corpus of (dialog act, response) pairs from domain grammars.

    Intents, optional-slot subsets, and values are drawn uniformly from
    a seeded per-domain stream; every emitted example has slot error 0
    by construction.
    """
    if n_per_domain < 1:
        raise ValueError("n_per_domain must be at least 1")
    grammars = list(grammars)
    domains = [g.domain for g in grammars]
    if len(set(domains)) != len(domains):
        raise GrammarValidationError("duplicate domain among grammars")
    examples = []
    for g in grammars:
        rng = _domain_rng(seed, g.domain)
        examples.extend(_sample_example(g, rng) for _ in range(n_per_domain))
    return Corpus(tuple(examples))


_COPY_SYLLABLES = ("ba", "re", "mo", "ku", "zi", "ta", "lo", "ven",
                   "dar", "sul", "pri", "osh", "gla", "tev", "nim", "war")

_VALUE_UNITS = ("euros", "dollars", "pounds", "minutes", "hours", "miles",
                "seats", "nights", "rooms", "tickets", "people", "floors")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


@functools.lru_cache(maxsize=None)
def _plain_words() -> tuple:
    # ordinary English words of three letters or more from the bundled text
    text = (resources.files("scgpt") / "data" / "plain_sample.txt").read_text(encoding="utf-8")
    return tuple(sorted({w for w in re.findall(r"[a-z]+", text) if len(w) >= 3}))


@functools.lru_cache(maxsize=None)
def _heldout_values() -> tuple:
    return tuple(v for g in builtin_grammars(HELDOUT_GRAMMARS) for _, vs in g.lexicons for v in vs)


def _varied_value(rng, n_words=None) -> str:
    """One fresh value in a randomly drawn surface shape.

    The shapes mirror the values dialog acts carry: coined two-word
    names, phrases of ordinary English words, letter-digit codes,
    quantities with a unit, clock times and invented personal names.
    ``n_words`` restricts the draw to values of that many words.  No
    value of a held-out grammar (:data:`HELDOUT_GRAMMARS`) is returned,
    not even as a part of a longer value.
    """
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def name():
        k = int(rng.integers(2, 4))
        tail = pick(_CONSONANTS) if rng.random() < 0.5 else ""
        return "".join(pick(_CONSONANTS) + pick(_VOWELS) for _ in range(k)) + tail

    def syllables():
        k = int(rng.integers(2, 4))
        return "".join(rng.choice(_COPY_SYLLABLES) for _ in range(k))

    while True:
        shape = int(rng.integers(6))
        if shape == 0:
            value = f"{syllables()} {syllables()}"
        elif shape == 1:
            phrase = f"{pick(_plain_words())} {pick(_plain_words())}"
            value = f"the {phrase}" if rng.random() < 0.3 else phrase
        elif shape == 2:
            value = f"{pick(_LETTERS)}{pick(_LETTERS)} {int(rng.integers(10, 100))}"
        elif shape == 3:
            value = f"{int(rng.integers(1, 100))} {pick(_VALUE_UNITS)}"
        elif shape == 4:
            value = f"{int(rng.integers(1, 13))}:{int(rng.integers(60)):02d} {pick(('am', 'pm'))}"
        else:
            value = f"{name()} {name()}" if rng.random() < 0.5 else name()
        if n_words is not None and len(value.split()) != n_words:
            continue
        if not any(match_count(h, value) for h in _heldout_values()):
            return value


def inject_coined_values(corpus: Corpus, fraction: float, seed: int = 0) -> Corpus:
    """Rewrite a share of lexical slot values to fresh, unpredictable values.

    Each selected value is swapped consistently in the dialog act and in
    the response, so every rewritten example still has slot error 0.  The
    coined values are unpredictable from context, which turns the chosen
    slots of every domain into copy exercises: the model can only realize
    them by reading the prefix.  The surrounding text keeps each domain's
    natural register, so the copying pressure is spread across all
    template shapes instead of being tied to dedicated domains.

    The new values have two words each, in the mixed shapes of
    :func:`_varied_value` (coined names, ordinary words, codes,
    quantities, clock times), so that copying is not tied to one token
    family.  A new value never occurs in the response already and never
    contains another value of the example.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be between 0 and 1")

    rng = np.random.default_rng(seed)
    out = []
    for ex in corpus:
        taken = {p.value for p in ex.acts.all_pairs()}
        response = ex.response
        acts = []
        touched = False
        for act in ex.acts.acts:
            pairs = []
            for p in act.pairs:
                value = p.value
                if is_lexical_value(value) and rng.random() < fraction:
                    coined = _varied_value(rng, n_words=2)
                    while match_count(coined, response) or any(
                        match_count(v, coined) for v in taken
                    ):
                        coined = _varied_value(rng, n_words=2)
                    swapped = boundary_pattern(value).sub(coined, response, count=1)
                    if swapped != response:
                        taken.add(coined)
                        response = swapped
                        value = coined
                        touched = True
                pairs.append(SlotValuePair(p.name, value))
            acts.append(DialogAct(act.intent, tuple(pairs)))
        out.append(
            Example(DialogActSet(tuple(acts)), response, ex.domain) if touched else ex
        )
    return Corpus(tuple(out))
