"""Dialog-act data model and the symbolic operations on it.

A dialog act bundles an intent with slot-value pairs, e.g.
``confirm ( name = Hilton ; area = center )``.  This module owns:

* the control-code surface form used as a generation prefix
  (:func:`linearize`) and its inverse (:func:`parse_linearized`),
* the delexicalised canonical key used for grouping, overlap statistics
  and seen/unseen splits (:func:`canonicalize`),
* word-boundary matching of slot values in text (:func:`boundary_pattern`,
  :func:`match_count`),
* slot editing used by robustness probes (:func:`edit_act`).

Everything here is a pure function over immutable values.

Grammar of the linearized form (tokens separated by single spaces)::

    actset := act+
    act    := INTENT "(" [pair (";" pair)*] ")"
    pair   := SLOT "=" VALUE

VALUE may span several tokens but never contains ";" or ")".
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import AmbiguousSlotError, MalformedInputError, UnknownSlotError

#: Characters that may not appear in intents or slot names.
RESERVED_CHARS = frozenset("()=,;[]")

#: Values that mark binary/request slots rather than surface text.  They are
#: never counted by slot_error or by the entity extractor.
NON_LEXICAL_VALUES = frozenset({"?", "yes", "no", "dontcare", "true", "false", "none"})


def is_lexical_value(value: str) -> bool:
    """True when the value is surface text expected to appear in the response."""
    return value.lower() not in NON_LEXICAL_VALUES


def _check_name(kind: str, name: str) -> None:
    if not name:
        raise ValueError(f"{kind} must be non-empty")
    if name.split() != [name]:  # str.split and str.isspace share one whitespace test
        raise ValueError(f"{kind} {name!r} contains whitespace")
    bad = RESERVED_CHARS.intersection(name)
    if bad:
        raise ValueError(f"{kind} {name!r} contains reserved characters {sorted(bad)}")


def _check_slot_name(name: str) -> None:
    _check_name("slot name", name)
    if name != name.lower():
        raise ValueError(f"slot name {name!r} must be lowercase")


@dataclass(frozen=True)
class SlotValuePair:
    """One category/content pair inside a dialog act.

    The slot name is a lowercase identifier; the value is either a
    placeholder marker ("?", "yes", "no", "dontcare", ...) or a lexical
    value expected to surface in the response.
    """

    name: str
    value: str

    def __post_init__(self):
        _check_slot_name(self.name)
        if not self.value:
            raise ValueError(f"slot {self.name!r} has an empty value")
        if ";" in self.value or ")" in self.value:
            raise ValueError(f"value {self.value!r} contains ';' or ')'")
        if self.value != " ".join(self.value.split()):
            raise ValueError(
                f"value {self.value!r} must be single-space separated with no "
                "leading or trailing whitespace"
            )


PairLike = Union[SlotValuePair, tuple]


@dataclass(frozen=True)
class DialogAct:
    """An intent plus an ordered list of slot-value pairs."""

    intent: str
    pairs: tuple = ()

    def __post_init__(self):
        _check_name("intent", self.intent)
        coerced = tuple(
            p if isinstance(p, SlotValuePair) else SlotValuePair(*p) for p in self.pairs
        )
        object.__setattr__(self, "pairs", coerced)

    def slot_names(self) -> tuple:
        return tuple(p.name for p in self.pairs)


@dataclass(frozen=True)
class DialogActSet:
    """One or more dialog acts attached to a single utterance."""

    acts: tuple = ()

    def __post_init__(self):
        coerced = tuple(self.acts)
        if not coerced:
            raise ValueError("a DialogActSet needs at least one act")
        object.__setattr__(self, "acts", coerced)

    def all_pairs(self) -> tuple:
        return tuple(p for act in self.acts for p in act.pairs)


def act_set(intent: str, pairs: Iterable[PairLike] = ()) -> DialogActSet:
    """Convenience constructor for the common single-act case."""
    return DialogActSet((DialogAct(intent, tuple(pairs)),))


def linearize(acts: DialogActSet) -> str:
    """Render a dialog-act set as its control-code surface string.

    Acts are emitted in order; each act renders as
    ``intent ( s1 = v1 ; s2 = v2 )`` and a zero-pair act as ``intent ( )``.
    The result round-trips through :func:`parse_linearized`.
    """
    parts = []
    for act in acts.acts:
        if act.pairs:
            inner = " ; ".join(f"{p.name} = {p.value}" for p in act.pairs)
            parts.append(f"{act.intent} ( {inner} )")
        else:
            parts.append(f"{act.intent} ( )")
    return " ".join(parts)


def parse_linearized(s: str) -> DialogActSet:
    """Parse a control-code string back into a :class:`DialogActSet`.

    Intents, slot names and values must pass the rules that
    :class:`DialogAct` and :class:`SlotValuePair` apply, so every act set
    this returns linearizes back to ``s`` up to whitespace.  Any other
    string raises :class:`MalformedInputError` naming the position of the
    first offending token; a value that breaks a value rule (``a;b``,
    ``x)``) is named by its first token.  A string that is not valid
    Unicode, such as one holding the lone surrogate that a byte that is
    not UTF-8 becomes in ``sys.argv``, raises it too, naming the
    character, so no such string reaches the tokenizer.
    """
    try:
        s.encode("utf-8")
    except UnicodeEncodeError as e:
        raise MalformedInputError(f"not valid Unicode at character {e.start} ({e.reason})") from None
    tokens = s.split()
    n = len(tokens)

    def fail(i: int, expected: str):
        found = tokens[i] if i < n else "end of input"
        raise MalformedInputError(f"expected {expected} at token {i}, found {found!r}")

    def name(i: int, check, expected: str) -> str:
        try:
            check(tokens[i])
        except ValueError:
            fail(i, expected)
        return tokens[i]

    i = 0
    acts = []
    while i < n:
        intent = name(i, functools.partial(_check_name, "intent"), "an intent name")
        i += 1
        if i >= n or tokens[i] != "(":
            fail(i, "'('")
        i += 1
        pairs = []
        if i < n and tokens[i] == ")":
            i += 1
        else:
            while True:
                if i >= n:
                    fail(i, "a slot name or ')'")
                slot = name(i, _check_slot_name, "a slot name")
                i += 1
                if i >= n or tokens[i] != "=":
                    fail(i, f"'=' after slot {slot!r}")
                i += 1
                start = i
                while i < n and tokens[i] not in (";", ")"):
                    i += 1
                if i == start:
                    fail(i, f"a value for slot {slot!r}")
                try:
                    pairs.append(SlotValuePair(slot, " ".join(tokens[start:i])))
                except ValueError as e:
                    raise MalformedInputError(f"{e} at token {start}") from None
                if i >= n:
                    fail(i, "';' or ')'")
                if tokens[i] == ";":
                    i += 1
                    continue
                i += 1  # consumed ")"
                break
        acts.append(DialogAct(intent, tuple(pairs)))
    if not acts:
        raise MalformedInputError("empty dialog act string")
    return DialogActSet(tuple(acts))


def canonicalize(acts: DialogActSet) -> str:
    """Delexicalised canonical key: values erased, slots sorted, acts sorted.

    Identical act sets modulo slot order and slot values map to the same
    key, e.g. ``confirm(area,name)`` or ``inform(time)|request(stars)``.
    """
    rendered = sorted(
        (act.intent, tuple(sorted(act.slot_names()))) for act in acts.acts
    )
    return "|".join(f"{intent}({','.join(slots)})" for intent, slots in rendered)


@functools.lru_cache(maxsize=4096)
def boundary_pattern(value: str) -> re.Pattern:
    """Case-insensitive word-boundary pattern of ``value`` that also
    refuses a value glued to "[" or "]", so text inside [slot]
    placeholders never counts as a value."""
    return re.compile(
        r"(?<![\w\[])" + re.escape(value) + r"(?![\w\]])", re.IGNORECASE
    )


def match_count(value: str, text: str) -> int:
    """Non-overlapping, case-insensitive, word-boundary occurrence count."""
    return len(boundary_pattern(value).findall(text))


@dataclass(frozen=True)
class InsertSlot:
    slot: str
    value: str


@dataclass(frozen=True)
class DeleteSlot:
    slot: str


@dataclass(frozen=True)
class SubstituteValue:
    slot: str
    new_value: str


EditOp = Union[InsertSlot, DeleteSlot, SubstituteValue]


def _single_act_with_slot(acts: DialogActSet, slot: str) -> int:
    holders = [
        idx for idx, act in enumerate(acts.acts) if slot in act.slot_names()
    ]
    if not holders:
        raise UnknownSlotError(f"slot {slot!r} not present in any act")
    if len(holders) > 1:
        raise AmbiguousSlotError(f"slot {slot!r} occurs in {len(holders)} acts")
    return holders[0]


def edit_act(acts: DialogActSet, op: EditOp) -> DialogActSet:
    """Return a new act set with one slot edit applied.

    ``InsertSlot`` appends the pair to the first act.  ``DeleteSlot`` and
    ``SubstituteValue`` require the slot to occur in exactly one act;
    otherwise :class:`UnknownSlotError` / :class:`AmbiguousSlotError` is
    raised.  Each op picks the act it edits and that act's new pairs;
    the act and the set are rebuilt from them, so the edited pairs pass
    the same checks as any other.  The input set is never modified.
    """
    if isinstance(op, InsertSlot):
        idx = 0
        pairs = acts.acts[0].pairs + (SlotValuePair(op.slot, op.value),)
    elif isinstance(op, DeleteSlot):
        idx = _single_act_with_slot(acts, op.slot)
        pairs = tuple(p for p in acts.acts[idx].pairs if p.name != op.slot)
    elif isinstance(op, SubstituteValue):
        idx = _single_act_with_slot(acts, op.slot)
        pairs = tuple(
            SlotValuePair(p.name, op.new_value) if p.name == op.slot else p
            for p in acts.acts[idx].pairs
        )
    else:
        raise TypeError(f"unknown edit op {op!r}")
    edited = DialogAct(acts.acts[idx].intent, pairs)
    return DialogActSet(acts.acts[:idx] + (edited,) + acts.acts[idx + 1:])
