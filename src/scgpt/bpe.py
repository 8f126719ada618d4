"""Byte-level byte-pair-encoding tokenizer.

The base alphabet is all 256 byte values, so any string encodes without
an unknown-token path.  Training repeatedly merges the most frequent
adjacent token pair; three special tokens (BOS, EOS, PAD) occupy the
last ids and are never produced by merges.

Training and encoding hold a token sequence as a ``str`` whose code
points are the token ids: a text's UTF-8 bytes read as Latin-1 give its
base ids, ``s.replace(chr(a) + chr(b), chr(new_id))`` applies a merge
left to right without overlaps, and ``zip(s, s[1:])`` lists the adjacent
pairs, overlaps included, so the per-token work runs in C.  A merge
pairs only tokens older than itself, so it creates no earlier merge's pair.
Training holds one string per occurrence count: the distinct texts that
occur equally often, joined by a separator code point that is no token
id, and no pair that touches the separator is counted.  After a merge,
training recounts only the pairs that hold the new token:
``s.split(pattern)`` cuts a string into the same pieces ``replace``
keeps, a piece's inner pairs are the same before and after the merge,
and each pair next to the new token replaces one next to the merged pair.

Vocab file format (line-delimited text)::

    BPEVOCAB v1 <base> <n_merges>
    <left-hex> <right-hex>      one line per merge, in learned order
    ...
    SPECIAL BOS <id>
    SPECIAL EOS <id>
    SPECIAL PAD <id>
"""

from __future__ import annotations

import heapq
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter

from .errors import (
    CorpusEmptyError,
    ParseError,
    RangeError,
    UnknownFormatError,
)

N_BASE = 256
SPECIAL_NAMES = ("BOS", "EOS", "PAD")
#: The smallest ``target_vocab_size``: every byte, one merge, the specials.
MIN_TARGET_SIZE = N_BASE + 1 + len(SPECIAL_NAMES)

_first, _last = itemgetter(slice(1)), itemgetter(slice(-1, None))


@dataclass(frozen=True)
class Vocab:
    """Immutable tokenizer state: byte-level tokens, merges, special ids.

    ``id_to_token[i]`` is the byte sequence of token ``i`` for the base
    and merged tokens; the specials take the ids right after them, in
    any order, and decode to "".  The merge at index ``i`` rewrites the
    id pair ``merges[i]`` to id ``256 + i``.
    """

    id_to_token: tuple
    merges: tuple
    specials: dict

    def __post_init__(self):
        if len(self.id_to_token) != N_BASE + len(self.merges):
            raise ValueError("id_to_token length inconsistent with merges")
        for i, (a, b) in enumerate(self.merges):
            new = N_BASE + i
            if not (0 <= a < new and 0 <= b < new):
                raise ValueError(f"merge {i} pairs ({a}, {b}), not two ids below {new}")
            if self.id_to_token[new] != self.id_to_token[a] + self.id_to_token[b]:
                raise ValueError(f"token {new} is not the bytes of merge {i} joined")
        if len(set(self.id_to_token)) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")
        ids = sorted(self.specials[name] for name in SPECIAL_NAMES)
        after = list(range(len(self.id_to_token), len(self.id_to_token) + len(ids)))
        if ids != after:
            raise ValueError(f"special ids {ids} are not {after}, the ids after the tokens")

    @property
    def size(self) -> int:
        return len(self.id_to_token) + len(self.specials)

    @property
    def bos_id(self) -> int:
        return self.specials["BOS"]

    @property
    def eos_id(self) -> int:
        return self.specials["EOS"]

    @property
    def pad_id(self) -> int:
        return self.specials["PAD"]

    @cached_property
    def _merge_table(self) -> tuple:
        """(pattern, replacement) code-point strings of each merge, in order."""
        chars = _id_objects(len(self.id_to_token))[1]
        return tuple((chars[a] + chars[b], chars[N_BASE + i]) for i, (a, b) in enumerate(self.merges))


@cache
def _id_objects(n: int) -> tuple:
    """Ids 0..n-1 as ints and as one-code-point strings, made once per
    vocabulary size, so that every vocabulary and encoded list of that
    size shares them instead of holding its own copies."""
    return tuple(range(n)), tuple(map(chr, range(n)))


def train_bpe(corpus, target_vocab_size: int = 512) -> Vocab:
    """Learn merges from the corpus until the vocabulary reaches the target.

    ``target_vocab_size`` counts the full vocabulary: 256 base tokens,
    learned merges, and the three specials.  Training stops early when no
    adjacent pair occurs at least twice.  Ties between equally frequent
    pairs go to the lexicographically smaller (left bytes, right bytes).

    Each distinct string is held once, as a code-point sequence (see the
    module docstring), and the strings that occur equally often, ``w``
    times, are joined into one string with the separator
    ``chr(min(target_vocab_size, sys.maxunicode))`` between them.  Token
    ids stay below the target, so none is the separator; past
    ``sys.maxunicode`` that holds until over a million merges, where ids
    stop fitting a code point anyway.  A pair that touches the separator
    is never counted, so no pair spans two texts.
    All pairs are counted once at the start, each of a joined string's
    pairs ``w`` times.  Each merge of ``(left, right)`` into ``new`` then
    splits each joined string that holds the pair on the pair, once, and
    joins the pieces with ``new``: ``split`` matches left to right without
    overlaps, as ``replace`` does.  The pieces give the pairs that hold
    ``new``.  Every piece but the last ends with the code point ``x``
    before an occurrence, every piece but the first starts with the code
    point ``y`` after one, and an empty piece between two occurrences
    makes ``(new, new)``; the separator and an end of the string make no
    pair.  ``Counter`` counts the pieces' last and first code points in C,
    and each pair found takes the place of one pair of the old string:
    ``(x, new)`` gains ``w`` per occurrence and ``(x, left)`` loses as
    much, as do ``(new, y)`` and ``(right, y)``, and ``(new, new)`` and
    ``(right, left)``.  The merged pair's count becomes 0, since no
    occurrence is left.  That equals recounting the whole strings, since
    a pair inside a piece does not change.  The best pair comes from a
    heap keyed ``(-count, left bytes, right bytes)``, the tie rule above,
    whose stale entries are dropped when they reach the top.  The merges
    are those a full recount after every merge learns.
    """
    corpus = list(corpus)
    if not corpus:
        raise CorpusEmptyError("cannot train a tokenizer on an empty corpus")
    n_specials = len(SPECIAL_NAMES)
    if target_vocab_size < MIN_TARGET_SIZE:
        raise ValueError(
            f"target_vocab_size must exceed {MIN_TARGET_SIZE - 1}, got {target_vocab_size}"
        )

    id_to_token = [bytes([i]) for i in range(N_BASE)]
    merges = []
    sep = chr(min(target_vocab_size, sys.maxunicode))
    groups = {}
    for s, w in Counter(_code_points(text) for text in corpus).items():
        groups.setdefault(w, []).append(s)
    seqs, weights = [sep.join(g) for g in groups.values()], list(groups)
    counts = Counter()
    for s, w in zip(seqs, weights):
        for p, n in Counter(zip(s, s[1:])).items():
            if sep not in p:
                counts[p] += w * n

    def entry(pair, n):
        return (-n, id_to_token[ord(pair[0])], id_to_token[ord(pair[1])], pair)

    heap = [entry(p, n) for p, n in counts.items()]
    heapq.heapify(heap)

    while len(id_to_token) + n_specials < target_vocab_size:
        while heap and counts[heap[0][3]] != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < 2:
            break
        pair = heapq.heappop(heap)[3]
        left, right = pair
        a, b = ord(left), ord(right)
        pattern, new = left + right, chr(len(id_to_token))
        id_to_token.append(id_to_token[a] + id_to_token[b])
        merges.append((a, b))

        delta = Counter()
        for i, (s, w) in enumerate(zip(seqs, weights)):
            if pattern not in s:
                continue
            pieces = s.split(pattern)
            seqs[i] = new.join(pieces)
            before = Counter(map(_last, pieces[:-1]))
            after = Counter(map(_first, pieces[1:]))
            # an empty piece other than the first lies between two occurrences
            doubles = before.pop("", 0) - (not pieces[0])
            for x, n in before.items():
                if x != sep:
                    delta[x, new] += w * n
                    delta[x, left] -= w * n
            for y, n in after.items():
                if y and y != sep:
                    delta[new, y] += w * n
                    delta[right, y] -= w * n
            if doubles:
                delta[new, new] += w * doubles
                delta[right, left] -= w * doubles
        for p, n in delta.items():
            counts[p] += n
            if n and counts[p]:
                heapq.heappush(heap, entry(p, counts[p]))
        counts[pair] = 0

    specials = {
        name: len(id_to_token) + k for k, name in enumerate(SPECIAL_NAMES)
    }
    return Vocab(tuple(id_to_token), tuple(merges), specials)


def _code_points(s: str) -> str:
    """The string's UTF-8 bytes as code points 0-255, i.e. its base ids."""
    return s.encode("utf-8").decode("latin-1")


def encode(v: Vocab, s: str) -> list:
    """Tokenize a string into token ids, without special tokens.

    One pass applies the merges in learned order, each rewriting every
    occurrence left to right.  As no merge creates an earlier one's pair,
    that is the order of always applying the lowest-ranked merge present,
    and encode(train corpus) reproduces the training segmentation.  It costs
    one substring test per merge, so it grows with the vocabulary size, not
    with the string's length times the merges applied.
    """
    seq = _code_points(s)
    for pattern, new in v._merge_table:
        if pattern in seq:
            seq = seq.replace(pattern, new)
            if len(seq) < 2:
                break
    ints = _id_objects(len(v.id_to_token))[0]
    return list(map(ints.__getitem__, map(ord, seq)))


def decode(v: Vocab, ids) -> str:
    """Invert :func:`encode`; special tokens render as the empty string."""
    special_ids = set(v.specials.values())
    chunks = []
    for t in ids:
        t = int(t)
        if t in special_ids:
            continue
        if not 0 <= t < len(v.id_to_token):
            raise RangeError(
                f"token id {t} out of range for vocabulary of size {v.size}"
            )
        chunks.append(v.id_to_token[t])
    return b"".join(chunks).decode("utf-8", errors="replace")


def save_vocab(v: Vocab, path) -> None:
    lines = [f"BPEVOCAB v1 {N_BASE} {len(v.merges)}"]
    for a, b in v.merges:
        lines.append(f"{v.id_to_token[a].hex()} {v.id_to_token[b].hex()}")
    for name in SPECIAL_NAMES:
        lines.append(f"SPECIAL {name} {v.specials[name]}")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def load_vocab(path) -> Vocab:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        # decoded whole, so the error offset is the file's
        lines = [ln for ln in raw.decode("ascii").splitlines() if ln.strip()]
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not ASCII text ({e.reason} at byte {e.start})") from None
    if not lines:
        raise UnknownFormatError(f"{path}: empty vocabulary file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "BPEVOCAB" or header[1] != "v1":
        raise UnknownFormatError(f"{path}: not a BPEVOCAB v1 file")
    try:
        base, n_merges = int(header[2]), int(header[3])
    except ValueError:
        raise UnknownFormatError(f"{path}: bad header counts") from None
    if base != N_BASE:
        raise UnknownFormatError(f"{path}: unsupported base size {base}")
    if len(lines) != 1 + n_merges + len(SPECIAL_NAMES):
        raise ParseError(f"{path}: expected {n_merges} merges and 3 specials")

    id_to_token = [bytes([i]) for i in range(N_BASE)]
    token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
    merges = []
    for ln in lines[1 : 1 + n_merges]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"{path}: malformed merge line {ln!r}")
        try:
            left, right = bytes.fromhex(parts[0]), bytes.fromhex(parts[1])
        except ValueError:
            raise ParseError(f"{path}: bad hex in merge line {ln!r}") from None
        if left not in token_to_id or right not in token_to_id:
            raise ParseError(f"{path}: merge refers to unknown token: {ln!r}")
        merges.append((token_to_id[left], token_to_id[right]))
        token_to_id[left + right] = len(id_to_token)
        id_to_token.append(left + right)

    specials = {}
    for ln in lines[1 + n_merges :]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "SPECIAL" or parts[1] not in SPECIAL_NAMES:
            raise ParseError(f"{path}: malformed special line {ln!r}")
        try:
            specials[parts[1]] = int(parts[2])
        except ValueError:
            raise ParseError(f"{path}: bad special id in {ln!r}") from None
    if set(specials) != set(SPECIAL_NAMES):
        raise ParseError(f"{path}: missing special token declarations")
    try:
        return Vocab(tuple(id_to_token), tuple(merges), specials)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None
