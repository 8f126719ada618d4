import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgpt.bpe import (
    N_BASE,
    Vocab,
    decode,
    encode,
    load_vocab,
    save_vocab,
    train_bpe,
)
from scgpt.dialog_act import linearize
from scgpt.errors import CorpusEmptyError, ParseError, RangeError, UnknownFormatError
from scgpt.synthetic import (
    PRETRAIN_GRAMMARS,
    builtin_grammars,
    generate,
    inject_coined_values,
)

from oracles import encode_reference, train_bpe_reference


def test_first_merge_is_most_frequent_pair():
    v = train_bpe(["aaab", "aab"], target_vocab_size=260)
    # (a,a) occurs 3 times, (a,b) twice
    assert v.merges == ((ord("a"), ord("a")),)
    assert v.id_to_token[256] == b"aa"


def test_single_pair_corpus_learns_one_merge():
    v = train_bpe(["ab", "ab"], target_vocab_size=260)
    assert v.merges == ((ord("a"), ord("b")),)


def test_stops_when_no_pair_repeats():
    v = train_bpe(["ab"], target_vocab_size=300)
    assert v.merges == ()
    assert v.size == 259


def test_tie_breaks_lexicographically():
    # "ab" and "cd" both occur twice; ("a","b") < ("c","d")
    v = train_bpe(["abxcd", "cdxab"], target_vocab_size=260)
    assert v.merges[0] == (ord("a"), ord("b"))


def test_empty_corpus_errors():
    with pytest.raises(CorpusEmptyError):
        train_bpe([], target_vocab_size=300)


def test_target_must_exceed_base_plus_specials():
    with pytest.raises(ValueError):
        train_bpe(["ab"], target_vocab_size=259)


def test_special_ids_sit_after_tokens():
    v = train_bpe(["aaab", "aab"], target_vocab_size=260)
    assert v.bos_id == 257 and v.eos_id == 258 and v.pad_id == 259
    assert v.size == 260


def test_encode_empty():
    v = train_bpe(["ab", "ab"], target_vocab_size=260)
    assert encode(v, "") == []
    assert decode(v, [v.bos_id, v.eos_id]) == ""


_BASE = tuple(bytes([i]) for i in range(N_BASE))


def test_greedy_merge_application():
    v = Vocab(((ord("a"), ord("a")),))
    ids = encode(v, "aaa")
    assert [v.id_to_token[i] for i in ids] == [b"aa", b"a"]


def test_merge_order_respected():
    # learned order: ("a","a") first, then ("aa","b"); encode must apply
    # the earlier merge before the later one can fire.
    v = Vocab(((ord("a"), ord("a")), (256, ord("b"))))
    ids = encode(v, "aab")
    assert [v.id_to_token[i] for i in ids] == [b"aab"]


@pytest.mark.parametrize(
    "merges,match",
    [
        # merge 0 names id 257, the token of the later merge 1
        pytest.param(((ord("a"), 257), (ord("a"), ord("b"))), r"merge 0 pairs \(97, 257\)",
                     id="later-merge"),
        pytest.param(((ord("a"), 256),), r"merge 0 pairs \(97, 256\)", id="own-id"),
        pytest.param(((ord("a"), ord("b")), (ord("a"), ord("b"))), "duplicate tokens",
                     id="merged-twice"),
    ],
)
def test_vocab_rejects_merges_that_break_learned_order(merges, match):
    with pytest.raises(ValueError, match=match):
        Vocab(merges)


def test_vocab_derives_tokens_and_special_ids_from_its_merges():
    v = Vocab(((ord("a"), ord("a")), (256, ord("b"))))
    assert v.id_to_token == _BASE + (b"aa", b"aab")
    assert (v.bos_id, v.eos_id, v.pad_id, v.size) == (258, 259, 260, 261)


def test_decode_invalid_id():
    v = train_bpe(["ab", "ab"], target_vocab_size=260)
    with pytest.raises(RangeError, match="out of range"):
        decode(v, [v.size])
    with pytest.raises(RangeError, match="out of range"):
        decode(v, [-1])


def test_decode_skips_specials_inside_sequence():
    v = train_bpe(["ab", "ab"], target_vocab_size=260)
    ids = [v.bos_id] + encode(v, "ab") + [v.eos_id]
    assert decode(v, ids) == "ab"


def test_determinism():
    corpus = ["the cat sat", "the cat ran", "a cat sat"]
    v1 = train_bpe(corpus, target_vocab_size=300)
    v2 = train_bpe(corpus, target_vocab_size=300)
    assert v1 == v2


def test_specials_never_emitted_without_wrap():
    v = train_bpe(["hello world"] * 3, target_vocab_size=280)
    ids = encode(v, "hello world hello")
    assert not set(ids) & {v.bos_id, v.eos_id, v.pad_id}


def test_save_load_round_trip(tmp_path):
    v = train_bpe(["the cat sat on the mat", "the cat"], target_vocab_size=270)
    path = tmp_path / "vocab.txt"
    save_vocab(v, path)
    assert load_vocab(path) == v


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("NOTVOCAB v1 256 0\n")
    with pytest.raises(UnknownFormatError):
        load_vocab(p)
    p.write_text("BPEVOCAB v1 256 2\nff ff\n")
    with pytest.raises(ParseError):
        load_vocab(p)


def test_load_reports_the_files_byte_offset(tmp_path):
    # past the text decoder's first chunk, the offset is still the file's
    p = tmp_path / "bad.txt"
    p.write_bytes(b"a" * 19_999 + b"\n\xff")
    with pytest.raises(ParseError, match="at byte 20000"):
        load_vocab(p)


@pytest.mark.parametrize(
    "merges,specials",
    [
        ([], ("256", "257", "x")),  # not an int
        ([], ("256", "257", "\u00ff")),  # not ASCII
        ([], ("256", "257", "257")),  # duplicated
        ([], ("256", "257", "3")),  # inside the token ids
        (["61 62", "61 62"], ("258", "259", "260")),  # one token merged twice
        ([], ("256", "257", "259")),  # PAD at the vocabulary's size
        ([], ("256", "257", "900")),  # after a gap
        ([], ("257", "256", "258")),  # BOS and EOS swapped
        (["61 62"], ("258", "257", "259")),  # the same, after a merge
    ],
)
def test_load_rejects_corrupt_vocab(tmp_path, merges, specials):
    p = tmp_path / "bad.txt"
    lines = [f"BPEVOCAB v1 256 {len(merges)}", *merges]
    lines += [f"SPECIAL {n} {i}" for n, i in zip(("BOS", "EOS", "PAD"), specials)]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(str(p))):
        load_vocab(p)


@given(st.text(max_size=60))
@settings(max_examples=200)
def test_property_round_trip(s):
    v = train_bpe(["the cat sat on the mat"] * 2, target_vocab_size=266)
    assert decode(v, encode(v, s)) == s


@given(st.lists(st.text(alphabet="abcd ", min_size=1, max_size=20), min_size=1, max_size=6))
@settings(max_examples=50)
def test_property_encode_matches_training_segmentation(corpus):
    # every string in the training corpus must still round-trip
    v = train_bpe(corpus, target_vocab_size=264)
    for s in corpus:
        assert decode(v, encode(v, s)) == s


def _outcome(f, *args):
    """f(*args), or the type and message of the exception it raised."""
    try:
        return f(*args)
    except (ValueError, CorpusEmptyError) as e:
        return type(e), str(e)


_piece = st.one_of(
    st.text(alphabet="ab ", max_size=12),
    st.sampled_from(["aaaa", "aaa", "aa", "abab", "aab",
                     "\u00e9\u00e9\u00e9", "\u20ac\u00e9\u20ac", "\U0001f642 a"]),
    st.text(max_size=8),
)


@given(
    st.lists(_piece, max_size=14),
    st.integers(min_value=255, max_value=330),
    st.lists(st.text(alphabet="ab \u00e9\u20ac\U0001f642", max_size=20), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_property_matches_full_recount_oracle(corpus, target, others):
    # duplicates, equal counts (ties), runs like "aaaa"/"aaa", multibyte
    # UTF-8, and targets past the point where merges run out
    v = _outcome(train_bpe, corpus, target)
    assert v == _outcome(train_bpe_reference, corpus, target)
    if isinstance(v, Vocab):
        for s in corpus + others:
            assert encode(v, s) == encode_reference(v, s)


@pytest.mark.parametrize("per_domain,target", [(15, 384), (50, 448)])
def test_synthetic_corpus_matches_full_recount_oracle(per_domain, target):
    corpus = generate(builtin_grammars(PRETRAIN_GRAMMARS), per_domain, seed=5)
    corpus = inject_coined_values(corpus, 0.2, seed=5)
    texts = [linearize(ex.acts) for ex in corpus] + [ex.response for ex in corpus]
    v = train_bpe(texts, target_vocab_size=target)
    assert v == train_bpe_reference(texts, target_vocab_size=target)
    assert v.size == target
    assert [encode(v, s) for s in texts] == [encode_reference(v, s) for s in texts]


# Corpora whose merges put the merged pair at the edges of train_bpe's
# recount windows: the pieces between occurrences, shrunk to their first
# and last code point.
_WINDOW_CASES = {
    "back_to_back": ["abababab", "abababab", "xabababy"],
    "odd_and_even_runs": ["aaaaa", "aaaaaa", "baaaaab", "aaaaaaa"],
    "pair_at_start_and_end": ["abxyab", "abzzab", "ab", "xab", "abx"],
    "collapses_to_one_token": ["abab", "abab", "abab"],
    "pieces_of_length_0_1_2_3_plus": ["abab", "xabyab", "xyabzwab", "xyzabuvwab", "uvwxyzab"] * 2,
    "duplicated_strings": ["hello hello"] * 3 + ["help", "help", "hell"],
    "multibyte_utf8": ["\u20ac\u00e9\u20ac\u00e9", "\u00e9\u20ac\u00e9\u20ac\u00e9",
                       "\U0001f642\U0001f642 \U0001f642", "\U0001f642\U0001f642 \u00e9"],
    "one_pair_in_several_count_groups": ["abab"] * 3 + ["ab"] * 2 + ["xaby"],
    "repeated_and_single_texts": ["abab"] * 3 + ["hello world"],
    # one count group "ab|abab|xab|abx": the pair on both sides of separators
    "pair_beside_the_separator": ["ab", "abab", "xab", "abx"],
    # one count group "ab|abab": empty pieces at both ends, beside a separator
    # and between two occurrences
    "empty_pieces_in_a_count_group": ["ab", "ab", "abab", "abab"],
    "run_of_one_token_beside_the_separator": ["aa", "aaaa", "aaa", "xaa", "aax"] * 2,
}


@pytest.mark.parametrize("corpus", _WINDOW_CASES.values(), ids=list(_WINDOW_CASES))
@pytest.mark.parametrize("target", [260, 262, 268, 1024, 2_000_000])
def test_windowed_recount_matches_full_recount_on_edge_cases(corpus, target):
    # the last target lies past sys.maxunicode, the highest code point
    v = train_bpe(corpus, target_vocab_size=target)
    assert v == train_bpe_reference(corpus, target_vocab_size=target)
    if target >= 1024:  # merges ran out: no pair occurs twice any more
        assert v.size < target
        assert all(len(encode(v, s)) == 1 for s in corpus if corpus.count(s) > 1)


def test_no_pair_spans_two_texts():
    # texts that occur equally often share one joined string
    assert train_bpe(["a", "b"] * 4, target_vocab_size=300).merges == ()
    corpus = ["xa", "b", "", "ab", "a", "bx"]
    assert train_bpe(corpus, 300) == train_bpe_reference(corpus, 300)


def test_encode_leaves_vocab_equal_to_a_fresh_load(tmp_path):
    v = train_bpe(["the cat sat on the mat", "the cat", "a mat"], target_vocab_size=275)
    save_vocab(v, tmp_path / "first.bpe")
    ids = encode(v, "the cat sat on a mat")  # builds the vocab's merge tables
    fresh = load_vocab(tmp_path / "first.bpe")
    assert v == fresh and repr(v) == repr(fresh)
    save_vocab(v, tmp_path / "again.bpe")
    save_vocab(fresh, tmp_path / "fresh.bpe")
    first = (tmp_path / "first.bpe").read_bytes()
    assert (tmp_path / "again.bpe").read_bytes() == first
    assert (tmp_path / "fresh.bpe").read_bytes() == first
    assert encode(fresh, "the cat sat on a mat") == ids
    assert any(i >= N_BASE for i in ids)
    assert all(type(i) is int and 0 <= i < len(v.id_to_token) for i in ids)


_ALPHABET = "ab \u00e9\u20ac"


@st.composite
def _vocabs(draw):
    """A valid vocabulary from an arbitrary merge list over the bytes of
    ``_ALPHABET`` and one byte no string holds: merges that never fire,
    (x, x) pairs, merges of merged tokens, pieces of multibyte characters."""
    id_to_token = list(_BASE)
    pool = sorted(set(_ALPHABET.encode())) + [ord("z")]
    merges = []
    for _ in range(draw(st.integers(0, 30))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if id_to_token[a] + id_to_token[b] in id_to_token:
            continue
        merges.append((a, b))
        pool.append(len(id_to_token))
        id_to_token.append(id_to_token[a] + id_to_token[b])
    return Vocab(tuple(merges))


@given(_vocabs(), st.lists(st.text(alphabet=_ALPHABET, max_size=30), max_size=6))
@settings(max_examples=300, deadline=None)
def test_property_encode_matches_min_rank_oracle_on_any_merge_list(v, texts):
    with tempfile.TemporaryDirectory() as d:
        save_vocab(v, Path(d) / "v.bpe")
        loaded = load_vocab(Path(d) / "v.bpe")
    assert loaded == v
    for s in texts:
        assert encode(loaded, s) == encode_reference(loaded, s)
