import math
from collections import Counter

import numpy as np
import pytest

from scgpt.dataset import Corpus, Example
from scgpt.dialog_act import DialogAct, DialogActSet, act_set
from scgpt.errors import LengthMismatchError
from scgpt.metrics import (
    bleu_tokenize,
    corpus_bleu,
    entity_f1,
    evaluate,
    make_entity_extractor,
    render_report,
    seen_unseen_split,
    slot_error,
)

from oracles import bleu_oracle, entity_f1_oracle, err_oracle, seen_unseen_oracle

# frozen before the implementation: independent BLEU script on
# candidate "the the the the" vs reference "the cat"; equals (1/96)**0.25
THE_THE_BLEU = 0.31947155212313627


def _acts(*pairs):
    return act_set("inform", list(pairs))


def test_slot_error_all_present():
    r = slot_error(_acts(("name", "Hilton"), ("area", "center")), "the hilton is in the center")
    assert (r.M, r.p, r.q, r.err) == (2, 0, 0, 0.0)


def test_slot_error_missing():
    r = slot_error(_acts(("name", "Hilton"), ("area", "center")), "the hilton is nice")
    assert (r.M, r.p, r.q, r.err) == (2, 1, 0, 0.5)


def test_slot_error_redundant():
    r = slot_error(_acts(("name", "Hilton"), ("area", "center")), "hilton hilton in the center")
    assert (r.M, r.p, r.q, r.err) == (2, 0, 1, 0.5)


def test_slot_error_excludes_placeholders():
    acts = _acts(("name", "Hilton"), ("stars", "?"), ("parking", "yes"))
    r = slot_error(acts, "the hilton has parking")
    assert r.M == 1 and r.err == 0.0
    # a placeholder in the text is neither a match nor a surplus
    assert slot_error(acts, "yes , the hilton ? yes").err == 0.0


def test_slot_error_empty_act():
    r = slot_error(act_set("bye"), "goodbye")
    assert (r.M, r.p, r.q, r.err) == (0, 0, 0, 0.0)


def test_slot_error_duplicate_value_needs_both_occurrences():
    acts = DialogActSet(
        (
            DialogAct("inform", (("depart", "5"),)),
            DialogAct("confirm", (("arrive", "5"),)),
        )
    )
    assert slot_error(acts, "leaves at 5 arrives at 5").err == 0.0
    # one occurrence of a value required twice is a miss, not a match
    r = slot_error(acts, "at 5 exactly")
    assert (r.M, r.p, r.q) == (2, 1, 0)


def test_slot_error_word_boundary_and_case():
    r = slot_error(_acts(("area", "center")), "Centerville has no match")
    assert r.p == 1
    assert slot_error(_acts(("area", "center")), "in the CENTER").err == 0.0


def test_slot_error_matches_bruteforce_random():
    rng = np.random.default_rng(6)
    values = ["hilton", "north", "50 minutes", "5", "cheap", "ix"]
    words = ["the", "hotel", "is", "in", "north", "5", "cheap", "hilton", "minutes", "50"]
    for _ in range(100):
        n_pairs = int(rng.integers(0, 4))
        pairs = [
            (f"s{i}", values[int(rng.integers(len(values)))]) for i in range(n_pairs)
        ]
        acts = act_set("inform", pairs) if pairs else act_set("inform")
        text = " ".join(words[int(rng.integers(len(words)))] for _ in range(int(rng.integers(0, 12))))
        r = slot_error(acts, text)
        assert (r.M, r.p, r.q) == err_oracle(acts, text)


def test_bleu_tokenize():
    assert bleu_tokenize("The cat, sat!") == ["the", "cat", ",", "sat", "!"]


def test_bleu_identity_is_one():
    cands = ["the cat sat on the mat", "a dog barks"]
    assert corpus_bleu(cands, [[c] for c in cands]) == pytest.approx(1.0)


def test_bleu_frozen_clipping_example():
    got = corpus_bleu(["the the the the"], [["the cat"]])
    assert got == pytest.approx(THE_THE_BLEU, abs=1e-12)
    assert got == pytest.approx((1 / 96) ** 0.25, abs=1e-12)


def test_bleu_empty_candidate_is_zero():
    assert corpus_bleu([""], [["the cat"]]) == 0.0


def test_bleu_zero_unigram_overlap_is_zero():
    assert corpus_bleu(["xyz"], [["the cat"]]) == 0.0


def test_bleu_length_mismatch():
    with pytest.raises(LengthMismatchError):
        corpus_bleu(["a"], [["a"], ["b"]])
    with pytest.raises(LengthMismatchError):
        corpus_bleu(["a"], [[]])


def test_bleu_permutation_symmetric_and_bounded():
    cands = ["the cat sat", "a dog", "birds fly high today"]
    refs = [["the cat sat down"], ["a dog barks", "the dog"], ["birds fly"]]
    v = corpus_bleu(cands, refs)
    assert 0.0 <= v <= 1.0
    perm = [2, 0, 1]
    assert corpus_bleu([cands[i] for i in perm], [refs[i] for i in perm]) == pytest.approx(v)


def _random_corpus(rng, n):
    words = ["the", "cat", "sat", "on", "mat", "dog", "a", "runs", "fast", "!", ","]
    def sentence(lo, hi):
        k = int(rng.integers(lo, hi))
        return " ".join(words[int(rng.integers(len(words)))] for _ in range(k))
    cands = [sentence(0, 9) for _ in range(n)]
    refs = [[sentence(1, 9) for _ in range(int(rng.integers(1, 3)))] for _ in range(n)]
    return cands, refs


def test_bleu_matches_reference_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(8):
        cands, refs = _random_corpus(rng, int(rng.integers(1, 8)))
        assert corpus_bleu(cands, refs) == pytest.approx(
            bleu_oracle(cands, refs), abs=1e-9
        )


def test_entity_f1_definition():
    extractor = lambda s: Counter(s.split())
    # generated {A,B} vs reference {A,C}: P=R=0.5
    assert entity_f1(["A B"], ["A C"], extractor) == pytest.approx(0.5)
    assert entity_f1(["A B", "C"], ["A B", "C"], extractor) == 1.0
    assert entity_f1([""], [""], extractor) == 1.0


def test_entity_f1_length_mismatch():
    with pytest.raises(LengthMismatchError):
        entity_f1(["a"], ["a", "b"], lambda s: Counter())


def test_entity_extractor_values_and_numbers():
    corpus = Corpus(
        (Example(_acts(("name", "Hilton"), ("time", "50 minutes")), "r", "d"),)
    )
    extract = make_entity_extractor(corpus)
    got = extract("the Hilton in 50 minutes or 3 hours")
    assert got["hilton"] == 1
    assert got["50 minutes"] == 1
    assert got["3"] == 1
    assert got["50"] == 1  # number token inside a matched value still counts


def test_entity_f1_matches_bruteforce():
    corpus = Corpus(
        (
            Example(_acts(("name", "ix"), ("area", "west")), "ix is west", "d"),
            Example(_acts(("price", "cheap")), "it is cheap", "d"),
            Example(_acts(("stars", "5")), "rated 5", "d"),
        )
    )
    extract = make_entity_extractor(corpus)
    inventory = sorted({p.value.lower() for ex in corpus for p in ex.acts.all_pairs()})
    cases = [
        (["ix is in the west", "cheap cheap food", "rated 4"], [ex.response for ex in corpus]),
        (["rated 5"], ["hello"]),  # entities on one side only
    ]
    for cands, refs in cases:
        assert entity_f1(cands, refs, extract) == pytest.approx(
            entity_f1_oracle(cands, refs, inventory)
        )
    assert entity_f1(["rated 5"], ["hello"], extract) == 0.0


def test_seen_unseen_split():
    train = Corpus((Example(act_set("inform", [("name", "a")]), "r", "d"),))
    test = Corpus(
        (
            Example(act_set("inform", [("name", "b")]), "x", "d"),
            Example(act_set("confirm", [("name", "c")]), "y", "d"),
        )
    )
    assert seen_unseen_split(train, test) == ([0], [1])
    assert seen_unseen_split(Corpus(()), test) == ([], [0, 1])
    assert seen_unseen_split(train, test) == seen_unseen_oracle(train, test)


def test_evaluate_perfect_candidates():
    train = Corpus((Example(act_set("inform", [("name", "ix")]), "ix is here", "d"),))
    test = Corpus(
        (
            Example(act_set("inform", [("name", "ix")]), "ix is here", "d"),
            Example(act_set("inform", [("area", "west")]), "go west", "d"),
        )
    )
    report = evaluate(train, test, ["ix is here", "go west"], domain="d")
    assert report.bleu == pytest.approx(1.0)
    assert report.err == 0.0
    assert report.entity_f1 == 1.0
    assert (report.n_seen, report.n_unseen) == (1, 1)
    text = render_report(report)
    assert "bleu_unseen" in text and "domain" in text


def test_evaluate_pairs_candidates_by_position():
    ex = Example(act_set("inform", [("name", "hilton")]), "the hilton is here", "d")
    twin = Example(ex.acts, ex.response, ex.domain)  # equal, but another object
    cands = ["the hilton is here", "no hotel named"]
    same_object = evaluate(Corpus(()), Corpus((ex, ex)), cands)
    assert same_object == evaluate(Corpus(()), Corpus((ex, twin)), cands)
    assert same_object.err == same_object.err_unseen == 0.5


def test_evaluate_length_mismatch():
    test = Corpus((Example(act_set("bye"), "bye", "d"),))
    with pytest.raises(LengthMismatchError):
        evaluate(Corpus(()), test, [])
