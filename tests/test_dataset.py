import json
import re
from pathlib import Path

import pytest

from scgpt.dataset import (
    Corpus,
    DatasetStats,
    Example,
    build_fewshot,
    default_k_map,
    ingest,
    render_stats,
    stats,
    write_jsonl,
)
from scgpt.dialog_act import act_set, canonicalize, parse_linearized
from scgpt.errors import InsufficientGroupsError, ParseError


def _ex(intent, pairs, response, domain="alpha"):
    return Example(act_set(intent, pairs), response, domain)


def _write(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n")


def _obj(domain="alpha", response="hello", intent="inform", slots=(("name", "ix"),)):
    return {
        "domain": domain,
        "response": response,
        "acts": [{"intent": intent, "slots": [{"name": n, "value": v} for n, v in slots]}],
    }


def test_ingest_well_formed(tmp_path):
    p = tmp_path / "c.jsonl"
    _write(p, [_obj(), _obj(response="bye", intent="bye", slots=()), _obj(domain="beta")])
    corpus = ingest(p)
    assert len(corpus) == 3
    assert corpus.examples[0].response == "hello"
    assert corpus.examples[1].acts.acts[0].intent == "bye"
    assert corpus.domains() == ("alpha", "beta")


def test_ingest_missing_field_names_line(tmp_path):
    p = tmp_path / "c.jsonl"
    bad = _obj()
    del bad["response"]
    _write(p, [_obj(), bad])
    with pytest.raises(ParseError, match=":2"):
        ingest(p)


@pytest.mark.parametrize(
    "where,key,value",
    [
        ((), "domain", None),
        ((), "response", 7),
        ((), "acts", [5]),
        (("acts", 0), "intent", 5),
        (("acts", 0), "slots", "name"),
        (("acts", 0), "slots", [["name", "ix"]]),
        (("acts", 0, "slots", 0), "name", None),
        (("acts", 0, "slots", 0), "value", 3),
    ],
)
def test_ingest_rejects_badly_typed_fields(tmp_path, where, key, value):
    bad = _obj()
    target = bad
    for step in where:
        target = target[step]
    target[key] = value
    p = tmp_path / "c.jsonl"
    _write(p, [_obj(), bad])
    with pytest.raises(ParseError, match=rf"^{re.escape(str(p))}:2: "):
        ingest(p)


@pytest.mark.parametrize("field", ["value", "response"])
def test_ingest_refuses_strings_that_are_not_unicode(tmp_path, field):
    # json.dumps writes the lone surrogate as the valid JSON escape "\udcff"
    bad = _obj(response="x\udcff") if field == "response" else _obj(slots=(("name", "\udcff"),))
    p = tmp_path / "c.jsonl"
    _write(p, [_obj(), bad])
    assert "\\udcff" in p.read_text()
    with pytest.raises(ParseError, match=rf"^{re.escape(str(p))}:2: '{field}' .* not valid Unicode"):
        ingest(p)


def test_ingest_bad_json_names_line(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text(json.dumps(_obj()) + "\n{not json\n")
    with pytest.raises(ParseError, match=":2"):
        ingest(p)


def test_ingest_empty_file_is_valid(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text("")
    assert len(ingest(p)) == 0


def test_write_ingest_round_trip(tmp_path):
    corpus = Corpus(
        (
            _ex("inform", [("name", "ix"), ("area", "west")], "ix is in the west"),
            _ex("bye", [], "goodbye", domain="beta"),
        )
    )
    p = tmp_path / "c.jsonl"
    write_jsonl(corpus, p)
    loaded = ingest(p)
    assert [e.response for e in loaded] == [e.response for e in corpus]
    assert [e.acts for e in loaded] == [e.acts for e in corpus]
    assert [e.domain for e in loaded] == [e.domain for e in corpus]


def _grouped_corpus():
    # three canonical groups in alpha (the second group twice), one in beta
    return Corpus(
        (
            _ex("inform", [("name", "a1")], "first a"),
            _ex("confirm", [("name", "b1")], "first b"),
            _ex("confirm", [("name", "b2")], "second b"),
            _ex("request", [("area", "?")], "which area"),
            _ex("inform", [("price", "cheap")], "beta cheap", domain="beta"),
            _ex("inform", [("price", "dear")], "beta dear", domain="beta"),
        )
    )


def test_build_fewshot_partitions_groups():
    train, test = build_fewshot(_grouped_corpus(), {"alpha": 2}, seed=0)
    assert len(train) == 2 and len(test) == 1
    train_keys = {canonicalize(e.acts) for e in train}
    test_keys = {canonicalize(e.acts) for e in test}
    assert not train_keys & test_keys
    # beta was not requested, so it appears nowhere
    assert all(e.domain == "alpha" for e in list(train) + list(test))


def test_build_fewshot_keeps_first_utterance():
    train, test = build_fewshot(_grouped_corpus(), {"alpha": 3}, seed=0)
    texts = {e.response for e in train}
    assert "first b" in texts and "second b" not in texts


def test_build_fewshot_drops_cross_domain_keys():
    corpus = Corpus(
        (
            _ex("inform", [("name", "x")], "alpha text", domain="alpha"),
            _ex("inform", [("name", "y")], "beta text", domain="beta"),
            _ex("bye", [], "goodbye alpha", domain="alpha"),
        )
    )
    # inform(name) exists in both domains, leaving alpha only bye()
    train, test = build_fewshot(corpus, {"alpha": 1}, seed=0)
    assert [e.response for e in train] == ["goodbye alpha"]
    assert len(test) == 0


def test_build_fewshot_insufficient_groups():
    with pytest.raises(InsufficientGroupsError):
        build_fewshot(_grouped_corpus(), {"alpha": 4}, seed=0)
    with pytest.raises(InsufficientGroupsError):
        build_fewshot(_grouped_corpus(), {"gamma": 1}, seed=0)


def test_build_fewshot_deterministic():
    corpus = Corpus(
        tuple(_ex("inform", [(f"s{i}", "v")], f"text {i}") for i in range(20))
    )
    a = build_fewshot(corpus, {"alpha": 7}, seed=13)
    b = build_fewshot(corpus, {"alpha": 7}, seed=13)
    assert a == b
    c = build_fewshot(corpus, {"alpha": 7}, seed=14)
    assert {e.response for e in a[0]} != {e.response for e in c[0]}


def test_default_k_map():
    m = default_k_map(["restaurant", "taxi", "tv"])
    assert m == {"restaurant": 50, "taxi": 40, "tv": 50}


def _one_key_corpus(*keys):
    return Corpus(tuple(_ex(k, [("name", "v")], f"r {k}") for k in keys))


def test_overlap_pct_definition():
    train = _one_key_corpus("a", "b")
    test = _one_key_corpus("a", "c", "d", "c")
    s = stats(train, test)
    assert s.overlap_pct == pytest.approx(100 / 3)
    assert (s.n_train_das, s.n_test_das) == (2, 3)
    assert stats(train, train).overlap_pct == 100.0
    assert stats(train, _one_key_corpus("x")).overlap_pct == 0.0


def test_overlap_pct_empty_test():
    s = stats(_one_key_corpus("a"), Corpus(()))
    assert (s.overlap_pct, s.n_train_das, s.n_test_das) == (0.0, 1, 0)


def test_stats_matches_manual_recount():
    train, test = build_fewshot(_grouped_corpus(), {"alpha": 2}, seed=0)
    s = stats(train, test)
    both = list(train) + list(test)
    intents = {a.intent for e in both for a in e.acts.acts}
    slots = {p.name for e in both for p in e.acts.all_pairs()}
    assert s == DatasetStats(
        n_intents=len(intents),
        n_slots=len(slots),
        n_train_das=2,
        n_test_das=1,
        overlap_pct=0.0,
        avg_das_per_instance=1.0,
        n_train=2,
        n_test=1,
    )


def test_render_stats_labels():
    s = stats(*build_fewshot(_grouped_corpus(), {"alpha": 2}, seed=0))
    text = render_stats(s, title="alpha")
    for label in [
        "# Intent",
        "# Slot",
        "# DAs in training",
        "# DAs in testing",
        "Overlap Percentage",
        "Avg. #DAs per Instance",
        "# Training Instances",
        "# Testing Instances",
    ]:
        assert label in text


def test_readme_corpus_example_ingests(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Corpus format (`jsonl_v1`)", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "readme.jsonl"
    p.write_text(json.dumps(json.loads(block)) + "\n")
    (ex,) = ingest(p)
    assert ex.domain == "restaurant"
    assert ex.response == "curry garden serves indian food ."
    # an ingested act equals the same act parsed from its linearized form
    assert ex.acts == parse_linearized("inform ( name = curry garden ; food = indian )")
