import textwrap

import pytest

from scgpt.dataset import Corpus, Example, write_jsonl
from scgpt.dialog_act import act_set, canonicalize, linearize, match_count, parse_linearized
from scgpt.errors import GrammarValidationError, ParseError
from scgpt.metrics import slot_error
from scgpt.synthetic import (
    HELDOUT_GRAMMARS,
    PRETRAIN_GRAMMARS,
    builtin_grammar,
    builtin_grammars,
    generate,
    inject_coined_values,
    parse_grammar,
    render,
)

from copy_task import copy_task_grammars


def _grammar(body: str):
    return parse_grammar(textwrap.dedent(body), source="<test>")


DEMO = """
    domain demo
    slot a : red | blue
    slot b : left side | right side
    template show ( a , b* ) : the [a] lamp { on the [b] } glows .
    template ask ( a=? ) : which color ?
"""


def test_parse_demo_grammar():
    g = _grammar(DEMO)
    assert g.domain == "demo"
    assert {t.intent for t in g.templates} == {"ask", "show"}
    assert g.lexicon("b") == ("left side", "right side")
    show = g.templates[0]
    assert show.required == ("a",)
    assert show.optional == ("b",)
    assert g.templates[1].fixed == (("a", "?"),)


def test_render_includes_and_drops_groups():
    g = _grammar(DEMO)
    show = g.templates[0]
    full = render(g, show, {"a": "red", "b": "left side"})
    assert full.response == "the red lamp on the left side glows ."
    assert linearize(full.acts) == "show ( a = red ; b = left side )"
    bare = render(g, show, {"a": "blue"})
    assert bare.response == "the blue lamp glows ."
    assert linearize(bare.acts) == "show ( a = blue )"
    for ex in (full, bare):
        assert slot_error(ex.acts, ex.response).err == 0.0


def test_generate_two_domains():
    g1 = _grammar(DEMO)
    g2 = _grammar(DEMO.replace("demo", "demo2").replace("show", "tell"))
    corpus = generate([g1, g2], n_per_domain=100, seed=4)
    assert len(corpus) == 200
    assert corpus.domains() == ("demo", "demo2")
    for ex in corpus:
        assert slot_error(ex.acts, ex.response).err == 0.0


def test_generate_deterministic_bytes(tmp_path):
    g = _grammar(DEMO)
    a = generate([g], 50, seed=9)
    b = generate([g], 50, seed=9)
    write_jsonl(a, tmp_path / "a.jsonl")
    write_jsonl(b, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert a == b
    assert a != generate([g], 50, seed=10)


def test_per_domain_streams_independent():
    g1 = _grammar(DEMO)
    g2 = _grammar(DEMO.replace("demo", "demo2"))
    alone = generate([g1], 30, seed=7)
    paired = generate([g2, g1], 30, seed=7)
    assert [ex.response for ex in alone] == [
        ex.response for ex in paired if ex.domain == "demo"
    ]


def test_generate_rejects_bad_args():
    g = _grammar(DEMO)
    with pytest.raises(ValueError):
        generate([g], 0, seed=1)
    with pytest.raises(GrammarValidationError):
        generate([g, g], 5, seed=1)


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("template show ( a , c* ) : the [a] { and [c] } .", "undeclared slot"),
        ("template show ( a ) : the [a] and [b] .", "names no lexical slot"),
        ("template show ( a ) : the lamp .", "has no"),
        ("template show ( a ) : the [a] twice [a] .", "more than once"),
        ("template show ( a , b* ) : the [a] [b] { x } .", "must sit inside"),
        ("template show ( a , b* ) : the { [a] } { on [b] } .", "may not sit in"),
        ("template show ( a , b* ) : the [a] { { [b] } } .", "nested"),
        ("template show ( a , b* ) : the [a] { on [b] .", "unclosed"),
        ("template show ( a ) : the [a] } .", "unmatched }"),
        ("template show ( a , b* ) : the [a] { x } { [b] } .", "exactly one"),
        ("slot c : up | down\ntemplate show ( a , b* , c* ) : the [a] { [b] [c] } .",
         "exactly one"),
        ("template show ( a ) : the [a]. done .", "mixes brackets"),
        ("template show ( a=red ) : fixed .", "is lexical"),
        ("template show ( a , a ) : [a] [a] .", "duplicate slot"),
        ("template show a : no parens .", "not 'intent"),
    ],
)
def test_template_validation_errors(line, fragment):
    base = "domain demo\nslot a : red | blue\nslot b : left side | right side\n"
    with pytest.raises(GrammarValidationError, match=fragment):
        parse_grammar(base + line, source="<test>")


def test_structural_errors():
    with pytest.raises(ParseError, match="unknown directive"):
        _grammar("domain demo\nbogus line here")
    with pytest.raises(GrammarValidationError, match="missing domain"):
        _grammar("slot a : red\ntemplate t ( a ) : [a] .")
    with pytest.raises(GrammarValidationError, match="no templates"):
        _grammar("domain demo\nslot a : red | blue")
    with pytest.raises(GrammarValidationError, match="second domain"):
        _grammar("domain demo\ndomain demo2\ntemplate t ( ) : hi .")
    with pytest.raises(GrammarValidationError, match="declared twice"):
        _grammar("domain demo\nslot a : red\nslot a : blue\ntemplate t ( ) : hi .")
    with pytest.raises(GrammarValidationError, match="reserved"):
        _grammar("domain demo\nslot a : red (bright)\ntemplate t ( a ) : [a] .")
    with pytest.raises(GrammarValidationError, match="non-lexical marker"):
        _grammar("domain demo\nslot a : red | yes\ntemplate t ( a ) : [a] .")


def test_value_collision_rejected():
    # a slot value occurring literally in the template body inflates its count
    with pytest.raises(GrammarValidationError, match="also occurs literally"):
        _grammar(
            """
            domain demo
            slot a : lamp | torch
            template show ( a ) : the [a] lamp glows .
            """
        )
    # one slot's value nested inside another's breaks the count the same way
    with pytest.raises(GrammarValidationError, match="matches inside"):
        _grammar(
            """
            domain demo
            slot a : north | south
            slot b : north road | mill lane
            template show ( a , b ) : go to [b] in the [a] .
            """
        )


def test_builtin_grammars_load_and_validate():
    for name in PRETRAIN_GRAMMARS + HELDOUT_GRAMMARS:
        g = builtin_grammar(name)
        assert g.domain == name
    with pytest.raises(GrammarValidationError, match="no builtin grammar"):
        builtin_grammar("nonexistent")


def test_heldout_intents_disjoint_from_pretraining():
    pre = {t.intent for g in builtin_grammars(PRETRAIN_GRAMMARS) for t in g.templates}
    held = {t.intent for g in builtin_grammars(HELDOUT_GRAMMARS) for t in g.templates}
    assert held and not pre & held


def test_heldout_keys_disjoint_from_pretraining():
    pre = generate(builtin_grammars(PRETRAIN_GRAMMARS), 80, seed=0)
    held = generate(builtin_grammars(HELDOUT_GRAMMARS), 80, seed=0)
    pre_keys = {canonicalize(ex.acts) for ex in pre}
    held_keys = {canonicalize(ex.acts) for ex in held}
    assert not pre_keys.intersection(held_keys)


def _sweep_template(g, t):
    """Render boundary value assignments for one template."""
    lex_slots = t.required + t.optional
    widest = max((len(g.lexicon(s)) for s in lex_slots), default=1)
    for i in range(widest):
        for slots in (t.required, lex_slots):
            values = {s: g.lexicon(s)[min(i, len(g.lexicon(s)) - 1)] for s in slots}
            yield render(g, t, values)


def test_every_builtin_rendering_has_zero_slot_error():
    for name in PRETRAIN_GRAMMARS + HELDOUT_GRAMMARS:
        g = builtin_grammar(name)
        swept = [ex for t in g.templates for ex in _sweep_template(g, t)]
        sampled = list(generate([g], 400, seed=13))
        for ex in swept + sampled:
            report = slot_error(ex.acts, ex.response)
            assert report.err == 0.0, (name, ex.response, report)


def test_builtin_key_richness():
    # the few-shot protocol needs more distinct DA keys than examples kept:
    # 51+ for the default k=50, 41+ for the taxi override, and 108+ on the
    # transfer domain to carve out 8 training and 100 test acts
    corpus = generate(builtin_grammars(("restaurant", "taxi")), 4000, seed=1)
    keys = {}
    for ex in corpus:
        keys.setdefault(ex.domain, set()).add(canonicalize(ex.acts))
    assert len(keys["restaurant"]) >= 51
    assert len(keys["taxi"]) >= 108


def test_copy_task_grammars_validate_and_render_clean():
    grammars = copy_task_grammars(n_values=40, seed=7)
    assert [g.domain for g in grammars] == ["copydesk", "copywire", "copyyard"]
    for g in grammars:
        slots = [s for s, _ in g.lexicons]
        assert all(len(g.lexicon(s)) == 40 for s in slots)
        # the three lexicons never share a value, keeping matches unambiguous
        pools = [set(g.lexicon(s)) for s in slots]
        assert not (pools[0] & pools[1] or pools[0] & pools[2] or pools[1] & pools[2])
    for ex in generate(grammars, 150, seed=3):
        assert slot_error(ex.acts, ex.response).err == 0.0


def test_copy_task_grammars_deterministic_and_distinct_from_builtins():
    assert copy_task_grammars(seed=7) == copy_task_grammars(seed=7)
    builtin_intents = {
        t.intent
        for name in PRETRAIN_GRAMMARS + HELDOUT_GRAMMARS
        for t in builtin_grammar(name).templates
    }
    copy_intents = {t.intent for g in copy_task_grammars() for t in g.templates}
    assert not builtin_intents & copy_intents


def test_inject_coined_values_keeps_zero_slot_error():
    source = generate(builtin_grammars(PRETRAIN_GRAMMARS), 120, seed=11)
    injected = inject_coined_values(source, 0.5, seed=4)
    assert len(injected.examples) == len(source.examples)
    swapped = [
        (a, b) for a, b in zip(source, injected) if a.response != b.response
    ]
    assert swapped, "a fraction of 0.5 must rewrite some values"
    for ex in injected:
        assert slot_error(ex.acts, ex.response).err == 0.0
    # rewritten pairs get two-word coined values; everything else is intact
    for before, after in swapped:
        assert before.domain == after.domain
        changed = [
            (p, q)
            for p, q in zip(before.acts.all_pairs(), after.acts.all_pairs())
            if p.value != q.value
        ]
        assert changed
        for p, q in changed:
            assert p.name == q.name
            assert len(q.value.split()) == 2


def _heldout_values():
    return {v for g in builtin_grammars(HELDOUT_GRAMMARS) for _, vs in g.lexicons for v in vs}


def test_copy_task_values_are_varied_and_never_heldout():
    grammars = copy_task_grammars(n_values=60, seed=3)
    values = [v for g in grammars for _, vs in g.lexicons for v in vs]
    assert not any(match_count(h, v) for h in _heldout_values() for v in values)
    # more than one surface shape: some values carry digits, some do not
    assert any(c.isdigit() for v in values for c in v)
    assert any(not any(c.isdigit() for c in v) for v in values)
    assert {len(v.split()) for v in values} >= {1, 2, 3}


def test_inject_varied_values_keep_zero_slot_error():
    source = generate(builtin_grammars(PRETRAIN_GRAMMARS), 60, seed=11)
    injected = inject_coined_values(source, 0.8, seed=5)
    assert injected == inject_coined_values(source, 0.8, seed=5)
    heldout = _heldout_values()
    new_values = []
    for before, after in zip(source, injected):
        assert slot_error(after.acts, after.response).err == 0.0
        for p, q in zip(before.acts.all_pairs(), after.acts.all_pairs()):
            if p.value != q.value:
                new_values.append(q.value)
                assert len(q.value.split()) == 2
                assert not any(match_count(h, q.value) for h in heldout)
    # more than one surface shape: some new values carry digits, some do not
    assert any(c.isdigit() for v in new_values for c in v)
    assert any(not any(c.isdigit() for c in v) for v in new_values)


def test_inject_never_coins_a_value_containing_another():
    # "minutes" is a unit of the quantity shape, so unchecked draws for the
    # name would often contain it ("12 minutes") and break the slot counts
    acts = act_set("inform", [("name", "bridge house"), ("wait", "minutes")])
    source = Corpus((Example(acts, "bridge house is a few minutes away", "hotel"),) * 400)
    for ex in inject_coined_values(source, 1.0, seed=0):
        assert slot_error(ex.acts, ex.response).err == 0.0
        name, wait = (p.value for p in ex.acts.all_pairs())
        assert not match_count(wait, name) and not match_count(name, wait)


def test_inject_coined_values_rebuilds_only_what_it_swaps():
    # every lexical value is drawn; "thai" is not in the response, so it
    # cannot be swapped, and the request act has no lexical value at all
    acts = parse_linearized(
        "inform ( name = bridge house ; area = ? ) request ( area = ? ) inform ( food = thai )")
    source = Corpus((Example(acts, "bridge house is in the centre", "hotel"),
                     Example(acts, "which area do you prefer", "hotel")))
    touched, untouched = inject_coined_values(source, 1.0, seed=0)
    assert untouched is source.examples[1]
    assert touched.acts.acts[0] is not acts.acts[0]
    assert touched.acts.acts[0].pairs[0] != acts.acts[0].pairs[0]
    assert touched.acts.acts[0].pairs[1] is acts.acts[0].pairs[1]
    assert touched.acts.acts[1] is acts.acts[1]
    assert touched.acts.acts[2] is acts.acts[2]


def test_inject_coined_values_fraction_edges_and_determinism():
    source = generate(builtin_grammars(("restaurant",)), 60, seed=2)
    assert inject_coined_values(source, 0.0, seed=9).examples == source.examples
    again = inject_coined_values(source, 0.7, seed=9)
    assert inject_coined_values(source, 0.7, seed=9) == again
    with pytest.raises(ValueError):
        inject_coined_values(source, 1.5, seed=0)
