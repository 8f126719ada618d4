import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scgpt.dialog_act import (
    DeleteSlot,
    DialogAct,
    DialogActSet,
    InsertSlot,
    SlotValuePair,
    SubstituteValue,
    act_set,
    canonicalize,
    edit_act,
    is_lexical_value,
    linearize,
    match_count,
    parse_linearized,
)
from scgpt.dialog_act import _check_name
from scgpt.errors import AmbiguousSlotError, MalformedInputError, UnknownSlotError


def test_linearize_two_pairs():
    acts = act_set("confirm", [("name", "Hilton"), ("area", "center")])
    assert linearize(acts) == "confirm ( name = Hilton ; area = center )"


def test_linearize_zero_pairs():
    assert linearize(act_set("bye")) == "bye ( )"


def test_linearize_multi_act_and_multiword_value():
    acts = DialogActSet(
        (
            DialogAct("inform", (("time", "50 minutes"),)),
            DialogAct("request", (("stars", "?"),)),
        )
    )
    assert linearize(acts) == "inform ( time = 50 minutes ) request ( stars = ? )"


def test_parse_round_trips_examples():
    for s in [
        "confirm ( name = Hilton ; area = center )",
        "bye ( )",
        "inform ( time = 50 minutes ) request ( stars = ? )",
    ]:
        assert linearize(parse_linearized(s)) == s


def test_parse_missing_equals_reports_token_index():
    with pytest.raises(MalformedInputError) as exc:
        parse_linearized("inform ( name Hilton )")
    assert "at token 3," in str(exc.value)


@pytest.mark.parametrize("bad, index", [
    ("inform ( Name = x )", 2),  # slot names are lowercase
    ("inform ( name = a;b )", 4),  # values hold no ';' or ')'
    ("inform ( name = x) )", 4),
])
def test_parse_applies_the_act_types_rules(bad, index):
    with pytest.raises(MalformedInputError) as exc:
        parse_linearized(bad)
    assert f"at token {index}" in str(exc.value)


def test_parse_rejects_garbage():
    for bad in ["", "inform", "inform (", "inform ( name = )", "( )", "inform ( name = v ;"]:
        with pytest.raises(MalformedInputError):
            parse_linearized(bad)


def test_parse_rejects_text_that_is_not_unicode():
    # a raw 0xff byte in argv or on a surrogateescape stdin
    with pytest.raises(MalformedInputError, match="not valid Unicode at character 16"):
        parse_linearized("inform ( name = \udcff )")
    with pytest.raises(MalformedInputError, match="not valid Unicode at character 0"):
        parse_linearized("\udcffinform ( )")


def test_check_name_refuses_whitespace_as_str_isspace_does():
    refused = set()
    for code in range(sys.maxunicode + 1):
        try:
            _check_name("intent", chr(code))
        except ValueError as e:
            if "whitespace" in str(e):
                refused.add(code)
    assert refused == {code for code in range(sys.maxunicode + 1) if chr(code).isspace()}
    for name in (" inform", "inform ", "in form", "in\u00a0form", "inform\u2028", "\u3000x"):
        with pytest.raises(ValueError, match="contains whitespace"):
            _check_name("intent", name)


def test_validation_rejects_bad_identifiers():
    with pytest.raises(ValueError):
        SlotValuePair("Name", "x")  # uppercase slot
    with pytest.raises(ValueError):
        SlotValuePair("na me", "x")
    with pytest.raises(ValueError):
        SlotValuePair("name", "a;b")
    with pytest.raises(ValueError):
        SlotValuePair("name", " padded ")
    with pytest.raises(ValueError):
        DialogAct("in form")
    with pytest.raises(ValueError):
        DialogAct("inform(")
    with pytest.raises(ValueError):
        DialogActSet(())


def test_canonical_form():
    acts = act_set("confirm", [("name", "Hilton"), ("area", "center")])
    assert canonicalize(acts) == "confirm(area,name)"

    acts2 = DialogActSet(
        (
            DialogAct("request", (("stars", "?"),)),
            DialogAct("inform", (("time", "50 minutes"),)),
        )
    )
    assert canonicalize(acts2) == "inform(time)|request(stars)"


def test_canonical_ignores_values_and_order():
    a = act_set("confirm", [("name", "Hilton"), ("area", "center")])
    b = act_set("confirm", [("area", "north"), ("name", "Marriott")])
    assert canonicalize(a) == canonicalize(b)


def test_match_count_case_and_boundary():
    assert match_count("center", "Center of the center, centered") == 2
    assert match_count("5", "rated 5 , not 55") == 1
    # a value glued to a bracket, as in a [slot] placeholder, does not count
    assert match_count("area", "[area] [area area] area") == 1


def test_is_lexical_value():
    assert is_lexical_value("Hilton")
    for v in ["?", "yes", "No", "dontcare", "TRUE", "false", "none"]:
        assert not is_lexical_value(v)


def test_edit_insert_appends_to_first_act():
    acts = act_set("inform", [("name", "ix")])
    out = edit_act(acts, InsertSlot("area", "west"))
    assert linearize(out) == "inform ( name = ix ; area = west )"
    # original untouched
    assert linearize(acts) == "inform ( name = ix )"


def test_edit_delete_and_substitute():
    acts = act_set("inform", [("name", "ix"), ("area", "west")])
    assert linearize(edit_act(acts, DeleteSlot("area"))) == "inform ( name = ix )"
    out = edit_act(acts, SubstituteValue("area", "east"))
    assert linearize(out) == "inform ( name = ix ; area = east )"


def test_edit_unknown_and_ambiguous():
    acts = act_set("inform", [("name", "ix")])
    with pytest.raises(UnknownSlotError):
        edit_act(acts, DeleteSlot("area"))
    two = DialogActSet(
        (DialogAct("inform", (("name", "a"),)), DialogAct("confirm", (("name", "b"),)))
    )
    with pytest.raises(AmbiguousSlotError):
        edit_act(two, SubstituteValue("name", "c"))


_names = st.from_regex(r"[a-z][a-z_]{0,8}", fullmatch=True)
_value_word = st.from_regex(r"[A-Za-z0-9]{1,8}", fullmatch=True)
_values = st.lists(_value_word, min_size=1, max_size=3).map(" ".join)
_pairs = st.lists(
    st.tuples(_names, _values).map(lambda t: SlotValuePair(*t)),
    max_size=4,
)
_acts = st.builds(DialogAct, intent=_names, pairs=_pairs.map(tuple))
_act_sets = st.lists(_acts, min_size=1, max_size=3).map(lambda a: DialogActSet(tuple(a)))


@given(_act_sets)
def test_property_linearize_parse_round_trip(acts):
    assert parse_linearized(linearize(acts)) == acts


@given(_act_sets)
def test_property_canonical_stable_under_pair_shuffle(acts):
    flipped = DialogActSet(
        tuple(
            DialogAct(a.intent, tuple(reversed(a.pairs))) for a in acts.acts
        )
    )
    assert canonicalize(flipped) == canonicalize(acts)


@given(_act_sets)
def test_property_insert_then_delete_is_identity(acts):
    slot = "zzslot"
    if any(slot in a.slot_names() for a in acts.acts):
        return
    edited = edit_act(acts, InsertSlot(slot, "v1"))
    assert edit_act(edited, DeleteSlot(slot)) == acts
