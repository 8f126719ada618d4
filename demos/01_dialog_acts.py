"""Walk through the dialog-act layer: parse, linearize, canonicalize, edit.

Run with:  python3 demos/01_dialog_acts.py
"""

from scgpt.dialog_act import (
    DeleteSlot,
    InsertSlot,
    SubstituteValue,
    act_set,
    canonicalize,
    edit_act,
    linearize,
    match_count,
    parse_linearized,
)


def main() -> None:
    print("== building an act set ==")
    acts = act_set("inform", [("name", "curry garden"), ("food", "indian"), ("area", "centre")])
    line = linearize(acts)
    print("linearized  :", line)

    print("\n== round trip through the parser ==")
    parsed = parse_linearized(line)
    print("parse == src:", parsed == acts)

    print("\n== canonical key (order-insensitive identity) ==")
    shuffled = act_set("inform", [("area", "centre"), ("name", "curry garden"), ("food", "indian")])
    print("key         :", canonicalize(acts))
    print("same key    :", canonicalize(acts) == canonicalize(shuffled))

    print("\n== value matching in surface text ==")
    text = "curry garden serves indian food in the centre of town"
    for slot in acts.all_pairs():
        print(f"  {slot.name:5s} -> {match_count(slot.value, text)} occurrence(s)")

    print("\n== structured edits ==")
    for op in (
        InsertSlot("pricerange", "cheap"),
        DeleteSlot("area"),
        SubstituteValue("food", "thai"),
    ):
        print(f"  {type(op).__name__:15s} ->", linearize(edit_act(acts, op)))


if __name__ == "__main__":
    main()
