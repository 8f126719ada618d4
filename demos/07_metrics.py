"""Tour the evaluation metrics: slot error rate, BLEU, entity F1.

Run with:  python3 demos/07_metrics.py
"""

from scgpt.dataset import Corpus, Example
from scgpt.dialog_act import act_set
from scgpt.metrics import (
    corpus_bleu,
    entity_f1,
    make_entity_extractor,
    seen_unseen_split,
    slot_error,
)


def main() -> None:
    print("== slot error rate ==")
    acts = act_set("inform", [("name", "curry garden"), ("food", "indian"),
                              ("area", "?")])
    cases = [
        "curry garden serves indian food",
        "curry garden serves food",
        "curry garden serves indian food , indian indeed",
        "nothing matches here",
    ]
    for text in cases:
        r = slot_error(acts, text)
        print(f"  err {r.err:.3f} (missing {r.p}, extra {r.q} of {r.M}) <- {text!r}")
    print("  (the '?' slot is non-lexical: it never counts toward the rate)")

    print("\n== corpus BLEU ==")
    refs = [["the cat sat on the mat"], ["a dog barks"]]
    for cand in (["the cat sat on the mat", "a dog barks"],
                 ["the cat sat", "a dog barks"],
                 ["cat the sat mat on the", "barks dog a"]):
        print(f"  {corpus_bleu(cand, refs):.4f} <- {cand}")

    print("\n== entity F1 ==")
    train = Corpus((Example(acts, cases[0], "toy"),))
    extract = make_entity_extractor(train)
    cand = ["curry garden has indian dishes for 7 pounds"]
    gold = ["curry garden serves indian food"]
    print(f"  extracted from candidate: {sorted(extract(cand[0]))}")
    print(f"  extracted from reference: {sorted(extract(gold[0]))}")
    print(f"  micro F1: {entity_f1(cand, gold, extract):.4f}")

    print("\n== seen / unseen split ==")
    test = Corpus((
        Example(acts, cases[0], "toy"),
        Example(act_set("inform", [("name", "curry garden")]), "curry garden", "toy"),
    ))
    seen, unseen = seen_unseen_split(train, test)
    print(f"  test acts {seen} share a canonical DA with training, "
          f"{unseen} are novel")


if __name__ == "__main__":
    main()
