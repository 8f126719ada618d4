"""Copy-task grammars: test fixture domains whose slot values are fresh.

The transfer fixture in ``test_acceptance.py`` pretrains on these domains
beside the builtin ones, and ``test_synthetic.py`` checks them.
"""

import numpy as np

from scgpt.dialog_act import match_count
from scgpt.synthetic import _varied_value, parse_grammar

# intent names, slot names, and template bodies for the coined-value domains
_COPY_SHAPES = (
    ("copydesk", ("record", "lookup", "purge"), ("ref", "tag", "owner"),
     ("entry [ref] { marked [tag] } { held by [owner] } is stored now .",
      "fetching [ref] { for [owner] } right away .",
      "dropped [ref] { and its [tag] note } from the ledger .")),
    ("copywire", ("relay", "trace", "flag"), ("code", "label", "batch"),
     ("signal [code] { labeled [label] } { in batch [batch] } went out .",
      "tracing [code] { across [batch] } as requested .",
      "raised a flag on [code] { over [label] } this morning .")),
    ("copyyard", ("stash", "fetch", "audit"), ("item", "mark", "crate"),
     ("placed [item] { with mark [mark] } { into crate [crate] } today .",
      "bringing [item] { out of [crate] } shortly .",
      "checked [item] { against [mark] } and all was fine .")),
)


def _varied_values(rng, n: int, avoid: str) -> list:
    """n distinct varied values, none occurring in ``avoid`` or in another."""
    values = []
    text = avoid
    while len(values) < n:
        value = _varied_value(rng)
        if match_count(value, text) or any(match_count(v, value) for v in values):
            continue
        values.append(value)
        text += " | " + value
    return values


def copy_task_grammars(n_values: int = 150, seed: int = 7) -> tuple:
    """Auxiliary domains whose slot values are fresh and unpredictable.

    With lexicons this large and random, a language model cannot predict
    a value from the response context; the only way to reduce loss on
    these domains is to copy the value out of the dialog-act prefix.
    The values come in the surface shapes real slot values take (names,
    phrases of ordinary words, codes, quantities, clock times; see
    :func:`_varied_value`), so that copying is learnt over the token
    inventory of real values and not over one family of coined
    syllables.  No value of a held-out grammar is ever drawn.

    On their own these domains teach copying inside their nine templates
    only: a model pretrained with them copies values there, yet realizes
    almost none of an unseen domain's values, even after few-shot
    fine-tuning.  Fine-tuned on a few examples of an unseen domain, a
    model realizes its values far more often when the ordinary domains
    were pretrained alongside, rewritten by :func:`inject_coined_values`
    so that their own templates' slots are copy exercises too.

    Each of the three domains draws its own ``3 * n_values`` distinct
    values so the usual collision validation still applies.
    """
    rng = np.random.default_rng(seed)
    grammars = []
    for name, intents, slots, bodies in _COPY_SHAPES:
        pool = _varied_values(rng, 3 * n_values, " ".join(bodies))
        lines = [f"domain {name}"]
        for i, slot in enumerate(slots):
            vals = " | ".join(pool[i * n_values:(i + 1) * n_values])
            lines.append(f"slot {slot} : {vals}")
        a, b, c = slots
        heads = (f"{intents[0]} ( {a} , {b}* , {c}* )",
                 f"{intents[1]} ( {a} , {c}* )",
                 f"{intents[2]} ( {a} , {b}* )")
        for head, body in zip(heads, bodies):
            lines.append(f"template {head} : {body}")
        grammars.append(parse_grammar("\n".join(lines), source=name))
    return tuple(grammars)
