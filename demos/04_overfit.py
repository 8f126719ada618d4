"""Memorize eight (dialog act, response) pairs as a training sanity check.

A small model trained on a handful of pairs should drive the loss near
zero and reproduce every response exactly under greedy decoding; if it
cannot, something upstream (loss, masking, optimizer, decoding) is wrong.

Run with:  python3 demos/04_overfit.py
"""

from scgpt.bpe import train_bpe
from scgpt.dataset import Corpus, Example
from scgpt.decoding import DecodeConfig, generate_reranked
from scgpt.dialog_act import act_set, linearize
from scgpt.model import ModelConfig, init_params
from scgpt.training import TrainConfig, run_stage

PAIRS = [
    (act_set("inform", [("name", "ix"), ("area", "north")]),
     "ix sits in the north end ."),
    (act_set("inform", [("name", "rex"), ("food", "tapas")]),
     "rex serves tapas all day ."),
    (act_set("recommend", [("name", "aria")]),
     "you could try aria ."),
    (act_set("recommend", [("name", "bloom"), ("area", "south")]),
     "bloom down south is lovely ."),
    (act_set("request", [("area", "?")]),
     "which part of town ?"),
    (act_set("confirm", [("name", "quill")]),
     "so that is quill , correct ?"),
    (act_set("inform", [("name", "vega"), ("pricerange", "cheap")]),
     "vega will not stretch your wallet ."),
    (act_set("goodbye", []),
     "enjoy your meal , goodbye !"),
]


def main() -> None:
    corpus = Corpus(tuple(Example(a, r, "toy") for a, r in PAIRS))
    vocab = train_bpe([linearize(a) for a, _ in PAIRS] + [r for _, r in PAIRS],
                      target_vocab_size=320)
    mc = ModelConfig(vocab_size=vocab.size, n_layers=2, n_heads=2, d_model=32,
                     d_ff=64, max_context=96, dropout=0.0)
    tc = TrainConfig(stage="finetune", start_lr=1e-2, batch_size=8,
                     max_epochs=300, early_stop_patience=10**6,
                     seed=0, val_fraction=0.0)
    params, log = run_stage(tc, corpus, init_params(mc, seed=0), vocab)
    print(f"final training loss after {len(log)} epochs: {log[-1]['train_loss']:.4f}\n")

    dc = DecodeConfig(n_candidates=1, max_new_tokens=32, seed=0)
    hits = 0
    for acts, ref in PAIRS:
        out = generate_reranked(params, vocab, acts, dc).text
        mark = "=" if out == ref else "!"
        hits += out == ref
        print(f" {mark} {linearize(acts)}")
        print(f"   -> {out}")
    print(f"\nreproduced {hits}/{len(PAIRS)} responses exactly")


if __name__ == "__main__":
    main()
