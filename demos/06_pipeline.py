"""Thread the full pipeline at toy scale: pretrain, finetune, decode.

A small model pretrains as the paper does: first as a plain language
model on the text sample bundled with the package, then, continued from
that base, on DA-prefixed responses from synthetic domains.  It is then
finetuned on a handful of examples from a domain it never saw,
and finally realizes unseen dialog acts from that domain with slot-error
reranking over sampled candidates.  Expect rough output at this scale;
the point is the shape of the workflow, not the quality.

Run with:  python3 demos/06_pipeline.py   (under a minute)
"""

import time
from importlib import resources

from scgpt.bpe import train_bpe
from scgpt.dataset import Corpus, build_fewshot
from scgpt.decoding import DecodeConfig, generate_candidates, generate_corpus, pick_best
from scgpt.dialog_act import linearize
from scgpt.metrics import corpus_bleu
from scgpt.model import ModelConfig, init_params
from scgpt.synthetic import builtin_grammar, builtin_grammars, generate, inject_coined_values
from scgpt.training import TrainConfig, run_stage

PRETRAIN_DOMAINS = ("restaurant", "hotel", "shuttle")


def main() -> None:
    t0 = time.time()
    pre = inject_coined_values(
        generate(builtin_grammars(PRETRAIN_DOMAINS), 150, seed=1), 0.4, seed=2)
    texts = [linearize(ex.acts) for ex in pre] + [ex.response for ex in pre]
    vocab = train_bpe(texts, target_vocab_size=448)
    print(f"pretraining corpus: {len(pre.examples)} examples over {PRETRAIN_DOMAINS}")

    mc = ModelConfig(vocab_size=vocab.size, n_layers=2, n_heads=4, d_model=64,
                     d_ff=256, max_context=192, dropout=0.0)
    sample = resources.files("scgpt") / "data" / "plain_sample.txt"
    lines = sample.read_text(encoding="utf-8").splitlines()
    plain_cfg = TrainConfig(stage="plain", start_lr=2e-3, batch_size=16,
                            max_epochs=10, early_stop_patience=999,
                            seed=0, val_fraction=0.05)
    params, log = run_stage(plain_cfg, lines, init_params(mc, seed=0), vocab)
    print(f"plain pretraining on {len(lines)} lines of bundled text: {len(log)} epochs, "
          f"val loss {log[-1]['val_loss']:.3f} ({time.time() - t0:.0f}s)")

    pre_cfg = TrainConfig(stage="da_pretrain", start_lr=2e-3, batch_size=16,
                          max_epochs=10, early_stop_patience=999,
                          seed=0, val_fraction=0.05)
    params, log = run_stage(pre_cfg, pre, params, vocab)
    print(f"act-conditioned pretraining, continued from the plain base: {len(log)} "
          f"epochs, val loss {log[-1]['val_loss']:.3f} ({time.time() - t0:.0f}s)")

    museum = generate([builtin_grammar("museum")], n_per_domain=1200, seed=3)
    few, rest = build_fewshot(museum, {"museum": 8}, seed=0)
    held = Corpus(rest.examples[:8])
    print(f"\nfinetuning on {len(few.examples)} museum examples; "
          f"{len(rest.examples)} unseen DAs remain for testing")

    ft_cfg = TrainConfig(stage="finetune", start_lr=1e-3, batch_size=8,
                         max_epochs=30, early_stop_patience=999,
                         seed=0, val_fraction=0.0)
    params, flog = run_stage(ft_cfg, few, params, vocab)
    print(f"finetuned {len(flog)} epochs, train loss {flog[-1]['train_loss']:.3f}")

    print("\ncandidates for one unseen act, the reranked winner marked:")
    dc = DecodeConfig(n_candidates=5, max_new_tokens=40, seed=0)
    showcase = next(
        ex for ex in held if any(p.value not in "?" for p in ex.acts.all_pairs())
    )
    acts = showcase.acts
    cands = generate_candidates(params, vocab, [acts], dc)[0]
    best = pick_best(cands)  # lowest ERR, ties to the higher mean log-prob
    print(f"  DA: {linearize(acts)}")
    for i, c in enumerate(cands):
        mark = "*" if i == best else " "
        print(f"  {mark} ERR {c.err:.2f}  {c.text}")

    winners = generate_corpus(params, vocab, [ex.acts for ex in held], dc)
    bleu = corpus_bleu([w.text for w in winners], [[ex.response] for ex in held])
    mean_err = sum(w.err for w in winners) / len(winners)
    print(f"\nheld-out museum sample: mean ERR {mean_err:.3f}, BLEU {bleu:.3f} "
          f"({time.time() - t0:.0f}s total)")


if __name__ == "__main__":
    main()
