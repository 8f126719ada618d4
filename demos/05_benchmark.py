"""Build a few-shot benchmark from synthetic corpora and print its stats.

Each domain contributes a small training split (one example per distinct
canonical dialog act) and a test split whose canonical acts never occur
in training, so test-time acts are guaranteed novel combinations.

Run with:  python3 demos/05_benchmark.py
"""

from scgpt.dataset import Corpus, build_fewshot, render_stats, stats
from scgpt.dialog_act import canonicalize
from scgpt.synthetic import builtin_grammar, generate


def main() -> None:
    corpus = generate([builtin_grammar("restaurant"), builtin_grammar("taxi")],
                      n_per_domain=1500, seed=5)
    print(f"source corpus: {len(corpus.examples)} examples, domains "
          f"{sorted({ex.domain for ex in corpus})}")

    train, test = build_fewshot(corpus, {"restaurant": 50, "taxi": 40}, seed=9)
    print(f"train {len(train.examples)} examples / test {len(test.examples)} examples\n")

    for domain in ("restaurant", "taxi"):
        pick = lambda c: Corpus(tuple(ex for ex in c if ex.domain == domain))
        print(render_stats(stats(pick(train), pick(test)), title=domain))
        print()

    train_keys = {canonicalize(ex.acts) for ex in train}
    test_keys = {canonicalize(ex.acts) for ex in test}
    print(f"shared canonical DAs across splits: {len(train_keys & test_keys)}")


if __name__ == "__main__":
    main()
