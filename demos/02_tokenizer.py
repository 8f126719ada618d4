"""Train a small byte-pair vocabulary and inspect merges and round trips.

Run with:  python3 demos/02_tokenizer.py
"""

from scgpt.bpe import SPECIAL_NAMES, decode, encode, train_bpe
from scgpt.dialog_act import linearize
from scgpt.synthetic import PRETRAIN_GRAMMARS, builtin_grammars, generate


def show(vocab, ids) -> list:
    return [vocab.id_to_token[i].decode("utf-8", errors="replace") for i in ids]


def main() -> None:
    corpus = generate(builtin_grammars(PRETRAIN_GRAMMARS), 40, seed=0)
    texts = [linearize(ex.acts) for ex in corpus] + [ex.response for ex in corpus]
    vocab = train_bpe(texts, target_vocab_size=400)
    n_merges = len(vocab.merges)
    print(f"trained on {len(texts)} strings -> vocab of {vocab.size} ids "
          f"(256 bytes + {n_merges} merges + {len(SPECIAL_NAMES)} specials, "
          f"{', '.join(SPECIAL_NAMES)} from id {vocab.bos_id})")

    print("\nlast merges learned (most corpus-specific):")
    for tok in vocab.id_to_token[-8:]:
        print(f"  {tok.decode('utf-8', errors='replace')!r}")

    sample = corpus.examples[0]
    line = linearize(sample.acts) + " " + sample.response
    ids = encode(vocab, line)
    print(f"\nsample     : {line}")
    print(f"token count: {len(ids)} (vs {len(line.encode())} bytes)")
    print("tokens     :", show(vocab, ids[:12]), "...")
    print("round trip :", decode(vocab, ids) == line)

    novel = "the quokka bistro serves moussaka"
    ids = encode(vocab, novel)
    print(f"\nunseen text: {novel}")
    print("tokens     :", show(vocab, ids))
    print("round trip :", decode(vocab, ids) == novel)


if __name__ == "__main__":
    main()
