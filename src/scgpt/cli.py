"""Command-line stages tying training, generation, and evaluation together.

``main()`` owns every command's run manifest: it starts it, the command
hashes its inputs (``man.add_inputs``) before it writes anything and
returns its output paths, and ``main()`` hashes those and writes the
manifest to --manifest, else ``<out-dir>/manifest.json``, else
``(<out> or scgpt-<command>).manifest.json``.  A command that fails
writes none; ``replay`` stays outside, as its sub-run writes its own.

Thread pinning happens at import, before numpy ever loads: SCGPT_THREADS
(default 1) is copied into the BLAS thread variables, and the default of
one thread is what makes every command bit-reproducible from its manifest.
"""

import os
import sys


def _set_thread_env():
    n = os.environ.get("SCGPT_THREADS", "1")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, n)


_set_thread_env()

import argparse
import functools
import json
import tempfile
import time

from . import __version__
from .bpe import MIN_TARGET_SIZE, load_vocab, save_vocab, train_bpe
from .dataset import (
    Corpus,
    build_fewshot,
    default_k_map,
    ingest,
    read_lines,
    render_stats,
    stats,
    write_jsonl,
)
from .decoding import generate_corpus, generate_reranked
from .dialog_act import linearize, parse_linearized
from .errors import ConfigMismatchError, ScgptError, UsageError
from .manifest import RunManifest, load_manifest, sha256_file
from .metrics import evaluate, render_report
from .model import init_params, load_checkpoint, save_checkpoint
from .runconfig import load_config
from .synthetic import (
    HELDOUT_GRAMMARS,
    PRETRAIN_GRAMMARS,
    builtin_grammars,
    generate,
    load_grammar,
)
from .training import run_stage


def _config_and_vocab(args):
    """The run config --config names, and the tokenizer its ``vocab`` names."""
    if args.config is None:
        raise UsageError(f"{args.command} needs --config")
    rc = load_config(args.config)
    if rc.vocab is None:
        raise UsageError("config does not set 'vocab ='; train one with train-bpe")
    return rc, load_vocab(rc.vocab)


def _read_lines(path):
    return [line.rstrip("\n") for line in read_lines(path)]


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _load_model(path, vocab):
    """A checkpoint, refused unless its vocabulary is the tokenizer's size."""
    params = load_checkpoint(path)
    if params.config.vocab_size != vocab.size:
        raise ConfigMismatchError(
            f"checkpoint vocab_size {params.config.vocab_size} != "
            f"tokenizer size {vocab.size}"
        )
    return params


def _init_or_resume(rc, vocab, args):
    """Fresh parameters, or a checkpoint when --ckpt is given."""
    if getattr(args, "ckpt", None):
        return _load_model(args.ckpt, vocab)
    return init_params(rc.model_config(vocab.size), seed=args.seed)


def _ingest(path, domain=None):
    """A corpus file, kept to one domain's examples when --domain is given."""
    corpus = ingest(path)
    if domain is None:
        return corpus
    return Corpus(tuple(ex for ex in corpus if ex.domain == domain))


def _train_command(args, man, stage, data):
    rc, vocab = _config_and_vocab(args)
    man.add_inputs(args.config, rc.vocab, args.corpus, getattr(args, "ckpt", None))
    params = _init_or_resume(rc, vocab, args)
    tc = rc.train_config(stage, seed=args.seed)
    params, log = run_stage(tc, data, params, vocab)
    save_checkpoint(params, args.out)
    log_path = args.out + ".log"
    _write_lines(log_path, [json.dumps(rec, sort_keys=True) for rec in log])
    print(f"saved {args.out} after {len(log)} epochs "
          f"(val_loss {log[-1]['val_loss']:.4f}, "
          f"skipped {log[-1]['skipped']} over-length)")
    return args.out, log_path


def cmd_pretrain_plain(args, man):
    return _train_command(args, man, "plain", _read_lines(args.corpus))


def cmd_pretrain_da(args, man):
    return _train_command(args, man, "da_pretrain", ingest(args.corpus))


def cmd_finetune(args, man):
    return _train_command(args, man, "finetune", _ingest(args.corpus, args.domain))


def cmd_train_bpe(args, man):
    man.add_inputs(args.corpus)
    if args.corpus.endswith(".jsonl"):
        corpus = ingest(args.corpus)
        texts = []
        for ex in corpus:
            texts.append(linearize(ex.acts))
            texts.append(ex.response)
    else:
        texts = [ln for ln in _read_lines(args.corpus) if ln.strip()]
    start = time.perf_counter()
    vocab = train_bpe(texts, target_vocab_size=args.target_size)
    elapsed = time.perf_counter() - start
    save_vocab(vocab, args.out)
    print(f"saved {args.out} ({vocab.size} tokens, {len(vocab.merges)} merges, "
          f"{elapsed:.2f} s)")
    return (args.out,)


def cmd_synth(args, man):
    if args.grammar:
        man.add_inputs(*args.grammar)
        grammars = [load_grammar(p) for p in args.grammar]
    else:
        names = args.domains.split(",") if args.domains else list(PRETRAIN_GRAMMARS)
        grammars = builtin_grammars(n.strip() for n in names)
    corpus = generate(grammars, n_per_domain=args.n_per_domain, seed=args.seed)
    write_jsonl(corpus, args.out)
    print(f"saved {args.out} ({len(corpus)} examples, "
          f"{len(corpus.domains())} domains)")
    return (args.out,)


def cmd_build_fewshot(args, man):
    man.add_inputs(args.corpus)
    source = ingest(args.corpus)
    if args.k is not None:
        k_map = {d: args.k for d in source.domains()}
    else:
        k_map = default_k_map(source.domains())
    train, test = build_fewshot(source, k_map, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    train_path = os.path.join(args.out_dir, "train.jsonl")
    test_path = os.path.join(args.out_dir, "test.jsonl")
    write_jsonl(train, train_path)
    write_jsonl(test, test_path)
    print(render_stats(stats(train, test), title=os.path.basename(args.corpus)))
    return train_path, test_path


def cmd_stats(args, man):
    man.add_inputs(args.train, args.test)
    train, test = ingest(args.train), ingest(args.test)
    print(render_stats(stats(train, test)))
    return ()


def _interactive_generate(params, vocab, dc):
    """Read one linearized dialog act per line; echo one realization."""
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        try:
            acts = parse_linearized(line)
            cand = generate_reranked(params, vocab, acts, dc)
        except ScgptError as e:
            print(f"error: {e}", file=sys.stderr, flush=True)
            continue
        print(cand.text, flush=True)


def cmd_generate(args, man):
    rc, vocab = _config_and_vocab(args)
    if args.ckpt is None:
        raise UsageError("generate needs --ckpt")
    if args.out is not None and args.da is None and args.corpus is None:
        raise UsageError("generate --out needs --da or --corpus")
    man.add_inputs(args.config, rc.vocab, args.ckpt, args.corpus)
    params = _load_model(args.ckpt, vocab)
    dc = rc.decode_config(seed=args.seed)
    if args.da is not None:
        out_lines = [generate_reranked(params, vocab, parse_linearized(args.da), dc).text]
    elif args.corpus is not None:
        corpus = _ingest(args.corpus, args.domain)
        winners = generate_corpus(params, vocab, [ex.acts for ex in corpus], dc)
        out_lines = [c.text for c in winners]
    else:
        _interactive_generate(params, vocab, dc)
        return ()
    if args.out is None:
        for line in out_lines:
            print(line)
        return ()
    _write_lines(args.out, out_lines)
    print(f"saved {args.out} ({len(out_lines)} lines)")
    return (args.out,)


def cmd_evaluate(args, man):
    man.add_inputs(args.gens, args.test, args.train)
    candidates = _read_lines(args.gens)
    test, train = ingest(args.test), ingest(args.train)
    report = evaluate(train, test, candidates, domain=args.domain or "")
    print(render_report(report))
    return ()


_OUT_FLAGS = ("--out", "--out-dir", "--manifest")


def _redirect_argv(argv, out_dir):
    """Point every output flag of a recorded argv into out_dir.

    A flag is either ``--out PATH`` or ``--out=PATH``; the parser takes no
    abbreviated flags, so no other spelling can name an output.  Returns
    the new argv and a map from each recorded flag value to its new one.
    """
    moves = {}

    def moved(path):
        moves[path] = os.path.join(out_dir, os.path.basename(path))
        return moves[path]

    new = list(argv)
    seen_manifest = False
    for i, tok in enumerate(argv):
        flag, eq, value = tok.partition("=")
        if flag not in _OUT_FLAGS:
            continue
        if eq:
            new[i] = f"{flag}={moved(value)}"
        elif i + 1 < len(argv):
            new[i + 1] = moved(argv[i + 1])
        seen_manifest = seen_manifest or flag == "--manifest"
    if not seen_manifest:
        new += ["--manifest", os.path.join(out_dir, "replay.manifest.json")]
    return new, moves


def _rebase(path, moves):
    """Where the replay wrote recorded output ``path``: the longest output
    flag value it starts with (``fs`` of ``fs/test.jsonl``, ``x.ckpt`` of
    ``x.ckpt.log``), swapped for that flag's new value."""
    old = max((v for v in moves if path.startswith(v)), key=len, default=None)
    if old is None:
        raise UsageError(f"recorded output {path} lies under no output flag")
    return moves[old] + path[len(old):]


def cmd_replay(args):
    man = load_manifest(args.manifest_path)
    for path, digest in sorted(man.inputs.items()):
        if sha256_file(path) != digest:
            raise UsageError(f"input {path} changed since the recorded run")
    out_dir = args.out_dir or tempfile.mkdtemp(prefix="scgpt-replay-")
    os.makedirs(out_dir, exist_ok=True)
    sub_argv, moves = _redirect_argv(man.argv, out_dir)
    print(f"replaying `{man.command}` into {out_dir}")
    code = main(sub_argv)
    if code != 0:
        return code
    bad = 0
    for path, digest in sorted(man.outputs.items()):
        got = sha256_file(_rebase(path, moves))
        mark = "ok" if got == digest else "MISMATCH"
        bad += mark != "ok"
        print(f"{mark}  {os.path.basename(path)}  {got[:12]}")
    return 1 if bad else 0


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_common(sub, *flags):
    if "config" in flags:
        sub.add_argument("--config", help="run config file (key = value lines)")
    if "seed" in flags:
        sub.add_argument("--seed", type=_int_at_least(0), default=0)
    if "ckpt" in flags:
        sub.add_argument("--ckpt", help="checkpoint to start from")
    sub.add_argument("--manifest", help="where to write the run manifest")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scgpt",
        description="dialog-act conditioned response generation, end to end",
        allow_abbrev=False,
    )
    p.add_argument("--version", action="version", version=f"scgpt {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    # replay rewrites output flags by their full names (_redirect_argv)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    s = add("train-bpe", help="learn a byte-pair vocabulary")
    s.add_argument("--corpus", required=True, help=".jsonl corpus or plain text")
    s.add_argument("--target-size", type=_int_at_least(MIN_TARGET_SIZE), default=512)
    s.add_argument("--out", required=True)
    _add_common(s)
    s.set_defaults(func=cmd_train_bpe)

    s = add("synth", help="generate a synthetic dialog-act corpus")
    s.add_argument("--domains", help="comma-separated builtin grammar names "
                   f"(builtins: {', '.join(PRETRAIN_GRAMMARS + HELDOUT_GRAMMARS)})")
    s.add_argument("--grammar", action="append", help="grammar file (repeatable)")
    s.add_argument("--n-per-domain", type=_int_at_least(1), default=200)
    s.add_argument("--out", required=True)
    _add_common(s, "seed")
    s.set_defaults(func=cmd_synth)

    s = add("build-fewshot", help="carve few-shot train/test splits")
    s.add_argument("--corpus", required=True)
    s.add_argument("--out-dir", required=True)
    s.add_argument("--k", type=_int_at_least(0), help="override examples kept per domain")
    _add_common(s, "seed")
    s.set_defaults(func=cmd_build_fewshot)

    s = add("stats", help="table of corpus statistics")
    s.add_argument("--train", required=True)
    s.add_argument("--test", required=True)
    _add_common(s)
    s.set_defaults(func=cmd_stats)

    s = add("pretrain-plain", help="language-model pretraining on text")
    s.add_argument("--corpus", required=True, help="plain text, one line per example")
    s.add_argument("--out", required=True)
    _add_common(s, "config", "seed")
    s.set_defaults(func=cmd_pretrain_plain)

    s = add("pretrain-da", help="dialog-act conditioned pretraining")
    s.add_argument("--corpus", required=True, help=".jsonl dialog-act corpus")
    s.add_argument("--out", required=True)
    _add_common(s, "config", "seed", "ckpt")
    s.set_defaults(func=cmd_pretrain_da)

    s = add("finetune", help="few-shot fine-tuning on one domain")
    s.add_argument("--corpus", required=True, help=".jsonl dialog-act corpus")
    s.add_argument("--domain", help="keep only this domain's examples")
    s.add_argument("--out", required=True)
    _add_common(s, "config", "seed", "ckpt")
    s.set_defaults(func=cmd_finetune)

    s = add("generate", help="realize dialog acts as responses")
    s.add_argument("--da", help="one linearized dialog act")
    s.add_argument("--corpus", help=".jsonl corpus of dialog acts")
    s.add_argument("--domain", help="keep only this domain's examples")
    s.add_argument("--out", help="write one response per line here")
    _add_common(s, "config", "seed", "ckpt")
    s.set_defaults(func=cmd_generate)

    s = add("evaluate", help="score generations against references")
    s.add_argument("--gens", required=True, help="one generated response per line")
    s.add_argument("--test", required=True)
    s.add_argument("--train", required=True, help="training corpus for the seen/unseen split")
    s.add_argument("--domain", help="label for the report header")
    _add_common(s)
    s.set_defaults(func=cmd_evaluate)

    s = add("replay", help="re-run a manifest and verify output hashes")
    s.add_argument("manifest_path")
    s.add_argument("--out-dir", help="where replayed artifacts go (default: temp dir)")

    return p


def _manifest_path(args):
    if args.manifest:
        return args.manifest
    if getattr(args, "out_dir", None):
        return os.path.join(args.out_dir, "manifest.json")
    return (getattr(args, "out", None) or f"scgpt-{args.command}") + ".manifest.json"


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":  # its sub-run writes its own manifest
            return cmd_replay(args)
        man = RunManifest.start(
            command=args.command,
            argv=argv,
            seed=getattr(args, "seed", None),
            config_path=getattr(args, "config", None),
        )
        outputs = args.func(args, man)
        man.finish(*outputs)
        man.write(_manifest_path(args))
        return 0
    except ScgptError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
