import io
import json
import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scgpt import cli
from scgpt.bpe import load_vocab
from scgpt.cli import main
from scgpt.dataset import ingest
from scgpt.decoding import generate_reranked
from scgpt.dialog_act import linearize, parse_linearized
from scgpt.errors import ScgptError
from scgpt.manifest import load_manifest, sha256_file
from scgpt.model import load_checkpoint


def run(argv):
    return main([str(a) for a in argv])


CONFIG = """\
vocab = vocab.bpe
model.n_layers = 1
model.n_heads = 2
model.d_model = 16
model.d_ff = 32
model.max_context = 192
model.dropout = 0.0
train.start_lr = 1e-3
train.batch_size = 8
train.max_epochs = 2
train.early_stop_patience = 3
decode.n_candidates = 2
decode.max_new_tokens = 16
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    vocab = root / "vocab.bpe"
    cfg = root / "run.cfg"
    ckpt = root / "da.ckpt"
    assert run(["synth", "--domains", "restaurant,taxi", "--n-per-domain", 30,
                "--seed", 1, "--out", corpus]) == 0
    assert run(["train-bpe", "--corpus", corpus, "--target-size", 400,
                "--out", vocab]) == 0
    cfg.write_text(CONFIG)
    assert run(["pretrain-da", "--config", cfg, "--corpus", corpus,
                "--seed", 0, "--out", ckpt]) == 0
    return root


def test_synth_artifacts(pipeline):
    corpus = ingest(pipeline / "corpus.jsonl")
    assert len(corpus) == 60
    assert corpus.domains() == ("restaurant", "taxi")


def test_manifest_records_hashes(pipeline):
    man = load_manifest(pipeline / "vocab.bpe.manifest.json")
    assert man.command == "train-bpe"
    assert man.inputs == {
        str(pipeline / "corpus.jsonl"): sha256_file(pipeline / "corpus.jsonl")
    }
    assert man.outputs == {
        str(pipeline / "vocab.bpe"): sha256_file(pipeline / "vocab.bpe")
    }
    assert man.finished_at is not None


def test_pretrain_artifacts(pipeline):
    params = load_checkpoint(pipeline / "da.ckpt")
    assert params.config.n_layers == 1
    records = [json.loads(ln) for ln in
               (pipeline / "da.ckpt.log").read_text().splitlines()]
    assert len(records) == 2
    assert set(records[0]) == {"epoch", "train_loss", "val_loss", "lr", "grad_norm", "skipped"}
    man = load_manifest(pipeline / "da.ckpt.manifest.json")
    assert man.config_text == CONFIG
    assert str(pipeline / "da.ckpt") in man.outputs


def test_pretrain_da_skips_over_length_example(pipeline, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    long_line = {"domain": "restaurant", "response": " ".join(["the food is fine"] * 100),
                 "acts": [{"intent": "inform", "slots": [{"name": "food", "value": "thai"}]}]}
    corpus.write_text((pipeline / "corpus.jsonl").read_text() + json.dumps(long_line) + "\n")
    out = tmp_path / "da.ckpt"
    capsys.readouterr()
    assert run(["pretrain-da", "--config", pipeline / "run.cfg", "--corpus", corpus,
                "--seed", 0, "--out", out]) == 0
    assert "skipped 1 over-length" in capsys.readouterr().out
    records = [json.loads(ln) for ln in (tmp_path / "da.ckpt.log").read_text().splitlines()]
    assert [r["skipped"] for r in records] == [1, 1]


def test_pretrain_plain_runs(pipeline, tmp_path):
    text = tmp_path / "plain.txt"
    text.write_text("the tram runs along the river .\n" * 12)
    out = tmp_path / "plain.ckpt"
    assert run(["pretrain-plain", "--config", pipeline / "run.cfg",
                "--corpus", text, "--out", out]) == 0
    assert load_checkpoint(out).config.d_model == 16


def test_pretrain_plain_ignores_blank_lines(pipeline, tmp_path):
    # blank and whitespace-only lines train nothing and count as no example
    lines = ["the tram runs along the river .", "the rex is a fine place ."] * 6
    for name, text in (("dense", lines), ("gappy", ["", *lines[:5], "  ", *lines[5:], "\t"])):
        (tmp_path / f"{name}.txt").write_text("\n".join(text) + "\n")
        assert run(["pretrain-plain", "--config", pipeline / "run.cfg",
                    "--corpus", tmp_path / f"{name}.txt", "--out", tmp_path / f"{name}.ckpt"]) == 0
    for suffix in (".ckpt", ".ckpt.log"):
        assert ((tmp_path / f"dense{suffix}").read_bytes()
                == (tmp_path / f"gappy{suffix}").read_bytes()), suffix


def test_finetune_domain_filter(pipeline, tmp_path):
    out = tmp_path / "taxi.ckpt"
    assert run(["finetune", "--config", pipeline / "run.cfg",
                "--corpus", pipeline / "corpus.jsonl", "--domain", "taxi",
                "--ckpt", pipeline / "da.ckpt", "--out", out]) == 0
    assert (tmp_path / "taxi.ckpt.log").exists()
    # an unknown domain leaves nothing to train on
    assert run(["finetune", "--config", pipeline / "run.cfg",
                "--corpus", pipeline / "corpus.jsonl", "--domain", "zeppelin",
                "--ckpt", pipeline / "da.ckpt",
                "--out", tmp_path / "nope.ckpt"]) == 2


def test_generate_single_da(pipeline, tmp_path, capsys):
    assert run(["generate", "--config", pipeline / "run.cfg",
                "--ckpt", pipeline / "da.ckpt",
                "--da", "inform ( name = the golden fork )",
                "--manifest", tmp_path / "m.json"]) == 0
    out = capsys.readouterr().out.strip()
    assert out  # one realization line


def test_generate_corpus_mode(pipeline, tmp_path):
    gens = tmp_path / "gens.txt"
    assert run(["generate", "--config", pipeline / "run.cfg",
                "--ckpt", pipeline / "da.ckpt",
                "--corpus", pipeline / "corpus.jsonl", "--domain", "taxi",
                "--out", gens]) == 0
    n_taxi = sum(1 for ex in ingest(pipeline / "corpus.jsonl")
                 if ex.domain == "taxi")
    assert len(gens.read_text().splitlines()) == n_taxi


def test_generate_line_does_not_depend_on_other_lines(pipeline, tmp_path):
    # enough hot samples that some sampled candidates win their act
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(CONFIG.replace("vocab.bpe", str(pipeline / "vocab.bpe"))
                   .replace("n_candidates = 2", "n_candidates = 16") + "decode.temperature = 2.0\n")
    lines = [ln for ln in (pipeline / "corpus.jsonl").read_text().splitlines()
             if json.loads(ln)["domain"] == "taxi"]
    outputs = []
    for name, corpus_lines in (("fwd", lines), ("rev", lines[::-1])):
        (tmp_path / f"{name}.jsonl").write_text("\n".join(corpus_lines) + "\n")
        assert run(["generate", "--config", cfg, "--ckpt", pipeline / "da.ckpt",
                    "--corpus", tmp_path / f"{name}.jsonl", "--out", tmp_path / f"{name}.txt"]) == 0
        outputs.append((tmp_path / f"{name}.txt").read_text().splitlines())
    assert outputs[1] == outputs[0][::-1]
    # an act alone realizes as its line in the corpus run, wherever that line is
    examples = ingest(tmp_path / "fwd.jsonl").examples
    for i in (3, 17, 29):
        out = tmp_path / f"one{i}.txt"
        assert run(["generate", "--config", cfg, "--ckpt", pipeline / "da.ckpt",
                    "--da", linearize(examples[i].acts), "--out", out]) == 0
        assert out.read_text().splitlines() == [outputs[0][i]]


def test_generate_absent_domain_writes_no_lines(pipeline, tmp_path):
    gens = tmp_path / "gens.txt"
    assert run(["generate", "--config", pipeline / "run.cfg",
                "--ckpt", pipeline / "da.ckpt",
                "--corpus", pipeline / "corpus.jsonl", "--domain", "museum",
                "--out", gens]) == 0
    assert gens.read_text() == ""


def test_generate_malformed_da(pipeline, tmp_path, capsys):
    # a broken grammar, a slot name the act types refuse, and the lone
    # surrogate that a raw 0xff byte in argv becomes
    for da in ("inform ( name x )", "inform ( Name = x )", "inform ( name = \udcff )"):
        code = run(["generate", "--config", pipeline / "run.cfg",
                    "--ckpt", pipeline / "da.ckpt", "--da", da,
                    "--manifest", tmp_path / "m.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_generate_interactive(pipeline, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "stdin",
        io.StringIO("inform ( name = villa verde )\nbroken (\n"
                    "inform ( Name = x )\ninform ( name = \udcff )\nbye ( )\n"),
    )
    assert run(["generate", "--config", pipeline / "run.cfg",
                "--ckpt", pipeline / "da.ckpt",
                "--manifest", tmp_path / "m.json"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 2  # two well-formed acts
    # one error line per bad line, and the lines after each are answered
    assert [line[:7] for line in captured.err.splitlines()] == ["error: "] * 3


def test_generate_out_needs_da_or_corpus(pipeline, tmp_path, capsys, monkeypatch):
    # interactive generation prints to stdout, so --out would write nothing
    monkeypatch.setattr(sys, "stdin", io.StringIO("bye ( )\n"))
    out = tmp_path / "inter.txt"
    assert run(["generate", "--config", pipeline / "run.cfg",
                "--ckpt", pipeline / "da.ckpt", "--out", out]) == 2
    assert "--da or --corpus" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--da", "bye ( )", "--corpus", "corpus.jsonl"], "--da or --corpus, not both"),
        (["--da", "bye ( )", "--domain", "taxi"], "--domain needs --corpus"),
    ],
)
def test_generate_refuses_flags_it_would_ignore(pipeline, tmp_path, capsys, flags, message):
    # refused before any input is read: corpus.jsonl does not exist
    assert run(["generate", "--config", pipeline / "run.cfg", "--ckpt", pipeline / "da.ckpt",
                *flags, "--out", tmp_path / "gens.txt"]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_build_fewshot_and_stats(pipeline, tmp_path, capsys):
    out_dir = tmp_path / "fewshot"
    assert run(["build-fewshot", "--corpus", pipeline / "corpus.jsonl",
                "--out-dir", out_dir, "--k", 2, "--seed", 0]) == 0
    table = capsys.readouterr().out
    assert "# Training Instances" in table
    train = ingest(out_dir / "train.jsonl")
    assert len(train) == 4  # 2 per domain
    assert (out_dir / "manifest.json").exists()
    assert run(["stats", "--train", out_dir / "train.jsonl",
                "--test", out_dir / "test.jsonl",
                "--manifest", tmp_path / "m.json"]) == 0
    assert "Overlap Percentage" in capsys.readouterr().out


def test_evaluate_perfect_copies(pipeline, tmp_path, capsys):
    out_dir = tmp_path / "fewshot"
    assert run(["build-fewshot", "--corpus", pipeline / "corpus.jsonl",
                "--out-dir", out_dir, "--k", 2, "--seed", 0]) == 0
    capsys.readouterr()
    test = ingest(out_dir / "test.jsonl")
    gens = tmp_path / "gens.txt"
    gens.write_text("".join(ex.response + "\n" for ex in test))
    assert run(["evaluate", "--gens", gens, "--test", out_dir / "test.jsonl",
                "--train", out_dir / "train.jsonl",
                "--manifest", tmp_path / "m.json"]) == 0
    report = capsys.readouterr().out
    assert "bleu         1.0000" in report
    assert "err          0.0000" in report
    # trimming one line breaks the candidate/reference alignment
    gens.write_text("".join(ex.response + "\n" for ex in list(test)[:-1]))
    assert run(["evaluate", "--gens", gens, "--test", out_dir / "test.jsonl",
                "--train", out_dir / "train.jsonl",
                "--manifest", tmp_path / "m.json"]) == 2


@pytest.mark.parametrize(
    "command,written",
    [
        ("stats", ["scgpt-stats.manifest.json"]),
        ("evaluate", ["scgpt-evaluate.manifest.json"]),
        ("generate", ["scgpt-generate.manifest.json"]),
        ("generate --out g.txt", ["g.txt", "g.txt.manifest.json"]),
        ("finetune --out ft.ckpt", ["ft.ckpt", "ft.ckpt.log", "ft.ckpt.manifest.json"]),
    ],
)
def test_default_manifest_path(pipeline, tmp_path, monkeypatch, capsys, command, written):
    # without --manifest: <out-dir>/manifest.json, else
    # (<out> or scgpt-<command>).manifest.json, in the working directory
    cfg, ckpt, corpus = pipeline / "run.cfg", pipeline / "da.ckpt", pipeline / "corpus.jsonl"
    gens = tmp_path / "gens.txt"
    gens.write_text("".join(ex.response + "\n" for ex in ingest(corpus)))
    name, *flags = command.split()
    flags += {
        "stats": ["--train", corpus, "--test", corpus],
        "evaluate": ["--gens", gens, "--test", corpus, "--train", corpus],
        "generate": ["--config", cfg, "--ckpt", ckpt, "--da", "bye ( )"],
        "finetune": ["--config", cfg, "--ckpt", ckpt, "--corpus", corpus],
    }[name]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run([name, *flags]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in work.iterdir()) == written
    assert load_manifest(written[-1]).command == name


def test_missing_file_exits_2(pipeline, tmp_path, capsys):
    assert run(["pretrain-da", "--config", pipeline / "run.cfg",
                "--corpus", tmp_path / "absent.jsonl",
                "--out", tmp_path / "x.ckpt"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["pretrain-da", "--corpus", pipeline / "corpus.jsonl",
                "--out", tmp_path / "x.ckpt"]) == 2  # no --config


def test_badly_typed_corpus_exits_2(tmp_path, capsys):
    good = {"domain": "taxi", "response": "bye", "acts": [{"intent": "bye"}]}
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    train.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, acts=[5])) + "\n")
    test.write_text(json.dumps(good) + "\n")
    assert run(["stats", "--train", train, "--test", test,
                "--manifest", tmp_path / "m.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {train}:2: ")
    assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_vocab_size_mismatch_exits_2(pipeline, tmp_path):
    small = tmp_path / "small.cfg"
    small.write_text(CONFIG.replace("vocab = vocab.bpe",
                                    f"vocab = {tmp_path}/tiny.bpe"))
    assert run(["train-bpe", "--corpus", pipeline / "corpus.jsonl",
                "--target-size", 300, "--out", tmp_path / "tiny.bpe"]) == 0
    assert run(["generate", "--config", small, "--ckpt", pipeline / "da.ckpt",
                "--da", "bye ( )", "--manifest", tmp_path / "m.json"]) == 2


def test_train_bpe_reports_merges_and_replays(pipeline, tmp_path, capsys):
    out = tmp_path / "v.bpe"
    assert run(["train-bpe", "--corpus", pipeline / "corpus.jsonl",
                "--target-size", 300, "--out", out]) == 0
    line = capsys.readouterr().out.strip()
    m = re.fullmatch(rf"saved {re.escape(str(out))} \(300 tokens, (\d+) merges, \d+\.\d\d s\)",
                     line)
    assert m and int(m.group(1)) == len(load_vocab(out).merges) == 41
    assert run(["replay", f"{out}.manifest.json", "--out-dir", tmp_path / "r"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    assert sha256_file(tmp_path / "r" / "v.bpe") == sha256_file(out)


def test_train_bpe_target_beyond_the_last_code_point(pipeline, tmp_path, capsys):
    # training's pair separator is derived from the target, which the
    # flag lets exceed sys.maxunicode; merges run out first
    out = tmp_path / "v.bpe"
    assert run(["train-bpe", "--corpus", pipeline / "corpus.jsonl",
                "--target-size", 2_000_000, "--out", out]) == 0
    assert 400 < load_vocab(out).size < 2_000_000
    capsys.readouterr()


def test_argparse_usage_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["train-bpe", "--corpus", "x"])  # missing --out
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--n-per-domain", "0", "--out", "{d}/c.jsonl"],
        ["synth", "--seed", "-1", "--out", "{d}/c.jsonl"],
        ["build-fewshot", "--k", "-1", "--corpus", "{corpus}", "--out-dir", "{d}/few"],
        ["train-bpe", "--target-size", "100", "--corpus", "{corpus}", "--out", "{d}/v.bpe"],
    ],
)
def test_out_of_range_int_flag_exits_2(pipeline, tmp_path, capsys, argv):
    argv = [a.format(d=tmp_path, corpus=pipeline / "corpus.jsonl") for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[1]}: must be at least" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # no output, no manifest


def test_replay_reproduces_training(pipeline, tmp_path, capsys):
    out_dir = tmp_path / "replayed"
    assert run(["replay", pipeline / "da.ckpt.manifest.json",
                "--out-dir", out_dir]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out and "ok" in out
    assert sha256_file(out_dir / "da.ckpt") == sha256_file(pipeline / "da.ckpt")


def test_replay_build_fewshot(pipeline, tmp_path, monkeypatch, capsys):
    # outputs inside an --out-dir subdirectory are found where the replay
    # wrote them
    monkeypatch.chdir(tmp_path)
    assert run(["build-fewshot", "--corpus", pipeline / "corpus.jsonl",
                "--out-dir", "runs/fs", "--k", 3]) == 0
    capsys.readouterr()
    assert run(["replay", "runs/fs/manifest.json", "--out-dir", "r"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[:2] for ln in lines if ln.startswith(("ok", "MISMATCH"))] == [
        ["ok", "test.jsonl"], ["ok", "train.jsonl"]]
    assert sha256_file("r/fs/test.jsonl") == sha256_file("runs/fs/test.jsonl")


def test_replay_build_fewshot_trailing_slash(pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["build-fewshot", "--corpus", pipeline / "corpus.jsonl",
                "--out-dir", "runs/fs/", "--k", 3]) == 0
    capsys.readouterr()
    assert run(["replay", "runs/fs/manifest.json", "--out-dir", "r"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[:2] for ln in lines if ln.startswith(("ok", "MISMATCH"))] == [
        ["ok", "test.jsonl"], ["ok", "train.jsonl"]]


def test_replay_leaves_a_recorded_manifest_alone(tmp_path, capsys):
    man_path = tmp_path / "m.json"
    assert run(["synth", "--domains", "taxi", "--n-per-domain", 5,
                "--out", tmp_path / "c.jsonl", "--manifest", man_path]) == 0
    recorded = man_path.read_bytes()
    rep = tmp_path / "rep"
    assert run(["replay", man_path, "--out-dir", rep]) == 0
    assert "ok  c.jsonl" in capsys.readouterr().out
    assert man_path.read_bytes() == recorded
    assert sorted(p.name for p in rep.iterdir()) == ["c.jsonl", "replay.manifest.json"]


def test_replay_refuses_to_overwrite_what_it_checks(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    out, man_path = runs / "c.jsonl", runs / "c.jsonl.manifest.json"
    assert run(["synth", "--domains", "taxi", "--n-per-domain", 5, "--out", out]) == 0
    with out.open("a") as fh:
        fh.write("tampered\n")
    before = {p.name: p.read_bytes() for p in runs.iterdir()}
    capsys.readouterr()
    assert run(["replay", man_path, "--out-dir", runs]) == 2
    assert "would overwrite" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in runs.iterdir()} == before
    # nor the manifest it replays, from a run with no output flag
    doc = json.loads(man_path.read_text())
    doc.update(argv=["stats", "--train", "a", "--test", "b"], inputs={}, outputs={})
    (runs / "replay.manifest.json").write_text(json.dumps(doc))
    assert run(["replay", runs / "replay.manifest.json", "--out-dir", runs]) == 2
    assert "would overwrite" in capsys.readouterr().err


def test_replay_flags_an_output_it_did_not_write(pipeline, tmp_path, capsys):
    man_path = tmp_path / "extra.json"
    doc = json.loads((pipeline / "vocab.bpe.manifest.json").read_text())
    doc["outputs"][str(tmp_path / "elsewhere" / "extra.txt")] = "0" * 64
    man_path.write_text(json.dumps(doc))
    assert run(["replay", man_path, "--out-dir", tmp_path / "r"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "MISMATCH  extra.txt  not written" in lines
    assert any(ln.startswith("ok  vocab.bpe") for ln in lines)


def test_replay_flags_drift(pipeline, tmp_path, capsys):
    man_path = tmp_path / "tampered.json"
    doc = json.loads((pipeline / "vocab.bpe.manifest.json").read_text())
    key = next(iter(doc["outputs"]))
    doc["outputs"][key] = "0" * 64
    man_path.write_text(json.dumps(doc))
    assert run(["replay", man_path, "--out-dir", tmp_path / "r1"]) == 1
    assert "MISMATCH" in capsys.readouterr().out
    # changed inputs are refused outright
    doc2 = json.loads((pipeline / "vocab.bpe.manifest.json").read_text())
    doc2["inputs"] = {str(tmp_path / "moved.jsonl"): "1" * 64}
    (tmp_path / "moved.jsonl").write_text("{}\n")
    man_path.write_text(json.dumps(doc2))
    assert run(["replay", man_path, "--out-dir", tmp_path / "r2"]) == 2
    assert "changed since" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [
        ("inputs", []),
        ("argv", "stats --train a"),
        ("outputs", {"v.bpe": 5}),
        ("command", None),  # None: the field is left out
        ("bogus", 1),
    ],
)
def test_replay_refuses_malformed_manifest(pipeline, tmp_path, capsys, field, value):
    doc = json.loads((pipeline / "vocab.bpe.manifest.json").read_text())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    man_path = tmp_path / "bad.json"
    man_path.write_text(json.dumps(doc))
    assert run(["replay", man_path, "--out-dir", tmp_path / "r"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {man_path}: ")
    assert field in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_replay_redirects_equals_form_and_refuses_abbreviations(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert run(["synth", "--domains", "taxi", "--n-per-domain", 5,
                f"--out={out}"]) == 0
    man_path = tmp_path / "c.jsonl.manifest.json"
    recorded = load_manifest(man_path).outputs[str(out)]
    out.write_text("original\n")
    rep = tmp_path / "rep"
    assert run(["replay", man_path, "--out-dir", rep]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    assert out.read_text() == "original\n"
    assert sha256_file(rep / "c.jsonl") == recorded
    # no output flag can hide behind a prefix, in a new run or a replay
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--domains", "taxi", "--ou", out])
    assert exc.value.code == 2
    doc = json.loads(man_path.read_text())
    doc["argv"] = [tok if tok != f"--out={out}" else "--ou" for tok in doc["argv"]]
    doc["argv"].append(str(out))
    man_path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        run(["replay", man_path, "--out-dir", tmp_path / "rep2"])
    assert exc.value.code == 2
    assert out.read_text() == "original\n"
    capsys.readouterr()


@pytest.mark.parametrize(
    "setting,command",
    [
        ("model.n_layers = 0", "pretrain-plain"),
        ("train.batch_size = 0", "pretrain-plain"),
        ("train.max_epochs = 0", "pretrain-plain"),
        ("decode.top_k = 0", "generate"),
        ("decode.n_candidates = 0", "generate"),
        ("train.start_lr = nan", "pretrain-plain"),
        ("train.grad_clip = nan", "pretrain-plain"),
        ("train.weight_decay = inf", "pretrain-plain"),
        ("decode.temperature = nan", "generate"),
        ("decode.temperature = inf", "generate"),
    ],
)
def test_invalid_config_values_exit_2(pipeline, tmp_path, capsys, setting, command):
    cfg = tmp_path / "bad.cfg"
    # the setting takes the place of the key's line: a key set twice is refused
    key = setting.partition(" =")[0]
    lines = [ln for ln in CONFIG.splitlines(keepends=True) if ln.partition(" =")[0] != key]
    cfg.write_text("".join(lines).replace("vocab = vocab.bpe", f"vocab = {pipeline}/vocab.bpe")
                   + setting + "\n")
    text = tmp_path / "plain.txt"
    text.write_text("the tram runs along the river .\n")
    name, *flags = command.split()
    if name == "pretrain-plain":
        flags += ["--corpus", text, "--out", tmp_path / "x.ckpt"]
    else:
        flags += ["--ckpt", pipeline / "da.ckpt", "--da", "bye ( )",
                  "--manifest", tmp_path / "m.json"]
    capsys.readouterr()
    assert run([name, "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ")
    assert "Traceback" not in err
    # a failed run leaves no manifest behind
    assert not (tmp_path / "x.ckpt.manifest.json").exists()
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("bad", ["corpus", "config", "train", "grammar", "manifest"])
def test_non_utf8_input_exits_2(pipeline, tmp_path, capsys, bad):
    paths = {name: tmp_path / f"{name}.txt"
             for name in ("corpus", "config", "train", "grammar", "manifest")}
    paths["corpus"].write_text("the tram runs along the river .\n")
    paths["config"].write_text(CONFIG.replace("vocab = vocab.bpe",
                                              f"vocab = {pipeline}/vocab.bpe"))
    shutil.copy(pipeline / "corpus.jsonl", paths["train"])
    paths["grammar"].write_text((resources.files("scgpt") / "grammars" / "taxi.gram").read_text())
    shutil.copy(pipeline / "vocab.bpe.manifest.json", paths["manifest"])
    paths[bad].write_bytes(paths[bad].read_bytes() + b"caf\xff\n")
    man = tmp_path / "m.json"
    pretrain = ["pretrain-plain", "--config", paths["config"], "--corpus", paths["corpus"],
                "--out", tmp_path / "x.ckpt", "--manifest", man]
    argv = {
        "corpus": pretrain,
        "config": pretrain,
        "train": ["stats", "--train", paths["train"], "--test", pipeline / "corpus.jsonl",
                  "--manifest", man],
        "grammar": ["synth", "--grammar", paths["grammar"], "--out", tmp_path / "c.jsonl",
                    "--manifest", man],
        "manifest": ["replay", paths["manifest"], "--out-dir", tmp_path / "r"],
    }[bad]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[bad]}: not UTF-8 text")
    assert not man.exists()


def test_module_entrypoint():
    out = subprocess.run([sys.executable, "-m", "scgpt", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.startswith("scgpt ")


@pytest.mark.skipif(shutil.which("scgpt") is None,
                    reason="console script not on PATH")
def test_console_script(tmp_path):
    # the installed package, package data included: no PYTHONPATH, and a
    # working directory outside the checkout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def call(*argv):
        return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path)

    where = call(sys.executable, "-c", "import scgpt; print(scgpt.__file__)")
    assert where.returncode == 0, where.stderr
    checkout = Path(__file__).resolve().parents[1]
    assert checkout not in Path(where.stdout.strip()).resolve().parents, (
        "scgpt imports from the checkout; this test checks a `pip install .`"
    )
    assert call("scgpt", "--version").returncode == 0
    out = call("scgpt", "synth", "--domains", "taxi", "--n-per-domain", "2",
               "--out", str(tmp_path / "taxi.jsonl"))
    assert out.returncode == 0, out.stderr
    assert len(ingest(tmp_path / "taxi.jsonl")) == 2


# ---------------------------------------------------------------------------
# The input boundary, fuzzed: whatever a user hands the CLI (an act, stdin
# lines, a corpus, a config, a vocabulary, a checkpoint), ``main`` raises
# nothing, returns 0, 1 or 2, and starts stderr with "error: " on failure.

VALID_ACTS = ("bye ( )", "request ( area = ? )", "inform ( name = villa verde ; food = thai )")
#: Any character but a newline, plus NUL and the lone surrogate that a raw
#: 0xff byte in argv or stdin becomes.
_CHARS = st.one_of(st.characters(exclude_characters="\n"), st.sampled_from("\x00\udcff"))
FUZZ = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _spliced(draw, valid):
    """One of the valid strings, with up to three slices replaced by random text."""
    s = draw(st.sampled_from(valid))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(s)))
        j = draw(st.integers(i, len(s)))
        s = s[:i] + draw(st.text(_CHARS, max_size=6)) + s[j:]
    return s


@pytest.fixture(scope="module")
def fuzz(pipeline, tmp_path_factory):
    """A scratch directory with a config that names the pipeline's vocabulary."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "run.cfg").write_text(CONFIG.replace("vocab = vocab.bpe",
                                                 f"vocab = {pipeline}/vocab.bpe"))
    return root


def _checked_main(capsys, *argv):
    """``main(argv)``'s exit code, stdout and stderr, held to the contract."""
    capsys.readouterr()
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert code == 0 or err.startswith("error: "), err
    return code, out, err


def _generate(pipeline, fuzz, *flags, config=None, ckpt=None):
    return ("generate", "--config", config or fuzz / "run.cfg",
            "--ckpt", ckpt or pipeline / "da.ckpt", "--manifest", fuzz / "m.json", *flags)


@FUZZ
@given(da=st.one_of(_spliced(VALID_ACTS), st.text(_CHARS, max_size=40)))
def test_fuzzed_da(pipeline, fuzz, capsys, da):
    _checked_main(capsys, *_generate(pipeline, fuzz, f"--da={da}"))


@FUZZ
@given(lines=st.lists(_spliced(VALID_ACTS), min_size=1, max_size=4))
def test_fuzzed_stdin_answers_every_line(pipeline, fuzz, capsys, monkeypatch, lines):
    # each non-blank line gets one answer, on stdout or as one error line,
    # and every line that parses is generated for, bad lines before it or not
    texts, calls = [], []

    def recording(params, vocab, acts, dc):
        calls.append(acts)
        cand = generate_reranked(params, vocab, acts, dc)
        texts.append(cand.text)
        return cand

    monkeypatch.setattr(cli, "generate_reranked", recording)
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(ln + "\n" for ln in lines)))
    code, out, err = _checked_main(capsys, *_generate(pipeline, fuzz))
    assert code == 0
    valid = []
    for line in filter(str.strip, lines):
        try:
            valid.append(parse_linearized(line.strip()))
        except ScgptError:
            pass
    assert calls == valid
    assert out == "".join(text + "\n" for text in texts)
    errors = err.split("\n")[:-1]
    assert all(e.startswith("error: ") for e in errors), err
    assert len(errors) + len(texts) == len(list(filter(str.strip, lines)))


_GOOD_EXAMPLE = {"domain": "taxi", "response": "villa verde serves thai", "acts": [
    {"intent": "inform", "slots": [{"name": "name", "value": "villa verde"},
                                   {"name": "food", "value": "thai"}]}]}
_FIELDS = (("domain",), ("response",), ("acts",), ("acts", 0), ("acts", 0, "intent"),
           ("acts", 0, "slots"), ("acts", 0, "slots", 1), ("acts", 0, "slots", 0, "name"),
           ("acts", 0, "slots", 1, "value"))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(_CHARS, max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def _corpus_line(draw):
    """The good example with one field replaced or deleted, as a JSON line,
    then maybe spliced as text."""
    obj = json.loads(json.dumps(_GOOD_EXAMPLE))
    *path, last = draw(st.sampled_from(_FIELDS))
    parent = obj
    for key in path:
        parent = parent[key]
    if draw(st.booleans()):
        parent[last] = draw(_JSON)
    elif isinstance(parent, dict):
        del parent[last]
    return draw(_spliced((json.dumps(obj),)))


@FUZZ
@given(lines=st.lists(_corpus_line(), min_size=1, max_size=3))
def test_fuzzed_corpus_lines(pipeline, fuzz, capsys, lines):
    corpus = fuzz / "corpus.jsonl"
    corpus.write_bytes("".join(ln + "\n" for ln in lines).encode("utf-8", "surrogateescape"))
    _checked_main(capsys, "stats", "--train", corpus, "--test", corpus,
                  "--manifest", fuzz / "m.json")
    _checked_main(capsys, *_generate(pipeline, fuzz, "--corpus", corpus))


#: Config values: small numbers, so that a valid config stays cheap to run,
#: special floats, and text with no decimal digit.
_CONFIG_VALUES = st.one_of(
    st.integers(-3, 8).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "0x10", "1_0", "0.5", "true"]),
    st.text(st.one_of(st.characters(exclude_categories=("Nd",), exclude_characters="\n"),
                      st.sampled_from("\x00\udcff")), max_size=6))


@FUZZ
@given(data=st.data())
def test_fuzzed_config_lines(pipeline, fuzz, capsys, data):
    lines = (fuzz / "run.cfg").read_text().splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        edit = data.draw(st.sampled_from(["value", "line", "repeat", "drop"]))
        if edit == "value":
            lines[i] = lines[i].partition("=")[0] + "= " + data.draw(_CONFIG_VALUES)
        elif edit == "line":
            lines[i] = data.draw(st.text(_CHARS, max_size=12))
        elif edit == "repeat":
            lines.append(lines[i])
        elif len(lines) > 1:
            del lines[i]
    config = fuzz / "fuzzed.cfg"
    config.write_bytes("".join(ln + "\n" for ln in lines).encode("utf-8", "surrogateescape"))
    text = fuzz / "plain.txt"
    text.write_text("the tram runs along the river .\n")
    _checked_main(capsys, *_generate(pipeline, fuzz, "--da", "bye ( )", config=config))
    _checked_main(capsys, "pretrain-plain", "--config", config, "--corpus", text,
                  "--out", fuzz / "plain.ckpt", "--manifest", fuzz / "m.json")


_FIELD_BYTES = st.one_of(st.integers(-2, 1000).map(lambda n: str(n).encode()),
                         st.sampled_from([b"BOS", b"EOS", b"PAD", b"SPECIAL", b"ff", b"6162"]),
                         st.binary(max_size=4))


@FUZZ
@given(data=st.data())
def test_fuzzed_vocabulary_files(pipeline, fuzz, capsys, data):
    # lines swapped, dropped, repeated, or one field of a line replaced
    lines = (pipeline / "vocab.bpe").read_bytes().split(b"\n")
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        edit = data.draw(st.sampled_from(["swap", "drop", "repeat", "field"]))
        if edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(j, lines[i])
        else:
            fields = lines[i].split(b" ")
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(_FIELD_BYTES)
            lines[i] = b" ".join(fields)
    vocab = fuzz / "fuzzed.bpe"
    vocab.write_bytes(b"\n".join(lines))
    config = fuzz / "vocab.cfg"
    config.write_text(CONFIG.replace("vocab = vocab.bpe", f"vocab = {vocab}"))
    _checked_main(capsys, *_generate(pipeline, fuzz, "--da", "bye ( )", config=config))


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint_headers(pipeline, fuzz, capsys, data):
    # the magic line spliced, or one field of the config line or of the
    # first tensor's line replaced, dropped or repeated
    lines = (pipeline / "da.ckpt").read_bytes().split(b"\n", 3)
    i = data.draw(st.integers(0, 2))
    if i == 0:
        lines[0] = data.draw(_spliced((lines[0].decode(),))).encode("utf-8", "surrogateescape")
    else:
        fields = lines[i].split(b" ")
        k = data.draw(st.integers(0, len(fields) - 1))
        edit = data.draw(st.sampled_from(["value", "drop", "repeat"]))
        if edit == "value":
            name = fields[k].partition(b"=")[0] + b"=" if i == 1 else b""
            fields[k] = name + data.draw(st.one_of(st.integers().map(lambda n: str(n).encode()),
                                                   st.binary(max_size=4)))
        elif edit == "drop":
            del fields[k]
        else:
            fields.insert(k, fields[k])
        lines[i] = b" ".join(fields)
    ckpt = fuzz / "fuzzed.ckpt"
    ckpt.write_bytes(b"\n".join(lines))
    _checked_main(capsys, *_generate(pipeline, fuzz, "--da", "bye ( )", ckpt=ckpt))
