import hashlib
import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import scgpt
from scgpt import manifest
from scgpt.errors import ParseError, UnknownFormatError
from scgpt.manifest import RunManifest, git_describe, load_manifest, sha256_file
from scgpt import runconfig
from scgpt.runconfig import RunConfig, load_config, parse_config

CFG = """
# tiny run
vocab = out/vocab.bpe
model.n_layers = 2
model.n_heads = 2
model.d_model = 32
model.d_ff = 64
model.max_context = 96
model.dropout = 0.0
train.start_lr = 1e-3
train.batch_size = 4
train.max_epochs = 2
decode.n_candidates = 3
decode.temperature = 0.8
"""


def test_parse_config_sections():
    rc = parse_config(CFG)
    assert rc.vocab == "out/vocab.bpe"
    mc = rc.model_config(vocab_size=300)
    assert (mc.n_layers, mc.d_model, mc.dropout) == (2, 32, 0.0)
    tc = rc.train_config("finetune", seed=7)
    assert (tc.start_lr, tc.batch_size, tc.max_epochs, tc.seed) == (1e-3, 4, 2, 7)
    dc = rc.decode_config(seed=5)
    assert (dc.n_candidates, dc.temperature, dc.seed) == (3, 0.8, 5)


def test_defaults_fill_unset_keys():
    rc = parse_config("model.n_layers = 1")
    assert rc.vocab is None
    assert rc.train_config("plain").max_epochs == 20
    assert rc.train_config("finetune").max_epochs == 5
    assert rc.train_config("da_pretrain").start_lr == 5e-5
    assert rc.decode_config().n_candidates == 5


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("model.n_layerz = 2", "unknown config key"),
        ("optimizer.lr = 1", "unknown config key"),
        ("model.n_layers = soon", "needs a int"),
        ("just some words", "expected 'key = value'"),
        ("model.n_layers =", "expected 'key = value'"),
    ],
)
def test_parse_config_errors(line, fragment):
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_config(line, source="cfg")
    assert str(exc.value).startswith("cfg:1")


def test_load_config_anchors_vocab(tmp_path):
    sub = tmp_path / "run"
    sub.mkdir()
    (sub / "cfg").write_text("vocab = v.bpe\n")
    rc = load_config(sub / "cfg")
    assert rc.vocab == str(sub / "v.bpe")
    (sub / "abs.cfg").write_text(f"vocab = {tmp_path}/x.bpe\n")
    assert load_config(sub / "abs.cfg").vocab == f"{tmp_path}/x.bpe"


def test_runconfig_is_plain_data():
    assert RunConfig().model == {}
    assert parse_config("") == RunConfig()


def test_sha256_file_matches_hashlib(tmp_path):
    p = tmp_path / "blob"
    p.write_bytes(b"abc" * 1000)
    assert sha256_file(p) == hashlib.sha256(b"abc" * 1000).hexdigest()


def test_manifest_round_trip(tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("hello\n")
    out = tmp_path / "out.txt"
    man = RunManifest.start("demo", ["demo", "--out", str(out)], seed=3)
    man.add_inputs(inp)
    assert man.outputs == {}
    man.write(tmp_path / "m.json")
    out.write_text("result\n")
    man.finish(out)
    man.write(tmp_path / "m.json")
    loaded = load_manifest(tmp_path / "m.json")
    assert loaded.command == "demo"
    assert loaded.seed == 3
    assert loaded.inputs == {str(inp): sha256_file(inp)}
    assert loaded.outputs == {str(out): sha256_file(out)}
    assert loaded.started_at and loaded.finished_at


def test_manifest_snapshot_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.n_layers = 1\n")
    man = RunManifest.start("demo", [], config_path=cfg)
    assert man.config_text == "model.n_layers = 1\n"
    assert man.config_path == str(cfg)


@pytest.mark.skipif(shutil.which("git") is None, reason="git not on PATH")
def test_git_describe_names_the_package_checkout(tmp_path, monkeypatch):
    def git(*args, cwd):
        return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                              text=True, check=True).stdout.strip()

    git("init", "-q", cwd=tmp_path)
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
        "--allow-empty", "-m", "other", cwd=tmp_path)
    other = git("describe", "--always", "--dirty", cwd=tmp_path)
    package_dir = Path(scgpt.__file__).parent
    expected = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=package_dir,
                              capture_output=True, text=True).stdout.strip() or None
    monkeypatch.chdir(tmp_path)
    assert git_describe() == expected
    assert git_describe() != other


def test_git_describe_timeout_is_none(monkeypatch):
    def hang(cmd, **kw):
        raise subprocess.TimeoutExpired(cmd, kw["timeout"])

    monkeypatch.setattr(manifest.subprocess, "run", hang)
    assert git_describe() is None


def test_load_manifest_rejects_junk(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(ParseError, match="not valid JSON"):
        load_manifest(p)
    p.write_text(json.dumps({"format": "something else"}))
    with pytest.raises(UnknownFormatError):
        load_manifest(p)
    p.write_text(json.dumps({"format": "scgpt-manifest v1", "bogus": 1}))
    with pytest.raises(ParseError, match="unknown manifest fields"):
        load_manifest(p)
    p.write_text(json.dumps({"format": "scgpt-manifest v1"}))
    with pytest.raises(ParseError, match="incomplete"):
        load_manifest(p)


# Every key a config file may set, with its type; the seed comes from
# --seed, the stage from the command and the vocabulary size from the
# tokenizer.
SCHEMA = {
    "model": {"n_layers": int, "n_heads": int, "d_model": int, "d_ff": int,
              "max_context": int, "dropout": float},
    "train": {"start_lr": float, "weight_decay": float, "batch_size": int,
              "max_epochs": int, "early_stop_patience": int, "val_fraction": float,
              "grad_clip": float},
    "decode": {"n_candidates": int, "max_new_tokens": int, "top_k": int,
               "temperature": float},
}


def test_config_schema_is_pinned():
    assert runconfig._KEYS == SCHEMA
    assert sum(len(keys) for keys in SCHEMA.values()) == 17
    for section, keys in SCHEMA.items():
        for name, kind in keys.items():
            rc = parse_config(f"{section}.{name} = 3")
            assert type(getattr(rc, section)[name]) is kind
            if kind is int:
                with pytest.raises(ParseError, match=f"{section}.{name} needs a int"):
                    parse_config(f"{section}.{name} = 0.5")


@pytest.mark.parametrize(
    "key", ["model.vocab_size", "train.stage", "train.seed", "decode.seed"]
)
def test_fixed_fields_are_not_config_keys(key):
    with pytest.raises(ParseError, match=f"unknown config key '{key}'"):
        parse_config(f"{key} = 1", source="cfg")


@pytest.mark.parametrize(
    "line,build",
    [
        ("model.n_layers = 0", lambda rc: rc.model_config(vocab_size=300)),
        ("model.d_model = 30", lambda rc: rc.model_config(vocab_size=300)),
        ("train.batch_size = 0", lambda rc: rc.train_config("plain")),
        ("decode.top_k = 0", lambda rc: rc.decode_config()),
        ("decode.n_candidates = 0", lambda rc: rc.decode_config()),
    ],
)
def test_invalid_values_raise_parse_error_naming_file(tmp_path, line, build):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(cfg))}: "):
        build(load_config(cfg))
