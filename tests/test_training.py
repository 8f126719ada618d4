import dataclasses

import numpy as np
import pytest

from scgpt.bpe import train_bpe
from scgpt.dataset import Corpus, Example
from scgpt.dialog_act import act_set
from scgpt.errors import CorpusEmptyError, RangeError, ShapeMismatchError
from scgpt.model import ModelConfig, ModelParams, init_params, save_checkpoint
from scgpt.training import (
    OptimizerState,
    TrainConfig,
    adamw_step,
    clip_global_norm,
    default_train_config,
    evaluate_loss,
    lr_at,
    run_stage,
)


def _scalar_params(value: float) -> ModelParams:
    cfg = ModelConfig(vocab_size=4, n_layers=1, n_heads=1, d_model=1, d_ff=1, max_context=2)
    return ModelParams(cfg, {"w": np.array([value])})


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(stage="warmup")
    nan, inf = float("nan"), float("inf")
    for bad in ({"max_epochs": 0}, {"max_epochs": -4}, {"early_stop_patience": 0},
                {"weight_decay": -5.0}, {"grad_clip": -2.0},
                {"start_lr": nan}, {"start_lr": inf}, {"weight_decay": nan},
                {"weight_decay": inf}, {"grad_clip": nan}, {"grad_clip": inf},
                {"grad_clip": -inf}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(stage="plain", **bad)
    assert TrainConfig(stage="plain", grad_clip=0.0, weight_decay=0.0).grad_clip == 0.0
    with pytest.raises(ValueError):
        TrainConfig(stage="plain", start_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(stage="plain", batch_size=0)


def test_default_train_config_epochs():
    assert default_train_config("finetune").max_epochs == 5
    assert default_train_config("da_pretrain").max_epochs == 20
    assert default_train_config("plain", max_epochs=3).max_epochs == 3


def test_adamw_zero_grad_no_decay_is_identity():
    params = _scalar_params(1.5)
    state = OptimizerState.for_params(params)
    adamw_step(params, {"w": np.zeros(1)}, state, lr=0.1, weight_decay=0.0)
    assert params["w"][0] == 1.5


def test_adamw_decoupled_decay():
    params = _scalar_params(1.0)
    state = OptimizerState.for_params(params)
    adamw_step(params, {"w": np.zeros(1)}, state, lr=0.1, weight_decay=0.01)
    assert params["w"][0] == pytest.approx(0.999, abs=1e-15)


def test_adamw_two_step_hand_trajectory():
    # constant gradient 1.0, lr 0.1, no decay; momenta computed by hand
    b1, b2, eps = 0.9, 0.999, 1e-8
    p = 1.0
    m = v = 0.0
    expected = []
    for t in (1, 2):
        m = b1 * m + (1 - b1) * 1.0
        v = b2 * v + (1 - b2) * 1.0
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        p = p - 0.1 * mh / (vh**0.5 + eps)
        expected.append(p)

    params = _scalar_params(1.0)
    state = OptimizerState.for_params(params)
    got = []
    for _ in range(2):
        adamw_step(params, {"w": np.ones(1)}, state, lr=0.1, weight_decay=0.0)
        got.append(float(params["w"][0]))
    assert got == pytest.approx(expected, abs=1e-14)
    assert state.step == 2


def test_adamw_shape_mismatch():
    params = _scalar_params(1.0)
    state = OptimizerState.for_params(params)
    with pytest.raises(ShapeMismatchError):
        adamw_step(params, {"w": np.zeros(3)}, state, lr=0.1, weight_decay=0.0)


def test_lr_schedule():
    assert lr_at(0, 100, 5e-5) == 5e-5
    assert lr_at(100, 100, 5e-5) == 0.0
    assert lr_at(50, 100, 5e-5) == pytest.approx(2.5e-5)
    values = [lr_at(s, 10, 1.0) for s in range(11)]
    assert values == sorted(values, reverse=True)
    with pytest.raises(RangeError):
        lr_at(11, 10, 1.0)
    with pytest.raises(RangeError):
        lr_at(-1, 10, 1.0)


def test_clip_global_norm():
    g1, g2 = np.array([3.0]), np.array([4.0])
    grads = {"a": g1, "b": g2}
    total = clip_global_norm(grads, 1.0)
    assert total == pytest.approx(5.0)
    assert np.sqrt(sum((g**2).sum() for g in grads.values())) == pytest.approx(1.0)
    grads2 = {"a": np.array([0.3])}
    clip_global_norm(grads2, 1.0)  # under the limit: untouched
    assert grads2["a"][0] == 0.3


@pytest.fixture(scope="module")
def setup():
    corpus = Corpus(
        tuple(
            Example(act_set("inform", [("name", n)]), f"the {n} is a fine place", "alpha")
            for n in ["ix", "rex", "aria", "bloom", "cove", "dune", "echo", "fjord"]
        )
    )
    texts = [ex.response for ex in corpus]
    vocab = train_bpe(texts + [f"inform ( name = {n} )" for n in "ix rex aria bloom cove dune echo fjord".split()], 290)
    cfg = ModelConfig(vocab_size=vocab.size, n_layers=2, n_heads=2, d_model=32,
                      d_ff=64, max_context=64, dropout=0.0)
    return corpus, vocab, cfg


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_run_stage_deterministic(setup, tmp_path, dropout):
    corpus, vocab, cfg = setup
    cfg = dataclasses.replace(cfg, dropout=dropout)
    outs = []
    for run in range(2):
        params = init_params(cfg, seed=3)
        tc = TrainConfig(stage="da_pretrain", start_lr=3e-3, max_epochs=3,
                         batch_size=4, seed=9, val_fraction=0.25)
        params, log = run_stage(tc, corpus, params, vocab)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(params, path)
        outs.append((path.read_bytes(), log))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_run_stage_empty_corpus(setup):
    _, vocab, cfg = setup
    params = init_params(cfg, seed=0)
    with pytest.raises(CorpusEmptyError):
        run_stage(TrainConfig(stage="plain"), [], params, vocab)
    with pytest.raises(CorpusEmptyError):
        run_stage(TrainConfig(stage="da_pretrain"), Corpus(()), params, vocab)


def test_run_stage_plain_takes_text(setup):
    _, vocab, cfg = setup
    params = init_params(cfg, seed=1)
    lines = ["the ix is a fine place", "the rex is a fine place", "", "a third line"]
    params, log = run_stage(
        TrainConfig(stage="plain", start_lr=1e-3, max_epochs=2, batch_size=2,
                    val_fraction=0.0, seed=5),
        lines, params, vocab,
    )
    assert len(log) == 2
    assert all(
        set(r) == {"epoch", "train_loss", "val_loss", "lr", "grad_norm", "skipped"}
        for r in log
    )
    assert all(r["grad_norm"] > 0 for r in log)


def _over_length_text(cfg):
    return " ".join(["the ix is a fine place"] * cfg.max_context)


@pytest.mark.parametrize("stage", ["plain", "da_pretrain"])
def test_run_stage_skips_over_length_examples(setup, stage):
    corpus, vocab, cfg = setup
    if stage == "plain":
        fitting = [ex.response for ex in corpus]
        with_long = fitting[:3] + [_over_length_text(cfg)] + fitting[3:]
    else:
        fitting = corpus
        long_ex = Example(act_set("inform", [("name", "ix")]), _over_length_text(cfg), "alpha")
        with_long = Corpus(corpus.examples[:3] + (long_ex,) + corpus.examples[3:])
    tc = TrainConfig(stage=stage, start_lr=1e-3, max_epochs=2, batch_size=4,
                     val_fraction=0.25, seed=2)
    _, log = run_stage(tc, with_long, init_params(cfg, seed=6), vocab)
    _, ref = run_stage(tc, fitting, init_params(cfg, seed=6), vocab)
    assert [r["skipped"] for r in log] == [1, 1]
    assert [r["skipped"] for r in ref] == [0, 0]
    # the skipped example leaves training exactly as if it were absent
    strip = [{k: v for k, v in r.items() if k != "skipped"} for r in log + ref]
    assert strip[:2] == strip[2:]


def test_run_stage_all_over_length_raises(setup):
    _, vocab, cfg = setup
    long_ex = Example(act_set("inform", [("name", "ix")]), _over_length_text(cfg), "alpha")
    params = init_params(cfg, seed=0)
    with pytest.raises(CorpusEmptyError):
        run_stage(TrainConfig(stage="finetune"), Corpus((long_ex,)), params, vocab)
    with pytest.raises(CorpusEmptyError):
        run_stage(TrainConfig(stage="plain"), [_over_length_text(cfg)], params, vocab)


def test_run_stage_overfits_small_corpus(setup):
    corpus, vocab, cfg = setup
    params = init_params(cfg, seed=2)
    examples_loss_before = None
    tc = TrainConfig(stage="finetune", start_lr=1e-2, max_epochs=150, batch_size=8,
                     val_fraction=0.0, weight_decay=0.0, seed=7,
                     early_stop_patience=150)
    from scgpt.model import build_example

    examples = [build_example(ex.acts, ex.response, vocab, cfg.max_context) for ex in corpus]
    examples_loss_before = evaluate_loss(params, examples, tc.batch_size)
    params, log = run_stage(tc, corpus, params, vocab)
    after = evaluate_loss(params, examples, tc.batch_size)
    assert after < examples_loss_before * 0.05
    assert after < 0.05


def test_run_stage_early_stops(setup):
    corpus, vocab, cfg = setup
    params = init_params(cfg, seed=4)
    # lr 0 at every step (total_steps scaling still positive but tiny):
    # with an already-converged-ish setup the val loss plateaus; patience 1
    tc = TrainConfig(stage="da_pretrain", start_lr=1e-9, max_epochs=30,
                     batch_size=8, val_fraction=0.25, seed=3, early_stop_patience=1)
    params, log = run_stage(tc, corpus, params, vocab)
    assert len(log) < 30


def test_finetune_composes_with_new_tokens(setup):
    corpus, vocab, cfg = setup
    params = init_params(cfg, seed=5)
    tc = TrainConfig(stage="da_pretrain", start_lr=1e-3, max_epochs=1, batch_size=8, seed=1)
    params, _ = run_stage(tc, corpus, params, vocab)
    novel = Corpus(
        (
            Example(act_set("recommend", [("gadget", "Zynthovox")]),
                    "try the Zynthovox 9000 today", "beta"),
        )
    )
    tc2 = TrainConfig(stage="finetune", start_lr=1e-3, max_epochs=1, batch_size=1,
                      val_fraction=0.0, seed=2)
    params, log = run_stage(tc2, novel, params, vocab)
    assert len(log) == 1
