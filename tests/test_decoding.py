import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgpt import decoding
from scgpt.autograd import log_softmax
from scgpt.bpe import encode, train_bpe
from scgpt.dataset import Corpus, Example
from scgpt.decoding import (
    Candidate,
    DecodeConfig,
    generate_candidates,
    generate_corpus,
    generate_reranked,
    pick_best,
    select_next_token,
    select_tokens,
)
from scgpt.dialog_act import act_set, linearize
from scgpt.errors import ContextOverflowError
from scgpt.model import DecodeSession, ModelConfig, init_params
from scgpt.training import TrainConfig, run_stage

from oracles import select_next_token_reference

PAIRS = [
    ("ix", "the ix is here"),
    ("rex", "the rex is here"),
    ("aria", "the aria is here"),
    ("bloom", "the bloom is here"),
]


@pytest.fixture(scope="module")
def overfit():
    corpus = Corpus(
        tuple(
            Example(act_set("inform", [("name", n)]), r, "alpha") for n, r in PAIRS
        )
    )
    texts = [r for _, r in PAIRS] + [linearize(ex.acts) for ex in corpus]
    vocab = train_bpe(texts, target_vocab_size=300)
    cfg = ModelConfig(vocab_size=vocab.size, n_layers=2, n_heads=2, d_model=32,
                      d_ff=64, max_context=96, dropout=0.0)
    params = init_params(cfg, seed=0)
    tc = TrainConfig(stage="finetune", start_lr=1e-2, max_epochs=250, batch_size=4,
                     val_fraction=0.0, weight_decay=0.0, seed=0,
                     early_stop_patience=250)
    params, _ = run_stage(tc, corpus, params, vocab)
    return params, vocab, corpus


def greedy(params, vocab, acts, max_new_tokens=128):
    """The greedy candidate of one act."""
    cfg = DecodeConfig(n_candidates=1, max_new_tokens=max_new_tokens)
    return generate_candidates(params, vocab, [acts], cfg)[0][0]


def test_greedy_reproduces_memorized(overfit):
    params, vocab, corpus = overfit
    for ex in corpus:
        cand = greedy(params, vocab, ex.acts)
        assert cand.text == ex.response
        assert cand.err == 0.0
        assert cand.token_logprob_mean > -0.5


def test_max_new_tokens_one(overfit):
    params, vocab, corpus = overfit
    ex = corpus.examples[0]
    cand = greedy(params, vocab, ex.acts, max_new_tokens=1)
    assert isinstance(cand, Candidate)
    # at most one token came out, so the text is a strict prefix
    assert ex.response.startswith(cand.text)
    assert cand.text != ex.response


def test_pick_best_selection_rule():
    errs = [0.5, 0.0, 0.25, 0.0, 1.0]
    lps = [-1.0, -2.0, -1.0, -1.5, -1.0]
    cands = [Candidate(f"c{i}", lps[i], errs[i]) for i in range(5)]
    # two err-0 candidates; logprob -1.5 beats -2.0, so index 3 wins
    assert pick_best(cands) == 3
    # pure tie falls back to the earlier index
    tie = [Candidate("a", -1.0, 0.0), Candidate("b", -1.0, 0.0)]
    assert pick_best(tie) == 0


def test_reranked_err_is_min_of_candidates(overfit):
    params, vocab, corpus = overfit
    unseen = act_set("inform", [("name", "zulu")])
    cfg = DecodeConfig(n_candidates=5, max_new_tokens=24, seed=5)
    cands = generate_candidates(params, vocab, [unseen], cfg)[0]
    winner = generate_reranked(params, vocab, unseen, cfg)
    assert winner.err == min(c.err for c in cands)
    assert winner == cands[pick_best(cands)]
    # the reranked output never does worse than the greedy candidate
    assert winner.err <= cands[0].err


def test_single_candidate_equals_greedy(overfit):
    params, vocab, corpus = overfit
    acts = corpus.examples[1].acts
    one = generate_reranked(params, vocab, acts, DecodeConfig(n_candidates=1, max_new_tokens=24))
    assert one == greedy(params, vocab, acts, max_new_tokens=24)
    # candidate 0 of a wider decode is the same greedy text
    first = generate_candidates(params, vocab, [acts], DecodeConfig(max_new_tokens=24))[0][0]
    assert (first.text, first.err) == (one.text, one.err)
    assert abs(first.token_logprob_mean - one.token_logprob_mean) < 1e-5


def test_generation_deterministic(overfit):
    params, vocab, corpus = overfit
    acts_list = [ex.acts for ex in corpus]
    cfg = DecodeConfig(n_candidates=3, max_new_tokens=24, seed=11)
    a = generate_candidates(params, vocab, acts_list, cfg)
    b = generate_candidates(params, vocab, acts_list, cfg)
    assert a == b


def test_batch_greedy_matches_single(overfit):
    params, vocab, corpus = overfit
    acts_list = [ex.acts for ex in corpus]
    cfg = DecodeConfig(n_candidates=2, max_new_tokens=24, seed=3)
    batched = generate_candidates(params, vocab, acts_list, cfg)
    for ex, cands in zip(corpus, batched):
        solo = greedy(params, vocab, ex.acts, max_new_tokens=24)
        assert cands[0].text == solo.text


def test_act_decodes_alike_alone_and_beside_a_long_act(overfit):
    _, vocab, _ = overfit
    cfg = ModelConfig(vocab_size=vocab.size, n_layers=1, n_heads=2, d_model=16,
                      d_ff=32, max_context=57, dropout=0.0)
    params = init_params(cfg, seed=0)
    short = act_set("inform", [("name", "ix")])
    long = act_set("inform", [("name", " ".join(["bloom"] * 44))])
    dc = DecodeConfig(n_candidates=3, max_new_tokens=20, seed=4)
    # one budget for the whole batch would leave the short act fewer tokens
    assert len(encode(vocab, linearize(long))) + 1 + dc.max_new_tokens > cfg.max_context
    solo = generate_candidates(params, vocab, [short], dc)[0]
    batched = generate_candidates(params, vocab, [short, long], dc)[0]
    assert [c.text for c in batched] == [c.text for c in solo]
    for a, b in zip(solo, batched):
        assert abs(a.token_logprob_mean - b.token_logprob_mean) < 1e-5


def test_long_act_lists_decode_in_bounded_sessions(overfit, monkeypatch):
    params, vocab, corpus = overfit
    sessions = []  # the largest row count of each session built

    class Recording(DecodeSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self.B)

        def take(self, index):
            super().take(index)
            sessions[-1] = max(sessions[-1], self.B)

    monkeypatch.setattr(decoding, "DecodeSession", Recording)
    # a 40-act call with five candidates is one session
    cfg = DecodeConfig(n_candidates=5, max_new_tokens=2, seed=1)
    generate_candidates(params, vocab, [ex.acts for ex in corpus] * 10, cfg)
    assert sessions == [200]

    acts_list = [ex.acts for ex in corpus] * 2
    cfg = DecodeConfig(n_candidates=3, max_new_tokens=24, seed=6)
    whole = generate_candidates(params, vocab, acts_list, cfg)
    monkeypatch.setattr(decoding, "MAX_SESSION_ROWS", 7)  # two acts a session
    sessions.clear()
    grouped = generate_candidates(params, vocab, acts_list, cfg)
    assert sessions == [6, 6, 6, 6]
    assert grouped[:2] == generate_candidates(params, vocab, acts_list[:2], cfg)
    # sampled streams stay keyed by each act's index in the whole call
    for a, b in zip(sum(whole, []), sum(grouped, [])):
        assert (a.text, a.err) == (b.text, b.err)
        assert abs(a.token_logprob_mean - b.token_logprob_mean) < 1e-5


def test_generate_corpus_returns_winner_per_act(overfit):
    params, vocab, corpus = overfit
    acts_list = [ex.acts for ex in corpus]
    cfg = DecodeConfig(n_candidates=3, max_new_tokens=24, seed=2)
    winners = generate_corpus(params, vocab, acts_list, cfg)
    assert len(winners) == len(acts_list)
    per_act = generate_candidates(params, vocab, acts_list, cfg)
    for w, cands in zip(winners, per_act):
        assert w == cands[pick_best(cands)]


def test_context_overflow(overfit):
    params, vocab, corpus = overfit
    big = act_set("inform", [("blurb", "word " * 60 + "word")])
    with pytest.raises(ContextOverflowError):
        greedy(params, vocab, big)


def test_select_next_token_strategies():
    rng = np.random.default_rng(0)
    logits = np.array([0.0, 5.0, 1.0, 4.9])
    assert select_next_token(logits, None, 2, 1.0) == 1
    picks = {select_next_token(logits, rng, 2, 1.0) for _ in range(50)}
    assert picks <= {1, 3}  # only the two largest logits are reachable


def _reference_choice(logits, rng, k, temperature):
    # the draw as rng.choice made it, which fixes every sampled RNG stream
    k = min(k, len(logits))
    top = np.argsort(logits)[::-1][:k]
    logp = log_softmax((logits[top] / max(temperature, 1e-6)).astype(np.float64))
    return int(top[rng.choice(k, p=np.exp(logp))])


# (k, temperature) pairs
@pytest.mark.parametrize("strategy", [(1, 1.0), (5, 0.7), (20, 1.0), (100, 1.3)])
def test_sampled_draw_matches_rng_choice(strategy):
    rows = np.random.default_rng(99)
    for seed in range(30):
        logits = (rows.standard_normal(64) * 3).astype(np.float32)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert select_next_token(logits, ours, *strategy) == _reference_choice(
                logits, ref, *strategy
            )


@st.composite
def select_blocks(draw, tie_free=True):
    """(logits [n,V] float32, per-row greedy flags, k, temperature)."""
    V = draw(st.integers(1, 40))
    n = draw(st.integers(1, 6))
    if tie_free:
        value = st.floats(-30, 30, width=32)
        rows = [draw(st.lists(value, min_size=V, max_size=V, unique=True)) for _ in range(n)]
    else:
        rows = [draw(st.lists(st.sampled_from([-1.0, 0.0, 2.0]), min_size=V, max_size=V))
                for _ in range(n)]
    greedy = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    k = draw(st.integers(1, V + 3))
    temperature = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0, 1.7]))
    return np.array(rows, dtype=np.float32), greedy, k, temperature


def _row_rngs(greedy, seed):
    return [None if g else np.random.default_rng((seed, i)) for i, g in enumerate(greedy)]


@given(select_blocks(), st.integers(0, 2**16))
@settings(max_examples=300, deadline=None)
def test_whole_batch_select_matches_per_row_oracle(block, seed):
    logits, greedy, k, temperature = block
    rngs, ref_rngs = _row_rngs(greedy, seed), _row_rngs(greedy, seed)
    picked, logp = select_tokens(logits, rngs, k, temperature)
    for i, row in enumerate(logits):
        ref = select_next_token_reference(row, ref_rngs[i], k, temperature)
        assert picked[i] == ref
        assert logp[i] == log_softmax(row.astype(np.float64))[ref]
        if not greedy[i]:
            assert rngs[i].bit_generator.state == ref_rngs[i].bit_generator.state


@given(select_blocks(tie_free=False), st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_select_with_tied_logits_picks_from_top_k_values(block, seed):
    logits, greedy, k, temperature = block
    first, _ = select_tokens(logits, _row_rngs(greedy, seed), k, temperature)
    again, _ = select_tokens(logits, _row_rngs(greedy, seed), k, temperature)
    assert (first == again).all()
    for i, row in enumerate(logits):
        if greedy[i]:
            assert first[i] == np.argmax(row)
        else:
            assert row[first[i]] >= np.sort(row)[-min(k, len(row))]


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(n_candidates=0)
    with pytest.raises(ValueError):
        DecodeConfig(max_new_tokens=0)
    for top_k in (0, -3):
        with pytest.raises(ValueError, match="top_k"):
            DecodeConfig(top_k=top_k)
    with pytest.raises(ValueError, match="temperature"):
        DecodeConfig(temperature=-0.5)
    DecodeConfig(top_k=1, temperature=0.0)  # the smallest valid values


def test_empty_act_list(overfit):
    params, vocab, _ = overfit
    cfg = DecodeConfig(n_candidates=3, max_new_tokens=8)
    assert generate_candidates(params, vocab, [], cfg) == []
    assert generate_corpus(params, vocab, [], cfg) == []
