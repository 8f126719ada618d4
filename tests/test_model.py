import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgpt.autograd import backward, dropout_mask
from scgpt.bpe import encode, train_bpe
from scgpt.dialog_act import act_set
from scgpt.errors import (
    ConfigMismatchError,
    ContextOverflowError,
    NumericFaultError,
    RangeError,
    UnknownFormatError,
)
from scgpt.model import (
    WINDOW_BLOCK,
    DecodeSession,
    LinearizedExample,
    ModelConfig,
    build_example,
    init_params,
    load_checkpoint,
    nll_loss,
    pad_batch,
    save_checkpoint,
)

import oracles
from gradcheck import fd_gradient, rel_error
from oracles import cross_entropy_masked, forward_logits_reference


@pytest.fixture(scope="module")
def vocab():
    return train_bpe(["the hilton is in the center of town"] * 2, target_vocab_size=280)


def tiny_config(vocab, **kw):
    defaults = dict(
        vocab_size=vocab.size, n_layers=1, n_heads=2, d_model=8, d_ff=16,
        max_context=64, dropout=0.0,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def affine_params(cfg, seed):
    """``init_params`` with random layer-norm gains and biases and non-zero
    ``bqkv`` and ``b1``, so that a decode session that drops or misfolds
    an affine gives other logits."""
    params = init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for name, t in params.named():
        if name.endswith(".gain"):
            t[...] = rng.uniform(0.5, 1.5, t.shape)
        elif name.endswith((".bias", ".bqkv", ".b1")):
            t[...] = rng.normal(0.0, 0.5, t.shape)
    return params


def one_position(ids, t):
    """``ids`` as an example whose loss is position t's prediction alone."""
    return LinearizedExample(tuple(ids), tuple(int(s == t) for s in range(len(ids))))


def _left_pad(seqs, pad_id, T=None):
    """``(ids, positions, keep)`` [B,T] arrays of ``seqs`` left-padded to
    T columns, by default the longest: each row ends at column T-1, its
    tokens take positions 0.., and its PAD slots are False in ``keep``."""
    T = T or max(len(seq) for seq in seqs)
    ids = np.full((len(seqs), T), pad_id)
    pos = np.zeros(ids.shape, dtype=int)
    keep = np.zeros(ids.shape, dtype=bool)
    for r, seq in enumerate(seqs):
        ids[r, T - len(seq) :] = seq
        pos[r, T - len(seq) :] = np.arange(len(seq))
        keep[r, T - len(seq) :] = True
    return ids, pos, keep


def position_loss(params, ids, t):
    """``nll_loss`` of ``one_position(ids, t)``: minus the log-probability
    of ``ids[t+1]`` given ``ids[:t+1]``."""
    return float(nll_loss(params, [one_position(ids, t)])[0])


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, d_model=10, n_heads=3)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=0)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, dropout=1.0)


def test_build_example_layout(vocab):
    acts = act_set("inform", [("name", "hilton")])
    ex = build_example(acts, "the hilton is in the center", vocab)
    L = len(ex.ids)
    bos = ex.ids.index(vocab.bos_id)
    assert ex.ids[-1] == vocab.eos_id
    # mask: zero over the DA prefix, one from BOS through L-2, zero at L-1
    assert all(m == 0 for m in ex.loss_mask[:bos])
    assert all(m == 1 for m in ex.loss_mask[bos : L - 1])
    assert ex.loss_mask[L - 1] == 0


def test_build_example_empty_response(vocab):
    ex = build_example(act_set("bye"), "", vocab)
    assert ex.ids[-2:] == (vocab.bos_id, vocab.eos_id)
    assert sum(ex.loss_mask) == 1  # only the EOS prediction


def test_build_example_overflow(vocab):
    with pytest.raises(ContextOverflowError, match="exceeds"):
        build_example(act_set("inform", [("name", "x")]), "word " * 200, vocab, max_context=32)


def test_build_plain_example(vocab):
    ex = build_example(None, "the hilton", vocab)  # no acts: plain text
    assert ex.ids == (vocab.bos_id, *encode(vocab, "the hilton"), vocab.eos_id)
    assert ex.loss_mask == (1,) * (len(ex.ids) - 1) + (0,)


def test_linearized_example_validation():
    with pytest.raises(ValueError):
        LinearizedExample((1, 2), (0, 0))
    with pytest.raises(ValueError):
        LinearizedExample((1, 2), (1,))
    with pytest.raises(ValueError, match="last position"):
        LinearizedExample((1, 2), (0, 1))


def test_zero_params_uniform(vocab):
    cfg = tiny_config(vocab)
    params = init_params(cfg)
    for _, t in params.named():
        t[...] = 0.0
    ex = build_example(act_set("inform", [("name", "hilton")]), "the hilton", vocab)
    for t in range(len(ex.ids) - 1):
        assert abs(position_loss(params, ex.ids, t) - np.log(cfg.vocab_size)) < 1e-5
    loss, _ = nll_loss(params, [ex])
    assert abs(float(loss) - np.log(cfg.vocab_size)) < 1e-5


def test_forward_rows_are_distributions(vocab):
    # the probabilities of every possible next token at one position sum to 1
    params = init_params(tiny_config(vocab), seed=0)
    ex = build_example(act_set("inform", [("name", "hilton")]), "the hilton", vocab)
    for t in (0, len(ex.ids) - 2):
        context = list(ex.ids[: t + 1])
        total = sum(np.exp(-position_loss(params, context + [j], t))
                    for j in range(vocab.size))
        assert abs(total - 1.0) < 1e-6


def test_causality(vocab):
    # mutating ids[j] leaves the predictions before position j-1 alone (that
    # one predicts ids[j]) and moves those from j on; position 9 predicts
    # the real token ids[10]
    params = init_params(tiny_config(vocab), seed=1)
    ids = list(range(11))
    base = [position_loss(params, ids, t) for t in range(10)]
    for j in [4, 7, 9]:
        mutated = list(ids)
        mutated[j] = (mutated[j] + 17) % 50
        out = [position_loss(params, mutated, t) for t in range(10)]
        assert np.allclose(out[: j - 1], base[: j - 1], atol=1e-6)
        assert not np.allclose(out[j:], base[j:], atol=1e-6)


def test_loss_invariant_to_masked_out_labels(vocab):
    params = init_params(tiny_config(vocab), seed=2)
    ex = build_example(act_set("inform", [("name", "hilton")]), "the hilton", vocab)
    base = float(nll_loss(params, [ex])[0])
    # relabeling targets at mask-0 positions must leave the loss untouched
    ids_arr, mask, keep = pad_batch([ex], vocab.pad_id)
    targets = np.roll(ids_arr, -1, axis=1)
    targets[:, -1] = 0
    logits, _ = forward_logits_reference(params, ids_arr, keep)
    ref = float(cross_entropy_masked(logits, targets, mask).data)
    flipped = targets.copy()
    changed = 0
    for t in range(len(ex.ids)):
        if mask[0, t] == 0:
            flipped[0, t] = (flipped[0, t] + 5) % params.config.vocab_size
            changed += 1
    assert changed > 0
    got = float(cross_entropy_masked(logits, flipped, mask).data)
    assert got == ref == pytest.approx(base, abs=1e-6)


def test_padding_equivalence(vocab):
    # each position's loss of a short example is the same alone as padded
    # beside a longer one
    params = init_params(tiny_config(vocab), seed=3)
    short = build_example(act_set("bye"), "bye", vocab).ids
    long = build_example(act_set("inform", [("name", "hilton")]), "the hilton is here",
                         vocab).ids
    t_long = len(long) - 2
    long_alone = position_loss(params, long, t_long)
    for t in range(len(short) - 1):
        batch = [one_position(short, t), one_position(long, t_long)]
        both = 2 * float(nll_loss(params, batch)[0])
        assert abs(both - long_alone - position_loss(params, short, t)) < 1e-5


def test_gradient_check_with_dropout():
    cfg = ModelConfig(vocab_size=17, n_layers=2, n_heads=2, d_model=8, d_ff=16,
                      max_context=12, dropout=0.3)
    params = init_params(cfg, seed=12, dtype=np.float64)
    batch = [
        LinearizedExample(ids=(3, 9, 1, 14, 7, 2, 15), loss_mask=(0, 0, 0, 1, 1, 1, 0)),
        LinearizedExample(ids=(5, 11, 14, 4, 15), loss_mask=(0, 0, 1, 1, 0)),
    ]

    def loss(params):
        # a fresh generator per evaluation draws the same dropout masks
        return nll_loss(params, batch, rng=np.random.default_rng(3))

    grads = backward(*loss(params))
    worst = {
        name: rel_error(grads[name], fd_gradient(lambda: float(loss(params)[0]), w))
        for name, w in params.named()
    }
    assert max(worst.values()) < 1e-3, worst


def test_nll_loss_chain_has_one_link_per_kernel(vocab):
    params = init_params(tiny_config(vocab, n_layers=2, dropout=0.1), seed=0)
    ex = build_example(act_set("inform", [("name", "hilton")]), "the hilton", vocab)
    _, chain = nll_loss(params, [ex], rng=np.random.default_rng(0))
    kernels = [rule.__qualname__.split(".")[0] for _, rule in chain]
    assert kernels == ["embed"] + ["attention_block", "mlp_block"] * 2 + ["head_loss"]
    assert {name for names, _ in chain for name in names} == set(params.tensors)


def loss_and_grads(params, batch, seed=None):
    """The loss and gradients of the model's kernel chain."""
    rng = None if seed is None else np.random.default_rng(seed)
    loss, chain = nll_loss(params, batch, rng=rng)
    return float(loss), backward(loss, chain)


def dense_loss_and_grads(params, batch, seed=None):
    """The loss and gradients on the per-op reference forward: logits at
    every slot, then the mask."""
    rng = None if seed is None else np.random.default_rng(seed)
    ids, mask, keep = pad_batch(batch, params.config.vocab_size - 1)
    targets = np.roll(ids, -1, axis=1)
    targets[:, -1] = 0
    with oracles.Tape():
        logits, leaves = forward_logits_reference(params, ids, keep, rng=rng)
        loss = cross_entropy_masked(logits, targets, mask)
        oracles.backward(loss)
    return float(loss.data), {n: t.grad for n, t in leaves.items()}


def mixed_batch(vocab_size, lengths, seed):
    """Random examples of the given lengths with random loss masks, each
    ending in 0 as the last position has no target."""
    rng = np.random.default_rng(seed)
    batch = []
    for L in lengths:
        ids = tuple(int(i) for i in rng.integers(0, vocab_size - 1, L))
        mask = rng.integers(0, 2, L)
        mask[rng.integers(0, L - 1)] = 1
        mask[-1] = 0
        batch.append(LinearizedExample(ids, tuple(int(m) for m in mask)))
    return batch


PACKED_TOL = {np.float32: 1e-5, np.float64: 1e-10}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_packed_loss_matches_dense(dtype, dropout):
    # the fused, packed kernels against the per-op taped forward on the
    # padded grid, dropout drawn alike; every example's last target (row
    # L-2) counts, at the edge of its rows; the second batch has no
    # padding, so every example's attention block is the whole [T,T] grid
    cfg = ModelConfig(vocab_size=41, n_layers=2, n_heads=2, d_model=16, d_ff=32,
                      max_context=40, dropout=dropout)
    seed = 3 if dropout else None  # the same generator seed on both layouts
    for lengths in ((5, 23, 9, 2, 31), (17, 17, 17)):
        batch = [LinearizedExample(ex.ids, ex.loss_mask[:-2] + (1, 0))
                 for ex in mixed_batch(cfg.vocab_size, lengths, seed=0)]
        packed = loss_and_grads(init_params(cfg, seed=1, dtype=dtype), batch, seed)
        dense = dense_loss_and_grads(init_params(cfg, seed=1, dtype=dtype), batch, seed)
        assert packed[0] == pytest.approx(dense[0], rel=PACKED_TOL[dtype]), lengths
        worst = {n: rel_error(packed[1][n], dense[1][n]) for n in dense[1]}
        assert max(worst.values()) < PACKED_TOL[dtype], (lengths, worst)


def test_dropout_masks_drawn_at_packed_shapes(monkeypatch):
    # each mask at the shape it is applied to, in draw order: the
    # embeddings' rows, then per layer every example's attention
    # probabilities in batch order and the attention and MLP outputs' rows
    cfg = ModelConfig(vocab_size=41, n_layers=2, n_heads=2, d_model=16, d_ff=32,
                      max_context=40, dropout=0.1)
    lengths = (5, 23, 9)
    shapes = []

    def recording_mask(shape, *args, **kwargs):
        shapes.append(tuple(shape))
        return dropout_mask(shape, *args, **kwargs)

    monkeypatch.setattr("scgpt.autograd.dropout_mask", recording_mask)
    batch = mixed_batch(cfg.vocab_size, lengths, seed=0)
    nll_loss(init_params(cfg, seed=1), batch, rng=np.random.default_rng(0))
    rows = (sum(lengths), cfg.d_model)
    layer = [(cfg.n_heads, L, L) for L in lengths] + [rows, rows]
    assert shapes == [rows] + layer * cfg.n_layers


def test_forward_matches_per_op_oracle():
    # the fused kernels against the per-op taped forward, dropout drawn
    # alike, with a loss at every position that has a target, so the head
    # sees every row but each example's last
    cfg = ModelConfig(vocab_size=23, n_layers=2, n_heads=2, d_model=8, d_ff=16,
                      max_context=12, dropout=0.3)
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size - 1, (3, 9))
    batch = [LinearizedExample(tuple(int(i) for i in row[:L]), (1,) * (L - 1) + (0,))
             for row, L in zip(ids, (7, 4, 9))]
    for seed in (None, 5):
        ours, ours_g = loss_and_grads(init_params(cfg, seed=11, dtype=np.float64), batch, seed)
        ref, ref_g = dense_loss_and_grads(init_params(cfg, seed=11, dtype=np.float64), batch,
                                          seed)
        assert ours == pytest.approx(ref, rel=1e-12)
        worst = {n: rel_error(ours_g[n], ref_g[n]) for n in ref_g}
        assert max(worst.values()) < 1e-10, worst


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_batch_invariant(dtype):
    # each example's summed loss and gradients are the same alone as padded
    # beside longer examples; the batch loss is their mean per loss position
    cfg = ModelConfig(vocab_size=41, n_layers=2, n_heads=2, d_model=16, d_ff=32,
                      max_context=40, dropout=0.0)
    params = init_params(cfg, seed=2, dtype=dtype)
    batch = mixed_batch(cfg.vocab_size, (4, 27, 13), seed=1)
    counts = [sum(ex.loss_mask) for ex in batch]
    loss, grads = loss_and_grads(params, batch)
    alone = [loss_and_grads(params, [ex]) for ex in batch]
    total = sum(counts)
    assert loss * total == pytest.approx(
        sum(n * l for n, (l, _) in zip(counts, alone)), rel=PACKED_TOL[dtype])
    for name, g in grads.items():
        summed = sum(n * gs[name] for n, (_, gs) in zip(counts, alone))
        assert rel_error(g * total, summed) < PACKED_TOL[dtype], name


def test_checkpoint_round_trip(tmp_path, vocab):
    params = init_params(tiny_config(vocab), seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.config == params.config
    for (n1, t1), (n2, t2) in zip(params.named(), loaded.named()):
        assert n1 == n2
        assert np.array_equal(t1, t2)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"not a checkpoint\n")
    with pytest.raises(UnknownFormatError):
        load_checkpoint(p)


def test_checkpoint_rejects_truncation(tmp_path, vocab):
    params = init_params(tiny_config(vocab), seed=6)
    p = tmp_path / "model.ckpt"
    save_checkpoint(params, p)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) - 50])
    with pytest.raises(ConfigMismatchError):
        load_checkpoint(p)


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_checkpoint_rejects_non_finite_tensors(tmp_path, vocab, value):
    params = init_params(tiny_config(vocab), seed=6)
    params["layers.0.mlp.w1"][3, 2] = value
    p = tmp_path / "model.ckpt"
    save_checkpoint(params, p)
    with pytest.raises(NumericFaultError, match=r"layers\.0\.mlp\.w1"):
        load_checkpoint(p)


#: The last tensor of a tiny_config checkpoint: zero biases, then newline.
CKPT_TAIL = b"lnf.bias 8\n" + bytes(4 * 8) + b"\n"


@pytest.mark.parametrize(
    "old,new",
    [
        (b"n_layers=1", b"n_layers=x"),  # not an int
        (b"dropout=0.0", b"dropout=0.0 colour=red"),  # unknown field
        (b"n_layers=1", b"n_layers=0"),  # refused by ModelConfig
        (b" dropout=0.0", b""),  # missing field
        (b"layers.0.ln1.gain 8", b"layers.0.ln1.gain x"),  # bad tensor shape
        pytest.param(b"\nlnf.bias 8", b"Xlnf.bias 8", id="separator-X"),
        pytest.param(CKPT_TAIL, CKPT_TAIL + b"\n", id="byte-after-last-tensor"),
        pytest.param(CKPT_TAIL, CKPT_TAIL[:-1] + b"X" + CKPT_TAIL, id="last-separator-X"),
    ],
)
def test_checkpoint_rejects_corrupt_metadata(tmp_path, vocab, old, new):
    p = tmp_path / "model.ckpt"
    save_checkpoint(init_params(tiny_config(vocab), seed=6), p)
    data = p.read_bytes()
    assert data.count(old) == 1
    p.write_bytes(data.replace(old, new))
    with pytest.raises(ConfigMismatchError, match=re.escape(str(p))):
        load_checkpoint(p)


# 1-2 rows take numpy's gemv path through the head, 3 and more its gemm path
@pytest.mark.parametrize("rows", [1, 2, 3, 5])
def test_decode_session_matches_full_forward(vocab, rows):
    cfg = tiny_config(vocab, n_layers=2, d_model=16, d_ff=32)
    params = affine_params(cfg, seed=7)
    ex = build_example(act_set("inform", [("name", "hilton")]), "the hilton", vocab)
    ids = np.array([np.roll(ex.ids, r) for r in range(rows)])  # distinct rows
    keep = np.ones_like(ids, dtype=bool)
    full = forward_logits_reference(params, ids, keep)[0].data

    T = ids.shape[1]
    sess = DecodeSession(params, max_len=T)
    T0 = T - 3
    pre = sess.append(ids[:, :T0], np.tile(np.arange(T0), (rows, 1)), keep[:, :T0])
    assert np.abs(pre - full[:, T0 - 1]).max() < 1e-5
    for t in range(T0, T):
        logits = sess.append(ids[:, t : t + 1], np.full((rows, 1), t), keep[:, :1])
        assert np.abs(logits - full[:, t]).max() < 1e-5


def test_decode_session_left_padding(vocab):
    cfg = tiny_config(vocab, n_layers=2, d_model=16, d_ff=32)
    params = affine_params(cfg, seed=8)
    a = build_example(act_set("bye"), "", vocab)
    b = build_example(act_set("inform", [("name", "hilton")]), "", vocab)
    ids, pos, keep = _left_pad([a.ids, b.ids], vocab.pad_id)
    sess = DecodeSession(params, max_len=ids.shape[1])
    batched = sess.append(ids, pos, keep)

    for row, ex in enumerate([a, b]):
        solo = forward_logits_reference(
            params,
            np.array([ex.ids]),
            np.ones((1, len(ex.ids)), dtype=bool),
        )[0].data[0, -1]
        assert np.abs(batched[row] - solo).max() < 1e-5


def test_decode_session_take(vocab):
    cfg = tiny_config(vocab, n_layers=2, d_model=16, d_ff=32)
    params = affine_params(cfg, seed=10)
    a = build_example(act_set("bye"), "", vocab).ids
    b = build_example(act_set("inform", [("name", "hilton")]), "", vocab).ids
    T = max(len(a), len(b))

    def prefill(rows):
        sess = DecodeSession(params, max_len=T + 2)
        sess.append(*_left_pad(rows, vocab.pad_id))
        return sess

    def step(sess, rows, t):
        B = len(rows)
        pos = np.array([[len(row) + t] for row in rows])
        return sess.append(np.full((B, 1), 5), pos, np.ones((B, 1), dtype=bool))

    gathered = prefill([a, b])
    gathered.take([0, 0, 1])
    direct = prefill([a, a, b])
    assert np.abs(step(gathered, [a, a, b], 0) - step(direct, [a, a, b], 0)).max() < 1e-5
    # dropping a row leaves the other rows' logits unchanged
    kept = step(direct, [a, a, b], 1)
    gathered.take([0, 2])
    assert np.abs(step(gathered, [a, b], 1) - kept[[0, 2]]).max() < 1e-5


def test_decode_session_windows_match_full_forward(vocab):
    cfg = tiny_config(vocab, n_layers=2, d_model=16, d_ff=32, max_context=128)
    params = affine_params(cfg, seed=11)
    rng = np.random.default_rng(3)
    # first kept columns 0, 10, 40, 45, 78, 85: two rows in each of three blocks
    lengths = [90, 80, 50, 45, 12, 5]
    seqs = [list(rng.integers(0, vocab.size, L)) for L in lengths]
    ids, pos, keep = _left_pad(seqs, vocab.pad_id)
    sess = DecodeSession(params, max_len=ids.shape[1] + 4)
    sess.append(ids, pos, keep)
    assert [w[0] for w in sess._windows] == [slice(0, 2), slice(2, 4), slice(4, 6)]

    def step(rows):
        new = rng.integers(0, vocab.size, len(rows))
        for r, tok in zip(rows, new):
            seqs[r].append(tok)
        positions = np.array([[len(seqs[r]) - 1] for r in rows])
        logits = sess.append(new[:, None], positions, np.ones((len(rows), 1), dtype=bool))
        for got, r in zip(logits, rows):
            seq = np.array([seqs[r]])
            full = forward_logits_reference(params, seq, np.ones(seq.shape, dtype=bool))
            assert np.abs(got - full[0].data[0, -1]).max() < 1e-5

    rows = list(range(len(seqs)))
    step(rows)
    step(rows)
    # dropping rows keeps each remaining group contiguous and in order
    sess.take([0, 2, 3, 5])
    rows = [0, 2, 3, 5]
    assert [w[0] for w in sess._windows] == [slice(0, 1), slice(1, 3), slice(3, 4)]
    step(rows)
    sess.take([1, 2])  # both left rows in one block: one window
    rows = [2, 3]
    assert [w[0] for w in sess._windows] == [slice(0, 2)]
    step(rows)


def test_decode_session_refuses_masks_other_than_left_padding(vocab):
    params = init_params(tiny_config(vocab), seed=12)
    prefix = list(np.random.default_rng(4).integers(0, vocab.size, 6))
    L = len(prefix)

    def prefilled():
        sess = DecodeSession(params, max_len=L + 4)
        sess.append(*_left_pad([prefix, prefix], vocab.pad_id))
        return sess

    assert prefilled()._windows == [(slice(0, 2), 0, None)]  # no padding: no key bias
    ids, pos, keep = _left_pad([prefix, prefix[:3]], vocab.pad_id)
    for row, cols in [(0, 2), (1, slice(None))]:  # a False after a True; no True
        bad = keep.copy()
        bad[row, cols] = False
        with pytest.raises(ValueError, match="prefill"):
            DecodeSession(params, max_len=L + 4).append(ids, pos, bad)
    step_ids, step_pos = np.full((2, 1), 5), np.full((2, 1), L)
    with pytest.raises(ValueError, match="one kept column"):  # a masked step
        prefilled().append(step_ids, step_pos, np.array([[True], [False]]))
    with pytest.raises(ValueError, match="one kept column"):  # two columns
        prefilled().append(np.full((2, 2), 5), np.tile([L, L + 1], (2, 1)),
                           np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="holds 2 rows"):  # not the prefill's rows
        prefilled().append(np.full((3, 1), 5), np.full((3, 1), L), np.ones((3, 1), bool))


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_decode_session_masks_follow_each_row_through_take(vocab, data):
    cfg = tiny_config(vocab, n_layers=2, d_model=16, d_ff=32, max_context=80)
    params = affine_params(cfg, seed=13)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    # first kept columns 0 and 65 put rows in at least two 32-column blocks
    lengths = data.draw(st.permutations(
        [70, 5] + data.draw(st.lists(st.integers(1, 70), max_size=3), label="more")))
    seqs = [list(rng.integers(0, vocab.size, L)) for L in lengths]
    sess = DecodeSession(params, max_len=72)
    sess.append(*_left_pad(seqs, vocab.pad_id))
    index = data.draw(st.lists(st.integers(0, len(seqs) - 1), min_size=1,
                               max_size=2 * len(seqs)), label="index")
    sess.take(index)  # repeats, reorders and drops rows
    seqs = [list(seqs[r]) for r in index]
    for _ in range(2):
        new = rng.integers(0, vocab.size, len(seqs))
        positions = np.array([[len(seq)] for seq in seqs])
        logits = sess.append(new[:, None], positions, np.ones((len(seqs), 1), dtype=bool))
        for got, seq, tok in zip(logits, seqs, new):
            seq.append(tok)
            full = forward_logits_reference(params, np.array([seq]), np.ones((1, len(seq)), bool))
            assert np.abs(got - full[0].data[0, -1]).max() < 1e-5


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_decode_session_prefills_each_row_as_it_would_alone(vocab, data):
    T = 5 * WINDOW_BLOCK
    cfg = tiny_config(vocab, n_layers=2, d_model=16, d_ff=32, max_context=T)
    params = affine_params(cfg, seed=14)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    # 1-5 rows, each first kept column in a block of its own, each row of 2 tokens or more
    blocks = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
                       label="blocks")
    firsts = [data.draw(st.integers(b * WINDOW_BLOCK, min((b + 1) * WINDOW_BLOCK, T - 1) - 1))
              for b in blocks]
    seqs = [list(rng.integers(0, vocab.size, T - first)) for first in firsts]
    sess = DecodeSession(params, max_len=T)
    logits = sess.append(*_left_pad(seqs, vocab.pad_id, T))
    for r, seq in enumerate(seqs):
        L = len(seq)
        alone = DecodeSession(params, max_len=L)
        alone.append(*_left_pad([seq], vocab.pad_id))
        for packed, solo in [(sess._k, alone._k), (sess._v, alone._v)]:
            assert np.array_equal(packed[:, r, :, T - L :], solo[:, 0])
        full = forward_logits_reference(params, np.array([seq]), np.ones((1, L), bool))
        assert np.abs(logits[r] - full[0].data[0, -1]).max() < 1e-5


@pytest.mark.parametrize("bad", [-1, None])  # None: the vocabulary size
def test_decode_session_rejects_token_ids_outside_the_vocabulary(vocab, bad):
    params = init_params(tiny_config(vocab), seed=9)
    bad = vocab.size if bad is None else bad
    sess = DecodeSession(params, max_len=4)
    with pytest.raises(RangeError, match="token ids"):
        sess.append(np.array([[3, bad]]), np.arange(2)[None, :], np.ones((1, 2), bool))
    sess.append(np.array([[3, 4]]), np.arange(2)[None, :], np.ones((1, 2), bool))
    with pytest.raises(RangeError, match="token ids"):
        sess.append(np.array([[bad]]), np.array([[2]]), np.ones((1, 1), bool))


def test_decode_session_rejects_arrays_of_different_shapes(vocab):
    params = init_params(tiny_config(vocab), seed=9)
    ids, pos, keep = np.zeros((1, 3), int), np.arange(3)[None, :], np.ones((1, 3), bool)
    for args in [(ids, pos[:, :1], keep), (ids, pos, keep[:, 1:]), (ids[0], pos[0], keep[0])]:
        with pytest.raises(ValueError, match="one \\[B,T\\] shape"):
            DecodeSession(params, max_len=4).append(*args)


def test_decode_session_rejects_negative_positions(vocab):
    params = init_params(tiny_config(vocab), seed=9)
    sess = DecodeSession(params, max_len=4)
    with pytest.raises(RangeError, match="negative"):
        sess.append(np.zeros((1, 2), int), np.array([[-1, 0]]), np.ones((1, 2), bool))
    sess.append(np.zeros((1, 2), int), np.arange(2)[None, :], np.ones((1, 2), bool))
    with pytest.raises(RangeError, match="negative"):
        sess.append(np.zeros((1, 1), int), np.array([[-1]]), np.ones((1, 1), bool))


def test_decode_session_overflow(vocab):
    params = init_params(tiny_config(vocab, max_context=8), seed=9)
    # the buffer may be wider than max_context, but no position may reach it
    sess = DecodeSession(params, max_len=9)
    sess.append(np.zeros((1, 8), int), np.arange(8)[None, :], np.ones((1, 8), bool))
    with pytest.raises(ContextOverflowError):
        sess.append(np.zeros((1, 1), int), np.array([[8]]), np.ones((1, 1), bool))
    sess = DecodeSession(params, max_len=4)
    sess.append(np.zeros((1, 4), int), np.arange(4)[None, :], np.ones((1, 4), bool))
    with pytest.raises(ContextOverflowError):
        sess.append(np.zeros((1, 1), int), np.array([[4]]), np.ones((1, 1), bool))
