import numpy as np
import pytest

from scgpt.autograd import layernorm_kernel
from scgpt.errors import NumericFaultError, RangeError, ShapeMismatchError
from scgpt.model import LinearizedExample, ModelConfig, init_params, nll_loss

import oracles as ref
from oracles import NonScalarLossError, Tape, backward, constant, param


def test_sum_of_squares_gradient():
    w = param(np.array([1.0, 2.0]))
    with Tape():
        loss = ref.sum_all(ref.mul(w, w))
        backward(loss)
    assert np.allclose(w.grad, [2.0, 4.0])


def test_softmax_uniform_row():
    out = ref.softmax_lastdim(constant(np.zeros(3)))
    assert np.allclose(out.data, [1 / 3] * 3)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = ref.softmax_lastdim(constant(rng.standard_normal((4, 7)) * 10))
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


def test_layernorm_constant_row_is_zero_pre_affine():
    x = constant(np.full((2, 5), 3.7))
    out = ref.layernorm(x, constant(np.ones(5)), constant(np.zeros(5)))
    assert np.allclose(out.data, 0.0)


def test_layernorm_statistics():
    rng = np.random.default_rng(1)
    x = constant(rng.standard_normal((6, 16)))
    out = ref.layernorm(x, constant(np.ones(16)), constant(np.zeros(16)))
    assert np.abs(out.data.mean(axis=-1)).max() < 1e-5
    assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layernorm_kernel_without_affine_has_unit_affine_bits(dtype):
    x = np.random.default_rng(3).standard_normal((7, 16)).astype(dtype)
    plain = layernorm_kernel(x, None, None)[0]
    unit = layernorm_kernel(x, np.ones(16, dtype), np.zeros(16, dtype))[0]
    assert plain.dtype == unit.dtype == dtype
    assert plain.tobytes() == unit.tobytes()


def test_cross_entropy_all_masked_out():
    logits = param(np.random.default_rng(2).standard_normal((2, 3, 5)))
    targets = np.zeros((2, 3), dtype=int)
    with Tape():
        loss = ref.cross_entropy_masked(logits, targets, np.zeros((2, 3)))
        backward(loss)
    assert loss.data == 0.0
    assert np.allclose(logits.grad, 0.0)


def test_cross_entropy_uniform_logits():
    logits = constant(np.zeros((1, 4, 11)))
    targets = np.arange(4)[None, :] % 11
    loss = ref.cross_entropy_masked(logits, targets, np.ones((1, 4)))
    assert loss.data == pytest.approx(np.log(11), abs=1e-7)


def test_non_scalar_loss_rejected():
    w = param(np.array([1.0, 2.0]))
    with Tape():
        out = ref.mul(w, w)
        with pytest.raises(NonScalarLossError):
            backward(out)


def test_numeric_fault_on_overflow():
    with np.errstate(over="ignore"):
        with pytest.raises(NumericFaultError):
            ref.scale(constant(np.array([1e308])), 1e10)


@pytest.mark.parametrize("name,value", [("tok_emb", np.inf), ("layers.0.attn.bqkv", 1e38)])
def test_nll_loss_numeric_fault(name, value):
    # the model's own per-kernel check: inf in the embeddings, and an
    # overflow of q.k in the float32 attention scores
    params = init_params(ModelConfig(vocab_size=4, n_layers=1, n_heads=1, d_model=2,
                                     d_ff=4, max_context=8, dropout=0.0))
    params[name][...] = value
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericFaultError):
            nll_loss(params, [LinearizedExample(ids=(0, 3), bos=0)])


def test_shape_mismatch_message_has_both_shapes():
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
        ref.matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))


def test_embed_lookup_range_check():
    # the model's embedding kernel checks ids against the vocabulary
    params = init_params(ModelConfig(vocab_size=4, n_layers=1, n_heads=1, d_model=2,
                                     d_ff=4, max_context=8, dropout=0.0))
    nll_loss(params, [LinearizedExample(ids=(0, 3), bos=0)])
    for bad in (4, -1):
        with pytest.raises(RangeError, match=r"^token ids outside \[0, 4\) of tok_emb"):
            nll_loss(params, [LinearizedExample(ids=(0, bad), bos=0)])


def test_embed_position_range_check():
    # every id is valid; the 12-token sequence overflows the 8 positions
    params = init_params(ModelConfig(vocab_size=4, n_layers=1, n_heads=1, d_model=2,
                                     d_ff=4, max_context=8, dropout=0.0))
    nll_loss(params, [LinearizedExample(ids=(1,) * 8, bos=0)])
    with pytest.raises(RangeError, match=r"^positions outside \[0, 8\) of pos_emb"):
        nll_loss(params, [LinearizedExample(ids=(1,) * 12, bos=0)])


def test_diamond_fanout_accumulates():
    w = param(np.array([3.0]))
    c1, c2 = constant(np.array([2.0])), constant(np.array([5.0]))
    with Tape():
        loss = ref.sum_all(ref.add(ref.mul(w, c1), ref.mul(w, c2)))
        backward(loss)
    assert np.allclose(w.grad, [7.0])


def test_dropout_zero_rate_is_identity_and_scaling():
    x = constant(np.ones((100,)))
    assert ref.dropout(x, 0.0, np.random.default_rng(0)) is x
    out = ref.dropout(x, 0.5, np.random.default_rng(0))
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 2.0)  # inverted scaling keeps expectation


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass
