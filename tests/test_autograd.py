import ast
from pathlib import Path

import numpy as np
import pytest

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
            nll_loss(params, [LinearizedExample(ids=(0, 3), loss_mask=(1, 0))])


def test_shape_mismatch_message_has_both_shapes():
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
        ref.matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))


def test_embed_lookup_range_check():
    # the model's embedding kernel checks ids against the vocabulary
    params = init_params(ModelConfig(vocab_size=4, n_layers=1, n_heads=1, d_model=2,
                                     d_ff=4, max_context=8, dropout=0.0))
    nll_loss(params, [LinearizedExample(ids=(0, 3), loss_mask=(1, 0))])
    for bad in (4, -1):
        with pytest.raises(RangeError, match=r"^token ids outside \[0, 4\) of tok_emb"):
            nll_loss(params, [LinearizedExample(ids=(0, bad), loss_mask=(1, 0))])


def test_embed_position_range_check():
    # every id is valid; the 12-token sequence overflows the 8 positions
    params = init_params(ModelConfig(vocab_size=4, n_layers=1, n_heads=1, d_model=2,
                                     d_ff=4, max_context=8, dropout=0.0))
    nll_loss(params, [LinearizedExample(ids=(1,) * 8, loss_mask=(1,) * 7 + (0,))])
    with pytest.raises(RangeError, match=r"^positions outside \[0, 8\) of pos_emb"):
        nll_loss(params, [LinearizedExample(ids=(1,) * 12, loss_mask=(1,) * 11 + (0,))])


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


ROOT = Path(__file__).resolve().parents[1]


def _defined(stmt) -> set:
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _references(path: Path, module: str) -> set:
    """Names of ``scgpt.<module>`` the file at path refers to: imported
    from it, or looked up on a name it is imported as."""
    tree = ast.parse(path.read_text())
    aliases, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"scgpt.{module}"):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "scgpt"):
            aliases |= {a.asname or a.name for a in node.names if a.name == module}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add(node.attr)
    return found


def _wrapped_sites() -> dict:
    """{module: attribute names} of the lookup sites that ``WRAP_SITES``
    in ``perfbench/tracer.py`` lists."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    sites = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _defined(stmt) == {"WRAP_SITES"}:
            for site in stmt.value.elts:
                module, attr = site.elts[:2]
                sites.setdefault(module.id, set()).add(attr.value)
    return sites


#: The modules whose public names need a caller.  ``synthetic`` is left
#: out: only tests call ``copy_task_grammars``.
CHECKED_MODULES = sorted(
    p.stem for p in (ROOT / "src" / "scgpt").glob("*.py") if p.stem != "synthetic"
)


def test_every_public_autograd_name_has_a_caller():
    # the package, the benchmark or a demo uses each public name of every
    # module of scgpt but synthetic; the ops, tape and errors only the
    # tests need live in tests/oracles.py.  A name the tracer wraps counts
    # as used.
    wrapped = _wrapped_sites()
    unused = {}
    for name in CHECKED_MODULES:
        module = ROOT / "src" / "scgpt" / f"{name}.py"
        tree = ast.parse(module.read_text())
        public = {n for stmt in tree.body for n in _defined(stmt) if not n.startswith("_")}
        used = {  # inside the module, outside each name's own definition
            node.id
            for stmt in tree.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and node.id not in _defined(stmt)
        } | wrapped.get(name, set())
        for folder in ("src", "perfbench", "demos"):
            for path in (ROOT / folder).rglob("*.py"):
                if path != module:
                    used |= _references(path, name)
        unused[name] = sorted(public - used)
    assert unused == {name: [] for name in CHECKED_MODULES}
