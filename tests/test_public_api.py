"""The package ships only names that the CLI, the benchmark or a demo use."""

import ast
from pathlib import Path

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


#: Public names with no caller but ``perfbench/tracer.py``, which wraps
#: them by name.  ``model.pad_batch`` moves to ``tests/oracles.py`` once
#: the benchmark reads the package's own hooks (ROADMAP item 2 PR b).
EXEMPT = {"model": {"pad_batch"}}


#: The modules whose public names need a caller: every module of scgpt.
CHECKED_MODULES = sorted(p.stem for p in (ROOT / "src" / "scgpt").glob("*.py"))


def test_every_public_name_has_a_caller():
    # the package, the benchmark or a demo uses each public name of every
    # module of scgpt; what only the tests need lives under tests/ (the
    # autograd ops and tape in oracles.py, the copy-task grammars in
    # copy_task.py).  A name in EXEMPT counts as used.
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
        } | EXEMPT.get(name, set())
        for folder in ("src", "perfbench", "demos"):
            for path in (ROOT / folder).rglob("*.py"):
                if path != module:
                    used |= _references(path, name)
        unused[name] = sorted(public - used)
    assert unused == {name: [] for name in CHECKED_MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_uses_another_modules_private_names():
    # what one module of scgpt takes from another is public there: no
    # underscore name is imported from, or looked up on, another module
    found = []
    for path in sorted((ROOT / "src" / "scgpt").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # names this file imports a module of scgpt as
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "scgpt"):
                found += [f"{path.stem}: {a.name}" for a in node.names if _private(a.name)]
                if node.module in (None, "scgpt"):
                    modules |= {a.asname or a.name for a in node.names}
        found += [
            f"{path.stem}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)
        ]
    assert found == []


def test_no_module_imports_a_name_it_does_not_use():
    # every name a module of scgpt imports is looked up in it; a
    # ``from __future__`` import is a compiler directive, not a name
    unused = []
    for path in sorted((ROOT / "src" / "scgpt").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}: {name}" for name in sorted(imported - used)]
    assert unused == []
