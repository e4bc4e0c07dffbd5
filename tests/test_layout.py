"""What belongs in src/sympol: code the package itself runs.

The commands, the verify suites, sympol.__all__ and the names the
benchmark's tracer pins are the roots; every other function and method
under src/sympol must be reached from them.  Routes that only the tests
call live in tests/oracles.py, which no module under src/ imports.
"""

import ast
import importlib
import inspect
from operator import attrgetter
from pathlib import Path

import pytest

import sympol

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sympol"
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_table(name):
    """The TARGETS or MEMOS tuple of the tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACER.name} defines no {name}")


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _is_suite_runner(fn):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_suite"
        for d in fn.decorator_list
    )


def _overrides_base(module, cls_name, name):
    cls = getattr(importlib.import_module(f"sympol.{module}"), cls_name)
    return any(hasattr(base, name) for base in inspect.getmro(cls)[1:])


def _definitions(modules):
    """{(module, qualified name): node} of top-level functions and methods."""
    defs = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[module, node.name] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[module, f"{node.name}.{item.name}"] = item
    return defs


def _roots(defs):
    pinned = {attr for _, attr, _ in _tracer_table("TARGETS") + _tracer_table("MEMOS")}
    roots = set()
    for (module, qual), node in defs.items():
        name = qual.rpartition(".")[2]
        if (
            qual in pinned
            or qual in sympol.__all__
            or (name.startswith("__") and name.endswith("__"))
            or _is_suite_runner(node)
            or ("." in qual and _overrides_base(module, qual.partition(".")[0], name))
        ):
            roots.add((module, qual))
    return roots


def _references(node, skip=()):
    """({Name ids}, {Attribute attrs}) in node, outside the nodes in skip."""
    names, attrs = set(), set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur in skip:
            continue
        if isinstance(cur, ast.Name):
            names.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            attrs.add(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return names, attrs


def unreached_definitions():
    """Sorted 'module.qualname' of every definition nothing reaches.

    Grows the unreached set to a fixed point: a top-level function is
    reached when a Name or Attribute reference to it appears outside
    itself and the definitions already found unreached, a method when an
    Attribute reference does.  Code outside every definition (imports,
    module constants, class bodies) always counts.
    """
    modules = _modules()
    defs = _definitions(modules)
    roots = _roots(defs)
    refs = {key: _references(node) for key, node in defs.items()}
    inside = set(defs.values())
    outside = [_references(tree, inside) for tree in modules.values()]
    unreached = set()
    while True:
        found = set()
        for key in defs.keys() - roots - unreached:
            live = [r for k, r in refs.items() if k != key and k not in unreached] + outside
            qual = key[1]
            name = qual.rpartition(".")[2]
            if not any(name in a or ("." not in qual and name in n) for n, a in live):
                found.add(key)
        if not found:
            return sorted(f"{m}.{q}" for m, q in unreached)
        unreached |= found


def test_every_src_definition_is_reached():
    unreached = unreached_definitions()
    assert not unreached, (
        "defined under src/sympol but reached by no command, suite, export or "
        "tracer pin (move it to tests/oracles.py): " + ", ".join(unreached)
    )


@pytest.mark.parametrize("table", ["TARGETS", "MEMOS"])
def test_tracer_pins_resolve(table):
    for module, attr, _ in _tracer_table(table):
        obj = attrgetter(attr)(importlib.import_module(module))
        if table == "MEMOS":
            assert callable(obj.cache_info), (module, attr)


def test_src_imports_no_test_code():
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top not in {"tests", "oracles", "conftest"}, (module, name)
