"""Every name a test patches on a radsum module is one the package reads.

A test that forces a branch or spies on a helper patches a module
attribute (``mock.patch.object``, ``mock.patch.multiple``, ``mock.patch``
with a dotted path, ``monkeypatch.setattr``).  Once the code stops reading
that name from that module, the patch changes nothing and the test passes
without testing anything.  These tests read ``tests/*.py`` with ``ast``,
resolve each patch's module and name (string literals, and names bound by a
``for`` over literals or by ``pytest.mark.parametrize``), and check that
the module's source reads the name as a global, or that another radsum
module reads it as an attribute of its import of that module.
"""

from __future__ import annotations

import ast
import importlib
import types
from functools import cache
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "radsum"


def _strings(node) -> list | None:
    """The strings of a literal string, or of a tuple or list of them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List)) and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
        return [e.value for e in node.elts]
    return None


def _parametrized(func: ast.FunctionDef, name: str) -> list | None:
    """The values ``pytest.mark.parametrize`` gives ``name`` on ``func``, when
    all are string literals."""
    for deco in func.decorator_list:
        if not (isinstance(deco, ast.Call) and isinstance(deco.func, ast.Attribute) and deco.func.attr == "parametrize"):
            continue
        names = [n.strip() for n in deco.args[0].value.split(",")]
        if name not in names:
            continue
        at, values = names.index(name), []
        for case in deco.args[1].elts:
            if isinstance(case, ast.Call):  # pytest.param(...)
                case = ast.Tuple(elts=case.args)
            value = case.elts[at] if len(names) > 1 else case
            if not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
                return None
            values.append(value.value)
        return values
    return None


def _names(node, scopes: list) -> list | None:
    """The attribute names a patch's name argument takes."""
    found = _strings(node)
    if found is not None or not isinstance(node, ast.Name):
        return found
    for scope in reversed(scopes):
        if isinstance(scope, ast.For) and isinstance(scope.target, ast.Name) and scope.target.id == node.id:
            return _strings(scope.iter)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found = _parametrized(scope, node.id)
            if found is not None:
                return found
    return None


def _module_aliases(tree: ast.Module) -> dict:
    """Local name -> dotted radsum module path, from every import in a test file."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "radsum":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "radsum":
                    aliases[alias.asname or alias.name.split(".")[0]] = alias.name if alias.asname else "radsum"
    return aliases


def _resolve(node, aliases: dict):
    """The object a patch target expression names, or None when it is not
    built from a radsum import."""
    if isinstance(node, ast.Name):
        path = aliases.get(node.id)
        if path is None:
            return None
        module, _, attr = path.rpartition(".")
        try:
            return importlib.import_module(path)
        except ImportError:
            return getattr(importlib.import_module(module), attr, None)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, aliases)
        return None if base is None else getattr(base, node.attr, None)
    return None


def _patches(path: Path):
    """``(line, module, name)`` for each patch of a radsum module attribute in
    one test file, ``name`` None where it could not be resolved."""
    tree = ast.parse(path.read_text(), str(path))
    aliases = _module_aliases(tree)
    found = []

    def visit(node, scopes):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            kind, owner = node.func.attr, node.func.value
            owner_name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            targets = []
            if kind == "setattr" and owner_name == "monkeypatch" and len(node.args) >= 2:
                targets = [(node.args[0], node.args[1])]
            elif kind == "object" and owner_name == "patch" and len(node.args) >= 2:
                targets = [(node.args[0], node.args[1])]
            elif kind == "multiple" and owner_name == "patch" and node.args:
                targets = [(node.args[0], ast.Constant(k.arg)) for k in node.keywords if k.arg]
            elif kind == "patch" and owner_name == "mock" and node.args:
                dotted = _strings(node.args[0])
                if dotted and dotted[0].startswith("radsum."):
                    module, _, name = dotted[0].rpartition(".")
                    found.append((node.lineno, importlib.import_module(module), name))
            for target, name in targets:
                module = _resolve(target, aliases)
                if isinstance(module, types.ModuleType) and module.__name__.split(".")[0] == "radsum":
                    names = _names(name, scopes)
                    for each in names if names is not None else [None]:
                        found.append((node.lineno, module, each))
        inner = scopes + [node] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.For)) else scopes
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, [])
    return found


@cache
def _reads() -> dict:
    """Per radsum module name, the names its source reads: every global
    name it loads, and every attribute another package module loads off
    its import of that module (``engine.sum_distribution`` in ``cli``)."""
    reads = {}
    for source in sorted(PACKAGE.glob("*.py")):
        module = "radsum" if source.stem == "__init__" else f"radsum.{source.stem}"
        tree = ast.parse(source.read_text(), str(source))
        reads.setdefault(module, set()).update(
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        )
        imported = {}  # local name -> module, for ``from . import engine``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
                for alias in node.names:
                    imported[alias.asname or alias.name] = f"radsum.{alias.name}"
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in imported
            ):
                reads.setdefault(imported[node.value.id], set()).add(node.attr)
    return reads


def _all_patches():
    return [(path.name, line, module, name) for path in sorted(TESTS.glob("*.py")) for line, module, name in _patches(path)]


def test_every_patched_name_is_read():
    patches = _all_patches()
    assert len(patches) > 50  # the scan finds the suite's patches
    unresolved = [f"{file}:{line}" for file, line, _, name in patches if name is None]
    assert not unresolved, f"patches whose name the scan cannot resolve: {unresolved}"
    unread = [
        f"{file}:{line} patches {module.__name__}.{name}"
        for file, line, module, name in patches
        if name not in _reads()[module.__name__]
    ]
    assert not unread, "patches of names the package no longer reads: " + "; ".join(unread)


@pytest.mark.parametrize(
    "source, caught",
    [
        ("from radsum import engine\nmock.patch.object(engine, '_no_such_name', 0)", True),
        ("from radsum import engine\nmock.patch.multiple(engine, _DENSE_FLOOR=0, _no_such_name=0)", True),
        ("import radsum.engine as eng\ndef t(monkeypatch):\n    monkeypatch.setattr(eng, '_no_such_name', 0)", True),
        ("from radsum import engine\nfor name in ('_DENSE_RATIO', '_no_such_name'):\n    monkeypatch.setattr(engine, name, 0)", True),
        ("mock.patch('radsum.engine._no_such_name', 0)", True),
        ("from radsum import cli\nmonkeypatch.setattr(cli.engine, 'sum_distribution', None)", False),
        ("from radsum import engine\nmock.patch.object(engine, '_dense_fits', None)", False),
    ],
)
def test_a_patch_on_an_unread_name_is_caught(tmp_path, source, caught):
    """The scan itself: a patch on a name nothing reads is reported, one on
    a name the package reads (directly or off its module import) is not."""
    path = tmp_path / "test_rigged.py"
    path.write_text(source + "\n")
    patches = _patches(path)
    assert patches and all(name is not None for _, _, name in patches)
    assert any(name not in _reads()[module.__name__] for _, module, name in patches) == caught
