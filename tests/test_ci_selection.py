"""CI's ``python -O`` step selects every test that expects a
``SoundnessError``.

The package's invariants are ``SoundnessError``s, not asserts, so that
``python -O`` keeps them; the workflow's ``python -O`` step runs only the
tests its ``-k`` expression selects.  These tests read that expression from
``.github/workflows/tests.yml``, find with ``ast`` every test in
``tests/*.py`` that calls ``pytest.raises(SoundnessError, ...)``, and check
that the expression selects each by its node id, as pytest's ``-k`` does:
a case-insensitive substring match of any term.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tests.yml"


def optimized_terms(workflow: str) -> list[str]:
    """The terms of the ``-k`` expression of the workflow's ``python -O``
    step, which must join plain names with ``or``."""
    [expression] = re.findall(r'^[\s-]*run: python -O -m pytest .*-k "([^"]*)"\s*$', workflow, re.M)
    terms = expression.split(" or ")
    assert all(re.fullmatch(r"\w+", term) and term not in ("and", "not") for term in terms), expression
    return terms


def _raises_soundness(node: ast.AST) -> bool:
    """Whether ``node`` holds a ``pytest.raises`` call whose first argument
    names ``SoundnessError``, alone or in a tuple."""
    for call in ast.walk(node):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "raises" and call.args):
            continue
        first = call.args[0]
        for expected in first.elts if isinstance(first, ast.Tuple) else [first]:
            if (expected.id if isinstance(expected, ast.Name) else getattr(expected, "attr", None)) == "SoundnessError":
                return True
    return False


def soundness_tests(source: str, module: str) -> list[str]:
    """The node ids ``module::[Class::]test`` of the tests in ``source``
    that expect a ``SoundnessError``, parametrized ones once."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef) and top.name.startswith("Test"):
            found += [f"{module}::{top.name}::{f.name}" for f in top.body
                      if isinstance(f, ast.FunctionDef) and f.name.startswith("test") and _raises_soundness(f)]
        elif isinstance(top, ast.FunctionDef) and top.name.startswith("test") and _raises_soundness(top):
            found.append(f"{module}::{top.name}")
    return found


def unselected(terms: list[str], node_ids: list[str]) -> list[str]:
    """The node ids that no term matches."""
    return [node for node in node_ids if not any(term.lower() in node.lower() for term in terms)]


def test_every_check_test_runs_optimized():
    terms = optimized_terms(WORKFLOW.read_text())
    node_ids = [node for path in sorted(TESTS.glob("test_*.py"))
                for node in soundness_tests(path.read_text(), f"tests/{path.name}")]
    assert len(node_ids) >= 10, node_ids
    assert unselected(terms, node_ids) == []


def test_the_guard_sees_an_unselected_test():
    """The scan finds tests at module and class level, through nested
    functions and tuples of errors, and ``unselected`` names one that no
    term matches."""
    source = '''
import pytest
from radsum import SoundnessError, errors

def test_top_slip():
    with pytest.raises(SoundnessError):
        pass

def test_plain():
    with pytest.raises(ValueError):
        pass

class TestThing:
    def test_nested(self):
        def check():
            with pytest.raises((ValueError, errors.SoundnessError), match="x"):
                pass
        check()

    def helper(self):
        with pytest.raises(SoundnessError):
            pass
'''
    node_ids = soundness_tests(source, "tests/test_rigged.py")
    assert node_ids == ["tests/test_rigged.py::test_top_slip", "tests/test_rigged.py::TestThing::test_nested"]
    workflow = 'steps:\n      - run: python -O -m pytest -q tests -k "Slip or soundness"\n'
    assert optimized_terms(workflow) == ["Slip", "soundness"]
    assert unselected(optimized_terms(workflow), node_ids) == ["tests/test_rigged.py::TestThing::test_nested"]
