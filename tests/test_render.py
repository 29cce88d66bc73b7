"""Rendering: numbers as decimal and exact strings, and the indented JSON
emitter against ``json.dumps(indent=2)``."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radsum.algebraic import SqrtSum, exact_sqrt
from radsum.render import json_text, render_number
from radsum.weights import EXACT, FLOAT

DATA = Path(__file__).parent / "data"


def _documents() -> dict:
    """Each data file but the CLI corpus, by name, and the corpus split by
    subcommand as ``<subcommand>_cli.json``, the names of the pinned-output
    files it replaced."""
    docs = {p.name: json.loads(p.read_text()) for p in sorted(DATA.glob("*.json")) if p.name != "cli_corpus.json"}
    for label, entry in json.loads((DATA / "cli_corpus.json").read_text()).items():
        docs.setdefault(f"{(entry['argv'] or ['no-subcommand'])[0]}_cli.json", {})[label] = entry
    return docs


DOCUMENTS = _documents()

# text that needs escaping: quotes, backslashes, control characters,
# non-ASCII and astral characters
_text = st.text(
    st.characters() | st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", " ", "😀"]),
    max_size=8,
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300])
    | _text
)
_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_text, inner, max_size=4)
    ),
    max_leaves=12,
)


class TestRenderNumber:
    @pytest.mark.parametrize("q", [Fraction(-3, 4), Fraction(0), Fraction(5)])
    def test_rational_sqrtsum_renders_as_its_fraction(self, q):
        assert render_number(SqrtSum.from_rational(q), EXACT) == render_number(q, EXACT)

    def test_exact_and_float_renderings(self):
        assert render_number(exact_sqrt(2) / 2, EXACT) == {"decimal": "0.7071067811865476", "exact": "1/2*sqrt(2)"}
        assert render_number(3, EXACT) == {"decimal": "3.0", "exact": "3"}
        assert render_number(0.1, FLOAT) == {"decimal": "0.1"}
        with pytest.raises(TypeError, match="no exact rendering for float"):
            render_number(0.1, EXACT)


class TestJsonText:
    @given(_values)
    @example([math.nan, math.inf, -math.inf, -0.0, 5e-324, -(10**50), True, None, [], (), {}, "\u00e9\"\\"])
    @example("\u00e9\"\\")
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_matches_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("name", sorted(DOCUMENTS))
    def test_pinned_documents(self, name):
        # each document re-encodes to the same text, and each recorded CLI
        # JSON document is json.dumps(indent=2) text
        doc = DOCUMENTS[name]
        assert json_text(doc) == json.dumps(doc, indent=2)
        for label, entry in doc.items():
            out = entry.get("stdout") if isinstance(entry, dict) else None
            if out and out.startswith("{"):
                parsed = json.loads(out)
                assert json_text(parsed) + "\n" == json.dumps(parsed, indent=2) + "\n" == out, label

    @pytest.mark.parametrize(
        "value",
        [{1: "a", 2.5: [], None: {}, True: 0}, [{"a": Fraction(1, 2)}], {"a": {1, 2}}],
        ids=["non_str_keys", "fraction", "set"],
    )
    def test_other_types_go_to_json_dumps(self, value):
        try:
            want = json.dumps(value, indent=2)
        except TypeError as exc:
            with pytest.raises(TypeError, match=re.escape(str(exc))):
                json_text(value)
        else:
            assert json_text(value) == want

    def test_cycle_raises_as_json_dumps(self):
        loop: list = []
        loop.append({"loop": loop})
        with pytest.raises(ValueError, match="Circular reference"):
            json_text(loop)
