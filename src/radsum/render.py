"""Dual rendering of numeric values for reports (decimal + exact string),
and the indented JSON text of a report document."""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .algebraic import SqrtSum
from .weights import EXACT


def render_number(value, mode: str) -> dict:
    """JSON object for one real quantity: always the shortest round-trip
    decimal, plus the exact rational/radical string in exact mode (a
    rational ``SqrtSum`` prints as its Fraction)."""
    out = {"decimal": repr(float(value))}
    if mode == EXACT:
        if isinstance(value, (int, Fraction)):
            value = Fraction(value)
        elif not isinstance(value, SqrtSum):
            raise TypeError(f"no exact rendering for {type(value).__name__}")
        out["exact"] = str(value)
    return out


def renderer(mode: str):
    """``render_number`` for the fields of one document, rendering each value
    object once: fields that hold the same object (a weight and the
    certificate's ``x_next``, a maximum and the g or h it is) share one
    rendering."""
    memo: dict = {}  # id -> (value, rendering); the value pins its id

    def render(value) -> dict:
        hit = memo.get(id(value))
        if hit is None:
            hit = memo[id(value)] = (value, render_number(value, mode))
        return hit[1]

    return render


_INF = float("inf")


def _encode(value, newline: str) -> str:
    """The text of ``value`` whose first line continues the current one and
    whose nested lines start with ``newline`` plus two spaces."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError("not a str key")
            items.append(
                _json_str(key) + ": "
                + (_json_str(item) if type(item) is str else _encode(item, inner))
            )
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_str(item) if type(item) is str else _encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value == _INF or value == -_INF:
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError("not a JSON scalar")


def json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte.  With ``indent`` set,
    ``json`` encodes in pure Python one token at a time; this writes each
    container with one join, and escapes strings to ASCII with ``json``'s C
    escaper.  Dicts with str keys, lists, tuples, str, int, float, bool and
    None are written here.  Any other type or key goes to ``json.dumps``,
    which writes it or raises as it always has; so does a container nested
    too deep to recurse into, a cycle among them."""
    try:
        return _encode(value, "\n")
    except (TypeError, RecursionError):
        return json.dumps(value, indent=2)
