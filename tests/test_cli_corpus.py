"""The golden CLI corpus: every entry of ``data/cli_corpus.json`` replays
to its recorded exit code, stdout and stderr, and the recorded documents
keep the relations that hold between runs.  ``record_cli_corpus.py`` writes
the file; a change that means to alter output re-records it."""

import csv
import io
import itertools
import json
import math
from fractions import Fraction

import pytest

from record_cli_corpus import CORPUS, run

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("label", list(ENTRIES))
def test_replay(label):
    want = ENTRIES[label]
    got = run(want["argv"])
    assert (got["code"], got["stderr"]) == (want["code"], want["stderr"])
    lines = itertools.zip_longest(want["stdout"].splitlines(True), got["stdout"].splitlines(True))
    for number, (recorded, live) in enumerate(lines, 1):
        assert live == recorded, f"stdout line {number} differs"


def _weights(label) -> str:
    return ENTRIES[label]["argv"][1]


def _result(label) -> dict:
    return json.loads(ENTRIES[label]["stdout"])["result"]


@pytest.mark.parametrize("name", ["ints38", "decimals38"])
def test_float_probability_is_the_exact_one(name):
    # no signed sum lies within about 1e-8 of t = 1, so the float count (on
    # the integer lattice) is the exact one
    floats = [Fraction(v) for v in _weights(f"exact float {name}").split(",")]
    squares = [Fraction(v) for v in _weights(f"exact sq {name}")[3:].split(",")]
    assert squares == [v * v for v in floats]
    f = _result(f"exact float {name}")["probability"]
    e = _result(f"exact sq {name}")["probability"]
    assert float(f["decimal"]) == float(Fraction(e["exact"]))


def test_forty_decimal_ones_count_the_signs():
    # each weight is 1/sqrt(40): |eps . x| <= 1 iff the signs sum to at most 6
    label = "exact float decimal ones 1.0x40"
    assert _weights(label) == ",".join(["1.0"] * 40)
    want = sum(math.comb(40, k) for k in range(41) if (2 * k - 40) ** 2 <= 40) / 2**40
    assert float(_result(label)["probability"]["decimal"]) == want


def test_sparse_distribution_rows():
    # one large weight among 23 ones: 48 distinct sums on a lattice of 2^24 points
    label = "distribution sq sparse 2^23-24 and 23 ones"
    assert _weights(label) == "sq:" + ",".join(str(a * a) for a in [2**23 - 24] + [1] * 23)
    rows = list(csv.DictReader(io.StringIO(ENTRIES[label]["stdout"])))
    assert (len(rows), sum(int(row["count"]) for row in rows)) == (48, 2**24)


@pytest.mark.parametrize("n", [9, 16])
def test_partition_tie_rows_are_the_pinned_ones(n):
    label = f"partition float ones 1x{n}"
    assert _weights(label) == ",".join(["1"] * n)
    pinned = json.loads((CORPUS.parent / "partition_ties.json").read_text())[f"1x{n}"]
    assert _result(label)["boundary_ties"] == pinned
