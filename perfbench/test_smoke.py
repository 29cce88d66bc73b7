"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import child
import workloads
from run import E2E_UNITS
from tracer import metric_names

HERE = Path(__file__).resolve().parent


def run_bench(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )


# Spans each workload's traced run must record.
LAYERS = {
    "mitm-query": ("engine.threshold_probability", "weights.canonicalize",
                   "weights.from_squares"),
    "partition-walk": ("engine.prefix_partition", "engine.sum_distribution",
                       "bounds.hybrid_bound", "weights.canonicalize"),
    "certify-cli": ("cli.main", "cli.execute", "weights.parse_weights", "weights.from_squares",
                    "algebraic.factorint", "moments.tail_moments", "bounds.case1_certificate",
                    "bounds.case2_certificate", "render.render_number", "explore.monte_carlo",
                    "explore.lemma_sweep", "explore.minimize_probability"),
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_clean(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(metric_names() if trace else E2E_UNITS)
    if trace:
        for name in LAYERS[workload]:
            assert metrics[f"{name}.calls"]["value"] > 0, name
            assert metrics[f"{name}.errors"]["value"] == 0, name


def test_wrong_reference_counts_as_failed():
    calls = workloads.WORKLOADS["mitm-query"](random.Random(0), 1, True)
    right = calls[0].reference
    calls[0] = dataclasses.replace(calls[0], reference=lambda: right() + 1)
    results, _, failed, _ = child.time_calls(calls)
    assert not any(failed)
    child.verify_calls(calls, results, failed)
    assert failed == [True] + [False] * (len(calls) - 1)


def test_refuses_checkout_without_sources():
    # A directory holding only BENCHMARK.json and the benchmark's files.
    bare = HERE / "out" / "bare"
    bench = bare / "perfbench"
    bench.mkdir(parents=True, exist_ok=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "mitm-query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
