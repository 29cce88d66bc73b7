"""Seeded end-to-end and per-layer benchmark for radsum.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mitm-query --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for what each exercises and why):
``mitm-query``, ``partition-walk`` and ``certify-cli``.  Each is a closed
loop with one client on one thread.

A run is a fixed amount of seeded work: ``CHILDREN`` passes, each in its
own fresh interpreter started one after the other, each timing its own
call list once.  Fresh interpreters keep process-wide caches (the
``squarefree_decompose`` LRU cache) from carrying hits between passes.
The call list of a pass grows linearly with ``--seconds``; at the seed code
on a 2-CPU x86 box a run measures about ``--seconds`` seconds.

Times are reported in reference seconds.  On a shared host the CPU speed
seen by one process drifts by 10-30% within seconds, which made wall-clock
figures of identical runs differ by up to 17%.  Each pass therefore times
a fixed probe (``child.probe``) in short bursts around every call and
around set-up, and every time is multiplied by ``PROBE_REF_S`` / (mean
probe time of the adjacent bursts).  Raw wall times are kept in the
``env`` line and in ``perfbench/out/``.

``--trace 0`` prints the end-to-end metrics, pooled over all passes:

* ``calls_per_s`` - verified calls / summed call latencies;
* ``latency_p50_s`` - median per-call latency;
* ``latency_tail_s`` - the highest percentile of a fixed ladder with at
  least ten calls beyond it (the percentile and call count are printed in
  the ``env`` line before the result);
* ``peak_rss_mb`` - median over passes of the pass's peak resident memory;
* ``setup_s`` - median over passes of the time from spawning the pass to
  its first timed call (interpreter start, import, input generation,
  warm-up).

``--trace 1`` runs every pass twice, untraced then traced, and prints the
per-layer metrics of ``tracer.py`` summed over the traced passes, plus
``trace.overhead_ratio`` (traced / untraced summed latencies).  Raw spans
go to ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A call that raises or whose
output fails verification counts as failed.  The exit code is 0 when the
run completed (even with failed calls) and non-zero, without a result
line, when the checkout holds no radsum sources or a pass crashed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

CHILDREN = 6
# Mean time of child.probe() on the reference box (2-CPU x86, Python 3.11).
# A time measured next to probes whose mean time is m is reported as
# time * PROBE_REF_S / m: seconds at the reference speed.
PROBE_REF_S = 0.0006
# Repetitions of a workload's call pattern per pass, per 10 s of --seconds.
REPS_PER_10S = {"mitm-query": 0.5, "partition-walk": 1, "certify-cli": 3}
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
DEADLINE_S = 170.0

E2E_UNITS = {
    "calls_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RADSUM_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, index: int, reps: int, deadline: float, spans_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--child", str(index), "--reps", str(reps)]
    if args.tiny:
        cmd.append("--tiny")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"pass {index} exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def speed(*bursts) -> float:
    """Factor taking wall time to reference seconds, from probe bursts."""
    return PROBE_REF_S * sum(b[1] for b in bursts) / sum(b[0] for b in bursts)


def scale(pass_: dict) -> None:
    """Add the pass's times at the reference speed: each call latency scaled
    by the probe bursts just before and after it, set-up by its bursts, and
    the pass-wide factor of all the loop's bursts."""
    calls = pass_["calls"]
    before = [pass_["setup_bursts"][-1]] + [c[3] for c in calls[:-1]]
    pass_["latencies"] = [c[1] * speed(b, c[3]) for c, b in zip(calls, before)]
    pass_["loop_s"] = sum(pass_["latencies"])
    pass_["setup_ref_s"] = pass_["setup_s"] * speed(*pass_["setup_bursts"])
    pass_["speed"] = speed(*(c[3] for c in calls))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n calls beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50.0


def nearest_rank(sorted_values: list, p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def git_sha() -> str:
    """Commit of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPS_PER_10S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="two passes of one pattern at tiny sizes (smoke test)")
    args = parser.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be >= 1")
    if not (ROOT / "src" / "radsum" / "__init__.py").is_file():
        return fail(f"no radsum sources under {ROOT / 'src'}")

    # Fill the bytecode cache now, so no pass pays for compiling.
    compileall.compile_dir(str(ROOT / "src" / "radsum"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)

    children = 2 if args.tiny else CHILDREN
    reps = 1 if args.tiny else max(1, round(REPS_PER_10S[args.workload] * args.seconds / 10))
    deadline = time.monotonic() + DEADLINE_S
    passes, traced = [], []
    try:
        for i in range(children):
            passes.append(run_child(args, i, reps, deadline))
            if args.trace:
                spans = OUT / f"spans-{args.workload}-p{i}.jsonl"
                traced.append(run_child(args, i, reps, deadline, spans))
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc))

    calls = [c for p in passes + traced for c in p["calls"]]
    attempted = len(calls)
    failed = sum(1 for c in calls if c[2])
    per_class = Counter(c[0] for c in calls)

    for p in passes + traced:
        scale(p)
    latencies = sorted(x for p in passes for x in p["latencies"])
    tail_p = tail_percentile(len(latencies))
    if args.trace:
        metrics = per_layer_metrics(passes, traced)
    else:
        ok_calls = sum(1 for p in passes for c in p["calls"] if not c[2])
        values = {
            "calls_per_s": ok_calls / sum(p["loop_s"] for p in passes),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": nearest_rank(latencies, tail_p),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(p["setup_ref_s"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "passes": children,
        "calls_per_class": per_class,
        "latency_tail_percentile": tail_p,
        "latency_calls": len(latencies),
        "speed_factors": [round(p["speed"], 4) for p in passes + traced],
        "raw_loop_s": [round(sum(c[1] for c in p["calls"]), 4) for p in passes + traced],
        "raw_setup_s": [round(p["setup_s"], 4) for p in passes + traced],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result}, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


def per_layer_metrics(passes: list, traced: list) -> dict:
    from tracer import HIT_RATIO, OVERHEAD, metric_names, metric_unit

    totals: dict = {}
    for p in traced:
        for key, value in p["trace"].items():
            if metric_unit(key) == "s":
                value *= p["speed"]
            totals[key] = totals.get(key, 0) + value
    hits = sum(p["cache_hits"] for p in traced)
    lookups = hits + sum(p["cache_misses"] for p in traced)
    totals[HIT_RATIO] = hits / lookups if lookups else 0.0
    totals[OVERHEAD] = sum(p["loop_s"] for p in traced) / sum(p["loop_s"] for p in passes)
    return {name: {"value": totals.get(name, 0), "unit": metric_unit(name)}
            for name in metric_names()}


if __name__ == "__main__":
    raise SystemExit(main())
