"""One timed pass of one workload in a fresh interpreter.

Started by ``run.py``; prints one JSON line with the pass's measurements.
Set-up (import, seeded input generation, warm-up) is timed from the
parent's spawn stamp to the first timed call.  The outputs are verified
after the timed loop, with tracing already removed, so neither the
references nor the checks are counted in any timing.

Around every call, outside its timing, the pass times a burst of a fixed
probe that does not touch radsum, lasting at least a tenth of the call's
latency; set-up gets bursts at its start, between its stages and at its
end, with their time left out of ``setup_s``.  The host's speed drifts by tens of percent
within seconds (other tenants share its cores), and the probe times let
``run.py`` scale each time to a reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


# A burst after a call lasts at least this share of the call's latency;
# each set-up burst lasts SETUP_BURST_S.
PROBE_SHARE = 0.1
SETUP_BURST_S = 0.01
_PROBE_KEYS = [(i * 7919) % 32749 for i in range(4096)]


def probe() -> float:
    """Wall time of a fixed piece of interpreter work (integer arithmetic,
    allocation and a sort), independent of the program under test."""
    t0 = time.perf_counter()
    total = 0
    for i in range(4000):
        total += i * i % 7
    sorted(_PROBE_KEYS)
    return time.perf_counter() - t0


def burst(min_s: float, min_count: int = 2) -> list[float]:
    """[summed time, count] of probes run for at least min_s seconds.  The
    first probe is not counted: it runs on whatever caches the preceding
    work left, which would tie the measured speed to the program."""
    probe()
    spent, count = 0.0, 0
    while spent < min_s or count < min_count:
        spent += probe()
        count += 1
    return [spent, count]


def time_calls(calls, tracer=None) -> tuple[list, list[float], list[bool], list[list]]:
    """Run each call once in order: (results, latencies, failed flags, the
    probe burst after each call)."""
    results, latencies, failed, bursts = [], [], [], []
    for i, call in enumerate(calls):
        if tracer:
            tracer.call_id, tracer.cls = i, call.cls
        result, bad = None, False
        t0 = time.perf_counter()
        try:
            result = call.run()
        except Exception:  # any error is a failed call, never a crash of the pass
            bad = True
            traceback.print_exc()
        latency = time.perf_counter() - t0
        latencies.append(latency)
        results.append(result)
        failed.append(bad)
        bursts.append(burst(PROBE_SHARE * latency))
    return results, latencies, failed, bursts


def verify_calls(calls, results, failed: list[bool]) -> None:
    """Check each completed call against its reference; mark mismatches
    (and checks that raise) as failed."""
    for i, (call, result) in enumerate(zip(calls, results)):
        if failed[i]:
            continue
        try:
            ok = call.verify(result, call.reference())
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"verification failed: call {i} ({call.cls})", file=sys.stderr)
            failed[i] = True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--child", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--spans-out", default=None,
                        help="trace this pass and write its spans to this file")
    args = parser.parse_args()
    setup_bursts = []
    probing_s = 0.0

    def setup_burst():
        nonlocal probing_s
        started = time.monotonic()
        setup_bursts.append(burst(SETUP_BURST_S))
        probing_s += time.monotonic() - started

    setup_burst()
    # Imported only now, so that the first burst runs before the imports.
    import random

    import numpy

    import workloads
    from radsum import algebraic

    setup_burst()
    tracer = None
    if args.spans_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    rng = random.Random(f"{args.workload}:{args.seed}:{args.child}")
    calls = workloads.WORKLOADS[args.workload](rng, args.reps, args.tiny)
    setup_burst()
    workloads.warm_up(args.workload)

    setup_s = time.monotonic() - args.spawned_at - probing_s
    setup_bursts.append(burst(SETUP_BURST_S))
    cache_before = algebraic.squarefree_decompose.cache_info()
    results, latencies, failed, bursts = time_calls(calls, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cache_after = algebraic.squarefree_decompose.cache_info()
    if tracer:
        tracer.uninstall()
    verify_calls(calls, results, failed)

    out = {
        "setup_s": setup_s,
        "setup_bursts": setup_bursts,
        "peak_rss_mb": peak_rss_mb,
        "calls": [[c.cls, lat, bad, b] for c, lat, bad, b in zip(calls, latencies, failed, bursts)],
        "cache_hits": cache_after.hits - cache_before.hits,
        "cache_misses": cache_after.misses - cache_before.misses,
        "numpy": numpy.__version__,
    }
    if tracer:
        out["trace"] = tracer.aggregate()
        tracer.dump(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
