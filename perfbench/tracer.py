"""Span tracing around radsum's public functions, installed from outside.

The package itself is not modified.  ``Tracer.install`` rebinds each
function in ``TARGETS`` to a timing wrapper in every ``radsum`` module that
holds it, including modules that imported it by name (``bounds`` and
``explore`` import ``threshold_probability`` and ``admissible_count`` by
value, ``cli`` imports ``parse_weights`` and ``render_number``).  Calls made
through module attributes and through those by-value names both land in the
wrapper.

Each span is kept in memory as ``(call_id, span_id, parent_id, name, cls,
start, end, failed)``; ``call_id`` is the index of the benchmark call that
caused it (-1 during set-up) and ``cls`` the input class the generator
assigned.  Self time is a span's duration minus the durations of its direct
children (calls are single-threaded, so children nest inside the parent).

``SqrtSum.sign`` gets a counter only, no span: it runs millions of times on
radical inputs and a span per call would swamp the measurement.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs traced with a span.
TARGETS = (
    ("cli", "main"),
    ("cli", "execute"),
    ("weights", "parse_weights"),
    ("weights", "from_squares"),
    ("weights", "canonicalize"),
    ("algebraic", "factorint"),
    ("moments", "tail_moments"),
    ("bounds", "case1_certificate"),
    ("bounds", "case2_certificate"),
    ("bounds", "hybrid_bound"),
    ("engine", "threshold_probability"),
    ("engine", "admissible_count"),
    ("engine", "prefix_partition"),
    ("engine", "sum_distribution"),
    ("render", "render_number"),
    ("explore", "monte_carlo"),
    ("explore", "lemma_sweep"),
    ("explore", "minimize_probability"),
)

# Self time split by the generator's input class, for these spans only.
CLASS_SPLITS = {
    "engine.threshold_probability": ("rational", "one_radicand", "multi_radicand", "float"),
    "engine.prefix_partition": ("float", "rational"),
}

SIGN_CALLS = "algebraic.SqrtSum.sign.calls"
HIT_RATIO = "algebraic.squarefree_decompose.hit_ratio"
OVERHEAD = "trace.overhead_ratio"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for mod, fn in TARGETS:
        names += [f"{mod}.{fn}.self_s", f"{mod}.{fn}.calls", f"{mod}.{fn}.errors"]
    for span, classes in CLASS_SPLITS.items():
        names += [f"{span}.self_s.{c}" for c in classes]
    return names + [SIGN_CALLS, HIT_RATIO, OVERHEAD]


def metric_unit(name: str) -> str:
    if ".self_s" in name:
        return "s"
    return "ratio" if name in (HIT_RATIO, OVERHEAD) else "count"


class Tracer:
    """Records spans for one child process; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.sign_calls = 0
        self.call_id = -1
        self.cls = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the slot so ids follow start order
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[span_id] = (self.call_id, span_id, parent, name, self.cls, start, end, failed)

        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded radsum module."""
        from radsum import algebraic

        modules = [m for key, m in sys.modules.items() if key == "radsum" or key.startswith("radsum.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"radsum.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            rebound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
                        rebound += 1
            if not rebound:
                raise RuntimeError(f"radsum.{mod_name}.{fn_name} was not rebound")

        sign = algebraic.SqrtSum.sign

        def counted_sign(value):
            self.sign_calls += 1
            return sign(value)

        algebraic.SqrtSum.sign = counted_sign
        self._restore.append((algebraic.SqrtSum, "sign", sign))

    def uninstall(self) -> None:
        """Put every original function back, so that verification after the
        timed loop is not traced."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def aggregate(self) -> dict:
        """Flat per-layer totals keyed by metric name (``<span>.self_s``,
        ``.calls``, ``.errors`` and the class splits) plus the sign count."""
        child_time = defaultdict(float)
        for _, _, parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for _, span_id, _, name, cls, start, end, failed in self.spans:
            self_s = (end - start) - child_time[span_id]
            totals[f"{name}.self_s"] += self_s
            totals[f"{name}.calls"] += 1
            totals[f"{name}.errors"] += int(failed)
            if cls in CLASS_SPLITS.get(name, ()):
                totals[f"{name}.self_s.{cls}"] += self_s
        totals[SIGN_CALLS] = self.sign_calls
        return dict(totals)

    def dump(self, path) -> None:
        """Write the raw spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
