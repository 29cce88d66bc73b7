"""Command-line front end: JSON certificates and CSV sweeps.

Exit codes: 0 success, 1 input error, 2 enumeration size limit, 3
mathematical-soundness failure (a certificate exceeding the exact
probability, a lemma violation, or a bound below its floor).  Code 3 is
reserved so CI pipelines can tell "the theorem machinery is broken" apart
from plain misuse.

Output is byte-identical for identical config and seed once the timestamp
is suppressed with --no-timestamp.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

from . import bounds, engine, explore
from .errors import InputError, RadsumError, SizeLimitError, SoundnessError
from .render import json_text, render_number, renderer
from .weights import EXACT, FLOAT, WeightVector, parse_weights

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SIZE = 2
EXIT_SOUNDNESS = 3

# The size-limit flag of each subcommand that enumerates, the one limit its
# handler reads, and the help of each flag.
_LIMIT_FLAGS = {
    **dict.fromkeys(["exact", "certify", "decomp-check", "search"], "--mitm-limit"),
    **dict.fromkeys(["distribution", "partition", "hybrid"], "--full-limit"),
}
_LIMIT_HELP = {"--mitm-limit": "meet-in-the-middle size limit", "--full-limit": "full-enumeration size limit"}

# a weight list that argparse takes for an option: a minus sign, a digit or
# point, and a comma
_DASHED_LIST = re.compile(r"-\.?\d.*,")

_GRAMMAR_HELP = (
    "weight vector: decimal list '0.8,0.6' (float mode) or squared rationals "
    "'sq:16/25,9/25' meaning x=(4/5,3/5) (exact mode; tokens are x_i^2, "
    "normalized to sum to 1)"
)


@dataclass
class RunConfig:
    """Parsed run configuration, and the one place CLI defaults are
    declared; round-trips through to_dict/from_dict."""

    subcommand: str
    weights: Optional[str] = None
    mode: Optional[str] = None
    t: str = "1"
    strict: bool = False
    exact_check: bool = False
    samples: int = 100_000
    seed: int = 0
    budget: int = 10_000
    n: Optional[int] = None
    k_max: int = 1000
    confidence: float = 0.99
    full_limit: int = engine.DEFAULT_FULL_LIMIT
    mitm_limit: int = engine.DEFAULT_MITM_LIMIT
    output: Optional[str] = None
    fmt: Optional[str] = None
    timestamp: bool = True

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return cls(**d)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; remap to input errors."""

    def error(self, message):
        raise InputError(message)


class _Ignored(argparse.Action):
    """A flag whose value is type-checked and then dropped."""

    def __call__(self, parser, namespace, values, option_string=None):
        pass


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process: ``parse_args`` leaves the
    parser unchanged, so every ``main`` call shares it.

    Flags declare no defaults: an omitted flag leaves no attribute, so the
    ``RunConfig`` field default applies.  Each subcommand takes only the
    size limit its handler reads."""
    parser = _Parser(prog="radsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="|".join(SUBCOMMANDS))

    def add(name, summary, *, weights=True):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        if weights:
            p.add_argument("weights", help=_GRAMMAR_HELP)
            p.add_argument("--mode", choices=(EXACT, FLOAT),
                           help="override the numeric mode implied by the grammar")
        if name in _LIMIT_FLAGS:
            p.add_argument(_LIMIT_FLAGS[name], type=int, help=_LIMIT_HELP[_LIMIT_FLAGS[name]])
        p.add_argument("-o", "--output", help="write to file instead of stdout")
        p.add_argument("--no-timestamp", dest="timestamp", action="store_false",
                       help="suppress the timestamp field for diff-able output")
        return p

    p = add("exact", "exact threshold probability Pr(|eps.x| <= t)")
    p.add_argument("-t", "--threshold", dest="t", metavar="THRESHOLD",
                   help="threshold t (rational in exact mode)")
    p.add_argument("--strict", action="store_true", help="strict inequality Pr(|eps.x| < t)")

    p = add("distribution", "full distribution of eps.x")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"))

    add("partition", "Case-2 stopping-time event partition")

    p = add("certify", "theorem certificate for the instance")
    p.add_argument("--exact-check", action="store_true",
                   help="attach and verify the exact probability")

    add("hybrid", "partition-refined Case-2 lower bound")
    add("decomp-check", "verify the Case-1 chain exactly")

    p = add("mc", "Monte Carlo estimate with Wilson interval")
    p.add_argument("-t", "--threshold", dest="t", metavar="THRESHOLD")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--confidence", type=float)

    p = add("lemmas", "bound-function lemma verification sweep", weights=False)
    p.add_argument("--k-max", type=int)
    p.add_argument("--mode", choices=(EXACT,), help="exact closed-form certificate (the only mode)")
    # kept, hidden and ignored only while perfbench's certify-cli workload passes it
    p.add_argument("--grid-points", type=int, action=_Ignored, help=argparse.SUPPRESS)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"))

    p = add("search", "search for low-probability weight vectors", weights=False)
    p.add_argument("--n", type=int, required=True, help="dimension, 2..meet-in-the-middle limit")
    p.add_argument("--budget", type=int, help="objective evaluations")
    p.add_argument("--seed", type=int)

    return parser


def parse_config(argv) -> RunConfig:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = build_parser().parse_args(argv)
    except InputError as exc:
        # argparse reads a decimal list such as -1,0.5 before any '--' as an
        # unknown option
        options = argv[: argv.index("--")] if "--" in argv else argv
        dashed = next((a for a in options if _DASHED_LIST.match(a)), None)
        if dashed is None:
            raise
        sub = argv[0] if argv[0] in SUBCOMMANDS else "exact"
        raise InputError(
            f"{exc} (the weight list {dashed!r} starts with '-' and reads as an option; "
            f"put '--' before it, as in 'radsum {sub} -- {dashed}')"
        ) from None
    if not ns.subcommand:
        raise InputError(f"missing subcommand; expected one of: {', '.join(SUBCOMMANDS)}")
    return RunConfig(**vars(ns))


def _resolve_weights(cfg: RunConfig) -> WeightVector:
    wv = parse_weights(cfg.weights, cfg.mode)
    cfg.mode = wv.mode
    return wv


def _parse_threshold(cfg: RunConfig, mode: str):
    t = engine._normalize_threshold(cfg.t, mode)
    # the document renders t as a decimal, and in exact mode exactly too
    try:
        render_number(t, mode)
    except OverflowError:
        raise InputError(f"invalid input: threshold {cfg.t!r} exceeds the float range") from None
    except ValueError:  # an integer past Python's int-to-string digit limit
        raise InputError(f"invalid input: threshold {cfg.t!r} has too many digits to render") from None
    return t


def _weights_json(w: WeightVector) -> list:
    return [render_number(v, w.mode) for v in w.values]


def _csv(rows: list, exact: bool) -> str:
    """The JSON ``rows`` as CSV, one column per key: a rendered number gives
    its decimal, followed by its exact string in a ``*_exact`` column when
    ``exact``; a boolean is written as in JSON."""

    def cells(row: dict):
        for key, value in row.items():
            if isinstance(value, dict):
                yield key, value["decimal"]
                if exact:
                    yield f"{key}_exact", value["exact"]
            else:
                yield key, json.dumps(value) if isinstance(value, bool) else value

    flat = [dict(cells(row)) for row in rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(flat[0])
    writer.writerows(row.values() for row in flat)
    return buf.getvalue()


# Each handler returns (result, exit code, warning text): a dict result is
# wrapped in the JSON envelope by ``execute``, a str result is CSV text.
# Handlers call engine, bounds and explore functions through their modules,
# so rebinding a module attribute (as tracing and tests do) reaches every
# call; the table holds the handlers, never those functions.


def _exact(cfg: RunConfig):
    w = _resolve_weights(cfg)
    t = _parse_threshold(cfg, w.mode)
    p = engine.threshold_probability(w, t, cfg.strict, limit=cfg.mitm_limit)
    result = {
        "n": w.n,
        "weights": _weights_json(w),
        "t": render_number(t, w.mode),
        "strict": cfg.strict,
        "probability": render_number(p, w.mode),
    }
    return result, EXIT_OK, ""


def _distribution(cfg: RunConfig):
    w = _resolve_weights(cfg)
    dist = engine.sum_distribution(w, limit=cfg.full_limit)
    entries = [
        {
            "value": render_number(v, w.mode),
            "count": c,
            "probability": render_number(engine._probability(c, dist.total, w.mode), w.mode),
        }
        for v, c in dist.entries
    ]
    if cfg.fmt == "json":
        return {"n": dist.n, "weights": _weights_json(w), "entries": entries}, EXIT_OK, ""
    return _csv(entries, exact=w.mode == EXACT), EXIT_OK, ""


def _partition(cfg: RunConfig):
    w = _resolve_weights(cfg)
    report = engine.prefix_partition(w, limit=cfg.full_limit)
    result = {
        "n": report.n,
        "weights": _weights_json(w),
        "total_prob": render_number(report.total_prob, w.mode),
        "events": [
            {
                "k": k,
                "prob": render_number(report.probs[i], w.mode),
                "joint": render_number(report.joints[i], w.mode),
                "cond": (
                    render_number(report.conds[i], w.mode)
                    if report.conds[i] is not None
                    else None
                ),
            }
            for i, k in enumerate(report.ks)
        ],
        "boundary_ties": [list(tie) for tie in report.boundary_ties],
        "stats": dataclasses.asdict(report.stats),
    }
    return result, EXIT_OK, ""


def _certify(cfg: RunConfig):
    w = _resolve_weights(cfg)
    cert = bounds.theorem_bound(
        w, exact_check=True if cfg.exact_check else "auto", limit=cfg.mitm_limit
    )
    render = renderer(w.mode)
    weights = [render(v) for v in w.values]  # the certificate's x_next reuse these
    result = cert.to_json_dict(render)
    result["weights"] = weights
    return result, EXIT_OK, ""


def _hybrid(cfg: RunConfig):
    w = _resolve_weights(cfg)
    hb = bounds.hybrid_bound(w, limit=cfg.full_limit)
    cert = bounds.case2_certificate(w)
    result = {
        "weights": _weights_json(w),
        "hybrid_bound": render_number(hb, w.mode),
        "certificate_bound": render_number(cert.final_bound, w.mode),
    }
    return result, EXIT_OK, ""


def _decomp_check(cfg: RunConfig):
    w = _resolve_weights(cfg)
    report = bounds.decomposition_check(w, limit=cfg.mitm_limit)
    result = report.to_json_dict()
    result["weights"] = _weights_json(w)
    result["holds"] = True
    return result, EXIT_OK, ""


def _mc(cfg: RunConfig):
    w = _resolve_weights(cfg)
    t = _parse_threshold(cfg, FLOAT)
    est = explore.monte_carlo(
        w, t, samples=cfg.samples, seed=cfg.seed, confidence=cfg.confidence
    )
    lo, hi = est.interval
    result = {
        "weights": _weights_json(w),
        "t": render_number(t, FLOAT),
        "estimate": render_number(est.estimate, FLOAT),
        "half_width": render_number(est.half_width, FLOAT),
        "center": render_number(est.center, FLOAT),
        "interval": [render_number(lo, FLOAT), render_number(hi, FLOAT)],
        "confidence": est.confidence,
        "samples": est.samples,
        "seed": est.seed,
    }
    return result, EXIT_OK, ""


def _lemmas(cfg: RunConfig):
    cfg.mode = EXACT
    report = explore.lemma_sweep(cfg.k_max)
    code, warn = EXIT_OK, ""
    if not report.ok:
        code = EXIT_SOUNDNESS
        warn = "\n".join(f"lemma violation: {v}" for v in report.violations)
    # every LemmaRow field in order; k and the flags (bools are ints) stay as they are
    rows = [
        {key: v if isinstance(v, int) else render_number(v, EXACT) for key, v in vars(r).items()}
        for r in report.rows
    ]
    if cfg.fmt == "json":
        result = {
            "k_max": report.k_max,
            "mode": EXACT,
            "ok": report.ok,
            "minmax_nondecreasing": report.minmax_nondecreasing,
            "violations": list(report.violations),
            "rows": rows,
        }
        return result, code, warn
    return _csv(rows, exact=False), code, warn


def _search(cfg: RunConfig):
    cfg.mode = cfg.mode or FLOAT
    res = explore.minimize_probability(cfg.n, cfg.budget, cfg.seed, limit=cfg.mitm_limit)
    code, warn = EXIT_OK, ""
    if res.counterexample_candidate:
        code = EXIT_SOUNDNESS
        warn = (
            "COUNTEREXAMPLE CANDIDATE: search found probability "
            f"{float(res.best_prob)!r} = {res.best_prob} below the 0.36 floor; "
            "verify independently before trusting either the search or the bound"
        )
    result = {
        "n": res.n,
        "seed": res.seed,
        "budget_used": res.budget_used,
        "best_prob": render_number(res.best_prob, FLOAT),
        "best_prob_exact": str(res.best_prob),
        "best_w": _weights_json(res.best_w),
        "counterexample_candidate": res.counterexample_candidate,
        "trajectory": [
            {"evaluations": e, "probability": render_number(p, FLOAT)}
            for e, p in res.trajectory
        ],
    }
    return result, code, warn


_HANDLERS = {
    "exact": _exact,
    "distribution": _distribution,
    "partition": _partition,
    "certify": _certify,
    "hybrid": _hybrid,
    "decomp-check": _decomp_check,
    "mc": _mc,
    "lemmas": _lemmas,
    "search": _search,
}

SUBCOMMANDS = tuple(_HANDLERS)


def execute(cfg: RunConfig) -> tuple[int, str, str]:
    """Run the configured command.

    Returns (exit code, output text, warning text for stderr).
    """
    handler = _HANDLERS.get(cfg.subcommand)
    if handler is None:
        raise InputError(f"unknown subcommand {cfg.subcommand!r}")
    result, code, warn = handler(cfg)
    text = result if isinstance(result, str) else _json_doc(cfg, result)
    return code, text, warn


def _json_doc(cfg: RunConfig, result: dict) -> str:
    doc = {"command": cfg.subcommand, "config": cfg.to_dict()}
    if cfg.timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    doc["result"] = result
    return json_text(doc) + "\n"


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
        code, text, warn = execute(cfg)
    except SizeLimitError as exc:
        print(f"radsum: error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except SoundnessError as exc:
        print(f"radsum: SOUNDNESS FAILURE: {exc}", file=sys.stderr)
        return EXIT_SOUNDNESS
    except RadsumError as exc:
        print(f"radsum: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:  # a raised size limit can admit tables no machine holds
        flag = _LIMIT_FLAGS.get(cfg.subcommand)
        n = cfg.n if cfg.weights is None else parse_weights(cfg.weights, cfg.mode).n
        hint = f" at n={n}; lower {flag}" if flag else ""
        print(f"radsum: error: out of memory{hint}", file=sys.stderr)
        return EXIT_SIZE
    if warn:
        print(warn, file=sys.stderr)
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"radsum: error: cannot write {cfg.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
