"""CLI: subcommand behavior, schemas, exit codes, determinism."""

import argparse
import builtins
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radsum import InputError, cli
from radsum.cli import RunConfig, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def run_fresh(argv, env=(), **kwargs) -> subprocess.CompletedProcess:
    """``argv`` run by ``python -m radsum.cli`` in a fresh interpreter, with
    ``env`` added to the environment."""
    env = {**os.environ, **dict(env)}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, "-m", "radsum.cli", *argv], env=env, capture_output=True, text=True, timeout=120, **kwargs
    )


class TestCertify:
    def test_case1_example(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "sq:16/25,9/25", "--no-timestamp")
        assert code == 0
        assert doc["result"]["case"] == "case1"
        assert doc["result"]["final_bound"]["exact"] == "1/2"
        assert doc["result"]["final_bound"]["decimal"] == "0.5"

    def test_case2_exact_check_example(self, capsys):
        code, doc, _ = run_json(
            capsys, "certify", "sq:1/4,1/4,1/4,1/4", "--exact-check", "--no-timestamp"
        )
        assert code == 0
        assert doc["result"]["case"] == "case2"
        assert doc["result"]["final_bound"]["exact"] == "7/18"
        assert doc["result"]["sound_against"]["exact"] == "7/8"

    def test_float_grammar(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "0.8,0.6", "--no-timestamp")
        assert code == 0
        assert doc["result"]["case"] == "case1"
        assert doc["result"]["final_bound"]["decimal"] == "0.5"
        assert "exact" not in doc["result"]["final_bound"]


    def test_cancelling_radical_bound_renders_faithfully(self, capsys):
        # final_bound's coefficients reach ~1e23 and cancel to ~0.4; a plain
        # float sum of the terms printed 0.4375.
        code, doc, _ = run_json(capsys, "certify", "sq:208,673,158,354,295,383", "--no-timestamp")
        assert code == 0
        assert doc["result"]["case"] == "case1"
        assert abs(float(doc["result"]["final_bound"]["decimal"]) - 0.39650994018157496) < 1e-15


class TestExact:
    def test_probability(self, capsys):
        code, doc, _ = run_json(capsys, "exact", "sq:1/4,1/4,1/4,1/4", "--no-timestamp")
        assert code == 0
        assert doc["result"]["probability"]["exact"] == "7/8"

    def test_strict_flag(self, capsys):
        code, doc, _ = run_json(
            capsys, "exact", "sq:1/4,1/4,1/4,1/4", "--strict", "--no-timestamp"
        )
        assert doc["result"]["probability"]["exact"] == "3/8"

    def test_rational_threshold(self, capsys):
        code, doc, _ = run_json(
            capsys, "exact", "sq:1/4,1/4,1/4,1/4", "-t", "3/2", "--no-timestamp"
        )
        assert code == 0
        assert doc["result"]["t"]["exact"] == "3/2"
        assert doc["result"]["probability"]["exact"] == "7/8"


class TestPartitionHybridDecomp:
    def test_partition(self, capsys):
        code, doc, _ = run_json(capsys, "partition", "sq:1/4,1/4,1/4,1/4", "--no-timestamp")
        assert code == 0
        events = {e["k"]: e for e in doc["result"]["events"]}
        assert events[2]["prob"]["exact"] == "1/2"
        assert events[2]["cond"]["exact"] == "3/4"
        assert events[3]["cond"] is None
        assert events[4]["cond"]["exact"] == "1"
        assert doc["result"]["total_prob"]["exact"] == "7/8"
        assert doc["result"]["stats"] == {
            "path": "int64", "frontier": [1, 2, 2], "settled": [0, 1, 2], "fallbacks": 0
        }

    def test_partition_radical_stats(self, capsys):
        # x = (3, 3, sqrt(6), sqrt(6), sqrt(3), sqrt(3))/6: one tail sum lies
        # on the boundary of its window and is decided exactly
        code, doc, _ = run_json(capsys, "partition", "sq:3,3,2,2,1,1", "--no-timestamp")
        assert code == 0
        assert doc["result"]["stats"]["path"] == "radical"
        assert doc["result"]["stats"]["fallbacks"] == 1

    def test_hybrid(self, capsys):
        code, doc, _ = run_json(capsys, "hybrid", "sq:1/4,1/4,1/4,1/4", "--no-timestamp")
        assert code == 0
        assert doc["result"]["hybrid_bound"]["exact"] == "25/36"

    def test_decomp_check(self, capsys):
        code, doc, _ = run_json(capsys, "decomp-check", "sq:16/25,9/25", "--no-timestamp")
        assert code == 0
        assert doc["result"]["lhs"]["exact"] == "1/2"
        assert doc["result"]["holds"] is True

    def test_partition_wrong_case_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "partition", "sq:16/25,9/25")
        assert code == 1
        assert "not case 2" in err

    @pytest.mark.parametrize("sub", ["partition", "hybrid"])
    def test_wrong_case_before_size_limit(self, capsys, sub):
        # Case 1 at n = 30, past the default --full-limit: the case decides
        weights = "sq:400,300," + ",".join(["1"] * 28)
        code, out, err = run_cli(capsys, sub, weights)
        assert (code, out) == (1, "")
        assert err == "radsum: error: not case 2: x1 + x2 > 1, events A_2..A_n do not cover\n"


class TestDistributionAndLemmas:
    def test_distribution_csv(self, capsys):
        code, out, _ = run_cli(capsys, "distribution", "sq:16/25,9/25", "--no-timestamp")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,value_exact,count,probability,probability_exact"
        assert len(lines) == 5
        assert lines[1].split(",")[1] == "-7/5"

    def test_distribution_csv_float(self, capsys):
        code, out, _ = run_cli(capsys, "distribution", "1.0,1.0,1.0", "--no-timestamp")
        assert code == 0
        assert out == (
            "value,count,probability\n"
            "-1.7320508075688776,1,0.125\n"
            "-0.5773502691896258,3,0.375\n"
            "0.5773502691896258,3,0.375\n"
            "1.7320508075688776,1,0.125\n"
        )

    def test_distribution_json(self, capsys):
        code, doc, _ = run_json(
            capsys, "distribution", "sq:16/25,9/25", "--format", "json", "--no-timestamp"
        )
        vals = [e["value"]["exact"] for e in doc["result"]["entries"]]
        assert vals == ["-7/5", "-1/5", "1/5", "7/5"]

    def test_lemmas_csv_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "lemmas", "--k-max", "5", "--no-timestamp"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,crossing_x,g_at_crossing,h_at_crossing,minmax,monotone_g_ok,monotone_h_ok,min_location_ok"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "2" and first[4] == "0.36" and first[5] == "true"

    def test_lemmas_json(self, capsys):
        code, doc, _ = run_json(
            capsys, "lemmas", "--k-max", "4", "--format", "json", "--no-timestamp",
        )
        assert code == 0
        assert doc["result"]["ok"] is True
        assert doc["result"]["mode"] == doc["config"]["mode"] == "exact"
        assert "grid_points" not in doc["result"] and "grid_points" not in doc["config"]
        assert doc["result"]["rows"][0]["minmax"]["exact"] == "9/25"

    def test_lemmas_benchmark_call(self, capsys):
        # the argv of perfbench's certify-cli lemmas calls, ignored --grid-points included
        code, doc, err = run_json(
            capsys, "lemmas", "--mode", "exact", "--k-max", "18", "--grid-points", "500",
            "--format", "json",
        )
        assert (code, err, doc["result"]["ok"]) == (0, "", True)
        rows = [(r["crossing_x"]["exact"], r["minmax"]["exact"]) for r in doc["result"]["rows"]]
        assert rows == [
            (str(Fraction(1, k + 1)), str(Fraction(3 * k * (k + 1), 2 * (2 * k + 1) ** 2)))
            for k in range(2, 19)
        ]

    def test_lemmas_float_mode_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "lemmas", "--mode", "float", "--k-max", "3")
        assert (code, out) == (1, "")
        assert err == "radsum: error: argument --mode: invalid choice: 'float' (choose from 'exact')\n"

    def test_grid_points_is_hidden_and_ignored(self, capsys):
        assert main(["lemmas", "--help"]) == 0
        help_text = capsys.readouterr().out
        assert "--k-max" in help_text and "grid" not in help_text
        plain = run_cli(capsys, "lemmas", "--k-max", "3", "--format", "json", "--no-timestamp")
        assert run_cli(capsys, "lemmas", "--k-max", "3", "--grid-points", "-7", "--format", "json",
                       "--no-timestamp") == plain
        assert run_cli(capsys, "lemmas", "--grid-points", "x")[0] == 1

    def test_lemma_violation_exits_3(self, capsys, monkeypatch):
        import radsum.explore as explore_mod

        real = explore_mod.minmax_bound

        def rigged(k, **kw):
            return Fraction(1, 100) if k == 3 else real(k, **kw)

        monkeypatch.setattr(explore_mod, "minmax_bound", rigged)
        code, out, err = run_cli(capsys, "lemmas", "--k-max", "4", "--no-timestamp")
        assert code == 3
        assert "lemma violation" in err

    def test_failed_min_location_shows_in_csv(self, capsys, monkeypatch):
        import radsum.explore as explore_mod

        real = explore_mod.g

        def rigged(k, x):
            # g off only at k = 3's crossing, where each row checks it
            return real(k, x) + (Fraction(1, 100) if (k, x) == (3, Fraction(1, 4)) else 0)

        monkeypatch.setattr(explore_mod, "g", rigged)
        code, out, err = run_cli(capsys, "lemmas", "--k-max", "4", "--no-timestamp")
        assert code == 3
        assert [line.rsplit(",", 1)[1] for line in out.splitlines()] == ["min_location_ok", "true", "false", "true"]


class TestMcAndSearch:
    def test_mc_deterministic_output(self, capsys):
        args = ("mc", "sq:1/4,1/4,1/4,1/4", "--samples", "20000", "--seed", "9", "--no-timestamp")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert 0.8 < float(doc["result"]["estimate"]["decimal"]) < 0.95

    def test_mc_output_independent_of_blas_threads(self):
        # 0.2 repeated: many sums lie within rounding of t = 1, where a
        # BLAS-threaded sum would round differently
        argv = ["mc", ",".join(["0.2"] * 25), "--samples", "50003", "--seed", "2", "--no-timestamp"]
        outputs = []
        for threads in ("1", "2"):
            proc = run_fresh(argv, {"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("t", ["-1", "nan", "inf", "-inf"])
    def test_mc_rejects_bad_threshold_like_exact(self, capsys, t):
        for sub in ("mc", "exact"):
            code, out, err = run_cli(capsys, sub, "0.6,0.8", f"--threshold={t}", "--no-timestamp")
            assert code == 1
            assert out == ""
            assert "threshold" in err

    def test_search(self, capsys):
        code, doc, _ = run_json(
            capsys, "search", "--n", "2", "--budget", "600", "--seed", "0", "--no-timestamp"
        )
        assert code == 0
        assert doc["result"]["best_prob_exact"] == "1/2"
        assert doc["result"]["counterexample_candidate"] is False

    @pytest.mark.parametrize(
        "argv",
        [["exact", "0.6,0.8"], ["mc", "0.6,0.8"], ["exact", "sq:1,1"]],
        ids=["exact-float", "mc", "exact-exact"],
    )
    def test_threshold_past_float_range_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "-t", "1e400", "--no-timestamp")
        assert (code, out) == (1, "")
        assert err == "radsum: error: invalid input: threshold '1e400' exceeds the float range\n"

    def test_threshold_past_the_digit_limit_exit_1(self, capsys):
        # 1/10^5000: Python refuses to print an integer of more than 4300 digits
        code, out, err = run_cli(capsys, "exact", "sq:1,1", "--threshold=1e-5000", "--no-timestamp")
        assert (code, out) == (1, "")
        assert err == "radsum: error: invalid input: threshold '1e-5000' has too many digits to render\n"

    @pytest.mark.parametrize(
        "argv", [["exact", "0.6,0.6", "--strict"], ["mc", "0.6,0.8"]], ids=["exact-float", "mc"]
    )
    def test_threshold_underflowing_to_zero_exit_1(self, capsys, argv):
        # a strict count at t = 0 would drop the zero sums every t > 0 keeps
        code, out, err = run_cli(capsys, *argv, "-t", "1e-400", "--no-timestamp")
        assert (code, out) == (1, "")
        assert err == "radsum: error: invalid input: threshold '1e-400' underflows to 0 in float mode\n"

    def test_tiny_exact_threshold_and_zero_float_threshold(self, capsys):
        code, doc, _ = run_json(capsys, "exact", "sq:1,1", "-t", "1e-400", "--strict", "--no-timestamp")
        assert code == 0
        assert doc["result"]["probability"] == {"decimal": "0.5", "exact": "1/2"}
        for strict, p in (([], "0.5"), (["--strict"], "0.0")):
            code, doc, _ = run_json(capsys, "exact", "0.6,0.6", "-t", "0", *strict, "--no-timestamp")
            assert code == 0
            assert doc["result"]["t"] == {"decimal": "0.0"}
            assert doc["result"]["probability"] == {"decimal": p}

    def test_search_counterexample_exits_3(self, capsys, monkeypatch):
        from radsum import canonicalize, explore

        best = Fraction(1, 4)
        w = canonicalize([1, 1, 1, 1], "float")
        found = explore.SearchResult(
            best_w=w, best_prob=best, trajectory=((1, best),), budget_used=1,
            counterexample_candidate=True, n=4, seed=0,
        )
        monkeypatch.setattr(explore, "minimize_probability", lambda *a, **kw: found)
        code, doc, err = run_json(capsys, "search", "--n", "4", "--no-timestamp")
        assert code == 3
        assert err.startswith("COUNTEREXAMPLE CANDIDATE: search found probability 0.25 = 1/4 ")
        assert doc["result"]["counterexample_candidate"] is True
        assert doc["result"]["best_prob_exact"] == "1/4"


_WEIGHTED = ("exact", "distribution", "partition", "certify", "hybrid", "decomp-check", "mc")
# each subcommand's required arguments, and the RunConfig fields they set
_REQUIRED = {sub: (["sq:1,1"], {"weights": "sq:1,1"}) for sub in _WEIGHTED}
_REQUIRED["lemmas"] = ([], {})
_REQUIRED["search"] = (["--n", "3"], {"n": 3})
_LIMIT = {
    "exact": "--mitm-limit", "certify": "--mitm-limit", "decomp-check": "--mitm-limit",
    "search": "--mitm-limit", "distribution": "--full-limit", "partition": "--full-limit",
    "hybrid": "--full-limit", "mc": None, "lemmas": None,
}
_UNREAD_LIMITS = [
    (sub, flag) for sub, keep in _LIMIT.items()
    for flag in ("--full-limit", "--mitm-limit") if flag != keep
]


class TestParserContract:
    """``RunConfig`` holds every default; each subcommand takes only the size
    limit its handler reads."""

    @pytest.mark.parametrize("sub", list(_REQUIRED))
    def test_required_arguments_only_give_runconfig_defaults(self, sub):
        argv, fields = _REQUIRED[sub]
        assert cli.parse_config([sub, *argv]) == RunConfig(subcommand=sub, **fields)

    @pytest.mark.parametrize("sub,flag", _UNREAD_LIMITS)
    def test_unread_limits_rejected(self, capsys, sub, flag):
        code, out, err = run_cli(capsys, sub, *_REQUIRED[sub][0], flag, "30")
        assert (code, out) == (1, "")
        assert err == f"radsum: error: unrecognized arguments: {flag} 30\n"

    @pytest.mark.parametrize("sub", [sub for sub, flag in _LIMIT.items() if flag])
    def test_read_limit_reaches_config(self, sub):
        flag = _LIMIT[sub]
        cfg = cli.parse_config([sub, *_REQUIRED[sub][0], flag, "7"])
        assert getattr(cfg, flag[2:].replace("-", "_")) == 7

    @pytest.mark.parametrize("sub", cli.SUBCOMMANDS)
    def test_help_returns_0(self, capsys, sub):
        # argparse prints the help and exits; main returns its code instead
        code, out, err = run_cli(capsys, sub, "--help")
        assert (code, err) == (0, "") and out.startswith("usage:")

    def test_settable_values(self):
        subparsers = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
        settable = [
            a for p in subparsers.choices.values() for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert len(settable) == 54
        assert len(_UNREAD_LIMITS) == 11
        assert {a.default for a in settable} == {argparse.SUPPRESS}

    def test_benchmark_argv_shapes(self):
        # perfbench's certify-cli lemmas call still passes the ignored --grid-points
        argv = ["lemmas", "--mode", "exact", "--k-max", "40", "--grid-points", "500", "--format", "json"]
        cfg = cli.parse_config(argv)
        assert cfg == RunConfig(subcommand="lemmas", mode="exact", k_max=40, fmt="json")
        assert cli.parse_config(argv[:5] + argv[7:]) == cfg
        cfg = cli.parse_config(["mc", "0.5,0.5", "--samples", "4096", "--seed", "11"])
        assert (cfg.weights, cfg.samples, cfg.seed, cfg.t) == ("0.5,0.5", 4096, 11, "1")
        cfg = cli.parse_config(["search", "--n", "8", "--budget", "40", "--seed", "2"])
        assert (cfg.n, cfg.budget, cfg.seed, cfg.mode) == (8, 40, 2, None)


class TestErrorsAndExitCodes:
    def test_bad_grammar_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "exact", "sq:oops")
        assert code == 1
        assert "invalid input" in err

    def test_squared_weight_past_the_digit_limit_exit_1(self, capsys):
        # Python refuses to read an integer of more than 4300 digits
        code, out, err = run_cli(capsys, "exact", "sq:1," + "9" * 5000, "--no-timestamp")
        assert (code, out) == (1, "")
        assert err == "radsum: error: invalid input: squared-weight token of 5000 characters has too many digits\n"

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "exact", "sq:1/2,1/2", "--frobnicate")
        assert code == 1

    def test_unknown_subcommand_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        with pytest.raises(InputError, match="unknown subcommand"):
            cli.execute(RunConfig(subcommand="frobnicate"))

    def test_workers_flag_rejected(self, capsys):
        code, out, err = run_cli(capsys, "exact", "sq:1/2,1/2", "--workers", "2")
        assert code == 1
        assert out == ""
        assert "--workers" in err

    def test_missing_subcommand_exit_1(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_negative_limit_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "exact", "0.6,0.8", "--mitm-limit", "-1")
        assert (code, out) == (1, "")
        assert "size limit must be an integer >= 0, got -1" in err

    def test_negative_limit_exit_1_when_nothing_is_enumerated(self, capsys):
        code, out, err = run_cli(capsys, "hybrid", "3", "--full-limit", "-1", "--no-timestamp")
        assert (code, out) == (1, "")
        assert "size limit must be an integer >= 0, got -1" in err

    def test_auto_exact_check_within_the_limit_only(self, capsys):
        weights = ",".join(["0.3"] * 10)
        code, doc, _ = run_json(capsys, "certify", weights, "--mitm-limit", "5", "--no-timestamp")
        assert code == 0
        assert "sound_against" not in doc["result"]
        code, _, err = run_cli(capsys, "certify", weights, "--mitm-limit", "5", "--exact-check")
        assert code == 2
        assert "instance too large" in err

    def test_size_limit_exit_2(self, capsys):
        weights = "sq:" + ",".join(["1/30"] * 30)
        code, _, err = run_cli(capsys, "partition", weights)
        assert code == 2
        assert "instance too large" in err

    @pytest.mark.parametrize(
        "sub, run", [("distribution", "sum_distribution"), ("exact", "threshold_probability")]
    )
    def test_out_of_memory_exit_2(self, capsys, monkeypatch, sub, run):
        # a raised limit admits a table the machine cannot hold: numpy raises
        # MemoryError (42 float weights ask for 16 TiB)
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.engine, run, exhausted)
        flag = _LIMIT[sub]
        code, out, err = run_cli(capsys, sub, ",".join(["1"] * 42), flag, "99", "--no-timestamp")
        assert (code, out) == (2, "")
        assert err == f"radsum: error: out of memory at n=42; lower {flag}\n"

    def test_out_of_memory_exit_2_in_a_capped_process(self):
        # the same 16 TiB request, refused by a 4 GiB address-space cap
        # whatever the host's overcommit policy
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        argv = ["distribution", ",".join(["1"] * 42), "--full-limit", "99", "--no-timestamp"]
        proc = run_fresh(argv, {"OPENBLAS_NUM_THREADS": "1"}, preexec_fn=cap)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "radsum: error: out of memory at n=42; lower --full-limit\n"

    def test_float_to_exact_promotion_rejected(self, capsys):
        code, _, err = run_cli(capsys, "exact", "0.5,0.5", "--mode", "exact")
        assert code == 1
        assert "sq:" in err

    def test_exact_to_float_demotion_allowed(self, capsys):
        code, doc, _ = run_json(
            capsys, "exact", "sq:1/4,1/4,1/4,1/4", "--mode", "float", "--no-timestamp"
        )
        assert code == 0
        assert float(doc["result"]["probability"]["decimal"]) == 0.875

    def test_float_mode_squares_are_never_factored(self, capsys, monkeypatch):
        # exact mode gives up on these squares: factoring a 131-bit integer
        # runs past its budget
        from radsum import algebraic, from_squares
        from radsum.render import render_number

        def factorint(n):
            raise AssertionError("float mode factored a square")

        monkeypatch.setattr(algebraic, "factorint", factorint)
        squares = [1, 0, 1, 2, 10**40]
        text = "sq:" + ",".join(map(str, squares))
        code, _, err = run_cli(capsys, "mc", text, "--mode", "float", "--samples", "1", "--no-timestamp")
        assert (code, err) == (0, "")
        code, doc, _ = run_json(capsys, "exact", text, "--mode", "float", "--no-timestamp")
        assert code == 0 and doc["config"]["mode"] == "float"
        # the weights are the library's float weights of the squares
        assert doc["result"]["weights"] == [render_number(v, "float") for v in from_squares(squares, "float").values]

    @pytest.mark.parametrize("weights", ["-1,0.5", "-0.5,1", "-.5,1"])
    def test_weight_list_starting_with_minus(self, capsys, weights):
        code, out, err = run_cli(capsys, "exact", weights, "--no-timestamp")
        assert (code, out) == (1, "")
        assert err.startswith("radsum: error: ") and len(err.splitlines()) == 1
        assert f"'{weights}'" in err and f"'radsum exact -- {weights}'" in err
        code, doc, _ = run_json(capsys, "exact", "--no-timestamp", "--", weights)
        assert code == 0 and doc["config"]["weights"] == weights
        # after '--' no list reads as an option, so no hint is given
        code, _, err = run_cli(capsys, "exact", "--", weights, "--no-timestamp")
        assert code == 1 and "'--'" not in err


class TestInvariantViolations:
    """Internal invariants raise SoundnessError, which survives python -O
    and maps to exit code 3.  Each case injects the fault it guards against."""

    @pytest.mark.parametrize(
        "site", ["partition_mass", "float_norm", "search_no_candidate", "search_recomputed"]
    )
    def test_forced_violation_exits_3(self, capsys, monkeypatch, site):
        from radsum import engine, explore, weights

        if site == "partition_mass":
            # One extra pattern in the event masses.
            monkeypatch.setattr(engine, "sum", lambda xs: builtins.sum(xs) + 1, raising=False)
            argv = ["partition", "sq:1/4,1/4,1/4,1/4"]
        elif site == "float_norm":
            # A renormalization that divides by twice the norm.
            fake_math = types.SimpleNamespace(**vars(math))
            fake_math.sqrt = lambda x: 2 * math.sqrt(x)
            monkeypatch.setattr(weights, "math", fake_math)
            argv = ["mc", "3,4", "--samples", "100"]
        elif site == "search_no_candidate":
            def reject(*args, **kwargs):
                raise InputError("rejected")

            monkeypatch.setattr(explore, "_canonical_floats", reject)
            argv = ["search", "--n", "3", "--budget", "2", "--seed", "0"]
        else:
            calls = itertools.count()
            monkeypatch.setattr(
                explore, "admissible_count", lambda w, t, **kw: (next(calls), 1 << w.n)
            )
            argv = ["search", "--n", "3", "--budget", "1", "--seed", "0"]
        code, out, err = run_cli(capsys, *argv, "--no-timestamp")
        assert code == 3
        assert out == ""
        assert "SOUNDNESS FAILURE" in err


class TestDeterminismAndConfig:
    def test_byte_identical_reruns(self, capsys):
        for args in (
            ("certify", "sq:16/25,9/25", "--no-timestamp"),
            ("lemmas", "--k-max", "6", "--no-timestamp"),
            ("search", "--n", "2", "--budget", "300", "--seed", "0", "--no-timestamp"),
        ):
            _, out1, _ = run_cli(capsys, *args)
            _, out2, _ = run_cli(capsys, *args)
            assert out1.encode() == out2.encode()

    def test_timestamp_present_by_default(self, capsys):
        _, doc, _ = run_json(capsys, "certify", "sq:16/25,9/25")
        assert "timestamp" in doc

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run_cli(
            capsys, "certify", "sq:16/25,9/25", "--no-timestamp", "-o", str(path)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["result"]["final_bound"]["exact"] == "1/2"

    def test_unwritable_output_exit_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "cert.json"
        code, out, err = run_cli(
            capsys, "certify", "sq:16/25,9/25", "--no-timestamp", "-o", str(path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"radsum: error: cannot write {path}")
        assert not path.parent.exists()

    def test_shared_parser_matches_fresh_processes(self, capsys, tmp_path):
        # main() reuses one parser per process; interleaved subcommands with
        # different --mode defaults, a rejected flag and -o must each match
        # the same argv run in a fresh interpreter.
        out_file = tmp_path / "cert.json"
        argvs = [
            ["certify", "sq:3,2,2,1,1", "--no-timestamp"],
            ["lemmas", "--k-max", "5", "--no-timestamp"],
            ["mc", "0.5,0.5,0.5,0.5", "--samples", "500", "--no-timestamp"],
            ["certify", "sq:1,1,1", "--frobnicate"],
            ["lemmas", "--mode", "exact", "--k-max", "4", "--format", "json", "--no-timestamp"],
            ["certify", "0.6,0.5,0.4", "--no-timestamp", "-o", str(out_file)],
            ["lemmas", "--k-max", "3", "--format", "json", "--no-timestamp"],
            ["distribution", "sq:" + ",".join(["1"] * 25)],
            ["exact", "sq:1,1", "--threshold", "abc"],
        ]
        fresh = []
        for argv in argvs:
            proc = run_fresh(argv)
            written = out_file.read_text() if out_file.exists() else None
            out_file.unlink(missing_ok=True)
            fresh.append((proc.returncode, proc.stdout, proc.stderr, written))
        shared = []
        for argv in argvs:
            code, out, err = run_cli(capsys, *argv)
            written = out_file.read_text() if out_file.exists() else None
            out_file.unlink(missing_ok=True)
            shared.append((code, out, err, written))
        assert shared == fresh
        assert [r[0] for r in shared] == [0, 0, 0, 1, 0, 0, 0, 2, 1]
        assert shared[5][3] is not None
        assert cli.build_parser() is cli.build_parser()

    def test_runconfig_roundtrip(self):
        cfg = RunConfig(subcommand="exact", weights="sq:1/2,1/2", strict=True, seed=5)
        assert RunConfig(**dataclasses.asdict(cfg)) == cfg
        # the document's config is the shallow field dict, in field order
        assert list(vars(cfg).items()) == list(dataclasses.asdict(cfg).items())

    def test_thread_env_ignored(self, capsys, monkeypatch):
        monkeypatch.delenv("RADSUM_THREADS", raising=False)
        _, plain, _ = run_cli(capsys, "exact", "sq:1/2,1/2", "--no-timestamp")
        monkeypatch.setenv("RADSUM_THREADS", "3")
        _, out, _ = run_cli(capsys, "exact", "sq:1/2,1/2", "--no-timestamp")
        assert out == plain
        assert "workers" not in json.loads(out)["config"]

    def test_every_subcommand_has_handler_and_parser(self):
        subparsers = next(
            a for a in cli.build_parser()._actions if a.dest == "subcommand"
        )
        assert set(cli.SUBCOMMANDS) == set(cli._HANDLERS) == set(subparsers.choices)


# (good, bad) tokens: good ones mostly give a run, bad ones an input error
_WEIGHT_TOKENS = {
    "decimal": (["0", "1", "-1", "0.5", "-2.25", "3", "1e300", "1e-300"], ["nan", "inf", "x", ""]),
    "sq": (["0", "1", "2", "3", "9/25", "1/3", "10000", "1/10000"], ["1/0", "-1", "9" * 5000, "x", ""]),
}
_THRESHOLDS = (["1", "0", "3/4", "0.999", "1e-400"], ["-1", "1e400", "1e-5000", "nan", "inf", "abc", "1/0"])
_LIMITS = (["3", "5", "12"], ["-1", "x"])
# every value flag, with values small enough that any run takes milliseconds
_FLAG_VALUES = {
    "--threshold": _THRESHOLDS, "-t": _THRESHOLDS, "--mode": (["exact", "float"], ["bogus"]),
    "--format": (["csv", "json"], ["xml"]), "--samples": (["1", "50"], ["0", "-5", "x"]),
    "--seed": (["0", "7"], ["-1", "x"]), "--confidence": (["0.5", "0.99"], ["1", "0", "x"]),
    "--k-max": (["2", "4"], ["0", "-1", "x"]), "--grid-points": (["-1", "0", "3", "10"], ["x", "1.5"]),
    "--budget": (["0", "4", "12"], ["-1", "x"]), "--n": (["2", "3", "5"], ["0", "-1", "x"]),
    "--full-limit": _LIMITS, "--mitm-limit": _LIMITS,
}
# lemmas has one mode: exact
_SUB_FLAG_VALUES = {("lemmas", "--mode"): (["exact"], ["float", "bogus"])}
_SWITCHES = ["--strict", "--exact-check", "--no-timestamp", "--frobnicate", "--workers"]
# what keeps each subcommand's default run small
_SMALL_DEFAULTS = {
    "mc": ["--samples", "50"],
    "lemmas": ["--k-max", "3"],
    "search": ["--n", "3", "--budget", "4"],
}


def _accepted_flags(sub) -> list:
    """The flags of ``_FLAG_VALUES`` and ``_SWITCHES`` that ``sub`` takes."""
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    taken = subparsers.choices[sub]._option_string_actions if sub in subparsers.choices else {}
    return [f for f in [*_FLAG_VALUES, *_SWITCHES] if f in taken]


@st.composite
def _argvs(draw):
    """``(argv, output)``: a subcommand (or garbage), a weight list of edge
    tokens, flags with good and bad values, unknown and repeated flags, and
    whether to add ``-o``.  About one draw in eight is bad."""
    bad = lambda: draw(st.integers(0, 7)) == 0
    sub = draw(st.sampled_from(cli.SUBCOMMANDS)) if not bad() else draw(st.sampled_from(["frobnicate", None]))
    argv = [] if sub is None else [sub]
    if sub in _WEIGHTED:
        good, garbage = _WEIGHT_TOKENS[draw(st.sampled_from(sorted(_WEIGHT_TOKENS)))]
        tokens = draw(st.lists(st.sampled_from(good), min_size=1, max_size=6))
        if draw(st.booleans()):  # 4-8 equal weights are Case 2, where partition and hybrid run
            tokens = tokens[:1] * draw(st.integers(4, 8))
        if bad():
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(garbage)))
        argv.append(("sq:" if good is _WEIGHT_TOKENS["sq"][0] else "") + ",".join(tokens))
    argv += _SMALL_DEFAULTS.get(sub, [])
    own = _accepted_flags(sub)
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(own if own and not bad() else [*_FLAG_VALUES, *_SWITCHES]))
        if flag in _FLAG_VALUES:
            good, garbage = _SUB_FLAG_VALUES.get((sub, flag), _FLAG_VALUES[flag])
            argv += [flag, draw(st.sampled_from(garbage if bad() else good))]
        else:
            argv.append(flag)
    return argv + ["--no-timestamp"], draw(st.booleans())


class TestGeneratedArgv:
    """Any argv ends in an exit code, never a traceback: 0 with a parseable
    document, or 1-3 with one ``radsum:`` line on stderr."""

    @staticmethod
    def _run(argv, path):
        out, err = io.StringIO(), io.StringIO()
        path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        written = path.read_text() if path.exists() else None
        return code, out.getvalue(), err.getvalue(), written

    @given(_argvs())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_exit_codes_and_documents(self, case):
        argv, output = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.txt"
            if output:
                argv = [*argv, "-o", str(path)]
            first = self._run(argv, path)
            assert self._run(argv, path) == first
        code, out, err, written = first
        assert code in (0, 1, 2, 3)
        if argv[0] == "lemmas" and any(a == "--mode" and b != "exact" for a, b in zip(argv, argv[1:])):
            assert code == 1 and "invalid choice" in err, (argv, err)
        if code:
            assert out == "" and written is None
            assert len(err.splitlines()) == 1 and err.startswith("radsum: "), err
            return
        assert err == ""
        text = written if output else out
        assert (out == "") == output
        formats = [value for flag, value in zip(argv, argv[1:]) if flag == "--format"]
        if argv[0] in ("distribution", "lemmas") and formats[-1:] != ["json"]:
            rows = list(csv.reader(io.StringIO(text)))
            assert rows[0][0] == ("value" if argv[0] == "distribution" else "k")
            assert len(rows) > 1 and {len(r) for r in rows} == {len(rows[0])}
        else:
            assert json.loads(text)["command"] == argv[0]
