"""CLI: subcommand behavior, schemas, exit codes, determinism."""

import builtins
import itertools
import json
import math
import types
from fractions import Fraction

import pytest

from radsum import InputError, cli
from radsum.cli import RunConfig, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


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


class TestDistributionAndLemmas:
    def test_distribution_csv(self, capsys):
        code, out, _ = run_cli(capsys, "distribution", "sq:16/25,9/25", "--no-timestamp")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,value_exact,count,probability,probability_exact"
        assert len(lines) == 5
        assert lines[1].split(",")[1] == "-7/5"

    def test_distribution_json(self, capsys):
        code, doc, _ = run_json(
            capsys, "distribution", "sq:16/25,9/25", "--format", "json", "--no-timestamp"
        )
        vals = [e["value"]["exact"] for e in doc["result"]["entries"]]
        assert vals == ["-7/5", "-1/5", "1/5", "7/5"]

    def test_lemmas_csv_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "lemmas", "--k-max", "5", "--grid-points", "101", "--no-timestamp"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,crossing_x,g_at_crossing,h_at_crossing,minmax,monotone_g_ok,monotone_h_ok"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "2" and first[4] == "0.36" and first[5] == "true"

    def test_lemmas_json(self, capsys):
        code, doc, _ = run_json(
            capsys, "lemmas", "--k-max", "4", "--grid-points", "101",
            "--format", "json", "--no-timestamp",
        )
        assert code == 0
        assert doc["result"]["ok"] is True
        assert doc["result"]["rows"][0]["minmax"]["exact"] == "9/25"

    def test_lemma_violation_exits_3(self, capsys, monkeypatch):
        import radsum.explore as explore_mod

        real = explore_mod.minmax_bound

        def rigged(k, **kw):
            return Fraction(1, 100) if k == 3 else real(k, **kw)

        monkeypatch.setattr(explore_mod, "minmax_bound", rigged)
        code, out, err = run_cli(
            capsys, "lemmas", "--k-max", "4", "--grid-points", "51", "--no-timestamp"
        )
        assert code == 3
        assert "lemma violation" in err


class TestMcAndSearch:
    def test_mc_deterministic_output(self, capsys):
        args = ("mc", "sq:1/4,1/4,1/4,1/4", "--samples", "20000", "--seed", "9", "--no-timestamp")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert 0.8 < float(doc["result"]["estimate"]["decimal"]) < 0.95

    def test_search(self, capsys):
        code, doc, _ = run_json(
            capsys, "search", "--n", "2", "--budget", "600", "--seed", "0", "--no-timestamp"
        )
        assert code == 0
        assert doc["result"]["best_prob_exact"] == "1/2"
        assert doc["result"]["counterexample_candidate"] is False


class TestErrorsAndExitCodes:
    def test_bad_grammar_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "exact", "sq:oops")
        assert code == 1
        assert "invalid input" in err

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "exact", "sq:1/2,1/2", "--frobnicate")
        assert code == 1

    def test_unknown_subcommand_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_subcommand_exit_1(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_size_limit_exit_2(self, capsys):
        weights = "sq:" + ",".join(["1/30"] * 30)
        code, _, err = run_cli(capsys, "partition", weights)
        assert code == 2
        assert "instance too large" in err

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

            monkeypatch.setattr(explore, "canonicalize", reject)
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
            ("lemmas", "--k-max", "6", "--grid-points", "101", "--no-timestamp"),
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

    def test_runconfig_roundtrip(self):
        cfg = RunConfig(subcommand="exact", weights="sq:1/2,1/2", strict=True, seed=5)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_workers_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("RADSUM_THREADS", "3")
        _, doc, _ = run_json(capsys, "exact", "sq:1/2,1/2", "--no-timestamp")
        assert doc["config"]["workers"] == 3
