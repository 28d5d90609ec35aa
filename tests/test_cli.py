"""Command line interface: outputs, formats, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import lolab
from lolab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_nonzero_target(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "4", "--x", "1")
        assert code == 0
        blob = json.loads(out)
        assert blob["bound"] == "1/4"
        assert blob["k"] == 1 and blob["delta"] == 1
        assert blob["theorem"] == "NonUniform"

    def test_norm_sq_form(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "6", "--norm-sq", "9/4")
        assert code == 0
        assert json.loads(out)["k"] == 2

    def test_origin_even_and_odd(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "4", "--zero")
        assert code == 0 and json.loads(out)["theorem"] == "ErdosKleitman"
        code, out, _ = run_cli(capsys, "bound", "--n", "5", "--zero")
        assert code == 0 and json.loads(out)["theorem"] == "ZeroOdd"

    def test_hoeffding_field(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "4", "--x", "1", "--hoeffding"
        )
        assert code == 0
        blob = json.loads(out)
        assert 0 < blob["hoeffding"] < 1

    def test_hoeffding_past_float_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "5", "--norm-sq", "1" + "0" * 400, "--hoeffding"
        )
        blob = json.loads(out)
        assert (code, blob["hoeffding"], blob["bound"]) == (0, 0.0, "0/1")

    def test_a_zero_bound_builds_no_power_of_two(self, capsys):
        # past the reach n the sign count is 0, and 0/1 needs no 2^n
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "bound", "--n", "1000000000", "--x", "10000000000")
        assert time.perf_counter() - start < 1.0
        assert (code, json.loads(out)["bound"]) == (0, "0/1")

    def test_planar_target(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "3", "--x", "(1,1)")
        assert code == 0
        assert json.loads(out)["k"] == 2

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--n", "4")
        assert code == 2

    @pytest.mark.parametrize(
        "target",
        [
            ["--zero", "--x", "3"],
            ["--x", "1", "--norm-sq", "1"],
            ["--zero", "--norm-sq", "1"],
        ],
    )
    def test_target_flags_are_exclusive(self, capsys, target):
        # --zero --x 3 once printed the bound at x = 3 beside the
        # Hoeffding value at the origin
        code, out, err = run_cli(capsys, "bound", "--n", "4", *target, "--hoeffding")
        assert code == 2
        assert out == "" and "not allowed with argument" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "bound.json"
        code, out, _ = run_cli(
            capsys, "bound", "--n", "4", "--x", "1", "--out", str(path)
        )
        assert code == 0
        assert json.loads(path.read_text())["bound"] == "1/4"


class TestDist:
    def test_json_law(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--weights", "1,1,1")
        assert code == 0
        blob = json.loads(out)
        assert blob["n"] == 3
        assert {"x": ["1/1"], "probability": "3/8"} in blob["atoms"]

    def test_csv_law(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--weights", "1,1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x1,probability"
        assert "0/1,1/2" in lines

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    def test_stdout_bytes_equal_out_file_bytes(self, capsys, tmp_path, fmt):
        weights = tmp_path / "axes.json"
        weights.write_text(json.dumps(AXES_WEIGHTS))
        argv = ["dist", "--weights-file", str(weights), "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        path = tmp_path / "law"
        assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()

    def test_progression_law(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--weights", "1,1", "--ap-m", "3"
        )
        assert code == 0
        blob = json.loads(out)
        assert {"x": ["0/1"], "probability": "1/3"} in blob["atoms"]

    def test_progression_law_refuses_cap_full(self, capsys):
        # progression laws have no summand cap; --cap-full was once ignored
        code, out, err = run_cli(
            capsys, "dist", "--weights", "1,1,1", "--ap-m", "3", "--cap-full", "1"
        )
        assert code == 2
        assert out == "" and "error: --cap-full is not read with --ap-m" in err

    def test_weights_file_vectors(self, capsys, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps([["1", "0"], ["0", "1"]]))
        code, out, _ = run_cli(capsys, "dist", "--weights-file", str(path))
        assert code == 0
        blob = json.loads(out)
        assert blob["dim"] == 2
        assert {"x": ["1/1", "1/1"], "probability": "1/4"} in blob["atoms"]

    def test_weights_file_csv(self, capsys, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("1,0\n0,1\n")
        code, out, _ = run_cli(capsys, "dist", "--weights-file", str(path))
        assert code == 0
        assert json.loads(out)["dim"] == 2

    def test_cap_exit_code(self, capsys):
        weights = ",".join(["1"] * 6)
        code, _, err = run_cli(
            capsys, "dist", "--weights", weights, "--cap-full", "5"
        )
        assert code == 3
        assert "error" in err

    def test_missing_weights(self, capsys):
        code, _, _ = run_cli(capsys, "dist")
        assert code == 2

    def test_zero_denominator_is_bad_input(self, capsys):
        code, _, err = run_cli(capsys, "dist", "--weights", "1/0")
        assert code == 2
        assert "error:" in err and "'1/0'" in err


class TestAtom:
    def test_scalar(self, capsys):
        code, out, _ = run_cli(capsys, "atom", "--weights", "1,1,1", "--x", "1")
        assert code == 0
        assert json.loads(out) == "3/8"

    def test_off_support(self, capsys):
        code, out, _ = run_cli(
            capsys, "atom", "--weights", "1,1,1", "--x", "1/3"
        )
        assert code == 0
        assert json.loads(out) == "0/1"

    def test_cap_exit_code(self, capsys):
        weights = ",".join(["1"] * 6)
        code, _, _ = run_cli(
            capsys, "atom", "--weights", weights, "--x", "0", "--cap-mitm", "5"
        )
        assert code == 3


class TestVerify:
    def test_distance_bound_campaign(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "2", "--n", "6", "--d", "1",
            "--count", "25", "--seed", "7",
        )
        assert code == 0
        assert "NonUniform" in out
        assert "0 violations" in out

    def test_uniform_campaign_with_extremal(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "1", "--n", "4", "--count", "10",
            "--with-extremal",
        )
        assert code == 0
        assert "equalit" in out

    def test_zero_odd_campaign(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "4", "--n", "5", "--count", "10",
        )
        assert code == 0

    def test_zero_odd_rejects_even_n(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--theorem", "4", "--n", "4", "--count", "5"
        )
        assert code == 2

    def test_zero_weights_sup(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "3", "--x", "1", "--n-max", "6",
            "--count", "10",
        )
        assert code == 0
        assert "0 violations" in out

    @pytest.mark.parametrize(
        "argv, binomial",
        [
            (["verify", "--theorem", "3", "--x", "2", "--n-max", "4", "--count", "2"], (4, 2)),
            (["extremal", "--n", "9", "--x", "2"], (9, 2)),
            (["extremal", "--sup", "--x", "2"], (4, 2)),
        ],
        ids=("verify-sup", "extremal", "extremal-sup"),
    )
    def test_each_sup_and_extremal_bound_is_taken_once(
        self, capsys, monkeypatch, argv, binomial
    ):
        # the extremal config's bound is the bound the command reports
        calls = []
        count = lolab.bounds.nonuniform_count
        monkeypatch.setattr(
            lolab.bounds, "nonuniform_count", lambda *args: calls.append(args) or count(*args)
        )
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and calls == [binomial]

    def test_zero_weights_sup_rejects_csv(self, capsys, tmp_path):
        # it has no CSV rows; --format csv once exited 0 and wrote nothing
        path = tmp_path / "r.csv"
        code, out, err = run_cli(
            capsys, "verify", "--theorem", "3", "--x", "2", "--n-max", "4",
            "--count", "2", "--format", "csv", "--out", str(path),
        )
        assert code == 2
        assert out == "" and "writes JSON only" in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "theorem,stray",
        [
            ("1", ["--x", "5"]),
            ("1", ["--n-max", "5"]),
            ("1", ["--cap-mitm", "30"]),
            ("3", ["--n", "4"]),
            ("3", ["--d", "2"]),
            ("3", ["--with-extremal"]),
            ("3", ["--cap-full", "30"]),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else f"theorem{v}",
    )
    def test_rejects_the_other_modes_flags(self, capsys, theorem, stray):
        # --theorem 1 --x 5 once exited 0 with --x unused
        argv = {
            "1": ["--n", "3", "--count", "2"],
            "3": ["--x", "1", "--n-max", "3", "--count", "2"],
        }[theorem]
        code, out, err = run_cli(
            capsys, "verify", "--theorem", theorem, *argv, *stray
        )
        assert code == 2
        assert out == ""
        assert f"error: {stray[0]} is not read by theorem {theorem}" in err

    def test_json_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "2", "--n", "5", "--count", "8",
            "--out", str(path),
        )
        assert code == 0
        blob = json.loads(path.read_text())
        assert blob["violations"] == []
        assert blob["configs_checked"] == 8

    def test_csv_rows_need_out(self, capsys):
        # the rows go only to --out; without it a run once exited 0 and wrote none
        code, out, err = run_cli(
            capsys, "verify", "--theorem", "2", "--n", "4", "--count", "2",
            "--format", "csv",
        )
        assert code == 2
        assert out == "" and "error:" in err and "--out" in err

    def test_csv_rows_to_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--theorem", "2", "--n", "5", "--count", "8",
            "--format", "csv", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("n,d,k")
        assert len(lines) > 8


class TestSearch:
    def test_clean_cell_exits_zero(self, capsys, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        code, out, _ = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "4", "--d", "1",
            "--budget", "60", "--seed", "11", "--chains", "2",
            "--ledger", str(ledger),
        )
        assert code == 0
        assert "no violation found" in out
        assert len(ledger.read_text().splitlines()) == 1

    def test_box_constraint_cell_exits_one(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "6", "--d", "2",
            "--norm", "l2", "--constraint-norm", "linf",
            "--budget", "50", "--seed", "3", "--chains", "2",
            "--out", str(out_path),
        )
        assert code == 1
        assert "VIOLATION CERTIFIED" in out
        blob = json.loads(out_path.read_text())
        assert blob["certificates"]
        assert blob["certificates"][0]["margin"] == "1/4"

    def test_progression_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--conjecture", "1", "--m", "3", "--n", "4",
            "--budget", "40", "--seed", "2", "--chains", "2",
        )
        assert code == 0

    def test_conjecture_one_rejects_m_two(self, capsys):
        code, _, err = run_cli(
            capsys, "search", "--conjecture", "1", "--m", "2", "--n", "4",
            "--budget", "10",
        )
        assert code == 2
        assert "m >= 3" in err

    def test_checkpoint_then_resume(self, capsys, tmp_path):
        ckpt = tmp_path / "state.json"
        code, _, _ = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "4", "--budget",
            "40", "--seed", "19", "--chains", "2", "--checkpoint", str(ckpt),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "4", "--budget",
            "80", "--seed", "19", "--resume", str(ckpt),
        )
        assert code == 0
        assert "budget=80" in out

    def test_resume_refuses_a_budget_below_the_work_done(self, capsys, tmp_path):
        # the budget of a resumed run is its new total; one below the
        # checkpoint's evaluations was once accepted and reported as is
        ckpt = tmp_path / "state.json"
        code, _, _ = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "4", "--budget",
            "200", "--seed", "3", "--chains", "2", "--checkpoint", str(ckpt),
        )
        assert code == 0
        out_path = tmp_path / "result.json"
        code, out, err = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "4", "--budget",
            "50", "--seed", "3", "--resume", str(ckpt), "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert (
            "error: budget 50 gives chain 0 25 evaluations, "
            "but the checkpoint has done 100"
        ) in err
        assert not out_path.exists()

    @pytest.mark.parametrize("flag", ["--chains", "--anneal-config"])
    def test_resume_refuses_settings_flags(self, capsys, tmp_path, flag):
        # a resumed run keeps its checkpoint's chains and settings; these
        # flags were once accepted and silently ignored
        ckpt = tmp_path / "state.json"
        code, _, _ = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "4", "--budget",
            "40", "--seed", "19", "--chains", "2", "--checkpoint", str(ckpt),
        )
        assert code == 0
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"chains": 7}))
        value = "7" if flag == "--chains" else str(settings)
        out_path = tmp_path / "result.json"
        code, out, err = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "4", "--budget",
            "80", "--seed", "19", "--resume", str(ckpt), flag, value,
            "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert "error: a resumed run keeps its checkpoint's settings" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "cell",
        [
            ["--conjecture", "2", "--d", "2", "--norm-diag", "1/2,2"],
            ["--conjecture", "2", "--d", "2", "--constraint-norm-diag", "1/2,2"],
            ["--conjecture", "1", "--m", "3", "--norm-diag", "1/2,2"],
        ],
        ids=("norm-diag", "constraint-norm-diag", "conjecture1-norm-diag"),
    )
    def test_diag_needs_its_norm_flag(self, capsys, cell):
        # a diagonal without its norm flag was once dropped, running an L2 cell
        code, out, err = run_cli(
            capsys, "search", "--n", "3", "--budget", "10", "--chains", "1", *cell
        )
        diag_flag = cell[-2]
        assert code == 2
        assert out == ""
        assert f"error: {diag_flag} needs {diag_flag.removesuffix('-diag')}" in err

    def test_malformed_checkpoint_names_the_missing_field(self, capsys, tmp_path):
        ckpt = tmp_path / "state.json"
        ckpt.write_text(json.dumps({"format": "lolab-anneal-checkpoint"}))
        code, _, err = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "4", "--budget",
            "10", "--resume", str(ckpt),
        )
        assert code == 2
        assert "error:" in err and "no 'problem' field" in err

    def test_anneal_config_file(self, capsys, tmp_path):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps({"chains": 2, "structured_n_max": 4}))
        code, _, _ = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "4", "--budget",
            "20", "--anneal-config", str(path),
        )
        assert code == 0

    def test_wl2_norm_flag(self, capsys):
        code, _, _ = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "3", "--d", "2",
            "--norm", "wl2", "--norm-diag", "1/2,2", "--budget", "20",
            "--chains", "2",
        )
        assert code == 0

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_full_law_cap_fires_before_the_anneal(self, capsys, seed):
        # n = 26 is past the 24-summand full-law cap of the exact rescore;
        # the refusal must not depend on which configs the anneal nominates
        code, out, err = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "26",
            "--budget", "60", "--chains", "1", "--seed", seed,
        )
        assert code == 3
        assert out == ""
        assert "full-law summand cap is 24, request needs 26" in err

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ('{"t_start": 1e308, "t_end": 1e-308}', "got 1e-308 / 1e+308"),
            ('{"t_start": Infinity}', "got 0.0001 / inf"),
        ],
        ids=("underflow", "infinite-start"),
    )
    def test_schedule_without_a_positive_temperature_is_bad_input(
        self, capsys, tmp_path, schedule, message
    ):
        # the first once crashed with exit 1, the code of a certified
        # violation, and the second ran at a temperature of nan
        path = tmp_path / "settings.json"
        path.write_text(schedule)
        out_path, ckpt = tmp_path / "result.json", tmp_path / "state.json"
        code, out, err = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "4", "--budget", "50",
            "--seed", "1", "--anneal-config", str(path),
            "--out", str(out_path), "--checkpoint", str(ckpt),
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: anneal settings file {path}: need a finite t_start and a "
            f"t_end / t_start that does not underflow to 0, {message}\n"
        )
        assert not out_path.exists() and not ckpt.exists()

    def test_rejects_format_flag(self, capsys, tmp_path):
        # search writes JSON only; --format csv once wrote JSON into r.csv
        path = tmp_path / "r.csv"
        code, out, err = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "3", "--budget", "10",
            "--format", "csv", "--out", str(path),
        )
        assert code == 2
        assert out == "" and "unrecognized arguments: --format csv" in err
        assert not path.exists()

    def test_unknown_norm(self, capsys):
        code, _, _ = run_cli(
            capsys, "search", "--conjecture", "2", "--n", "3",
            "--norm", "l7", "--budget", "10",
        )
        assert code == 2


class TestAntichain:
    def test_unit_triple(self, capsys):
        code, out, _ = run_cli(
            capsys, "antichain", "--weights", "1,1,1", "--x", "1"
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["family"]["members"] == [[1, 2], [1, 3], [2, 3]]
        assert blob["milner"]["holds"] is True
        assert blob["cardinality_matches"] is True

    def test_intersection_level_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "antichain", "--weights", "1,1,1,1", "--x", "2",
            "--k", "2",
        )
        assert code == 0
        assert json.loads(out)["milner"]["holds"] is True

    def test_large_target_gives_empty_family_at_once(self, capsys):
        # k defaults to ceil(x), far past n: the empty family holds, no bound applies
        code, out, _ = run_cli(
            capsys, "antichain", "--weights", "1", "--x", "1000000000"
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["size"] == 0 and blob["k"] == 10**9
        assert blob["milner"] == {"bound": None, "holds": True, "hypothesis_error": None}

    def test_zero_denominator_target_is_bad_input(self, capsys):
        code, _, err = run_cli(
            capsys, "antichain", "--weights", "1,1", "--x", "1/0"
        )
        assert code == 2
        assert "error:" in err and "'1/0'" in err

    def test_rejects_vector_weights(self, capsys, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps([["1", "0"], ["0", "1"]]))
        code, _, _ = run_cli(
            capsys, "antichain", "--weights-file", str(path), "--x", "1"
        )
        assert code == 2

    def test_large_report_is_written_in_chunks(self, tmp_path):
        # 48,620 members and a 5.4 MB report: the members' text is written
        # WRITE_CHUNK members at a time, never held whole
        out_path = tmp_path / "family.json"
        argv = ["antichain", "--weights", ",".join(["1"] * 18), "--x", "0"]
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(out_path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        report = json.loads(out_path.read_text())
        assert report["size"] == len(report["family"]["members"]) == 48620


class TestExtremal:
    def test_aligned_config(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--n", "4", "--x", "1")
        assert code == 0
        blob = json.loads(out)
        assert blob["config"]["weights"] == [["1/2"]] * 4
        assert blob["equality"] is True
        assert blob["probability"] == "1/4"

    def test_sup_variant(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--sup", "--x", "2")
        assert code == 0
        blob = json.loads(out)
        assert blob["config"]["weights"] == [["1/1"]] * 4
        assert blob["theorem"] == "ZeroWeightsSup"
        assert blob["equality"] is True

    @pytest.mark.parametrize("flag,value", [("--n", "5"), ("--d", "3")])
    def test_sup_refuses_the_aligned_flags(self, capsys, tmp_path, flag, value):
        # --sup builds k*k copies in the target's dimension; --n 5 --d 3
        # were once accepted and a d = 1 config written
        out_path = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "extremal", "--sup", "--x", "2", flag, value,
            "--out", str(out_path),
        )
        assert code == 2
        assert out == "" and f"error: {flag} is not read with --sup" in err
        assert not out_path.exists()

    def test_out_of_reach(self, capsys):
        code, _, err = run_cli(capsys, "extremal", "--n", "2", "--x", "4")
        assert code == 2
        assert "nothing attains it" in err


class TestEarlyCaps:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", "--weights", "1", "--ap-m", "100000000"],
            ["search", "--conjecture", "1", "--m", "100000000", "--n", "3",
             "--budget", "20"],
        ],
        ids=("dist", "search"),
    )
    def test_progression_past_the_atom_cap_exits_at_once(self, capsys, argv):
        # m = 10^8 support points would take gigabytes; the cap fires first
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "law atom cap is 16777216, request needs 100000000" in err

    @pytest.mark.parametrize(
        "argv, needs, seconds",
        [
            (["search", "--conjecture", "1", "--m", "3001", "--n", "4", "--budget",
              "100", "--chains", "1", "--seed", "1"], 49459500, 2.0),
            (["dist", "--ap-m", "3001", "--weights", ",".join(["1"] * 8)],
             29262000, 2.0),
        ],
        ids=("search", "dist"),
    )
    def test_progression_past_the_pair_cap_exits(self, capsys, argv, needs, seconds):
        # a step of a 3001-point progression visits 1500 pairs per key: under
        # the atom cap such laws took minutes, and the pair cap fires first,
        # as soon as the steps to come must pass it: the dist law at its
        # fifth step, after 7.5M pairs spent, needing at least 29.3M
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < seconds
        assert (code, out) == (3, "")
        assert err == f"error: law pair cap is 16777216, request needs {needs}\n"

    def test_progression_under_the_pair_cap_is_built(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--ap-m", "3001", "--weights", "1,1,1")
        assert code == 0 and len(json.loads(out)["atoms"]) == 3 * 3000 + 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--theorem", "2", "--n", "1", "--d", "40", "--count", "1"],
            ["verify", "--theorem", "3", "--x", ",".join(["1/8"] * 40),
             "--n-max", "2", "--count", "1"],
        ],
        ids=("campaign", "sup"),
    )
    def test_campaign_draw_past_the_draw_cap_exits(self, capsys, argv):
        # at d = 40 about one grid point in 10^20 lies in the unit ball, so a
        # draw by rejection would never end; the draw cap fires in seconds
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 20.0
        assert (code, out) == (3, "")
        assert err.startswith("error: weight draw cap is 2097152, request needs ")
        assert "Traceback" not in err


class TestAlignedCap:
    @pytest.mark.parametrize(
        "argv, needs",
        [
            (["extremal", "--n", "4097", "--x", "1"], 4097),
            (["extremal", "--n", "6000", "--x", "1"], 6000),
            (["extremal", "--n", "15000", "--x", "1"], 15000),
            (["extremal", "--n", "100000", "--x", "1"], 100000),
            (["extremal", "--sup", "--x", "100"], 10000),
            (["extremal", "--sup", "--x", "300"], 90000),
            (["verify", "--theorem", "3", "--x", "120", "--n-max", "2", "--count", "1"],
             14400),
            (["verify", "--theorem", "3", "--x", "10000", "--n-max", "2", "--count",
              "1"], 10 ** 8),
        ],
    )
    def test_an_aligned_config_past_the_cap_exits_at_once(self, capsys, argv, needs):
        # n aligned weights cost about n^2 / 8 table updates: once seconds to
        # minutes of work, or a bound too long to print after it
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == f"error: aligned-config summand cap is 4096, request needs {needs}\n"

    def test_the_largest_aligned_config_is_checked(self, capsys):
        # 4096 * 4096 = LAW_ATOM_CAP
        code, out, _ = run_cli(capsys, "extremal", "--n", "4096", "--x", "1")
        assert code == 0 and json.loads(out)["equality"] is True
        assert lolab.bounds.ALIGNED_CAP ** 2 == lolab.LAW_ATOM_CAP


class TestCapFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", "--weights", "1,1", "--cap-full"],
            ["atom", "--weights", "1", "--x", "1", "--cap-mitm"],
            ["verify", "--theorem", "2", "--n", "3", "--count", "1", "--cap-full"],
            ["verify", "--theorem", "3", "--x", "1", "--n-max", "2", "--count", "1",
             "--cap-mitm"],
            ["antichain", "--weights", "1,1", "--x", "0", "--cap-full"],
        ],
        ids=("dist", "atom", "verify_campaign", "verify_sup", "antichain"),
    )
    def test_negative_cap_is_bad_input_and_zero_a_cap(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "-1")
        assert (code, out) == (2, "")
        assert f"argument {argv[-1]}: a summand cap must be >= 0, got -1" in err
        code, out, err = run_cli(capsys, *argv, "0")
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and " cap is 0, request needs " in err


@pytest.fixture
def default_int_digits():
    """Python's default limit of 4300 digits on int to str, restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int to str")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


class TestBoundDigitLimit:
    @pytest.mark.parametrize(
        "n, x, needs",
        [
            ("15000", "1", 4512),  # refused by n alone
            ("1000000", "1/2", 301024),  # refused before an 11 s binomial
            ("14294", "1", 4301),  # refused once the bound is known
        ],
    )
    def test_a_bound_too_long_to_print_is_a_cap(
        self, capsys, default_int_digits, n, x, needs
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bound", "--n", n, "--x", x)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            "error: printed digit (sys.get_int_max_str_digits()) "
            f"cap is 4300, request needs {needs}\n"
        )

    def test_zero_and_short_bounds_print(self, capsys, default_int_digits):
        # past squared norm n^2 the bound is 0 at any n; at n = 14000 the
        # bound's denominator has fewer than 4300 digits
        code, out, _ = run_cli(capsys, "bound", "--n", "20000", "--x", "30000")
        assert (code, json.loads(out)["bound"]) == (0, "0/1")
        code, out, _ = run_cli(capsys, "bound", "--n", "14000", "--x", "1")
        assert code == 0 and Fraction(json.loads(out)["bound"]) > 0


# A minimal valid command line per subcommand (per verify mode), and the
# shared flags it reads besides --out; every other shared flag is a usage
# error there
SHARED_FLAG_USE = {
    "bound": (["bound", "--n", "4", "--x", "1"], ()),
    "dist": (["dist", "--weights", "1,1"], ("--format", "--cap-full")),
    "atom": (["atom", "--weights", "1,1", "--x", "0"], ("--cap-mitm",)),
    "verify": (
        ["verify", "--theorem", "1", "--n", "3", "--count", "1"],
        ("--seed", "--format", "--cap-full"),
    ),
    "verify_theorem3": (
        ["verify", "--theorem", "3", "--x", "1", "--n-max", "2", "--count", "1"],
        ("--seed", "--format", "--cap-mitm"),
    ),
    "search": (
        ["search", "--conjecture", "2", "--n", "2", "--budget", "4"], ("--seed",)
    ),
    "antichain": (["antichain", "--weights", "1,1", "--x", "0"], ("--cap-full",)),
    "extremal": (["extremal", "--n", "4", "--x", "1"], ()),
}
SHARED_FLAG_VALUES = {
    "--seed": "1", "--format": "json", "--cap-full": "30", "--cap-mitm": "30"
}


class TestWeightsSource:
    @pytest.mark.parametrize("command", ("dist", "atom", "antichain"))
    def test_exactly_one_weights_flag(self, capsys, command):
        # --weights once won silently over --weights-file, even a missing one
        argv, _ = SHARED_FLAG_USE[command]
        rest = argv[3:]  # past the command and its --weights value
        both = [command, "--weights", "1", "--weights-file", "/nonexistent", *rest]
        for args in (both, [command, *rest]):
            code, out, err = run_cli(capsys, *args)
            assert (code, out) == (2, "")
            assert "--weights" in err and "--weights-file" in err


class TestSharedFlags:
    @pytest.mark.parametrize(
        "command,flag",
        [
            (command, flag)
            for command in sorted(SHARED_FLAG_USE)
            for flag in sorted(SHARED_FLAG_VALUES)
        ],
    )
    def test_each_command_takes_only_the_flags_it_reads(
        self, capsys, tmp_path, command, flag
    ):
        argv, used = SHARED_FLAG_USE[command]
        out_path = tmp_path / "out"
        code, _, err = run_cli(
            capsys, *argv, flag, SHARED_FLAG_VALUES[flag], "--out", str(out_path),
        )
        if flag in used:
            assert code == 0
            assert out_path.exists()
        else:
            assert code == 2
            assert (
                f"unrecognized arguments: {flag}" in err
                or f"error: {flag} is not read by theorem" in err
            )


PLANE_WEIGHTS = [
    ["1/2", "-1/3"], ["2/5", "1/4"], ["-3/7", "1/6"], ["1/3", "1/3"], ["0", "1/2"]
]
# a planar sign law with atoms on both axes and at the origin, where a
# mirrored "0/1" coordinate must stay unsigned
AXES_WEIGHTS = [
    [1, 0], [0, 1], ["1/2", "1/2"], ["-1/3", "0"], ["1/2", "1/2"], ["1/3", "0"]
]
MIXED = "1/2,-1/3,2/5,3/7,1/6,-5/9,1/4"
SMALL_GRID = [
    "--n", "5", "--d", "2", "--count", "6", "--seed", "3", "--denominator", "2"
]
PLANE_CAMPAIGN = ["--n", "6", "--d", "2", "--count", "6", "--seed", "3"]
GRID_20 = [
    "3/4", "1", "1", "5/8", "7/8", "1/2", "15/16", "1/16", "7/8", "9/16",
    "1/2", "1/2", "1/16", "5/8", "5/8", "11/16", "5/16", "5/8", "1/16", "1/2",
]

# sha256 of stdout followed by the --out file; the dist and verify cases
# were recorded before laws kept their integer form, the search, atom_scalar,
# antichain_ones and antichain_grid cases before every law went through one
# lattice-sum kernel, atom_plane and atom_unreachable before that kernel
# packed its points into ints, the search_c2_box_certifies and search_c2_wl2 cases
# before certify took its bound from SearchProblem, search_c2_l1 before each
# norm's rounding read one threshold list, the dist_axes and
# dist_ap3_origin cases before dist wrote a half-sorted law as a stream, and
# the other antichain cases before the Milner check moved into the antichain
# module, except antichain_three_bytes and antichain_empty_member, recorded
# before the family report's members were written from per-byte tables,
# the bound, extremal_sup, extremal_plane, verify_theorem3_json and
# search_c2_l1_past_table cases before every bound read its k from one
# rounding of the norm, and the search_*_sweep_*, search_c2_no_sweep,
# *_past_query_cap and antichain_grid_20 cases before every search
# candidate was scored from a law built from its lattice state, aligned
# configs got their own cap and families were built by meeting in the middle.
# Any change to law, campaign, search, certificate, family or bound bytes
# shows here
GOLDEN_OUTPUTS = {
    "dist_sign_json": (
        ["dist", "--weights", MIXED],
        "137b3af15311c88a11530126304b84a19fe6dd0e2bee58fd3a36a45f6dc0ebab",
    ),
    "dist_sign_csv": (
        ["dist", "--weights", MIXED, "--format", "csv"],
        "bab1ecc3b5a80e6bc983956e5386cd1b37db6d80f74bcc411d062dd29484bf1d",
    ),
    "dist_ap4_json": (
        ["dist", "--weights", "1/2,-1/3,2/5,3/4,1/6", "--ap-m", "4"],
        "1d9ce852aa624ca59a63fc9075d7b0267fefd8f60fd54df0e4f2949eefc721ba",
    ),
    "dist_plane_json": (
        ["dist", "--weights-file", "{weights}"],
        "7c1ec7bbfc5222fc3ec1a2bb79f8d7d3b19f49174d79913601258d760998e39c",
    ),
    "dist_axes_json": (
        ["dist", "--weights-file", "{axes}"],
        "5ffccb13301de57219bb76b5d70d9590ad804450c6e12b04e6cfed95dd660412",
    ),
    "dist_axes_csv": (
        ["dist", "--weights-file", "{axes}", "--format", "csv"],
        "03369ddeee915d06e4eb9ae9fb5029a2d67ea343c5824e13fce777183e5e5179",
    ),
    "dist_ap3_origin_json": (
        ["dist", "--weights", "1,1/2,1/2", "--ap-m", "3"],
        "6174509d768fb584cf1d1924f5203e6a2496fd2cfe620853d14fc085787f2a06",
    ),
    "dist_ap3_origin_csv": (
        ["dist", "--weights", "1,1/2,1/2", "--ap-m", "3", "--format", "csv"],
        "e9b68e51ad2f532811ca8e6bcdd16da3e82f4ed0e28cedc038626da1aec9c24e",
    ),
    "verify_theorem1_json": (
        ["verify", "--theorem", "1", *SMALL_GRID, "--with-extremal"],
        "b9e6bc5e5e4e9903fde5ee3e0e9f96c83123e5f56267adf0bcc94fb31ad38a43",
    ),
    "verify_theorem2_json": (
        ["verify", "--theorem", "2", *PLANE_CAMPAIGN, "--with-extremal"],
        "9d413733879b8dc9968d08fc8e87ddc5c9c01cd5b7dbabc71132e09d45911f5a",
    ),
    "verify_theorem4_json": (
        ["verify", "--theorem", "4", *SMALL_GRID, "--with-extremal"],
        "288a64841759678e0035d2ab9ea2d13b392fceeb4ba79b41594390cd4e87bbb7",
    ),
    "verify_theorem1_csv": (
        ["verify", "--theorem", "1", *SMALL_GRID, "--format", "csv"],
        "537e7f9ac61ee0884d7a0d2a107272c5d2c177bfe090aadb956dede047625055",
    ),
    "verify_theorem4_csv": (
        ["verify", "--theorem", "4", *SMALL_GRID, "--format", "csv"],
        "3d1c63b05ab0e8a76a1b75a63e7b8b92a9bd2b38141111a00c22cb3bd22064d7",
    ),
    "verify_theorem2_csv": (
        ["verify", "--theorem", "2", *PLANE_CAMPAIGN, "--format", "csv"],
        "80604536bab7aa0445c4796108c656bcb690975fde40af6dacad2c0e34bcf630",
    ),
    "search_c2_linf": (
        ["search", "--conjecture", "2", "--norm", "linf", "--n", "5", "--d", "2",
         "--budget", "120", "--seed", "4", "--chains", "2"],
        "5889cf14a7b2436229335bae177dc1355e021fd47e7b3cf7af126c8722d5a051",
    ),
    "search_c2_l2": (
        ["search", "--conjecture", "2", "--n", "6", "--d", "2", "--budget", "100",
         "--seed", "7", "--chains", "2"],
        "74cc8a6faff84585215c605bb11fb313a41121cf635ccee30cb5216fe898d384",
    ),
    "search_c1_m3": (
        ["search", "--conjecture", "1", "--m", "3", "--n", "5", "--budget", "80",
         "--seed", "2", "--chains", "2"],
        "f670bc2cfb445400e9fb53995f1e5ce71ec66687ddddfcd4a402db2f873559ce",
    ),
    "search_c1_m4": (
        ["search", "--conjecture", "1", "--m", "4", "--n", "4", "--d", "2",
         "--budget", "60", "--seed", "5", "--chains", "2"],
        "3106504c5613329d386544fa30ca614155cef9099d345ea19dd3d73692098210",
    ),
    "search_c2_box_certifies": (
        ["search", "--conjecture", "2", "--n", "6", "--d", "2", "--budget", "100",
         "--seed", "3", "--constraint-norm", "linf"],
        "67dcbf30094c53451507092d995397869244a0a0dfffe075244670f3af3551b2",
    ),
    "search_c2_wl2": (
        ["search", "--conjecture", "2", "--norm", "wl2", "--norm-diag", "1/2,2",
         "--n", "5", "--d", "2", "--budget", "200", "--seed", "6"],
        "5823dfe6f384244e6a80e1f23506beb8ff77fe8e07477a532cee3b28e8da8f5e",
    ),
    "search_c2_l1": (
        ["search", "--conjecture", "2", "--norm", "l1", "--n", "5", "--d", "2",
         "--budget", "150", "--seed", "9", "--chains", "2"],
        "7430babb272f18b63a78c79384790217f8eafe8484b213dd9cefeae48b22bc5c",
    ),
    "atom_scalar": (
        ["atom", "--weights", "1/2,1/3,1/6,1/4,3/4,1/3,2/3,1/2,1/4,1/6,5/12",
         "--x", "1"],
        "f36909d44570d0c22ed6e7ec5420367d83f669a044cae1648f3c5f7b04eeedc0",
    ),
    # a planar target whose first coordinate is the sum's reach, 349/210
    "atom_plane": (
        ["atom", "--weights-file", "{weights}", "--x", "349/210,7/12"],
        "a308eb6d3bd50e958ab760010a9832e178df00bcac358c9b9a0ffcfc860759d3",
    ),
    # a target past the sum's reach, 3319/1260
    "atom_unreachable": (
        ["atom", "--weights", MIXED, "--x", "3"],
        "cd4879679b16f84aaf9c6df5914b2064cc5ff7c799234978d53de44b47a8c423",
    ),
    "antichain_ones": (
        ["antichain", "--weights", "1,1,1,1,1,1", "--x", "2"],
        "7ae6f04787c09a384bfac1d6a72a00bf289841f5c6577d3e4e0ba534d8f65143",
    ),
    "antichain_grid": (
        ["antichain", "--weights", "1/2,1/4,3/4,1/4,1/2,1,3/4,1/4", "--x", "3/4"],
        "314076de70a2b2a48a1f247c9a9cd9453b2fc8facd4b2f10ec83fa7ee7038311",
    ),
    # an antichain that is not 2-intersecting: bound and holds are null
    "antichain_not_k_intersecting": (
        ["antichain", "--weights", "1,1,1", "--x", "1", "--k", "2"],
        "e52f5cc17e632a5befc3c9bdea3a37dc3e6ad97620c3ce57f0654ba3a6615396",
    ),
    # an empty family with k > n: no bound applies, and it holds
    "antichain_empty_k_past_n": (
        ["antichain", "--weights", "1,1", "--x", "1", "--k", "5"],
        "46f58cb3b3a4560a21f28a9570f0016530fc4caab4b0a6e7b600b6c8024001df",
    ),
    # n = 18: 62 members, whose elements span three bytes of each mask
    "antichain_three_bytes": (
        ["antichain", "--weights", ",".join(map(str, range(1, 19))), "--x", "131"],
        "4a782f1405d5e091974c2d12c71a38387dc6bd04bec0450051cd9cae47a831c3",
    ),
    # the one member is the empty set
    "antichain_empty_member": (
        ["antichain", "--weights", "1,1", "--x", "-2"],
        "3950b18dccfd20efc64db93639b9cd28af6d1508d3c8ffd157c023de01ffc93a",
    ),
    # bounds at exact integer norms (2, |(3, 4)| = 5 and sqrt(9) = 3) and one
    # grid step of 1/16 either side of them, in --x and --norm-sq form
    "bound_x_at_integer_norm": (
        ["bound", "--n", "6", "--x", "2"],
        "51a4bd2a887fb11763300f5079d9a34059c72758ac630641b3ab9215b95e9eb0",
    ),
    "bound_x_below_integer_norm": (
        ["bound", "--n", "6", "--x", "31/16"],
        "51a4bd2a887fb11763300f5079d9a34059c72758ac630641b3ab9215b95e9eb0",
    ),
    "bound_x_above_integer_norm": (
        ["bound", "--n", "6", "--x", "33/16"],
        "8965b5929243d0015ff6750ad408d3413ed42ed578dda9b4002e989060fbffb4",
    ),
    "bound_plane_at_integer_norm": (
        ["bound", "--n", "7", "--x", "(3,4)"],
        "5bd009ee6dfbba129ea157f3908c9df2b6b455c797a76d55fb220aa1560598d4",
    ),
    "bound_plane_below_integer_norm": (
        ["bound", "--n", "7", "--x", "(3,63/16)"],
        "5bd009ee6dfbba129ea157f3908c9df2b6b455c797a76d55fb220aa1560598d4",
    ),
    "bound_plane_above_integer_norm": (
        ["bound", "--n", "7", "--x", "(3,65/16)"],
        "ad0adaca180c37758f6660f4d9da93be0cbdaacfcc84768adad175f6128898b7",
    ),
    "bound_norm_sq_at_integer_norm": (
        ["bound", "--n", "5", "--norm-sq", "9"],
        "a21ce55bb753ea5bdcfb3968b06f143c8fde585fd5e53dda29a8bbf7ae38037b",
    ),
    "bound_norm_sq_below_integer_norm": (
        ["bound", "--n", "5", "--norm-sq", "143/16"],
        "a21ce55bb753ea5bdcfb3968b06f143c8fde585fd5e53dda29a8bbf7ae38037b",
    ),
    "bound_norm_sq_above_integer_norm": (
        ["bound", "--n", "5", "--norm-sq", "145/16"],
        "be9e374fe6b354118f630578305dfa57e7b51cade0736b5b1c2fa7d0c7b04fb1",
    ),
    "bound_origin_even": (
        ["bound", "--n", "6", "--zero"],
        "0f27b022658b19049d418c345fb8137cb15eb6b9592d8fe014f970ab381f5eb0",
    ),
    "bound_origin_odd": (
        ["bound", "--n", "7", "--zero"],
        "66fc678115a1867acef21c6c42cedc68e81763c5b0d1ce41155c35996c9784bc",
    ),
    # k = 10 and delta = 1 past the reach of 3 summands, bound 0/1
    "bound_past_reach": (
        ["bound", "--n", "3", "--x", "10"],
        "3576b1ee9aa42569307fa3a78a9dffdfc7c4074a636f20e60f3c5d22e934236e",
    ),
    "extremal_sup": (
        ["extremal", "--sup", "--x", "3/2"],
        "5dbdf6c4f62a0431f9b1eed231107d2d48247b06bc53d886857e8f6d6bcb37c6",
    ),
    "extremal_plane": (
        ["extremal", "--n", "6", "--d", "2", "--x", "(1,1)"],
        "a97d74258f2f669391d3bc6af85d77c4d69569bca92c9784fee354b5403e86a0",
    ),
    "verify_theorem3_json": (
        ["verify", "--theorem", "3", "--x", "2", "--n-max", "4", "--count", "3"],
        "cb78fd2b87c3dc853ceeb08ece0378e4e72509ae08465fce6f23c7f00f15586f",
    ),
    # L1 targets of box-constrained weights, whose norms run past the
    # count table of the sign bound: 2 certificates, 68 zero-bound atoms
    "search_c2_l1_past_table": (
        ["search", "--conjecture", "2", "--norm", "l1", "--constraint-norm", "linf",
         "--n", "3", "--d", "2", "--budget", "50", "--seed", "1"],
        "77cf538bb98c63ad959b60ad5b9a6c6f086f0a231311c57378614ffed13925a8",
    ),
    # structured sweeps over 8 and 10 counts of each base
    "search_c1_m5_sweep_8": (
        ["search", "--conjecture", "1", "--m", "5", "--n", "8", "--budget", "100",
         "--seed", "3", "--chains", "2"],
        "8c634b97e7b7858d66d1921a025bc766bbbfd15cda97508091770ab81ad74194",
    ),
    "search_c2_sweep_10": (
        ["search", "--conjecture", "2", "--n", "10", "--d", "2", "--budget", "100",
         "--seed", "5", "--chains", "2"],
        "c0770ba0d1ed0ccd22d9d1f46bb3d02f7485f12d72c537be443db905acce8b7d",
    ),
    # annealed candidates only: {no_sweep} turns the structured sweep off
    "search_c2_no_sweep": (
        ["search", "--conjecture", "2", "--n", "6", "--d", "2", "--budget", "100",
         "--seed", "7", "--chains", "2", "--anneal-config", "{no_sweep}"],
        "264a00a9c0163c0a998594d4eac3aa3512806b61a98043ddaa65977ca50441ed",
    ),
    # aligned configs of more summands (41 and 49) than ATOM_QUERY_CAP = 40
    "extremal_n_past_query_cap": (
        ["extremal", "--n", "41", "--x", "1"],
        "3bf0fd2dc25e98c0dbb6b88b46cc46fe749a7e2e44ff858f287cc5f3cfddf50d",
    ),
    "extremal_sup_past_query_cap": (
        ["extremal", "--sup", "--x", "7"],
        "9a8bab6aef9bc64967a8391e1589254cb583e7e54f652cfcaf93e10a25409b0e",
    ),
    "verify_theorem3_past_query_cap": (
        ["verify", "--theorem", "3", "--x", "7", "--n-max", "2", "--count", "1"],
        "9942fa611795616c58bf55ad4ef78daba22191c7b040ef610b90462ff1fba8bf",
    ),
    # 20 weights of the grid of 16ths whose family has 300 members
    "antichain_grid_20": (
        ["antichain", "--weights", ",".join(GRID_20), "--x", "131/16"],
        "67cd79f6edd3b06a59c539587d3de27dbaf84b8aafc662d3e906869053ad7bd6",
    ),
}

# a certified violation exits 1; every other case exits 0
GOLDEN_EXIT_CODES = {"search_c2_box_certifies": 1, "search_c2_l1_past_table": 1}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
    def test_output_bytes_unchanged(self, capsys, tmp_path, name):
        argv, digest = GOLDEN_OUTPUTS[name]
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps(PLANE_WEIGHTS))
        axes = tmp_path / "axes.json"
        axes.write_text(json.dumps(AXES_WEIGHTS))
        no_sweep = tmp_path / "no_sweep.json"
        no_sweep.write_text(json.dumps({"structured_first": False}))
        out_path = tmp_path / "out"
        files = dict(weights=weights, axes=axes, no_sweep=no_sweep)
        argv = [arg.format(**files) for arg in argv]
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == GOLDEN_EXIT_CODES.get(name, 0)
        data = out.encode() + out_path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


# a hand-written one-chain checkpoint of the planar n = 4 sign cell, whose
# state and stored candidate hold weights off the default grid of 16ths
OFF_GRID_CHECKPOINT = {
    "format": "lolab-anneal-checkpoint",
    "version": 1,
    "problem": {
        "conjecture": 2, "n": 4, "d": 2, "budget": 0, "seed": 8, "m": None,
        "norm": None, "constraint_norm": None,
    },
    "settings": {
        "chains": 1, "t_start": 0.05, "t_end": 0.0001, "cooling_iters": 60,
        "grid_denominator": 16, "top_candidates": 5, "stagnation_fraction": 0.1,
        "structured_first": True, "structured_n_max": 12,
    },
    "chains": [
        {
            "index": 0, "seed": 8, "d": 2, "n": 2,
            "weights": [["1/3", "2/7"], ["-3/5", "1/7"]],
            "score": None, "best_score": None,
            "since_improve": 0, "done": 0, "flagged": 0,
            "rng_state": [3, list(Random(8).getstate()[1]), None],
            "top": [{"n": 1, "weights": [["2/7", "-1/3"]], "score": -0.25}],
            "trace": [],
        }
    ],
}

# sha256 of stdout, the --out file and the --checkpoint file (chain states,
# stored candidates and RNG states), recorded before the anneal's states
# were integer lattice points. {settings} holds SETTINGS_GRID_3 and
# {resume} OFF_GRID_CHECKPOINT
SETTINGS_GRID_3 = {"grid_denominator": 3, "chains": 2, "cooling_iters": 100}
GOLDEN_CHECKPOINTS = {
    # an L2 ball in three dimensions; pushes to its boundary that land
    # outside it shrink by (grid - 1) / grid
    "search_c2_l2_push_shrink": (
        ["search", "--conjecture", "2", "--n", "5", "--d", "3", "--budget", "300",
         "--seed", "12", "--chains", "2"],
        "d175882540c9a3525567c2d1cfc4fd1024d162e820376a590a247cc1b6aed7b5",
    ),
    "search_c2_grid_3": (
        ["search", "--conjecture", "2", "--n", "5", "--d", "2", "--budget", "200",
         "--seed", "21", "--anneal-config", "{settings}"],
        "827663bcf4a990e521f9ea003fafa6bcfc6aa48aad400af1fd2d704b6353d958",
    ),
    "search_c1_grid_3": (
        ["search", "--conjecture", "1", "--m", "3", "--n", "4", "--d", "2",
         "--budget", "150", "--seed", "22", "--anneal-config", "{settings}"],
        "0f9cab5c76c8489357ecc8670aa3b9fa208e4183383ee85e63ef3b51d2b1dcae",
    ),
    # a ball that holds no non-zero point of the grid of 16ths: every random
    # weight falls back to an axis vector halved until it fits, 1/32 e1
    "search_c2_wl2_fallback": (
        ["search", "--conjecture", "2", "--norm", "wl2", "--norm-diag",
         "1000,1000", "--n", "4", "--d", "2", "--budget", "100", "--seed", "3",
         "--chains", "2"],
        "6f2c477403613925d42a18a19d9ba043ccbe995dd5909e4e4e05a7d0e645197f",
    ),
    "search_resume_off_grid": (
        ["search", "--conjecture", "2", "--n", "4", "--d", "2", "--budget", "150",
         "--seed", "8", "--resume", "{resume}"],
        "d7cc9e04fa247999ff12cc3f9e3c50794aa0e0f75c7262f58bcc41cbc3e7c971",
    ),
}


class TestGoldenCheckpoints:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CHECKPOINTS))
    def test_output_and_checkpoint_bytes_unchanged(self, capsys, tmp_path, name):
        argv, digest = GOLDEN_CHECKPOINTS[name]
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps(SETTINGS_GRID_3))
        resume = tmp_path / "resume.json"
        resume.write_text(json.dumps(OFF_GRID_CHECKPOINT))
        out_path, ckpt = tmp_path / "out", tmp_path / "checkpoint.json"
        argv = [arg.format(settings=settings, resume=resume) for arg in argv]
        code, out, _ = run_cli(
            capsys, *argv, "--out", str(out_path), "--checkpoint", str(ckpt)
        )
        assert code == 0
        data = out.encode() + out_path.read_bytes() + ckpt.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def run_module(*argv):
    """`python -m lolab.cli argv` on the lolab these tests import."""
    src = str(Path(lolab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", "lolab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = run_module("bound", "--n", "4", "--x", "1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["bound"] == "1/4"

    def test_no_command_is_usage_error(self):
        proc = run_module()
        assert proc.returncode == 2


class TestMainCallsInTurn:
    # (argv, exit code, text its stdout or stderr holds)
    CALLS = [
        (["bound", "--n", "4", "--x", "1"], 0, '"bound": "1/4"'),
        (["bound", "--n", "4"], 2, "one of the arguments --x --norm-sq --zero is required"),
        (["--help"], 0, "usage: lolab"),
        (["dist", "--weights", "1,1,1", "--cap-full", "2"], 3, "full-law summand cap is 2"),
        (["search", "--help"], 0, "--anneal-config"),
        (["dist", "--weights", "1,1,1"], 0, '"probability": "3/8"'),
        (["bound", "--n", "x", "--x", "1"], 2, "invalid int value: 'x'"),
        (["verify", "--theorem", "3", "--x", "2", "--n-max", "3", "--count", "2"], 0, "0 violations"),
        (["verify", "--theorem", "2", "--n", "3", "--count", "2"], 0, "0 violations"),
        (["verify", "--theorem", "2", "--x", "2"], 2, "--x is not read by theorem 2"),
        (["frobnicate"], 2, "invalid choice: 'frobnicate'"),
    ]

    def test_one_parser_serves_every_call(self, capsys):
        # the parser is built once per process; no parse leaves anything in
        # it for the next call, so each argv keeps its own code and output
        assert build_parser() is build_parser()
        outputs = []
        for _ in range(2):
            for argv, code, text in self.CALLS:
                got, out, err = run_cli(capsys, *argv)
                assert got == code, argv
                assert text in (out if code in (0, 1) else err), argv
                outputs.append((out, err))
        assert outputs[: len(self.CALLS)] == outputs[len(self.CALLS) :]


def _chain_edit(**changes):
    """A checkpoint edit that sets fields of chain 0."""
    return lambda ckpt: ckpt["chains"][0].update(changes)


def _nine_summands(ckpt):
    chain = ckpt["chains"][0]
    chain["n"], chain["weights"] = 9, chain["weights"] * 3


def _top_score(score):
    """A checkpoint edit that sets the score of chain 0's first stored candidate."""
    return lambda ckpt: ckpt["chains"][0]["top"][0].update(score=score)


def _twin_chain(ckpt):
    ckpt["chains"].append(ckpt["chains"][0])
    ckpt["settings"]["chains"] = 2


SEARCH = ["search", "--conjecture", "2", "--n", "3"]

# (command with the file as {path}, the file's text or an edit of a valid
# checkpoint, text the error line must hold); {path} there is the file too
MALFORMED_FILES = {
    "weights-empty": (["dist", "--weights-file", "{path}"], "", "weights file {path}"),
    "weights-bad-json": (["dist", "--weights-file", "{path}"], "[[1]", "weights file {path}"),
    "weights-not-vectors": (
        ["dist", "--weights-file", "{path}"], "[1, 2]", "array of vectors"
    ),
    "weights-bad-literal": (["dist", "--weights-file", "{path}"], "abc", "weights file {path}"),
    "weights-zero-denominator": (
        ["dist", "--weights-file", "{path}"], "1/0", "weights file {path}"
    ),
    "weights-float": (["dist", "--weights-file", "{path}"], "[[1.5]]", "weights file {path}"),
    "weights-mixed-dims": (
        ["dist", "--weights-file", "{path}"], "[[1], [1, 2]]", "weights mix dimensions"
    ),
    "weights-outside-ball": (["dist", "--weights-file", "{path}"], "2", "weight"),
    "weights-missing": (["dist", "--weights-file", "{path}"], None, "{path}"),
    "weights-bool": (
        ["dist", "--weights-file", "{path}"],
        "[[true], [true]]",
        "weights file {path}: a bool is not an exact rational: True",
    ),
    "settings-bool-as-string": (
        [*SEARCH, "--budget", "10", "--anneal-config", "{path}"],
        '{"structured_first": "no"}',
        "'structured_first'",
    ),
    "settings-int-as-bool": (
        [*SEARCH, "--budget", "10", "--anneal-config", "{path}"],
        '{"top_candidates": true}',
        "'top_candidates'",
    ),
    "settings-int-as-float": (
        [*SEARCH, "--budget", "10", "--anneal-config", "{path}"],
        '{"chains": 2.5}',
        "'chains'",
    ),
    "settings-null": (
        [*SEARCH, "--budget", "10", "--anneal-config", "{path}"],
        "null",
        "anneal settings file {path}",
    ),
    "settings-array": (
        [*SEARCH, "--budget", "10", "--anneal-config", "{path}"],
        "[1]",
        "anneal settings file {path}",
    ),
    "settings-unknown-field": (
        [*SEARCH, "--budget", "10", "--anneal-config", "{path}"],
        '{"temperature": 1}',
        "'temperature'",
    ),
    # t_end / t_start is 0.0 in floats: temperature 0 once crashed the
    # walk with a ZeroDivisionError, exit 1
    "settings-schedule-underflow": (
        [*SEARCH, "--budget", "50", "--seed", "1", "--anneal-config", "{path}"],
        '{"t_start": 1e308, "t_end": 1e-308}',
        "anneal settings file {path}: need a finite t_start and a t_end / t_start",
    ),
    "settings-bad-json": (
        [*SEARCH, "--budget", "10", "--anneal-config", "{path}"],
        '{"chains"',
        "anneal settings file {path}",
    ),
    "checkpoint-n-past-weights": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _chain_edit(n=4),
        "{path}: checkpoint chain 0",
    ),
    "checkpoint-n-past-cell": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _nine_summands,
        "{path}: checkpoint chain 0",
    ),
    "checkpoint-weight-outside-ball": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _chain_edit(weights=[["5"], ["1/2"], ["1/2"]]),
        "{path}: checkpoint chain 0",
    ),
    "checkpoint-zero-weight": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _chain_edit(weights=[["0"], ["1/2"], ["1/2"]]),
        "{path}: checkpoint chain 0",
    ),
    "checkpoint-d-outside-cell": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _chain_edit(d=2),
        "{path}: checkpoint chain 0",
    ),
    "checkpoint-weight-bool": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _chain_edit(n=1, weights=[[True]]),
        "{path}: checkpoint chain 0: a bool is not an exact rational: True",
    ),
    "checkpoint-counter-type": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _chain_edit(done="x"),
        "{path}: checkpoint chain 0",
    ),
    "checkpoint-score-type": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _chain_edit(score="x"),
        "{path}: checkpoint chain 0",
    ),
    "checkpoint-trace-strings": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _chain_edit(trace=[["a", "b"]]),
        "{path}: checkpoint chain 0: chain field 'trace' must hold",
    ),
    "checkpoint-trace-short-entry": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _chain_edit(trace=[[3]]),
        "{path}: checkpoint chain 0: chain field 'trace' must hold",
    ),
    "checkpoint-rng-state-short": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _chain_edit(rng_state=[3]),
        "{path}: checkpoint chain 0: chain field 'rng_state' is not a saved random state",
    ),
    "checkpoint-rng-state-strings": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _chain_edit(rng_state=[3, ["a"] * 625, None]),
        "{path}: checkpoint chain 0: chain field 'rng_state' is not a saved random state",
    ),
    "checkpoint-top-score-string": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _top_score("high"),
        "{path}: checkpoint chain 0: top[0] field 'score' must be int or float, got \"high\"",
    ),
    "checkpoint-top-score-null": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _top_score(None),
        "{path}: checkpoint chain 0: top[0] field 'score' must be int or float, got null",
    ),
    "checkpoint-twin-chains": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        _twin_chain,
        "{path}: checkpoint has chains [0, 0]",
    ),
    "checkpoint-settings-type": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        lambda ckpt: ckpt["settings"].update(structured_first="no"),
        "{path}: checkpoint settings",
    ),
    "checkpoint-schedule-underflow": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        lambda ckpt: ckpt["settings"].update(t_start=1e308, t_end=1e-308),
        "{path}: checkpoint settings: need a finite t_start and a t_end / t_start",
    ),
    "checkpoint-problem-n-bool": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        lambda ckpt: ckpt["problem"].update(n=True),
        "{path}: checkpoint problem: problem field 'n' must be int, got true",
    ),
    "checkpoint-problem-n-string": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        lambda ckpt: ckpt["problem"].update(n="3"),
        "{path}: checkpoint problem: problem field 'n' must be int, got \"3\"",
    ),
    "checkpoint-norm-kind-int": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        lambda ckpt: ckpt["problem"].update(norm={"kind": 2}),
        "{path}: checkpoint problem: norm field 'kind' must be str, got 2",
    ),
    "checkpoint-no-problem": (
        [*SEARCH, "--budget", "40", "--resume", "{path}"],
        lambda ckpt: ckpt.pop("problem"),
        "{path}: checkpoint has no 'problem' field",
    ),
}


@pytest.fixture(scope="module")
def checkpoint_json(tmp_path_factory):
    """A valid one-chain checkpoint of the n = 3 sign cell, as parsed JSON."""
    path = tmp_path_factory.mktemp("checkpoint") / "state.json"
    assert main([*SEARCH, "--budget", "20", "--chains", "1", "--checkpoint", str(path)]) == 0
    return json.loads(path.read_text())


class TestMalformedInputFiles:
    @pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
    def test_named_bad_input_error(self, capsys, tmp_path, checkpoint_json, name):
        # every malformed file is bad input (exit 2) named before any work
        argv, content, expected = MALFORMED_FILES[name]
        path = tmp_path / "input"
        if callable(content):
            ckpt = json.loads(json.dumps(checkpoint_json))
            content(ckpt)
            content = json.dumps(ckpt)
        if content is not None:
            path.write_text(content)
        capsys.readouterr()
        code, out, err = run_cli(capsys, *(arg.format(path=path) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and expected.format(path=path) in err
        assert "Traceback" not in err
