"""Command line interface: outputs, formats, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

from lolab.cli import main


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

    def test_planar_target(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--n", "3", "--x", "(1,1)")
        assert code == 0
        assert json.loads(out)["k"] == 2

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--n", "4")
        assert code == 2

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

    def test_progression_law(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--weights", "1,1", "--ap-m", "3"
        )
        assert code == 0
        blob = json.loads(out)
        assert {"x": ["0/1"], "probability": "1/3"} in blob["atoms"]

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

    def test_out_of_reach(self, capsys):
        code, _, err = run_cli(capsys, "extremal", "--n", "2", "--x", "4")
        assert code == 2
        assert "nothing attains it" in err


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lolab.cli", "bound", "--n", "4", "--x", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["bound"] == "1/4"

    def test_no_command_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lolab.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2
