"""Command line interface: outputs, formats, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lolab
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

# sha256 of stdout followed by the --out file; the dist and verify cases
# were recorded before laws kept their integer form, the search, atom,
# antichain_ones and antichain_grid cases before every law went through one
# lattice-sum kernel, the search_c2_box_certifies and search_c2_wl2 cases
# before certify took its bound from SearchProblem, the dist_axes and
# dist_ap3_origin cases before dist wrote a half-sorted law as a stream, and
# the other antichain cases before the Milner check moved into the antichain
# module. Any change to law, campaign, search, certificate or family bytes
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
    "atom_scalar": (
        ["atom", "--weights", "1/2,1/3,1/6,1/4,3/4,1/3,2/3,1/2,1/4,1/6,5/12",
         "--x", "1"],
        "f36909d44570d0c22ed6e7ec5420367d83f669a044cae1648f3c5f7b04eeedc0",
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
}

# a certified violation exits 1; every other case exits 0
GOLDEN_EXIT_CODES = {"search_c2_box_certifies": 1}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
    def test_output_bytes_unchanged(self, capsys, tmp_path, name):
        argv, digest = GOLDEN_OUTPUTS[name]
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps(PLANE_WEIGHTS))
        axes = tmp_path / "axes.json"
        axes.write_text(json.dumps(AXES_WEIGHTS))
        out_path = tmp_path / "out"
        argv = [arg.format(weights=weights, axes=axes) for arg in argv]
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == GOLDEN_EXIT_CODES.get(name, 0)
        data = out.encode() + out_path.read_bytes()
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
