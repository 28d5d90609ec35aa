"""Tests of the benchmark's own logic: op lists, span arithmetic, checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import lolab.cli  # noqa: E402
import lolab.engine  # noqa: E402
import lolab.oracle  # noqa: E402
import lolab.search  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracing import Tracer, layer_metrics, metric_units, self_times  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import MIXES, make_ops  # noqa: E402


@pytest.mark.parametrize("workload", sorted(MIXES))
def test_ops_are_a_pure_function_of_the_seed(workload):
    assert make_ops(workload, 7) == make_ops(workload, 7)
    assert make_ops(workload, 7) != make_ops(workload, 8)
    kinds = [op.kind for op in make_ops(workload, 7, 12)]
    assert kinds == [MIXES[workload][i % len(MIXES[workload])] for i in range(12)]


def test_ops_do_not_depend_on_the_hash_seed():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from workloads import make_ops; "
        "print([op.argv for op in make_ops('queries', 3, 40)])"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code, str(BENCH)],
            env={"PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(outputs) == 1


def test_self_time_subtracts_direct_children_only():
    # root 0..10 has children a 1..4 and b 5..9; a has child c 2..3
    spans = [
        ["cli", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_are_per_op_and_name_every_layer():
    spans = [
        ["cli", 0.0, 10.0, -1, 0],
        ["search.anneal", 1.0, 9.0, 0, 0],
        ["search.margin_rows", 2.0, 4.0, 1, 0],
        ["search.margin_rows", 4.0, 5.0, 1, 0],
        ["cli", 10.0, 12.0, -1, 1],
    ]
    counts = {"search.anneal_evaluations": 50, "search.structured_evaluations": 1}
    counts["search.discrepancies"] = 1
    metrics = layer_metrics(spans, counts, ops=2)
    assert set(metrics) == set(metric_units()) - {"trace.overhead_frac"}
    assert metrics["cli.s"] == pytest.approx((2.0 + 2.0) / 2)
    assert metrics["search.anneal.s"] == pytest.approx(5.0 / 2)
    assert metrics["search.margin_rows.calls"] == 1.0
    assert metrics["search.evals_per_s"] == pytest.approx(50 / 5.0)
    assert metrics["search.discrepancy_ratio"] == 1.0


def test_tracer_wraps_every_import_site_and_restores_them():
    original = lolab.engine.full_distribution
    method = lolab.engine.AtomDistribution.__dict__["sorted_atoms"]
    tracer = Tracer()
    tracer.install()
    try:
        assert lolab.oracle.full_distribution is lolab.cli.full_distribution
        assert lolab.oracle.full_distribution is not original
        argv = ["verify", "--theorem", "2", "--n", "3", "--count", "1"]
        assert tracer.run_op(5, lolab.cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert lolab.oracle.full_distribution is original
    assert lolab.engine.AtomDistribution.__dict__["sorted_atoms"] is method
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli" and "engine.full_distribution" in names
    assert all(span[4] == 5 for span in tracer.spans)
    campaign = names.index("oracle.run_campaign")
    law = names.index("engine.full_distribution")
    assert tracer.spans[law][3] == campaign and tracer.spans[campaign][3] == 0
    assert tracer.counts["oracle.atoms_checked"] > 0


def _fake_dist(probabilities):
    """A stand-in for lolab.cli.main that writes a scalar law to --out."""

    def main(argv):
        atoms = [{"x": [x], "probability": p} for x, p in probabilities]
        Path(argv[argv.index("--out") + 1]).write_text(json.dumps({"atoms": atoms}))
        return 0

    return main


@pytest.mark.parametrize(
    "law, failed",
    [
        ([("-1/1", "1/2"), ("1/1", "1/2")], 0),
        ([("-1/1", "1/4"), ("1/1", "1/4")], 1),  # sums to 1/2
        ([("-1/1", "1/4"), ("1/1", "3/4")], 1),  # not symmetric
    ],
)
def test_a_corrupted_law_counts_as_a_failed_op(tmp_path, law, failed):
    runner = Runner(_fake_dist(law), lolab.search.certify, tmp_path)
    runner.run(make_ops("laws", 1, 1)[0])
    assert (runner.attempted, runner.failed) == (1, failed)


def test_a_raising_op_counts_as_a_failed_op(tmp_path):
    def main(argv):
        raise ZeroDivisionError("boom")

    runner = Runner(main, lolab.search.certify, tmp_path)
    runner.run(make_ops("laws", 1, 2)[1])
    assert (runner.attempted, runner.failed) == (1, 1)


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(MIXES)
