"""One workload in one fresh process: set up, warm up, then run timed ops.

Started by run.py, never by hand. Prints `ready` once set-up is done (the
parent times process start to that line) and, unless `--setup-only`, one
JSON line with the raw results of the timed ops.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import MIXES, OutputError, check_output, make_ops

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# A timed run stops at the end of the first whole op cycle after --seconds,
# once it has at least MIN_OPS ops: p90 then has at least ten samples beyond
# it. HARD_STOP_S keeps a much slower program inside the run's time limit.
MIN_OPS = 100
HARD_STOP_S = 120.0
# Warm-up ops come from this seed in every run, so set-up does the same
# work whatever --seed is.
WARMUP_SEED = -1
# Outputs of the first HASHED_OPS ops go into output_sha256; every run
# reaches that many, so two commits compare equal bytes on equal inputs.
HASHED_OPS = 100


def import_lolab():
    """Import lolab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import lolab.cli
    import lolab.search

    if Path(lolab.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"lolab imported from {lolab.cli.__file__}, not {SRC}")
    return lolab.cli.main, lolab.search.certify


class Runner:
    """Runs ops in-process through `lolab.cli.main` and checks each one."""

    def __init__(self, main, certify, workdir: Path):
        self.main = main
        self.certify = certify
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.hashed = 0

    def run(self, op, call=None) -> tuple[float, bytes, bool]:
        """Run one op; return its wall time, output bytes and check verdict."""
        out_path = self.workdir / ("out" + op.out_suffix)
        argv = list(op.argv) + ["--out", str(out_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = call(self.main, argv) if call else self.main(argv)
        except Exception as exc:  # a crash is a failed op, not a failed run
            stderr.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        output = stdout.getvalue().encode()
        ok = False
        try:
            if code is None:
                raise OutputError(stderr.getvalue().strip() or "op raised")
            out = out_path.read_bytes() if out_path.exists() else b""
            output += out
            check_output(op, code, stdout.getvalue(), out, self.certify)
            ok = True
        except Exception as exc:  # any check failure, malformed output included
            self.fail(f"op {op.index} ({op.kind}): {exc}")
        self.attempted += 1
        with contextlib.suppress(FileNotFoundError):
            out_path.unlink()
        if self.hashed < HASHED_OPS:
            self.digest.update(output)
            self.hashed += 1
        return elapsed, output, ok

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def timed_ops(runner: Runner, ops, seconds: float, cycle: int) -> list[float]:
    """Run ops in order until --seconds pass; return per-op wall times."""
    times: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        whole = len(times) % cycle == 0
        if (whole and len(times) >= MIN_OPS and elapsed >= seconds) or elapsed >= HARD_STOP_S:
            return times
        wall, _, _ = runner.run(ops[len(times) % len(ops)])
        times.append(wall)


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) places it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    main_fn, certify = import_lolab()
    ops = make_ops(args.workload, args.seed)
    cycle = len(MIXES[args.workload])
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(main_fn, certify, workdir)
        # warm-up: one whole cycle, so first-use caches (the progression
        # unit laws) fill and the interpreter's specialisation settles
        for op in make_ops(args.workload, WARMUP_SEED, cycle):
            runner.run(op)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced_run(runner, ops, cycle, args)
        else:
            result = untraced_run(runner, ops, cycle, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
    )
    print(json.dumps(result), flush=True)
    return 0


def untraced_run(runner: Runner, ops, cycle: int, args) -> dict:
    times = timed_ops(runner, ops, args.seconds, cycle)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "metrics": {
            "ops_per_s": len(times) / sum(times),
            "latency_p50_ms": 1000 * statistics.median(times),
            "latency_p90_ms": 1000 * percentile(times, 90),
            "peak_rss_mb": rss_kb / 1024,
        },
        "timed_ops": len(times),
        "output_sha256": runner.digest.hexdigest(),
        "hashed_ops": runner.hashed,
    }


def traced_run(runner: Runner, ops, cycle: int, args) -> dict:
    """Each op twice in a row, once untraced and once traced.

    Running the pair back to back puts both halves under the same machine
    state, so their time ratio is the tracing overhead on equal work; the
    order alternates so that neither half always runs second. A traced op
    whose bytes differ from its untraced run counts as failed.
    """
    tracer = Tracer()

    def traced_op(index):
        tracer.install()
        try:
            return runner.run(
                ops[index % len(ops)],
                call=lambda main, argv: tracer.run_op(index, main, argv),
            )
        finally:
            tracer.uninstall()

    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while len(plain) % cycle or time.perf_counter() - start < args.seconds:
        index = len(plain)
        if index % 2:
            traced_wall, output, ok = traced_op(index)
            plain_wall, expected, _ = runner.run(ops[index % len(ops)])
        else:
            plain_wall, expected, _ = runner.run(ops[index % len(ops)])
            traced_wall, output, ok = traced_op(index)
        plain.append(plain_wall)
        traced.append(traced_wall)
        if ok and output != expected:
            runner.fail(f"op {index}: traced output differs")
    metrics = layer_metrics(tracer.spans, tracer.counts, len(traced))
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"))
    return {"metrics": metrics, "timed_ops": len(traced)}


if __name__ == "__main__":
    sys.exit(main())
