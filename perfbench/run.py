"""lolab's benchmark: one closed-loop workload per run, printed as JSON.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. Each run starts fresh worker processes
(worker.py) that import lolab from the checkout's src/ and call
`lolab.cli.main(argv)` in-process, one op at a time, from one client.
With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run. Earlier lines
are a readable summary. `--workload all` runs every workload in turn, each
ending with its own JSON line. Workloads, metrics and their layer map are
described in perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import metric_units  # noqa: E402
from workloads import MIXES  # noqa: E402

# Set-up is measured this many times per untraced run (the last worker goes
# on to the timed ops) and reported as the median.
SETUP_RUNS = 5
# Every worker of a run must be done this long after the run starts.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ops_frac": "ratio",
}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start_worker(workload: str, args, setup_only: bool, deadline: float):
    """Run one worker; return its set-up time and its stdout after `ready`."""
    env = {k: v for k, v in os.environ.items() if k != "LOLAB_THREADS"}
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    return setup, rest


def run_workload(workload: str, args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    try:
        for i in range(1 if args.trace else SETUP_RUNS):
            last = i == (0 if args.trace else SETUP_RUNS - 1)
            setup, rest = start_worker(workload, args, not last, deadline)
            setups.append(setup)
        raw = json.loads(rest.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return 1

    attempted, failed = raw["attempted"], raw["failed"]
    metrics = dict(raw["metrics"])
    if args.trace:
        units = metric_units()
    else:
        units = END_TO_END_UNITS
        metrics["setup_s"] = statistics.median(setups)
        metrics["ok_ops_frac"] = (attempted - failed) / attempted

    print(f"workload {workload}, seed {args.seed}, trace {args.trace}")
    print(
        f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"git {git_sha()}"
    )
    print(f"timed ops {raw['timed_ops']}, attempted {attempted}, failed {failed}")
    print(f"failed_ops_frac {failed / attempted:.6f} ratio")
    if "output_sha256" in raw:
        print(f"output_sha256 {raw['output_sha256']} (first {raw['hashed_ops']} ops)")
    for error in raw["errors"]:
        print(f"failed op: {error}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*MIXES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lolab" / "cli.py").is_file():
        print(f"error: no lolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(MIXES) if args.workload == "all" else [args.workload]
    return max(run_workload(workload, args) for workload in workloads)


if __name__ == "__main__":
    sys.exit(main())
