"""The benchmark's workloads: seeded op lists and per-op output checks.

An op is one `lolab` command line. Every op writes its main output to a
file given with `--out` (the runner appends that flag) and may print a
summary line on stdout. `make_ops` is a pure function of the workload name
and the seed; `check_output` decides whether an op's exit code and bytes
are right, using exact arithmetic and, for search certificates, a fresh
call to `lolab.search.certify`.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

# Op kinds of each workload, in cycle order. A run times whole cycles only,
# so every run sees the same mix of op sizes. Each mix puts its median and
# its 90th percentile inside the body of one cluster of op times, never on
# the gap between two clusters or in a cluster's thin tail, where they
# would jump with every drift of the machine's speed:
# - `laws`: campaigns and sign-sum laws take about the same time and are
#   two thirds of the ops, flanked by a cheaper progression law (n=7) and
#   a dearer one (n=8); the median is the middle of the main cluster and
#   the 90th percentile lies among the n=8 laws.
# - `queries`: the zero-sup check, the generic family and the atom query
#   are the cheapest third, the four searches the middle, and the two
#   3003-member families the dearest two ninths; the median lies among
#   the searches and the 90th percentile in the middle of the families.
MIXES = {
    "laws": ("dist_ap7", "verify_json", "dist_sign", "verify_csv", "dist_ap8", "dist_sign"),
    "queries": (
        "search_c2",
        "zero_sup",
        "antichain_ones",
        "search_c1",
        "atom",
        "search_c2",
        "antichain_grid",
        "antichain_ones",
        "search_c1",
    ),
}

# Distinct ops generated per run; a run longer than this cycles through
# the list again, which repeats inputs but no state depends on them.
POOL_OPS = 480


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    argv: tuple[str, ...]
    out_suffix: str


def _grid_weights(rng: random.Random, n: int, denominator: int) -> list[Fraction]:
    return [Fraction(rng.randint(1, denominator), denominator) for _ in range(n)]


def _joined(values) -> str:
    return ",".join(f"{q.numerator}/{q.denominator}" for q in values)


def _reachable_target(rng: random.Random, weights: list[Fraction]) -> Fraction:
    """|sum of eps_i w_i| for random signs, redrawn until it is non-zero."""
    while True:
        total = sum((w if rng.random() < 0.5 else -w for w in weights), Fraction(0))
        if total != 0:
            return abs(total)


def _op(kind: str, rng: random.Random) -> tuple[list[str], str]:
    seed = str(rng.randrange(1 << 31))
    if kind in ("verify_json", "verify_csv"):
        # grid denominator 16 (the CLI default), about 800 atoms per law
        argv = ["verify", "--theorem", "2", "--n", "10", "--d", "2", "--count", "4"]
        argv += ["--seed", seed]
        if kind == "verify_csv":
            return argv + ["--format", "csv"], ".csv"
        return argv, ".json"
    if kind == "dist_sign":
        # generic weights: all 2^12 sign sums are distinct atoms
        return ["dist", "--weights", _joined(_grid_weights(rng, 12, 10**6))], ".json"
    if kind in ("dist_ap7", "dist_ap8"):
        # generic weights: 3^n atoms, 2,187 at n=7 and 6,561 at n=8
        weights = _joined(_grid_weights(rng, int(kind[-1]), 10**6))
        return ["dist", "--weights", weights, "--ap-m", "3"], ".json"
    if kind == "search_c2":
        argv = ["search", "--conjecture", "2", "--norm", "linf", "--n", "8", "--d", "2"]
        return argv + ["--budget", "300", "--seed", seed], ".json"
    if kind == "search_c1":
        argv = ["search", "--conjecture", "1", "--m", "3", "--n", "8"]
        return argv + ["--budget", "200", "--seed", seed], ".json"
    if kind == "atom":
        weights = _grid_weights(rng, 30, 1000)
        x = _reachable_target(rng, weights)
        return ["atom", "--weights", _joined(weights), "--x", _joined([x])], ".json"
    if kind == "antichain_ones":
        # C(14, 8) = 3003 members: the quadratic family checks dominate
        return ["antichain", "--weights", ",".join(["1"] * 14), "--x", "2"], ".json"
    if kind == "antichain_grid":
        weights = _grid_weights(rng, 16, 16)
        x = _reachable_target(rng, weights)
        return ["antichain", "--weights", _joined(weights), "--x", _joined([x])], ".json"
    if kind == "zero_sup":
        argv = ["verify", "--theorem", "3", "--x", "2", "--n-max", "12", "--count", "5"]
        return argv + ["--seed", seed], ".json"
    raise ValueError(f"unknown op kind {kind!r}")


def make_ops(workload: str, seed: int, count: int = POOL_OPS) -> list[Op]:
    """The first `count` ops of a workload; the same seed gives the same ops."""
    mix = MIXES[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    ops = []
    for index in range(count):
        kind = mix[index % len(mix)]
        argv, suffix = _op(kind, rng)
        ops.append(Op(index, kind, tuple(argv), suffix))
    return ops


class OutputError(Exception):
    """An op's exit code or output failed its check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def _negated(text: str) -> str:
    return text[1:] if text.startswith("-") else ("-" + text if text != "0/1" else text)


def _check_law(law: dict) -> None:
    atoms = law["atoms"]
    _require(len(atoms) > 0, "law has no atoms")
    masses = {}
    total = Fraction(0)
    for atom in atoms:
        num, den = atom["probability"].split("/")
        p = Fraction(int(num), int(den))
        _require(p > 0, f"non-positive mass at {atom['x']}")
        total += p
        masses[tuple(atom["x"])] = atom["probability"]
    _require(len(masses) == len(atoms), "law repeats an atom")
    _require(total == 1, f"law sums to {total}, not 1")
    for x, p in masses.items():
        _require(
            masses.get(tuple(_negated(c) for c in x)) == p,
            f"law not symmetric at {x}",
        )


_SUMMARY_ATOMS = re.compile(r"(\d+) atoms checked, \d+ equalities, (\d+) violations")


def _check_campaign_csv(text: str, stdout: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[:1] == [["n", "d", "k", "lhs", "rhs", "equality"]], "bad CSV header")
    for n, d, k, lhs, rhs, equality in rows[1:]:
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        _require(lhs <= rhs, f"CSV row exceeds its bound: {lhs} > {rhs}")
        _require((equality == "true") == (lhs == rhs), "CSV equality flag wrong")
    found = _SUMMARY_ATOMS.search(stdout)
    _require(found is not None, "no campaign summary on stdout")
    _require(int(found.group(2)) == 0, "campaign reports violations")
    atoms = int(found.group(1))
    _require(atoms > 0 and atoms == len(rows) - 1, "atoms_checked disagrees with rows")


def _check_search(report: dict, code: int, certify) -> None:
    from lolab.engine import WeightConfig
    from lolab.rational import make_vec, rat
    from lolab.search import CounterexampleCertificate, SearchProblem

    certificates = report["certificates"]
    _require(code == (1 if certificates else 0), f"exit code {code}")
    problem = SearchProblem.from_json(report["problem"])
    _require(report["evaluations"]["anneal"] == problem.budget, "budget not spent")
    for cert in certificates:
        again = certify(problem, WeightConfig.from_json(cert["config"]), make_vec(cert["x"]))
        _require(
            isinstance(again, CounterexampleCertificate)
            and again.margin == rat(cert["margin"]),
            "certificate does not re-certify",
        )


def check_output(op: Op, code: int, stdout: str, out: bytes, certify) -> None:
    """Raise OutputError unless the op's exit code and output are right.

    `certify` is `lolab.search.certify`, passed in so that a traced run can
    hand over the unwrapped function.
    """
    text = out.decode()
    if op.kind.startswith("search"):
        _check_search(json.loads(text), code, certify)
        return
    _require(code == 0, f"exit code {code}")
    if op.kind == "verify_csv":
        _check_campaign_csv(text, stdout)
        return
    payload = json.loads(text)
    if op.kind == "verify_json":
        _require(payload["violations"] == [], "campaign reports violations")
        _require(payload["atoms_checked"] > 0, "campaign checked no atoms")
    elif op.kind.startswith("dist"):
        _check_law(payload)
    elif op.kind == "atom":
        p = Fraction(payload)
        _require(0 < p <= 1 and (p * 2**30).denominator == 1, f"bad atom probability {p}")
    elif op.kind.startswith("antichain"):
        _require(payload["cardinality_matches"] is True, "family size != atom mass")
        _require(payload["is_antichain"] and payload["is_k_intersecting"], "hypothesis fails")
        _require(payload["milner"]["holds"] is True, "size bound does not hold")
        if op.kind == "antichain_ones":
            _require(payload["size"] == 3003, f"family has {payload['size']} members")
    elif op.kind == "zero_sup":
        _require(payload["violations"] == [], "supremum check reports violations")
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")
