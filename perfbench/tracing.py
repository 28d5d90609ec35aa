"""Spans around lolab's public layer functions, recorded from outside lolab.

`Tracer.install` replaces each layer function under every name a lolab
module binds it to (so `lolab.oracle.full_distribution` and
`lolab.cli.full_distribution` are both wrapped) and two `AtomDistribution`
methods on the class. Spans are kept in memory as
`[name, start, end, parent, op]` lists and written out at the end; a layer's
self time is its span time minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict

ROOT_SPAN = "cli"


def _law_atoms(counts, law):
    counts["engine.law_atoms"] += len(law.atoms)


def _campaign(counts, report):
    counts["oracle.atoms_checked"] += report.atoms_checked


def _anneal(counts, result):
    counts["search.anneal_evaluations"] += result.anneal_evaluations
    counts["search.structured_evaluations"] += result.structured_evaluations
    counts["search.rhs_zero_flagged"] += result.rhs_zero_flagged
    counts["search.discrepancies"] += len(result.discrepancies)


def _family(counts, family):
    counts["antichain.family_members"] += len(family)


# (module, function, span name, counter fed from the return value, and
# which of the span's totals are reported: call count, self time)
FUNCTIONS = (
    ("engine", "full_distribution", "engine.full_distribution", _law_atoms, ("calls", "s")),
    (
        "engine",
        "ap_uniform_sum_distribution",
        "engine.ap_uniform_sum_distribution",
        _law_atoms,
        ("calls", "s"),
    ),
    ("engine", "atom_probability", "engine.atom_probability", None, ("calls", "s")),
    ("bounds", "nonuniform_bound", "bounds.nonuniform_bound", None, ("calls", "s")),
    ("bounds", "ap_uniform_bound", "bounds.ap_uniform_bound", None, ("calls", "s")),
    ("oracle", "run_campaign", "oracle.run_campaign", _campaign, ("s",)),
    ("oracle", "verify_zero_weights_sup", "oracle.verify_zero_weights_sup", None, ("s",)),
    ("search", "anneal", "search.anneal", _anneal, ("s",)),
    ("search", "margin_rows", "search.margin_rows", None, ("calls", "s")),
    ("search", "certify", "search.certify", None, ("calls",)),
    ("antichain", "build_family", "antichain.build_family", _family, ("s",)),
    ("antichain", "is_antichain", "antichain.is_antichain", None, ("s",)),
    ("antichain", "is_k_intersecting", "antichain.is_k_intersecting", None, ("s",)),
)

# (class attribute, span name); only self time is reported
METHODS = (
    ("sorted_atoms", "engine.sorted_atoms"),
    ("to_json", "engine.law_to_json"),
)

# counters summed over the traced ops and reported per op
COUNTS = (
    "engine.law_atoms",
    "oracle.atoms_checked",
    "search.anneal_evaluations",
    "search.rhs_zero_flagged",
    "antichain.family_members",
)

UNITS = {"calls": "count/op", "s": "s/op"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _, _, name, _, totals in FUNCTIONS:
        for total in totals:
            units[f"{name}.{total}"] = UNITS[total]
    for _, name in METHODS:
        units[name + ".s"] = UNITS["s"]
    units[ROOT_SPAN + ".s"] = UNITS["s"]
    for name in COUNTS:
        units[name] = "count/op"
    units["search.evals_per_s"] = "1/s"
    units["search.discrepancy_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside an op, e.g. the benchmark's own checks
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1], spans[stack[-1]][4]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) under a root span for one op."""
        span = [ROOT_SPAN, time.perf_counter(), 0.0, -1, op_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "lolab"]
        for module_name, attr, name, count, _ in FUNCTIONS:
            original = getattr(sys.modules["lolab." + module_name], attr)
            traced = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, traced)
        cls = sys.modules["lolab.engine"].AtomDistribution
        for attr, name in METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as handle:
            handle.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and summed self time per span name."""
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        seconds[span[0]] += own
    return calls, seconds


def layer_metrics(spans, counts, ops: int) -> dict[str, float]:
    """Per-op layer metrics of a traced run of `ops` ops.

    Keys are the `per_layer` names of BENCHMARK.json, without the overhead
    metric, which needs the untraced run as well.
    """
    calls, seconds = layer_totals(spans)
    counts = defaultdict(int, counts)
    totals = {"calls": calls, "s": seconds}
    metrics: dict[str, float] = {}
    for name in metric_units():
        span, _, total = name.rpartition(".")
        if total in totals:
            metrics[name] = totals[total][span] / ops
    for name in COUNTS:
        metrics[name] = counts[name] / ops
    # anneal self time excludes its exact-rescore children (margin_rows,
    # certify), so this is the float scorer's rate
    anneal_s = seconds["search.anneal"]
    metrics["search.evals_per_s"] = (
        counts["search.anneal_evaluations"] / anneal_s if anneal_s > 0 else 0.0
    )
    # every margin_rows call in a search op rescores one candidate: the
    # structured sweep's, then the annealed nominations
    annealed = calls["search.margin_rows"] - counts["search.structured_evaluations"]
    metrics["search.discrepancy_ratio"] = (
        counts["search.discrepancies"] / annealed if annealed > 0 else 0.0
    )
    return metrics
