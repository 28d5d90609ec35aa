"""Command-line front end.

Subcommands mirror the library: bound, dist, atom, verify, search,
antichain, extremal. Rationals cross the boundary as "p/q" strings and
points as "(p/q, r/s)" tuples; outputs are deterministic JSON (sorted
keys) or CSV. Exit codes: 0 success, 1 a violation or counterexample
certificate was found, 2 usage or domain error, 3 an enumeration cap
was exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from typing import Iterator, Optional, Sequence, TextIO

from .antichain import build_family, milner_report
from .bounds import (
    TheoremTag,
    bound_dispatch,
    extremal_config,
    hoeffding_bound,
    nonuniform_bound,
    zero_weights_extremal,
    zero_weights_sup,
)
from .engine import (
    ATOM_QUERY_CAP,
    FULL_LAW_CAP,
    APUniformSpec,
    CapExceeded,
    WeightConfig,
    ap_uniform_sum_distribution,
    atom_probability,
    full_distribution,
)
from .oracle import (
    ConfigGenerator,
    run_campaign,
    verify_zero_weights_sup,
)
from .rational import (
    Vec,
    make_vec,
    norm_sq,
    parse_point,
    rat,
    rat_str,
    vec_strs,
)
from .search import (
    AnnealSettings,
    NormSpec,
    SearchProblem,
    anneal,
)

THEOREM_FLAGS = {
    1: TheoremTag.ERDOS_KLEITMAN,
    2: TheoremTag.NON_UNIFORM,
    3: TheoremTag.ZERO_WEIGHTS_SUP,
    4: TheoremTag.ZERO_ODD,
}

NORM_FLAGS = {
    "l1": "L1",
    "l2": "L2",
    "linf": "Linf",
    "wl2": "WeightedDiagonalL2",
    "weighteddiagonall2": "WeightedDiagonalL2",
}


@contextmanager
def _output(args) -> Iterator[TextIO]:
    """The --out file, or stdout when --out is not given."""
    if args.out:
        with open(args.out, "w", newline="") as handle:
            yield handle
    else:
        yield sys.stdout


def _emit(args, payload) -> None:
    with _output(args) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_weights(args) -> list[Vec]:
    if getattr(args, "weights", None):
        return [(rat(part),) for part in args.weights.split(",")]
    path = getattr(args, "weights_file", None)
    if not path:
        raise ValueError("provide --weights (scalars) or --weights-file")
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        rows = json.loads(text)
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("weights JSON must be an array of vectors")
        return [make_vec(row) for row in rows]
    vectors = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        vectors.append(make_vec(line.split(",")))
    if not vectors:
        raise ValueError("weights file is empty")
    return vectors


def _config_from_weights(vectors: Sequence[Vec], **kwargs) -> WeightConfig:
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise ValueError(f"weights mix dimensions: {sorted(dims)}")
    return WeightConfig(dim=dims.pop(), weights=tuple(vectors), **kwargs)


def _parse_norm(flag: Optional[str], diag: Optional[str]) -> Optional[NormSpec]:
    if flag is None:
        return None
    kind = NORM_FLAGS.get(flag.lower())
    if kind is None:
        raise ValueError(f"unknown norm {flag!r}; use l1, l2, linf, or wl2")
    coeffs = tuple(rat(c) for c in diag.split(",")) if diag else ()
    return NormSpec(kind=kind, diag=coeffs)


def cmd_bound(args) -> int:
    if args.norm_sq is not None:
        squared = rat(args.norm_sq)
        if squared == 0:
            raise ValueError("a zero target is requested with --zero")
        report = nonuniform_bound(args.n, squared)
    else:
        x = parse_point(args.x) if args.x is not None else (Fraction(0),)
        report = bound_dispatch(args.n, x)
        squared = norm_sq(x)
    payload = report.to_json()
    if args.hoeffding:
        payload["hoeffding"] = hoeffding_bound(args.n, squared)
    _emit(args, payload)
    return 0


def cmd_dist(args) -> int:
    cfg = _config_from_weights(_load_weights(args))
    if args.ap_m is not None:
        dist = ap_uniform_sum_distribution(APUniformSpec(args.ap_m), cfg)
    else:
        dist = full_distribution(cfg, cap=args.cap_full)
    with _output(args) as handle:
        if args.format == "csv":
            writer = csv.writer(handle)
            writer.writerow([f"x{i + 1}" for i in range(dist.dim)] + ["probability"])
            writer.writerows(x + [p] for x, p in dist.formatted_atoms())
        else:
            dist.to_json(handle)
    return 0


def cmd_atom(args) -> int:
    cfg = _config_from_weights(_load_weights(args))
    probability = atom_probability(cfg, parse_point(args.x), cap=args.cap_mitm)
    _emit(args, rat_str(probability))
    return 0


def _extremal_fixtures(tag: TheoremTag, n: int, d: int) -> list[WeightConfig]:
    """Configurations that attain the bound, pinned into a campaign."""
    fixtures: list[WeightConfig] = []
    if tag is TheoremTag.ERDOS_KLEITMAN:
        e1 = (Fraction(1),) + (Fraction(0),) * (d - 1)
        fixtures.append(WeightConfig(dim=d, weights=(e1,) * n))
    elif tag is TheoremTag.NON_UNIFORM:
        for k in (1, 2):
            x = (Fraction(k),) + (Fraction(0),) * (d - 1)
            if k + (n + k) % 2 <= n:
                fixtures.append(extremal_config(n, d, x))
    elif tag is TheoremTag.ZERO_ODD and n >= 3:
        half = (Fraction(1, 2),) + (Fraction(0),) * (d - 1)
        e1 = (Fraction(1),) + (Fraction(0),) * (d - 1)
        fixtures.append(WeightConfig(dim=d, weights=(e1,) + (half,) * (n - 1)))
    return fixtures


# verify runs a campaign (theorems 1, 2 and 4) or the zero-weights supremum
# check (theorem 3), and each reads flags the other does not. These flags
# parse to None when absent, so a flag of the other mode is refused and an
# absent one of the chosen mode takes its default here
VERIFY_MODE_FLAGS = {
    "campaign": {"n": 8, "d": 1, "with_extremal": False, "cap_full": FULL_LAW_CAP},
    "sup": {"x": None, "n_max": 12, "cap_mitm": ATOM_QUERY_CAP},
}


def cmd_verify(args) -> int:
    tag = THEOREM_FLAGS[args.theorem]
    mode = "sup" if tag is TheoremTag.ZERO_WEIGHTS_SUP else "campaign"
    for flags_mode, flags in VERIFY_MODE_FLAGS.items():
        for dest, default in flags.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            elif flags_mode != mode:
                flag = "--" + dest.replace("_", "-")
                raise ValueError(f"{flag} is not read by theorem {args.theorem}")
    if mode == "sup":
        if args.x is None:
            raise ValueError("--x is required for the zero-weights supremum check")
        if args.format == "csv":
            raise ValueError("the zero-weights supremum check writes JSON only")
        x = parse_point(args.x)
        gen = ConfigGenerator(
            n=max(args.n_max, 1),
            d=len(x),
            seed=args.seed,
            grid_denominator=args.denominator,
            allow_zero=True,
            count=args.count,
        )
        violations = verify_zero_weights_sup(x, args.n_max, gen, cap=args.cap_mitm)
        report = {
            "theorem": tag.value,
            "x": vec_strs(x),
            "n_max": args.n_max,
            "configs_per_size": args.count,
            "sup": rat_str(zero_weights_sup(norm_sq(x))),
            "generator": gen.to_json(),
            "violations": [v.to_json() for v in violations],
        }
        summary = (
            f"{tag.value}: sizes 1..{args.n_max}, {args.count} configs each, "
            f"{len(violations)} violations"
        )
        count = len(violations)
    else:
        gen = ConfigGenerator(
            n=args.n,
            d=args.d,
            seed=args.seed,
            grid_denominator=args.denominator,
            allow_zero=False,
            count=args.count,
        )
        extra = _extremal_fixtures(tag, args.n, args.d) if args.with_extremal else []
        csv_path = args.out if args.format == "csv" else None
        campaign = run_campaign(
            gen, [tag], cap=args.cap_full, extra_configs=extra, csv_path=csv_path
        )
        report = campaign.to_json()
        summary = campaign.summary()
        count = len(campaign.violations)
    print(summary)
    if args.out and args.format != "csv":
        _emit(args, report)
    return 1 if count else 0


def cmd_search(args) -> int:
    problem = SearchProblem(
        conjecture=args.conjecture,
        n=args.n,
        d=args.d,
        budget=args.budget,
        seed=args.seed,
        m=args.m,
        norm=_parse_norm(args.norm, args.norm_diag),
        constraint_norm=_parse_norm(args.constraint_norm, args.constraint_norm_diag),
    )
    if args.resume:
        if args.chains is not None or args.anneal_config:
            raise ValueError("a resumed run keeps its checkpoint's settings")
        settings = None
    elif args.anneal_config:
        settings = AnnealSettings.from_file(args.anneal_config)
    else:
        settings = AnnealSettings()
    if args.chains is not None:
        settings = replace(settings, chains=args.chains)
    result = anneal(
        problem,
        settings,
        resume=args.resume,
        checkpoint_path=args.checkpoint,
        ledger_path=args.ledger,
    )
    print(result.summary())
    if args.out:
        _emit(args, result.to_json())
    return 1 if result.certificates else 0


def cmd_antichain(args) -> int:
    vectors = _load_weights(args)
    if any(len(v) != 1 for v in vectors):
        raise ValueError("subset families are defined for scalar weights")
    weights = [v[0] for v in vectors]
    x = rat(args.x)
    family = build_family(weights, x, cap=args.cap_full)
    k = args.k if args.k is not None else max(0, math.ceil(x))
    report = milner_report(family, k)
    cfg = _config_from_weights(vectors, l2_unit_ball=False)
    probability = atom_probability(cfg, (x,), cap=cfg.n)
    payload = {
        "family": family.to_json(),
        "size": len(family),
        "k": k,
        **report,
        "atom_probability": rat_str(probability),
        "cardinality_matches": Fraction(len(family), 2 ** family.n) == probability,
    }
    _emit(args, payload)
    return 1 if report["milner"]["holds"] is False else 0


def cmd_extremal(args) -> int:
    x = parse_point(args.x)
    if args.sup:
        # --n and --d parse to None when absent, like verify's mode flags
        for flag, value in (("--n", args.n), ("--d", args.d)):
            if value is not None:
                raise ValueError(f"{flag} is not read with --sup")
        cfg = zero_weights_extremal(x)
        bound = zero_weights_sup(norm_sq(x))
        tag = TheoremTag.ZERO_WEIGHTS_SUP
    else:
        if args.n is None:
            raise ValueError("--n is required without --sup")
        cfg = extremal_config(args.n, 1 if args.d is None else args.d, x)
        bound = nonuniform_bound(args.n, norm_sq(x)).bound
        tag = TheoremTag.NON_UNIFORM
    probability = atom_probability(cfg, x, cap=max(ATOM_QUERY_CAP, cfg.n))
    payload = {
        "theorem": tag.value,
        "config": cfg.to_json(),
        "x": vec_strs(x),
        "bound": rat_str(bound),
        "probability": rat_str(probability),
        "equality": probability == bound,
    }
    _emit(args, payload)
    return 0 if probability == bound else 1


# Flags that several subcommands read; each subcommand takes --out and the
# ones it names here, so a flag it would ignore is a usage error
SHARED_FLAGS = {
    "--seed": dict(type=int, default=0, help="base RNG seed"),
    "--format": dict(choices=("json", "csv"), default="json", help="output format"),
    "--out": dict(help="write output to this file"),
    "--cap-full": dict(
        type=int, default=FULL_LAW_CAP, help="summand cap for full-law enumeration"
    ),
    "--cap-mitm": dict(
        type=int, default=ATOM_QUERY_CAP, help="summand cap for single-atom queries"
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lolab",
        description=(
            "Exact laws, optimal bounds, and counterexample search for "
            "weighted sums of random signs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, shared=()):
        p = sub.add_parser(name, help=summary)
        for flag in ("--out", *shared):
            p.add_argument(flag, **SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("bound", cmd_bound, "evaluate a bound at a target")
    p.add_argument("--n", type=int, required=True, help="summand count")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--x", help="target point, e.g. 3/2 or (1,1)")
    target.add_argument("--norm-sq", help="squared Euclidean norm of the target")
    target.add_argument("--zero", action="store_true", help="target the origin")
    p.add_argument(
        "--hoeffding",
        action="store_true",
        help="include the float exponential comparison bound",
    )

    p = command(
        "dist", cmd_dist, "exact law of a weight config", ("--format", "--cap-full")
    )
    p.add_argument("--weights", help="inline scalar weights, e.g. 1,1/2,1/2")
    p.add_argument("--weights-file", help="JSON array of vectors, or CSV lines")
    p.add_argument(
        "--ap-m",
        type=int,
        help="use progression-uniform summands with this support size",
    )

    p = command("atom", cmd_atom, "P(sum = x) for one target", ("--cap-mitm",))
    p.add_argument("--weights", help="inline scalar weights, e.g. 1,1/2,1/2")
    p.add_argument("--weights-file", help="JSON array of vectors, or CSV lines")
    p.add_argument("--x", required=True, help="target point")

    p = command(
        "verify",
        cmd_verify,
        "randomized campaign against a bound",
        ("--seed", "--format", "--cap-full", "--cap-mitm"),
    )
    p.add_argument(
        "--theorem",
        type=int,
        choices=sorted(THEOREM_FLAGS),
        required=True,
        help=(
            "1 = uniform central bound, 2 = distance-aware bound, "
            "3 = zero-weights supremum, 4 = odd-summand zero bound"
        ),
    )
    p.add_argument("--n", type=int, help="summand count per config")
    p.add_argument("--d", type=int, help="weight dimension")
    p.add_argument("--count", type=int, default=100, help="configs per campaign")
    p.add_argument(
        "--denominator", type=int, default=16, help="weight grid denominator"
    )
    p.add_argument(
        "--with-extremal",
        action="store_true",
        help="pin bound-attaining configs into the campaign",
    )
    p.add_argument("--x", help="target point (zero-weights supremum only)")
    p.add_argument(
        "--n-max",
        type=int,
        help="largest summand count sampled (zero-weights supremum only)",
    )
    p.set_defaults(
        **{dest: None for flags in VERIFY_MODE_FLAGS.values() for dest in flags}
    )

    p = command(
        "search", cmd_search, "anneal for conjecture counterexamples", ("--seed",)
    )
    p.add_argument(
        "--conjecture",
        type=int,
        choices=(1, 2),
        required=True,
        help="1 = progression-uniform bound, 2 = norm-replaced sign-sum bound",
    )
    p.add_argument("--m", type=int, help="progression support size (conjecture 1)")
    p.add_argument("--norm", help="target norm: l1, l2, linf, wl2 (conjecture 2)")
    p.add_argument("--norm-diag", help="wl2 diagonal coefficients, e.g. 1/2,2")
    p.add_argument(
        "--constraint-norm",
        help="weight-ball norm when it differs from the target norm",
    )
    p.add_argument("--constraint-norm-diag", help="wl2 diagonal for the constraint")
    p.add_argument("--n", type=int, default=8, help="largest summand count")
    p.add_argument("--d", type=int, default=1, help="largest weight dimension")
    p.add_argument("--budget", type=int, default=10000, help="anneal iterations")
    p.add_argument("--chains", type=int, help="override the chain count")
    p.add_argument("--anneal-config", help="JSON file of anneal settings")
    p.add_argument("--checkpoint", help="write final chain states here")
    p.add_argument("--resume", help="continue from this checkpoint")
    p.add_argument("--ledger", help="append a JSONL summary line here")

    p = command(
        "antichain",
        cmd_antichain,
        "subset family behind a scalar atom",
        ("--cap-full",),
    )
    p.add_argument("--weights", help="inline scalar weights, e.g. 1,1,1")
    p.add_argument("--weights-file", help="JSON array of vectors, or CSV lines")
    p.add_argument("--x", required=True, help="scalar target")
    p.add_argument(
        "--k", type=int, help="intersection level to check (default ceil(x))"
    )

    p = command("extremal", cmd_extremal, "bound-attaining configuration at a target")
    p.add_argument("--n", type=int, help="summand count")
    p.add_argument("--d", type=int, help="weight dimension (default 1)")
    p.add_argument("--x", required=True, help="non-zero target point")
    p.add_argument(
        "--sup",
        action="store_true",
        help="zero-weights supremum extremal (n is then k*k)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
