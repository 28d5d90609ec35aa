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
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence, TextIO

from .antichain import SubsetFamily, build_family, milner_report
from .bounds import (
    ALIGNED_CAP,
    NormSpec,
    TheoremTag,
    bound_dispatch,
    extremal_config,
    hoeffding_bound,
    nonuniform_bound,
    nonuniform_count,
    zero_weights_extremal,
)
from .engine import (
    ATOM_QUERY_CAP,
    FULL_LAW_CAP,
    APUniformSpec,
    CapExceeded,
    WeightConfig,
    _cuts,
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
    wire,
)
from .search import (
    AnnealSettings,
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
    if args.weights is not None:
        return [(rat(part),) for part in args.weights.split(",")]
    path = args.weights_file
    with open(path) as handle:
        text = handle.read()
    try:
        if text.lstrip().startswith("["):
            rows = json.loads(text)
            if not all(isinstance(r, list) for r in rows):
                raise ValueError("weights JSON must be an array of vectors")
        else:
            lines = (line.strip() for line in text.splitlines())
            rows = [line.split(",") for line in lines if line]
        vectors = [make_vec(row) for row in rows]
    except (ValueError, TypeError) as exc:
        raise ValueError(f"weights file {path}: {exc}") from None
    if not vectors:
        raise ValueError(f"weights file {path} is empty")
    return vectors


def _config_from_weights(vectors: Sequence[Vec], **kwargs) -> WeightConfig:
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise ValueError(f"weights mix dimensions: {sorted(dims)}")
    return WeightConfig.of(dims.pop(), vectors, **kwargs)


def _parse_norm(args, dest: str) -> Optional[NormSpec]:
    """The NormSpec of --<dest> and --<dest>-diag, or None when neither is given."""
    flag, diag = getattr(args, dest), getattr(args, dest + "_diag")
    if flag is None:
        if diag is not None:
            name = "--" + dest.replace("_", "-")
            raise ValueError(f"{name}-diag needs {name}")
        return None
    kind = NORM_FLAGS.get(flag.lower())
    if kind is None:
        raise ValueError(f"unknown norm {flag!r}; use l1, l2, linf, or wl2")
    coeffs = tuple(rat(c) for c in diag.split(",")) if diag else ()
    return NormSpec(kind=kind, diag=coeffs)


def _refuse_unprintable(exponent: int) -> None:
    """Refuse a bound whose lowest terms are over 2^exponent if "p/q" is too long.

    Python prints no int of more than sys.get_int_max_str_digits() digits
    (0: no limit), and the denominator is the longer of the two.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    digits = int(exponent * math.log10(2)) + 1
    if limit and digits > limit:
        raise CapExceeded("printed digit (sys.get_int_max_str_digits())", limit, digits)


def cmd_bound(args) -> int:
    n, x = args.n, None
    if args.norm_sq is not None:
        squared = rat(args.norm_sq)
        if squared == 0:
            raise ValueError("a zero target is requested with --zero")
    else:
        x = parse_point(args.x) if args.x is not None else (Fraction(0),)
        squared = norm_sq(x)
    # past squared norm n^2 the bound is 0; any other bound is a count over
    # 2^n, which keeps at least 2^(n - n.bit_length()) in lowest terms, so a
    # bound that cannot print is refused before its binomial, or once known
    if 0 <= squared <= n * n:
        _refuse_unprintable(n - n.bit_length())
    report = bound_dispatch(n, x) if x is not None else nonuniform_bound(n, squared)
    _refuse_unprintable(report.bound.denominator.bit_length() - 1)
    payload = report.to_json()
    if args.hoeffding:
        payload["hoeffding"] = hoeffding_bound(n, squared)
    _emit(args, payload)
    return 0


def cmd_dist(args) -> int:
    cfg = _config_from_weights(_load_weights(args))
    if args.ap_m is None:
        cap = FULL_LAW_CAP if args.cap_full is None else args.cap_full
        dist = full_distribution(cfg, cap=cap)
    elif args.cap_full is not None:
        raise ValueError("--cap-full is not read with --ap-m")
    else:
        dist = ap_uniform_sum_distribution(APUniformSpec(args.ap_m), cfg)
    with _output(args) as handle:
        if args.format == "csv":
            dist.to_csv(handle)
        else:
            dist.to_json(handle)
    return 0


def cmd_atom(args) -> int:
    cfg = _config_from_weights(_load_weights(args))
    probability = atom_probability(cfg, parse_point(args.x), cap=args.cap_mitm)
    _emit(args, wire(probability))
    return 0


def _extremal_fixtures(tag: TheoremTag, n: int, d: int) -> list[WeightConfig]:
    """Configurations that attain the bound, pinned into a campaign."""
    fixtures: list[WeightConfig] = []
    zeros = (0,) * (d - 1)
    if tag is TheoremTag.ERDOS_KLEITMAN:
        fixtures.append(WeightConfig(d, 1, ((1, *zeros),) * n))
    elif tag is TheoremTag.NON_UNIFORM:
        for k in (1, 2):
            if nonuniform_count(n, k) > 0:
                fixtures.append(extremal_config(n, d, (k, *zeros))[0])
    elif tag is TheoremTag.ZERO_ODD and n >= 3:
        # e1, then n - 1 copies of e1 / 2
        fixtures.append(WeightConfig(d, 2, ((2, *zeros),) + ((1, *zeros),) * (n - 1)))
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
        sup, violations = verify_zero_weights_sup(x, args.n_max, gen, cap=args.cap_mitm)
        report = {
            "theorem": tag.value,
            "x": wire(x),
            "n_max": args.n_max,
            "configs_per_size": args.count,
            "sup": wire(sup),
            "generator": wire(gen),
            "violations": wire(violations),
        }
        summary = (
            f"{tag.value}: sizes 1..{args.n_max}, {args.count} configs each, "
            f"{len(violations)} violations"
        )
        count = len(violations)
    else:
        if args.format == "csv" and not args.out:
            raise ValueError("--format csv needs --out, the file the rows go to")
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
        norm=_parse_norm(args, "norm"),
        constraint_norm=_parse_norm(args, "constraint_norm"),
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
    # zero weights pass here, for build_family to refuse with the others
    flags = dict(allow_zero=True, l2_unit_ball=False)
    cfg = _config_from_weights(_load_weights(args), **flags)
    x = rat(args.x)
    family = build_family(cfg, x, cap=args.cap_full)
    k = args.k if args.k is not None else max(0, math.ceil(x))
    report = milner_report(family, k)
    probability = atom_probability(cfg, (x,), cap=args.cap_full)
    payload = {
        "family": {"members": [], "n": family.n},
        "size": len(family),
        "k": k,
        **report,
        "atom_probability": wire(probability),
        "cardinality_matches": Fraction(len(family), 2 ** family.n) == probability,
    }
    # the members are written as text in place of the one "members" key's []
    text = json.dumps(payload, indent=2, sort_keys=True)
    head, _, tail = text.partition('"members": []')
    with _output(args) as handle:
        handle.write(head + '"members": ')
        handle.writelines(_members_json(family))
        handle.write(tail + "\n")
    return 1 if report["milner"]["holds"] is False else 0


def _members_json(family: SubsetFamily) -> Iterator[str]:
    """The family's members as sorted 1-based element lists, laid out as
    json.dumps(indent=2) lays out the report's "members" value, in pieces of
    WRITE_CHUNK members.

    The members are most of the report, and the json module indents with
    its pure-Python encoder, so each member's text is joined from tables of
    element strings indexed by the member's bytes.
    """
    members = family.members
    if not members:
        yield "[]"
        return
    tables = []
    for shift in range(0, max(family.n, 1), 8):
        table = [""]
        for i in range(shift + 1, shift + 9):
            element = f",\n        {i}"
            table += [text + element for text in table]
        tables.append((shift, table))
    sep = "[\n      "
    for cut in _cuts(range(len(members))):
        chunk = members[cut]
        columns = [[table[mask >> shift & 255] for mask in chunk] for shift, table in tables]
        texts = map("".join, zip(*columns))
        yield sep + ",\n      ".join([f"[{t[1:]}\n      ]" if t else "[]" for t in texts])
        sep = ",\n      "
    yield "\n    ]"


def cmd_extremal(args) -> int:
    x = parse_point(args.x)
    if args.sup:
        # --n and --d parse to None when absent, like verify's mode flags
        for flag, value in (("--n", args.n), ("--d", args.d)):
            if value is not None:
                raise ValueError(f"{flag} is not read with --sup")
        cfg, bound = zero_weights_extremal(x)
        tag = TheoremTag.ZERO_WEIGHTS_SUP
    else:
        if args.n is None:
            raise ValueError("--n is required without --sup")
        cfg, bound = extremal_config(args.n, 1 if args.d is None else args.d, x)
        tag = TheoremTag.NON_UNIFORM
    probability = atom_probability(cfg, x, cap=ALIGNED_CAP)
    payload = {
        "theorem": tag.value,
        "config": wire(cfg),
        "x": wire(x),
        "bound": wire(bound),
        "probability": wire(probability),
        "equality": probability == bound,
    }
    _emit(args, payload)
    return 0 if probability == bound else 1


def summand_cap(text: str) -> int:
    """A summand cap: an int >= 0, where 0 refuses every non-empty request."""
    cap = int(text)
    if cap < 0:
        raise argparse.ArgumentTypeError(f"a summand cap must be >= 0, got {cap}")
    return cap


# Flags that several subcommands read; each subcommand takes --out and the
# ones it names here, so a flag it would ignore is a usage error
SHARED_FLAGS = {
    "--seed": dict(type=int, default=0, help="base RNG seed"),
    "--format": dict(choices=("json", "csv"), default="json", help="output format"),
    "--out": dict(help="write output to this file"),
    "--cap-full": dict(
        type=summand_cap,
        default=FULL_LAW_CAP,
        help="summand cap for full-law enumeration",
    ),
    "--cap-mitm": dict(
        type=summand_cap,
        default=ATOM_QUERY_CAP,
        help="summand cap for single-atom queries",
    ),
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process; parsing leaves it as it is."""
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

    def weights_source(p):  # exactly one of the two flags
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--weights", help="inline scalar weights, e.g. 1,1/2,1/2")
        source.add_argument("--weights-file", help="JSON array of vectors, or CSV lines")

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
    weights_source(p)
    p.add_argument(
        "--ap-m",
        type=int,
        help="use progression-uniform summands with this support size",
    )
    p.set_defaults(cap_full=None)  # so that --cap-full with --ap-m is refused

    p = command("atom", cmd_atom, "P(sum = x) for one target", ("--cap-mitm",))
    weights_source(p)
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
    weights_source(p)
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
