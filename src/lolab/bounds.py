"""Optimal atom-probability bounds for weighted sign sums, with extremals.

Each bound is an exact Fraction computed from binomial closed forms, and
each comes with the configuration that attains it, so equality can be
certified rather than eyeballed. The one deliberate float in the module is
the exponential comparison bound, kept for contrast with the exact ones.

A bound is read at its norm rounded to an integer k by the one rounding,
`rounded_norms` (up for signs, down for progressions), and the closed forms
read a squared norm p/q as measure p over unit q. `atom_bounds` is the one
lookup of an atom's bound for lattice points, read by campaign rows, the
search's scorer and `certify`: `NormSpec`'s integer rule gives the measures,
`rounded_norms` their k, and `bound_counts` one table per (m, n). Every sign
bound is one probability of the plain sign sum R_N, `_sign_bound`: the one
sign count, the binomial `nonuniform_count`, over 2^N, and 0 past the reach
without building 2^N. `_summands` is the one summand check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Sequence

from .engine import LAW_ATOM_CAP, APUniformSpec, CapExceeded, WeightConfig, lattice, lattice_law
from .rational import (
    _NULL,
    RationalLike,
    Record,
    _read_fields,
    is_zero,
    make_vec,
    norm_sq,
    rat,
    rat_str,
    wire,
)


# An atom query over n aligned weights makes about n^2 / 8 table updates, so
# an aligned config is refused when n * n > LAW_ATOM_CAP, and queried under
# this cap: n = 4096 takes about a second
ALIGNED_CAP = math.isqrt(LAW_ATOM_CAP)


class TheoremTag(str, Enum):
    """Which inequality family produced a bound or a check row."""

    ERDOS_KLEITMAN = "ErdosKleitman"
    NON_UNIFORM = "NonUniform"
    ZERO_ODD = "ZeroOdd"
    ZERO_WEIGHTS_SUP = "ZeroWeightsSup"


@dataclass(frozen=True)
class BoundReport(Record):
    """A bound value together with the integers that define it."""

    n: int
    k: int
    delta: int
    bound: Fraction
    theorem: TheoremTag


def parity_correction(n: int, k: int) -> int:
    """0 if n + k is even, else 1: the shift to the reachable parity."""
    return (n + k) % 2


def _summands(n: int, odd: bool = False) -> int:
    """n, once it passes the one summand check: n >= 1, and odd if asked."""
    if n < 1 or odd and n % 2 == 0:
        need = "odd and >= 1" if odd else ">= 1"
        raise ValueError(f"summand count must be {need}, got {n}")
    return n


def nonuniform_count(n: int, k: int) -> int:
    """2^n times the distance-aware bound at a target whose norm has ceiling k.

    The count of sign vectors whose plain sum hits k shifted to the
    reachable parity; 0 beyond the maximal reach n.
    """
    t = k + parity_correction(n, k)
    return math.comb(n, (n + t) // 2) if t <= n else 0


def _sign_bound(n: int, k: int) -> Fraction:
    """The plain n-sign sum's probability at k shifted to the reachable parity.

    `nonuniform_count` over 2^n; a count of 0 is 0 without building 2^n.
    """
    count = nonuniform_count(n, k)
    return Fraction(count, 2 ** n) if count else Fraction(0)


def erdos_kleitman_bound(n: int) -> Fraction:
    """The uniform bound binom(n, floor(n/2)) / 2^n on any atom."""
    return _sign_bound(_summands(n), 0)


def _target_k(m: int, squared_norm: RationalLike) -> int:
    """`rounded_norms` of a non-zero target's squared norm p/q: measure p, unit q."""
    q = rat(squared_norm)
    if q <= 0:
        raise ValueError(f"squared norm must be > 0 at a non-zero target, got {q}")
    (k,) = rounded_norms(m, [q.numerator], q.denominator, 2)
    return k


def nonuniform_bound(n: int, squared_norm: RationalLike) -> BoundReport:
    """Distance-aware atom bound at a non-zero target.

    With k = ceil of the target's Euclidean norm, the bound is the plain
    sign sum's probability of hitting k shifted to the reachable parity.
    Targets beyond the maximal reach get bound 0.
    """
    _summands(n)
    k = _target_k(2, squared_norm)
    return BoundReport(
        n=n,
        k=k,
        delta=parity_correction(n, k),
        bound=_sign_bound(n, k),
        theorem=TheoremTag.NON_UNIFORM,
    )


def zero_odd_count(n: int) -> int:
    """2^n times the bound on hitting 0 with an odd number n of summands.

    That bound is the plain (n-1)-sign sum's chance of landing at 2, the
    probability that a half-weight sign pair pattern cancels.
    """
    return 2 * nonuniform_count(_summands(n, odd=True) - 1, 2)


def zero_odd_bound(n: int) -> Fraction:
    """Bound on hitting 0 with an odd number n of summands: P(R_{n-1} = 2)."""
    return _sign_bound(_summands(n, odd=True) - 1, 2)


def zero_weights_sup(squared_norm: RationalLike) -> Fraction:
    """Supremum over n of the atom probability when zero weights are allowed.

    With k = ceil of the target norm the supremum is the k*k-sign sum's
    probability of hitting k, attained by k*k aligned copies of x / k.
    """
    k = _target_k(2, squared_norm)
    return _sign_bound(k * k, k)


def hoeffding_bound(n: int, squared_norm: RationalLike) -> float:
    """The exponential tail comparison exp(-|x|^2 / (2n)), in floats."""
    _summands(n)
    q = rat(squared_norm)
    if q < 0:
        raise ValueError(f"squared norm must be >= 0, got {q}")
    try:
        return math.exp(-float(q) / (2.0 * n))
    except OverflowError:
        # q or n past float range: exp of the exact ratio, 0.0 past 746
        return math.exp(-min(q / (2 * n), 746))


def bound_dispatch(n: int, x) -> BoundReport:
    """Route a target to the sharpest applicable bound.

    Non-zero targets get the distance-aware bound; the origin gets the
    uniform bound P(R_n = 0) for even n and P(R_{n-1} = 2) for odd n.
    """
    x = make_vec(x)
    if not is_zero(x):
        return nonuniform_bound(n, norm_sq(x))
    delta = _summands(n) % 2
    return BoundReport(
        n=n,
        k=0,
        delta=delta,
        bound=_sign_bound(n - delta, 2 * delta),
        theorem=TheoremTag.ZERO_ODD if delta else TheoremTag.ERDOS_KLEITMAN,
    )


def extremal_config(n: int, d: int, x) -> tuple[WeightConfig, Fraction]:
    """The aligned configuration attaining the distance-aware bound at x, and that bound.

    All n weights equal x / (k + delta), so the sum hits x exactly when
    the plain sign sum hits k + delta. When k + delta > n the bound is 0
    and no configuration attains it, which is reported as an error. An n
    past ALIGNED_CAP is refused before the bound or any weight is computed.
    """
    x = make_vec(x)
    if len(x) != d:
        raise ValueError(f"target has length {len(x)}, expected dim {d}")
    if is_zero(x):
        raise ValueError("extremal construction needs a non-zero target")
    if n > ALIGNED_CAP:
        raise CapExceeded("aligned-config summand", ALIGNED_CAP, n)
    report = nonuniform_bound(n, norm_sq(x))
    t = report.k + report.delta
    if t > n:
        raise ValueError(
            f"target needs {t} aligned summands but n = {n}; "
            "the bound there is 0 and nothing attains it"
        )
    scale, (pt,) = lattice([x])
    return WeightConfig(d, scale * t, (pt,) * n), report.bound


def zero_weights_extremal(x) -> tuple[WeightConfig, Fraction]:
    """The k*k aligned copies of x / k attaining the zero-weights supremum, and
    the supremum, `zero_weights_sup`.

    That is the extremal config at n = k*k, where the parity shift is 0, so
    its bound is the supremum. All weights are non-zero; allowing zeros only
    lets other n reach the same value, never exceed it.
    """
    x = make_vec(x)
    if is_zero(x):
        raise ValueError("extremal construction needs a non-zero target")
    k = _target_k(2, norm_sq(x))
    return extremal_config(k * k, len(x), x)


NORM_KINDS = ("L1", "L2", "Linf", "WeightedDiagonalL2")


@dataclass(frozen=True)
class NormSpec:
    """A norm on the ambient space, evaluated exactly on rational vectors.

    Each kind has one integer rule, `_rule`, that the unit-ball test, the
    float and every rounding of a norm read. The Euclidean kinds give
    squared values, so boundary cases like a norm of exactly k are exact.
    """

    kind: str = "L2"
    diag: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        diag = tuple(rat(c) for c in self.diag)
        object.__setattr__(self, "diag", diag)
        if self.kind == "WeightedDiagonalL2":
            if not diag:
                raise ValueError("diagonal norm needs at least one coefficient")
            if any(c <= 0 for c in diag):
                raise ValueError("diagonal coefficients must be positive")
        elif diag:
            raise ValueError(f"{self.kind} takes no diagonal coefficients")

    def label(self) -> str:
        if self.kind == "WeightedDiagonalL2":
            return "WeightedDiagonalL2[" + ",".join(rat_str(c) for c in self.diag) + "]"
        return self.kind

    def _rule(
        self, points: Sequence[tuple[int, ...]], scale: int
    ) -> tuple[list[int], int, int]:
        """(measures, unit, p) with each pt / scale of norm (measure / unit) ** (1 / p).

        p is 2 for the Euclidean kinds, whose measures are squared, else 1.
        """
        if self.kind == "L1":
            return [sum(map(abs, pt)) for pt in points], scale, 1
        if self.kind == "Linf":
            return [max(map(abs, pt)) for pt in points], scale, 1
        if self.kind == "L2":
            return [sum(map(mul, pt, pt)) for pt in points], scale * scale, 2
        q, coeffs = self._diag_ints
        lengths = {len(pt) for pt in points} - {len(coeffs)}
        if lengths:
            raise ValueError(
                f"vector of length {lengths.pop()} "
                f"against diagonal of length {len(coeffs)}"
            )
        squares = [sum(map(mul, coeffs, map(mul, pt, pt))) for pt in points]
        return squares, q * scale * scale, 2

    @cached_property
    def _diag_ints(self) -> tuple[int, tuple[int, ...]]:
        """(q, coefficients times q) for the lcm q of the diagonal's denominators."""
        q = math.lcm(*(c.denominator for c in self.diag))
        return q, tuple(c.numerator * (q // c.denominator) for c in self.diag)

    def contains(self, pt: Sequence[int], scale: int) -> bool:
        """Whether pt / scale lies in the unit ball."""
        (measure,), unit, _ = self._rule([pt], scale)
        return measure <= unit

    def float_value(self, pt: Sequence[int], scale: int) -> float:
        """The float of the norm of pt / scale: one correctly rounded int division."""
        (measure,), unit, p = self._rule([pt], scale)
        return measure / unit if p == 1 else math.sqrt(measure / unit)

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        if self.kind == "WeightedDiagonalL2":
            obj["diag"] = wire(self.diag)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "NormSpec":
        values = _read_fields(obj, "norm", kind=(str,), diag=(list, _NULL))
        diag = values["diag"] or []
        if any(type(c) not in (str, int) for c in diag):
            raise ValueError(
                f"norm field 'diag' must hold p/q strings, got {json.dumps(diag)}"
            )
        return cls(kind=values["kind"], diag=tuple(diag))


# the paper's norm: the default target norm, and the only one of progression
# bounds and of campaigns
EUCLIDEAN = NormSpec("L2")


def rounded_norms(m: int, measures: Sequence[int], unit: int, p: int) -> list[int]:
    """The k at which each norm (measure / unit) ** (1 / p) reads its bound.

    A bound on m support points is read at the exact ceiling of the norm
    for signs (m = 2) and at its exact floor for progressions (m >= 3), for
    measures >= 0, unit > 0 and p = 1 or 2. For p = 2 the ceiling is the
    smallest k with unit * k * k >= measure, so 1 past isqrt((measure - 1)
    // unit) for a measure > 0, and the floor is isqrt(measure // unit).
    """
    if p == 1:
        if m == 2:
            return [-(-a // unit) for a in measures]
        return [a // unit for a in measures]
    if m == 2:
        return [math.isqrt((a - 1) // unit) + 1 if a else 0 for a in measures]
    return [math.isqrt(a // unit) for a in measures]


@lru_cache(maxsize=None)
def bound_counts(m: int, n: int) -> tuple[int, ...]:
    """m^n times the bound of n summands at k = 0..(m - 1) * n + 1.

    For signs, the sign-sum count. For progressions, the count of the
    unit-weight progression sum at k, shifted to the reachable parity for
    even m; 0 where that point falls outside the sum's support. The last k
    is one past the sum's reach (m - 1) * n, so the last entry is 0, as is
    the bound at every larger k. At odd m every support point is even, so
    the table is 0 at every odd k (`bound_counts(3, 4)` is (19, 0, 16, 0,
    10, 0, 4, 0, 1, 0)): a search flags, never compares, an atom whose
    floored norm is odd.
    """
    ks = range((m - 1) * n + 2)
    if m == 2:
        return tuple(nonuniform_count(n, k) for k in ks)
    law = lattice_law(1, [(1,)] * n, 1, APUniformSpec(m)).counts
    return tuple(law.get(k if m % 2 else k + parity_correction(n, k), 0) for k in ks)


def atom_bounds(
    norm: NormSpec, m: int, n: int, points: Sequence[tuple[int, ...]], scale: int
) -> tuple[list[int], list[int]]:
    """The k and the bound count (over m^n) of n summands at each pt / scale.

    k is `rounded_norms` of the norm's measures; past `bound_counts` it reads 0.
    """
    ks = rounded_norms(m, *norm._rule(points, scale))
    return ks, _counts_at(m, n, ks)


def _counts_at(m: int, n: int, ks: Sequence[int]) -> list[int]:
    """`bound_counts(m, n)` at each k; a k past its end reads its last entry, 0."""
    table = bound_counts(m, n)
    size = len(table)
    return [table[k] if k < size else 0 for k in ks]


def ap_uniform_bound(n: int, m: int, squared_norm: RationalLike) -> Fraction:
    """Conjectured bound for progression-uniform sums at a non-zero target.

    With k = floor of the target norm, the value is the unit-weight
    progression sum's probability at k, shifted to the reachable parity
    for even m (`bound_counts`). It can be 0; callers that hunt for
    violations flag those cells instead of claiming them.
    """
    if m < 3:
        raise ValueError(f"support size must be >= 3 here, got {m}")
    _summands(n)
    (count,) = _counts_at(m, n, [_target_k(m, squared_norm)])
    return Fraction(count, m ** n) if count else Fraction(0)


def milner_bound(n: int, k: int) -> int:
    """Maximum size of a k-intersecting antichain on an n-element ground set."""
    if n < 0:
        raise ValueError(f"ground set size must be >= 0, got {n}")
    if k < 0 or k > n:
        raise ValueError(f"intersection level must satisfy 0 <= k <= n, got {k}")
    return math.comb(n, (n + k + 1) // 2)
