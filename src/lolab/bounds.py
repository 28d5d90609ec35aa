"""Optimal atom-probability bounds for weighted sign sums, with extremals.

Each bound is an exact Fraction computed from binomial closed forms, and
each comes with the configuration that attains it, so equality can be
certified rather than eyeballed. The one deliberate float in the module is
the exponential comparison bound, kept for contrast with the exact ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .engine import (
    APUniformSpec,
    WeightConfig,
    _law,
    rademacher_atom,
)
from .rational import (
    RationalLike,
    ceil_sqrt,
    floor_sqrt_ratio,
    is_zero,
    make_vec,
    norm_sq,
    rat,
    rat_str,
    vec_scale,
)


class TheoremTag(str, Enum):
    """Which inequality family produced a bound or a check row."""

    ERDOS_KLEITMAN = "ErdosKleitman"
    NON_UNIFORM = "NonUniform"
    ZERO_ODD = "ZeroOdd"
    ZERO_WEIGHTS_SUP = "ZeroWeightsSup"


@dataclass(frozen=True)
class BoundReport:
    """A bound value together with the integers that define it."""

    n: int
    k: int
    delta: int
    bound: Fraction
    theorem: TheoremTag

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "delta": self.delta,
            "bound": rat_str(self.bound),
            "theorem": self.theorem.value,
        }


def parity_correction(n: int, k: int) -> int:
    """0 if n + k is even, else 1: the shift to the reachable parity."""
    return (n + k) % 2


def erdos_kleitman_bound(n: int) -> Fraction:
    """The uniform bound binom(n, floor(n/2)) / 2^n on any atom."""
    if n < 1:
        raise ValueError(f"summand count must be >= 1, got {n}")
    return Fraction(math.comb(n, n // 2), 2 ** n)


def nonuniform_count(n: int, k: int) -> int:
    """2^n times the distance-aware bound at a target whose norm has ceiling k.

    The count of sign vectors whose plain sum hits k shifted to the
    reachable parity; 0 beyond the maximal reach n.
    """
    t = k + parity_correction(n, k)
    return math.comb(n, (n + t) // 2) if t <= n else 0


def nonuniform_bound(n: int, squared_norm: RationalLike) -> BoundReport:
    """Distance-aware atom bound at a non-zero target.

    With k = ceil of the target's Euclidean norm, the bound is the plain
    sign sum's probability of hitting k shifted to the reachable parity.
    Targets beyond the maximal reach get bound 0.
    """
    if n < 1:
        raise ValueError(f"summand count must be >= 1, got {n}")
    q = rat(squared_norm)
    if q <= 0:
        raise ValueError(f"squared norm must be > 0 at a non-zero target, got {q}")
    k = ceil_sqrt(q)
    delta = parity_correction(n, k)
    return BoundReport(
        n=n,
        k=k,
        delta=delta,
        bound=Fraction(nonuniform_count(n, k), 2 ** n),
        theorem=TheoremTag.NON_UNIFORM,
    )


def zero_odd_bound(n: int) -> Fraction:
    """Bound on hitting 0 with an odd number of summands.

    Equals the probability that a half-weight sign pair pattern cancels,
    which is the plain (n-1)-sign sum's chance of landing at 2.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"summand count must be odd and >= 1, got {n}")
    return rademacher_atom(n - 1, 2)


def zero_weights_sup(squared_norm: RationalLike) -> Fraction:
    """Supremum over n of the atom probability when zero weights are allowed.

    With k = ceil of the target norm the supremum is the k*k-sign sum's
    probability of hitting k, attained by k*k aligned copies of x / k.
    """
    q = rat(squared_norm)
    if q <= 0:
        raise ValueError(f"squared norm must be > 0 at a non-zero target, got {q}")
    k = ceil_sqrt(q)
    return rademacher_atom(k * k, k)


def hoeffding_bound(n: int, squared_norm: RationalLike) -> float:
    """The exponential tail comparison exp(-|x|^2 / (2n)), in floats."""
    if n < 1:
        raise ValueError(f"summand count must be >= 1, got {n}")
    q = rat(squared_norm)
    if q < 0:
        raise ValueError(f"squared norm must be >= 0, got {q}")
    return math.exp(-float(q) / (2.0 * n))


def bound_dispatch(n: int, x) -> BoundReport:
    """Route a target to the sharpest applicable bound.

    Non-zero targets get the distance-aware bound; the origin gets the
    uniform bound for even n and the odd-summand zero bound otherwise.
    """
    x = make_vec(x)
    if not is_zero(x):
        return nonuniform_bound(n, norm_sq(x))
    if n < 1:
        raise ValueError(f"summand count must be >= 1, got {n}")
    if n % 2 == 0:
        return BoundReport(
            n=n,
            k=0,
            delta=0,
            bound=erdos_kleitman_bound(n),
            theorem=TheoremTag.ERDOS_KLEITMAN,
        )
    return BoundReport(
        n=n,
        k=0,
        delta=1,
        bound=zero_odd_bound(n),
        theorem=TheoremTag.ZERO_ODD,
    )


def extremal_config(n: int, d: int, x) -> WeightConfig:
    """The aligned configuration attaining the distance-aware bound at x.

    All n weights equal x / (k + delta), so the sum hits x exactly when
    the plain sign sum hits k + delta. When k + delta > n the bound is 0
    and no configuration attains it, which is reported as an error.
    """
    x = make_vec(x)
    if len(x) != d:
        raise ValueError(f"target has length {len(x)}, expected dim {d}")
    if is_zero(x):
        raise ValueError("extremal construction needs a non-zero target")
    report = nonuniform_bound(n, norm_sq(x))
    t = report.k + report.delta
    if t > n:
        raise ValueError(
            f"target needs {t} aligned summands but n = {n}; "
            "the bound there is 0 and nothing attains it"
        )
    w = vec_scale(Fraction(1, t), x)
    return WeightConfig(dim=d, weights=(w,) * n)


def zero_weights_extremal(x) -> WeightConfig:
    """The k*k aligned copies of x / k attaining the zero-weights supremum.

    All weights are non-zero; allowing zeros only lets other n reach the
    same value, never exceed it.
    """
    x = make_vec(x)
    if is_zero(x):
        raise ValueError("extremal construction needs a non-zero target")
    k = ceil_sqrt(norm_sq(x))
    w = vec_scale(Fraction(1, k), x)
    return WeightConfig(dim=len(x), weights=(w,) * (k * k))


@lru_cache(maxsize=None)
def _unit_ap_law(n: int, m: int) -> dict:
    """Point counts of the unit-weight progression sum over m^n draws."""
    return _law([(1,)] * n, 1, APUniformSpec(m)).counts


def ap_uniform_count(n: int, m: int, k: int) -> int:
    """m^n times the progression bound at a target whose norm has floor k.

    The bound point is k for odd m and k shifted to the reachable parity
    for even m. The count is 0 when that point falls outside the support
    parity or reach.
    """
    target = k if m % 2 == 1 else k + parity_correction(n, k)
    return _unit_ap_law(n, m).get((target,), 0)


def ap_uniform_bound(n: int, m: int, squared_norm: RationalLike) -> Fraction:
    """Conjectured bound for progression-uniform sums at a non-zero target.

    With k = floor of the target norm, the value is the unit-weight
    progression sum's probability at the bound point of `ap_uniform_count`.
    It can be 0; callers that hunt for violations flag those cells instead
    of claiming them.
    """
    if m < 3:
        raise ValueError(f"support size must be >= 3 here, got {m}")
    if n < 1:
        raise ValueError(f"summand count must be >= 1, got {n}")
    q = rat(squared_norm)
    if q <= 0:
        raise ValueError(f"squared norm must be > 0 at a non-zero target, got {q}")
    k = floor_sqrt_ratio(q.numerator, q.denominator)
    return Fraction(ap_uniform_count(n, m, k), m ** n)


def milner_bound(n: int, k: int) -> int:
    """Maximum size of a k-intersecting antichain on an n-element ground set."""
    if n < 0:
        raise ValueError(f"ground set size must be >= 0, got {n}")
    if k < 0 or k > n:
        raise ValueError(f"intersection level must satisfy 0 <= k <= n, got {k}")
    return math.comb(n, (n + k + 1) // 2)
