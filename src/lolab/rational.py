"""Exact rational scalars and vectors.

Everything downstream (laws, bounds, families, certificates) rides on
`fractions.Fraction`: lowest terms, positive denominator, and exact
arithmetic come for free. Vectors are plain tuples of Fractions so they
hash and order correctly as atom keys. Floats are rejected at the
boundary; the only floating point in the package lives in the search
module's exploratory scorer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Union

RationalLike = Union[int, str, Fraction]
Vec = tuple[Fraction, ...]


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def ratio_str(num: int, den: int) -> str:
    """Canonical wire form "p/q" of num/den (den > 0) in lowest terms."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def rat_str(q: Fraction) -> str:
    """Canonical wire form "p/q" in lowest terms, sign on the numerator."""
    return ratio_str(q.numerator, q.denominator)


def make_vec(coords: Iterable[RationalLike]) -> Vec:
    return tuple(rat(c) for c in coords)


def vec_strs(v: Vec) -> list[str]:
    return [rat_str(c) for c in v]


def parse_point(text: str) -> Vec:
    """Parse "(p/q, r/s, ...)", "p/q,r/s", or a bare scalar "p/q"."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p for p in body.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"empty point: {text!r}")
    return make_vec(parts)


def vec_scale(factor: Fraction, v: Vec) -> Vec:
    return tuple(factor * c for c in v)


def norm_sq(v: Vec) -> Fraction:
    """Squared Euclidean norm, exact, no square roots anywhere."""
    return sum((c * c for c in v), Fraction(0))


def l1_norm(v: Vec) -> Fraction:
    return sum((abs(c) for c in v), Fraction(0))


def linf_norm(v: Vec) -> Fraction:
    return max(abs(c) for c in v)


def is_zero(v: Vec) -> bool:
    return all(c == 0 for c in v)


def floor_sqrt_ratio(num: int, den: int) -> int:
    """Largest integer k >= 0 with k*k <= num/den, for num >= 0 and den > 0.

    floor(sqrt(num/den)) = isqrt(num // den), by integer arithmetic only,
    which avoids the off-by-one a floating square root can produce at
    boundary values like num/den = k*k.
    """
    return isqrt(num // den)


def ceil_sqrt_ratio(num: int, den: int) -> int:
    """Smallest integer k >= 0 with k*k >= num/den, for num >= 0 and den > 0.

    The ceiling is the floor or one more.
    """
    k = floor_sqrt_ratio(num, den)
    return k if k * k * den >= num else k + 1


def ceil_sqrt(q: RationalLike) -> int:
    """Smallest integer k >= 0 with k*k >= q; 0 only when q = 0."""
    q = rat(q)
    if q < 0:
        raise ValueError(f"squared norm must be >= 0, got {q}")
    return ceil_sqrt_ratio(q.numerator, q.denominator)
