"""Exact rational scalars and vectors, and their JSON wire form.

Everything downstream (laws, bounds, families, certificates) rides on
`fractions.Fraction`: lowest terms, positive denominator, and exact
arithmetic come for free. Vectors are plain tuples of Fractions so they
hash and order correctly as atom keys. Floats and bools are rejected at
the boundary (`rat`), and `_read_fields` never takes a bool for an int in
a JSON object. The package's floats are the exponential comparison bound
(`bounds.hoeffding_bound`) and the anneal's scores, which rank states by
one correctly rounded int division each; no claim rests on either.

`wire` is the one rule for writing a value as JSON: a Fraction as "p/q",
a point as a list of them, and a `Record` (reports, certificates, configs)
as the object of its fields, each written by `wire`. `wire_points` writes
integer points over a scale, a config's lattice state, as `wire` writes
their Fractions.
"""

from __future__ import annotations

import json
from dataclasses import fields
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, Fraction]
Vec = tuple[Fraction, ...]

_NULL = type(None)


def _read_fields(obj, where: str, *, partial=False, **types: tuple[type, ...]) -> dict:
    """The named fields of a JSON object, each of one of its allowed types.

    A bool is not an int. A missing field raises KeyError(name), unless
    _NULL is among its types, in which case it reads as None, or `partial`
    is set, in which case it is left out.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    values = {}
    for name, allowed in types.items():
        if partial and name not in obj:
            continue
        value = obj.get(name) if _NULL in allowed else obj[name]
        if type(value) not in allowed:
            kinds = " or ".join("null" if t is _NULL else t.__name__ for t in allowed)
            raise ValueError(
                f"{where} field {name!r} must be {kinds}, got {json.dumps(value)}"
            )
        values[name] = value
    return values


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    A bool is refused, though Python counts it as an int: a JSON true or
    false where a number belongs is bad input, not 1 or 0.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"a bool is not an exact rational: {value!r}")
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


def wire(value):
    """The JSON value of `value`.

    "p/q" for a Fraction, a list of wired items for a tuple or list, the
    value of an Enum, the value's own to_json() if it has one, and anything
    else unchanged.
    """
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, (tuple, list)):
        return [wire(item) for item in value]
    if isinstance(value, Enum):
        return value.value
    to_json = getattr(value, "to_json", None)
    return value if to_json is None else to_json()


def wire_points(scale: int, points: Sequence[tuple[int, ...]]) -> list[list[str]]:
    """wire of the vectors pt / scale, from their integers: one "p/q" per
    distinct coordinate, and no Fraction made."""
    strs = {a: ratio_str(a, scale) for a in set().union(*points)}
    return [[strs[a] for a in pt] for pt in points]


class Record:
    """A dataclass whose JSON object is its fields, each written by `wire`."""

    def to_json(self) -> dict:
        return {f.name: wire(getattr(self, f.name)) for f in fields(self)}


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


def norm_sq(v: Vec) -> Fraction:
    """Squared Euclidean norm, exact, no square roots anywhere."""
    return sum((c * c for c in v), Fraction(0))


def is_zero(v: Vec) -> bool:
    return all(c == 0 for c in v)
