"""Shared oracles and strategies.

The brute-force functions here enumerate sign vectors (or full support
products) directly, with no shared code path into the package's
convolution engine, so they can serve as independent ground truth.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from lolab import WeightConfig
from lolab.rational import ceil_sqrt

settings.register_profile(
    "lolab",
    deadline=None,
    derandomize=True,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("lolab")


def brute_sign_distribution(weights):
    """Law of sum eps_i w_i by enumerating all 2^n sign vectors."""
    n = len(weights)
    dim = len(weights[0])
    atoms = {}
    for signs in product((-1, 1), repeat=n):
        pt = tuple(
            sum(s * w[j] for s, w in zip(signs, weights)) for j in range(dim)
        )
        atoms[pt] = atoms.get(pt, 0) + 1
    return {pt: Fraction(c, 2 ** n) for pt, c in atoms.items()}


def brute_sign_atom(weights, x):
    x = tuple(Fraction(c) for c in x)
    return brute_sign_distribution(weights).get(x, Fraction(0))


def brute_ap_distribution(weights, m):
    """Law of sum u_i w_i with u_i over the m symmetric progression points."""
    n = len(weights)
    dim = len(weights[0])
    support = range(-m + 1, m, 2)
    atoms = {}
    for draws in product(support, repeat=n):
        pt = tuple(
            sum(u * w[j] for u, w in zip(draws, weights)) for j in range(dim)
        )
        atoms[pt] = atoms.get(pt, 0) + 1
    return {pt: Fraction(c, m ** n) for pt, c in atoms.items()}


def max_atom(law):
    """The law's most likely atom and its probability, from `max_count`."""
    pt, count = law.max_count()
    return tuple(Fraction(a, law.scale) for a in pt), Fraction(count, law.denom)


def assert_symmetric_law(law):
    """Assert the law is a symmetric probability distribution."""
    total = sum(law.counts.values())
    assert total == law.denom, f"law sums to {Fraction(total, law.denom)}, not 1"
    for pt, count in law.counts.items():
        assert count > 0, f"non-positive count {count} at {pt}"
        mirror = tuple(-a for a in pt)
        assert law.counts.get(mirror) == count, f"law not symmetric at {pt}"


ROTATION = (
    (Fraction(3, 5), Fraction(-4, 5)),
    (Fraction(4, 5), Fraction(3, 5)),
)


def rotate(v):
    """Exact rational rotation of a planar vector."""
    return tuple(sum(row[j] * v[j] for j in range(2)) for row in ROTATION)


def fractions_in_ball(max_denominator=6):
    return st.fractions(
        min_value=-1, max_value=1, max_denominator=max_denominator
    )


@st.composite
def weight_vectors(draw, dim, max_denominator=6, allow_zero=False):
    # Scale into the ball instead of rejecting, so shrinking stays healthy.
    v = tuple(draw(fractions_in_ball(max_denominator)) for _ in range(dim))
    q = sum(c * c for c in v)
    if q == 0:
        if allow_zero:
            return v
        v = (Fraction(1, 2),) + v[1:]
        q = Fraction(1, 4)
    if q > 1:
        s = ceil_sqrt(q)
        v = tuple(c / s for c in v)
    return v


@st.composite
def weight_configs(draw, max_n=6, dims=(1, 2, 3), max_denominator=6):
    dim = draw(st.sampled_from(dims))
    n = draw(st.integers(min_value=1, max_value=max_n))
    weights = tuple(
        draw(weight_vectors(dim, max_denominator=max_denominator)) for _ in range(n)
    )
    return WeightConfig(dim=dim, weights=weights)
