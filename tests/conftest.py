"""Shared oracles and strategies.

The brute-force functions here enumerate sign vectors (or full support
products) directly, with no shared code path into the package's
convolution engine, so they can serve as independent ground truth.
"""

from __future__ import annotations

import csv
import io
import math
import random
from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from lolab import EqualityRecord, TheoremTag, ViolationRecord, WeightConfig
from lolab import bounds
from lolab.rational import norm_sq, rat, rat_str


def scalar_config(values, **flags):
    """The config of these scalar weights, each a rational or its string."""
    return WeightConfig.of(1, [(v,) for v in values], **flags)


def floor_sqrt_ratio(num, den):
    """Largest integer k >= 0 with k*k <= num/den, for num >= 0 and den > 0.

    isqrt(num // den), by integer arithmetic only, which avoids the off-by-one
    a floating square root can produce at boundary values like num/den = k*k.
    """
    return math.isqrt(num // den)


def ceil_sqrt(q):
    """Smallest integer k >= 0 with k*k >= q; 0 only when q = 0.

    The ceiling is the floor or one more.
    """
    q = rat(q)
    if q < 0:
        raise ValueError(f"squared norm must be >= 0, got {q}")
    num, den = q.numerator, q.denominator
    k = floor_sqrt_ratio(num, den)
    return k if k * k * den >= num else k + 1


def rademacher_atom(n, j):
    """P(R_n = j) for the plain sum R_n of n independent signs.

    Zero off the support or at the wrong parity. n = 0 gives the point mass
    at 0.
    """
    if n < 0:
        raise ValueError(f"summand count must be >= 0, got {n}")
    if abs(j) > n or (n + j) % 2 != 0:
        return Fraction(0)
    return Fraction(math.comb(n, (n + j) // 2), 2 ** n)


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


def brute_pair_total(keys, support):
    """The (key, step) pairs the half-law kernel visits on these packed keys.

    Before each step the kernel holds the distinct |sums| of the keys so
    far, found here by enumerating every draw, and visits each once per
    positive support point.
    """
    positive = sum(1 for u in support if u > 0)
    total = 0
    for i in range(len(keys)):
        draws = product(support, repeat=i)
        half = {abs(sum(u * k for u, k in zip(draw, keys))) for draw in draws}
        total += len(half) * positive
    return total


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


def reference_norm(spec, v) -> Fraction:
    """The norm of v as one exact Fraction, squared for the Euclidean kinds."""
    if spec.kind == "L1":
        return sum((abs(c) for c in v), Fraction(0))
    if spec.kind == "Linf":
        return max(abs(c) for c in v)
    diag = spec.diag or (Fraction(1),) * len(v)
    return sum((c * x * x for c, x in zip(diag, v)), Fraction(0))


def fraction_proposal(rng, weights, d, n_max, spec, grid):
    """One anneal move on Fraction weights, drawing from rng as the search
    does: perturb a coordinate by a step of the grid, push a weight to the
    boundary of spec's unit ball (shrinking by (grid - 1) / grid while it
    lands outside), or add or drop a weight. The new weights, or None when
    the move fails."""

    def inside(w):
        return any(w) and reference_norm(spec, w) <= 1

    def random_weight():
        for _ in range(200):
            w = tuple(Fraction(rng.randint(-grid, grid), grid) for _ in range(d))
            if inside(w):
                return w
        w = (Fraction(1),) + (Fraction(0),) * (d - 1)
        while not inside(w):
            w = tuple(c / 2 for c in w)
        return w

    weights = list(weights)
    kind = rng.random()
    if kind < 0.70:
        i, j = rng.randrange(len(weights)), rng.randrange(d)
        w = list(weights[i])
        w[j] += Fraction(rng.choice((-2, -1, 1, 2)), grid)
        weights[i] = tuple(w)
        return weights if inside(weights[i]) else None
    if kind < 0.85:
        i = rng.randrange(len(weights))
        norm = float(reference_norm(spec, weights[i]))
        value = norm if spec.kind in ("L1", "Linf") else math.sqrt(norm)
        if value <= 0:
            return None
        w = tuple(Fraction(round(float(c) / value * grid), grid) for c in weights[i])
        for _ in range(4):
            if inside(w):
                weights[i] = w
                return weights
            w = tuple(c * Fraction(grid - 1, grid) for c in w)
        return None
    grow = rng.random() < 0.5
    if grow and len(weights) < n_max:
        return weights + [random_weight()]
    if not grow and len(weights) > 1:
        weights.pop(rng.randrange(len(weights)))
        return weights
    return None


def reference_configs(gen):
    """A generator's configs, each coordinate a Fraction drawn from
    rng.randint and each weight redrawn while its Fraction squared norm
    exceeds 1, or is 0 without allow_zero."""
    rng = random.Random(gen.seed)
    grid, configs = gen.grid_denominator, []
    for _ in range(gen.count):
        weights = []
        while len(weights) < gen.n:
            w = tuple(Fraction(rng.randint(-grid, grid), grid) for _ in range(gen.d))
            q = norm_sq(w)
            if q <= 1 and (q > 0 or gen.allow_zero):
                weights.append(w)
        configs.append(WeightConfig.of(gen.d, weights, allow_zero=gen.allow_zero))
    return configs


def reference_campaign(configs):
    """A theorem-2 campaign over configs, walking each brute-force law in full
    atom order: (CSV text, atoms checked, equalities, violations).

    Each atom's k is the ceiling of its Euclidean norm, and its bound is read
    from `bounds.bound_counts` when called, so a patched table lowers it here
    and in the campaign alike. Rows go through csv.writer.
    """
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["n", "d", "k", "lhs", "rhs", "equality"])
    atoms, equalities, violations = 0, [], []
    check = TheoremTag.NON_UNIFORM
    for index, cfg in enumerate(configs):
        origin = (Fraction(0),) * cfg.dim
        table = bounds.bound_counts(2, cfg.n)
        for x, lhs in sorted(brute_sign_distribution(cfg.weights).items()):
            if x == origin:
                continue
            k = ceil_sqrt(norm_sq(x))
            rhs = Fraction(table[k], 2 ** cfg.n)
            atoms += 1
            equality = "true" if lhs == rhs else "false"
            writer.writerow([cfg.n, cfg.dim, k, rat_str(lhs), rat_str(rhs), equality])
            if lhs == rhs:
                equalities.append(EqualityRecord(index, check, x, lhs))
            elif lhs > rhs:
                violations.append(ViolationRecord(cfg, x, lhs, rhs, check))
    return text.getvalue(), atoms, equalities, violations


def max_atom(law):
    """The law's most likely atom and its probability, from `max_count`."""
    pt, count = law.max_count()
    return tuple(Fraction(a, law.scale) for a in pt), Fraction(count, law.denom)


def brute_family(weights, x):
    """The masks A, ascending, whose weights minus the complement's sum to x."""
    return [
        mask
        for mask in range(1 << len(weights))
        if sum(w if mask >> i & 1 else -w for i, w in enumerate(weights)) == x
    ]


def brute_is_antichain(family):
    """No member strictly contains another, by comparing every pair."""
    by_size = {}
    for mask in family.members:
        by_size.setdefault(mask.bit_count(), []).append(mask)
    sizes = sorted(by_size)
    for i, small in enumerate(sizes):
        for big in sizes[i + 1 :]:
            for a in by_size[small]:
                for b in by_size[big]:
                    if a & b == a:
                        return False
    return True


def brute_is_k_intersecting(family, k):
    """Every pair of members, (A, A) included, shares >= k elements."""
    if k == 0:
        return True
    members = family.members
    if any(mask.bit_count() < k for mask in members):
        return False
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if (a & b).bit_count() < k:
                return False
    return True


def full_counts(law):
    """The whole law as {integer point: count}: each stored key k and its mirror -k.

    Keys are decoded one balanced digit at a time here, apart from the
    package's column decoder.
    """
    reach, radix = law.reach, 2 * law.reach + 1

    def point(key):
        digits = []
        for _ in range(law.dim):
            a = (key + reach) % radix - reach
            assert abs(a) <= reach
            digits.append(a)
            key = (key - a) // radix
        assert key == 0, "key outside the packing box"
        return tuple(reversed(digits))

    full = {}
    for key, count in law.counts.items():
        full[point(key)] = full[point(-key)] = count
    return full


def assert_symmetric_law(law, brute):
    """Assert the law keeps only its half at or above the origin, and that half
    expands to brute, an independent {point: probability} law, which must be
    a symmetric probability distribution."""
    for key, count in law.counts.items():
        assert key >= 0, f"key {key} below the origin"
        assert count > 0, f"non-positive count {count} at key {key}"
    assert sum(brute.values()) == 1
    for x, p in brute.items():
        assert brute.get(tuple(-c for c in x)) == p, f"brute law not symmetric at {x}"
    full = full_counts(law)
    assert {law.atom(pt): Fraction(c, law.denom) for pt, c in full.items()} == brute
    assert len(law.atoms) == len(brute)


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
    return WeightConfig.of(dim, weights)
