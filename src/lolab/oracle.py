"""Randomized verification campaigns against exact laws.

A campaign draws seeded grid configurations, computes each one's exact law,
and compares every relevant atom against the applicable closed-form bound.
Reports capture violations (there should never be any), exact-equality rows
(extremal witnesses worth keeping as regression fixtures), and counters,
and serialize deterministically: same generator in, same bytes out.

Campaigns run config by config. Each row compares a law count with the
bound count over the law's one denominator, both integers; CSV cells are
formatted from those integers, and `Fraction`s are made only for the
equality and violation records. A law and its theorem-2 bounds are
symmetric under x -> -x, so that check reads only the atoms above the
origin and mirrors its rows and records. Configs are drawn, tested and kept
in integers, as grid points over the grid denominator, and a weight's draw is
capped by `DRAW_CAP` coordinate draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .bounds import (
    ALIGNED_CAP,
    EUCLIDEAN,
    TheoremTag,
    atom_bounds,
    bound_counts,
    zero_odd_count,
    zero_weights_extremal,
)
from .engine import (
    ATOM_QUERY_CAP,
    DRAW_CAP,
    FULL_LAW_CAP,
    AtomDistribution,
    CapExceeded,
    WeightConfig,
    _cuts,
    atom_probability,
    full_distribution,
)
from .rational import Record, Vec, is_zero, make_vec, ratio_str

# Campaign checks that run per-config against the full law. The
# zero-weights supremum has its own sampling entry point because it
# quantifies over n rather than over configs at fixed n.
CAMPAIGN_CHECKS = (
    TheoremTag.ERDOS_KLEITMAN,
    TheoremTag.NON_UNIFORM,
    TheoremTag.ZERO_ODD,
)


def derived_seed(seed: int, index: int) -> int:
    """Deterministic child seed, arithmetic only, stable across versions."""
    return (seed * 1_000_003 + index) % (1 << 63)


@dataclass(frozen=True)
class ConfigGenerator(Record):
    """Seeded stream of grid weight configurations.

    Each coordinate is drawn uniformly from {-D..D}/D with D the grid
    denominator; a draw is rejected and retried while its squared norm
    exceeds 1 or it is zero without allow_zero. Same fields, same configs.
    A weight that takes more than DRAW_CAP coordinate draws raises
    `CapExceeded`, which at grid 16 happens from about d = 14 on.
    """

    n: int
    d: int
    seed: int
    grid_denominator: int = 16
    allow_zero: bool = False
    count: int = 100

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"summand count must be >= 1, got {self.n}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.grid_denominator < 1:
            raise ValueError(
                f"grid denominator must be >= 1, got {self.grid_denominator}"
            )
        if self.count < 0:
            raise ValueError(f"config count must be >= 0, got {self.count}")

    def configs(self) -> list[WeightConfig]:
        rng = random.Random(self.seed)
        return [self._draw(rng) for _ in range(self.count)]

    def _draw(self, rng: random.Random) -> WeightConfig:
        grid, d, allow_zero = self.grid_denominator, self.d, self.allow_zero
        randint, axes, top = rng.randint, range(d), grid * grid
        points = []
        for _ in range(self.n):
            for _ in range(DRAW_CAP // d):
                a = [randint(-grid, grid) for _ in axes]
                if sum(c * c for c in a) <= top and (allow_zero or any(a)):
                    points.append(a)
                    break
            else:
                raise CapExceeded("weight draw", DRAW_CAP, (DRAW_CAP // d + 1) * d)
        return WeightConfig(d, grid, points, allow_zero=allow_zero)


@dataclass(frozen=True)
class ViolationRecord(Record):
    """A bound exceeded, with everything needed to reproduce the check."""

    config: WeightConfig
    x: Vec
    lhs: Fraction
    rhs: Fraction
    theorem: TheoremTag


@dataclass(frozen=True)
class EqualityRecord(Record):
    """A bound attained exactly; kept as a regression fixture."""

    config_index: int
    theorem: TheoremTag
    x: Vec
    value: Fraction


def _require_nonzero_weights(cfg: WeightConfig, what: str) -> None:
    if not all(map(any, cfg.points)):
        raise ValueError(f"{what} requires non-zero weights")


def _check_rows(
    law: AtomDistribution, check: TheoremTag
) -> tuple[list[tuple[int, ...]], list[int], list[int], list[int]]:
    """One check's rows on a config's sign law, as columns (points, ks, counts, bounds).

    All are integers over 2^n: the atom pt / law.scale has probability
    count / law.denom and its bound is bound / law.denom. Theorem 2 lists
    the atoms above the origin only: -pt has the count and the norm of pt,
    so each such row stands for its mirror below as well, with the same k
    and bound.
    """
    n = law.n
    if check is TheoremTag.NON_UNIFORM:
        keys = law.upper_half()
        points = law.points(keys)
        ks, bounds = atom_bounds(EUCLIDEAN, 2, n, points, law.scale)
        return points, ks, list(map(law.counts.__getitem__, keys)), bounds
    if check is TheoremTag.ERDOS_KLEITMAN:
        # the theorem-2 count at k = 0 is binom(n, floor(n/2))
        pt, count = law.max_count()
        return [pt], [0], [count], [bound_counts(2, n)[0]]
    return [(0,) * law.dim], [0], [law.counts.get(0, 0)], [zero_odd_count(n)]


def verify_zero_weights_sup(
    x, n_max: int, gen: ConfigGenerator, *, cap: int = ATOM_QUERY_CAP
) -> tuple[Fraction, list[ViolationRecord]]:
    """Sample zero-allowed configs of every size up to n_max against the sup:
    the supremum, and the violations.

    Also certifies that the aligned extremal configuration attains the
    supremum exactly; that is an engine identity, so a failure raises
    instead of being reported as data.
    """
    x = make_vec(x)
    if is_zero(x):
        raise ValueError("the zero-weights supremum needs a non-zero target")
    if not gen.allow_zero:
        raise ValueError("generator must allow zero weights for this check")
    if gen.d != len(x):
        raise ValueError(f"generator dim {gen.d} does not match target dim {len(x)}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > cap:
        raise CapExceeded("atom-query summand", cap, n_max)
    extremal, sup = zero_weights_extremal(x)  # refuses k * k past ALIGNED_CAP first
    attained = atom_probability(extremal, x, cap=ALIGNED_CAP)
    if attained != sup:
        raise AssertionError(
            f"extremal attainment failed: {attained} != {sup} at {x}"
        )

    found = []
    for n in range(1, n_max + 1):
        sub = replace(gen, n=n, seed=derived_seed(gen.seed, n))
        for cfg in sub.configs():
            lhs = atom_probability(cfg, x, cap=cap)
            if lhs > sup:
                found.append(
                    ViolationRecord(cfg, x, lhs, sup, TheoremTag.ZERO_WEIGHTS_SUP)
                )
    return sup, found


@dataclass
class CampaignReport(Record):
    """Everything a campaign produced, serializable to stable bytes."""

    generator: ConfigGenerator
    checks: tuple[TheoremTag, ...]
    extra_configs: int
    configs_checked: int
    atoms_checked: int
    equalities: tuple[EqualityRecord, ...]
    violations: tuple[ViolationRecord, ...]

    def summary(self) -> str:
        checks = "+".join(tag.value for tag in self.checks)
        return (
            f"{checks}: {self.configs_checked} configs, "
            f"{self.atoms_checked} atoms checked, "
            f"{len(self.equalities)} equalities, "
            f"{len(self.violations)} violations"
        )


def run_campaign(
    gen: ConfigGenerator,
    checks: Iterable[TheoremTag],
    *,
    cap: int = FULL_LAW_CAP,
    extra_configs: Sequence[WeightConfig] = (),
    csv_path: Optional[str] = None,
) -> CampaignReport:
    """Run the per-config checks over a generator's configs.

    `extra_configs` are checked first (indices 0..len-1) so extremal
    witnesses can be pinned into a campaign. When `csv_path` is given,
    every comparison row lands there as (n, d, k, lhs, rhs, equality)
    for plotting; the report itself keeps only equalities and violations.

    Theorem 2 is checked on each law's sorted upper half only, with one
    `atom_bounds` call per law: an atom's mirror has its count, k and
    bound. Its CSV rows are rendered once, as text, and written in reverse
    for the atoms below the origin, then forward; its hits are mirrored into
    records in atom order. `atoms_checked` counts both halves, without the
    origin.
    """
    checks = tuple(checks)
    if not checks:
        raise ValueError("at least one check required")
    for check in checks:
        if check not in CAMPAIGN_CHECKS:
            raise ValueError(f"{check.value} is not a per-config campaign check")
    if TheoremTag.ZERO_ODD in checks and gen.n % 2 == 0:
        raise ValueError(f"odd-summand check needs odd n, generator has n = {gen.n}")
    configs = list(extra_configs) + gen.configs()
    for cfg in configs:
        _require_nonzero_weights(cfg, "a campaign")
        if cfg.n > cap:  # fire before any law is built or the CSV file opened
            raise CapExceeded("full-law summand", cap, cfg.n)
        if TheoremTag.ZERO_ODD in checks and cfg.n % 2 == 0:
            raise ValueError("odd-summand check needs odd n in every config")
    atoms = 0
    equalities: list[EqualityRecord] = []
    violations: list[ViolationRecord] = []
    handle = None
    if csv_path is not None:
        handle = open(csv_path, "w", newline="")
        handle.write("n,d,k,lhs,rhs,equality\r\n")
    try:
        for index, cfg in enumerate(configs):
            law = full_distribution(cfg, cap=cap)
            denom = law.denom
            for check in checks:
                points, ks, counts, bounds = _check_rows(law, check)
                # a theorem-2 row stands for its atom and for that atom's
                # mirror, which comes first in atom order
                mirrored = check is TheoremTag.NON_UNIFORM
                atoms += 2 * len(points) if mirrored else len(points)
                if handle is not None:
                    # a row carries no point, so a mirror's row is its own,
                    # and for fixed n the bound is a function of k: each
                    # distinct (k, count) row's text is made once
                    pairs, bound = list(zip(ks, counts)), dict(zip(ks, bounds))
                    head = f"{law.n},{law.dim},"
                    texts = {
                        (k, c): f"{head}{k},{ratio_str(c, denom)},{ratio_str(bound[k], denom)},"
                        f"{'true' if c == bound[k] else 'false'}\r\n"
                        for k, c in set(pairs)
                    }
                    rows = list(map(texts.__getitem__, pairs))
                    order = range(len(rows))
                    for part in (order[::-1], order) if mirrored else (order,):
                        for cut in _cuts(part):
                            handle.write("".join(rows[cut]))
                hits = [i for i, (c, b) in enumerate(zip(counts, bounds)) if c >= b]
                found = [(points[i], i) for i in hits]
                if mirrored:
                    below = [(tuple(-a for a in points[i]), i) for i in reversed(hits)]
                    found = below + found
                for pt, i in found:
                    x, lhs = law.atom(pt), Fraction(counts[i], denom)
                    if counts[i] == bounds[i]:
                        equalities.append(EqualityRecord(index, check, x, lhs))
                    else:
                        rhs = Fraction(bounds[i], denom)
                        violations.append(ViolationRecord(cfg, x, lhs, rhs, check))
    finally:
        if handle is not None:
            handle.close()
    return CampaignReport(
        generator=gen,
        checks=checks,
        extra_configs=len(extra_configs),
        configs_checked=len(configs),
        atoms_checked=atoms,
        equalities=tuple(equalities),
        violations=tuple(violations),
    )
