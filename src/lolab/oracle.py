"""Randomized verification campaigns against exact laws.

A campaign draws seeded grid configurations, computes each one's exact law,
and compares every relevant atom against the applicable closed-form bound.
Reports capture violations (there should never be any), exact-equality rows
(extremal witnesses worth keeping as regression fixtures), and counters,
and serialize deterministically: same generator in, same bytes out.

Campaigns run config by config. Each row compares a law count with the
bound count over the law's one denominator, both integers; CSV cells are
formatted from those integers, and `Fraction`s are made only for the
equality and violation records.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .bounds import (
    TheoremTag,
    erdos_kleitman_bound,
    nonuniform_count,
    zero_odd_bound,
    zero_weights_extremal,
    zero_weights_sup,
)
from .engine import (
    ATOM_QUERY_CAP,
    FULL_LAW_CAP,
    AtomDistribution,
    CapExceeded,
    WeightConfig,
    atom_probability,
    full_distribution,
)
from .rational import (
    Vec,
    ceil_sqrt_ratio,
    is_zero,
    make_vec,
    norm_sq,
    rat_str,
    ratio_str,
    vec_strs,
)

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
class ConfigGenerator:
    """Seeded stream of grid weight configurations.

    Each coordinate is drawn uniformly from {-D..D}/D with D the grid
    denominator; a draw is rejected and retried while its squared norm
    exceeds 1 or it is zero without allow_zero. Same fields, same configs.
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
        grid = self.grid_denominator
        weights = []
        for _ in range(self.n):
            while True:
                w = tuple(
                    Fraction(rng.randint(-grid, grid), grid) for _ in range(self.d)
                )
                q = norm_sq(w)
                if q > 1:
                    continue
                if q == 0 and not self.allow_zero:
                    continue
                weights.append(w)
                break
        return WeightConfig(
            dim=self.d, weights=tuple(weights), allow_zero=self.allow_zero
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "seed": self.seed,
            "grid_denominator": self.grid_denominator,
            "allow_zero": self.allow_zero,
            "count": self.count,
        }


@dataclass(frozen=True)
class ViolationRecord:
    """A bound exceeded, with everything needed to reproduce the check."""

    config: WeightConfig
    x: Vec
    lhs: Fraction
    rhs: Fraction
    theorem: TheoremTag

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "x": vec_strs(self.x),
            "lhs": rat_str(self.lhs),
            "rhs": rat_str(self.rhs),
            "theorem": self.theorem.value,
        }


@dataclass(frozen=True)
class EqualityRecord:
    """A bound attained exactly; kept as a regression fixture."""

    config_index: int
    theorem: TheoremTag
    x: Vec
    value: Fraction

    def to_json(self) -> dict:
        return {
            "config_index": self.config_index,
            "theorem": self.theorem.value,
            "x": vec_strs(self.x),
            "value": rat_str(self.value),
        }


def _require_nonzero_weights(cfg: WeightConfig, what: str) -> None:
    if any(is_zero(w) for w in cfg.weights):
        raise ValueError(f"{what} requires non-zero weights")


# A campaign row (check, pt, k, count, bound): the atom pt / law.scale has
# probability count / law.denom and its bound is bound / law.denom
Row = tuple[TheoremTag, tuple[int, ...], int, int, int]


def _bound_count(bound: Fraction, denom: int) -> int:
    """bound * denom, whole for every bound over 2^n and a sign law's 2^n."""
    count = bound * denom
    if count.denominator != 1:
        raise AssertionError(f"bound {bound} is not a multiple of 1/{denom}")
    return count.numerator


def _config_rows(law: AtomDistribution, checks: Sequence[TheoremTag]) -> Iterator[Row]:
    """The campaign rows of one config's sign law, all in integers over law.denom."""
    n, denom = law.n, law.denom
    for check in checks:
        if check is TheoremTag.NON_UNIFORM:
            # on the lattice, |x| = |pt| / scale, so k = ceil(sqrt(|pt|^2 / scale^2))
            scale_sq = law.scale * law.scale
            bound_by_k: dict[int, int] = {}
            for pt, count in sorted(law.counts.items()):
                norm_sq_scaled = sum(map(mul, pt, pt))
                if norm_sq_scaled == 0:
                    continue
                k = ceil_sqrt_ratio(norm_sq_scaled, scale_sq)
                bound = bound_by_k.get(k)
                if bound is None:
                    bound = bound_by_k[k] = nonuniform_count(n, k)
                yield check, pt, k, count, bound
        elif check is TheoremTag.ERDOS_KLEITMAN:
            pt, count = law.max_count()
            yield check, pt, 0, count, _bound_count(erdos_kleitman_bound(n), denom)
        elif check is TheoremTag.ZERO_ODD:
            origin = (0,) * law.dim
            count = law.counts.get(origin, 0)
            yield check, origin, 0, count, _bound_count(zero_odd_bound(n), denom)
        else:
            raise ValueError(f"{check.value} is not a per-config campaign check")


def verify_zero_weights_sup(
    x, n_max: int, gen: ConfigGenerator, *, cap: int = ATOM_QUERY_CAP
) -> list[ViolationRecord]:
    """Sample zero-allowed configs of every size up to n_max against the sup.

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
    sup = zero_weights_sup(norm_sq(x))
    extremal = zero_weights_extremal(x)
    attained = atom_probability(extremal, x, cap=max(cap, extremal.n))
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
    return found


@dataclass
class CampaignReport:
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

    def to_json(self) -> dict:
        return {
            "generator": self.generator.to_json(),
            "checks": [tag.value for tag in self.checks],
            "extra_configs": self.extra_configs,
            "configs_checked": self.configs_checked,
            "atoms_checked": self.atoms_checked,
            "equalities": [record.to_json() for record in self.equalities],
            "violations": [record.to_json() for record in self.violations],
        }


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
    writer = None
    handle = None
    if csv_path is not None:
        handle = open(csv_path, "w", newline="")
        writer = csv.writer(handle)
        writer.writerow(["n", "d", "k", "lhs", "rhs", "equality"])
    try:
        for index, cfg in enumerate(configs):
            law = full_distribution(cfg, cap=cap)
            n, dim, scale, denom = law.n, law.dim, law.scale, law.denom
            cells: dict[int, str] = {}  # count -> its "p/q" over denom
            for check, pt, k, count, bound in _config_rows(law, checks):
                atoms += 1
                if writer is not None:
                    for c in (count, bound):
                        if c not in cells:
                            cells[c] = ratio_str(c, denom)
                    equality = "true" if count == bound else "false"
                    writer.writerow((n, dim, k, cells[count], cells[bound], equality))
                if count < bound:
                    continue
                x = tuple(Fraction(a, scale) for a in pt)
                lhs = Fraction(count, denom)
                if count == bound:
                    equalities.append(EqualityRecord(index, check, x, lhs))
                else:
                    rhs = Fraction(bound, denom)
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
