"""Exact laws of weighted sums of random signs and of progression uniforms.

One lattice-sum kernel enumerates every law:

* progression-uniform sums: S = sum_i U_i v_i with U_i independent uniform
  on the m symmetric support points {-m+1, -m+3, ..., m-1};
* sign sums: S = sum_i eps_i v_i with eps_i independent uniform on
  {-1, +1}, which is the progression sum with m = 2.

Weights are scaled by their least common denominator so convolution runs
on integer tuples, and a law keeps that integer form: a count per lattice
point over one denominator (m^n, so 2^n for signs). Laws sort and compare
on those integers; `Fraction`s (and their "p/q" strings) are made only where
a law is read, so there is no rounding at any step. Every law is symmetric
about the origin, so a law is written out (`to_json`, CSV rows) from its
sorted upper half, one atom at a time.
Enumeration sizes are guarded by explicit caps that raise `CapExceeded`
rather than silently degrading.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import add
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from .rational import RationalLike, Vec, make_vec, norm_sq, ratio_str, vec_strs

# Default enumeration limits. Full laws cost O(2^n) work in the worst case,
# single-atom queries via half-sum tables cost O(2^(n/2)), and every law and
# half-sum table is capped by its intermediate atom count.
FULL_LAW_CAP = 24
ATOM_QUERY_CAP = 40
LAW_ATOM_CAP = 1 << 24


class CapExceeded(Exception):
    """A request went past one of the enumeration caps.

    Carries which cap bit so callers (and the CLI exit path) can name it.
    """

    def __init__(self, cap_name: str, limit: int, requested: int):
        super().__init__(
            f"{cap_name} cap is {limit}, request needs {requested}"
        )
        self.cap_name = cap_name
        self.limit = limit
        self.requested = requested


@dataclass(frozen=True)
class WeightConfig:
    """An ordered tuple of rational weight vectors for one sum.

    Invariants checked at construction: every weight has length `dim`;
    weights are non-zero unless `allow_zero`; and unless `l2_unit_ball`
    is disabled, every weight satisfies norm_sq(w) <= 1 exactly. The
    escape hatch exists for searches constrained in a non-Euclidean
    norm, whose ball is not contained in the Euclidean one; those
    callers validate weights in their own norm.
    """

    dim: int
    weights: tuple[Vec, ...]
    allow_zero: bool = False
    l2_unit_ball: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        weights = tuple(make_vec(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise ValueError("a config needs at least one weight")
        for w in weights:
            if len(w) != self.dim:
                raise ValueError(
                    f"weight {w} has length {len(w)}, expected dim {self.dim}"
                )
            q = norm_sq(w)
            if self.l2_unit_ball and q > 1:
                raise ValueError(f"weight {w} has squared norm {q} > 1")
            if not self.allow_zero and q == 0:
                raise ValueError("zero weight in a config with allow_zero=False")

    @property
    def n(self) -> int:
        return len(self.weights)

    @classmethod
    def from_scalars(
        cls, values: Iterable[RationalLike], **kwargs
    ) -> "WeightConfig":
        return cls(dim=1, weights=tuple((v,) for v in values), **kwargs)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "allow_zero": self.allow_zero,
            "l2_unit_ball": self.l2_unit_ball,
            "weights": [vec_strs(w) for w in self.weights],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WeightConfig":
        return cls(
            dim=obj["dim"],
            weights=tuple(make_vec(w) for w in obj["weights"]),
            allow_zero=obj.get("allow_zero", False),
            l2_unit_ball=obj.get("l2_unit_ball", True),
        )


@dataclass(frozen=True)
class APUniformSpec:
    """Uniform law on the m symmetric progression points with gap 2."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"support size must be >= 2, got {self.m}")

    def support(self) -> tuple[int, ...]:
        return tuple(range(-self.m + 1, self.m, 2))


@dataclass
class AtomDistribution:
    """A finite exact law on the lattice of points pt / scale.

    `counts` maps each integer point pt to a positive count; the atom
    pt / scale has probability counts[pt] / denom. Since scale is one
    positive integer, integer points order as their atoms do. Each summand's
    support is symmetric, so counts[pt] == counts[-pt].
    """

    counts: dict[tuple[int, ...], int]
    scale: int
    denom: int
    n: int
    dim: int

    @property
    def atoms(self) -> "_AtomView":
        """Read-only {atom: Fraction} view; its length costs nothing."""
        return _AtomView(self)

    def _atom(self, pt: tuple[int, ...]) -> Vec:
        return tuple(Fraction(a, self.scale) for a in pt)

    def _lattice_point(self, x) -> Optional[tuple[int, ...]]:
        """x * scale, or None when x is off the lattice."""
        x = make_vec(x)
        if len(x) != self.dim:
            raise ValueError(f"target has length {len(x)}, expected dim {self.dim}")
        pt = []
        for c in x:
            a, rem = divmod(c.numerator * self.scale, c.denominator)
            if rem:
                return None
            pt.append(a)
        return tuple(pt)

    def probability(self, x) -> Fraction:
        pt = self._lattice_point(x)
        return Fraction(0 if pt is None else self.counts.get(pt, 0), self.denom)

    def sorted_atoms(self) -> list[tuple[Vec, Fraction]]:
        return [
            (self._atom(pt), Fraction(count, self.denom))
            for pt, count in sorted(self.counts.items())
        ]

    def formatted_atoms(self) -> Iterator[tuple[list[str], str]]:
        """("p/q" coordinates, "p/q" probability) of every atom, in atom order.

        Every law here is symmetric about the origin, and negation reverses
        lexicographic order. So only the atoms above the origin are sorted
        and formatted; the atoms below are those in reverse, with each
        coordinate string negated.
        """
        scale, denom, counts = self.scale, self.denom, self.counts
        origin = (0,) * self.dim
        # one "p/q" string per distinct count, shared by the atoms that have it
        probs = {count: ratio_str(count, denom) for count in set(counts.values())}
        upper = [
            ([ratio_str(a, scale) for a in pt], probs[counts[pt]])
            for pt in sorted(pt for pt in counts if pt > origin)
        ]
        for x, p in reversed(upper):
            yield [_negated(c) for c in x], p
        if origin in counts:
            yield ["0/1"] * self.dim, probs[counts[origin]]
        yield from upper

    def max_count(self) -> tuple[tuple[int, ...], int]:
        """The most likely point and its count; ties go to the least point."""
        best = max(self.counts.values())
        return min(pt for pt, count in self.counts.items() if count == best), best

    def to_json(self, handle: TextIO) -> None:
        """Write the law as json.dumps(..., indent=2, sort_keys=True) + "\\n".

        Atoms are written one at a time as they are formatted; their "p/q"
        strings need no JSON escaping.
        """
        handle.write('{\n  "atoms": [')
        sep = "\n"
        for x, p in self.formatted_atoms():
            handle.write(
                f'{sep}    {{\n      "probability": "{p}",\n      "x": [\n        "'
                + '",\n        "'.join(x)
                + '"\n      ]\n    }'
            )
            sep = ",\n"
        handle.write(f'\n  ],\n  "dim": {self.dim},\n  "n": {self.n}\n}}\n')


def _negated(coord: str) -> str:
    """The "p/q" string of minus a "p/q" coordinate; "0/1" stays "0/1"."""
    if coord[0] == "-":
        return coord[1:]
    return coord if coord == "0/1" else "-" + coord


class _AtomView(Mapping):
    """A law's atoms as a read-only Mapping, made into Fractions on access."""

    def __init__(self, law: AtomDistribution):
        self._law = law

    def __len__(self) -> int:
        return len(self._law.counts)

    def __iter__(self) -> Iterator[Vec]:
        return map(self._law._atom, self._law.counts)

    def __getitem__(self, x) -> Fraction:
        law = self._law
        if len(x) != law.dim:  # absent, where probability() would refuse it
            raise KeyError(x)
        pt = law._lattice_point(x)
        if pt is None or pt not in law.counts:
            raise KeyError(x)
        return Fraction(law.counts[pt], law.denom)


def _denominator_lcm(vectors: Sequence[Vec], extra: Vec = ()) -> int:
    scale = 1
    for v in vectors:
        for c in v:
            scale = lcm(scale, c.denominator)
    for c in extra:
        scale = lcm(scale, c.denominator)
    return scale


def _scaled(vectors: Sequence[Vec], scale: int) -> list[tuple[int, ...]]:
    return [tuple((c * scale).numerator for c in v) for v in vectors]


def _lattice_sums(
    scaled: Sequence[tuple[int, ...]],
    dim: int,
    support: Sequence[int],
    atom_cap: int,
) -> dict:
    """Counts of sum_i u_i w_i over all draws of each u_i from support.

    Convolves atom by atom in a hash map on integer points, so the cost
    tracks the number of distinct intermediate atoms rather than
    len(support)^n; that count is capped.
    """
    acc = {(0,) * dim: 1}
    for w in scaled:
        steps = [tuple(u * b for b in w) for u in support]
        nxt: dict = {}
        for pt, mult in acc.items():
            for step in steps:
                key = tuple(map(add, pt, step))
                nxt[key] = nxt.get(key, 0) + mult
        if len(nxt) > atom_cap:
            raise CapExceeded("law atom", atom_cap, len(nxt))
        acc = nxt
    return acc


def _law(
    weights: Sequence[Vec],
    dim: int,
    spec: APUniformSpec,
    atom_cap: int = LAW_ATOM_CAP,
) -> AtomDistribution:
    """Exact law of sum_i U_i w_i with U_i uniform on spec.support()."""
    n, scale = len(weights), _denominator_lcm(weights)
    counts = _lattice_sums(_scaled(weights, scale), dim, spec.support(), atom_cap)
    return AtomDistribution(counts, scale, spec.m ** n, n, dim)


def full_distribution(cfg: WeightConfig, *, cap: int = FULL_LAW_CAP) -> AtomDistribution:
    """Exact law of the sign sum over all 2^n sign vectors."""
    if cfg.n > cap:
        raise CapExceeded("full-law summand", cap, cfg.n)
    return _law(cfg.weights, cfg.dim, APUniformSpec(2))


def atom_probability(cfg: WeightConfig, x, *, cap: int = ATOM_QUERY_CAP) -> Fraction:
    """P(sign sum = x) by meeting half-sum tables in the middle.

    Splits the weights into the first ceil(n/2) and the rest, enumerates
    each half's signed sums once, and joins on the complement, so a single
    atom query costs O(2^(n/2)) instead of O(2^n).
    """
    x = make_vec(x)
    if len(x) != cfg.dim:
        raise ValueError(f"target has length {len(x)}, expected dim {cfg.dim}")
    if cfg.n > cap:
        raise CapExceeded("atom-query summand", cap, cfg.n)
    scale = _denominator_lcm(cfg.weights, extra=x)
    scaled = _scaled(cfg.weights, scale)
    target = tuple((c * scale).numerator for c in x)
    cut = (cfg.n + 1) // 2
    signs = APUniformSpec(2).support()
    front = _lattice_sums(scaled[:cut], cfg.dim, signs, LAW_ATOM_CAP)
    back = _lattice_sums(scaled[cut:], cfg.dim, signs, LAW_ATOM_CAP)
    if len(back) < len(front):
        front, back = back, front
    hits = 0
    for pt, mult in front.items():
        rest = tuple(t - a for t, a in zip(target, pt))
        hits += mult * back.get(rest, 0)
    return Fraction(hits, 2 ** cfg.n)


def rademacher_atom(n: int, j: int) -> Fraction:
    """P(R_n = j) for the plain sum R_n of n independent signs.

    Zero off the support or at the wrong parity. n = 0 is allowed and
    gives the point mass at 0, which keeps downstream bounds valid at
    their smallest cases.
    """
    if n < 0:
        raise ValueError(f"summand count must be >= 0, got {n}")
    if abs(j) > n or (n + j) % 2 != 0:
        return Fraction(0)
    return Fraction(comb(n, (n + j) // 2), 2 ** n)


def ap_uniform_sum_distribution(
    spec: APUniformSpec, cfg: WeightConfig, *, atom_cap: int = LAW_ATOM_CAP
) -> AtomDistribution:
    """Exact law of sum_i U_i v_i with U_i uniform on spec.support()."""
    return _law(cfg.weights, cfg.dim, spec, atom_cap)
