"""Subset families behind scalar sign-sum atoms, and their lattice structure.

For positive scalar weights w_1..w_n and a target x, the family collects
every index set A whose weights minus the complement's weights equal x.
Atom probabilities are exactly family size over 2^n, and for targets x > 0
with weights at most 1 the family is an antichain whose pairwise
intersections have at least ceil(x) elements, which is what makes the
counting bound on its size bite.

Members are bitmasks (bit i set means index i+1 is in the set); the JSON
form spells each member as a sorted 1-based element list. `milner_report`
checks a family against the size bound for k-intersecting antichains and
reports both hypotheses, so the CLI's family report comes from one rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .bounds import milner_bound
from .engine import FULL_LAW_CAP, CapExceeded
from .rational import RationalLike, rat

FAMILY_CAP = FULL_LAW_CAP


@dataclass(frozen=True)
class SubsetFamily:
    """A set family over ground set {1..n}, stored as sorted bitmasks."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"ground set size must be >= 0, got {self.n}")
        members = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", members)
        for mask in members:
            if mask < 0 or mask >= (1 << self.n):
                raise ValueError(f"mask {mask} outside ground set of size {self.n}")

    def __len__(self) -> int:
        return len(self.members)

    def elements(self, mask: int) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if mask >> i & 1)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "members": [list(self.elements(mask)) for mask in self.members],
        }


def build_family(
    weights: Sequence[RationalLike], x: RationalLike, *, cap: int = FAMILY_CAP
) -> SubsetFamily:
    """All index sets whose weight sum minus the complement's equals x.

    Weights must be strictly positive rationals. The defining condition
    is equivalent to 2 * sum(A) = x + total, checked exactly on integers
    after clearing denominators; a parity mismatch there means the family
    is empty.
    """
    ws = [rat(w) for w in weights]
    if not ws:
        raise ValueError("at least one weight required")
    for w in ws:
        if w <= 0:
            raise ValueError(f"weights must be strictly positive, got {w}")
    n = len(ws)
    if n > cap:
        raise CapExceeded("family ground-set", cap, n)
    target = rat(x)
    scale = lcm(*[w.denominator for w in ws], target.denominator)
    iw = [(w * scale).numerator for w in ws]
    need = (target * scale).numerator + sum(iw)
    # sums[mask] enumerates subset sums with bit i of mask selecting iw[i]
    sums = [0]
    for w in iw:
        sums += [s + w for s in sums]
    if need % 2 != 0:
        return SubsetFamily(n=n, members=())
    half = need // 2
    return SubsetFamily(
        n=n, members=tuple(mask for mask, s in enumerate(sums) if s == half)
    )


def is_antichain(family: SubsetFamily) -> bool:
    """True when no member strictly contains another."""
    by_size: dict[int, list[int]] = {}
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


def is_k_intersecting(family: SubsetFamily, k: int) -> bool:
    """True when every pair of members, (A, A) included, shares >= k elements.

    Including the diagonal pair forces every member to have at least k
    elements, matching the hypothesis under which the size bound holds.
    """
    if k < 0:
        raise ValueError(f"intersection level must be >= 0, got {k}")
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


def milner_report(family: SubsetFamily, k: int) -> dict:
    """The family's "is_antichain", "is_k_intersecting" and "milner" report.

    A failed hypothesis is named and leaves "bound" and "holds" null, so it
    is never read as a violation of the size bound; with k > n no bound
    applies and only the empty family qualifies, so it holds. "holds" false
    would be a major find.
    """
    antichain_ok = is_antichain(family)
    intersecting_ok = is_k_intersecting(family, k)
    bound = holds = error = None
    if not antichain_ok:
        error = "not an antichain"
    elif not intersecting_ok:
        error = f"not {k}-intersecting"
    else:
        bound = milner_bound(family.n, k) if k <= family.n else None
        holds = bound is None or len(family) <= bound
    return {
        "is_antichain": antichain_ok,
        "is_k_intersecting": intersecting_ok,
        "milner": {"bound": bound, "holds": holds, "hypothesis_error": error},
    }
