"""Subset families behind scalar sign-sum atoms, and their lattice structure.

For positive scalar weights w_1..w_n and a target x, the family collects
every index set A whose weights minus the complement's weights equal x.
Atom probabilities are exactly family size over 2^n, and for targets x > 0
with weights at most 1 the family is an antichain whose pairwise
intersections have at least ceil(x) elements, which is what makes the
counting bound on its size bite.

Members are bitmasks (bit i set means index i+1 is in the set); the CLI's
report spells each member as a sorted 1-based element list. `milner_report`
checks a family against the size bound for k-intersecting antichains and
reports both hypotheses, so the CLI's family report comes from one rule.

Both hypothesis checks are exact transforms of one int over the 2^n
subsets (bit m set iff mask m is a member), with no loop over pairs of
members: O(n) big-int operations for the antichain test and O(k n) for the
k-intersecting one. The ground-set cap bounds their cost and memory: at
n = 24 each 2^n-bit int is 2 MB, and the k-intersecting check keeps k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from fractions import Fraction
from operator import lt
from typing import Iterator, Sequence

from .bounds import milner_bound
from .engine import FULL_LAW_CAP, CapExceeded, WeightConfig, lattice_target
from .rational import RationalLike


@dataclass(frozen=True)
class SubsetFamily:
    """A set family over ground set {1..n}, given as distinct ascending bitmasks."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"ground set size must be >= 0, got {self.n}")
        members = self.members
        if not all(map(lt, members, islice(members, 1, None))):
            raise ValueError("members must be distinct masks in ascending order")
        for mask in members[:1] + members[-1:]:
            if mask < 0 or mask >= (1 << self.n):
                raise ValueError(f"mask {mask} outside ground set of size {self.n}")

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _bitset(self) -> int:
        """The family as one int over the 2^n subsets: bit m is set iff m is a member.

        Built once per family, for both hypothesis checks.
        """
        buf = bytearray(((1 << self.n) + 7) >> 3)
        for mask in self.members:
            buf[mask >> 3] |= 1 << (mask & 7)
        return int.from_bytes(buf, "little")


def build_family(
    cfg: WeightConfig, x: RationalLike, *, cap: int = FULL_LAW_CAP
) -> SubsetFamily:
    """All index sets whose weight sum minus the complement's equals x.

    The config's weights must be strictly positive scalars. The defining
    condition is equivalent to 2 * sum(A) = x + total, checked exactly on
    the config's integer points: x off their lattice, a parity mismatch, or
    a half sum outside [0, total] means the family is empty, and no subset
    sum is listed. Otherwise the subset sums of each half of the weights
    are listed and joined, so memory is O(2^(n/2)) besides the members.
    """
    if cfg.dim != 1:
        raise ValueError("subset families are defined for scalar weights")
    iw = [a for (a,) in cfg.points]
    for a in iw:
        if a <= 0:
            w = Fraction(a, cfg.scale)
            raise ValueError(f"weights must be strictly positive, got {w}")
    n = cfg.n
    if n > cap:
        raise CapExceeded("family ground-set", cap, n)
    target = lattice_target((x,), cfg.scale, 1)
    need = None if target is None else target[0] + sum(iw)
    if need is None or need % 2 != 0 or not 0 <= need // 2 <= sum(iw):
        return SubsetFamily(n=n, members=())
    half = need // 2
    # meet in the middle: the low masks grouped by subset sum, joined to each
    # high mask on half - s, so the members come in ascending mask order
    cut = n // 2
    low: dict[int, list[int]] = {}
    for mask, s in enumerate(_subset_sums(iw[:cut])):
        low.setdefault(s, []).append(mask)
    members = tuple(
        high << cut | mask
        for high, s in enumerate(_subset_sums(iw[cut:]))
        for mask in low.get(half - s, ())
    )
    return SubsetFamily(n=n, members=members)


def _subset_sums(ws: Sequence[int]) -> list[int]:
    """The subset sums of ws, indexed by mask: bit i of a mask selects ws[i]."""
    sums = [0]
    for w in ws:
        sums += [s + w for s in sums]
    return sums


def _index_steps(n: int) -> Iterator[tuple[int, int]]:
    """(s, L) for each index bit i < n: s = 1 << i, and L the masks with bit i clear.

    L repeats one byte pattern over the 2^n subsets. For n < 3 it also sets
    bits past 2^n, which no set shifted through it ever reaches.
    """
    nbytes = ((1 << n) + 7) >> 3
    for i in range(n):
        s = 1 << i
        if i < 3:
            unit = (b"\x55", b"\x33", b"\x0f")[i]
        else:
            unit = b"\xff" * (s >> 3) + b"\x00" * (s >> 3)
        yield s, int.from_bytes(unit * (nbytes // len(unit)), "little")


def is_antichain(family: SubsetFamily) -> bool:
    """True when no member strictly contains another.

    After index bit i, `above` holds every A | D with A a member and D a
    non-empty set of indices <= i outside A, so at the end it is the set of
    strict supersets of members.
    """
    members = family._bitset
    above = 0
    for s, clear in _index_steps(family.n):
        above |= ((above | members) & clear) << s
    return above & members == 0


def is_k_intersecting(family: SubsetFamily, k: int) -> bool:
    """True when every pair of members, (A, A) included, shares >= k elements.

    Including the diagonal pair forces every member to have at least k
    elements, matching the hypothesis under which the size bound holds.
    After index bit i, `within[j]` holds the masks m that agree with some
    member A on the bits above i and share at most j of the bits <= i with
    it; at the end `within[k - 1]` is every mask that meets some member in
    fewer than k elements.
    """
    if k < 0:
        raise ValueError(f"intersection level must be >= 0, got {k}")
    if k == 0 or not family.members:
        return True
    # a member smaller than k fails, so past here k <= n and the layers are few
    if any(mask.bit_count() < k for mask in family.members):
        return False
    members = family._bitset
    within = [members] * k
    for s, clear in _index_steps(family.n):
        has = clear << s
        for j in range(k - 1, -1, -1):
            b = within[j]
            low = within[j - 1] if j else 0
            within[j] = ((b | b >> s) & clear) | ((b << s | low) & has)
    return within[k - 1] & members == 0


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
