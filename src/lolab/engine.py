"""Exact laws of weighted sums of random signs and of progression uniforms.

Two lattice-sum builders enumerate every law:

* progression-uniform sums: S = sum_i U_i v_i with U_i independent uniform
  on the m symmetric support points {-m+1, -m+3, ..., m-1};
* sign sums: S = sum_i eps_i v_i with eps_i independent uniform on
  {-1, +1}, which is the progression sum with m = 2.

A `WeightConfig` is its weights' integer lattice state, points over their
least common denominator, made from rationals once (`WeightConfig.of`); a
target goes on the same lattice (`lattice_target`). Each point is packed into one
int (balanced digits of radix 2 * reach + 1, with reach bounding every
coordinate of every partial sum), so a convolution step is one int add,
and packed keys order as their points do. Every summand's support is
symmetric, so every law is its own mirror, P(x) = P(-x): a builder
makes, and a law keeps, only the half at or above the origin, a count per
packed key >= 0 over one denominator (m^n, so 2^n for signs). No point
below the origin is ever built by a convolution. The atom query joins two
such folded half-sum tables, or counts subsets in one integer when that is
cheaper; that integer, the product of the summands' generating polynomials
(`_poly_counts`), also holds the half of a d = 1 law (`line_half_law`),
which the search reads where it is cheaper and no cap could fire. Points
are decoded, and `Fraction`s and their
"p/q" strings made, only where a law is read, so there is no rounding at
any step; at d = 1 a key is its point. Every law is built by
`lattice_law` from a config's lattice points. A sign law whose 2^n sums
seldom collide in the packing box, and that no cap could refuse, is made
from the sorted list of its signed sums (`_sorted_sign_sums`), its keys
counted in ascending order; every other law by the hash kernel
(`_lattice_sums`), one convolution step per weight. `_takes_sorted_sums`
is the rule between them, read from the input and the caps alone. Every
walk in atom order mirrors the law's one sorted upper half (`upper_half`).
The writers (`to_json`, and `to_csv` for CSV rows) format only that
half and the origin, and write every law through one path,
`_interleave`: an atom's text is pieces from tables of one string per
distinct count and, at d >= 2, per distinct coordinate of an axis and
half. At d = 1 a point is its reduced numerator's string and one "/q"
string per distinct denominator, with "-" in front below the origin, so
no string is made per atom but a numerator. The pieces of WRITE_CHUNK
atoms are joined once a chunk.
Enumeration sizes are guarded by explicit caps that raise `CapExceeded`
rather than silently degrading; every law obeys the one `LAW_ATOM_CAP`
on the atoms of both halves, checked as a hash-kernel step grows, and
`LAW_PAIR_CAP` on the (atom, step) pairs its steps visit, checked before
each step, firing once the steps to come must pass it; `DRAW_CAP` bounds the
coordinate draws of one campaign weight.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import floordiv, mul
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from .rational import RationalLike, Vec, _read_fields, make_vec, norm_sq, ratio_str, wire_points

# Default enumeration limits. Full laws cost O(2^n) work in the worst case,
# single-atom queries via half-sum tables cost O(2^(n/2)), and every law and
# half-sum table is capped by its intermediate atom count: a generic sign law
# at that cap (24 scalar weights, built from its sorted signed sums) took
# 4.3 s and peaked at 1,024 MB RSS, about 63 B an atom (2-vCPU host, CPython
# 3.11.7).
FULL_LAW_CAP = 24
ATOM_QUERY_CAP = 40
LAW_ATOM_CAP = 1 << 24
# (atom, step) pairs one law's convolution may visit: a step's cost is its
# atoms times its positive support points, which a progression of many points
# makes far larger than the atoms. On a 2-vCPU host (CPython 3.11) a large
# d = 2 sign law, the slowest kernel, took 24 s and 119 MB for 16.5M pairs
# (0.7M pairs/s), and a progression law of 6.8M pairs 2.3-3.5 s
LAW_PAIR_CAP = 1 << 24
# An atom query counts subsets, and the search a d = 1 law, in one integer
# while it has at most this many bits per key a half-sum table or half law
# could hold: one shift and add costs 0.05-0.5 ns a bit, and the sparse
# kernel 0.45-0.65 us an (atom, step) pair (CPython 3.11.7, 2-vCPU host)
SUBSET_BITS_PER_KEY = 256
# Coordinate draws one campaign weight may take before its draw is refused:
# the share of grid points in the unit ball falls like V_d / 2^d, so a draw
# by rejection never ends at high d. No weight plausibly needs this many up
# to d = 12 at the default grid of 16ths.
DRAW_CAP = 1 << 21
# atoms (or campaign rows, or antichain members) a writer joins into one
# string per write, which bounds the text held at once; `_cuts` is its one
# reader. A law's chunk is joined from a piece per column an atom
# (`_interleave`): its count's, unless every atom has one count, and its
# coordinates', at d = 1 a numerator and a "/q" piece
WRITE_CHUNK = 2048


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
    """An ordered tuple of rational weight vectors for one sum, as its lattice state.

    Weight i is points[i] / scale. Construction divides out gcd(scale, every
    coordinate), so configs are equal, and hash equal, exactly when their
    weights and flags are. Rationals enter through `of`; `weights` makes the
    Fractions for the wire and for messages. Checked in integers: every
    weight has length `dim`; weights are non-zero unless `allow_zero`; and
    unless `l2_unit_ball` is off, sum(a * a) <= scale * scale, so
    norm_sq(w) <= 1. The escape hatch is for searches in a non-Euclidean
    norm, whose ball is not inside the Euclidean one; they check their own.
    """

    dim: int
    scale: int
    points: tuple[tuple[int, ...], ...]
    allow_zero: bool = False
    l2_unit_ball: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        points = tuple(map(tuple, self.points))
        if not points:
            raise ValueError("a config needs at least one weight")
        g = gcd(self.scale, *chain.from_iterable(points))
        if g > 1:
            points = tuple(tuple(a // g for a in pt) for pt in points)
            object.__setattr__(self, "scale", self.scale // g)
        object.__setattr__(self, "points", points)
        dim, ball, zero = self.dim, self.l2_unit_ball, self.allow_zero
        top = self.scale * self.scale
        for pt in points:
            if len(pt) != dim:
                raise ValueError(f"weight {self._vec(pt)} has length {len(pt)}, expected dim {dim}")
            if ball and sum(map(mul, pt, pt)) > top:
                w = self._vec(pt)
                raise ValueError(f"weight {w} has squared norm {norm_sq(w)} > 1")
            if not (zero or any(pt)):
                raise ValueError("zero weight in a config with allow_zero=False")

    def _vec(self, pt: tuple[int, ...]) -> Vec:
        return tuple(Fraction(a, self.scale) for a in pt)

    @property
    def weights(self) -> tuple[Vec, ...]:
        return tuple(map(self._vec, self.points))

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def of(cls, dim: int, weights: Iterable[Iterable[RationalLike]], **flags) -> "WeightConfig":
        """The config of these rational weight vectors: the one entry of rationals."""
        return cls(dim, *lattice([make_vec(w) for w in weights]), **flags)

    @classmethod
    def from_json(cls, obj: dict) -> "WeightConfig":
        """A config from its JSON object; an absent flag takes its default."""
        values = _read_fields(obj, "config", dim=(int,), weights=(list,))
        flags = dict.fromkeys(("allow_zero", "l2_unit_ball"), (bool,))
        values |= _read_fields(obj, "config", partial=True, **flags)
        if not all(type(w) is list for w in values["weights"]):
            raise ValueError("config field 'weights' must hold one list per weight")
        return cls.of(**values)

    def to_json(self) -> dict:
        flags = {"allow_zero": self.allow_zero, "l2_unit_ball": self.l2_unit_ball}
        return {"dim": self.dim, "weights": wire_points(self.scale, self.points), **flags}


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
    """A finite exact law on the lattice of points pt / scale, kept as its upper half.

    Each summand's support is symmetric, so the law is its own mirror:
    P(pt) == P(-pt). `counts` holds only the half at or above the origin,
    keyed by packed point (`_pack`, radix 2 * reach + 1, reach bounding every
    coordinate): the point with key k >= 0 has probability counts[k] / denom,
    and so does its mirror, key -k. Packed keys order as their points do, so
    a key above 0 is a point above the origin. Points are decoded (`points`)
    only where a law is read.
    """

    counts: dict[int, int]
    scale: int
    denom: int
    n: int
    dim: int
    reach: int

    @property
    def radix(self) -> int:
        return 2 * self.reach + 1

    @property
    def atoms(self) -> "_AtomView":
        """Read-only {atom: Fraction} view of the whole law; its length costs nothing."""
        return _AtomView(self)

    def atom(self, pt: tuple[int, ...]) -> Vec:
        return tuple(Fraction(a, self.scale) for a in pt)

    def points(self, keys: Iterable[int]) -> list[tuple[int, ...]]:
        """The integer points of packed keys of either sign."""
        return list(zip(*self._columns(keys)))

    def _columns(self, keys: Iterable[int]) -> list[list[int]]:
        """The coordinates of packed keys of either sign, one list per axis.

        Decodes column by column from the last coordinate: a balanced digit
        is the remainder of key + reach, less reach. At d = 1 a key is its
        point's one coordinate.
        """
        reach, radix = self.reach, self.radix
        rest, columns = list(keys), []
        for _ in range(self.dim - 1):
            low = [(key + reach) % radix - reach for key in rest]
            rest = [(key - a) // radix for key, a in zip(rest, low)]
            columns.append(low)
        columns.append(rest)
        return columns[::-1]

    def _key(self, x) -> Optional[int]:
        """The packed key of x * scale, or None when x is off the lattice or the box."""
        pt = lattice_target(x, self.scale, self.dim)
        if pt is None or any(abs(a) > self.reach for a in pt):
            return None
        return _pack(pt, self.radix)

    def probability(self, x) -> Fraction:
        key = self._key(x)
        return Fraction(0 if key is None else self.counts.get(abs(key), 0), self.denom)

    def upper_half(self) -> list[int]:
        """The keys above the origin, sorted: the one sort of a law's points.

        Negation reverses the order of points, so the points below the
        origin are these negated, in reverse. A law from the sorted signed
        sums (`_sorted_sign_sums`) holds its keys in ascending order, so
        this sort is one linear pass; the hash kernel's are in no order.
        """
        keys = sorted(self.counts)
        if keys[0] == 0:
            del keys[0]
        return keys

    def sorted_atoms(self) -> list[tuple[tuple[int, ...], int]]:
        """(point, count) of every atom, in atom order, mirrored from upper_half()."""
        counts, upper = self.counts, self.upper_half()
        upper = list(zip(self.points(upper), map(counts.__getitem__, upper)))
        lower = [(tuple(-a for a in pt), count) for pt, count in reversed(upper)]
        middle = [((0,) * self.dim, counts[0])] if 0 in counts else []
        return lower + middle + upper

    def max_count(self) -> tuple[tuple[int, ...], int]:
        """The most likely point and its count; ties go to the least point.

        That is the mirror of the largest tied key, which is the origin when
        no key above it ties.
        """
        best = max(self.counts.values())
        key = max(key for key, count in self.counts.items() if count == best)
        return self.points([-key])[0], best

    def _half_strings(self, ends: Sequence[str]) -> tuple[dict[int, str], list[int], list[tuple]]:
        """The atoms' text as `_interleave` pieces: (ratios, counts, halves).

        ratios holds one "p/q" string per distinct count, and counts the
        count of each key at or above the origin, in order, so that key's
        probability is ratios[count]. A half is (sign, columns, atoms): its
        text before the first axis, one column per axis over those keys, and
        the range of them it writes, in order. The upper half writes every
        key, the lower half the mirrors of those above the origin, last
        first. ends[j], the text after axis j, ends each entry of that axis's
        table. At d = 1 a key k is its point, in two columns that both halves
        share: the str of each reduced numerator k // g for g = gcd(k, scale),
        and one "/q" string per distinct g, for q = scale // g. Every point
        above the origin is positive, so the lower half's sign is "-". At
        d >= 2 each axis has a table per half over its distinct coordinates
        a, of the string of a above and of -a below, and both halves read
        the same coordinate lists.
        """
        counts, scale = self.counts, self.scale
        ratios = {count: ratio_str(count, self.denom) for count in set(counts.values())}
        keys, origin = self.upper_half(), 0 in counts
        if origin:
            keys.insert(0, 0)
        if self.dim == 1:
            gcds = list(map(gcd, keys, repeat(scale)))
            nums = list(map(str, map(floordiv, keys, gcds)))
            dens = {g: f"/{scale // g}{ends[0]}" for g in set(gcds)}
            above = below = [(None, nums), (dens, gcds)]
            sign = "-"
        else:
            above, below, sign = [], [], ""
            for col, end in zip(self._columns(keys), ends):
                values = set(col)
                above.append(({a: ratio_str(a, scale) + end for a in values}, col))
                below.append(({a: ratio_str(-a, scale) + end for a in values}, col))
        lower, upper = range(len(keys) - 1, origin - 1, -1), range(len(keys))
        halves = [(sign, below, lower), ("", above, upper)]
        return ratios, list(map(counts.__getitem__, keys)), halves

    def to_json(self, handle: TextIO) -> None:
        """Write the law as json.dumps(..., indent=2, sort_keys=True) + "\\n".

        An atom's block is its head, one per distinct count and half
        (_HEAD, its "p/q" probability, _MID and the half's sign), then its
        coordinates' pieces (`_half_strings`), each ending with _SEP, or with
        _TAIL and the separator at the last axis. `_interleave` joins them
        WRITE_CHUNK atoms at a time, each text less its last separator. The
        "p/q" strings need no escaping.
        """
        ratios, counts, halves = self._half_strings([_SEP] * (self.dim - 1) + [_TAIL + ",\n"])
        handle.write('{\n  "atoms": [\n')
        sep = ""
        for sign, columns, atoms in halves:
            heads = {count: f"{_HEAD}{p}{_MID}{sign}" for count, p in ratios.items()}
            for text in _interleave([(heads, counts), *columns], atoms, 2):
                handle.write(sep)
                handle.write(text)
                sep = ",\n"
        handle.write(f'\n  ],\n  "dim": {self.dim},\n  "n": {self.n}\n}}\n')

    def to_csv(self, handle: TextIO) -> None:
        """Write the law as csv.writer would: the header x1,...,xd,probability, then the atoms.

        A row is the half's sign, its coordinates' pieces (`_half_strings`),
        each ending with ",", and its row end, one per distinct count (its
        "p/q" probability and "\\r\\n"); `_interleave` joins them WRITE_CHUNK
        rows at a time. No field needs quoting.
        """
        handle.write(",".join([f"x{i + 1}" for i in range(self.dim)] + ["probability"]) + "\r\n")
        ratios, counts, halves = self._half_strings([","] * self.dim)
        rows = {count: f"{p}\r\n" for count, p in ratios.items()}
        zeros = bytes(len(counts))  # every atom's key, 0, in its half's one-entry sign table
        for sign, columns, atoms in halves:
            for text in _interleave([({0: sign}, zeros), *columns, (rows, counts)], atoms, 0):
                handle.write(text)


# an atom's JSON block: _HEAD, its probability, _MID, its coordinates joined
# by _SEP, and _TAIL
_HEAD, _MID = '    {\n      "probability": "', '",\n      "x": [\n        "'
_SEP, _TAIL = '",\n        "', '"\n      ]\n    }'


def _cuts(atoms: range) -> list[slice]:
    """Slices of WRITE_CHUNK items each that walk `atoms`, a range of step 1 or -1, in order."""
    parts = [atoms[start : start + WRITE_CHUNK] for start in range(0, len(atoms), WRITE_CHUNK)]
    return [slice(part.start, part.stop if part.stop >= 0 else None, part.step) for part in parts]


def _interleave(columns: Sequence[tuple], atoms: range, trim: int) -> Iterator[str]:
    """The text of `atoms`, WRITE_CHUNK atoms per text, each text less `trim` characters.

    A column is (table, items): atom i's piece is items[i], or
    table[items[i]] with a table; the first column has one. An atom's
    pieces are one from each column in turn; a chunk places them by slice
    assignment and joins them once. When the first column's table has one
    entry, as the heads of a law whose atoms all have one count, or a CSV
    half's sign, and the last column's table has fewer entries than there
    are atoms, that entry leads each text and ends each entry of the last
    table instead, and is trimmed after a text's last atom: an atom is then
    one piece fewer, and no table is rebuilt at the size of the atoms.
    """
    (first, items), *rest = columns
    lead = ""
    if len(first) == 1 and len(rest[-1][0]) < len(atoms):
        (lead,) = first.values()
        if lead:  # an empty lead leaves the last table as it is
            table, keys = rest[-1]
            rest[-1] = {key: text + lead for key, text in table.items()}, keys
        columns, trim = rest, trim + len(lead)
    width, span = len(columns), range(len(items))
    for cut in _cuts(atoms):
        parts = [lead] * (width * len(span[cut]) + 1)
        for i, (table, items) in enumerate(columns, 1):
            parts[i::width] = items[cut] if table is None else map(table.__getitem__, items[cut])
        parts[-1] = parts[-1][: len(parts[-1]) - trim]
        yield "".join(parts)


class _AtomView(Mapping):
    """A law's atoms, both halves, as a read-only Mapping of Fractions."""

    def __init__(self, law: AtomDistribution):
        self._law = law

    def __len__(self) -> int:
        return _full_size(self._law.counts)

    def __iter__(self) -> Iterator[Vec]:
        law = self._law
        keys = [*law.counts, *(-key for key in law.counts if key)]
        return map(law.atom, law.points(keys))

    def __getitem__(self, x) -> Fraction:
        law = self._law
        if len(x) != law.dim:  # absent, where probability() would refuse it
            raise KeyError(x)
        key = law._key(x)
        if key is None or abs(key) not in law.counts:
            raise KeyError(x)
        return Fraction(law.counts[abs(key)], law.denom)


def lattice(vectors: Sequence[Vec]) -> tuple[int, list[tuple[int, ...]]]:
    """The vectors' least common denominator, and each vector times it as ints."""
    scale = lcm(*(c.denominator for v in vectors for c in v))
    return scale, [tuple(c.numerator * (scale // c.denominator) for c in v) for v in vectors]


def lattice_target(x, scale: int, dim: int) -> Optional[tuple[int, ...]]:
    """x * scale as an integer point of length dim, or None when x is off the
    lattice of 1 / scale, where no sum of weights pt / scale lies."""
    x = make_vec(x)
    if len(x) != dim:
        raise ValueError(f"target has length {len(x)}, expected dim {dim}")
    pt = []
    for c in x:
        a, rem = divmod(c.numerator * scale, c.denominator)
        if rem:
            return None
        pt.append(a)
    return tuple(pt)


def _packing(
    points: Sequence[tuple[int, ...]], dim: int, support: Sequence[int]
) -> tuple[int, int]:
    """(reach, radix) for packing the sums of these points' support multiples.

    reach bounds every coordinate of every partial sum, so with the radix
    2 * reach + 1 a point packs into one int as balanced digits: linearly,
    and one to one on the box of radius reach.
    """
    top = max(abs(u) for u in support)
    reach = top * max(sum(abs(pt[j]) for pt in points) for j in range(dim))
    return reach, 2 * reach + 1


def _pack(pt: tuple[int, ...], radix: int) -> int:
    """pt[0] * radix^(d-1) + ... + pt[d-1]; the identity at d = 1."""
    key = 0
    for a in pt:
        key = key * radix + a
    return key


def _full_size(half: Mapping[int, int]) -> int:
    """The atom count of the symmetric law whose keys >= 0 are half's."""
    return 2 * len(half) - (0 in half)


def _lattice_sums(keys: Sequence[int], support: Sequence[int]) -> dict[int, int]:
    """Counts of sum_i u_i w_i over all draws of each u_i from support, keys >= 0.

    Each w_i comes packed into one int (`_pack`), and packing is linear, so
    a convolution step is one int add. support is symmetric, so every law
    here is its own mirror, and only its keys >= 0 are built. A stored key
    k != 0 stands for k and -k, so each step s = u * |w_i|, u > 0, takes it
    to k + s and |k - s|, the folded images of k +- s and -k -+ s. Two
    corrections follow: the origin stands only for itself, so it reaches s
    once, not twice; and from k = s both k - s and -k + s land on the
    origin, which the loop counted once.

    It runs atom by atom in a hash map, so the cost tracks the number of
    distinct intermediate atoms rather than len(support)^n. It builds every
    law but the sign laws whose sums seldom collide, which `lattice_law`
    takes from `_sorted_sign_sums` (the rule is `_takes_sorted_sums`), and
    the atom query's half-sum tables. The atom count, of both halves, is
    capped by LAW_ATOM_CAP, read per call, and checked as a step grows
    whenever the step could pass it. The work, the (atom, step)
    pairs the steps visit, is capped by LAW_PAIR_CAP before each step, as
    soon as the overrun is certain: a step never shrinks the table (a zero
    weight keeps its keys, and (A + s) | (A - s) has more points than A for
    s != 0), so each step still to come visits at least the pairs this one
    does, and the request is the pairs spent with this step plus those.
    """
    cap, pairs = LAW_ATOM_CAP, 0
    acc = {0: 1}
    for i, w in enumerate(keys):
        steps = [u * abs(w) for u in support if u > 0]
        visits = len(acc) * len(steps)
        pairs += visits
        need = pairs + visits * (len(keys) - 1 - i)
        if need > LAW_PAIR_CAP:
            raise CapExceeded("law pair", LAW_PAIR_CAP, need)
        # a zero draw leaves every atom where it is: copy, then add the rest
        nxt = acc.copy() if 0 in support else {}
        get = nxt.get
        guarded = _full_size(acc) * len(support) > cap
        for key, mult in acc.items():
            for step in steps:
                k = key + step
                nxt[k] = get(k, 0) + mult
                k = abs(key - step)
                nxt[k] = get(k, 0) + mult
            if guarded and _full_size(nxt) > cap:
                raise CapExceeded("law atom", cap, _full_size(nxt))
        origin = acc.get(0, 0)
        for step in steps:
            if origin:
                nxt[step] -= origin
            if step in acc:
                nxt[0] = get(0, 0) + acc[step]
        acc = nxt
    return acc


def _sorted_sign_sums(keys: Sequence[int]) -> dict[int, int]:
    """The counts `_lattice_sums` builds at m = 2, from the sorted list of the signed sums.

    With the first sign fixed to +, the 2^(n-1) sums are |w_1| - R + 2 s, for
    R the sum of the other |w_i| and s any subset sum of them, so each
    further weight merges the sorted list with itself shifted by 2 |w_i|: one
    sort of two ascending runs, which takes linear time. The other draws give
    these sums negated, so the sums at or above the origin are the list's and
    the mirrors of those at or below it, the origin in both. Merged the same
    way, they are counted in ascending key order, so `upper_half`'s sort of
    this law is one linear pass.
    """
    first, *rest = map(abs, keys)
    sums = [first - sum(rest)]
    for w in rest:
        step = 2 * w
        sums += [s + step for s in sums]
        sums.sort()
    half = sums[bisect_left(sums, 0) :]
    half += [-s for s in reversed(sums[: bisect_right(sums, 0)])]
    del sums  # each list is dropped once read: the peak stays below the hash kernel's
    half.sort()
    counts = Counter(half)
    del half
    return dict(counts)  # a Counter would read a missing key as 0


def _takes_sorted_sums(m: int, n: int, dim: int, radix: int) -> bool:
    """Whether `lattice_law` builds its law by `_sorted_sign_sums`, not `_lattice_sums`.

    Only a sign law (m = 2) whose 2^n sums are at most half of the
    (radix^dim + 1) / 2 points of the packing box at or above the origin,
    so that they seldom collide, and with 2^n within LAW_ATOM_CAP and
    LAW_PAIR_CAP, read per call. The hash kernel builds at most 2^n atoms
    and visits at most 2^(n-1) + n - 1 pairs for such a law, so it could
    not have refused any law this path takes, and every cap fires where it
    does.
    """
    return m == 2 and 4 << n <= radix**dim + 1 and 1 << n <= min(LAW_ATOM_CAP, LAW_PAIR_CAP)


def lattice_law(
    scale: int, points: Sequence[tuple[int, ...]], dim: int, spec: APUniformSpec
) -> AtomDistribution:
    """Exact law of sum_i U_i pt_i / scale with U_i uniform on spec.support().

    A non-zero summand alone has m atoms, so m past LAW_ATOM_CAP is refused
    before the m support points are built.
    """
    if spec.m > LAW_ATOM_CAP and any(map(any, points)):
        raise CapExceeded("law atom", LAW_ATOM_CAP, spec.m)
    support = spec.support()
    reach, radix = _packing(points, dim, support)
    keys = [_pack(pt, radix) for pt in points]
    n = len(points)
    if _takes_sorted_sums(spec.m, n, dim, radix):
        counts = _sorted_sign_sums(keys)
    else:
        counts = _lattice_sums(keys, support)
    return AtomDistribution(counts, scale, spec.m ** n, n, dim, reach)


def full_distribution(cfg: WeightConfig, *, cap: int = FULL_LAW_CAP) -> AtomDistribution:
    """Exact law of the sign sum over all 2^n sign vectors."""
    if cfg.n > cap:
        raise CapExceeded("full-law summand", cap, cfg.n)
    return lattice_law(cfg.scale, cfg.points, cfg.dim, APUniformSpec(2))


def _poly_counts(keys: Sequence[int], m: int, width: int, top: int) -> int:
    """prod_i sum_{j<m} z^(j * k_i) for ints k_i >= 0, truncated after z^top: one
    integer with a slot of `width` bits per power of z, which every coefficient
    must fit. A factor is applied by doubling its run of powers, so each weight
    takes about 2 log2(m) shifts and adds; a key past top leaves the product as
    it is. For m = 2 and width n + 1 the slot s counts the subsets summing to s.
    """
    mask = (1 << width * (top + 1)) - 1
    bits = bin(m)[3:]  # m's binary digits after the leading 1
    acc = 1
    for k in keys:
        if k > top:
            continue
        shift, part, run = width * k, acc, 1
        for bit in bits:
            part = (part + (part << shift * run)) & mask
            run *= 2
            if bit == "1":
                part = (acc + (part << shift)) & mask
                run += 1
        acc = part
    return acc


# the struct format of a memoryview slot of each byte width
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def line_half_law(
    points: Sequence[tuple[int, ...]], dim: int, m: int
) -> Optional[tuple[int, list[int]]]:
    """The law of sum_i U_i p_i, U_i uniform on m progression points, from one integer.

    Returns (reach, counts): with reach = (m - 1) * sum |p_i|, counts[j] is the
    count (over m^n) of the sum reach - 2j and of its mirror, for j up to
    reach // 2, so of every point at or above the origin in the sum's parity;
    a count of 0 is no atom. A sum is sum_i (2 j_i - m + 1) |p_i|, so the counts
    of sums at or below the origin are the slots of `_poly_counts` up to the
    middle degree, read as one `memoryview` cast of byte-aligned slots.

    None where `lattice_law` is the kernel to run: dim >= 2, m^n of at
    least 2^64, more than SUBSET_BITS_PER_KEY bits per key the half law
    could hold (min(m^n // 2 + 1, reach // 2 + 1)), or a box whose worst case,
    n steps over reach + 1 keys of m // 2 positive steps each and 2 * reach + 1
    atoms, could reach LAW_PAIR_CAP or LAW_ATOM_CAP. So the kernel could not
    have refused any law this returns, and every cap fires where it does.
    """
    total = m ** len(points)
    if dim != 1 or total.bit_length() > 64:
        return None
    keys = [abs(a) for (a,) in points]
    reach = (m - 1) * sum(keys)
    top = reach // 2
    size = next(b for b in _SLOT_FORMATS if total.bit_length() <= 8 * b)
    if (
        8 * size * (top + 1) > SUBSET_BITS_PER_KEY * min(total // 2 + 1, top + 1)
        or len(points) * (reach + 1) * (m // 2) > LAW_PAIR_CAP
        or 2 * reach + 1 > LAW_ATOM_CAP
    ):
        return None
    data = _poly_counts(keys, m, 8 * size, top).to_bytes(size * (top + 1), sys.byteorder)
    counts = memoryview(data).cast(_SLOT_FORMATS[size]).tolist()
    if sys.byteorder == "big":  # the last slot's bytes came first
        counts.reverse()
    return reach, counts


def atom_probability(cfg: WeightConfig, x, *, cap: int = ATOM_QUERY_CAP) -> Fraction:
    """P(sign sum = x) by counting subsets or meeting half-sum tables in the middle.

    With keys k_i >= 0 (flipping a weight keeps the law) summing to K, a sign
    sum is t >= 0 exactly when the -1 signs pick keys summing to s = (K - t) / 2,
    which `_poly_counts` counts in (n + 1) * (s + 1) bits. Past SUBSET_BITS_PER_KEY
    the weights split into the first ceil(n/2) and the rest, each half's signed
    sums are enumerated once and joined on the complement, so a single atom
    query costs O(2^(n/2)) instead of O(2^n).
    """
    target = lattice_target(x, cfg.scale, cfg.dim)
    if cfg.n > cap:
        raise CapExceeded("atom-query summand", cap, cfg.n)
    signs = APUniformSpec(2).support()
    reach, radix = _packing(cfg.points, cfg.dim, signs)
    if target is None or any(abs(t) > reach for t in target):
        return Fraction(0)
    # a sum hitting the target lies in the box of radius reach, where packing
    # is one to one, so counting or joining packed keys is exact
    keys = [abs(_pack(pt, radix)) for pt in cfg.points]
    t, total = abs(_pack(target, radix)), sum(keys)
    if t > total or (total - t) % 2:
        return Fraction(0)
    s, cut = (total - t) // 2, (cfg.n + 1) // 2
    width = cfg.n + 1
    if width * (s + 1) <= SUBSET_BITS_PER_KEY * min(2 ** cut, total // 2 + 1):
        return Fraction(_poly_counts(keys, 2, width, s) >> width * s, 2 ** cfg.n)
    front = _lattice_sums(keys[:cut], signs)
    back = _lattice_sums(keys[cut:], signs)
    if len(back) < len(front):
        front, back = back, front
    # both tables hold keys >= 0 of symmetric laws: a front key a > 0 stands
    # for a and -a, and a back count at b is the count at -b
    get = back.get
    hits = front.get(0, 0) * get(t, 0) + sum(
        mult * (get(abs(t - key), 0) + get(t + key, 0))
        for key, mult in front.items()
        if key
    )
    return Fraction(hits, 2 ** cfg.n)


def ap_uniform_sum_distribution(spec: APUniformSpec, cfg: WeightConfig) -> AtomDistribution:
    """Exact law of sum_i U_i v_i with U_i uniform on spec.support()."""
    return lattice_law(cfg.scale, cfg.points, cfg.dim, spec)
