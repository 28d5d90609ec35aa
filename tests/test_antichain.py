"""Subset families behind scalar atoms: structure and counting bound."""

from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from conftest import (
    brute_family,
    brute_is_antichain,
    brute_is_k_intersecting,
    ceil_sqrt,
    scalar_config,
)

from lolab import (
    CapExceeded,
    SubsetFamily,
    atom_probability,
    build_family,
    is_antichain,
    is_k_intersecting,
    milner_bound,
    milner_report,
    rat,
)
from lolab import antichain
from lolab.cli import _members_json
from lolab.engine import WRITE_CHUNK


def family_of(ws, x, **kwargs):
    """build_family of these scalar weights; zero and negative ones reach its check."""
    cfg = scalar_config(ws, allow_zero=True, l2_unit_ball=False)
    return build_family(cfg, x, **kwargs)


def members_text(family):
    """The report's "members" text, its chunks joined."""
    return "".join(_members_json(family))


def family_sets(family):
    return {
        tuple(i + 1 for i in range(family.n) if mask >> i & 1) for mask in family.members
    }


positive_scalars = st.fractions(
    min_value=Fraction(1, 8), max_value=1, max_denominator=8
)


class TestSubsetFamily:
    @pytest.mark.parametrize("members", [(5, 3), (3, 5, 5), (5, 3, 5)])
    def test_refuses_members_out_of_order_or_repeated(self, members):
        # members come as build_family yields them, distinct and ascending;
        # the family checks that order instead of sorting them again
        with pytest.raises(ValueError, match="distinct masks in ascending order"):
            SubsetFamily(n=3, members=members)

    def test_elements_one_based(self):
        # the report spells each member as its sorted 1-based elements
        fam = SubsetFamily(n=4, members=(0b1010,))
        assert json.loads(members_text(fam)) == [[2, 4]]
        fam = SubsetFamily(n=3, members=(3, 5, 6))
        assert json.loads(members_text(fam)) == [[1, 2], [1, 3], [2, 3]]

    @given(st.integers(min_value=0, max_value=26), st.data())
    @example(0, None)
    @example(17, None)
    def test_members_text_is_the_json_module_layout(self, n, data):
        # at the report's depth, for masks of one to four bytes, the empty
        # set and the empty family included
        masks = {0, (1 << n) - 1} if data is None else data.draw(
            st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=12)
        )
        fam = SubsetFamily(n=n, members=tuple(sorted(masks)))
        lists = [[i + 1 for i in range(n) if mask >> i & 1] for mask in fam.members]
        text = json.dumps({"family": {"members": lists}}, indent=2)
        assert text == '{\n  "family": {\n    "members": ' + members_text(fam) + "\n  }\n}"

    def test_members_text_across_chunks(self):
        # the text comes WRITE_CHUNK members at a time, then the closing "]"
        fam = SubsetFamily(n=13, members=tuple(range(2 * WRITE_CHUNK + 1)))
        lists = [[i + 1 for i in range(13) if mask >> i & 1] for mask in fam.members]
        assert len(list(_members_json(fam))) == 3 + 1
        assert members_text(fam) == json.dumps(lists, indent=2).replace("\n", "\n    ")

    def test_rejects_mask_outside_ground_set(self):
        with pytest.raises(ValueError):
            SubsetFamily(n=2, members=(4,))


class TestBuildFamily:
    def test_unit_triple(self):
        fam = family_of([1, 1, 1], 1)
        assert family_sets(fam) == {(1, 2), (1, 3), (2, 3)}

    def test_unit_pair_at_zero(self):
        fam = family_of([1, 1], 0)
        assert family_sets(fam) == {(1,), (2,)}

    def test_mixed_weights(self):
        fam = family_of([Fraction(1, 2), 1], Fraction(3, 2))
        assert family_sets(fam) == {(1, 2)}

    def test_parity_mismatch_is_empty(self):
        assert len(family_of([1, 1], 1)) == 0

    @pytest.mark.parametrize("x", (1, 100, -100))
    def test_empty_families_list_no_subset_sums(self, x):
        # the wrong parity and targets past the reach 20 either way are
        # empty before any of the 2^20 subset sums is listed
        tracemalloc.start()
        try:
            family = family_of([1] * 20, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(family) == 0
        assert peak < 1 << 20

    @given(st.lists(positive_scalars, min_size=1, max_size=10), st.data())
    def test_members_are_the_brute_force_family(self, ws, data):
        # targets the signs reach, so that most families are not empty, and
        # any grid target
        reached = {
            sum(w if mask >> i & 1 else -w for i, w in enumerate(ws))
            for mask in range(1 << len(ws))
        }
        x = data.draw(
            st.sampled_from(sorted(reached))
            | st.fractions(min_value=-4, max_value=4, max_denominator=8)
        )
        assert list(family_of(ws, x).members) == brute_family(ws, x)

    def test_halves_are_listed_not_the_whole(self):
        # 22 weights of the grid of 16ths: listing all 2^22 subset sums
        # peaked at 48 MiB; two halves of 2^11 sums and 4,804 members fit
        # in well under 8 MiB
        rng = Random(22)
        ws = [Fraction(rng.randint(1, 16), 16) for _ in range(22)]
        x = Fraction(93, 16)
        tracemalloc.start()
        try:
            family = family_of(ws, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(family) == 4804
        cfg = scalar_config(ws, l2_unit_ball=False)
        assert Fraction(len(family), 2 ** 22) == atom_probability(cfg, (x,))
        assert peak < 8 << 20

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="strictly positive, got 0"):
            family_of([1, 0], 1)
        with pytest.raises(ValueError, match="strictly positive, got -1/2"):
            family_of([1, Fraction(-1, 2)], 1)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            family_of([1] * 5, 1, cap=4)

    @given(
        st.lists(positive_scalars, min_size=1, max_size=8),
        st.fractions(min_value=0, max_value=4, max_denominator=8),
    )
    def test_cardinality_matches_atom_probability(self, ws, x):
        fam = family_of(ws, x)
        cfg = scalar_config(ws, l2_unit_ball=False)
        assert Fraction(len(fam), 2 ** len(ws)) == atom_probability(cfg, (x,))

    @given(
        st.lists(positive_scalars, min_size=1, max_size=8),
        st.fractions(
            min_value=Fraction(1, 8), max_value=4, max_denominator=8
        ),
    )
    def test_structure_for_positive_targets(self, ws, x):
        # Positive target, weights in (0, 1]: antichain, and any two
        # members share at least ceil(x) indices.
        fam = family_of(ws, x)
        assert is_antichain(fam)
        k = ceil_sqrt(x * x)
        assert is_k_intersecting(fam, min(k, len(ws)))
        assert milner_holds(fam, min(k, len(ws)))


class TestPredicates:
    def test_antichain_detects_nesting(self):
        assert not is_antichain(SubsetFamily(n=3, members=(0b001, 0b011)))
        assert is_antichain(SubsetFamily(n=3, members=(0b011, 0b101)))
        assert is_antichain(SubsetFamily(n=3, members=()))

    def test_intersecting_includes_diagonal(self):
        # A single small member already fails: |A & A| = |A| < k.
        assert not is_k_intersecting(SubsetFamily(n=3, members=(0b001,)), 2)
        assert is_k_intersecting(SubsetFamily(n=3, members=(0b011,)), 2)

    def test_intersecting_level_zero_is_trivial(self):
        assert is_k_intersecting(SubsetFamily(n=2, members=(1, 2)), 0)

    def test_pairwise_check(self):
        fam = SubsetFamily(n=4, members=(0b0011, 0b1100))
        assert not is_k_intersecting(fam, 1)

    def test_level_far_past_n_builds_no_layers(self):
        # an empty family holds at any level; a non-empty one fails its size check
        huge = 10**9
        assert is_k_intersecting(SubsetFamily(n=2, members=()), huge)
        assert not is_k_intersecting(SubsetFamily(n=2, members=(0b11,)), huge)


@st.composite
def subset_families(draw):
    """Any member set over n <= 8, often pushed toward passing the checks.

    OR-ing every member with a common core makes the family core-intersecting,
    and keeping one member size makes it an antichain, so both verdicts occur.
    """
    n = draw(st.integers(min_value=0, max_value=8))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=12))
    if draw(st.booleans()):
        core = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        masks = [m | core for m in masks]
    if masks and draw(st.booleans()):
        size = masks[0].bit_count()
        masks = [m for m in masks if m.bit_count() == size]
    return SubsetFamily(n=n, members=tuple(sorted(set(masks))))


class TestBitsetChecks:
    """The subset-bitset checks against the pair-loop oracles."""

    @settings(max_examples=400)
    @given(subset_families())
    @example(SubsetFamily(n=0, members=()))
    @example(SubsetFamily(n=0, members=(0,)))
    @example(SubsetFamily(n=3, members=()))
    @example(SubsetFamily(n=3, members=(0b011, 0b101, 0b110, 0b111)))
    @example(SubsetFamily(n=8, members=(0b00001111, 0b11110000, 0b11111111)))
    def test_match_the_pair_loops(self, family):
        assert is_antichain(family) == brute_is_antichain(family)
        for k in range(family.n + 2):
            assert is_k_intersecting(family, k) == brute_is_k_intersecting(family, k)

    def test_largest_unit_family_checked_quickly(self):
        # 43,758 members: a pair loop over them took about a minute
        fam = family_of([1] * 18, 2)
        assert len(fam) == 43758
        assert is_antichain(fam)
        assert is_k_intersecting(fam, 2)
        assert not is_k_intersecting(fam, 3)


def milner_holds(family, k):
    """Whether the size bound holds, failing on a hypothesis failure."""
    report = milner_report(family, k)
    assert report["is_antichain"] and report["is_k_intersecting"]
    assert report["milner"]["hypothesis_error"] is None
    return report["milner"]["holds"]


class TestVerifyMilner:
    """milner_report, the one check of the size bound."""

    def test_holds_on_built_family(self):
        fam = family_of([1, 1, 1, 1], 2)
        assert milner_holds(fam, 2)
        assert len(fam) <= milner_bound(4, 2)

    def test_empty_family_holds(self):
        assert milner_holds(SubsetFamily(n=3, members=()), 1)

    def test_one_bitset_per_report(self, monkeypatch):
        # a family's bitset is built in one bytearray of its 2^n bits
        sizes = []

        def counted(size):
            sizes.append(size)
            return bytearray(size)

        monkeypatch.setattr(antichain, "bytearray", counted, raising=False)
        fam = family_of([1] * 10, 2)
        assert milner_holds(fam, 2)
        assert sizes == [(1 << 10) // 8]

    def test_hypothesis_failure_is_distinct(self):
        # a failed hypothesis reports which one, and no bound or verdict
        nested = SubsetFamily(n=3, members=(0b001, 0b011))
        assert milner_report(nested, 1) == {
            "is_antichain": False,
            "is_k_intersecting": True,
            "milner": {
                "bound": None,
                "holds": None,
                "hypothesis_error": "not an antichain",
            },
        }
        sparse = SubsetFamily(n=4, members=(0b0011, 0b1100))
        assert milner_report(sparse, 1) == {
            "is_antichain": True,
            "is_k_intersecting": False,
            "milner": {
                "bound": None,
                "holds": None,
                "hypothesis_error": "not 1-intersecting",
            },
        }

    def test_full_level_meets_bound_exactly(self):
        # All 2-element subsets of [4] form a 0-intersecting antichain
        # of exactly the maximum size.
        masks = tuple(
            m for m in range(16) if bin(m).count("1") == 2
        )
        fam = SubsetFamily(n=4, members=masks)
        assert milner_holds(fam, 0)
        assert len(fam) == milner_bound(4, 0)

    def test_seeded_random_families(self):
        rng = Random(20260817)
        for _ in range(50):
            n = rng.randint(1, 10)
            ws = [Fraction(rng.randint(1, 16), 16) for _ in range(n)]
            total = sum(ws)
            x = rat(rng.choice([1, 2, Fraction(1, 2), Fraction(3, 2)]))
            if x > total:
                continue
            fam = family_of(ws, x)
            k = min(ceil_sqrt(x * x), n)
            assert milner_holds(fam, k)
            assert len(fam) <= milner_bound(n, k)
