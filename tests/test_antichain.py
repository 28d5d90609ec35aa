"""Subset families behind scalar atoms: structure and counting bound."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from lolab import (
    CapExceeded,
    SubsetFamily,
    WeightConfig,
    atom_probability,
    build_family,
    is_antichain,
    is_k_intersecting,
    milner_bound,
    milner_report,
    rat,
)
from lolab.rational import ceil_sqrt


def family_sets(family):
    return {family.elements(m) for m in family.members}


positive_scalars = st.fractions(
    min_value=Fraction(1, 8), max_value=1, max_denominator=8
)


class TestSubsetFamily:
    def test_members_sorted_and_deduped(self):
        fam = SubsetFamily(n=3, members=(5, 3, 5))
        assert fam.members == (3, 5)
        assert len(fam) == 2

    def test_elements_one_based(self):
        fam = SubsetFamily(n=4, members=(0b1010,))
        assert fam.elements(0b1010) == (2, 4)
        blob = SubsetFamily(n=3, members=(3, 5, 6)).to_json()
        assert blob["members"] == [[1, 2], [1, 3], [2, 3]]

    def test_rejects_mask_outside_ground_set(self):
        with pytest.raises(ValueError):
            SubsetFamily(n=2, members=(4,))


class TestBuildFamily:
    def test_unit_triple(self):
        fam = build_family([1, 1, 1], 1)
        assert family_sets(fam) == {(1, 2), (1, 3), (2, 3)}

    def test_unit_pair_at_zero(self):
        fam = build_family([1, 1], 0)
        assert family_sets(fam) == {(1,), (2,)}

    def test_mixed_weights(self):
        fam = build_family([Fraction(1, 2), 1], Fraction(3, 2))
        assert family_sets(fam) == {(1, 2)}

    def test_parity_mismatch_is_empty(self):
        assert len(build_family([1, 1], 1)) == 0

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            build_family([1, 0], 1)
        with pytest.raises(ValueError):
            build_family([1, Fraction(-1, 2)], 1)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            build_family([1] * 5, 1, cap=4)

    @given(
        st.lists(positive_scalars, min_size=1, max_size=8),
        st.fractions(min_value=0, max_value=4, max_denominator=8),
    )
    def test_cardinality_matches_atom_probability(self, ws, x):
        fam = build_family(ws, x)
        cfg = WeightConfig.from_scalars(ws, l2_unit_ball=False)
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
        fam = build_family(ws, x)
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


def milner_holds(family, k):
    """Whether the size bound holds, failing on a hypothesis failure."""
    report = milner_report(family, k)
    assert report["is_antichain"] and report["is_k_intersecting"]
    assert report["milner"]["hypothesis_error"] is None
    return report["milner"]["holds"]


class TestVerifyMilner:
    """milner_report, the one check of the size bound."""

    def test_holds_on_built_family(self):
        fam = build_family([1, 1, 1, 1], 2)
        assert milner_holds(fam, 2)
        assert len(fam) <= milner_bound(4, 2)

    def test_empty_family_holds(self):
        assert milner_holds(SubsetFamily(n=3, members=()), 1)

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
            fam = build_family(ws, x)
            k = min(ceil_sqrt(x * x), n)
            assert milner_holds(fam, k)
            assert len(fam) <= milner_bound(n, k)
