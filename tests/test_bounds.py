"""Closed-form bounds, extremal configurations, parity bookkeeping."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from conftest import (
    brute_sign_atom,
    ceil_sqrt,
    floor_sqrt_ratio,
    max_atom,
    rademacher_atom,
    scalar_config,
    weight_vectors,
)
from lolab import (
    TheoremTag,
    WeightConfig,
    ap_uniform_bound,
    atom_probability,
    bound_dispatch,
    erdos_kleitman_bound,
    extremal_config,
    full_distribution,
    hoeffding_bound,
    milner_bound,
    nonuniform_bound,
    norm_sq,
    parity_correction,
    zero_odd_bound,
    zero_weights_extremal,
    zero_weights_sup,
)
from lolab.bounds import NormSpec, atom_bounds, bound_counts, rounded_norms


class TestParityCorrection:
    def test_values(self):
        assert parity_correction(4, 0) == 0
        assert parity_correction(4, 1) == 1
        assert parity_correction(5, 1) == 0
        assert parity_correction(5, 0) == 1

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    def test_split_identity(self, m, k, rest):
        # Correction of one block plus the signed correction of the other.
        n = m + rest
        lhs = parity_correction(m, k) + (-1) ** (m + k) * parity_correction(
            n - m, 0
        )
        assert lhs == parity_correction(n, k)


class TestErdosKleitman:
    def test_values(self):
        assert erdos_kleitman_bound(1) == Fraction(1, 2)
        assert erdos_kleitman_bound(4) == Fraction(3, 8)
        assert erdos_kleitman_bound(5) == Fraction(5, 16)

    @given(st.integers(min_value=1, max_value=40))
    def test_closed_form(self, n):
        assert erdos_kleitman_bound(n) == Fraction(
            math.comb(n, n // 2), 2 ** n
        )

    @given(st.integers(min_value=1, max_value=16))
    def test_dominates_every_atom_of_unit_weights(self, n):
        bound = erdos_kleitman_bound(n)
        for j in range(n + 1):
            assert rademacher_atom(n, j) <= bound

    @given(weight_vectors(dim=2), st.integers(min_value=1, max_value=5))
    def test_dominates_max_atom(self, w, n):
        cfg = WeightConfig.of(2, (w,) * n)
        _, p = max_atom(full_distribution(cfg))
        assert p <= erdos_kleitman_bound(n)


class TestNonUniformBound:
    def test_example(self):
        report = nonuniform_bound(4, 1)
        assert (report.k, report.delta) == (1, 1)
        assert report.bound == Fraction(1, 4)
        assert report.theorem is TheoremTag.NON_UNIFORM

    def test_fractional_norm_uses_ceiling(self):
        # squared norm 9/4 has norm 3/2, so k = 2.
        report = nonuniform_bound(6, Fraction(9, 4))
        assert report.k == 2
        assert report.bound == rademacher_atom(6, 2)

    def test_zero_when_target_out_of_reach(self):
        report = nonuniform_bound(2, 16)
        assert report.k == 4
        assert report.bound == 0

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=8),
    )
    def test_monotone_in_distance(self, n, k):
        near = nonuniform_bound(n, k * k).bound
        far = nonuniform_bound(n, (k + 1) * (k + 1)).bound
        assert far <= near

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=8),
    )
    def test_dominated_by_uniform_bound(self, n, k):
        assert nonuniform_bound(n, k * k).bound <= erdos_kleitman_bound(n)

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=6),
    )
    def test_improves_on_hoeffding(self, n, k):
        q = Fraction(k * k)
        exact = float(nonuniform_bound(n, q).bound)
        assert exact <= hoeffding_bound(n, q) + 1e-12


class TestZeroOdd:
    def test_values(self):
        assert zero_odd_bound(1) == 0
        assert zero_odd_bound(3) == Fraction(1, 4)
        assert zero_odd_bound(5) == rademacher_atom(4, 2)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            zero_odd_bound(4)

    @given(st.integers(min_value=1, max_value=7).map(lambda i: 2 * i + 1))
    def test_extremal_family_attains(self, n):
        # One unit weight and n-1 copies of 1/2: the origin needs the
        # halves to cancel in pairs except two opposing the unit.
        cfg = scalar_config(["1"] + ["1/2"] * (n - 1))
        assert atom_probability(cfg, (0,)) == zero_odd_bound(n)

    @given(st.integers(min_value=1, max_value=6))
    def test_strictly_below_even_uniform_bound(self, i):
        n = 2 * i + 1
        assert zero_odd_bound(n) < erdos_kleitman_bound(n)


class TestZeroWeightsSup:
    def test_values(self):
        assert zero_weights_sup(1) == Fraction(1, 2)
        assert zero_weights_sup(4) == Fraction(1, 4)
        assert zero_weights_sup(9) == Fraction(21, 128)

    def test_fractional_norm(self):
        # norm sqrt(2) rounds up to k = 2.
        assert zero_weights_sup(2) == Fraction(1, 4)

    def test_extremal_attains(self):
        for x in ((1,), (2,), (Fraction(3, 2),)):
            cfg, sup = zero_weights_extremal(x)
            k = math.isqrt(cfg.n)
            assert cfg.n == k * k
            assert atom_probability(cfg, x) == sup == zero_weights_sup(norm_sq(x))

    def test_planar_extremal(self):
        cfg, _ = zero_weights_extremal((Fraction(3, 5), Fraction(4, 5)))
        assert cfg.n == 1
        assert atom_probability(
            cfg, (Fraction(3, 5), Fraction(4, 5))
        ) == Fraction(1, 2)

    @given(st.integers(min_value=1, max_value=10))
    def test_padding_with_zeros_cannot_exceed(self, extra):
        x = (Fraction(2),)
        base, _ = zero_weights_extremal(x)
        padded = WeightConfig.of(
            1,
            base.weights + ((Fraction(0),),) * extra,
            allow_zero=True,
        )
        assert atom_probability(padded, x) == zero_weights_sup(4)


class TestHoeffding:
    def test_value(self):
        assert hoeffding_bound(2, 4) == pytest.approx(math.exp(-1))

    def test_monotone_in_distance(self):
        assert hoeffding_bound(10, 9) < hoeffding_bound(10, 4)

    def test_past_float_range_reads_the_exact_ratio(self):
        assert hoeffding_bound(5, 10 ** 400) == 0.0
        assert hoeffding_bound(10 ** 400, 10 ** 400) == math.exp(-0.5)
        assert hoeffding_bound(10 ** 400, 1) == 1.0


class TestBoundDispatch:
    def test_nonzero_target(self):
        report = bound_dispatch(4, (1,))
        assert report.theorem is TheoremTag.NON_UNIFORM
        assert report.bound == Fraction(1, 4)

    def test_origin_even(self):
        report = bound_dispatch(4, (0,))
        assert report.theorem is TheoremTag.ERDOS_KLEITMAN
        assert report.bound == Fraction(3, 8)

    def test_origin_odd(self):
        report = bound_dispatch(5, (0, 0))
        assert report.theorem is TheoremTag.ZERO_ODD
        assert report.bound == rademacher_atom(4, 2)


class TestExtremalConfig:
    def test_unit_target(self):
        cfg, bound = extremal_config(4, 1, (1,))
        assert cfg.weights == ((Fraction(1, 2),),) * 4
        assert atom_probability(cfg, (1,)) == bound == Fraction(1, 4)

    def test_out_of_reach_target_is_an_error(self):
        with pytest.raises(ValueError, match="nothing attains it"):
            extremal_config(2, 1, (4,))

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=3),
    )
    def test_attains_bound_on_integer_targets(self, n, k):
        report = nonuniform_bound(n, k * k)
        if report.k + report.delta > n:
            with pytest.raises(ValueError):
                extremal_config(n, 1, (k,))
            return
        cfg, bound = extremal_config(n, 1, (k,))
        assert atom_probability(cfg, (k,)) == bound == report.bound
        assert brute_sign_atom(cfg.weights, (Fraction(k),)) == report.bound

    @given(weight_vectors(dim=2, max_denominator=4))
    def test_attains_bound_in_the_plane(self, x):
        report = nonuniform_bound(6, norm_sq(x))
        t = report.k + report.delta
        if t > 6:
            return
        cfg, bound = extremal_config(6, 2, x)
        assert atom_probability(cfg, x) == bound == report.bound


class TestAPUniformBound:
    def test_examples(self):
        assert ap_uniform_bound(1, 3, 4) == Fraction(1, 3)
        assert ap_uniform_bound(2, 3, 4) == Fraction(2, 9)
        assert ap_uniform_bound(1, 4, 1) == Fraction(1, 4)

    def test_odd_m_odd_k_is_zero(self):
        # Unit progression sums for odd m land on even integers only.
        assert ap_uniform_bound(2, 3, 1) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ap_uniform_bound(1, 2, 1)
        with pytest.raises(ValueError):
            ap_uniform_bound(0, 3, 1)
        with pytest.raises(ValueError):
            ap_uniform_bound(1, 3, 0)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    def test_aligned_copies_attain(self, n, m, k):
        # n copies of x/t, t the bound point, hit the cited probability
        # exactly whenever t is reachable.
        q = k * k
        bound = ap_uniform_bound(n, m, q)
        if bound == 0:
            return
        t = k if m % 2 == 1 else k + parity_correction(n, k)
        if t > (m - 1) * n or t == 0:
            return
        from lolab import APUniformSpec, ap_uniform_sum_distribution

        cfg = WeightConfig.of(
            1, ((Fraction(k, t),),) * n, l2_unit_ball=(k <= t)
        )
        dist = ap_uniform_sum_distribution(APUniformSpec(m), cfg)
        assert dist.probability((k,)) == bound


class TestSquareRootRounding:
    @given(
        st.integers(min_value=0, max_value=10 ** 30),
        st.integers(min_value=1, max_value=10 ** 12),
    )
    def test_floor_and_ceiling_of_a_ratio(self, num, den):
        # exact at every size, where a float square root drifts
        for q in (num, 0, den, 4 * den - 1, 4 * den, 4 * den + 1):
            k = floor_sqrt_ratio(q, den)
            assert k * k * den <= q < (k + 1) ** 2 * den
            c = ceil_sqrt(Fraction(q, den))
            assert c * c * den >= q and (c == 0 or (c - 1) ** 2 * den < q)


@st.composite
def norm_measures(draw):
    """(m, measures, unit, p): 0, random measures, the thresholds unit * k^p and
    their neighbours, and measures far past any sum's reach."""
    m = draw(st.integers(min_value=2, max_value=5))
    unit = draw(st.integers(min_value=1, max_value=10 ** 6))
    p = draw(st.sampled_from((1, 2)))
    boundary = st.builds(
        lambda k, e: max(0, unit * k ** p + e),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=-1, max_value=1),
    )
    anywhere = st.integers(min_value=0, max_value=unit * 10 ** 12)
    measures = draw(
        st.lists(st.one_of(st.just(0), boundary, anywhere), min_size=1, max_size=8)
    )
    return m, measures, unit, p


class TestRoundedNorms:
    @given(norm_measures())
    @example((2, [0, 1, 80, 81, 125, 10 ** 9, 10 ** 30], 5, 2))
    @example((3, [0, 34, 35, 36, 90, 10 ** 9, 10 ** 30], 7, 1))
    def test_pinned_to_exact_ceilings_and_floors(self, case):
        # ceilings for signs (m = 2), floors for progressions (m >= 3), at
        # every size: no reach caps them
        m, measures, unit, p = case
        if m == 2:
            ceil = ceil_sqrt if p == 2 else math.ceil
            expected = [ceil(Fraction(a, unit)) for a in measures]
        elif p == 2:
            expected = [floor_sqrt_ratio(a, unit) for a in measures]
        else:
            expected = [a // unit for a in measures]
        assert rounded_norms(m, measures, unit, p) == expected

    @pytest.mark.parametrize("p", (1, 2))
    @pytest.mark.parametrize("unit", (2, 7, 10 ** 12))
    def test_thresholds_and_their_neighbours(self, unit, p):
        # a norm of exactly k rounds to k both ways; at unit >= 2 a measure
        # one less rounds down to k - 1, and one more rounds up to k + 1
        ks = [0, 1, 2, 3, 10, 99, 10 ** 6, 10 ** 15]
        at = [unit * k ** p for k in ks]
        assert rounded_norms(2, at, unit, p) == ks
        assert rounded_norms(3, at, unit, p) == ks
        above = [a + 1 for a in at]
        assert rounded_norms(2, above, unit, p) == [k + 1 for k in ks]
        assert rounded_norms(4, above, unit, p) == ks
        below = [a - 1 for a in at[1:]]
        assert rounded_norms(2, below, unit, p) == ks[1:]
        assert rounded_norms(5, below, unit, p) == [k - 1 for k in ks[1:]]


class TestAtomBounds:
    @pytest.mark.parametrize("m", (2, 3, 4))
    def test_k_past_the_table_reads_zero(self, m):
        # L1 norms of box points run past the reach (m - 1) * n of n = 3
        # summands and past the count table, where every bound is 0
        n = 3
        table = bound_counts(m, n)
        far = len(table) + 5
        points = [(far, far), (len(table), 0), (2, 0)]
        ks, counts = atom_bounds(NormSpec("L1"), m, n, points, 1)
        assert ks == [2 * far, len(table), 2]
        assert counts == [0, 0, table[2]]
        assert table[-1] == 0 and table[2] > 0


class TestMilnerBound:
    def test_values(self):
        assert milner_bound(4, 1) == 4
        assert milner_bound(3, 1) == 3
        assert milner_bound(4, 0) == math.comb(4, 2)

    def test_rejects_out_of_range_level(self):
        with pytest.raises(ValueError):
            milner_bound(3, 4)
        with pytest.raises(ValueError):
            milner_bound(3, -1)

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=10),
    )
    def test_closed_form(self, n, k):
        k = min(k, n)
        assert milner_bound(n, k) == math.comb(n, (n + k + 1) // 2)

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=6),
    )
    def test_monotone_in_k(self, n, k):
        k = min(k, n - 1)
        if k < 0:
            return
        assert milner_bound(n, k + 1) <= milner_bound(n, k)
