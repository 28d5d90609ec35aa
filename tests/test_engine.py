"""Exact distribution engine against independent enumeration."""

from __future__ import annotations

import csv
import io
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, product, zip_longest
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from conftest import (
    assert_symmetric_law,
    brute_ap_distribution,
    brute_pair_total,
    brute_sign_atom,
    brute_sign_distribution,
    full_counts,
    max_atom,
    rademacher_atom,
    rotate,
    scalar_config,
    weight_configs,
    weight_vectors,
)
from lolab import (
    ATOM_QUERY_CAP,
    FULL_LAW_CAP,
    LAW_ATOM_CAP,
    APUniformSpec,
    CapExceeded,
    WeightConfig,
    ap_uniform_sum_distribution,
    atom_probability,
    full_distribution,
    rat,
    rat_str,
)
from lolab import engine
from lolab.engine import AtomDistribution, _lattice_sums, _sorted_sign_sums, lattice_law
from lolab.rational import make_vec, ratio_str, vec_strs, wire, wire_points


class TestWeightConfig:
    def test_of_scalar_weights(self):
        cfg = WeightConfig.of(1, [("1",), ("1/2",)])
        assert cfg.dim == 1
        assert cfg.n == 2
        assert cfg.weights == ((Fraction(1),), (Fraction(1, 2),))

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            WeightConfig.of(1, ((Fraction(0),),))

    def test_allow_zero_flag(self):
        cfg = WeightConfig.of(1, ((Fraction(0),),), allow_zero=True)
        assert cfg.n == 1

    def test_rejects_norm_above_one(self):
        # the messages name the weight as Fractions
        message = r"\(Fraction\(1, 1\), Fraction\(1, 1\)\) has squared norm 2 > 1"
        with pytest.raises(ValueError, match=message):
            WeightConfig.of(2, ((Fraction(1), Fraction(1)),))

    def test_unit_ball_escape_hatch(self):
        cfg = WeightConfig.of(
            2, ((Fraction(1), Fraction(1)),), l2_unit_ball=False
        )
        assert cfg.n == 1

    def test_rejects_dim_mismatch(self):
        message = r"\(Fraction\(1, 1\),\) has length 1, expected dim 2"
        with pytest.raises(ValueError, match=message):
            WeightConfig.of(2, ((Fraction(1),),))

    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.lists(weight_vectors(d, allow_zero=True), min_size=1, max_size=4),
            )
        ),
        st.integers(min_value=2, max_value=12),
    )
    def test_holds_the_canonical_lattice_state(self, case, c):
        # weights pt / scale over their least common denominator, so configs
        # are equal, and hash equal, exactly when their rational weights are
        d, ws = case
        cfg = WeightConfig.of(d, ws, allow_zero=True)
        assert cfg.weights == tuple(map(make_vec, ws))
        assert gcd(cfg.scale, *chain.from_iterable(cfg.points)) == 1
        points = [tuple(c * a for a in pt) for pt in cfg.points]
        scaled = WeightConfig(d, c * cfg.scale, points, allow_zero=True)
        assert scaled == cfg and hash(scaled) == hash(cfg)
        assert scaled.scale == cfg.scale and scaled.points == cfg.points
        reordered = WeightConfig.of(d, ws[::-1], allow_zero=True)
        assert (reordered == cfg) == (reordered.weights == cfg.weights)
        again = WeightConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again == cfg and again.to_json() == cfg.to_json()

    @given(weight_configs(max_n=8, max_denominator=12))
    @example(WeightConfig(2, 6, [(3, -2), (3, 0), (-4, 2)]))  # repeated and zero coordinates
    @example(scalar_config(["1", "-1"]))  # scale 1
    def test_to_json_writes_its_integer_points_in_the_wire_form(self, cfg):
        # wire_points writes pt / scale from the integers, as wire writes
        # the Fractions, so the search's JSON tie keys keep their bytes
        assert wire_points(cfg.scale, cfg.points) == wire(cfg.weights)
        assert cfg.to_json()["weights"] == wire(cfg.weights)

    def test_equal_to_its_rational_weights(self):
        half = WeightConfig.of(1, [["1/2"]])
        assert WeightConfig(1, 4, [(2,)]) == half
        assert hash(WeightConfig(1, 4, [(2,)])) == hash(half)
        assert WeightConfig(1, 4, [(2,)], l2_unit_ball=False) != half

    def test_rejects_float_coordinates(self):
        with pytest.raises(TypeError):
            WeightConfig.of(1, ((0.5,),))

    def test_json_round_trip(self):
        cfg = scalar_config(["1/2", "-1/3"], allow_zero=False)
        again = WeightConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again == cfg
        # an absent flag takes its default
        assert WeightConfig.from_json({"dim": 1, "weights": [["1/2"], ["-1/3"]]}) == cfg

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"dim": True}, "dim"),
            ({"allow_zero": "yes"}, "allow_zero"),
            ({"weights": "11"}, "weights"),
            ({"dim": 2, "weights": ["10"]}, "weights"),
        ],
        ids=["dim-bool", "allow_zero-str", "weights-str", "weight-str"],
    )
    def test_from_json_names_a_field_of_the_wrong_type(self, change, field):
        obj = {"dim": 1, "weights": [["1/2"]], "allow_zero": False, "l2_unit_ball": True}
        with pytest.raises(ValueError, match=f"config field '{field}'"):
            WeightConfig.from_json(obj | change)


class TestFullDistribution:
    def test_three_unit_weights(self):
        dist = full_distribution(scalar_config(["1", "1", "1"]))
        assert dist.atoms == {
            (Fraction(-3),): Fraction(1, 8),
            (Fraction(-1),): Fraction(3, 8),
            (Fraction(1),): Fraction(3, 8),
            (Fraction(3),): Fraction(1, 8),
        }

    def test_planar_pair(self):
        cfg = WeightConfig.of(
            2,
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        )
        dist = full_distribution(cfg)
        assert dist.probability((1, 1)) == Fraction(1, 4)
        assert dist.probability((0, 0)) == Fraction(0)

    def test_cancelling_weights(self):
        dist = full_distribution(scalar_config(["1/2", "1/2"]))
        assert dist.probability((0,)) == Fraction(1, 2)
        assert max_atom(dist) == ((Fraction(0),), Fraction(1, 2))

    def test_cap(self):
        cfg = scalar_config(["1"] * 5)
        with pytest.raises(CapExceeded) as exc:
            full_distribution(cfg, cap=4)
        assert exc.value.requested == 5

    @given(weight_configs())
    def test_matches_brute_force(self, cfg):
        dist = full_distribution(cfg)
        assert dist.atoms == brute_sign_distribution(cfg.weights)

    @given(weight_configs())
    def test_probabilities_sum_to_one(self, cfg):
        dist = full_distribution(cfg)
        assert sum(dist.atoms.values()) == 1
        assert_symmetric_law(dist, brute_sign_distribution(cfg.weights))

    @given(weight_configs())
    def test_symmetric_about_origin(self, cfg):
        dist = full_distribution(cfg)
        for pt, p in dist.atoms.items():
            assert dist.probability(tuple(-c for c in pt)) == p

    @given(weight_configs(max_n=5))
    def test_sign_flip_invariance(self, cfg):
        flipped = WeightConfig.of(
            cfg.dim,
            (tuple(-c for c in cfg.weights[0]),) + cfg.weights[1:],
        )
        assert full_distribution(flipped).atoms == full_distribution(cfg).atoms

    @given(st.integers(min_value=1, max_value=8))
    def test_unit_weight_support_parity(self, n):
        dist = full_distribution(scalar_config(["1"] * n))
        for (coord,), p in dist.atoms.items():
            assert coord.denominator == 1
            assert (coord.numerator - n) % 2 == 0
            assert p > 0


class TestAtomProbability:
    def test_three_unit_weights(self):
        cfg = scalar_config(["1", "1", "1"])
        assert atom_probability(cfg, (1,)) == Fraction(3, 8)
        assert atom_probability(cfg, (0,)) == Fraction(0)

    @given(weight_configs())
    def test_matches_full_distribution_on_atoms(self, cfg):
        dist = full_distribution(cfg)
        for pt, p in dist.atoms.items():
            assert atom_probability(cfg, pt) == p

    @given(weight_configs(max_n=6), st.integers(min_value=0, max_value=2))
    @example(scalar_config(["1", "1", "1", "1"]), 0)  # both halves hit 0
    @example(WeightConfig.of(2, (("-1/2", "1/3"), ("1/2", "1/4"))), 1)  # key < 0
    def test_folded_join_matches_brute_force(self, cfg, zeros):
        # the join reads two tables of keys >= 0, each front key a > 0
        # standing for a and -a: at every atom, above and below the origin,
        # and at the origin, with zero weights (which only scale the law) in
        # either half
        weights = cfg.weights + ((Fraction(0),) * cfg.dim,) * zeros
        cfg = WeightConfig.of(cfg.dim, weights, allow_zero=True)
        brute = brute_sign_distribution(cfg.weights)
        for x in [*brute, (Fraction(0),) * cfg.dim]:
            assert atom_probability(cfg, x) == brute.get(x, 0)

    @given(weight_configs(max_n=5))
    def test_zero_off_support(self, cfg):
        off = tuple(Fraction(7) for _ in range(cfg.dim))
        assert atom_probability(cfg, off) == Fraction(0)
        assert brute_sign_atom(cfg.weights, off) == Fraction(0)

    def test_wide_instance(self):
        # n = 16 exceeds what the hypothesis profile exercises.
        cfg = scalar_config(["1"] * 16)
        assert atom_probability(cfg, (0,)) == rademacher_atom(16, 0)
        assert atom_probability(cfg, (2,)) == rademacher_atom(16, 2)

    def test_cap(self):
        cfg = scalar_config(["1"] * 6)
        with pytest.raises(CapExceeded):
            atom_probability(cfg, (0,), cap=5)

    @given(weight_configs(max_n=5))
    @example(WeightConfig.of(2, ((1, 0), (0, 1))))
    @example(WeightConfig.of(2, (("1/2", "-1/3"), ("-1/4", "2/3"))))
    @example(WeightConfig.of(3, ((0, 0, 1), (0, "1/2", "-1/2"), (1, 0, 0))))
    def test_packed_join_at_and_past_the_reach(self, cfg):
        # reach is the largest coordinate sum of |w|; the query packs points
        # with radix 2 * reach + 1. Targets: every atom; the aligned atom on
        # the reach and one lattice step past it; and each point that the
        # radix, or a radix one too small, packs onto an atom's key (one up
        # in a coordinate, radix down in the next), inside the box or not
        scale, points = cfg.scale, cfg.points
        sums = [sum(abs(pt[j]) for pt in points) for j in range(cfg.dim)]
        reach = max(sums)
        j = sums.index(reach)
        brute = brute_sign_distribution(cfg.weights)
        signs = [1 if w[j] >= 0 else -1 for w in cfg.weights]
        aligned = tuple(
            sum(s * w[i] for s, w in zip(signs, cfg.weights)) for i in range(cfg.dim)
        )
        assert aligned[j] * scale == reach and aligned in brute
        past = aligned[:j] + (aligned[j] + Fraction(1, scale),) + aligned[j + 1 :]
        targets = [aligned, past, *brute]
        for x in brute:
            for i in range(cfg.dim - 1):
                for s, radix in product((1, -1), (2 * reach, 2 * reach + 1)):
                    y = list(x)
                    y[i] += Fraction(s, scale)
                    y[i + 1] -= Fraction(s * radix, scale)
                    targets.append(tuple(y))
        law = full_distribution(cfg)
        for x in targets:
            assert atom_probability(cfg, x) == brute.get(x, 0)
            assert law.probability(x) == brute.get(x, 0)

    @given(weight_configs(dims=(2,), max_n=5))
    def test_rotation_invariance(self, cfg):
        rotated = WeightConfig.of(
            2, tuple(rotate(w) for w in cfg.weights)
        )
        for pt, p in full_distribution(cfg).atoms.items():
            assert atom_probability(rotated, rotate(pt)) == p

    @pytest.mark.parametrize("bits_per_key", [0, 1 << 64], ids=["tables", "subsets"])
    @given(weight_configs(max_n=6), st.integers(min_value=0, max_value=2))
    @example(WeightConfig.of(2, (("-1/2", "1/3"), ("1/2", "1/4"))), 1)  # key < 0
    @example(WeightConfig.of(1, ((0,),), allow_zero=True), 2)  # 2^n at the origin
    def test_each_query_path_matches_brute_force(self, bits_per_key, cfg, zeros):
        # SUBSET_BITS_PER_KEY 0 forces the half-sum tables, a huge one the
        # subset count: every atom, the origin and a point off the support
        weights = cfg.weights + ((Fraction(0),) * cfg.dim,) * zeros
        cfg = WeightConfig.of(cfg.dim, weights, allow_zero=True)
        brute = brute_sign_distribution(cfg.weights)
        targets = [*brute, (Fraction(0),) * cfg.dim, (Fraction(7),) * cfg.dim]
        with patch.object(engine, "SUBSET_BITS_PER_KEY", bits_per_key):
            for x in targets:
                assert atom_probability(cfg, x) == brute.get(x, 0)

    @given(
        st.lists(st.integers(min_value=0, max_value=9), max_size=8),
        st.integers(min_value=0, max_value=40),
    )
    def test_subset_count_matches_brute_force(self, keys, s):
        # at m = 2 and n + 1 bits a slot, slot s counts the subsets summing to s
        expected = sum(
            sum(k for k, b in zip(keys, bits) if b) == s
            for bits in product((0, 1), repeat=len(keys))
        )
        width = len(keys) + 1
        assert engine._poly_counts(keys, 2, width, s) >> width * s == expected

    @pytest.mark.parametrize(
        "cfg, x, tables",
        [
            # 301/1000 .. 330/1000: a 31 * 4,733-bit integer against half
            # tables of up to 2^15 keys
            (WeightConfig(1, 1000, [(k,) for k in range(301, 331)]), ("1/1000",), False),
            # 1,024 aligned unit weights: a 1,025 * 513-bit integer against
            # tables of at most 513 keys
            (WeightConfig(1, 1, [(1,)] * 1024), (0,), True),
        ],
        ids=["thousandths", "aligned"],
    )
    def test_the_cheaper_path_answers(self, cfg, x, tables):
        with patch.object(engine, "_lattice_sums", wraps=_lattice_sums) as spy:
            got = atom_probability(cfg, x, cap=cfg.n)
        assert spy.called == tables and got > 0
        other = 1 << 64 if tables else 0
        with patch.object(engine, "SUBSET_BITS_PER_KEY", other):
            assert atom_probability(cfg, x, cap=cfg.n) == got


class TestRademacherAtom:
    def test_small_values(self):
        assert rademacher_atom(4, 0) == Fraction(3, 8)
        assert rademacher_atom(4, 2) == Fraction(1, 4)
        assert rademacher_atom(4, 1) == Fraction(0)
        assert rademacher_atom(0, 0) == Fraction(1)
        assert rademacher_atom(0, 1) == Fraction(0)

    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=14),
    )
    def test_matches_unit_weight_engine(self, n, j):
        if n == 0:
            assert rademacher_atom(n, j) == (1 if j == 0 else 0)
            return
        cfg = scalar_config(["1"] * n)
        assert rademacher_atom(n, j) == atom_probability(cfg, (j,))

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            rademacher_atom(-1, 0)


class TestAPUniformSum:
    def test_support(self):
        assert list(APUniformSpec(m=3).support()) == [-2, 0, 2]
        assert list(APUniformSpec(m=4).support()) == [-3, -1, 1, 3]

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            APUniformSpec(m=1)

    def test_three_point_pair(self):
        cfg = scalar_config(["1", "1"])
        dist = ap_uniform_sum_distribution(APUniformSpec(m=3), cfg)
        assert dist.atoms == {
            (Fraction(-4),): Fraction(1, 9),
            (Fraction(-2),): Fraction(2, 9),
            (Fraction(0),): Fraction(3, 9),
            (Fraction(2),): Fraction(2, 9),
            (Fraction(4),): Fraction(1, 9),
        }

    @given(
        weight_configs(max_n=4, max_denominator=4),
        st.integers(min_value=2, max_value=4),
    )
    def test_matches_brute_force(self, cfg, m):
        dist = ap_uniform_sum_distribution(APUniformSpec(m=m), cfg)
        assert dist.atoms == brute_ap_distribution(cfg.weights, m)

    def test_two_point_case_is_sign_sum(self):
        cfg = scalar_config(["1/4", "1/4"])
        dist = ap_uniform_sum_distribution(APUniformSpec(m=2), cfg)
        assert dist.atoms == full_distribution(cfg).atoms

    def test_atom_cap(self, monkeypatch):
        cfg = scalar_config(
            [str(Fraction(1, 2 ** i)) for i in range(1, 9)]
        )
        monkeypatch.setattr(engine, "LAW_ATOM_CAP", 1000)
        with pytest.raises(CapExceeded):
            ap_uniform_sum_distribution(APUniformSpec(m=5), cfg)


class TestLatticeSums:
    # 1/2, ..., 1/2^12 scaled by 2^12 (at d = 1 a packed key is the point):
    # all 2^k sign sums of the first k weights are distinct, so the k-th
    # step holds 2^k atoms
    GENERIC = [2 ** (12 - i) for i in range(1, 13)]

    def test_atom_cap_guards_sign_laws(self, monkeypatch):
        # the cap fires inside the 10th step, once its law passes 1000 atoms
        # (its half grows by two keys, four atoms, per source key), not
        # after all 1024
        signs = APUniformSpec(m=2).support()
        message = "law atom cap is 1000, request needs 1004"
        monkeypatch.setattr(engine, "LAW_ATOM_CAP", 1000)
        with pytest.raises(CapExceeded, match=message):
            _lattice_sums(self.GENERIC, signs)
        monkeypatch.setattr(engine, "LAW_ATOM_CAP", 1 << 12)
        half = _lattice_sums(self.GENERIC, signs)
        assert len(half) == 1 << 11 and 0 not in half

    def test_atom_cap_counts_both_halves(self, monkeypatch):
        # the GENERIC law has 4096 atoms and no origin, so its half has 2048:
        # a cap of 4095 clears the half but not the law, and must fire. Four
        # unit weights give 5 atoms, -4..4 by 2, and a half of 3 with the origin
        signs = APUniformSpec(m=2).support()
        monkeypatch.setattr(engine, "LAW_ATOM_CAP", (1 << 12) - 1)
        with pytest.raises(CapExceeded, match="request needs 4096"):
            _lattice_sums(self.GENERIC, signs)
        cfg = scalar_config(["1"] * 4)
        monkeypatch.setattr(engine, "LAW_ATOM_CAP", 4)
        with pytest.raises(CapExceeded, match="request needs 5"):
            full_distribution(cfg)
        monkeypatch.setattr(engine, "LAW_ATOM_CAP", 5)
        law = full_distribution(cfg)
        assert len(law.counts) == 3 and len(law.atoms) == 5

    def test_pair_cap_counts_the_pairs_before_each_step(self, monkeypatch):
        # three unit weights at m = 5 (support -4..4 by 2, positive steps 2
        # and 4): the halves before the steps hold 1, 3 and 5 keys, so the
        # steps visit 2 + 6 + 10 = 18 (key, step) pairs; the law has 13 atoms
        spec, cfg = APUniformSpec(5), scalar_config(["1"] * 3)
        monkeypatch.setattr(engine, "LAW_PAIR_CAP", 17)
        with pytest.raises(CapExceeded, match="law pair cap is 17, request needs 18"):
            ap_uniform_sum_distribution(spec, cfg)
        monkeypatch.setattr(engine, "LAW_PAIR_CAP", 18)
        assert len(ap_uniform_sum_distribution(spec, cfg).atoms) == 13

    def test_pair_cap_fires_once_the_overrun_is_certain(self, monkeypatch):
        # the same law: before its second step 2 pairs are spent, and that
        # step visits 3 keys times 2 steps; a step never shrinks the table, so
        # the last step visits at least 6 more, and 2 + 6 + 6 = 14 pass 13
        spec, cfg = APUniformSpec(5), scalar_config(["1"] * 3)
        monkeypatch.setattr(engine, "LAW_PAIR_CAP", 13)
        with pytest.raises(CapExceeded, match="law pair cap is 13, request needs 14"):
            ap_uniform_sum_distribution(spec, cfg)

    @given(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5),
        st.integers(min_value=2, max_value=5),
    )
    @example([0, 0, 3], 3)  # zero weights keep the table's size
    @example([2, 0, -2, 0], 4)
    @example([3, -3, 3], 2)  # partial sums land on the origin
    def test_pair_cap_refuses_exactly_the_laws_past_it(self, keys, m):
        # a cap of the law's exact pair total builds it, and one below refuses
        support = APUniformSpec(m).support()
        total = brute_pair_total(keys, support)
        with patch.object(engine, "LAW_PAIR_CAP", total):
            assert _lattice_sums(keys, support)
        with patch.object(engine, "LAW_PAIR_CAP", total - 1):
            with pytest.raises(CapExceeded, match="law pair"):
                _lattice_sums(keys, support)

    @given(
        st.lists(st.integers(min_value=-6, max_value=6), max_size=5),
        st.integers(min_value=2, max_value=5),
    )
    @example([3, -3, 3], 2)  # partial sums land on the origin
    @example([2, -1, -1], 2)  # the last step lands on it from both sides
    @example([0, 2, -2], 3)  # a zero weight
    @example([-4, -2], 5)  # negative keys only
    def test_half_kernel_is_the_folded_brute_force_law(self, keys, m):
        # the kernel keeps the keys >= 0 of the whole law of sum u_i k_i
        support = APUniformSpec(m).support()
        full = Counter(
            sum(u * k for u, k in zip(draw, keys))
            for draw in product(support, repeat=len(keys))
        )
        half = _lattice_sums(keys, support)
        assert all(key >= 0 for key in half)
        assert half == {key: c for key, c in full.items() if key >= 0}

    @given(
        weight_configs(max_n=5, max_denominator=4),
        st.integers(min_value=2, max_value=5),
    )
    @example(
        WeightConfig.of(2, (("1/2", "-1/3"), ("-1/4", "2/3"), ("-1/3", "-1/3"))), 3
    )
    @example(WeightConfig.of(3, (("-1/2", 0, "1/2"), (0, "-3/4", "1/4"))), 4)
    @example(WeightConfig.of(2, (("-1/2", "1/3"), ("1/2", "-1/3"))), 2)  # back to 0
    @example(WeightConfig.of(3, ((0, 0, "-1/2"), (0, "1/2", 0), (0, 0, "1/2"))), 5)
    def test_packed_kernel_matches_brute_force(self, cfg, m):
        # points go through the kernel packed into ints, the half at or
        # above the origin only, and are decoded at the law; mixed-sign
        # coordinates give negative digits, and a weight whose first non-zero
        # coordinate is negative a negative key
        law = lattice_law(cfg.scale, cfg.points, cfg.dim, APUniformSpec(m))
        brute = brute_ap_distribution(cfg.weights, m)
        if m == 2:
            assert brute == brute_sign_distribution(cfg.weights)
        assert_symmetric_law(law, brute)
        assert law.points(law.counts) == [pt for pt in full_counts(law) if pt >= (0,) * cfg.dim]

    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=40),
    )
    @example([0, 0, 3], 3, 3)  # zero keys multiply every slot by m
    @example([6, 6, 6, 6, 6], 5, 40)  # the top degree past the middle
    def test_poly_counts_are_the_brute_force_law(self, keys, m, top):
        # slot j of prod sum_{u<m} z^(u k) counts the sums 2j - (m - 1) K of
        # the progression law, K = sum k, up to the top degree
        n, reach = len(keys), (m - 1) * sum(keys)
        brute = brute_ap_distribution([(k,) for k in keys], m)
        width = (m ** n).bit_length()
        acc = engine._poly_counts(keys, m, width, top)
        assert acc >> width * (top + 1) == 0
        for j in range(top + 1):
            count = acc >> width * j & (1 << width) - 1
            assert count == brute.get((2 * j - reach,), 0) * m ** n

    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
        st.integers(min_value=2, max_value=6),
    )
    @example([1] * 3, 2)  # 1-byte slots
    @example([1, -2, 3, 5, 7], 5)  # 3125: 2-byte slots
    @example([1, 2, 3] * 4, 3)  # 3^12: 4-byte slots
    @example([1] * 63, 2)  # 2^63: 8-byte slots
    @example([0, 0], 3)  # zero weights: one slot, at the origin
    def test_line_half_law_is_the_kernel_law(self, keys, m):
        points = [(k,) for k in keys]
        line = engine.line_half_law(points, 1, m)
        assert line is not None
        reach, counts = line
        law = lattice_law(1, points, 1, APUniformSpec(m))
        assert len(counts) == reach // 2 + 1 and reach == law.reach
        assert {reach - 2 * j: c for j, c in enumerate(counts) if c} == law.counts

    def test_line_half_law_refuses_what_the_kernel_reads(self):
        # d >= 2, and m^n of 65 bits, go to the sparse kernel
        assert engine.line_half_law([(1, 0)], 2, 3) is None
        assert engine.line_half_law([(1,)] * 64, 1, 2) is None
        assert engine.line_half_law([(1,)] * 63, 1, 2) is not None

    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=1, max_value=120),
    )
    @example([9, 9, 9], 7, 1, 120)  # the pair cap fires
    @example([1, 2, 3, 4], 2, 120, 10)  # the atom cap fires
    def test_a_law_the_kernel_refuses_is_never_one_integer(self, keys, m, pairs, atoms):
        # under any caps, a law the sparse kernel would refuse goes to it,
        # so every cap fires where it did; one it builds may be an integer
        points = [(k,) for k in keys]
        with patch.object(engine, "LAW_PAIR_CAP", pairs), patch.object(
            engine, "LAW_ATOM_CAP", atoms
        ):
            line = engine.line_half_law(points, 1, m)
            try:
                lattice_law(1, points, 1, APUniformSpec(m))
            except CapExceeded:
                assert line is None

    def test_atom_cap_fires_before_the_support_is_built(self, monkeypatch):
        # one non-zero weight alone has m atoms: m = 200,000 past a cap of
        # 1,000 is refused before the 200,000 support points exist
        monkeypatch.setattr(engine, "LAW_ATOM_CAP", 1000)
        cfg = scalar_config(["1/2"])
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="law atom cap is 1000, request needs 200000"):
                ap_uniform_sum_distribution(APUniformSpec(200_000), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # within the cap, the same law is built
        monkeypatch.setattr(engine, "LAW_ATOM_CAP", 1 << 24)
        assert len(ap_uniform_sum_distribution(APUniformSpec(1000), cfg).atoms) == 1000

    def test_default_summand_caps_stay_under_the_atom_cap(self):
        # a full sign law has at most 2^n atoms and a half-sum table at most
        # 2^ceil(n/2), so the atom cap cannot fire under the default caps
        assert 2 ** FULL_LAW_CAP <= LAW_ATOM_CAP
        assert 2 ** ((ATOM_QUERY_CAP + 1) // 2) <= LAW_ATOM_CAP


def sign_points(dim):
    # up to 8 integer points of one dimension, with negative coordinates,
    # repeats and zero points
    point = st.tuples(*[st.integers(min_value=-6, max_value=6)] * dim)
    return st.lists(point, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(
            st.sampled_from(pool + [(0,) * dim]), min_size=1, max_size=8
        )
    )


class TestSortedSignSums:
    @given(
        st.integers(min_value=1, max_value=3).flatmap(sign_points),
        st.integers(min_value=1, max_value=7),
        st.booleans(),
    )
    @example([(3,), (-3,), (3,), (0,)], 1, True)  # sums back at the origin
    @example([(0, 0), (0, 0)], 2, True)  # zero keys only
    @example([(1, -6, 2), (-5, 0, 6), (1, -6, 2)], 3, True)
    @example([(5,)], 1, True)  # one weight, no origin atom
    def test_either_builder_is_the_brute_force_law(self, points, scale, sorted_path):
        # the rule patched to each side: both builders give the brute-force
        # law in a plain dict, and the sorted one in ascending key order
        dim = len(points[0])
        rule = patch.object(engine, "_takes_sorted_sums", return_value=sorted_path)
        with rule, patch.object(engine, "_sorted_sign_sums", wraps=_sorted_sign_sums) as spy:
            law = lattice_law(scale, points, dim, APUniformSpec(2))
        assert spy.called == sorted_path
        assert type(law.counts) is dict
        weights = [tuple(Fraction(a, scale) for a in pt) for pt in points]
        assert_symmetric_law(law, brute_sign_distribution(weights))
        if sorted_path:
            assert list(law.counts) == sorted(law.counts)

    @pytest.mark.parametrize(
        "points, dim, m, sorted_path",
        [
            # 3^i: all 2^10 sums distinct, in a box of 59,049 points
            ([(3**i,) for i in range(10)], 1, 2, True),
            ([(3**i, -(2**i)) for i in range(10)], 2, 2, True),
            # unit weights: 2^10 sums on 21 points
            ([(1,)] * 10, 1, 2, False),
            # the same weights at m = 3: a progression law
            ([(3**i,) for i in range(10)], 1, 3, False),
            # 2^3 sums need a box of at least 4 * 2^3 - 1 points: 13 are too
            # few, 43 enough
            ([(1,), (2,), (3,)], 1, 2, False),
            ([(1,), (4,), (16,)], 1, 2, True),
        ],
    )
    def test_the_rule_reads_the_input(self, points, dim, m, sorted_path):
        with patch.object(engine, "_sorted_sign_sums", wraps=_sorted_sign_sums) as sums:
            with patch.object(engine, "_lattice_sums", wraps=_lattice_sums) as kernel:
                lattice_law(1, points, dim, APUniformSpec(m))
        assert (sums.called, kernel.called) == (sorted_path, not sorted_path)

    @given(
        st.lists(st.integers(min_value=-60, max_value=60), min_size=1, max_size=7),
        st.integers(min_value=1, max_value=140),
        st.integers(min_value=1, max_value=140),
    )
    @example([3**i for i in range(6)], 63, 1 << 24)  # 2^6 atoms: the atom cap fires
    @example([3**i for i in range(6)], 64, 1 << 24)  # the sorted path
    @example([3**i for i in range(6)], 1 << 24, 63)  # 32 pairs: built by the kernel
    @example([3**i for i in range(7)], 1 << 24, 63)  # 2^6 pairs: the pair cap fires
    def test_the_sorted_path_is_never_taken_where_the_kernel_refuses(self, keys, atoms, pairs):
        # under any caps the law is the kernel's, or its cap fires with the
        # kernel's message, and then the sorted builder never ran
        signs = APUniformSpec(2).support()
        with patch.object(engine, "LAW_ATOM_CAP", atoms), patch.object(
            engine, "LAW_PAIR_CAP", pairs
        ):
            try:
                expected = _lattice_sums(keys, signs)
            except CapExceeded as exc:
                expected = str(exc)
            with patch.object(engine, "_sorted_sign_sums", wraps=_sorted_sign_sums) as spy:
                try:
                    got = lattice_law(1, [(k,) for k in keys], 1, APUniformSpec(2)).counts
                except CapExceeded as exc:
                    got = str(exc)
        assert got == expected
        if isinstance(expected, str):
            assert not spy.called


def law_and_brute(cfg, m):
    """The engine's law of cfg on m support points and its brute-force law."""
    if m == 2:
        return full_distribution(cfg), brute_sign_distribution(cfg.weights)
    law = ap_uniform_sum_distribution(APUniformSpec(m=m), cfg)
    return law, brute_ap_distribution(cfg.weights, m)


# d = 1 weights over 10^6 whose sums reduce to many denominators: keys
# of many distinct gcds with the scale, none of whose signed sums is 0
MILLIONTHS = [Fraction(k, 10**6) for k in (123456, 250000, 5, 640, 999999, 3125, 1)]


# a d = 3 grid-16 sign law of 8,092 atoms in two counts (ConfigGenerator(13,
# 3, seed=1)'s first config): its upper half spans two WRITE_CHUNKs
GRID_SPACE = WeightConfig.of(
    3,
    [
        tuple(Fraction(a, 16) for a in pt)
        for pt in (
            (-8, -12, 0), (12, 1, -2), (8, -3, 11), (-2, -2, 13), (-10, -5, 2),
            (3, 2, 15), (10, -5, 7), (3, 9, -6), (6, 13, 1), (-8, -3, 11),
            (-5, -5, -11), (1, -9, -5), (6, 2, -12),
        )
    ],
)
# d = 2 weights over 10^6 with coordinates of both signs: every sum is its
# own atom, and no two atoms share their first coordinate
GENERIC_PLANE = WeightConfig.of(
    2,
    [
        (Fraction(a, 10**6), Fraction(b, 10**6))
        for a, b in ((-123456, 250000), (5, -640), (999, 3125), (654321, -1), (-77, -500000))
    ],
)
# 2^5 atoms of one count each, whose axes take few values: the writers fold
# the one count's piece into the last axis's table
ONE_COUNT_PLANE = WeightConfig.of(
    2, [(Fraction(a, 8), Fraction(b, 8)) for a, b in ((1, 0), (2, 0), (4, 0), (0, 1), (0, 2))]
)


def first_difference(text: str, expected: str):
    """(line number, line, expected line) of the first line where text differs
    from expected, or None when they are equal. Lines keep their ends, so
    this is None exactly when text == expected; a failure names one line
    instead of diffing two texts of hundreds of KB."""
    pairs = zip_longest(text.splitlines(True), expected.splitlines(True))
    return next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), None)


def writer_examples(test):
    # a d = 1 progression law with an origin atom, a one-weight law, and
    # three laws whose upper halves span more than one WRITE_CHUNK: 2^13
    # distinct signed sums of powers of 2, 3^8 progression sums in the plane
    # with one axis of mixed signs and zeros, and GRID_SPACE. At d = 1,
    # weights over 10^6: a sign law with no origin atom, one with an origin
    # atom (the last weight is a signed sum of the others) and a
    # progression law; laws of scale 1, with and without an origin atom. At
    # d = 2, GENERIC_PLANE's progression law and ONE_COUNT_PLANE's sign law
    examples = (
        (scalar_config(["1", "1/2", "1/2"]), 3),
        (scalar_config(["2/3"]), 2),
        (scalar_config(MILLIONTHS), 2),
        (scalar_config([*MILLIONTHS[:5], Fraction(627188, 10**6)]), 2),
        (scalar_config(MILLIONTHS[:6]), 3),
        (scalar_config(["1", "1", "1"]), 2),
        (scalar_config(["1", "-1"]), 2),
        (scalar_config(["1", "1"]), 3),
        (WeightConfig.of(2, ((Fraction(-1, 2), Fraction(1, 3)),)), 4),
        (scalar_config([Fraction(2 ** i, 2 ** 13) for i in range(13)]), 2),
        (
            WeightConfig.of(
                2,
                tuple(
                    (Fraction(3 ** i, 3 ** 9), Fraction(i - 4, 16)) for i in range(8)
                ),
            ),
            3,
        ),
        (GRID_SPACE, 2),
        (GENERIC_PLANE, 3),
        (ONE_COUNT_PLANE, 2),
    )
    for cfg, m in reversed(examples):
        test = example(cfg, m)(test)
    return test


class TestAtomDistribution:
    def test_max_probability_tie_break(self):
        dist = full_distribution(scalar_config(["1", "1", "1"]))
        # +-1 tie at 3/8; the lexicographically least point wins.
        assert max_atom(dist) == ((Fraction(-1),), Fraction(3, 8))

    @given(weight_configs(), st.integers(min_value=2, max_value=7))
    def test_probability_on_and_off_the_lattice(self, cfg, p):
        # x + 1/scale stays on the lattice and x + 1/(p scale) leaves it;
        # both must read like the brute-force law, which has no lattice
        law = full_distribution(cfg)
        brute = brute_sign_distribution(cfg.weights)
        for x, prob in brute.items():
            assert law.probability(x) == prob
            for step in (Fraction(1, law.scale), Fraction(1, p * law.scale)):
                y = (x[0] + step,) + x[1:]
                assert law.probability(y) == brute.get(y, 0)
            off = (x[0] + Fraction(1, p * law.scale),) + x[1:]
            assert law.probability(off) == 0 and off not in law.atoms

    def test_probability_rejects_a_target_of_the_wrong_dimension(self):
        law = full_distribution(WeightConfig.of(2, ((1, 0), (0, 1))))
        assert law.probability((1, 1)) == Fraction(1, 4)
        for x in ((2,), (1, 1, 0)):
            with pytest.raises(ValueError, match="expected dim 2"):
                law.probability(x)
            assert x not in law.atoms

    @given(
        weight_configs(max_n=5, max_denominator=3),
        st.integers(min_value=2, max_value=4),
    )
    # the least argmax is the mirror of the largest tied key above the origin
    @example(scalar_config(["1"]), 3)  # -1, 0 and 1 tie: -1
    @example(scalar_config(["1"]), 4)  # all four tie: -3
    @example(scalar_config(["1", "1"]), 3)  # the origin alone: 0
    @example(WeightConfig.of(2, ((1, 0), (0, 1))), 2)  # four tie: (-1, -1)
    def test_max_probability_is_the_least_argmax(self, cfg, m):
        for law, brute in (
            (full_distribution(cfg), brute_sign_distribution(cfg.weights)),
            (
                ap_uniform_sum_distribution(APUniformSpec(m=m), cfg),
                brute_ap_distribution(cfg.weights, m),
            ),
        ):
            best = max(brute.values())
            argmax = min(x for x, p in brute.items() if p == best)
            assert max_atom(law) == (argmax, best)

    @given(weight_configs(max_n=5), st.sampled_from((2, 3, 4)))
    @example(scalar_config(["1"]), 2)  # no origin atom
    @example(scalar_config(["1", "1"]), 2)  # an origin atom
    @example(scalar_config(["1/2"]), 4)  # no origin atom
    @example(WeightConfig.of(3, ((1, 0, 0), (0, 0, 1))), 3)  # d = 3, origin
    def test_sorted_atoms_mirror_the_one_sorted_half(self, cfg, m):
        # upper_half is the one sort of a law's points; sorted_atoms mirrors
        # it and must read as a sort of the whole law
        if m == 2:
            law = full_distribution(cfg)
        else:
            law = ap_uniform_sum_distribution(APUniformSpec(m=m), cfg)
        brute = brute_ap_distribution(cfg.weights, m)
        origin = (0,) * cfg.dim
        upper = sorted(x for x in brute if x > origin)
        assert [law.atom(pt) for pt in law.points(law.upper_half())] == upper
        assert [
            (law.atom(pt), Fraction(count, law.denom)) for pt, count in law.sorted_atoms()
        ] == sorted(brute.items())

    @given(
        st.sets(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=10**6),
        st.booleans(),
    )
    @example({1, 2, 3}, 1, False)  # scale 1: every denominator is 1
    @example({5, 10, 12, 60, 120}, 60, True)  # repeated denominators, and whole numbers
    def test_line_column_is_each_keys_wire_form(self, keys, scale, origin):
        # at d = 1 each key k at or above the origin is written as k / scale in
        # two pieces, its reduced numerator and one "/q" string per reduced
        # denominator, shared by every key of that denominator and ending
        # with the text after the axis; the lower half is "-" and the same
        # pieces, of the keys above the origin, last first
        counts = dict.fromkeys(keys | {0} if origin else keys, 1)
        law = AtomDistribution(counts, scale, 2 * len(keys) + origin, 1, 1, max(keys))
        ratios, probs, halves = law._half_strings([";"])
        assert ratios == {1: f"1/{law.denom}"} and probs == [1] * len(counts)
        (sign, below, lower), (plus, above, upper) = halves
        assert (sign, plus) == ("-", "") and below == above
        (none, nums), (dens, gcds) = above
        points = [Fraction(k, scale) for k in sorted(counts)]
        assert none is None and nums == [str(x.numerator) for x in points]
        assert [dens[g] for g in gcds] == [f"/{x.denominator};" for x in points]
        assert [a + dens[g] for a, g in zip(nums, gcds)] == [rat_str(x) + ";" for x in points]
        assert len(dens) == len(set(dens.values()))
        assert list(upper) == list(range(len(points)))
        assert list(lower) == list(range(len(points) - 1, origin - 1, -1))

    @given(
        weight_configs(max_n=5, dims=(2, 3), max_denominator=3),
        st.sampled_from((2, 3)),
    )
    @example(GENERIC_PLANE, 3)  # an origin atom, a table entry per atom on the first axis
    @example(ONE_COUNT_PLANE, 2)  # no origin atom
    def test_plane_tables_are_each_coordinates_wire_form(self, cfg, m):
        # at d >= 2 each axis has a table per half over its distinct
        # coordinates a: a's string above the origin and -a's below, each
        # ending with the text after the axis; both halves read the
        # coordinates of the keys at or above the origin, the lower half
        # those above it, last first
        law = ap_uniform_sum_distribution(APUniformSpec(m), cfg)
        ends = [f";{j}" for j in range(cfg.dim)]
        ratios, counts, halves = law._half_strings(ends)
        keys = sorted(law.counts)
        assert counts == [law.counts[key] for key in keys]
        assert ratios == {c: rat_str(Fraction(c, law.denom)) for c in set(counts)}
        (sign, below, lower), (plus, above, upper) = halves
        assert sign == plus == ""
        assert list(upper) == list(range(len(keys)))
        assert list(lower) == list(range(len(keys) - 1, (keys[0] == 0) - 1, -1))
        points = law.points(keys)
        for j, ((table, col), (mirror, same)) in enumerate(zip(above, below)):
            assert col is same and col == [pt[j] for pt in points]
            assert table.keys() == mirror.keys() == set(col)
            for a in col:
                assert table[a] == ratio_str(a, law.scale) + ends[j]
                assert mirror[a] == ratio_str(-a, law.scale) + ends[j]
        for i, pt in enumerate(points):
            x = vec_strs(law.atom(pt))
            assert [table[col[i]] for table, col in above] == [a + end for a, end in zip(x, ends)]

    def test_atom_view_is_a_read_only_mapping(self):
        law = full_distribution(scalar_config(["1", "1/2"]))
        assert len(law.atoms) == len(full_counts(law)) == 4 and len(law.counts) == 2
        assert law.atoms[(Fraction(-3, 2),)] == Fraction(1, 4)
        assert (Fraction(1, 3),) not in law.atoms
        with pytest.raises(KeyError):
            law.atoms[(Fraction(1, 3),)]
        with pytest.raises(TypeError):
            law.atoms[(Fraction(1, 2),)] = Fraction(1)

    def test_json_shape(self):
        dist = full_distribution(scalar_config(["1", "1/2"]))
        buffer = io.StringIO()
        dist.to_json(buffer)
        blob = json.loads(buffer.getvalue())
        assert blob["n"] == 2 and blob["dim"] == 1
        assert blob["atoms"][0] == {"x": ["-3/2"], "probability": "1/4"}
        assert [a["x"] for a in blob["atoms"]] == [
            ["-3/2"], ["-1/2"], ["1/2"], ["3/2"]
        ]

    @given(
        weight_configs(max_n=5, dims=(1, 2, 3), max_denominator=3),
        st.sampled_from((2, 3, 4)),
    )
    @writer_examples
    def test_streamed_json_is_the_json_module_layout(self, cfg, m):
        # the half-formatted, mirrored atoms must come out in full atom order
        # with canonical strings, "0/1" on an axis included, whichever chunks
        # the blocks are written in
        law, brute = law_and_brute(cfg, m)
        expected = {
            "n": cfg.n,
            "dim": cfg.dim,
            "atoms": [
                {"x": vec_strs(x), "probability": rat_str(p)}
                for x, p in sorted(brute.items())
            ],
        }
        text = json.dumps(expected, indent=2, sort_keys=True) + "\n"
        for chunk in (1, 3, engine.WRITE_CHUNK):
            buffer = io.StringIO()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "WRITE_CHUNK", chunk)
                law.to_json(buffer)
            difference = first_difference(buffer.getvalue(), text)
            assert difference is None, (chunk, difference)

    @pytest.mark.parametrize(
        "cfg, m",
        (
            (scalar_config([Fraction(2 ** i, 2 ** 13) for i in range(13)]), 2),
            (scalar_config(MILLIONTHS), 3),
            (scalar_config([Fraction(1, k) for k in range(2, 9)]), 3),
            (WeightConfig.of(2, [(Fraction(k, 10**6), Fraction(1, 3)) for k in (1, 2, 4, 8, 16)]), 2),
            (WeightConfig.of(2, [(Fraction(3 ** i, 3 ** 9), Fraction(i - 4, 16)) for i in range(8)]), 3),
            (GRID_SPACE, 2),
            (
                WeightConfig.of(
                    3, [(Fraction(k, 10**6), Fraction(-1, 4), Fraction(1, 3)) for k in (1, 2, 4, 8, 16, 32)]
                ),
                3,
            ),
        ),
        ids=(
            "line_sign", "line_ap3", "line_ap3_ties", "plane_sign", "plane_ap3", "space_sign", "space_ap3"
        ),
    )
    @pytest.mark.parametrize("chunk", (1, 5, engine.WRITE_CHUNK))
    @pytest.mark.parametrize("writer, mark", (("to_json", '"probability"'), ("to_csv", "\r\n")))
    def test_no_write_carries_more_than_a_chunk_of_atoms(
        self, monkeypatch, cfg, m, chunk, writer, mark
    ):
        # the writers hold at most WRITE_CHUNK atoms' text at once: every
        # write carries at most that many, and together all of them (the
        # CSV header is a write of its own, one row)
        law = ap_uniform_sum_distribution(APUniformSpec(m), cfg)
        monkeypatch.setattr(engine, "WRITE_CHUNK", chunk)
        writes = []

        class Recorder:
            write = writes.append

        getattr(law, writer)(Recorder())
        atoms = [text.count(mark) for text in writes]
        header = writer == "to_csv"
        assert max(atoms) <= chunk and sum(atoms) == len(law.atoms) + header
    @given(
        weight_configs(max_n=5, dims=(1, 2, 3), max_denominator=3),
        st.sampled_from((2, 3, 4)),
    )
    @writer_examples
    def test_csv_rows_are_the_csv_module_rows(self, cfg, m):
        # dist --format csv writes to_csv: csv.writer's bytes for the header
        # and the atoms in atom order, whichever chunks the rows are
        # written in
        law, brute = law_and_brute(cfg, m)
        header = [f"x{i + 1}" for i in range(cfg.dim)] + ["probability"]
        rows = [[*vec_strs(x), rat_str(p)] for x, p in sorted(brute.items())]
        expected = io.StringIO()
        csv.writer(expected).writerows([header, *rows])
        for chunk in (1, 3, engine.WRITE_CHUNK):
            buffer = io.StringIO()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "WRITE_CHUNK", chunk)
                law.to_csv(buffer)
            difference = first_difference(buffer.getvalue(), expected.getvalue())
            assert difference is None, (chunk, difference)

    def test_rat_parsing(self):
        assert rat("3/6") == Fraction(1, 2)
        assert rat(2) == Fraction(2)
        with pytest.raises(TypeError):
            rat(0.5)
