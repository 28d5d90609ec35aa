"""Exact distribution engine against independent enumeration."""

from __future__ import annotations

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import (
    assert_symmetric_law,
    brute_ap_distribution,
    brute_sign_atom,
    brute_sign_distribution,
    max_atom,
    rotate,
    weight_configs,
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
    rademacher_atom,
    rat,
    rat_str,
)
from lolab.engine import _lattice_sums
from lolab.rational import vec_strs


class TestWeightConfig:
    def test_from_scalars(self):
        cfg = WeightConfig.from_scalars(["1", "1/2"])
        assert cfg.dim == 1
        assert cfg.n == 2
        assert cfg.weights == ((Fraction(1),), (Fraction(1, 2),))

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            WeightConfig(dim=1, weights=((Fraction(0),),))

    def test_allow_zero_flag(self):
        cfg = WeightConfig(dim=1, weights=((Fraction(0),),), allow_zero=True)
        assert cfg.n == 1

    def test_rejects_norm_above_one(self):
        with pytest.raises(ValueError):
            WeightConfig(dim=2, weights=((Fraction(1), Fraction(1)),))

    def test_unit_ball_escape_hatch(self):
        cfg = WeightConfig(
            dim=2, weights=((Fraction(1), Fraction(1)),), l2_unit_ball=False
        )
        assert cfg.n == 1

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            WeightConfig(dim=2, weights=((Fraction(1),),))

    def test_rejects_float_coordinates(self):
        with pytest.raises(TypeError):
            WeightConfig(dim=1, weights=((0.5,),))

    def test_json_round_trip(self):
        cfg = WeightConfig.from_scalars(["1/2", "-1/3"], allow_zero=False)
        again = WeightConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again == cfg


class TestFullDistribution:
    def test_three_unit_weights(self):
        dist = full_distribution(WeightConfig.from_scalars(["1", "1", "1"]))
        assert dist.atoms == {
            (Fraction(-3),): Fraction(1, 8),
            (Fraction(-1),): Fraction(3, 8),
            (Fraction(1),): Fraction(3, 8),
            (Fraction(3),): Fraction(1, 8),
        }

    def test_planar_pair(self):
        cfg = WeightConfig(
            dim=2,
            weights=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        )
        dist = full_distribution(cfg)
        assert dist.probability((1, 1)) == Fraction(1, 4)
        assert dist.probability((0, 0)) == Fraction(0)

    def test_cancelling_weights(self):
        dist = full_distribution(WeightConfig.from_scalars(["1/2", "1/2"]))
        assert dist.probability((0,)) == Fraction(1, 2)
        assert max_atom(dist) == ((Fraction(0),), Fraction(1, 2))

    def test_cap(self):
        cfg = WeightConfig.from_scalars(["1"] * 5)
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
        assert_symmetric_law(dist)

    @given(weight_configs())
    def test_symmetric_about_origin(self, cfg):
        dist = full_distribution(cfg)
        for pt, p in dist.atoms.items():
            assert dist.probability(tuple(-c for c in pt)) == p

    @given(weight_configs(max_n=5))
    def test_sign_flip_invariance(self, cfg):
        flipped = WeightConfig(
            dim=cfg.dim,
            weights=(tuple(-c for c in cfg.weights[0]),) + cfg.weights[1:],
        )
        assert full_distribution(flipped).atoms == full_distribution(cfg).atoms

    @given(st.integers(min_value=1, max_value=8))
    def test_unit_weight_support_parity(self, n):
        dist = full_distribution(WeightConfig.from_scalars(["1"] * n))
        for (coord,), p in dist.atoms.items():
            assert coord.denominator == 1
            assert (coord.numerator - n) % 2 == 0
            assert p > 0


class TestAtomProbability:
    def test_three_unit_weights(self):
        cfg = WeightConfig.from_scalars(["1", "1", "1"])
        assert atom_probability(cfg, (1,)) == Fraction(3, 8)
        assert atom_probability(cfg, (0,)) == Fraction(0)

    @given(weight_configs())
    def test_matches_full_distribution_on_atoms(self, cfg):
        dist = full_distribution(cfg)
        for pt, p in dist.sorted_atoms():
            assert atom_probability(cfg, pt) == p

    @given(weight_configs(max_n=5))
    def test_zero_off_support(self, cfg):
        off = tuple(Fraction(7) for _ in range(cfg.dim))
        assert atom_probability(cfg, off) == Fraction(0)
        assert brute_sign_atom(cfg.weights, off) == Fraction(0)

    def test_wide_instance(self):
        # n = 16 exceeds what the hypothesis profile exercises.
        cfg = WeightConfig.from_scalars(["1"] * 16)
        assert atom_probability(cfg, (0,)) == rademacher_atom(16, 0)
        assert atom_probability(cfg, (2,)) == rademacher_atom(16, 2)

    def test_cap(self):
        cfg = WeightConfig.from_scalars(["1"] * 6)
        with pytest.raises(CapExceeded):
            atom_probability(cfg, (0,), cap=5)

    @given(weight_configs(dims=(2,), max_n=5))
    def test_rotation_invariance(self, cfg):
        rotated = WeightConfig(
            dim=2, weights=tuple(rotate(w) for w in cfg.weights)
        )
        for pt, p in full_distribution(cfg).sorted_atoms():
            assert atom_probability(rotated, rotate(pt)) == p


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
        cfg = WeightConfig.from_scalars(["1"] * n)
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
        cfg = WeightConfig.from_scalars(["1", "1"])
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
        cfg = WeightConfig.from_scalars(["1/4", "1/4"])
        dist = ap_uniform_sum_distribution(APUniformSpec(m=2), cfg)
        assert dist.atoms == full_distribution(cfg).atoms

    def test_atom_cap(self):
        cfg = WeightConfig.from_scalars(
            [str(Fraction(1, 2 ** i)) for i in range(1, 9)]
        )
        with pytest.raises(CapExceeded):
            ap_uniform_sum_distribution(APUniformSpec(m=5), cfg, atom_cap=1000)


class TestLatticeSums:
    # 1/2, ..., 1/2^12 scaled by 2^12: all 2^k sign sums of the first k
    # weights are distinct, so the k-th step holds 2^k atoms
    GENERIC = [(2 ** (12 - i),) for i in range(1, 13)]

    def test_atom_cap_guards_sign_laws(self):
        signs = APUniformSpec(m=2).support()
        message = "law atom cap is 1000, request needs 1024"
        with pytest.raises(CapExceeded, match=message):
            _lattice_sums(self.GENERIC, 1, signs, 1000)
        assert len(_lattice_sums(self.GENERIC, 1, signs, 1 << 12)) == 1 << 12

    def test_default_summand_caps_stay_under_the_atom_cap(self):
        # a full sign law has at most 2^n atoms and a half-sum table at most
        # 2^ceil(n/2), so the atom cap cannot fire under the default caps
        assert 2 ** FULL_LAW_CAP <= LAW_ATOM_CAP
        assert 2 ** ((ATOM_QUERY_CAP + 1) // 2) <= LAW_ATOM_CAP


class TestAtomDistribution:
    def test_max_probability_tie_break(self):
        dist = full_distribution(WeightConfig.from_scalars(["1", "1", "1"]))
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
        law = full_distribution(WeightConfig(dim=2, weights=((1, 0), (0, 1))))
        assert law.probability((1, 1)) == Fraction(1, 4)
        for x in ((2,), (1, 1, 0)):
            with pytest.raises(ValueError, match="expected dim 2"):
                law.probability(x)
            assert x not in law.atoms

    @given(
        weight_configs(max_n=5, max_denominator=3),
        st.integers(min_value=2, max_value=4),
    )
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

    def test_atom_view_is_a_read_only_mapping(self):
        law = full_distribution(WeightConfig.from_scalars(["1", "1/2"]))
        assert len(law.atoms) == len(law.counts) == 4
        assert law.atoms[(Fraction(-3, 2),)] == Fraction(1, 4)
        assert (Fraction(1, 3),) not in law.atoms
        with pytest.raises(KeyError):
            law.atoms[(Fraction(1, 3),)]
        with pytest.raises(TypeError):
            law.atoms[(Fraction(1, 2),)] = Fraction(1)

    def test_json_shape(self):
        dist = full_distribution(WeightConfig.from_scalars(["1", "1/2"]))
        buffer = io.StringIO()
        dist.to_json(buffer)
        blob = json.loads(buffer.getvalue())
        assert blob["n"] == 2 and blob["dim"] == 1
        assert blob["atoms"][0] == {"x": ["-3/2"], "probability": "1/4"}
        assert [a["x"] for a in blob["atoms"]] == [
            ["-3/2"], ["-1/2"], ["1/2"], ["3/2"]
        ]

    @given(
        weight_configs(max_n=5, dims=(1, 2), max_denominator=3),
        st.sampled_from((2, 3, 4)),
    )
    def test_streamed_json_is_the_json_module_layout(self, cfg, m):
        # the half-sorted, mirrored atoms must come out in full atom order
        # with canonical strings, "0/1" on an axis included
        if m == 2:
            law, brute = full_distribution(cfg), brute_sign_distribution(cfg.weights)
        else:
            law = ap_uniform_sum_distribution(APUniformSpec(m=m), cfg)
            brute = brute_ap_distribution(cfg.weights, m)
        buffer = io.StringIO()
        law.to_json(buffer)
        text = buffer.getvalue()
        blob = json.loads(text)
        assert text == json.dumps(blob, indent=2, sort_keys=True) + "\n"
        assert blob == {
            "n": cfg.n,
            "dim": cfg.dim,
            "atoms": [
                {"x": vec_strs(x), "probability": rat_str(p)}
                for x, p in sorted(brute.items())
            ],
        }

    def test_rat_parsing(self):
        assert rat("3/6") == Fraction(1, 2)
        assert rat(2) == Fraction(2)
        with pytest.raises(TypeError):
            rat(0.5)
