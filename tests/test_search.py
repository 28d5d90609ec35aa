"""Counterexample search: norms, margins, certification, annealing."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from random import Random
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import (
    brute_ap_distribution,
    brute_sign_distribution,
    fraction_proposal,
    full_counts,
    reference_norm,
    scalar_config,
    weight_configs,
    weight_vectors,
)
from lolab import (
    AnnealSettings,
    AtomDistribution,
    APUniformSpec,
    CapExceeded,
    ConfigGenerator,
    CounterexampleCertificate,
    FULL_LAW_CAP,
    NormSpec,
    Refutation,
    SearchProblem,
    WeightConfig,
    anneal,
    ap_uniform_sum_distribution,
    append_ledger,
    certify,
    full_distribution,
    MarginRow,
    margin_rows,
    norm_sq,
)
import lolab.search
from lolab import engine
from lolab.bounds import NORM_KINDS, rounded_norms
from lolab.engine import lattice, lattice_law
from lolab.search import (
    _Chain,
    _exact_candidate,
    _propose,
    _ranked,
    _score,
)
from lolab.rational import vec_strs

F = Fraction


EUCLIDEAN = ("L2", "WeightedDiagonalL2")


def triangle_holds(spec: NormSpec, u, v) -> bool:
    """Exact check of norm(u + v) <= norm(u) + norm(v).

    For the Euclidean kinds the inequality is squared twice: with
    b = form(u+v) - form(u) - form(v), it is equivalent to b <= 0 or
    b^2 <= 4 form(u) form(v), so no square roots are needed.
    """
    w = tuple(a + b for a, b in zip(u, v))
    nu, nv, nw = (reference_norm(spec, x) for x in (u, v, w))
    if spec.kind not in EUCLIDEAN:
        return nw <= nu + nv
    b = nw - nu - nv
    return b <= 0 or b * b <= 4 * nu * nv


def scaling_holds(spec: NormSpec, v, c: Fraction) -> bool:
    """Exact check of norm(c v) = |c| norm(v)."""
    w = tuple(c * x for x in v)
    factor = c * c if spec.kind in EUCLIDEAN else abs(c)
    return reference_norm(spec, w) == factor * reference_norm(spec, v)


def ceil_norm(spec: NormSpec, v) -> int:
    """Smallest integer >= the norm of v: the sign-sum rounding."""
    scale, points = lattice([v])
    (k,) = rounded_norms(2, *spec._rule(points, scale))
    return k


def floor_norm(spec: NormSpec, v) -> int:
    """Largest integer <= the norm of v: the progression rounding."""
    scale, points = lattice([v])
    (k,) = rounded_norms(3, *spec._rule(points, scale))
    return k


def leq_one(spec: NormSpec, v) -> bool:
    """Whether v lies in spec's unit ball, by its integer rule."""
    scale, (pt,) = lattice([v])
    return spec.contains(pt, scale)


def witness(problem: SearchProblem, cfg: WeightConfig):
    """The exact rescore's witness atom and margin, of a config that passes the gate."""
    lolab.search._exact_law(problem, cfg)
    cand = _exact_candidate(problem, cfg, float_score=None, structured=False)
    return cand.x, cand.margin


def l2_problem(**kwargs) -> SearchProblem:
    base = dict(conjecture=2, n=4, d=1, budget=0, seed=0)
    base.update(kwargs)
    return SearchProblem(**base)


class TestNormSpec:
    def test_labels(self):
        assert NormSpec("L2").label() == "L2"
        spec = NormSpec("WeightedDiagonalL2", diag=(F(1, 2), F(2)))
        assert spec.label() == "WeightedDiagonalL2[1/2,2/1]"

    def test_ceil_values(self):
        v = (F(1), F(1))
        assert ceil_norm(NormSpec("L1"), v) == 2
        assert ceil_norm(NormSpec("L2"), v) == 2
        assert ceil_norm(NormSpec("Linf"), v) == 1
        assert ceil_norm(NormSpec("WeightedDiagonalL2", diag=(F(4), F(4))), v) == 3

    def test_exact_boundary(self):
        # Squared comparisons must not round 3/5,4/5 away from norm 1.
        v = (F(3, 5), F(4, 5))
        assert ceil_norm(NormSpec("L2"), v) == 1
        assert leq_one(NormSpec("L2"), v)
        assert not leq_one(NormSpec("L2"), (F(3, 5), F(4, 5), F(1, 1000)))

    def test_unit_balls(self):
        v = (F(1), F(1))
        assert leq_one(NormSpec("Linf"), v)
        assert not leq_one(NormSpec("L2"), v)
        assert not leq_one(NormSpec("L1"), v)

    def test_validation(self):
        with pytest.raises(ValueError):
            NormSpec("L3")
        with pytest.raises(ValueError):
            NormSpec("L2", diag=(F(1),))
        with pytest.raises(ValueError):
            NormSpec("WeightedDiagonalL2")
        with pytest.raises(ValueError):
            NormSpec("WeightedDiagonalL2", diag=(F(0),))

    def test_json_round_trip(self):
        for spec in (
            NormSpec("L1"),
            NormSpec("Linf"),
            NormSpec("WeightedDiagonalL2", diag=(F(1, 3), F(5))),
        ):
            blob = json.loads(json.dumps(spec.to_json()))
            assert NormSpec.from_json(blob) == spec

    def test_axioms_on_seeded_pairs(self):
        # Triangle inequality and absolute homogeneity, checked exactly.
        rng = Random(260817)
        specs = [
            NormSpec("L1"),
            NormSpec("L2"),
            NormSpec("Linf"),
            NormSpec("WeightedDiagonalL2", diag=(F(1, 2), F(3))),
        ]
        for _ in range(250):
            u = tuple(F(rng.randint(-24, 24), 8) for _ in range(2))
            v = tuple(F(rng.randint(-24, 24), 8) for _ in range(2))
            c = F(rng.randint(-12, 12), 4)
            for spec in specs:
                assert triangle_holds(spec, u, v)
                assert scaling_holds(spec, u, c)


COORDS = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def norms_and_vectors(draw):
    """A norm of any kind and a vector of a dimension it accepts."""
    kind = draw(st.sampled_from(NORM_KINDS))
    d = draw(st.integers(min_value=1, max_value=3))
    diag = ()
    if kind == "WeightedDiagonalL2":
        positive = st.fractions(min_value=F(1, 10), max_value=10, max_denominator=10)
        diag = tuple(draw(st.lists(positive, min_size=d, max_size=d)))
    v = tuple(draw(st.lists(COORDS, min_size=d, max_size=d)))
    return NormSpec(kind, diag), v


class TestNormRule:
    """The integer rule behind every NormSpec method, against exact Fractions."""

    @given(norms_and_vectors())
    @example((NormSpec("L2"), (F(3, 5), F(4, 5))))
    @example((NormSpec("L2"), (F(6, 5), F(-8, 5))))
    @example((NormSpec("L1"), (F(1, 2), F(-1, 2))))
    @example((NormSpec("Linf"), (F(-2), F(1, 3))))
    @example((NormSpec("WeightedDiagonalL2", diag=(F(1, 4), F(4))), (F(6, 5), F(2, 5))))
    @example((NormSpec("L1"), (F(0), F(0))))
    @example((NormSpec("L2"), (F(9, 5), F(12, 5))))
    @example((NormSpec("WeightedDiagonalL2", diag=(F(4), F(1, 4))), (F(3, 5), F(16, 5))))
    @example((NormSpec("Linf"), (F(3), F(-1, 2))))
    def test_matches_the_fraction_reference(self, case):
        spec, v = case
        ref = reference_norm(spec, v)
        power = 2 if spec.kind in EUCLIDEAN else 1
        assert leq_one(spec, v) == (ref <= 1)
        k = ceil_norm(spec, v)
        assert k >= 0 and k ** power >= ref
        assert k == 0 or (k - 1) ** power < ref
        k = floor_norm(spec, v)
        assert k >= 0 and k ** power <= ref < (k + 1) ** power
        # bit-equal to the float of the exact norm, as the scorer once read it
        expected = math.sqrt(float(ref)) if power == 2 else float(ref)
        scale, (pt,) = lattice([v])
        assert spec.float_value(pt, scale) == expected

    def test_diagonal_refuses_a_vector_of_another_length(self):
        spec = NormSpec("WeightedDiagonalL2", (F(1, 2), F(2)))
        with pytest.raises(ValueError, match="length 1 against diagonal of length 2"):
            leq_one(spec, (F(1, 2),))

    @given(st.lists(st.lists(COORDS, min_size=1, max_size=3), min_size=1, max_size=4))
    def test_scaled_matches_fraction_products(self, vectors):
        vectors = [tuple(v) for v in vectors]
        scale, points = lattice(vectors)
        assert scale == math.lcm(*(c.denominator for v in vectors for c in v))
        assert points == [tuple((c * scale).numerator for c in v) for v in vectors]


class TestSearchProblem:
    def test_two_point_support_is_rejected(self):
        with pytest.raises(ValueError, match="m >= 3"):
            SearchProblem(conjecture=1, n=4, d=1, budget=10, seed=0, m=2)

    def test_progression_cell_fixes_the_norm(self):
        with pytest.raises(ValueError):
            SearchProblem(
                conjecture=1, n=4, d=1, budget=10, seed=0, m=3,
                norm=NormSpec("L1"),
            )

    def test_norm_cell_takes_no_m(self):
        with pytest.raises(ValueError):
            SearchProblem(conjecture=2, n=4, d=1, budget=10, seed=0, m=3)

    def test_norm_cell_past_the_summand_cap_is_refused(self):
        # a certificate's law is a full sign law of up to n summands
        n = FULL_LAW_CAP + 1
        with pytest.raises(CapExceeded, match=f"full-law summand cap is 24, request needs {n}"):
            l2_problem(n=n)
        assert l2_problem(n=FULL_LAW_CAP).n == FULL_LAW_CAP
        assert SearchProblem(conjecture=1, n=n, d=1, budget=1, seed=0, m=3).n == n

    def test_default_norms(self):
        problem = l2_problem()
        assert problem.target_norm() == NormSpec("L2")
        assert problem.weight_norm() == NormSpec("L2")

    def test_constraint_norm_is_independent(self):
        problem = l2_problem(constraint_norm=NormSpec("Linf"))
        assert problem.target_norm() == NormSpec("L2")
        assert problem.weight_norm() == NormSpec("Linf")
        cell = problem.cell()
        assert cell["norm"] == "L2"
        assert cell["constraint_norm"] == "Linf"

    def test_diagonal_norm_pins_the_dimension(self):
        diag = NormSpec("WeightedDiagonalL2", diag=(F(1, 2), F(2)))
        with pytest.raises(ValueError, match="dimension is d = 3"):
            l2_problem(d=3, norm=diag)
        problem = l2_problem(d=2, norm=diag)
        assert problem.dimensions() == (2,)
        assert l2_problem(d=3).dimensions() == (1, 2, 3)

    def test_json_round_trip(self):
        problems = [
            l2_problem(n=6, d=2, budget=100, seed=5, norm=NormSpec("L1")),
            SearchProblem(conjecture=1, n=3, d=1, budget=7, seed=2, m=4),
        ]
        for problem in problems:
            blob = json.loads(json.dumps(problem.to_json()))
            assert SearchProblem.from_json(blob) == problem


class TestMargins:
    def test_unit_triple_touches_the_bound(self):
        cfg = scalar_config(["1", "1", "1"])
        x, margin = witness(l2_problem(n=3), cfg)
        assert (x, margin) == ((F(1),), F(0))

    def test_box_norm_diagonal(self):
        problem = l2_problem(
            n=1, d=2, norm=NormSpec("Linf"), constraint_norm=NormSpec("Linf")
        )
        cfg = WeightConfig.of(2, ((F(1), F(1)),), l2_unit_ball=False)
        x, margin = witness(problem, cfg)
        assert x == (F(1), F(1))
        assert margin == 0

    def test_zero_bound_rows_are_excluded(self):
        problem = SearchProblem(conjecture=1, n=1, d=1, budget=0, seed=0, m=3)
        cfg = scalar_config(["1/2"])
        rows = margin_rows(problem, cfg)
        assert rows and all(row.rhs_zero for row in rows)
        assert witness(problem, cfg) == (None, None)

    def test_rows_never_exceed_bound_in_clean_cell(self):
        problem = l2_problem(n=5)
        for cfg in ConfigGenerator(n=5, d=1, seed=31, count=25).configs():
            for row in margin_rows(problem, cfg):
                if not row.rhs_zero:
                    assert row.margin <= 0

    def test_ball_constraint_enforced(self):
        problem = l2_problem(n=1, d=2)
        cfg = WeightConfig.of(2, ((F(1), F(1)),), l2_unit_ball=False)
        with pytest.raises(ValueError):
            margin_rows(problem, cfg)


@st.composite
def search_cells(draw):
    """A config with a conjecture-2 cell under any norm, or a conjecture-1 cell."""
    if draw(st.booleans()):
        cfg = draw(weight_configs(max_n=6))
        kind = draw(st.sampled_from(NORM_KINDS))
        diag = ()
        if kind == "WeightedDiagonalL2":
            coeff = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)
            diag = tuple(draw(coeff) for _ in range(cfg.dim))
        # every weight drawn lies in the Euclidean ball, hence in the box
        problem = l2_problem(
            n=cfg.n, d=cfg.dim, norm=NormSpec(kind, diag),
            constraint_norm=NormSpec("Linf"),
        )
    else:
        cfg = draw(weight_configs(max_n=4))
        problem = SearchProblem(
            conjecture=1, n=cfg.n, d=cfg.dim, budget=0, seed=0,
            m=draw(st.sampled_from((3, 4, 5))),
        )
    return problem, cfg


def brute_law(problem, weights) -> dict:
    """The cell's law of weights, by brute-force enumeration."""
    if problem.conjecture == 2:
        return brute_sign_distribution(weights)
    return brute_ap_distribution(weights, problem.m)


@lru_cache(maxsize=None)
def unit_law(problem, n) -> dict:
    """The brute-force law of n unit weights in problem's cell."""
    return brute_law(problem, [(1,)] * n)


def oracle_bound(problem, n, x) -> Fraction:
    """The conjectured bound at x, from exact Fraction norms and a brute unit law."""
    if problem.conjecture == 2:
        spec = problem.target_norm()
        if spec.kind == "L1":
            k = math.ceil(sum(abs(c) for c in x))
        elif spec.kind == "Linf":
            k = math.ceil(max(abs(c) for c in x))
        else:
            q = sum(c * v * v for c, v in zip(spec.diag or (1,) * len(x), x))
            k = 0
            while k * k < q:
                k += 1
        target = k + (n + k) % 2
    else:
        k = 0
        while (k + 1) ** 2 <= norm_sq(x):
            k += 1
        target = k if problem.m % 2 else k + (n + k) % 2
    return F(unit_law(problem, n).get((target,), 0))


def oracle_rows(problem, cfg) -> list[MarginRow]:
    """Margin rows from brute-force laws and exact Fraction norms."""
    return [
        MarginRow(x=x, lhs=p, rhs=oracle_bound(problem, cfg.n, x))
        for x, p in sorted(brute_law(problem, cfg.weights).items())
        if any(x)
    ]


def each_kind(test):
    """test with a planar and a line cell of each norm kind and of conjecture 1 at
    m = 3, 4 (and 5 on the line), and a line cell whose best excess ties across
    two norm bands. Zero-bound atoms come at odd k for m = 3 and past the reach
    of the line's diagonal norm 3|x|."""
    planar = WeightConfig.of(
        2, ((F(1, 2), F(-1, 3)), (F(-2, 3), F(1, 4)), (F(1, 3), F(1, 3)))
    )
    line = scalar_config(["1/2", "-1/3", "3/4"])
    box = NormSpec("Linf")
    norms = [NormSpec(kind) for kind in ("L1", "L2", "Linf")]
    diagonals = {2: (F(1, 2), 3), 1: (9,)}
    for d, cfg in ((2, planar), (1, line)):
        for norm in norms + [NormSpec("WeightedDiagonalL2", diagonals[d])]:
            test = example((l2_problem(n=3, d=d, norm=norm, constraint_norm=box), cfg))(test)
        for m in (3, 4, 5)[: 5 - d]:
            problem = SearchProblem(conjecture=1, n=3, d=d, budget=0, seed=0, m=m)
            test = example((problem, cfg))(test)
    # margin 0 at 1/3 (k = 1) and at 5/3 (k = 2): the least point is the witness
    return example((l2_problem(n=2, d=1), scalar_config(["-2/3", "1"])))(test)


# SUBSET_BITS_PER_KEY forcing each scorer path: 0 the sparse law, a huge one the
# one integer of a d = 1 state
SCORER_PATHS = (0, 1 << 64)


class TestMarginCore:
    @given(search_cells())
    @each_kind
    def test_pinned_to_brute_force_oracles(self, cell):
        problem, cfg = cell
        assert margin_rows(problem, cfg) == oracle_rows(problem, cfg)
        for bits_per_key in SCORER_PATHS:
            with patch.object(engine, "SUBSET_BITS_PER_KEY", bits_per_key):
                score, flagged = _score(problem, cfg)
                cand = _exact_candidate(problem, cfg, float_score=None, structured=False)
            assert flagged == cand.rhs_zero_atoms
            if cand.margin is None:
                assert score == float("-inf")
            else:
                assert score == float(cand.margin)

    def test_one_sorted_walk_per_law(self, monkeypatch):
        walked = []
        walk = AtomDistribution.sorted_atoms
        monkeypatch.setattr(
            AtomDistribution, "sorted_atoms", lambda law: walked.append(law) or walk(law)
        )
        cells = [
            (l2_problem(n=5, d=2), ConfigGenerator(n=5, d=2, seed=31, count=3).configs()),
            (
                SearchProblem(conjecture=1, n=4, d=1, budget=0, seed=0, m=3),
                ConfigGenerator(n=4, d=1, seed=32, count=2).configs(),
            ),
        ]
        for problem, configs in cells:
            for cfg in configs:
                margin_rows(problem, cfg)
        assert len({id(law) for law in walked}) == len(walked) == 5


class TestScorerWalk:
    @given(search_cells())
    @each_kind
    def test_bounds_at_is_the_oracle_bound(self, cell):
        # at every atom, the origin included, and at far points, past the
        # last threshold, where every bound is 0
        problem, cfg = cell
        law = lattice_law(cfg.scale, cfg.points, cfg.dim, problem.law_spec())
        total = problem.law_spec().m ** cfg.n
        for c in (1, 3, 20):
            points = [tuple(c * a for a in pt) for pt in full_counts(law)]
            expected = [
                oracle_bound(problem, cfg.n, law.atom(pt)) * total for pt in points
            ]
            assert problem.bounds_at(cfg.n, points, law.scale) == expected

    @pytest.mark.parametrize("m", (3, 4))
    def test_conjecture_1_floor_at_a_norm_of_exactly_k(self, m):
        problem = SearchProblem(conjecture=1, n=3, d=2, budget=0, seed=0, m=m)
        targets = [(F(3 * k, 5), F(4 * k, 5)) for k in range(1, 3 * (m - 1) + 2)]
        scale, points = lattice(targets)
        expected = [oracle_bound(problem, 3, x) * m ** 3 for x in targets]
        assert problem.bounds_at(3, points, scale) == expected
        assert any(expected)

    @given(search_cells())
    @each_kind
    def test_witness_is_the_oracle_maximum(self, cell):
        # the walk's witness is the brute-force row of largest margin, then
        # least squared norm, then largest point; flags count zero-bound rows
        problem, cfg = cell
        rows = oracle_rows(problem, cfg)
        eligible = [row for row in rows if not row.rhs_zero]
        expected = (None,) * 4
        if eligible:
            best = max(eligible, key=lambda row: (row.margin, -norm_sq(row.x), row.x))
            expected = (best.x, best.margin, best.lhs, best.rhs)
        for bits_per_key in SCORER_PATHS:
            with patch.object(engine, "SUBSET_BITS_PER_KEY", bits_per_key):
                cand = _exact_candidate(problem, cfg, float_score=None, structured=False)
            assert cand.rhs_zero_atoms == len(rows) - len(eligible)
            assert (cand.x, cand.margin, cand.lhs, cand.rhs) == expected

    @given(
        st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=4),
        st.sampled_from((2, 3, 4, 5)),
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=1, max_value=80),
    )
    @example([16, 16, 16, 16], 5, 80, 80)  # the pair cap fires
    @example([1, 2, 3, 4], 2, 80, 10)  # the atom cap fires
    def test_each_path_scores_alike_or_fires_the_same_cap(self, keys, m, pairs, atoms):
        # a d = 1 state goes to the one integer only where the sparse kernel
        # could not refuse it, so under any caps both paths give the same
        # score or the same refusal
        if m == 2:
            problem = l2_problem(n=4, d=1, norm=NormSpec("Linf"))
        else:
            problem = SearchProblem(conjecture=1, n=4, d=1, budget=0, seed=0, m=m)
        state = lolab.search._state(1, 16, [(k,) for k in keys])
        outcomes = []
        for bits_per_key in SCORER_PATHS:
            with patch.object(engine, "SUBSET_BITS_PER_KEY", bits_per_key), patch.object(
                engine, "LAW_PAIR_CAP", pairs
            ), patch.object(engine, "LAW_ATOM_CAP", atoms):
                try:
                    outcomes.append(lolab.search._walk(problem, state))
                except CapExceeded as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestCellBound:
    @pytest.mark.parametrize(
        "problem, cfg, message",
        [
            (
                l2_problem(n=3, d=1),
                WeightConfig.of(2, ((F(1, 2), F(1, 2)),) * 3),
                "config has d = 2",
            ),
            (
                l2_problem(n=3, d=1),
                scalar_config(["1/2"] * 6),
                "config has n = 6",
            ),
            (
                SearchProblem(conjecture=1, n=3, d=1, budget=0, seed=0, m=3),
                scalar_config(["1/2"] * 6),
                "config has n = 6",
            ),
        ],
    )
    def test_configs_outside_the_cell_are_refused(self, problem, cfg, message):
        x = (F(1),) * cfg.dim
        with pytest.raises(ValueError, match=message):
            certify(problem, cfg, x)
        with pytest.raises(ValueError, match=message):
            margin_rows(problem, cfg)


# configs the n = 3, d = 1 sign cell refuses, and the one message for each
BAD_CONFIGS = {
    "too-many-weights": (
        scalar_config(["1/2"] * 4),
        "config has n = 4; the cell allows n in 1..3",
    ),
    "d-outside-cell": (
        WeightConfig.of(2, ((F(1, 2), F(1, 2)),)),
        "config has d = 2; the cell explores d in [1]",
    ),
    "zero-weight": (
        scalar_config(["0", "1/2"], allow_zero=True),
        "search configs need non-zero weights",
    ),
    "weight-outside-ball": (
        scalar_config(["3/2"], l2_unit_ball=False),
        "weight ['3/2'] is outside the L2 unit ball",
    ),
}


class TestWeightGate:
    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    def test_one_refusal_for_certify_margins_and_resume(self, tmp_path, name):
        # the weights of a config to certify or rescore and of a checkpoint
        # pass one check, so each path refuses a config with the same message
        cfg, message = BAD_CONFIGS[name]
        problem = l2_problem(n=3, d=1, budget=20)
        ckpt = tmp_path / "state.json"
        anneal(problem, AnnealSettings(chains=1), checkpoint_path=str(ckpt))
        payload = json.loads(ckpt.read_text())
        weights = [vec_strs(w) for w in cfg.weights]
        payload["chains"][0].update(d=cfg.dim, n=cfg.n, weights=weights)
        ckpt.write_text(json.dumps(payload))
        calls = {
            "certify": lambda: certify(problem, cfg, (F(1),) * cfg.dim),
            "margin_rows": lambda: margin_rows(problem, cfg),
            "resume": lambda: anneal(problem, resume=str(ckpt)),
        }
        errors = {}
        for path, call in calls.items():
            with pytest.raises(ValueError) as exc:
                call()
            errors[path] = str(exc.value)
        assert errors == {
            "certify": message,
            "margin_rows": message,
            "resume": f"{ckpt}: checkpoint chain 0: {message}",
        }


def two_point_law_is_sign_law(cfg) -> bool:
    """A two-point progression support is the sign pair {-1, +1}."""
    two_point = ap_uniform_sum_distribution(APUniformSpec(2), cfg)
    return two_point.atoms == full_distribution(cfg).atoms


class TestTwoPointReduction:
    def test_known_pair(self):
        assert two_point_law_is_sign_law(scalar_config(["1/4", "1/4"]))

    def test_random_configs(self):
        for cfg in ConfigGenerator(n=4, d=2, seed=41, count=25).configs():
            assert two_point_law_is_sign_law(cfg)


class TestCertify:
    @given(search_cells())
    def test_pinned_to_brute_force_oracles(self, cell):
        # every non-zero atom, one point off the law's lattice and, where the
        # conjecture states a bound there, the origin
        problem, cfg = cell
        law = brute_law(problem, cfg.weights)
        points = [x for x in sorted(law) if any(x)]
        scale, _ = lattice(cfg.weights)
        far = max(points, key=norm_sq)
        points.append((far[0] + F(1, 2 * scale),) + far[1:])
        if problem.conjecture == 2:
            points.append((F(0),) * cfg.dim)
        for x in points:
            outcome = certify(problem, cfg, x)
            lhs, rhs = law.get(x, F(0)), oracle_bound(problem, cfg.n, x)
            assert (outcome.x, outcome.lhs, outcome.rhs) == (x, lhs, rhs)
            assert outcome.margin == lhs - rhs
            if rhs != 0 and lhs > rhs:
                assert isinstance(outcome, CounterexampleCertificate)
            else:
                assert isinstance(outcome, Refutation)
                assert outcome.rhs_zero == (rhs == 0)

    def test_rejects_a_target_of_the_wrong_dimension(self):
        cfg = WeightConfig.of(2, ((F(1, 2), F(1, 2)),) * 3)
        for problem in (l2_problem(n=3, d=2), SearchProblem(conjecture=1, n=3, d=2, budget=0, seed=0, m=3)):
            with pytest.raises(ValueError, match="expected dim 2"):
                certify(problem, cfg, (F(2),))

    def test_mixed_norm_certificate(self):
        problem = l2_problem(n=3, d=2, constraint_norm=NormSpec("Linf"))
        cfg = WeightConfig.of(
            2, ((F(1), F(1)),) * 3, l2_unit_ball=False
        )
        outcome = certify(problem, cfg, (F(1), F(1)))
        assert isinstance(outcome, CounterexampleCertificate)
        assert outcome.lhs == F(3, 8)
        assert outcome.rhs == F(1, 8)
        assert outcome.margin == F(1, 4)
        assert outcome.to_json()["certificate"] is True

    def test_touching_the_bound_refutes(self):
        cfg = scalar_config(["1", "1", "1"])
        outcome = certify(l2_problem(n=3), cfg, (F(1),))
        assert isinstance(outcome, Refutation)
        assert outcome.margin == 0
        assert not outcome.rhs_zero
        assert outcome.to_json() == {
            "certificate": False,
            "problem": {
                "conjecture": 2, "n": 3, "d": 1, "budget": 0, "seed": 0,
                "m": None, "norm": None, "constraint_norm": None,
            },
            "config": {
                "dim": 1, "allow_zero": False, "l2_unit_ball": True,
                "weights": [["1/1"], ["1/1"], ["1/1"]],
            },
            "x": ["1/1"],
            "lhs": "3/8",
            "rhs": "3/8",
            "margin": "0/1",
            "rhs_zero": False,
        }

    def test_zero_bound_refutes_without_certifying(self):
        # Odd m puts the unit progression sum on even integers, so the
        # stated bound at odd k is 0; a positive lhs there is flagged,
        # never certified.
        problem = SearchProblem(conjecture=1, n=1, d=1, budget=0, seed=0, m=3)
        cfg = scalar_config(["1/2"])
        outcome = certify(problem, cfg, (F(1),))
        assert isinstance(outcome, Refutation)
        assert outcome.rhs_zero
        assert outcome.lhs == F(1, 3)
        assert outcome.rhs == 0
        assert outcome.to_json() == {
            "certificate": False,
            "problem": {
                "conjecture": 1, "n": 1, "d": 1, "budget": 0, "seed": 0,
                "m": 3, "norm": None, "constraint_norm": None,
            },
            "config": {
                "dim": 1, "allow_zero": False, "l2_unit_ball": True,
                "weights": [["1/2"]],
            },
            "x": ["1/1"],
            "lhs": "1/3",
            "rhs": "0/1",
            "margin": "1/3",
            "rhs_zero": True,
        }

    def test_progression_cell(self):
        problem = SearchProblem(conjecture=1, n=2, d=1, budget=0, seed=0, m=3)
        cfg = scalar_config(["1", "1"])
        outcome = certify(problem, cfg, (F(2),))
        assert isinstance(outcome, Refutation)
        assert outcome.lhs == F(2, 9)
        assert outcome.rhs == F(2, 9)


class TestAnnealSettings:
    def test_defaults_are_valid(self):
        assert AnnealSettings().chains == 4

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown anneal settings"):
            AnnealSettings.from_json({"chains": 2, "temperature": 1.0})

    def test_from_file(self, tmp_path):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps({"chains": 2, "cooling_iters": 50}))
        settings = AnnealSettings.from_file(str(path))
        assert settings.chains == 2
        assert settings.cooling_iters == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealSettings(chains=0)
        with pytest.raises(ValueError):
            AnnealSettings(t_start=0.01, t_end=0.1)
        with pytest.raises(ValueError):
            AnnealSettings(stagnation_fraction=0)


@st.composite
def walk_starts(draw):
    """A cell, its grid, a seed and a chain state of weights on or off the grid."""
    kind = draw(st.sampled_from(NORM_KINDS))
    d = draw(st.integers(min_value=1, max_value=3))
    diag = ()
    if kind == "WeightedDiagonalL2":
        coeff = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)
        diag = tuple(draw(coeff) for _ in range(d))
    n_max = draw(st.integers(min_value=1, max_value=5))
    problem = l2_problem(n=n_max, d=d, norm=NormSpec(kind, diag))
    weights = draw(
        st.lists(weight_vectors(d, max_denominator=9), min_size=1, max_size=n_max)
    )
    grid = draw(st.sampled_from((1, 2, 3, 7, 16)))
    return problem, grid, draw(st.integers(min_value=0, max_value=2**32)), weights


def planar_start(norm, grid, weights):
    problem = l2_problem(n=4, d=2, norm=norm)
    return problem, grid, 5, [tuple(map(F, w)) for w in weights]


class TestProposal:
    @given(walk_starts())
    @example(planar_start(NormSpec("L2"), 16, [("1/3", "2/7"), ("-3/5", "1/7")]))
    @example(planar_start(NormSpec("L1"), 3, [("1/2", "-1/2")]))
    # a ball that holds no point of the grid but 0: weights fall back to 1/32 e1
    @example(planar_start(NormSpec("WeightedDiagonalL2", (1000, 1000)), 16, [("1/32", 0)]))
    def test_integer_walk_is_the_fraction_walk(self, start):
        # the same RNG draws give the same moves: each integer proposal is
        # the lattice of the Fraction reference's, None where it is None
        problem, grid, seed, weights = start
        settings = AnnealSettings(grid_denominator=grid)
        state = WeightConfig.of(problem.d, weights, l2_unit_ball=False)
        chain = _Chain(0, seed, problem.d, Random(seed), state, 0.0, 0.0)
        reference = Random(seed)
        for _ in range(30):
            state = _propose(chain, problem, settings)
            expected = fraction_proposal(
                reference, weights, problem.d, problem.n, problem.weight_norm(), grid
            )
            assert chain.rng.getstate() == reference.getstate()
            if expected is None:
                assert state is None
                continue
            assert state == WeightConfig.of(problem.d, expected, l2_unit_ball=False)
            chain.state, weights = state, expected


class TestRanked:
    def test_a_limit_keeps_the_first_items_of_the_full_order(self):
        # scores and n tie often, as in a chain's stored candidates; the
        # full order breaks ties by the repr of the Fraction weights, and a
        # limit keeps the same first items, each once, in any order
        rng = Random(4)
        top = {}
        for _ in range(200):
            n, scale = rng.randint(1, 3), rng.choice((1, 2, 3, 16))
            points = tuple((rng.randint(-scale, scale),) for _ in range(n))
            state = WeightConfig(1, scale, points, allow_zero=True, l2_unit_ball=False)
            top[state] = rng.choice((0.0, -0.25, -0.5, 0.125))
        full = _ranked(top)
        expected = sorted(
            top.items(), key=lambda item: (-item[1], item[0].n, repr(item[0].weights))
        )
        assert full == expected
        for limit in (1, 5, 16, 64, len(top), 500):
            assert Counter(_ranked(top, limit)) == Counter(full[:limit])


class TestRankedCandidates:
    def test_tied_candidates_are_ordered_by_their_json_alone(self, monkeypatch):
        # margin down (no margin last), then n, then the config's JSON, as one
        # sort on all three; the JSON is written only where margin and n tie
        rng = Random(9)
        cands = {}
        for _ in range(60):
            n = rng.randint(1, 2)
            cfg = scalar_config([F(rng.randint(1, 8), 8) for _ in range(n)])
            margin = rng.choice((F(0), F(-1, 8), F(-rng.randint(1, 40), 64), None))
            cands[cfg] = lolab.search.Candidate(cfg, None, margin, None, None, None, False, 0)
        cands = list(cands.values())

        def full_key(cand):
            margin = cand.margin if cand.margin is not None else F(-2)
            return (-margin, cand.config.n, json.dumps(cand.config.to_json(), sort_keys=True))

        expected = sorted(cands, key=full_key)
        sizes = Counter(full_key(cand)[:2] for cand in cands)
        tied = [cand.config for cand in cands if sizes[full_key(cand)[:2]] > 1]
        written = []
        to_json = WeightConfig.to_json
        monkeypatch.setattr(
            WeightConfig, "to_json", lambda cfg: written.append(cfg) or to_json(cfg)
        )
        got = lolab.search._ranked_candidates(cands)
        assert [id(cand) for cand in got] == [id(cand) for cand in expected]
        assert Counter(written) == Counter(tied) and 0 < len(tied) < len(cands)


FAST = AnnealSettings(chains=2, cooling_iters=50, structured_n_max=6)


class TestAnneal:
    def test_byte_identical_reruns(self):
        problem = l2_problem(n=5, d=2, budget=120, seed=11)
        a = json.dumps(anneal(problem, FAST).to_json(), indent=2, sort_keys=True)
        b = json.dumps(anneal(problem, FAST).to_json(), indent=2, sort_keys=True)
        assert a == b

    def test_clean_cell_certifies_nothing(self):
        problem = l2_problem(n=5, d=2, budget=150, seed=11)
        result = anneal(problem, FAST)
        assert result.certificates == []
        assert result.best_margin is not None and result.best_margin <= 0
        assert result.anneal_evaluations == 150
        assert result.structured_evaluations > 0
        assert result.discrepancies == []
        assert "no violation found" in result.summary()

    def test_structured_sweep_certifies_box_constraint_cell(self):
        problem = l2_problem(
            n=6, d=2, budget=50, seed=3, constraint_norm=NormSpec("Linf")
        )
        result = anneal(problem, FAST)
        assert result.certificates
        cert = result.certificates[0]
        assert cert.margin >= F(1, 4)
        assert "VIOLATION CERTIFIED" in result.summary()

    def test_progression_cell_runs(self):
        problem = SearchProblem(
            conjecture=1, n=4, d=1, budget=80, seed=7, m=3
        )
        result = anneal(problem, FAST)
        assert result.certificates == []
        assert result.anneal_evaluations == 80

    def test_candidates_ranked_by_margin(self):
        problem = l2_problem(n=5, d=1, budget=100, seed=2)
        result = anneal(problem, FAST)
        margins = [
            cand.margin for cand in result.candidates if cand.margin is not None
        ]
        assert margins == sorted(margins, reverse=True)

    def test_checkpoint_resume_extends_budget(self, tmp_path):
        ckpt = tmp_path / "state.json"
        problem = l2_problem(n=4, d=1, budget=60, seed=19)
        anneal(problem, FAST, checkpoint_path=str(ckpt))
        resumed = anneal(
            l2_problem(n=4, d=1, budget=100, seed=19), resume=str(ckpt)
        )
        assert resumed.anneal_evaluations == 100
        assert resumed.structured_evaluations == 0
        assert resumed.settings == FAST

    def test_resume_rejects_other_cell(self, tmp_path):
        ckpt = tmp_path / "state.json"
        anneal(l2_problem(n=4, d=1, budget=40, seed=19), FAST,
               checkpoint_path=str(ckpt))
        with pytest.raises(ValueError, match="different problem"):
            anneal(l2_problem(n=4, d=1, budget=80, seed=20), resume=str(ckpt))

    def test_resume_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not_a_checkpoint.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not an anneal checkpoint"):
            anneal(l2_problem(budget=10), resume=str(path))

    def test_resume_names_missing_checkpoint_fields(self, tmp_path):
        ckpt = tmp_path / "state.json"
        problem = l2_problem(n=4, d=1, budget=20, seed=19)
        anneal(problem, FAST, checkpoint_path=str(ckpt))
        payload = json.loads(ckpt.read_text())
        for key in ("problem", "settings", "chains"):
            partial = {k: v for k, v in payload.items() if k != key}
            ckpt.write_text(json.dumps(partial))
            with pytest.raises(ValueError, match=f"checkpoint has no '{key}' field"):
                anneal(problem, resume=str(ckpt))
        settings = dict(payload["settings"])
        del payload["settings"]["chains"]
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="settings has no 'chains' field"):
            anneal(problem, resume=str(ckpt))
        payload["settings"] = settings
        del payload["chains"][1]["rng_state"]
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="chain 1 has no 'rng_state' field"):
            anneal(problem, resume=str(ckpt))
        del payload["problem"]["seed"]
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="problem has no 'seed' field"):
            anneal(problem, resume=str(ckpt))

    def test_kept_states_cover_more_than_16_candidates(self, monkeypatch):
        # a chain keeps at least top_candidates states between prunings, so
        # the report ranks the best of every state scored, as if unpruned
        scores = {}
        score = lolab.search._score

        def recorded(problem, state):
            scores[state], flags = score(problem, state)
            return scores[state], flags

        monkeypatch.setattr(lolab.search, "_score", recorded)
        settings = replace(FAST, chains=1, top_candidates=40, structured_first=False)
        result = anneal(l2_problem(n=6, d=2, budget=1000, seed=4), settings)

        def key(cfg, float_score):
            return json.dumps(cfg.to_json()), float_score

        expected = [
            key(state, s) for state, s in _ranked(scores, 40)
        ]
        got = [key(cand.config, cand.float_score) for cand in result.candidates]
        assert len(got) == 40 and sorted(got) == sorted(expected)

    def test_ledger_appends_one_line_per_run(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        problem = l2_problem(n=4, d=1, budget=30, seed=5)
        result = anneal(problem, FAST, ledger_path=str(ledger))
        append_ledger(result, str(ledger))
        lines = ledger.read_text().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert entry["kind"] == "anneal"
        assert entry["cell"] == {"conjecture": 2, "n": 4, "d": 1,
                                 "norm": "L2", "constraint_norm": "L2"}
        assert entry["seed"] == 5
        assert entry["evaluations"] == 30 + result.structured_evaluations
        assert entry["certificates"] == 0
