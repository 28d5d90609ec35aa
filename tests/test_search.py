"""Counterexample search: norms, margins, certification, annealing."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import brute_ap_distribution, brute_sign_distribution, weight_configs
from lolab import (
    AnnealSettings,
    APUniformSpec,
    ConfigGenerator,
    CounterexampleCertificate,
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
from lolab.engine import _denominator_lcm, _scaled
from lolab.rational import l1_norm, linf_norm
from lolab.search import NORM_KINDS, _exact_candidate, _fast_margin

F = Fraction


def triangle_holds(spec: NormSpec, u, v) -> bool:
    """Exact check of norm(u + v) <= norm(u) + norm(v).

    For the Euclidean kinds the inequality is squared twice: with
    b = form(u+v) - form(u) - form(v), it is equivalent to b <= 0 or
    b^2 <= 4 form(u) form(v), so no square roots are needed.
    """
    w = tuple(a + b for a, b in zip(u, v))
    if spec.kind in ("L1", "Linf"):
        value = l1_norm if spec.kind == "L1" else linf_norm
        return value(w) <= value(u) + value(v)
    form = spec._form
    b = form(w) - form(u) - form(v)
    return b <= 0 or b * b <= 4 * form(u) * form(v)


def scaling_holds(spec: NormSpec, v, c: Fraction) -> bool:
    """Exact check of norm(c v) = |c| norm(v)."""
    w = tuple(c * x for x in v)
    if spec.kind in ("L1", "Linf"):
        value = l1_norm if spec.kind == "L1" else linf_norm
        return value(w) == abs(c) * value(v)
    return spec._form(w) == c * c * spec._form(v)


def ceil_norm(spec: NormSpec, v) -> int:
    """Smallest integer >= the norm of v, through the integer ceiling."""
    scale = _denominator_lcm([v])
    return spec.ceil_scaled(_scaled([v], scale)[0], scale)


def witness(problem: SearchProblem, cfg: WeightConfig):
    """The exact rescore's witness atom and margin."""
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
        assert NormSpec("L2").leq_one(v)
        assert not NormSpec("L2").leq_one((F(3, 5), F(4, 5), F(1, 1000)))

    def test_unit_balls(self):
        v = (F(1), F(1))
        assert NormSpec("Linf").leq_one(v)
        assert not NormSpec("L2").leq_one(v)
        assert not NormSpec("L1").leq_one(v)

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
        cfg = WeightConfig.from_scalars(["1", "1", "1"])
        x, margin = witness(l2_problem(n=3), cfg)
        assert (x, margin) == ((F(1),), F(0))

    def test_box_norm_diagonal(self):
        problem = l2_problem(
            n=1, d=2, norm=NormSpec("Linf"), constraint_norm=NormSpec("Linf")
        )
        cfg = WeightConfig(dim=2, weights=((F(1), F(1)),), l2_unit_ball=False)
        x, margin = witness(problem, cfg)
        assert x == (F(1), F(1))
        assert margin == 0

    def test_zero_bound_rows_are_excluded(self):
        problem = SearchProblem(conjecture=1, n=1, d=1, budget=0, seed=0, m=3)
        cfg = WeightConfig.from_scalars(["1/2"])
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
        cfg = WeightConfig(dim=2, weights=((F(1), F(1)),), l2_unit_ball=False)
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
            m=draw(st.sampled_from((3, 4))),
        )
    return problem, cfg


def brute_law(problem, weights) -> dict:
    """The cell's law of weights, by brute-force enumeration."""
    if problem.conjecture == 2:
        return brute_sign_distribution(weights)
    return brute_ap_distribution(weights, problem.m)


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
    return F(brute_law(problem, [(1,)] * n).get((target,), 0))


def oracle_rows(problem, cfg) -> list[MarginRow]:
    """Margin rows from brute-force laws and exact Fraction norms."""
    return [
        MarginRow(x=x, lhs=p, rhs=oracle_bound(problem, cfg.n, x))
        for x, p in sorted(brute_law(problem, cfg.weights).items())
        if any(x)
    ]


class TestMarginCore:
    @given(search_cells())
    def test_pinned_to_brute_force_oracles(self, cell):
        problem, cfg = cell
        assert margin_rows(problem, cfg) == oracle_rows(problem, cfg)
        score, flagged = _fast_margin(problem, cfg.weights)
        cand = _exact_candidate(problem, cfg, float_score=None, structured=False)
        assert flagged == cand.rhs_zero_atoms
        if cand.margin is None:
            assert score == float("-inf")
        else:
            assert score == float(cand.margin)


def two_point_law_is_sign_law(cfg) -> bool:
    """A two-point progression support is the sign pair {-1, +1}."""
    two_point = ap_uniform_sum_distribution(APUniformSpec(2), cfg)
    return two_point.atoms == full_distribution(cfg).atoms


class TestTwoPointReduction:
    def test_known_pair(self):
        assert two_point_law_is_sign_law(WeightConfig.from_scalars(["1/4", "1/4"]))

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
        scale = _denominator_lcm(cfg.weights)
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
        cfg = WeightConfig(dim=2, weights=((F(1, 2), F(1, 2)),) * 3)
        for problem in (l2_problem(n=3, d=2), SearchProblem(conjecture=1, n=3, d=2, budget=0, seed=0, m=3)):
            with pytest.raises(ValueError, match="expected dim 2"):
                certify(problem, cfg, (F(2),))

    def test_mixed_norm_certificate(self):
        problem = l2_problem(n=3, d=2, constraint_norm=NormSpec("Linf"))
        cfg = WeightConfig(
            dim=2, weights=((F(1), F(1)),) * 3, l2_unit_ball=False
        )
        outcome = certify(problem, cfg, (F(1), F(1)))
        assert isinstance(outcome, CounterexampleCertificate)
        assert outcome.lhs == F(3, 8)
        assert outcome.rhs == F(1, 8)
        assert outcome.margin == F(1, 4)
        assert outcome.to_json()["certificate"] is True

    def test_touching_the_bound_refutes(self):
        cfg = WeightConfig.from_scalars(["1", "1", "1"])
        outcome = certify(l2_problem(n=3), cfg, (F(1),), float_score=0.25)
        assert isinstance(outcome, Refutation)
        assert outcome.margin == 0
        assert outcome.float_score == 0.25
        assert not outcome.rhs_zero

    def test_zero_bound_refutes_without_certifying(self):
        # Odd m puts the unit progression sum on even integers, so the
        # stated bound at odd k is 0; a positive lhs there is flagged,
        # never certified.
        problem = SearchProblem(conjecture=1, n=1, d=1, budget=0, seed=0, m=3)
        cfg = WeightConfig.from_scalars(["1/2"])
        outcome = certify(problem, cfg, (F(1),))
        assert isinstance(outcome, Refutation)
        assert outcome.rhs_zero
        assert outcome.lhs == F(1, 3)
        assert outcome.rhs == 0

    def test_progression_cell(self):
        problem = SearchProblem(conjecture=1, n=2, d=1, budget=0, seed=0, m=3)
        cfg = WeightConfig.from_scalars(["1", "1"])
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
