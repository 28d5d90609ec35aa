"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass. Criteria 1 and 9 cache their full report strings so criterion 10
can rerun them fresh and compare bytes.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from conftest import scalar_config

from lolab import (
    APUniformSpec,
    ConfigGenerator,
    SearchProblem,
    TheoremTag,
    WeightConfig,
    anneal,
    ap_uniform_sum_distribution,
    atom_probability,
    build_family,
    derived_seed,
    extremal_config,
    full_distribution,
    is_antichain,
    is_k_intersecting,
    milner_bound,
    milner_report,
    nonuniform_bound,
    parity_correction,
    run_campaign,
    verify_zero_weights_sup,
    zero_odd_bound,
    zero_weights_extremal,
    zero_weights_sup,
)

ACCEPT_SEED = 7
_cache: dict[str, object] = {}
_reporter = None


@pytest.fixture(autouse=True)
def _terminal_reporter(request):
    # Route the criterion lines through pytest's own writer so they stay
    # visible under output capture, not only with -s.
    global _reporter
    _reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _emit(line: str) -> None:
    if _reporter is not None:
        _reporter.write_line(line)
    else:
        print(line)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        _emit(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    _emit(f"ACCEPTANCE {number} ({label}): PASS")


def e1_copies(n: int, d: int) -> WeightConfig:
    w = (Fraction(1),) + (Fraction(0),) * (d - 1)
    return WeightConfig.of(d, [w] * n)


def _json_str(report) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True)


def _run_scalar_campaigns():
    """Criterion 1/4 workload: d=1, n <= 12, 200 configs per n."""
    reports = []
    for n in range(1, 13):
        gen = ConfigGenerator(
            n=n, d=1, seed=derived_seed(ACCEPT_SEED, n), count=200
        )
        reports.append(
            run_campaign(
                gen,
                (TheoremTag.ERDOS_KLEITMAN, TheoremTag.NON_UNIFORM),
                extra_configs=[e1_copies(n, 1)],
            )
        )
    return reports


def _scalar_campaigns():
    if "scalar" not in _cache:
        _cache["scalar"] = _run_scalar_campaigns()
    return _cache["scalar"]


def _run_planar_campaigns():
    """Criterion 2/4 workload: d in {2,3}, n <= 10, 100 configs per cell."""
    reports = []
    for d in (2, 3):
        for n in range(1, 11):
            gen = ConfigGenerator(
                n=n, d=d, seed=derived_seed(ACCEPT_SEED, 100 * d + n), count=100
            )
            reports.append(
                run_campaign(
                    gen,
                    (TheoremTag.ERDOS_KLEITMAN, TheoremTag.NON_UNIFORM),
                    extra_configs=[e1_copies(n, d)],
                )
            )
    return reports


def _planar_campaigns():
    if "planar" not in _cache:
        _cache["planar"] = _run_planar_campaigns()
    return _cache["planar"]


def _run_search_calibration():
    problem = SearchProblem(
        conjecture=2, n=10, d=2, budget=10_000, seed=ACCEPT_SEED
    )
    return anneal(problem)


def _search_calibration():
    if "search" not in _cache:
        _cache["search"] = _run_search_calibration()
    return _cache["search"]


def test_criterion_1_distance_bound_scalar_sweep():
    with criterion(1, "distance bound, d=1, n <= 12, 200 configs per n"):
        for report in _scalar_campaigns():
            bad = [
                v
                for v in report.violations
                if v.theorem is TheoremTag.NON_UNIFORM
            ]
            assert bad == [], bad
            assert report.configs_checked == 201


def test_criterion_2_distance_bound_higher_dimension():
    with criterion(2, "distance bound, d in {2,3}, n <= 10"):
        for report in _planar_campaigns():
            bad = [
                v
                for v in report.violations
                if v.theorem is TheoremTag.NON_UNIFORM
            ]
            assert bad == [], bad
            assert report.configs_checked == 101


def test_criterion_3_extremal_configs_attain_the_bound():
    targets = {
        1: {
            Fraction(1): (Fraction(1),),
            Fraction(9, 4): (Fraction(3, 2),),
            Fraction(4): (Fraction(2),),
            # squared norm 2 has no rational point on the line: skipped.
        },
        2: {
            Fraction(1): (Fraction(3, 5), Fraction(4, 5)),
            Fraction(2): (Fraction(1), Fraction(1)),
            Fraction(9, 4): (Fraction(3, 2), Fraction(0)),
            Fraction(4): (Fraction(6, 5), Fraction(8, 5)),
        },
        3: {
            Fraction(1): (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
            Fraction(2): (Fraction(1), Fraction(1), Fraction(0)),
            Fraction(9, 4): (Fraction(1, 2), Fraction(1), Fraction(1)),
            Fraction(4): (Fraction(2, 3), Fraction(4, 3), Fraction(4, 3)),
        },
    }
    with criterion(3, "extremal configs attain the distance bound"):
        from lolab import norm_sq

        checked = 0
        for n in range(1, 21):
            for d, by_q in targets.items():
                for q, x in by_q.items():
                    assert norm_sq(x) == q
                    report = nonuniform_bound(n, q)
                    if report.k + report.delta > n:
                        # Bound is 0 there; nothing attains it, and the
                        # construction says so instead of inventing one.
                        try:
                            extremal_config(n, d, x)
                        except ValueError:
                            continue
                        raise AssertionError(
                            f"expected out-of-reach error at n={n}, x={x}"
                        )
                    cfg, bound = extremal_config(n, d, x)
                    assert atom_probability(cfg, x) == bound == report.bound
                    checked += 1
        assert checked > 180


def test_criterion_4_uniform_bound_dominance_and_tightness():
    with criterion(4, "uniform central bound holds and is tight"):
        for report in _scalar_campaigns() + _planar_campaigns():
            bad = [
                v
                for v in report.violations
                if v.theorem is TheoremTag.ERDOS_KLEITMAN
            ]
            assert bad == [], bad
            # Config 0 is the pinned all-equal-weights witness.
            assert any(
                rec.config_index == 0
                and rec.theorem is TheoremTag.ERDOS_KLEITMAN
                for rec in report.equalities
            )


def test_criterion_5_odd_summand_zero_bound():
    with criterion(5, "odd-summand zero bound, odd n <= 11, d in {1,2}"):
        hit_the_known_equality = False
        for d in (1, 2):
            for n in (1, 3, 5, 7, 9, 11):
                gen = ConfigGenerator(
                    n=n, d=d, seed=derived_seed(ACCEPT_SEED, 200 * d + n),
                    count=100,
                )
                extra = []
                if d == 1 and n >= 3:
                    extra.append(
                        scalar_config(["1"] + ["1/2"] * (n - 1))
                    )
                report = run_campaign(
                    gen, (TheoremTag.ZERO_ODD,), extra_configs=extra
                )
                assert report.violations == ()
                if d == 1 and n == 3:
                    hit_the_known_equality = any(
                        rec.config_index == 0
                        and rec.value == Fraction(1, 4)
                        for rec in report.equalities
                    )
        assert hit_the_known_equality
        assert atom_probability(
            scalar_config(["1", "1/2", "1/2"]), (0,)
        ) == zero_odd_bound(3) == Fraction(1, 4)


def test_criterion_6_zero_weights_supremum():
    with criterion(6, "zero-weights supremum attained, never exceeded"):
        frozen = {
            1: Fraction(1, 2),
            2: Fraction(1, 4),
            3: Fraction(math.comb(9, 6), 2 ** 9),
        }
        assert frozen[3] == Fraction(21, 128)
        for k, value in frozen.items():
            assert zero_weights_sup(k * k) == value
            cfg, sup = zero_weights_extremal((k,))
            assert cfg.n == k * k
            assert atom_probability(cfg, (k,)) == sup == value
            gen = ConfigGenerator(
                n=1, d=1, seed=derived_seed(ACCEPT_SEED, 300 + k),
                allow_zero=True, count=40,
            )
            assert verify_zero_weights_sup((k,), 12, gen) == (value, [])


def test_criterion_7_atom_families():
    with criterion(7, "atom families: antichain, intersecting, counted"):
        rng = Random(ACCEPT_SEED)
        families_checked = 0
        for i in range(1000):
            n = 1 + i % 14
            ws = [Fraction(rng.randint(1, 16), 16) for _ in range(n)]
            cfg = scalar_config(ws)
            law = full_distribution(cfg)
            # at d = 1 a law's key is its point
            positive = [Fraction(key, law.scale) for key in law.upper_half()]
            picks = sorted({0, len(positive) // 2, len(positive) - 1})
            for idx in picks:
                if not positive:
                    break
                x = positive[idx]
                fam = build_family(cfg, x)
                k = math.ceil(x)
                assert is_antichain(fam)
                assert is_k_intersecting(fam, k)
                assert milner_report(fam, k)["milner"]["holds"]
                assert len(fam) <= milner_bound(n, k)
                assert Fraction(len(fam), 2 ** n) == law.probability((x,))
                families_checked += 1
        assert families_checked > 2500


def test_criterion_8_parity_identity():
    with criterion(8, "parity split identity, exhaustive to 50"):
        for n in range(0, 51):
            for m in range(0, n + 1):
                for k in range(0, n + 1):
                    lhs = parity_correction(m, k) + (-1) ** (m + k) * (
                        parity_correction(n - m, 0)
                    )
                    assert lhs == parity_correction(n, k)


def test_criterion_9_search_calibration():
    with criterion(9, "search certifies nothing on the proved cell"):
        result = _search_calibration()
        assert result.certificates == []
        assert result.best_margin is not None
        assert result.best_margin <= 0
        assert result.anneal_evaluations == 10_000
        for gen in (
            ConfigGenerator(n=6, d=1, seed=derived_seed(ACCEPT_SEED, 400),
                            count=50),
            ConfigGenerator(n=5, d=2, seed=derived_seed(ACCEPT_SEED, 401),
                            count=50),
        ):
            for cfg in gen.configs():
                two_point = ap_uniform_sum_distribution(APUniformSpec(2), cfg)
                assert two_point.atoms == full_distribution(cfg).atoms


def test_criterion_10_byte_identical_reruns():
    with criterion(10, "reruns with the same seeds are byte-identical"):
        first = [_json_str(r) for r in _scalar_campaigns()]
        again = [_json_str(r) for r in _run_scalar_campaigns()]
        assert first == again
        assert _json_str(_search_calibration()) == _json_str(
            _run_search_calibration()
        )
