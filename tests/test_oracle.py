"""Randomized verification campaigns and their reports."""

from __future__ import annotations

import csv
import json
from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from conftest import brute_sign_distribution, weight_configs
from lolab import (
    CAMPAIGN_CHECKS,
    ConfigGenerator,
    TheoremTag,
    WeightConfig,
    derived_seed,
    erdos_kleitman_bound,
    extremal_config,
    full_distribution,
    nonuniform_bound,
    norm_sq,
    run_campaign,
    verify_zero_weights_sup,
    zero_odd_bound,
)
from lolab import oracle
from lolab.cli import main
from lolab.oracle import ViolationRecord, _config_rows

F = Fraction
# atoms at whole multiples of (3/5, 4/5), and (-4/5, 3/5) alone, have
# integer Euclidean norm, where the ceiling must not round up
PYTHAGOREAN = WeightConfig(dim=2, weights=((F(3, 5), F(4, 5)),) * 4)
PYTHAGOREAN_MIXED = WeightConfig(
    dim=2, weights=((F(3, 5), F(4, 5)),) * 4 + ((F(-4, 5), F(3, 5)),)
)


class TestDerivedSeed:
    def test_deterministic_and_distinct(self):
        assert derived_seed(7, 3) == derived_seed(7, 3)
        assert derived_seed(7, 3) != derived_seed(7, 4)
        assert derived_seed(8, 3) != derived_seed(7, 3)

    def test_stays_in_seed_range(self):
        assert 0 <= derived_seed(2 ** 62, 999) < 2 ** 63


class TestConfigGenerator:
    def test_same_seed_same_configs(self):
        gen = ConfigGenerator(n=4, d=2, seed=11, count=5)
        assert gen.configs() == gen.configs()
        assert gen.configs() == ConfigGenerator(n=4, d=2, seed=11, count=5).configs()

    def test_different_seeds_differ(self):
        a = ConfigGenerator(n=4, d=2, seed=11, count=5).configs()
        b = ConfigGenerator(n=4, d=2, seed=12, count=5).configs()
        assert a != b

    def test_shape_and_ball(self):
        for cfg in ConfigGenerator(n=3, d=2, seed=0, count=20).configs():
            assert cfg.n == 3 and cfg.dim == 2
            for w in cfg.weights:
                assert 0 < norm_sq(w) <= 1
                for c in w:
                    assert c.denominator in (1, 2, 4, 8, 16)

    def test_allow_zero_flows_through(self):
        gen = ConfigGenerator(n=2, d=1, seed=3, allow_zero=True, count=50)
        weights = [w for cfg in gen.configs() for w in cfg.weights]
        assert any(norm_sq(w) == 0 for w in weights)

    def test_grid_denominator(self):
        gen = ConfigGenerator(n=2, d=1, seed=5, grid_denominator=3, count=10)
        for cfg in gen.configs():
            for (c,) in cfg.weights:
                assert c.denominator in (1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfigGenerator(n=0, d=1, seed=0)
        with pytest.raises(ValueError):
            ConfigGenerator(n=1, d=0, seed=0)


def single_config_violations(cfg, check):
    """Violations of one check on one config, via a campaign of no draws."""
    gen = ConfigGenerator(n=cfg.n, d=cfg.dim, seed=0, count=0)
    return run_campaign(gen, [check], extra_configs=[cfg]).violations


class TestSingleConfigVerifiers:
    def test_no_violations_on_sampled_configs(self):
        for cfg in ConfigGenerator(n=5, d=2, seed=21, count=30).configs():
            for check in CAMPAIGN_CHECKS:
                assert single_config_violations(cfg, check) == ()

    def test_zero_odd_needs_odd_n(self):
        cfg = WeightConfig.from_scalars(["1", "1"])
        with pytest.raises(ValueError, match="odd n"):
            single_config_violations(cfg, TheoremTag.ZERO_ODD)

    def test_zero_weights_rejected(self):
        cfg = WeightConfig.from_scalars(["1", "0"], allow_zero=True)
        with pytest.raises(ValueError, match="non-zero weights"):
            single_config_violations(cfg, TheoremTag.ERDOS_KLEITMAN)

    @given(st.integers(min_value=0, max_value=2 ** 32))
    def test_nonuniform_never_fires(self, seed):
        for cfg in ConfigGenerator(n=4, d=1, seed=seed, count=3).configs():
            assert single_config_violations(cfg, TheoremTag.NON_UNIFORM) == ()


def brute_rows(cfg, check):
    """(x, k, lhs, rhs) of a check, from enumeration and the Fraction bounds."""
    brute = brute_sign_distribution(cfg.weights)
    origin = (F(0),) * cfg.dim
    if check is TheoremTag.NON_UNIFORM:
        rows = []
        for x, p in sorted(brute.items()):
            if x != origin:
                report = nonuniform_bound(cfg.n, norm_sq(x))
                rows.append((x, report.k, p, report.bound))
        return rows
    if check is TheoremTag.ERDOS_KLEITMAN:
        best = max(brute.values())
        argmax = min(x for x, p in brute.items() if p == best)
        return [(argmax, 0, best, erdos_kleitman_bound(cfg.n))]
    return [(origin, 0, brute.get(origin, F(0)), zero_odd_bound(cfg.n))]


def campaign_rows(cfg, check):
    """(x, k, lhs, rhs) of a check, from the campaign's integer rows."""
    law = full_distribution(cfg)
    return [
        (tuple(F(a, law.scale) for a in pt), k, F(count, law.denom), F(bound, law.denom))
        for _, pt, k, count, bound in _config_rows(law, (check,))
    ]


class TestConfigRows:
    @given(weight_configs())
    @example(PYTHAGOREAN)
    @example(PYTHAGOREAN_MIXED)
    def test_pinned_to_brute_force_oracles(self, cfg):
        checks = list(CAMPAIGN_CHECKS)
        if cfg.n % 2 == 0:
            checks.remove(TheoremTag.ZERO_ODD)
        for check in checks:
            assert campaign_rows(cfg, check) == brute_rows(cfg, check)

    def test_integer_norms_keep_their_ceiling(self):
        for cfg, x, k in (
            (PYTHAGOREAN, (F(6, 5), F(8, 5)), 2),
            (PYTHAGOREAN_MIXED, (F(-4, 5), F(3, 5)), 1),
        ):
            rows = campaign_rows(cfg, TheoremTag.NON_UNIFORM)
            assert rows == brute_rows(cfg, TheoremTag.NON_UNIFORM)
            assert norm_sq(x) == k * k
            assert (x, k) in [(row_x, row_k) for row_x, row_k, _, _ in rows]


class TestZeroWeightsSup:
    def test_clean_run(self):
        gen = ConfigGenerator(n=1, d=1, seed=9, allow_zero=True, count=20)
        assert verify_zero_weights_sup((1,), 8, gen) == []

    def test_requires_allow_zero(self):
        gen = ConfigGenerator(n=1, d=1, seed=9, count=5)
        with pytest.raises(ValueError):
            verify_zero_weights_sup((1,), 4, gen)

    def test_requires_matching_dim(self):
        gen = ConfigGenerator(n=1, d=2, seed=9, allow_zero=True, count=5)
        with pytest.raises(ValueError):
            verify_zero_weights_sup((1,), 4, gen)

    def test_rejects_origin(self):
        gen = ConfigGenerator(n=1, d=1, seed=9, allow_zero=True, count=5)
        with pytest.raises(ValueError):
            verify_zero_weights_sup((0,), 4, gen)


class TestRunCampaign:
    def test_clean_campaign(self):
        gen = ConfigGenerator(n=6, d=1, seed=17, count=40)
        report = run_campaign(gen, CAMPAIGN_CHECKS[:2])
        assert report.violations == ()
        assert report.configs_checked == 40
        assert report.atoms_checked > 40
        assert "0 violations" in report.summary()

    def test_extremal_configs_pin_equalities(self):
        gen = ConfigGenerator(n=4, d=1, seed=1, count=2)
        extremal = extremal_config(4, 1, (1,))
        report = run_campaign(
            gen, [TheoremTag.NON_UNIFORM], extra_configs=[extremal]
        )
        assert report.violations == ()
        hits = [
            rec
            for rec in report.equalities
            if rec.config_index == 0 and rec.x == (Fraction(1),)
        ]
        assert len(hits) == 1
        assert hits[0].value == Fraction(1, 4)

    def test_rejects_unknown_check(self):
        gen = ConfigGenerator(n=4, d=1, seed=1, count=1)
        with pytest.raises(ValueError):
            run_campaign(gen, [TheoremTag.ZERO_WEIGHTS_SUP])

    def test_zero_odd_parity_guard(self):
        gen = ConfigGenerator(n=4, d=1, seed=1, count=1)
        with pytest.raises(ValueError):
            run_campaign(gen, [TheoremTag.ZERO_ODD])

    def test_csv_rows(self, tmp_path):
        gen = ConfigGenerator(n=3, d=1, seed=2, count=4)
        path = tmp_path / "rows.csv"
        report = run_campaign(gen, [TheoremTag.NON_UNIFORM], csv_path=str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "d", "k", "lhs", "rhs", "equality"]
        assert len(rows) - 1 == report.atoms_checked
        for row in rows[1:]:
            assert row[0] == "3" and row[1] == "1"
            assert "/" in row[3] or row[3] == "0/1"

    def test_report_bytes_deterministic(self):
        def run():
            gen = ConfigGenerator(n=5, d=2, seed=13, count=10)
            report = run_campaign(gen, CAMPAIGN_CHECKS)
            return json.dumps(report.to_json(), indent=2, sort_keys=True)

        assert run() == run()

    def test_report_json_shape(self):
        gen = ConfigGenerator(n=3, d=1, seed=2, count=4)
        report = run_campaign(gen, [TheoremTag.ERDOS_KLEITMAN])
        blob = json.loads(json.dumps(report.to_json(), indent=2, sort_keys=True))
        assert blob["generator"]["seed"] == 2
        assert blob["checks"] == ["ErdosKleitman"]
        assert blob["violations"] == []
        assert blob["configs_checked"] == 4


class TestCampaignViolation:
    """The violation branch, driven by a lowered Erdos-Kleitman bound."""

    @pytest.fixture(autouse=True)
    def bound_of_one_draw(self, monkeypatch):
        # 1/2^n is attained by every law whose 2^n atoms are distinct, so
        # only a law with a repeated atom exceeds it, at its most likely atom
        monkeypatch.setattr(oracle, "erdos_kleitman_bound", lambda n: F(1, 2 ** n))

    def test_exact_record_report_and_csv(self, tmp_path):
        repeated = WeightConfig.from_scalars(["1", "1", "1/2"])
        distinct = WeightConfig.from_scalars(["1", "1/2", "1/4"])
        gen = ConfigGenerator(n=3, d=1, seed=0, count=0)
        path = tmp_path / "rows.csv"
        report = run_campaign(
            gen,
            [TheoremTag.ERDOS_KLEITMAN],
            extra_configs=[repeated, distinct],
            csv_path=str(path),
        )
        # +-1/2 are each hit twice out of 8 draws; the least of them is reported
        expected = ViolationRecord(
            repeated, (F(-1, 2),), F(1, 4), F(1, 8), TheoremTag.ERDOS_KLEITMAN
        )
        assert report.violations == (expected,)
        assert [(e.config_index, e.x, e.value) for e in report.equalities] == [
            (1, (F(-7, 4),), F(1, 8))
        ]
        blob = json.loads(json.dumps(report.to_json(), indent=2, sort_keys=True))
        assert blob["violations"] == [
            {
                "config": repeated.to_json(),
                "x": ["-1/2"],
                "lhs": "1/4",
                "rhs": "1/8",
                "theorem": "ErdosKleitman",
            }
        ]
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1:] == [
            ["3", "1", "0", "1/4", "1/8", "false"],
            ["3", "1", "0", "1/8", "1/8", "true"],
        ]

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    def test_verify_exits_one(self, capsys, tmp_path, fmt):
        # on the grid of denominator 1 every weight is +-1, so each law has
        # its most likely atom at -1 with mass 3/8
        out = tmp_path / ("report." + fmt)
        argv = ["verify", "--theorem", "1", "--n", "3", "--count", "2"]
        argv += ["--denominator", "1", "--format", fmt, "--out", str(out)]
        assert main(argv) == 1
        assert "2 violations" in capsys.readouterr().out
        if fmt == "json":
            violations = json.loads(out.read_text())["violations"]
            assert [(v["x"], v["lhs"], v["rhs"]) for v in violations] == [
                (["-1/1"], "3/8", "1/8")
            ] * 2
        else:
            rows = list(csv.reader(out.read_text().splitlines()))
            assert rows[1:] == [["3", "1", "0", "3/8", "1/8", "false"]] * 2
