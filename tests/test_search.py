import numpy as np
import pytest

from mcqmclab.chain import make_direct_kernel, run_chain
from mcqmclab.core import Rng, uniform_interval
from mcqmclab.discrepancy import build_quantile_cover, star_discrepancy_exact
from mcqmclab.search import (
    SearchConfig,
    best_of_k,
    fit_loglog_slope,
    invert_to_target,
    rate_study,
)


def _direct():
    return make_direct_kernel(uniform_interval(-1.0, 1.0))


def _metropolis_inversion_system():
    from mcqmclab.ballwalk import make_metropolis_system

    return make_metropolis_system("uniform", 0.0, 2.0, 1)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n=8, k=0, seed=1)
        with pytest.raises(ValueError):
            SearchConfig(n=8, k=1, seed=1, objective="nope")
        with pytest.raises(ValueError):
            SearchConfig(n=8, k=1, seed=1, candidate_kinds=("sobol",))


class TestBestOfK:
    def test_singleton_returns_that_candidate(self):
        cfg = SearchConfig(n=32, k=1, seed=5)
        res = best_of_k(_direct(), cfg)
        assert len(res.all_scores) == 1
        assert res.best_report.upper == res.all_scores[0][1]

    def test_argmin_property(self):
        cfg = SearchConfig(n=64, k=8, seed=2)
        res = best_of_k(_direct(), cfg)
        uppers = [u for _, u in res.all_scores]
        assert res.best_report.upper == min(uppers)
        assert res.best_report.upper <= float(np.median(uppers))

    def test_deterministic(self):
        cfg = SearchConfig(n=64, k=6, seed=9)
        a = best_of_k(_direct(), cfg)
        b = best_of_k(_direct(), cfg)
        assert np.array_equal(a.best_driver.points, b.best_driver.points)
        assert a.all_scores == b.all_scores

    def test_candidate_kinds_cycle(self):
        cfg = SearchConfig(
            n=32, k=3, seed=1, candidate_kinds=("uniform-random", "halton", "shifted-halton")
        )
        res = best_of_k(_direct(), cfg)
        provs = [p for p, _ in res.all_scores]
        assert provs[1] == "halton"
        assert provs[2].startswith("shifted-halton")

    def test_halton_candidate_usually_wins(self):
        # van der Corput driver through the inverse CDF beats random drivers
        cfg = SearchConfig(n=256, k=4, seed=3, candidate_kinds=("uniform-random", "halton"))
        res = best_of_k(_direct(), cfg)
        halton_score = dict(res.all_scores)["halton"]
        assert res.best_report.upper == halton_score

    def test_bracket_objective_requires_cover(self):
        cfg = SearchConfig(n=16, k=2, seed=1, objective="star-bracket")
        with pytest.raises(ValueError):
            best_of_k(_direct(), cfg)

    def test_bracket_objective(self):
        system = _direct()
        cover = build_quantile_cover(system.target, 0.05)
        cfg = SearchConfig(n=64, k=4, seed=4, objective="star-bracket", delta=0.05)
        res = best_of_k(system, cfg, cover=cover)
        assert res.best_report.method == "cover-bracket"

    def test_theory_bound_column(self):
        from mcqmclab.bounds import BoundInputs, corollary_main_bound

        cfg = SearchConfig(n=64, k=2, seed=1)
        res = best_of_k(_direct(), cfg)
        assert res.theory_bound == corollary_main_bound(BoundInputs(n=64, d=1))


class TestInvertToTarget:
    def test_single_target(self):
        system = _metropolis_inversion_system()
        target = np.array([0.25])
        driver = invert_to_target(system, [target], np.array([0.75, 0.25, 0.0]))
        assert driver.n == 1
        assert np.allclose(run_chain(system, driver)[0], target, atol=1e-12)

    def test_midpoint_targets_reach_half_over_n(self):
        system = _metropolis_inversion_system()
        target_measure = uniform_interval(-1.0, 1.0)
        for n in (4, 16):
            q = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
            targets = [np.array([target_measure.inv_cdf(p)]) for p in q]
            t0 = float(targets[0][0])
            driver = invert_to_target(
                system, targets, np.array([0.25 if t0 < 0 else 0.75, abs(t0), 0.0])
            )
            rep = star_discrepancy_exact(run_chain(system, driver), target_measure)
            assert rep.lower == pytest.approx(1.0 / (2.0 * n), abs=1e-12)

    def test_random_target_lists_roundtrip(self):
        system = _metropolis_inversion_system()
        rng = Rng(31)
        for trial in range(100):
            r = rng.split(trial)
            targets = [np.array([2.0 * r.uniform() - 1.0]) for _ in range(10)]
            t0 = float(targets[0][0])
            driver = invert_to_target(
                system, targets, np.array([0.25 if t0 < 0 else 0.75, abs(t0), 0.0])
            )
            assert np.max(np.abs(run_chain(system, driver) - np.stack(targets))) <= 1e-9

    def test_wrong_first_target_rejected(self):
        system = _metropolis_inversion_system()
        with pytest.raises(ValueError):
            invert_to_target(system, [np.array([0.5])], np.array([0.25, 0.5, 0.0]))

    def test_system_without_inverse_rejected(self):
        with pytest.raises(ValueError):
            invert_to_target(_direct(), [np.array([0.0])], np.array([0.5]))


class TestRateStudy:
    def test_rows_and_monotone_ns(self):
        cfg = SearchConfig(n=16, k=2, seed=1)
        rows = rate_study(_direct(), [16, 64], cfg)
        assert [r["n"] for r in rows] == [16, 64]
        assert set(rows[0]) == {
            "n", "seed", "disc_lower", "disc_upper", "theory_bound",
            "beck_bound", "runtime_ms",
        }
        with pytest.raises(ValueError):
            rate_study(_direct(), [64, 16], cfg)

    def test_one_cover_for_every_n(self):
        system = _direct()
        cover = build_quantile_cover(system.target, 0.05)
        cfg = SearchConfig(n=16, k=3, seed=4, objective="star-bracket", delta=0.05)
        rows = rate_study(system, [16, 48], cfg, cover=cover)
        for row in rows:
            single = SearchConfig(n=row["n"], k=3, seed=4, objective="star-bracket", delta=0.05)
            report = best_of_k(system, single, cover=cover).best_report
            assert (row["disc_lower"], row["disc_upper"]) == (report.lower, report.upper)
        with pytest.raises(ValueError, match="requires a cover"):
            rate_study(system, [16], cfg)

    def test_beck_column_golden(self):
        cfg = SearchConfig(n=16, k=1, seed=1)
        rows = rate_study(_direct(), [1024], cfg)
        assert rows[0]["beck_bound"] == 8.859375


class TestFitSlope:
    def test_exact_power_law(self):
        ns = [16, 64, 256]
        vals = [1.0 / (2 * n) for n in ns]
        assert fit_loglog_slope(ns, vals) == pytest.approx(-1.0, abs=1e-12)

    def test_sqrt_law(self):
        ns = [16, 64, 256, 1024]
        vals = [3.0 * n**-0.5 for n in ns]
        assert fit_loglog_slope(ns, vals) == pytest.approx(-0.5, abs=1e-12)
