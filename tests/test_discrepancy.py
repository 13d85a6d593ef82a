import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcqmclab.chain import make_direct_kernel, make_lazy_direct_kernel
from mcqmclab.core import (
    AnchoredBox,
    Rng,
    TargetMeasure,
    exp_linear_ball,
    exp_linear_box,
    exp_linear_interval,
    uniform_ball,
    uniform_box,
    uniform_driver,
    uniform_interval,
)
from mcqmclab.discrepancy import (
    COVER_MEMBER_CAP,
    CoverConstructionError,
    DiscrepancyReport,
    ExactScanInfeasible,
    H1Function,
    build_quantile_cover,
    cover_size_bound,
    kh_error_bound,
    pullback_discrepancy_mc,
    star_discrepancy_bracket,
    star_discrepancy_exact,
)


def grid_scan_1d(points, measure, resolution=100_000):
    """Brute-force oracle: evaluate |empirical - mass| on a fine grid of
    corners, both strict and closed at the data points."""
    x = np.sort(np.asarray(points, float).reshape(-1))
    n = len(x)
    lo, hi = measure.domain.bounding()
    grid = np.linspace(lo[0], hi[0], resolution)
    mass = np.asarray(measure.cdf(grid), float)
    emp_lt = np.searchsorted(x, grid, side="left") / n
    emp_le = np.searchsorted(x, grid, side="right") / n
    return max(np.max(np.abs(emp_lt - mass)), np.max(np.abs(emp_le - mass)))


class TestExactScan:
    def test_midpoints_give_half_over_n(self):
        m = uniform_interval(0.0, 1.0)
        for n in (4, 16, 64):
            pts = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
            report = star_discrepancy_exact(pts, m)
            assert report.lower == report.upper
            assert abs(report.lower - 1.0 / (2.0 * n)) <= 1e-12

    def test_single_point(self):
        m = uniform_interval(0.0, 1.0)
        # one point at 0.3: sup is max(0.7 just below 1, 0.3 at the point)
        report = star_discrepancy_exact(np.array([0.3]), m)
        assert report.lower == pytest.approx(0.7, abs=1e-12)

    def test_agrees_with_grid_scan(self):
        m = exp_linear_interval(1.0)
        rng = Rng(77)
        for trial in range(20):
            pts = m.inv_cdf(rng.split(trial).uniforms(30))
            exact = star_discrepancy_exact(pts, m).lower
            oracle = grid_scan_1d(pts, m)
            assert abs(exact - oracle) <= 2e-5
            assert exact >= oracle - 1e-12

    def test_2d_both_branches_needed(self):
        # single point at the quarter-disc corner of U[0,1]^2: closed branch
        # gives |1 - 0.25| = 0.75, strict branch near (1,1) gives |0 - 1| -> 1
        m = uniform_box([0.0, 0.0], [1.0, 1.0])
        report = star_discrepancy_exact(np.array([[0.5, 0.5]]), m)
        assert report.lower == pytest.approx(0.75, abs=1e-12)

    def test_2d_matches_1d_product_structure(self):
        m = uniform_box([0.0, 0.0], [1.0, 1.0])
        rng = Rng(5)
        pts = rng.uniforms(2 * 12).reshape(12, 2)
        report = star_discrepancy_exact(pts, m)
        # sanity bracket: at least the 1-D discrepancy of each projection
        m1 = uniform_interval(0.0, 1.0)
        proj = max(
            star_discrepancy_exact(pts[:, 0], m1).lower,
            star_discrepancy_exact(pts[:, 1], m1).lower,
        )
        assert report.lower >= proj - 1e-12

    def test_refuses_high_dimension(self):
        m = uniform_box([0.0] * 4, [1.0] * 4)
        with pytest.raises(ExactScanInfeasible):
            star_discrepancy_exact(np.zeros((3, 4)), m)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            DiscrepancyReport(lower=0.5, upper=0.4, method="exact-scan")


class TestQuantileCover:
    def test_sizes(self):
        m = uniform_interval(-1.0, 1.0)
        cover = build_quantile_cover(m, 0.1)
        # 10 slabs -> 9 cuts + inf corner + empty set
        assert cover.size == 11

    def test_cut_masses(self):
        m = exp_linear_interval(1.0)
        cover = build_quantile_cover(m, 0.1)
        for cut in cover.cuts[0]:
            assert 0.0 < m.cdf(cut) < 1.0

    def test_bracket_soundness_1d(self):
        m = exp_linear_interval(1.0)
        cover = build_quantile_cover(m, 0.1)
        rng = Rng(9)
        for _ in range(200):
            box = AnchoredBox([-1.0 + 2.0 * rng.uniform()])
            inner, outer = cover.bracket(box)
            assert inner.is_empty or np.all(inner.corner <= box.corner)
            assert np.all(box.corner <= outer.corner)
            gap = cover.mass(outer)[0] - (0.0 if inner.is_empty else cover.mass(inner)[0])
            assert gap <= 0.1 + 1e-8

    def test_bracket_soundness_2d(self):
        m = exp_linear_box(1.0, [-1.0, -1.0], [1.0, 1.0])
        cover = build_quantile_cover(m, 0.1)
        rng = Rng(10)
        for _ in range(200):
            box = AnchoredBox(-1.0 + 2.0 * rng.uniforms(2))
            inner, outer = cover.bracket(box)
            gap = cover.mass(outer)[0] - (0.0 if inner.is_empty else cover.mass(inner)[0])
            assert gap <= 0.1 + 1e-8

    def test_contains_empty_and_full(self):
        cover = build_quantile_cover(uniform_interval(), 0.25)
        corners = cover.corners
        assert np.any(np.all(corners == -np.inf, axis=1))
        assert np.any(np.all(corners == np.inf, axis=1))

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            build_quantile_cover(uniform_interval(), 0.0)

    @pytest.mark.parametrize(
        "make, delta",
        [
            (lambda: uniform_ball(2), 0.1),
            (lambda: exp_linear_box(1.0, [-1.0, -0.5], [1.0, 2.0]), 0.2),
            (lambda: uniform_ball(3), 0.5),
            (lambda: exp_linear_ball(1.0, 2), 0.2),
        ],
    )
    def test_axes_bisected_together_keep_their_cuts(self, make, delta, monkeypatch):
        # every level keeps its own bracket, and every corner is its own
        # row (also under the disc profile rule), so the cuts are those of
        # one axis at a time, bit for bit; the oracle is called once per
        # step for all axes
        measure = make()
        d = measure.dim
        m = math.ceil(d / delta)
        calls = []
        box_masses = measure.box_masses
        monkeypatch.setattr(measure, "box_masses", lambda c: calls.append(len(c)) or box_masses(c))
        want, steps = [], []
        for j in range(d):
            want.append(measure.marginal_quantile(j, np.arange(1, m) / m))
            steps.append(len(calls))
            calls.clear()
        cover = build_quantile_cover(measure, delta)
        for cj, wj in zip(cover.cuts, want):
            assert np.array_equal(cj, wj)
        if measure.exact_marginal_cdf is None:
            # the bisection's steps, then the audit
            assert len(calls) == max(steps) + 1
            assert calls[0] == calls[-1] == d * (m - 1)

    def test_member_cap_admits_covers_below_it(self):
        # (2^19 + 1)^1 members counted; 2^-20 below is refused
        cover = build_quantile_cover(uniform_interval(), 2.0**-19)
        assert cover.size == 2**19 + 1

    @pytest.mark.parametrize("d, delta", [(1, 2.0**-20), (1, 1e-9), (1, 5e-324), (2, 1e-4), (3, 0.01)])
    def test_cover_above_member_cap_refused_before_any_work(self, monkeypatch, d, delta):
        def fail(*args):
            raise AssertionError("the cover computed something")

        for name in ("marginal_quantile", "marginal_cdf", "box_masses", "grid_masses"):
            monkeypatch.setattr(TargetMeasure, name, fail)
        with pytest.raises(CoverConstructionError, match=f"cap of {COVER_MEMBER_CAP}"):
            build_quantile_cover(uniform_box([-1.0] * d, [1.0] * d), delta)


class TestCoverSizeBound:
    def test_golden_d1(self):
        # C_{1/4,1} = sqrt(2) (4 / (e/2 log 2))^2; delta=1 -> (2 + ceil((2C)^{4/3}))^1
        c = 4.0**0.25 * (4.0 / (0.5 * math.e * math.log(2.0))) ** 2.0
        expect = 2 + math.ceil((2.0 * c) ** (4.0 / 3.0))
        assert cover_size_bound(1.0, 1, 0.25) == expect == 192

    def test_monotone_in_delta(self):
        assert cover_size_bound(0.01, 1, 0.25) > cover_size_bound(0.1, 1, 0.25)

    def test_dominates_quantile_construction(self):
        for delta in (0.1, 0.05):
            built = build_quantile_cover(uniform_interval(), delta).size
            assert built <= cover_size_bound(delta, 1, 0.25)


class TestBracketDiscrepancy:
    def test_brackets_exact_value(self):
        m = exp_linear_interval(1.0)
        cover = build_quantile_cover(m, 0.05)
        rng = Rng(21)
        for trial in range(25):
            pts = m.inv_cdf(rng.split(trial).uniforms(40))
            exact = star_discrepancy_exact(pts, m).lower
            br = star_discrepancy_bracket(pts.reshape(-1, 1), m, cover)
            assert br.lower <= exact + 1e-12
            assert exact <= br.upper + 1e-12

    def test_upper_within_delta_of_lower(self):
        m = uniform_interval()
        cover = build_quantile_cover(m, 0.1)
        pts = Rng(3).uniforms(50) * 2.0 - 1.0
        br = star_discrepancy_bracket(pts.reshape(-1, 1), m, cover)
        assert br.upper - br.lower <= 0.1 + 1e-12


class TestPullback:
    def test_direct_kernel_equals_star_within_slack(self):
        system = make_direct_kernel(uniform_interval(-1.0, 1.0))
        cover = build_quantile_cover(system.target, 0.01)
        driver = uniform_driver(64, 1, Rng(4))
        rep = pullback_discrepancy_mc(system, driver, 0, cover, 0, Rng(1))
        assert rep.mc_stderr == 0.0
        from mcqmclab.chain import run_chain

        star = star_discrepancy_exact(run_chain(system, driver), system.target)
        assert abs(rep.lower - star.lower) <= 0.01 + 1e-12

    def test_mc_route_close_to_oracle_route(self):
        system = make_lazy_direct_kernel(uniform_interval(-1.0, 1.0), a=0.5)
        cover = build_quantile_cover(system.target, 0.05)
        driver = uniform_driver(32, 2, Rng(6))
        oracle = pullback_discrepancy_mc(system, driver, 0, cover, 0, Rng(1))
        blind = make_lazy_direct_kernel(uniform_interval(-1.0, 1.0), a=0.5)
        blind.exact_marginal = None
        mc = pullback_discrepancy_mc(blind, driver, 0, cover, 400, Rng(2))
        assert mc.mc_stderr > 0.0
        assert abs(mc.lower - oracle.lower) <= 5.0 * max(mc.mc_stderr, 0.005)

    def test_requires_replications_without_oracle(self):
        system = make_direct_kernel(uniform_interval(-1.0, 1.0))
        system.exact_marginal = None
        cover = build_quantile_cover(system.target, 0.1)
        with pytest.raises(ValueError):
            pullback_discrepancy_mc(system, uniform_driver(8, 1, Rng(0)), 0, cover, 10, Rng(0))

    def test_burn_in_drops_prefix(self):
        system = make_direct_kernel(uniform_interval(-1.0, 1.0))
        cover = build_quantile_cover(system.target, 0.1)
        driver = uniform_driver(40, 1, Rng(8))
        rep = pullback_discrepancy_mc(system, driver, 8, cover, 0, Rng(0))
        assert 0.0 <= rep.lower <= rep.upper <= 1.0


class TestH1Function:
    def test_evaluation_and_norm(self):
        f = H1Function(1.0, [([0.5], 2.0), ([0.0], -1.0)])
        assert f.norm == 4.0
        vals = f(np.array([[-0.5], [0.2], [0.9]]))
        assert np.array_equal(vals, [2.0, 3.0, 1.0])

    def test_constant_function(self):
        f = H1Function(3.0, [])
        assert f.norm == 3.0
        assert np.array_equal(f(np.array([[0.1], [0.9]])), [3.0, 3.0])

    def test_expectation(self):
        m = uniform_interval(0.0, 1.0)
        f = H1Function(1.0, [([0.25], 4.0)])
        val, err = f.expectation(m)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_kh_bound_holds(self):
        m = uniform_interval(0.0, 1.0)
        pts = (2.0 * np.arange(8) + 1.0) / 16.0
        f = H1Function(0.5, [([0.3], 1.0), ([0.8], -2.0)])
        exact_err, bound = kh_error_bound(f, pts, m)
        assert exact_err <= bound + 1e-12

    @given(
        st.floats(-2.0, 2.0),
        st.lists(
            st.tuples(st.floats(0.01, 0.99), st.floats(-3.0, 3.0)),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 1_000_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_kh_bound_property(self, f0, atoms, seed):
        m = uniform_interval(0.0, 1.0)
        f = H1Function(f0, [([z], w) for z, w in atoms])
        pts = Rng(seed).uniforms(20)
        exact_err, bound = kh_error_bound(f, pts, m)
        assert exact_err <= bound + 1e-9
