"""Acceptance suite: one test per criterion, so the verbose pytest run
shows exactly one pass/fail line for each.

Tolerances are pinned in the asserts; statistical checks use 4-sigma
thresholds with fixed seeds so the suite is deterministic.
"""

import dataclasses
import math

import numpy as np
import pytest

from mcqmclab.ballwalk import make_metropolis_system
from mcqmclab.bounds import (
    BoundInputs,
    ballwalk_gap_bound,
    beck_bound,
    corollary_main_bound,
    hoeffding_tail,
    tv_average_bound,
)
from mcqmclab.chain import (
    GeneratorFunction,
    compare_expectation,
    make_direct_kernel,
    make_lazy_direct_kernel,
    run_chain,
    run_chains,
)
from mcqmclab.core import (
    AnchoredBox,
    Rng,
    exp_linear_box,
    exp_linear_interval,
    uniform_box,
    uniform_driver,
    uniform_interval,
)
from mcqmclab.discrepancy import (
    H1Function,
    build_quantile_cover,
    pullback_discrepancy_mc,
    star_discrepancy_bracket,
    star_discrepancy_exact,
)
from mcqmclab.search import SearchConfig, best_of_k, fit_loglog_slope, invert_to_target


def test_criterion_01_formula_golden_values():
    assert hoeffding_tail(
        BoundInputs(n=1000, lambda0=0.0, nu_norm=1.0, c=0.1)
    ) == pytest.approx(2.0 * math.exp(-10.0), rel=1e-9)
    assert corollary_main_bound(
        BoundInputs(n=16, d=1, lambda0=0.0, nu_norm=1.0)
    ) == pytest.approx(1.9747, abs=1e-4)
    assert beck_bound(1024, 1) == 8.859375
    assert tv_average_bound(
        BoundInputs(n=4, lambda0=0.5, nu_norm_centered=1.0)
    ) == 0.46875
    gamma_star, gap = ballwalk_gap_bound(1.0, 1)
    assert gamma_star == pytest.approx(min(1.0 / math.sqrt(2.0), 1.0), abs=1e-12)
    assert gap == pytest.approx(7.8125e-7, abs=1e-12)


def test_criterion_02_exact_discrepancy_oracle():
    m = uniform_interval(0.0, 1.0)
    for n in (4, 16, 64):
        pts = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
        assert abs(star_discrepancy_exact(pts, m).lower - 1.0 / (2.0 * n)) <= 1e-12

    # brute-force grid oracle at resolution 1e5 on 100 random point sets
    grid = np.linspace(0.0, 1.0, 100_000)
    rng = Rng(20240)
    for trial in range(100):
        pts = np.sort(rng.split(trial).uniforms(25))
        emp_lt = np.searchsorted(pts, grid, side="left") / 25.0
        emp_le = np.searchsorted(pts, grid, side="right") / 25.0
        oracle = max(np.max(np.abs(emp_lt - grid)), np.max(np.abs(emp_le - grid)))
        exact = star_discrepancy_exact(pts, m).lower
        assert abs(exact - oracle) <= 2e-5


def test_criterion_03_cover_soundness():
    measures = [
        uniform_interval(-1.0, 1.0),
        exp_linear_interval(1.0),
        uniform_box([-1.0, -1.0], [1.0, 1.0]),
        exp_linear_box(1.0, [-1.0, -1.0], [1.0, 1.0]),
    ]
    for mi, measure in enumerate(measures):
        d = measure.dim
        for delta in (0.1, 0.01):
            cover = build_quantile_cover(measure, delta)
            rng = Rng(500 + mi)
            for _ in range(1000):
                box = AnchoredBox(-1.0 + 2.0 * rng.uniforms(d))
                inner, outer = cover.bracket(box)
                gap = cover.mass(outer)[0] - (
                    0.0 if inner.is_empty else cover.mass(inner)[0]
                )
                assert gap <= delta + 1e-8

    # bracket contains the exact value on 100 random point sets, d <= 2
    for measure in (exp_linear_interval(1.0), exp_linear_box(1.0, [-1, -1], [1, 1])):
        d = measure.dim
        cover = build_quantile_cover(measure, 0.1)
        rng = Rng(900 + d)
        for trial in range(50):
            pts = -1.0 + 2.0 * rng.split(trial).uniforms(15 * d).reshape(15, d)
            exact = star_discrepancy_exact(pts, measure).lower
            br = star_discrepancy_bracket(pts, measure, cover)
            assert br.lower <= exact + 1e-12 <= br.upper + 2e-12


def test_criterion_04_direct_simulation_identity():
    # direct kernel with nu = pi: pull-back discrepancy of the driver equals
    # the star discrepancy of the produced points, up to cover slack
    system = make_direct_kernel(uniform_interval(-1.0, 1.0))
    delta = 0.01
    cover = build_quantile_cover(system.target, delta)
    for seed in range(20):
        driver = uniform_driver(64, 1, Rng(3000 + seed))
        rep = pullback_discrepancy_mc(system, driver, 0, cover, 0, Rng(0))
        assert rep.mc_stderr == 0.0
        star = star_discrepancy_exact(run_chain(system, driver), system.target)
        assert abs(rep.lower - star.lower) <= delta + 1e-12


def test_criterion_05_pullback_vs_star_audit():
    pi = exp_linear_interval(1.0)
    nu = uniform_interval(-1.0, 1.0)
    system = make_lazy_direct_kernel(pi, a=0.5, nu=nu)
    n, delta = 64, 0.01
    cover = build_quantile_cover(pi, delta)

    # exact sup-term: marginal bias decays geometrically, so it factors as
    # (1/n) sum (1-a)^i times sup_t |F_nu(t) - F_pi(t)|
    grid = np.linspace(-1.0, 1.0, 200_001)
    sup_tv = float(np.max(np.abs(nu.cdf(grid) - pi.cdf(grid))))
    geo = (1.0 - 0.5**n) / (n * 0.5)
    sup_term = geo * sup_tv
    tv_bound = tv_average_bound(
        BoundInputs(n=n, lambda0=0.5, nu_norm_centered=system.nu_norm_centered)
    )
    assert sup_term <= tv_bound

    for seed in range(50):
        driver = uniform_driver(n, 2, Rng(4000 + seed))
        rep = pullback_discrepancy_mc(system, driver, 0, cover, 0, Rng(0))
        star = star_discrepancy_exact(run_chain(system, driver), pi)
        diff = abs(star.lower - rep.lower)
        assert diff <= sup_term + delta + 1e-9
        assert diff <= tv_bound + delta + 1e-9


def test_criterion_06_hoeffding_empirical_dominance():
    # direct kernel on U[-1,1]; A = (-1, -0.4) has pi(A) = 0.3
    n, m = 256, 2000
    u = Rng(99).uniforms(m * n).reshape(m, n)
    states = -1.0 + 2.0 * u
    freqs = np.mean(states < -0.4, axis=1)
    for c in (0.05, 0.1):
        violation = float(np.mean(np.abs(freqs - 0.3) >= c))
        bound = hoeffding_tail(BoundInputs(n=n, lambda0=0.0, nu_norm=1.0, c=c))
        assert violation <= bound


def test_criterion_07_existence_realized_best_of_k():
    gamma_star, gap = ballwalk_gap_bound(1.0, 1)
    system = make_metropolis_system("exp-linear", 1.0, gamma_star, 1)
    assert system.lambda0 == 1.0 - gap
    medians = []
    ns = (64, 256, 1024)
    for n in ns:
        bound = corollary_main_bound(
            BoundInputs(n=n, d=1, lambda0=system.lambda0, nu_norm=math.e)
        )
        uppers = []
        for seed in range(10):
            res = best_of_k(system, SearchConfig(n=n, k=32, seed=seed))
            uppers.append(res.best_report.upper)
            assert res.best_report.upper <= bound
        medians.append(float(np.median(uppers)))
    slope = fit_loglog_slope(ns, medians)
    assert -0.65 <= slope <= -0.35


def test_criterion_08_koksma_hlawka_audit():
    m = uniform_interval(-1.0, 1.0)
    rng = Rng(606)
    drivers = [np.sort(-1.0 + 2.0 * rng.split(j).uniforms(64)) for j in range(20)]
    reports = [star_discrepancy_exact(pts, m) for pts in drivers]
    frng = Rng(707)
    for i in range(100):
        r = frng.split(i)
        f0 = 4.0 * r.uniform() - 2.0
        atoms = [
            ([-1.0 + 2.0 * r.uniform()], 6.0 * r.uniform() - 3.0)
            for _ in range(1 + int(r.uniform() * 4))
        ]
        f = H1Function(f0, atoms)
        expect, quad_err = f.expectation(m)
        for pts, rep in zip(drivers, reports):
            err = abs(expect - float(np.mean(f(pts.reshape(-1, 1)))))
            assert err <= f.norm * rep.upper + quad_err + 1e-12


def test_criterion_09_inversion_pipeline():
    system = make_metropolis_system("uniform", 0.0, 2.0, 1)
    target = uniform_interval(-1.0, 1.0)
    ns = (16, 64, 256)
    discs = []
    for n in ns:
        q = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
        targets = [np.array([target.inv_cdf(p)]) for p in q]
        t0 = float(targets[0][0])
        driver = invert_to_target(
            system, targets, np.array([0.25 if t0 < 0 else 0.75, abs(t0), 0.0])
        )
        states = run_chain(system, driver)
        assert np.max(np.abs(states - np.stack(targets))) <= 1e-9
        rep = star_discrepancy_exact(states, target)
        assert abs(rep.lower - 1.0 / (2.0 * n)) <= 1e-12
        discs.append(rep.lower)
    assert fit_loglog_slope(ns, discs) <= -0.9


def test_criterion_10_reversibility_and_stationarity():
    gamma = 1.0 / math.sqrt(2.0)
    system = make_metropolis_system("uniform", 0.0, gamma, 1)

    # detailed balance: empirical flows A -> B and B -> A from a long
    # stationary-start run agree within 4 standard errors
    N = 200_000
    x = run_chain(system, uniform_driver(N, system.s, Rng(314)))[:, 0]
    in_a = (x >= -1.0) & (x < -0.2)
    in_b = (x >= 0.1) & (x < 0.9)
    flow_ab = (in_a[:-1] & in_b[1:]).astype(float)
    flow_ba = (in_b[:-1] & in_a[1:]).astype(float)
    se = math.sqrt((flow_ab.var() + flow_ba.var()) / (N - 1))
    assert abs(flow_ab.mean() - flow_ba.mean()) <= 4.0 * se

    # k-step stationarity: pi-distributed starts stay pi-distributed; each
    # start -1 + 2 u enters as the first coordinate of its driver's point 0
    starts = dataclasses.replace(
        system, generator=GeneratorFunction(system.s, lambda U: -1.0 + 2.0 * U[:, :1])
    )
    m = 20_000
    for k in (1, 10):
        rng = Rng(2718).split(k)
        first = np.zeros((m, 1, 3))
        first[:, 0, 0] = rng.uniforms(m)
        drv = rng.uniforms(m * k * 3).reshape(m, k, 3)
        states = run_chains(starts, np.concatenate([first, drv], axis=1))[:, -1, 0]
        for t in (-0.5, 0.0, 0.5):
            exact = (t + 1.0) / 2.0
            emp = float(np.mean(states < t))
            se = math.sqrt(exact * (1.0 - exact) / m)
            assert abs(emp - exact) <= 4.0 * se

    # update-function law: driver route vs independent rejection sampler
    exp_system = make_metropolis_system("exp-linear", 1.0, gamma, 1)

    def F(chain_states):
        return 1.0 if chain_states[-1][0] < 0.0 else 0.0

    a, b, stderr = compare_expectation(exp_system, F, i=5, m=4000, rng=Rng(17))
    assert abs(a - b) <= 4.0 * stderr
