"""Tests of the benchmark's reference computations.

Run with ``python3 -m pytest -q bench``.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, special

import refcalc as rc

CORNERS = [
    (0.3, 0.2), (-0.4, 0.7), (0.9, -0.3), (-0.95, -0.1), (0.0, 0.0),
    (0.6, np.inf), (np.inf, -0.5), (1.5, 0.99), (-0.2, -0.999),
]


def _dblquad_mass(rho, c1, c2):
    def h(x):
        return math.sqrt(max(1.0 - x * x, 0.0))

    top = min(c1, 1.0)
    if top <= -1.0:
        return 0.0
    num, _ = integrate.dblquad(
        lambda y, x: rho(x), -1.0, top,
        lambda x: -h(x), lambda x: max(min(c2, h(x)), -h(x)),
        epsabs=1e-12, epsrel=1e-12,
    )
    den, _ = integrate.dblquad(
        lambda y, x: rho(x), -1.0, 1.0, lambda x: -h(x), h, epsabs=1e-12, epsrel=1e-12
    )
    return num / den


@pytest.mark.parametrize("c1,c2", CORNERS)
def test_uniform_disc_mass_matches_dblquad(c1, c2):
    ref = _dblquad_mass(lambda x: 1.0, c1, c2)
    assert abs(float(rc.uniform_disc_mass(c1, c2)) - ref) < 1e-9


@pytest.mark.parametrize("c1,c2", CORNERS)
def test_exp_linear_disc_mass_matches_dblquad(c1, c2):
    mass = rc.exp_linear_disc_mass(1.0)
    ref = _dblquad_mass(lambda x: math.exp(x), c1, c2)
    assert abs(float(mass(c1, c2)) - ref) < 1e-9


def test_gauss_legendre_rule_agrees_with_closed_form_disc():
    c1, c2 = np.meshgrid(np.linspace(-1.1, 1.1, 23), np.linspace(-1.1, 1.1, 23))
    gl = rc.exp_linear_disc_mass(0.0)(c1, c2)
    assert np.max(np.abs(gl - rc.uniform_disc_mass(c1, c2))) < 1e-13


def test_exp_linear_disc_normalizer_is_bessel_closed_form():
    for alpha in (0.5, 1.0, 2.0):
        z = float(rc._exp_disc_raw(alpha, np.inf, np.inf))
        assert abs(z - 2.0 * math.pi * special.i1(alpha) / alpha) < 1e-13


def test_uniform_disc_marginal_cdf():
    for t in (-1.0, -0.7, 0.0, 0.25, 0.8, 1.0):
        ref = _dblquad_mass(lambda x: 1.0, t, np.inf)
        assert abs(float(rc.uniform_disc_marginal_cdf(t)) - ref) < 1e-9
        assert abs(float(rc.uniform_disc_marginal_cdf(t)) - float(rc.uniform_disc_mass(np.inf, t))) < 1e-14


def test_exp_linear_cdf_and_quantile():
    alpha = 1.0
    cdf, q = rc.exp_linear_cdf(alpha), rc.exp_linear_quantile(alpha)
    p = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(cdf(q(p)) - p)) < 1e-14
    for t in (-0.5, 0.3, 0.9):
        num, _ = integrate.quad(lambda x: math.exp(alpha * x), -1.0, t)
        den, _ = integrate.quad(lambda x: math.exp(alpha * x), -1.0, 1.0)
        assert abs(float(cdf(t)) - num / den) < 1e-13


def _brute_1d(x, cdf):
    n = len(x)
    best = 0.0
    for t in list(x) + [np.nextafter(v, np.inf) for v in x] + [np.inf]:
        best = max(best, abs(np.sum(x < t) / n - float(cdf(min(t, 1.0)))))
    return best


def test_ks_formula_matches_brute_force():
    rng = np.random.default_rng(3)
    cdf = rc.exp_linear_cdf(1.0)
    for n in (1, 2, 5, 9):
        x = rng.uniform(-1, 1, n)
        x[: n // 2] = x[0]  # ties, as rejected chain steps produce
        assert abs(rc.ks_statistic(x, cdf) - _brute_1d(x, cdf)) < 1e-12


def test_grid_scan_matches_brute_force():
    rng = np.random.default_rng(5)
    for n in (1, 3, 7):
        r = np.sqrt(rng.uniform(0, 1, n))
        a = rng.uniform(0, 2 * np.pi, n)
        pts = np.column_stack([r * np.cos(a), r * np.sin(a)])
        pts[n // 2] = pts[0]  # a repeated state
        axes = [
            sorted(set(pts[:, j]) | {np.nextafter(v, np.inf) for v in pts[:, j]} | {np.inf})
            for j in range(2)
        ]
        brute = max(
            abs(np.mean(np.all(pts < np.array(c), axis=1)) - float(rc.uniform_disc_mass(*c)))
            for c in itertools.product(*axes)
        )
        assert abs(rc.star_discrepancy_grid(pts, rc.uniform_disc_mass, cells_per_chunk=4) - brute) < 1e-12
        assert rc.critical_corners(pts) == len(axes[0]) * len(axes[1])


def test_splitmix_reference_vector():
    # First output of SplitMix64 from state 0 is 0xE220A8397B1DCDAF.
    assert rc.uniforms(0, 1)[0] == (0xE220A8397B1DCDAF >> 11) * 2.0**-53


def test_ballwalk_replay_stays_in_ball_and_counts_moves():
    for d in (1, 2):
        u = rc.driver(11, 500, rc.ballwalk_driver_dim(d))
        states, moves, boundary = rc.ballwalk_replay(u, rc.ballwalk_gamma_star(1.0, d), 1.0, d)
        assert np.all(np.sum(states**2, axis=1) <= 1.0)
        changed = int(np.sum(np.any(states[1:] != states[:-1], axis=1)))
        assert changed == moves and moves + boundary <= 499


def test_lazy_replay_moves_only_when_coordinate_below_a():
    u = rc.driver(2, 200, 2)
    states = rc.lazy_direct_replay(u, 0.5, rc.exp_linear_quantile(1.0))
    moved = states[1:, 0] != states[:-1, 0]
    assert np.array_equal(moved, u[1:, 1] < 0.5)
