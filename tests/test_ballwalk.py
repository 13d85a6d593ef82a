import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcqmclab.ballwalk import (
    BallWalkParams,
    LogDensity,
    ball_generator,
    density_presets,
    invert_update,
    make_metropolis_system,
    metropolis_update,
    sphere_generator,
)
from mcqmclab.chain import nu_density_norm, run_chain
from mcqmclab.core import (
    Rng,
    exp_linear_interval,
    uniform_driver,
    uniform_interval,
)


class TestSphereGenerator:
    def test_d1_sign_convention(self):
        assert sphere_generator([0.2], 1)[0] == -1.0
        assert sphere_generator([0.7], 1)[0] == 1.0

    def test_d2_angle_zero(self):
        assert np.allclose(sphere_generator([0.0], 2), [1.0, 0.0], atol=1e-15)

    def test_d3_equatorial(self):
        assert np.allclose(sphere_generator([0.5, 0.0], 3), [1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unit_norm(self, d):
        rng = Rng(1)
        for _ in range(50):
            x = sphere_generator(rng.uniforms(d - 1), d)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_mean_is_zero(self, d):
        n = 100_000
        u = Rng(42).uniforms(n * (d - 1)).reshape(n, d - 1)
        pts = np.array([sphere_generator(v, d) for v in u])
        tol = 3.0 / math.sqrt(n)
        assert np.all(np.abs(pts.mean(axis=0)) < tol)

    def test_d4_marginal_symmetry(self):
        n = 4000
        u = Rng(7).uniforms(n * 3).reshape(n, 3)
        pts = np.array([sphere_generator(v, 4) for v in u])
        assert np.all(np.abs(pts.mean(axis=0)) < 4.0 / math.sqrt(n))


class TestBallGenerator:
    def test_boundary_when_last_coordinate_one(self):
        for d in (1, 2, 3):
            v = np.concatenate([np.full(max(d - 1, 1), 0.3), [1.0]])
            x = ball_generator(v, 0.7, d)
            assert np.linalg.norm(x) == pytest.approx(0.7, abs=1e-12)

    @given(
        st.integers(1, 5),
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308]),
                st.floats(0.0, 2.2250738585072014e-308),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_radius_root_is_python_pow(self, d, radii):
        # leading coordinates 0 put the direction on an axis (up to the sign
        # in d = 1), so the largest |x_j| is the radius itself
        v = np.column_stack([np.zeros((len(radii), max(d - 1, 1))), radii])
        radius = np.max(np.abs(ball_generator(v, 1.0, d)), axis=-1)
        assert np.array_equal(radius, [pow(r, 1.0 / d) for r in radii])
        if d == 1:
            assert np.array_equal(radius, radii)

    def test_d2_golden(self):
        x = ball_generator([0.25, 0.25], 1.0, 2)
        assert np.allclose(x, [0.0, 0.5], atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_volume_ratio(self, d):
        # P(||X|| <= gamma/2) = 2^{-d} for the uniform ball law
        n = 40_000
        dim = max(d - 1, 1) + 1
        u = Rng(13).uniforms(n * dim).reshape(n, dim)
        norms = np.array([np.linalg.norm(ball_generator(v, 1.0, d)) for v in u])
        frac = float(np.mean(norms <= 0.5))
        p = 2.0**-d
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(frac - p) < 4.0 * sigma


class TestLogDensity:
    def test_presets(self):
        uni = density_presets("uniform", 0.0, 2)
        assert uni.alpha == 0.0 and uni.log_rho(np.array([0.3, 0.1])) == 0.0
        exp = density_presets("exp-linear", 1.0, 2)
        x, y = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        assert abs(exp.log_rho(x) - exp.log_rho(y)) == pytest.approx(
            exp.alpha * np.linalg.norm(x - y)
        )

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            density_presets("gauss", 1.0, 2)

    @pytest.mark.parametrize("name,alpha", [("uniform", 0.0), ("exp-linear", 1.0)])
    def test_membership_audit(self, name, alpha):
        density_presets(name, alpha, 2).audit(2, Rng(3), pairs=10_000)

    def test_audit_catches_violations(self):
        bad = LogDensity(
            log_rho=lambda x: float(np.sum(np.atleast_1d(x) ** 2)),
            alpha=0.01,
            concavity_witness="asserted",
        )
        with pytest.raises(AssertionError):
            bad.audit(2, Rng(1), pairs=500)


class TestMetropolisUpdate:
    def test_uniform_density_reduces_to_membership(self):
        params = BallWalkParams(0.5, 2)
        dens = density_presets("uniform", 0.0, 2)
        x = np.zeros(2)
        # v_acc = 1 is the hardest threshold; still accepted since ratio = 1
        u = np.array([0.0, 0.5, 1.0])
        y = metropolis_update(x, u, params, dens)
        assert not np.array_equal(y, x)

    def test_boundary_outward_proposal_stays(self):
        params = BallWalkParams(0.5, 2)
        dens = density_presets("uniform", 0.0, 2)
        x = np.array([1.0, 0.0])
        u = np.array([0.0, 1.0, 0.0])  # propose +gamma in direction (1,0)
        assert np.array_equal(metropolis_update(x, u, params, dens), x)

    def test_zero_acceptance_coordinate_always_moves(self):
        params = BallWalkParams(0.3, 2)
        dens = density_presets("exp-linear", 5.0, 2)
        x = np.array([0.2, 0.0])
        u = np.array([0.5, 0.8, 0.0])  # downhill proposal, v = 0
        y = metropolis_update(x, u, params, dens)
        assert not np.array_equal(y, x)

    def test_driver_dimension_checked(self):
        params = BallWalkParams(0.5, 2)
        dens = density_presets("uniform", 0.0, 2)
        with pytest.raises(ValueError):
            metropolis_update(np.zeros(2), np.array([0.1, 0.2]), params, dens)

    def test_d1_convention_uses_three_coordinates(self):
        params = BallWalkParams(0.5, 1)
        assert params.proposal_dim == 2 and params.driver_dim == 3
        dens = density_presets("uniform", 0.0, 1)
        y = metropolis_update(np.array([0.0]), np.array([0.2, 0.6, 0.0]), params, dens)
        assert y[0] == pytest.approx(-0.3)


class TestInvertUpdate:
    def test_golden_d2(self):
        params = BallWalkParams(2.0, 2)
        dens = density_presets("uniform", 0.0, 2)
        u = invert_update(np.zeros(2), np.array([0.3, 0.0]), params, dens)
        assert np.allclose(u, [0.0, 0.0225, 0.0], atol=1e-12)

    def test_stay_branch(self):
        params = BallWalkParams(2.0, 2)
        dens = density_presets("uniform", 0.0, 2)
        x = np.array([0.5, 0.0])
        u = invert_update(x, x, params, dens)
        assert np.array_equal(metropolis_update(x, u, params, dens), x)

    def test_stay_branch_at_origin(self):
        params = BallWalkParams(2.0, 2)
        dens = density_presets("uniform", 0.0, 2)
        u = invert_update(np.zeros(2), np.zeros(2), params, dens)
        assert np.array_equal(metropolis_update(np.zeros(2), u, params, dens), np.zeros(2))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_roundtrips(self, d):
        params = BallWalkParams(2.0, d)
        dens = density_presets("exp-linear", 1.0, d)
        rng = Rng(d)
        for _ in range(1000):
            x = _ball_point(d, rng)
            y = _ball_point(d, rng)
            u = invert_update(x, y, params, dens)
            assert np.all(u >= 0.0) and np.all(u <= 1.0)
            out = metropolis_update(x, u, params, dens)
            assert np.max(np.abs(out - y)) <= 1e-9

    def test_refuses_high_dimension(self):
        params = BallWalkParams(2.0, 4)
        dens = density_presets("uniform", 0.0, 4)
        with pytest.raises(NotImplementedError):
            invert_update(np.zeros(4), np.zeros(4), params, dens)

    def test_refuses_far_targets(self):
        params = BallWalkParams(1.0, 2)
        dens = density_presets("uniform", 0.0, 2)
        with pytest.raises(ValueError):
            invert_update(np.array([-0.9, 0.0]), np.array([0.9, 0.0]), params, dens)


def _ball_point(d, rng):
    while True:
        x = 2.0 * rng.uniforms(d) - 1.0
        if np.dot(x, x) <= 1.0:
            return x


class TestSystemAssembly:
    def test_norm_certificate_dominates_quadrature_norm(self):
        # nu uniform vs pi prop. e^{alpha x} on [-1,1]: certified e^alpha
        nu = uniform_interval(-1.0, 1.0)
        pi = exp_linear_interval(1.0)
        assert nu_density_norm(nu, pi) <= math.exp(1.0)
        system = make_metropolis_system("exp-linear", 1.0, 0.5, 1)
        assert system.nu_density_norm == math.exp(1.0)

    def test_lambda0_set_only_at_gamma_star(self):
        from mcqmclab.bounds import ballwalk_gap_bound

        gamma_star, gap = ballwalk_gap_bound(1.0, 1)
        at_star = make_metropolis_system("exp-linear", 1.0, gamma_star, 1)
        assert at_star.lambda0 == pytest.approx(1.0 - gap, abs=1e-15)
        inversion = make_metropolis_system("exp-linear", 1.0, 2.0, 1)
        assert inversion.lambda0 is None

    def test_chain_stays_in_ball(self):
        system = make_metropolis_system("exp-linear", 1.0, 0.5, 2)
        driver = uniform_driver(300, system.s, Rng(2))
        states = run_chain(system, driver)
        assert np.all(np.sum(states**2, axis=1) <= 1.0 + 1e-12)

    def test_update_function_law_matches_kernel_sampler(self):
        # same transition law through the driver route and the independent
        # rejection sampler, compared on a box indicator after 5 steps
        from mcqmclab.chain import compare_expectation

        system = make_metropolis_system("exp-linear", 1.0, 0.5, 1)

        def F(states):
            return 1.0 if states[-1][0] < 0.0 else 0.0

        a, b, stderr = compare_expectation(system, F, i=5, m=4000, rng=Rng(17))
        assert abs(a - b) <= 4.0 * stderr
