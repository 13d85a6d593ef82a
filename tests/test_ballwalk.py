import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_route import ballwalk_sampler, compare_expectation, metropolis_update
from mcqmclab.ballwalk import (
    BallWalkParams,
    ball_generator,
    invert_update,
    make_metropolis_system,
)
from mcqmclab.chain import nu_density_norm, run_chains
from mcqmclab.core import (
    Rng,
    exp_linear_interval,
    uniform_driver,
    uniform_interval,
)


def _sphere_point(v, d):
    # at radius coordinate 1 and gamma = 1 the proposal is the sphere point
    return ball_generator(list(v) + [1.0], 1.0, d)


class TestSphereGenerator:
    def test_d1_sign_convention(self):
        assert _sphere_point([0.2], 1)[0] == -1.0
        assert _sphere_point([0.7], 1)[0] == 1.0

    def test_d2_angle_zero(self):
        assert np.allclose(_sphere_point([0.0], 2), [1.0, 0.0], atol=1e-15)

    def test_d3_equatorial(self):
        assert np.allclose(_sphere_point([0.5, 0.0], 3), [1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_unit_norm(self, d):
        rng = Rng(1)
        for _ in range(50):
            x = _sphere_point(rng.uniforms(d - 1), d)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_mean_is_zero(self, d):
        n = 100_000
        u = Rng(42).uniforms(n * (d - 1)).reshape(n, d - 1)
        pts = np.array([_sphere_point(v, d) for v in u])
        tol = 3.0 / math.sqrt(n)
        assert np.all(np.abs(pts.mean(axis=0)) < tol)


class TestBallGenerator:
    def test_boundary_when_last_coordinate_one(self):
        for d in (1, 2, 3):
            v = np.concatenate([np.full(max(d - 1, 1), 0.3), [1.0]])
            x = ball_generator(v, 0.7, d)
            assert np.linalg.norm(x) == pytest.approx(0.7, abs=1e-12)

    @given(
        st.integers(1, 3),
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

    @given(
        st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 10.0)),
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                st.one_of(
                    st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308]),
                    st.floats(0.0, 2.2250738585072014e-308),
                    st.floats(0.0, 1.0),
                ),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_d1_radius_is_python_product(self, gamma, rows):
        # in d = 1 the root v^(1/1) is v itself, subnormals, 0 and 1 included
        x = ball_generator(np.array(rows), gamma, 1)
        want = [gamma * v**1.0 * (-1.0 if s < 0.5 else 1.0) for s, v in rows]
        assert x.shape == (len(rows), 1)
        assert np.array_equal(x[:, 0], want)
        assert [math.copysign(1.0, a) for a in x[:, 0]] == [math.copysign(1.0, b) for b in want]

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
    """The walk's log density alpha * x_1 per preset, through its chain
    system."""

    def test_presets(self):
        # one downhill step of length 0.3 from the origin, with an
        # acceptance coordinate just above exp(-3 * 0.3): the exp-linear
        # walk (alpha 3) rejects it, the uniform walk (alpha 0) accepts it
        x = np.zeros((1, 2))
        u = np.array([[[0.5, 0.3**2 / 0.5**2, 1.001 * math.exp(-3.0 * 0.3)]]])
        for name, walk_alpha in [("uniform", 0.0), ("exp-linear", 3.0)]:
            system = make_metropolis_system(name, 3.0, 0.5, 2)
            assert system.nu_density_norm == math.exp(walk_alpha)
            X = np.empty((1, 1, 2))
            system.replay(x, u, X)
            moved = X[0, 0, 0] != 0.0
            assert moved == (walk_alpha == 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_uniform_walk_ignores_alpha(self, d):
        from mcqmclab.bounds import ballwalk_gap_bound

        gamma_star, gap = ballwalk_gap_bound(3.0, d)
        walk = make_metropolis_system("uniform", 3.0, gamma_star, d)
        flat = make_metropolis_system("uniform", 0.0, gamma_star, d)
        driver = uniform_driver(200, walk.s, Rng(d))[None]
        assert np.array_equal(run_chains(walk, driver), run_chains(flat, driver))
        assert walk.nu_density_norm == 1.0
        assert walk.lambda0 == 1.0 - gap

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            make_metropolis_system("gauss", 1.0, 0.5, 2)

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            BallWalkParams(0.5, 2, -1.0)

    @pytest.mark.parametrize(
        "gamma,alpha", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (math.inf, 0.0)]
    )
    def test_non_finite_gamma_or_alpha(self, gamma, alpha):
        # a NaN passed both gamma <= 0 and alpha < 0 and built a walk whose
        # NaN proposals or ratios never moved it; an infinite radius proposes
        # NaN or infinite points
        for d in (1, 2, 3):
            with pytest.raises(ValueError):
                BallWalkParams(gamma, d, alpha)
        with pytest.raises(ValueError):
            make_metropolis_system("exp-linear", alpha, gamma, 2)


class TestMetropolisUpdate:
    def test_uniform_density_reduces_to_membership(self):
        params = BallWalkParams(0.5, 2, 0.0)
        x = np.zeros(2)
        # v_acc = 1 is the hardest threshold; still accepted since ratio = 1
        u = np.array([0.0, 0.5, 1.0])
        y = metropolis_update(x, u, params)
        assert not np.array_equal(y, x)

    def test_boundary_outward_proposal_stays(self):
        params = BallWalkParams(0.5, 2, 0.0)
        x = np.array([1.0, 0.0])
        u = np.array([0.0, 1.0, 0.0])  # propose +gamma in direction (1,0)
        assert np.array_equal(metropolis_update(x, u, params), x)

    def test_zero_acceptance_coordinate_always_moves(self):
        params = BallWalkParams(0.3, 2, 5.0)
        x = np.array([0.2, 0.0])
        u = np.array([0.5, 0.8, 0.0])  # downhill proposal, v = 0
        y = metropolis_update(x, u, params)
        assert not np.array_equal(y, x)

    def test_driver_dimension_checked(self):
        params = BallWalkParams(0.5, 2, 0.0)
        with pytest.raises(ValueError):
            metropolis_update(np.zeros(2), np.array([0.1, 0.2]), params)

    def test_d1_convention_uses_three_coordinates(self):
        params = BallWalkParams(0.5, 1, 0.0)
        assert params.proposal_dim == 2 and params.driver_dim == 3
        y = metropolis_update(np.array([0.0]), np.array([0.2, 0.6, 0.0]), params)
        assert y[0] == pytest.approx(-0.3)

    def test_refuses_d4(self):
        # the walk is built for d <= 3; its one proposal builder refuses d = 4
        params = BallWalkParams(0.5, 4, 0.0)
        with pytest.raises(NotImplementedError, match="d <= 3, not d = 4"):
            ball_generator(np.full(4, 0.5), 0.5, 4)
        with pytest.raises(NotImplementedError, match="d <= 3, not d = 4"):
            metropolis_update(np.zeros(4), np.full(5, 0.5), params)


class TestInvertUpdate:
    def test_golden_d2(self):
        params = BallWalkParams(2.0, 2, 0.0)
        u = invert_update(np.zeros(2), np.array([0.3, 0.0]), params)
        assert np.allclose(u, [0.0, 0.0225, 0.0], atol=1e-12)

    def test_stay_branch(self):
        params = BallWalkParams(2.0, 2, 0.0)
        x = np.array([0.5, 0.0])
        u = invert_update(x, x, params)
        assert np.array_equal(metropolis_update(x, u, params), x)

    def test_stay_branch_at_origin(self):
        params = BallWalkParams(2.0, 2, 0.0)
        u = invert_update(np.zeros(2), np.zeros(2), params)
        assert np.array_equal(metropolis_update(np.zeros(2), u, params), np.zeros(2))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_roundtrips(self, d):
        params = BallWalkParams(2.0, d, 1.0)
        rng = Rng(d)
        for _ in range(1000):
            x = _ball_point(d, rng)
            y = _ball_point(d, rng)
            u = invert_update(x, y, params)
            assert np.all(u >= 0.0) and np.all(u <= 1.0)
            out = metropolis_update(x, u, params)
            assert np.max(np.abs(out - y)) <= 1e-9

    def test_refuses_high_dimension(self):
        params = BallWalkParams(2.0, 4, 0.0)
        with pytest.raises(NotImplementedError):
            invert_update(np.zeros(4), np.zeros(4), params)

    def test_refuses_far_targets(self):
        params = BallWalkParams(1.0, 2, 0.0)
        with pytest.raises(ValueError):
            invert_update(np.array([-0.9, 0.0]), np.array([0.9, 0.0]), params)


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
        states = run_chains(system, driver[None])[0]
        assert np.all(np.sum(states**2, axis=1) <= 1.0 + 1e-12)

    def test_update_function_law_matches_kernel_sampler(self):
        # same transition law through the driver route and the independent
        # rejection sampler, compared on a box indicator after 5 steps
        system = make_metropolis_system("exp-linear", 1.0, 0.5, 1)
        sampler = ballwalk_sampler(BallWalkParams(0.5, 1, 1.0))

        def F(states):
            return 1.0 if states[-1][0] < 0.0 else 0.0

        a, b, stderr = compare_expectation(system, sampler, F, i=5, m=4000, rng=Rng(17))
        assert abs(a - b) <= 4.0 * stderr
