import math

import numpy as np
import pytest

from kernel_route import compare_expectation, direct_sampler, lazy_direct_sampler
from mcqmclab.chain import (
    ChainDomainError,
    ChainSystem,
    make_direct_kernel,
    make_lazy_direct_kernel,
    nu_density_norm,
    run_chains,
)
from mcqmclab.core import (
    Rng,
    exp_linear_interval,
    uniform_ball,
    uniform_driver,
    uniform_interval,
)


def _direct():
    return make_direct_kernel(uniform_interval(-1.0, 1.0))


class TestRunChain:
    def test_direct_kernel_takes_the_driver_ends(self):
        # drivers at 1 quantile to the interval's end; the exp-linear
        # closed form rounded past it for alpha = 0.03 before its clip
        for alpha in (0.03, 1.0):
            system = make_direct_kernel(exp_linear_interval(alpha))
            for u in (0.0, 1.0):
                states = run_chains(system, np.full((1, 4, 1), u))[0]
                assert np.all((states >= -1.0) & (states <= 1.0))

    def test_replay_is_deterministic(self):
        system = _direct()
        driver = uniform_driver(32, 1, Rng(1))
        a = run_chains(system, driver[None])[0]
        b = run_chains(system, driver[None])[0]
        assert np.array_equal(a, b)

    def test_direct_kernel_states_are_inverse_cdf_of_driver(self):
        system = _direct()
        driver = uniform_driver(16, 1, Rng(2))
        states = run_chains(system, driver[None])[0]
        assert np.allclose(states[:, 0], -1.0 + 2.0 * driver[:, 0])

    def test_burn_in_split(self):
        system = _direct()
        driver = uniform_driver(10, 1, Rng(3))
        retained = run_chains(system, driver[None], burn_in=4)[0]
        assert retained.shape == (6, 1)
        assert np.array_equal(retained, run_chains(system, driver[None])[0][4:])

    def test_dimension_mismatch(self):
        system = _direct()
        with pytest.raises(ValueError):
            run_chains(system, uniform_driver(8, 2, Rng(0))[None])

    def test_too_short_driver(self):
        system = _direct()
        with pytest.raises(ValueError):
            run_chains(system, uniform_driver(3, 1, Rng(0))[None], burn_in=3)

    def test_domain_violation_detected(self):
        target = uniform_interval(0.0, 1.0)
        bad = ChainSystem(
            s=1,
            generate=lambda U: U[:, :1],
            replay=lambda X0, U, X: np.copyto(X, X0 + np.cumsum(np.ones_like(U), axis=0)),
            target=target,
            lambda0=0.0,
            beta=None,
            nu_density_norm=1.0,
        )
        with pytest.raises(ChainDomainError):
            run_chains(bad, uniform_driver(4, 1, Rng(1))[None])

    @pytest.mark.parametrize("b", [1, 3])
    def test_replay_writes_into_the_states(self, b):
        # the kernel fills the states behind the start states that
        # run_chains hands it; one chain's states are returned as they are
        import dataclasses

        from mcqmclab.ballwalk import make_metropolis_system

        system = make_metropolis_system("exp-linear", 1.0, 0.5, 2)
        handed = []

        def recording(X0, U, X):
            handed.append(X)
            system.replay(X0, U, X)

        traced = dataclasses.replace(system, replay=recording)
        U = np.stack([uniform_driver(30, system.s, Rng(7).split(j)) for j in range(b)])
        states = run_chains(traced, U)
        assert states.tobytes() == run_chains(system, U).tobytes()
        assert handed[0].shape == (29, b, 2)
        assert np.shares_memory(handed[0], states) == (b == 1)
        assert handed[0].transpose(1, 0, 2).tobytes() == states[:, 1:].tobytes()

    def test_states_read_only(self):
        states = run_chains(_direct(), uniform_driver(4, 1, Rng(5))[None])[0]
        with pytest.raises(ValueError):
            states[0, 0] = 0.0


class TestChainSystemValidation:
    def test_lambda0_range(self):
        with pytest.raises(ValueError):
            ChainSystem(
                s=1,
                generate=lambda u: np.zeros(1),
                replay=lambda X0, U, X: np.copyto(X, X0 + 0.0 * U),
                target=uniform_interval(),
                lambda0=1.5,
                beta=None,
                nu_density_norm=1.0,
            )

    def test_lambda0_le_beta(self):
        with pytest.raises(ValueError):
            ChainSystem(
                s=1,
                generate=lambda u: np.zeros(1),
                replay=lambda X0, U, X: np.copyto(X, X0 + 0.0 * U),
                target=uniform_interval(),
                lambda0=0.9,
                beta=0.5,
                nu_density_norm=1.0,
            )


class TestDirectKernel:
    def test_spectral_metadata(self):
        system = _direct()
        assert system.lambda0 == 0.0 and system.beta == 0.0
        assert system.nu_density_norm == 1.0

    def test_exact_marginal_is_target_mass(self):
        # nu P^i = pi at every step: the average over any steps is pi's
        # box masses as they stand, with their error
        system = _direct()
        corners = np.array([[0.2], [-0.5], [2.0]])
        masses, err = system.exact_marginal([0, 7], corners)
        assert masses.tobytes() == system.target.box_masses(corners)[0].tobytes()
        assert np.array_equal(masses, [0.6, 0.25, 1.0]) and err == 0.0

    def test_d1_only(self):
        with pytest.raises(ValueError, match="d = 1"):
            make_direct_kernel(uniform_ball(2))


class TestLazyDirectKernel:
    def test_update_branches(self):
        system = make_lazy_direct_kernel(uniform_interval(-1.0, 1.0), a=0.5)
        x = np.array([0.3])
        U = np.array([[0.9, 0.8], [0.25, 0.1]])
        X = np.empty((1, 2, 1))
        system.replay(np.array([x, x]), U[None], X)
        stay, move = X[0]
        assert np.array_equal(stay, x)
        assert move[0] == pytest.approx(-0.5)

    def test_marginal_interpolates_nu_to_pi(self):
        pi = exp_linear_interval(1.0)
        nu = uniform_interval(-1.0, 1.0)
        system = make_lazy_direct_kernel(pi, a=0.5, nu=nu)
        corner = np.array([0.0])
        # one-step calls give nu P^i itself
        m0, m1, m_inf = (system.exact_marginal([i], corner[None])[0][0] for i in (0, 1, 200))
        assert m0 == pytest.approx(nu.box_mass(corner)[0], abs=1e-12)
        assert m_inf == pytest.approx(pi.box_mass(corner)[0], abs=1e-12)
        assert m1 == pytest.approx(0.5 * m0 + 0.5 * m_inf, abs=1e-12)
        # the average over the three steps is their mean, within rounding
        masses, err = system.exact_marginal([0, 1, 200], corner[None])
        assert masses[0] == pytest.approx((m0 + m1 + m_inf) / 3.0, abs=1e-15) and err == 0.0

    def test_marginal_prices_the_corners_once_when_nu_is_pi(self, monkeypatch):
        # nu defaults to pi, the same object: nu P^i = pi at every step, so
        # the marginal is one box_masses call, returned as it stands
        pi = exp_linear_interval(1.0)
        system = make_lazy_direct_kernel(pi, a=0.3)
        corners = np.linspace(-1.2, 1.2, 9)[:, None]
        want = pi.box_masses(corners)
        calls = []
        box_masses = pi.box_masses
        monkeypatch.setattr(pi, "box_masses", lambda c: calls.append(c) or box_masses(c))
        masses, err = system.exact_marginal([0, 1, 5], corners)
        assert len(calls) == 1
        assert masses.tobytes() == want[0].tobytes() and err == want[1] == 0.0

    def test_spectrum_matches_discretized_operator(self):
        # K = (1-a) I + a Pi on a 300-state discretization: the second
        # eigenvalue of the transition matrix is exactly 1 - a
        a = 0.5
        system = make_lazy_direct_kernel(uniform_interval(-1.0, 1.0), a=a)
        m = 300
        weights = np.full(m, 1.0 / m)
        P = (1 - a) * np.eye(m) + a * np.tile(weights, (m, 1))
        eig = np.sort(np.abs(np.linalg.eigvals(P)))[::-1]
        assert eig[0] == pytest.approx(1.0, abs=1e-10)
        assert eig[1] == pytest.approx(system.lambda0, abs=1e-10)

    def test_norm_against_closed_form(self):
        # dnu/dpi for nu = U[-1,1], pi prop. e^x: ||r||_2^2 = (e - 1/e)^2 / 4
        pi = exp_linear_interval(1.0)
        nu = uniform_interval(-1.0, 1.0)
        system = make_lazy_direct_kernel(pi, a=0.5, nu=nu)
        expect = (math.e - math.exp(-1.0)) / 2.0
        assert system.nu_density_norm == pytest.approx(expect, abs=1e-9)
        assert system.nu_norm_centered == pytest.approx(
            math.sqrt(expect**2 - 1.0), abs=1e-9
        )
        # in general ||dnu/dpi||_2 = sinh(alpha) / alpha for pi prop. e^(alpha x)
        for alpha in (0.5, 3.0, 10.0):
            system = make_lazy_direct_kernel(exp_linear_interval(alpha), a=0.5, nu=nu)
            assert system.nu_density_norm == pytest.approx(math.sinh(alpha) / alpha, rel=1e-12)

    def test_centered_norm_is_derived(self):
        # ||dnu/dpi - 1||_2 follows from ||dnu/dpi||_2; it is not stored
        system = make_lazy_direct_kernel(uniform_interval(), a=0.5)
        assert (system.nu_density_norm, system.nu_norm_centered) == (1.0, 0.0)
        system.nu_density_norm = 1.25
        assert system.nu_norm_centered == math.sqrt(1.25**2 - 1.0) == 0.75

    def test_invalid_a(self):
        with pytest.raises(ValueError):
            make_lazy_direct_kernel(uniform_interval(), a=0.0)


class TestNuDensityNorm:
    def test_identity(self):
        m = exp_linear_interval(1.0)
        assert nu_density_norm(m, m) == pytest.approx(1.0, abs=1e-9)


class TestCompareExpectation:
    def test_driver_and_kernel_routes_agree(self):
        system = make_lazy_direct_kernel(exp_linear_interval(1.0), a=0.5)
        sampler = lazy_direct_sampler(exp_linear_interval(1.0), 0.5)

        def F(states):
            return float(np.mean([s[0] < 0.0 for s in states]))

        est_a, est_b, stderr = compare_expectation(system, sampler, F, i=5, m=4000, rng=Rng(11))
        assert abs(est_a - est_b) <= 4.0 * stderr

    def test_direct_kernel_routes_agree(self):
        target = exp_linear_interval(1.0)

        def F(states):
            return float(np.mean([s[0] < 0.0 for s in states]))

        est_a, est_b, stderr = compare_expectation(
            make_direct_kernel(target), direct_sampler(target), F, i=5, m=1000, rng=Rng(3)
        )
        assert abs(est_a - est_b) <= 4.0 * stderr
