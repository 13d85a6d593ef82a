import math

import numpy as np
import pytest

from mcqmclab.chain import (
    ChainDomainError,
    ChainSystem,
    GeneratorFunction,
    UpdateFunction,
    compare_expectation,
    make_direct_kernel,
    make_lazy_direct_kernel,
    nu_density_norm,
    run_chain,
)
from mcqmclab.core import (
    AnchoredBox,
    DriverSequence,
    Rng,
    exp_linear_interval,
    uniform_driver,
    uniform_interval,
)


def _direct():
    return make_direct_kernel(uniform_interval(-1.0, 1.0))


class TestRunChain:
    def test_replay_is_deterministic(self):
        system = _direct()
        driver = uniform_driver(32, 1, Rng(1))
        a = run_chain(system, driver)
        b = run_chain(system, driver)
        assert np.array_equal(a, b)

    def test_direct_kernel_states_are_inverse_cdf_of_driver(self):
        system = _direct()
        driver = uniform_driver(16, 1, Rng(2))
        states = run_chain(system, driver)
        assert np.allclose(states[:, 0], -1.0 + 2.0 * driver.points[:, 0])

    def test_burn_in_split(self):
        system = _direct()
        driver = uniform_driver(10, 1, Rng(3))
        retained = run_chain(system, driver, burn_in=4)
        assert retained.shape == (6, 1)
        assert np.array_equal(retained, run_chain(system, driver)[4:])

    def test_dimension_mismatch(self):
        system = _direct()
        with pytest.raises(ValueError):
            run_chain(system, uniform_driver(8, 2, Rng(0)))

    def test_too_short_driver(self):
        system = _direct()
        with pytest.raises(ValueError):
            run_chain(system, uniform_driver(3, 1, Rng(0)), burn_in=3)

    def test_domain_violation_detected(self):
        target = uniform_interval(0.0, 1.0)
        bad = ChainSystem(
            update=UpdateFunction(
                s=1, replay=lambda X0, U: X0 + np.cumsum(np.ones_like(U), axis=0)
            ),
            generator=GeneratorFunction(s_init=1, map=lambda U: U[:, :1]),
            target=target,
            lambda0=0.0,
            beta=None,
            nu_density_norm=1.0,
        )
        with pytest.raises(ChainDomainError):
            run_chain(bad, uniform_driver(4, 1, Rng(1)))

    def test_states_read_only(self):
        states = run_chain(_direct(), uniform_driver(4, 1, Rng(5)))
        with pytest.raises(ValueError):
            states[0, 0] = 0.0


class TestChainSystemValidation:
    def test_lambda0_range(self):
        with pytest.raises(ValueError):
            ChainSystem(
                update=UpdateFunction(s=1, replay=lambda X0, U: X0 + 0.0 * U),
                generator=GeneratorFunction(s_init=1, map=lambda u: np.zeros(1)),
                target=uniform_interval(),
                lambda0=1.5,
                beta=None,
                nu_density_norm=1.0,
            )

    def test_lambda0_le_beta(self):
        with pytest.raises(ValueError):
            ChainSystem(
                update=UpdateFunction(s=1, replay=lambda X0, U: X0 + 0.0 * U),
                generator=GeneratorFunction(s_init=1, map=lambda u: np.zeros(1)),
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
        system = _direct()
        assert np.array_equal(system.exact_marginal([0, 7], np.array([[0.2]])), [[0.6, 0.6]])


class TestLazyDirectKernel:
    def test_update_branches(self):
        system = make_lazy_direct_kernel(uniform_interval(-1.0, 1.0), a=0.5)
        x = np.array([0.3])
        U = np.array([[0.9, 0.8], [0.25, 0.1]])
        stay, move = system.update.replay(np.array([x, x]), U[None])[0]
        assert np.array_equal(stay, x)
        assert move[0] == pytest.approx(-0.5)

    def test_marginal_interpolates_nu_to_pi(self):
        pi = exp_linear_interval(1.0)
        nu = uniform_interval(-1.0, 1.0)
        system = make_lazy_direct_kernel(pi, a=0.5, nu=nu)
        box = AnchoredBox([0.0])
        m0, m1, m_inf = system.exact_marginal([0, 1, 200], box.corner[None])[0]
        assert m0 == pytest.approx(nu.box_mass(box)[0], abs=1e-12)
        assert m_inf == pytest.approx(pi.box_mass(box)[0], abs=1e-12)
        assert m1 == pytest.approx(0.5 * m0 + 0.5 * m_inf, abs=1e-12)

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

        def F(states):
            return float(np.mean([s[0] < 0.0 for s in states]))

        est_a, est_b, stderr = compare_expectation(system, F, i=5, m=4000, rng=Rng(11))
        assert abs(est_a - est_b) <= 4.0 * stderr
