"""Lockstep batched replay against the one-chain scalar replay in
``scalar_replay``: paths must agree bit for bit, for every kernel, at
b = 1 and b > 1."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import scalar_replay as ref
from mcqmclab.ballwalk import (
    BallWalkParams,
    density_presets,
    invert_update,
    make_metropolis_system,
    metropolis_update,
    sphere_generator,
)
from mcqmclab.bounds import ballwalk_gap_bound
from mcqmclab.chain import (
    ChainDomainError,
    ChainSystem,
    GeneratorFunction,
    UpdateFunction,
    make_direct_kernel,
    make_lazy_direct_kernel,
    run_chain,
    run_chains,
)
from mcqmclab.core import (
    AnchoredBox,
    BoxDomain,
    DriverSequence,
    Rng,
    TargetMeasure,
    exp_linear_interval,
    uniform_driver,
    uniform_interval,
)


def _drivers(b, n, s, seed):
    return [uniform_driver(n, s, Rng(seed).split(j)) for j in range(b)]


def _assert_paths_match(system, drivers, scalar_path, burn_in=0):
    paths = run_chains(system, drivers, burn_in=burn_in)
    assert len(paths) == len(drivers)
    for path, driver in zip(paths, drivers):
        expect = scalar_path(driver.points)
        assert path.states.shape == expect.shape
        assert np.array_equal(path.states, expect)
        assert path.retained.shape[0] == driver.n - burn_in


@pytest.mark.parametrize("b", [1, 5])
@pytest.mark.parametrize("target", [uniform_interval(-1.0, 1.0), exp_linear_interval(1.0)])
def test_direct_kernel(b, target):
    system = make_direct_kernel(target)
    _assert_paths_match(system, _drivers(b, 200, 1, 3), lambda pts: ref.direct_path(pts, target))


@pytest.mark.parametrize("b", [1, 7])
def test_lazy_direct_kernel(b):
    pi, nu = exp_linear_interval(1.0), uniform_interval(-1.0, 1.0)
    system = make_lazy_direct_kernel(pi, a=0.3, nu=nu)
    _assert_paths_match(
        system, _drivers(b, 200, 2, 5), lambda pts: ref.lazy_path(pts, pi, nu, 0.3), burn_in=20
    )


def test_lazy_direct_kernel_quadrature_target():
    # no closed-form inverse CDF: the quantiles come from bisection
    quad = TargetMeasure(BoxDomain((-1.0,), (1.0,)), lambda x: np.exp(x[:, 0]))
    system = make_lazy_direct_kernel(quad, a=0.5)
    _assert_paths_match(
        system, _drivers(2, 4, 2, 6), lambda pts: ref.lazy_path(pts, quad, quad, 0.5)
    )


def _hold_drivers(a, n, seed):
    """Lazy-kernel drivers on the refresh edge cases: hold coordinates all
    exactly a (the test is strict, so the chain never refreshes and stays
    at psi(u_0)), all 0 (it refreshes at every step), and a mix of a, the
    doubles next to it and uniforms."""
    rng = Rng(seed)
    near = [a, np.nextafter(a, 0.0), np.nextafter(a, 1.0)]
    holds = {
        "never": np.full(n, a),
        "always": np.zeros(n),
        "mixed": np.where(rng.uniforms(n) < 0.5, rng.uniforms(n), np.resize(near, n)),
    }
    return {
        name: DriverSequence(np.column_stack([rng.uniforms(n), h]), name)
        for name, h in holds.items()
    }


@pytest.mark.parametrize("a", [0.3, 1.0])
def test_lazy_direct_kernel_refresh_edges(a):
    pi, nu = exp_linear_interval(1.0), uniform_interval(-1.0, 1.0)
    system = make_lazy_direct_kernel(pi, a=a, nu=nu)
    drivers = _hold_drivers(a, 60, 9)
    never = run_chain(system, drivers["never"]).states
    assert np.all(never == nu.inv_cdf(drivers["never"].points[0, 0]))
    for batch in [[d] for d in drivers.values()] + [list(drivers.values())]:
        _assert_paths_match(system, batch, lambda pts: ref.lazy_path(pts, pi, nu, a))


@pytest.mark.parametrize("b", [1, 4])
@pytest.mark.parametrize("n", [1, 2, 50])
def test_direct_kernel_block_lengths(b, n):
    # n = 1 replays an empty block: the path is psi(u_0) alone
    target = exp_linear_interval(1.0)
    _assert_paths_match(
        make_direct_kernel(target), _drivers(b, n, 1, 12), lambda pts: ref.direct_path(pts, target)
    )


def _gamma_star(alpha, d):
    return ballwalk_gap_bound(alpha, d)[0] if alpha > 0 else 1.0 / math.sqrt(d + 1)


@pytest.mark.parametrize("b", [1, 6])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name,alpha", [("uniform", 0.0), ("exp-linear", 1.0)])
@pytest.mark.parametrize("at_gamma_star", [True, False])
def test_ballwalk(b, d, name, alpha, at_gamma_star):
    gamma = _gamma_star(alpha, d) if at_gamma_star else 2.0
    system = make_metropolis_system(name, alpha, gamma, d)
    _assert_paths_match(
        system,
        _drivers(b, 300, system.s, 10 * d + b),
        lambda pts: ref.ballwalk_path(pts, gamma, d, name, alpha),
        burn_in=30,
    )


@given(
    st.integers(1, 3),
    st.floats(0.05, 2.5),
    st.floats(0.0, 3.0),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_ballwalk_random_drivers(d, gamma, alpha, data):
    name = "uniform" if alpha == 0.0 else "exp-linear"
    system = make_metropolis_system(name, alpha, gamma, d)
    b = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 30))
    block = data.draw(arrays(np.float64, (b, n, system.s), elements=st.floats(0.0, 1.0)))
    drivers = [DriverSequence(pts, "hypothesis") for pts in block]
    _assert_paths_match(system, drivers, lambda pts: ref.ballwalk_path(pts, gamma, d, name, alpha))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ballwalk_near_ties(d):
    # proposals landing on the unit sphere to rounding, and acceptance
    # coordinates equal to or one ulp above the density ratio
    params = BallWalkParams(2.0, d)
    alpha = 1.0
    dens = density_presets("exp-linear", alpha, d)
    rng = Rng(40 + d)
    xs, us = [], []
    for _ in range(300):
        x = 0.9 * ref.ball_point(rng.uniforms(params.proposal_dim), 1.0, d)
        e = ref.sphere_point(rng.uniforms(max(d - 1, 1)), d)
        u = invert_update(x, e, params, dens)
        y = x + ref.ball_point(u[: params.proposal_dim], 2.0, d)
        ratio = math.exp(min(alpha * (y[0] - x[0]), 0.0))
        for v in (ratio, np.nextafter(ratio, 2.0), np.nextafter(ratio, -1.0)):
            xs.append(x)
            us.append(np.concatenate([u[:-1], [min(v, 1.0)]]))
    xs, us = np.array(xs), np.array(us)
    got = metropolis_update(xs, us, params, dens)
    for x, u, g in zip(xs, us, got):
        assert np.array_equal(g, ref.metropolis_step(x, u, 2.0, d, "exp-linear", alpha))


def _near_tie_driver(n, d, alpha, rng):
    """A driver that puts a ball-walk chain at a near-tie of the ratio test
    on every step: each point is ``invert_update`` toward a target (on the
    unit sphere or inside the ball), with the acceptance coordinate at the
    scalar reference's ratio or one ulp to either side of it."""
    params = BallWalkParams(2.0, d)
    dens = density_presets("exp-linear", alpha, d)
    p = params.proposal_dim
    points = [np.concatenate([rng.uniforms(p), [0.5]])]
    x = ref.ball_point(points[0][:p], 1.0, d)
    for _ in range(1, n):
        e = ref.sphere_point(rng.uniforms(max(d - 1, 1)), d)
        if rng.uniform() < 0.5:
            e = e * rng.uniform()
        u = invert_update(x, e, params, dens)
        y = x + ref.ball_point(u[:p], 2.0, d)
        ratio = math.exp(min(alpha * y[0] - alpha * x[0], 0.0))
        near = (ratio, np.nextafter(ratio, 2.0), np.nextafter(ratio, -1.0))
        u[-1] = min(near[int(3 * rng.uniform())], 1.0)
        points.append(u)
        x = ref.metropolis_step(x, u, 2.0, d, "exp-linear", alpha)
    return DriverSequence(np.array(points), "near-ties")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_run_chains_ballwalk_near_ties(d):
    # acceptance coordinates inside the band of the block ratio test, where
    # only the exact per-step test decides.  One-step drivers are replayed
    # alone too, so that no other entry of the block decides for them
    # whether the block takes the exact path.
    alpha = 1.0
    system = make_metropolis_system("exp-linear", alpha, 2.0, d)
    rng = Rng(70 + d)
    short = [_near_tie_driver(2, d, alpha, rng.split(j)) for j in range(150)]
    long = [_near_tie_driver(120, d, alpha, rng.split(1000 + j)) for j in range(3)]
    for batch in [[driver] for driver in short] + [short, long[:1], long]:
        _assert_paths_match(
            system, batch, lambda pts: ref.ballwalk_path(pts, 2.0, d, "exp-linear", alpha)
        )


def test_run_chains_ballwalk_subnormal_ratios():
    # alpha = 400: one step from x to -x with density ratios exp(-800 x_1)
    # in the subnormal range, where exp has no relative error bound, and
    # acceptance coordinates at the ratio and one ulp to either side
    alpha = 400.0
    system = make_metropolis_system("exp-linear", alpha, 2.0, 1)
    params = BallWalkParams(2.0, 1)
    dens = density_presets("exp-linear", alpha, 1)
    drivers = []
    for x1 in np.linspace(0.88, 0.935, 40):
        u0 = np.array([0.75, x1, 0.5])
        x = ref.ball_point(u0[:2], 1.0, 1)
        u = invert_update(x, -x, params, dens)
        y = x + ref.ball_point(u[:2], 2.0, 1)
        ratio = math.exp(min(alpha * y[0] - alpha * x[0], 0.0))
        for v in (ratio, np.nextafter(ratio, 1.0), np.nextafter(ratio, 0.0)):
            drivers.append(DriverSequence(np.array([u0, np.append(u[:-1], v)]), "subnormal"))
    for batch in [[driver] for driver in drivers] + [drivers]:
        _assert_paths_match(
            system, batch, lambda pts: ref.ballwalk_path(pts, 2.0, 1, "exp-linear", alpha)
        )


def test_lifted_update_is_metropolis_update():
    system = make_metropolis_system("exp-linear", 1.0, 0.5, 2)
    params = BallWalkParams(0.5, 2)
    dens = density_presets("exp-linear", 1.0, 2)
    u = Rng(8).uniforms(40 * system.s).reshape(40, system.s)
    x = np.zeros((40, 2))
    stepped = system.update.replay(x, u[None])[0]
    assert np.array_equal(stepped, metropolis_update(x, u, params, dens))


def test_run_chain_is_first_of_run_chains():
    system = make_metropolis_system("exp-linear", 1.0, 0.5, 2)
    drivers = _drivers(3, 50, system.s, 1)
    batch = run_chains(system, drivers, burn_in=5)
    for driver, path in zip(drivers, batch):
        one = run_chain(system, driver, burn_in=5)
        assert np.array_equal(one.states, path.states)
        assert one.burn_in == path.burn_in == 5
        assert path.driver is driver
        with pytest.raises(ValueError):
            path.states[0, 0] = 0.0


def test_run_chains_rejects_mixed_lengths_and_empty_batches():
    system = make_direct_kernel(uniform_interval())
    with pytest.raises(ValueError):
        run_chains(system, [])
    with pytest.raises(ValueError):
        run_chains(system, [uniform_driver(8, 1, Rng(0)), uniform_driver(9, 1, Rng(1))])


def test_domain_violation_names_chain_and_step():
    bad = ChainSystem(
        update=UpdateFunction(s=1, replay=lambda X0, U: X0 + np.cumsum(U > 0.5, axis=0)),
        generator=GeneratorFunction(s_init=1, map=lambda U: 0.1 * U),
        target=uniform_interval(0.0, 1.0),
        lambda0=0.0,
        beta=None,
        nu_density_norm=1.0,
    )
    drivers = [
        DriverSequence(np.array([[0.5], [0.1], [0.2]]), "stays"),
        DriverSequence(np.array([[0.5], [0.1], [0.9]]), "leaves"),
    ]
    with pytest.raises(ChainDomainError, match="chain 1 .* step 2"):
        run_chains(bad, drivers)


def test_lazy_exact_marginal_matches_per_step_loop():
    pi, nu = exp_linear_interval(1.0), uniform_interval(-1.0, 1.0)
    a = 0.37
    system = make_lazy_direct_kernel(pi, a=a, nu=nu)
    steps = range(3, 700)
    for t in (-0.8, -0.1, 0.0, 0.45, 0.99):
        box = AnchoredBox([t])
        loop = [ref.lazy_marginal(i, box, pi, nu, a) for i in steps]
        batched = system.exact_marginal(steps, box.corner[None])[0]
        assert np.array_equal(batched, loop)
        assert np.mean(batched) == np.mean(loop)


_SIN_POWER_CDF = {
    0: lambda t: t / math.pi,
    1: lambda t: (1.0 - np.cos(t)) / 2.0,
    2: lambda t: (t - np.sin(t) * np.cos(t)) / math.pi,
    3: lambda t: (2.0 - 3.0 * np.cos(t) + np.cos(t) ** 3) / 4.0,
}


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_sphere_quantile_against_bisection_and_closed_cdf(m):
    from mcqmclab.ballwalk import _sin_power_quantile

    p = np.array([1e-6, 0.013, 0.25, 0.5, 0.77, 0.999])
    bisected = [ref.sin_power_quantile(float(q), m) for q in p]
    assert np.max(np.abs(_sin_power_quantile(p, m) - bisected)) <= 1e-12
    # the bisection loses accuracy at the poles; the closed-form CDF does not
    p = np.concatenate([[0.0, 1e-12, 1e-9], p, [1.0 - 1e-9, 1.0 - 1e-12, 1.0]])
    theta = _sin_power_quantile(p, m)
    assert theta[0] == 0.0 and theta[-1] == math.pi
    assert np.max(np.abs(_SIN_POWER_CDF[m](theta) - p)) <= 1e-15


def test_sphere_generator_d4_batch_matches_single_points():
    u = Rng(4).uniforms(60).reshape(20, 3)
    batch = sphere_generator(u, 4)
    assert np.array_equal(batch, np.array([sphere_generator(v, 4) for v in u]))
    assert np.allclose(np.linalg.norm(batch, axis=1), 1.0, atol=1e-12)
