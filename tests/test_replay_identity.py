"""Lockstep batched replay against the one-chain scalar replay in
``scalar_replay``: paths must agree bit for bit, for every kernel, at
b = 1 and b > 1."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import scalar_replay as ref
import scalar_scan
from kernel_route import metropolis_update
from mcqmclab import ballwalk
from mcqmclab.ballwalk import (
    BallWalkParams,
    invert_update,
    make_metropolis_system,
)
from mcqmclab.bounds import ballwalk_gap_bound
from mcqmclab.chain import (
    ChainDomainError,
    ChainSystem,
    make_direct_kernel,
    make_lazy_direct_kernel,
    run_chains,
)
from mcqmclab.core import (
    BoxDomain,
    Rng,
    TargetMeasure,
    exp_linear_interval,
    uniform_driver,
    uniform_interval,
)


def _drivers(b, n, s, seed):
    return np.stack([uniform_driver(n, s, Rng(seed).split(j)) for j in range(b)])


def _assert_paths_match(system, U, scalar_path, burn_in=0):
    """Every path of the block U[b, n, s] is the scalar replay of its row,
    and the burn-in drops the leading states of each."""
    states = run_chains(system, U)
    assert states.shape == U.shape[:2] + (system.dim,)
    for x, points in zip(states, U):
        assert np.array_equal(x, scalar_path(points))
    assert np.array_equal(run_chains(system, U, burn_in=burn_in), states[:, burn_in:])


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
    return {name: np.column_stack([rng.uniforms(n), h]) for name, h in holds.items()}


@pytest.mark.parametrize("a", [0.3, 1.0])
def test_lazy_direct_kernel_refresh_edges(a):
    pi, nu = exp_linear_interval(1.0), uniform_interval(-1.0, 1.0)
    system = make_lazy_direct_kernel(pi, a=a, nu=nu)
    drivers = _hold_drivers(a, 60, 9)
    never = run_chains(system, drivers["never"][None])[0]
    assert np.all(never == nu.inv_cdf(drivers["never"][0, 0]))
    for batch in [d[None] for d in drivers.values()] + [np.stack(list(drivers.values()))]:
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
    _assert_paths_match(system, block, lambda pts: ref.ballwalk_path(pts, gamma, d, name, alpha))


def _edge_states(d):
    """Ball-walk states on the unit sphere along the first and last axes,
    both signed zeros and points halfway to the sphere along the first."""
    e = np.eye(d)
    return np.array([e[0], -e[0], e[-1], -e[-1], np.full(d, -0.0), np.zeros(d), 0.5 * e[0], -0.5 * e[0]])


def _assert_replay_is_per_step(X0, U, params):
    """``_replay`` of the block U from the states X0 equals the per-step
    ``metropolis_update`` and the scalar reference, signs of zero included."""
    got = ballwalk._replay(X0, U, params)
    name = "exp-linear" if params.alpha else "uniform"
    x = X0
    for i, u in enumerate(U):
        x = metropolis_update(x, u, params)
        assert got[i].tobytes() == x.tobytes()
    for j, x in enumerate(X0):
        for i, u in enumerate(U[:, j]):
            x = ref.metropolis_step(x, u, params.gamma, params.d, name, params.alpha)
            assert got[i, j].tobytes() == x.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_replay_is_the_per_step_update(d, alpha, data):
    # states at +-1 and -0.0, radii 0 (v_last = 0), proposals along the
    # axes that land on |y| = 1 exactly, and at alpha = 1 proposals failing
    # the ratio test, folded to +inf when no entry is near a tie; b = 2 and
    # 16 chains among others, in chunks of 1 or 40 driver entries or of the
    # package's size
    gamma = data.draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.05, 2.5))
    params = BallWalkParams(gamma, d, alpha)
    states = _edge_states(d)
    b = data.draw(st.sampled_from([2, 16]) | st.integers(1, 5))
    rows = data.draw(st.lists(st.integers(0, len(states) - 1), min_size=b, max_size=b))
    m = data.draw(st.integers(1, 12))
    coords = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)
    U = data.draw(arrays(np.float64, (m, len(rows), params.driver_dim), elements=coords))
    chunk = data.draw(st.sampled_from([None, 1, 40]))
    with pytest.MonkeyPatch.context() as patched:
        if chunk is not None:
            patched.setattr(ballwalk, "_REPLAY_CHUNK", chunk)
        _assert_replay_is_per_step(states[rows], U, params)


def _axis_point(d, sign, r, v):
    """A driver point proposing gamma r e_1 (sign +1) or -gamma r e_1 (sign
    -1), to rounding in d = 3, with acceptance coordinate v."""
    direction = {1: [0.75 if sign > 0 else 0.25], 2: [0.0 if sign > 0 else 0.5]}
    return direction.get(d, [0.5, 0.0 if sign > 0 else 0.5]) + [r**d, v]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_replay_step_loop_on_the_sphere(monkeypatch, d):
    # alpha = 1, gamma = 1: every ratio test is far from a tie, so the block
    # takes the step loop, and the steps of -r e_1 with v = 0.9 fail it and
    # are folded to +inf; steps of r = 0.5 from +-0.5 e_1 land on the sphere
    params = BallWalkParams(1.0, d, 1.0)
    points = [_axis_point(d, sign, r, v) for sign in (1, -1) for r in (0.0, 0.5, 1.0) for v in (0.3, 0.9)]
    X0 = _edge_states(d)
    U = np.array([[points[(i + 5 * j) % len(points)] for j in range(len(X0))] for i in range(24)])
    with monkeypatch.context() as patched:
        patched.setattr(ballwalk, "_accept", None)
        ballwalk._replay(X0, U, params)
    _assert_replay_is_per_step(X0, U, params)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ballwalk_near_ties(d):
    # proposals landing on the unit sphere to rounding, and acceptance
    # coordinates equal to or one ulp above the density ratio; then the
    # uniform walk's block replay, b >= 2, of proposals aimed at the sphere,
    # at k = 1, 2, 3 ulps off it (inside the band of the d = 2 scalar steps)
    # and at 32 and 64 ulps off it (outside); a block of a pair has chunks
    # of one step with and without an entry in the band
    alpha = 1.0
    params = BallWalkParams(2.0, d, alpha)
    rng = Rng(40 + d)
    xs, us = [], []
    for _ in range(300):
        x = 0.9 * ref.ball_point(rng.uniforms(params.proposal_dim), 1.0, d)
        e = ref.sphere_point(rng.uniforms(max(d - 1, 1)), d)
        u = invert_update(x, e, params)
        y = x + ref.ball_point(u[: params.proposal_dim], 2.0, d)
        ratio = math.exp(min(alpha * (y[0] - x[0]), 0.0))
        for v in (ratio, np.nextafter(ratio, 2.0), np.nextafter(ratio, -1.0)):
            xs.append(x)
            us.append(np.concatenate([u[:-1], [min(v, 1.0)]]))
    xs, us = np.array(xs), np.array(us)
    got = metropolis_update(xs, us, params)
    for x, u, g in zip(xs, us, got):
        assert np.array_equal(g, ref.metropolis_step(x, u, 2.0, d, "exp-linear", alpha))

    params = BallWalkParams(2.0, d, 0.0)
    scales = [1.0 + k * 2.0**-52 for k in (-64, -32, -3, -2, -1, 0, 1, 2, 3, 32, 64)]
    xs, us = [], []
    for _ in range(40):
        x = 0.9 * ref.ball_point(rng.uniforms(params.proposal_dim), 1.0, d)
        e = ref.sphere_point(rng.uniforms(max(d - 1, 1)), d)
        for scale in scales:
            xs.append(x)
            us.append(invert_update(x, scale * e, params))
    xs, us = np.array(xs), np.array(us)
    want = np.array([ref.metropolis_step(x, u, 2.0, d, "uniform", 0.0) for x, u in zip(xs, us)])
    assert ballwalk._replay(xs, us[None], params)[0].tobytes() == want.tobytes()
    for j in range(0, len(xs), 2):
        pair = slice(j, j + 2)
        assert ballwalk._replay(xs[pair], us[None, pair], params)[0].tobytes() == want[pair].tobytes()
    _assert_replay_is_per_step(xs[:2], us.reshape(-1, 2, params.driver_dim), params)


def _near_tie_driver(n, d, alpha, rng):
    """A driver that puts a ball-walk chain at a near-tie of the ratio test
    on every step: each point is ``invert_update`` toward a target (on the
    unit sphere or inside the ball), with the acceptance coordinate at the
    scalar reference's ratio or one ulp to either side of it."""
    params = BallWalkParams(2.0, d, alpha)
    p = params.proposal_dim
    points = [np.concatenate([rng.uniforms(p), [0.5]])]
    x = ref.ball_point(points[0][:p], 1.0, d)
    for _ in range(1, n):
        e = ref.sphere_point(rng.uniforms(max(d - 1, 1)), d)
        if rng.uniform() < 0.5:
            e = e * rng.uniform()
        u = invert_update(x, e, params)
        y = x + ref.ball_point(u[:p], 2.0, d)
        ratio = math.exp(min(alpha * y[0] - alpha * x[0], 0.0))
        near = (ratio, np.nextafter(ratio, 2.0), np.nextafter(ratio, -1.0))
        u[-1] = min(near[int(3 * rng.uniform())], 1.0)
        points.append(u)
        x = ref.metropolis_step(x, u, 2.0, d, "exp-linear", alpha)
    return np.array(points)


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
    for batch in [driver[None] for driver in short] + [np.stack(short), long[0][None], np.stack(long)]:
        _assert_paths_match(
            system, batch, lambda pts: ref.ballwalk_path(pts, 2.0, d, "exp-linear", alpha)
        )


def test_replay_band_is_one_per_block(monkeypatch):
    # one entry of the block has |g| = |alpha z_1 - log v| above its own
    # rounding bound 2^-48 (alpha (2 + |z_1|) + |log v| + 1) but inside the
    # band 2^-48 (alpha (2 + gamma) + 746): the block is one chunk, so every
    # step of it goes through the exact per-step test
    alpha, gamma = 1.0, 0.5
    system = make_metropolis_system("exp-linear", alpha, gamma, 1)
    U = _drivers(4, 40, 3, 9)
    # chain 2, step 8: the proposal -gamma / 2 with g = 100 * 2^-48
    U[2, 8] = [0.25, 0.5, math.exp(-alpha * gamma / 2 - 100 * 2.0**-48)]
    block = U.transpose(1, 0, 2)[1:]
    z_1 = ballwalk.ball_generator(block[..., :2], gamma, 1)[..., 0]
    log_v = np.log(np.maximum(block[..., -1], 5e-324))
    g = np.abs(alpha * z_1 - log_v)
    own = 2.0**-48 * (alpha * (2.0 + np.abs(z_1)) + np.abs(log_v) + 1.0)
    assert (g > own).all()
    assert np.argwhere(g <= 2.0**-48 * (alpha * (2.0 + gamma) + 746.0)).tolist() == [[7, 2]]
    accept, calls = ballwalk._accept, []
    monkeypatch.setattr(ballwalk, "_accept", lambda *args: calls.append(1) or accept(*args))
    _assert_paths_match(system, U, lambda pts: ref.ballwalk_path(pts, gamma, 1, "exp-linear", alpha))
    assert len(calls) == 2 * len(block)  # the two replays of _assert_paths_match


def _chunk_steps(U):
    """Steps per chunk of ``_replay`` for the block U (m, b, s)."""
    return max(1, ballwalk._REPLAY_CHUNK // (U.shape[1] * U.shape[2]))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("chunk", [None, 1, 25, 40, 60])
def test_replay_over_several_chunks(monkeypatch, d, alpha, chunk):
    # blocks of b = 5, 2 and 16 chains over two chunks and a part, whose
    # states carry over from chunk to chunk; a chunk smaller than one step
    # holds one step.  None stands for chunks of 2^13 entries, 128 to 1365
    # steps here: at the package's 2^16 the scalar check of every step of
    # two such chunks would take eight times as long
    monkeypatch.setattr(ballwalk, "_REPLAY_CHUNK", chunk or 1 << 13)
    params = BallWalkParams(0.8, d, alpha)
    for b in (5, 2, 16):
        X0 = _edge_states(d)[np.arange(b) % 8]
        m = 2 * _chunk_steps(np.empty((1, b, params.driver_dim))) + 3
        U = _drivers(b, m, params.driver_dim, 60 + d).transpose(1, 0, 2)
        _assert_replay_is_per_step(X0, U, params)


def _count_accept(monkeypatch):
    """Replace ``ballwalk._accept`` by itself plus a count of its calls."""
    accept, calls = ballwalk._accept, []
    monkeypatch.setattr(ballwalk, "_accept", lambda *args: calls.append(1) or accept(*args))
    return calls


def test_replay_band_is_per_chunk(monkeypatch):
    # one entry of the second of three chunks lies inside the band: only that
    # chunk's steps go through the exact per-step test, and the states are
    # the per-step ones.  Chunks of 2^13 entries; after undo() the block
    # replays at the package's size, in one chunk
    monkeypatch.setattr(ballwalk, "_REPLAY_CHUNK", 1 << 13)
    alpha, gamma = 1.0, 0.5
    params = BallWalkParams(gamma, 1, alpha)
    X0 = np.linspace(-0.9, 0.9, 4)[:, None]
    U = _drivers(4, 1, 3, 0).transpose(1, 0, 2)
    steps = _chunk_steps(U)
    U = _drivers(4, 2 * steps + 9, 3, 13).transpose(1, 0, 2)
    U[steps + 5, 2] = [0.25, 0.5, math.exp(-alpha * gamma / 2 - 100 * 2.0**-48)]
    g = np.abs(alpha * ballwalk.ball_generator(U[..., :2], gamma, 1)[..., 0] - np.log(np.maximum(U[..., -1], 5e-324)))
    assert np.argwhere(g <= 2.0**-48 * (alpha * (2.0 + gamma) + 746.0)).tolist() == [[steps + 5, 2]]
    calls = _count_accept(monkeypatch)
    got = ballwalk._replay(X0, U, params)
    assert len(calls) == steps
    monkeypatch.undo()
    assert got.tobytes() == ballwalk._replay(X0, U, params).tobytes()
    _assert_replay_is_per_step(X0, U, params)


def test_replay_steep_ratio_in_a_later_chunk(monkeypatch):
    # alpha gamma = 800 > 700: the one proposal with alpha z_1 < -700, whose
    # density ratio exp(alpha z_1) is subnormal, lies in the last of three
    # chunks, the only chunk replayed through the exact per-step test.
    # Chunks of 2^13 entries; after undo() the block replays at the
    # package's size, in one chunk
    monkeypatch.setattr(ballwalk, "_REPLAY_CHUNK", 1 << 13)
    alpha, gamma = 400.0, 2.0
    params = BallWalkParams(gamma, 1, alpha)
    X0 = np.array([[0.9], [0.95], [-0.2]])
    U = _drivers(3, 1, 3, 0).transpose(1, 0, 2)
    steps = _chunk_steps(U)
    U = _drivers(3, 2 * steps + 7, 3, 21).transpose(1, 0, 2)
    # radii below 7/8 keep alpha z_1 >= -700 everywhere else
    U[..., 1] *= 0.8
    U[2 * steps + 3, 1] = [0.25, 0.95, 1e-310]
    assert np.argwhere(alpha * ballwalk.ball_generator(U[..., :2], gamma, 1)[..., 0] < -700.0).tolist() == [
        [2 * steps + 3, 1]
    ]
    calls = _count_accept(monkeypatch)
    got = ballwalk._replay(X0, U, params)
    assert len(calls) == len(U) - 2 * steps
    monkeypatch.undo()
    assert got.tobytes() == ballwalk._replay(X0, U, params).tobytes()
    _assert_replay_is_per_step(X0, U, params)


def test_run_chains_ballwalk_subnormal_ratios():
    # alpha = 400: one step from x to -x with density ratios exp(-800 x_1)
    # in the subnormal range, where exp has no relative error bound, and
    # acceptance coordinates at the ratio and one ulp to either side
    alpha = 400.0
    system = make_metropolis_system("exp-linear", alpha, 2.0, 1)
    params = BallWalkParams(2.0, 1, alpha)
    drivers = []
    for x1 in np.linspace(0.88, 0.935, 40):
        u0 = np.array([0.75, x1, 0.5])
        x = ref.ball_point(u0[:2], 1.0, 1)
        u = invert_update(x, -x, params)
        y = x + ref.ball_point(u[:2], 2.0, 1)
        ratio = math.exp(min(alpha * y[0] - alpha * x[0], 0.0))
        for v in (ratio, np.nextafter(ratio, 1.0), np.nextafter(ratio, 0.0)):
            drivers.append([u0, np.append(u[:-1], v)])
    drivers = np.array(drivers)
    for batch in [driver[None] for driver in drivers] + [drivers]:
        _assert_paths_match(
            system, batch, lambda pts: ref.ballwalk_path(pts, 2.0, 1, "exp-linear", alpha)
        )


def test_lifted_update_is_metropolis_update():
    system = make_metropolis_system("exp-linear", 1.0, 0.5, 2)
    params = BallWalkParams(0.5, 2, 1.0)
    u = Rng(8).uniforms(40 * system.s).reshape(40, system.s)
    x = np.zeros((40, 2))
    stepped = np.empty((1, 40, 2))
    system.replay(x, u[None], stepped)
    stepped = stepped[0]
    assert np.array_equal(stepped, metropolis_update(x, u, params))


def test_one_row_block_is_its_row_of_the_block():
    system = make_metropolis_system("exp-linear", 1.0, 0.5, 2)
    U = _drivers(3, 50, system.s, 1)
    batch = run_chains(system, U, burn_in=5)
    assert batch.shape == (3, 45, 2)
    for points, states in zip(U, batch):
        one = run_chains(system, points[None], burn_in=5)[0]
        assert np.array_equal(one, states)
    for states in (batch, one):
        with pytest.raises(ValueError):
            states[0, 0] = 0.0


def test_run_chains_rejects_bad_blocks():
    system = make_lazy_direct_kernel(uniform_interval(), a=0.5)
    U = _drivers(2, 8, 2, 0)
    # blocks of the wrong shape, with b = 0 or n = 0, then blocks with one
    # entry NaN, +-inf, just below 0, just above 1 or 1.5
    bad = [U[0], U[:0], U[:, :0], U[..., :1], np.dstack([U, U])]
    entries = {
        (1, 3, 0): np.nan, (0, 6, 1): np.inf, (1, 7, 1): -np.inf,
        (0, 5, 1): -1e-300, (1, 0, 0): np.nextafter(1.0, 2.0), (0, 2, 0): 1.5,
    }
    for index, value in entries.items():
        block = U.copy()
        block[index] = value
        bad.append(block)
    for block in bad:
        with pytest.raises(ValueError):
            run_chains(system, block)
    for burn_in in (8, 9, -1):
        with pytest.raises(ValueError):
            run_chains(system, U, burn_in=burn_in)
    assert run_chains(system, U, burn_in=7).shape == (2, 1, 1)


def test_domain_violation_names_chain_and_step():
    bad = ChainSystem(
        s=1,
        generate=lambda U: 0.1 * U,
        replay=lambda X0, U, X: np.copyto(X, X0 + np.cumsum(U > 0.5, axis=0)),
        target=uniform_interval(0.0, 1.0),
        lambda0=0.0,
        beta=None,
        nu_density_norm=1.0,
    )
    drivers = np.array([[[0.5], [0.1], [0.2]], [[0.5], [0.1], [0.9]]])  # stays, leaves
    with pytest.raises(ChainDomainError, match="chain 1 .* step 2"):
        run_chains(bad, drivers)
    # the states are checked before the burn-in is dropped: a chain that
    # leaves G at step 1 and comes back is caught with burn_in = 2
    back = dataclasses.replace(bad, replay=lambda X0, U, X: np.copyto(X, X0 + (U > 0.5)))
    with pytest.raises(ChainDomainError, match="chain 0 .* step 1"):
        run_chains(back, np.array([[[0.5], [0.9], [0.1]]]), burn_in=2)


def test_lazy_exact_marginal_matches_per_step_loop():
    # one-step calls give the scalar per-step marginal bit for bit; a call
    # over all the steps gives w nu + (1 - w) pi bit for bit, and the mean of
    # the per-step values within rounding
    pi, nu = exp_linear_interval(1.0), uniform_interval(-1.0, 1.0)
    a = 0.37
    system = make_lazy_direct_kernel(pi, a=a, nu=nu)
    steps = range(3, 700)
    for t in (-0.8, -0.1, 0.0, 0.45, 0.99):
        corner = np.array([t])
        loop = [ref.lazy_marginal(i, corner, pi, nu, a) for i in steps]
        assert [system.exact_marginal([i], corner[None])[0][0] for i in steps] == loop
        averaged, err = system.exact_marginal(steps, corner[None])
        assert averaged.tobytes() == ref.lazy_averaged_marginal(steps, corner[None], pi, nu, a)[0].tobytes()
        assert abs(averaged[0] - np.mean(loop)) <= scalar_scan.VOLUME_ROUNDING and err == 0.0


@pytest.mark.parametrize("a", [1e-3, 0.37, 0.5, 0.999, 1.0])
def test_lazy_exact_marginal_weights_are_python_pow(a):
    # the weights are Python's float pow (1 - a) ** i: per step, and in the
    # mean weight of a call over all the steps
    pi, nu = exp_linear_interval(1.0), uniform_interval(-1.0, 1.0)
    system = make_lazy_direct_kernel(pi, a=a, nu=nu)
    corner = np.array([[0.3]])
    m_nu, m_pi = nu.box_masses(corner)[0][0], pi.box_masses(corner)[0][0]
    steps = range(5000)
    loop = [(1.0 - a) ** i * m_nu + (1.0 - (1.0 - a) ** i) * m_pi for i in steps]
    assert [system.exact_marginal([i], corner)[0][0] for i in steps] == loop
    w = float(np.mean([(1.0 - a) ** i for i in steps]))
    assert system.exact_marginal(steps, corner)[0][0] == w * m_nu + (1.0 - w) * m_pi


def _assert_rows_replay_alone(X0, U, params):
    """Each chain of the block U (m, b, s), b >= 2, replayed alone, which
    takes the one-chain step loop, equals its row of the block replay bit
    for bit."""
    block = ballwalk._replay(X0, U, params)
    for j in range(len(X0)):
        alone = ballwalk._replay(X0[j : j + 1], U[:, j : j + 1], params)
        assert alone.tobytes() == block[:, j : j + 1].tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("chunk", [None, 1, 40])
def test_one_chain_is_its_row_of_the_block(monkeypatch, d, alpha, chunk):
    # states on the sphere and at -0.0, zero radii (v_last = 0, proposals of
    # -0.0 along negative directions), steps of 0.5 from +-0.5 e_1 onto the
    # sphere, and at alpha = 1 proposals failing the ratio test, folded to
    # +inf; over several chunks of steps, carried over from chunk to chunk
    if chunk is not None:
        monkeypatch.setattr(ballwalk, "_REPLAY_CHUNK", chunk)
    params = BallWalkParams(1.0, d, alpha)
    X0 = _edge_states(d)
    points = [_axis_point(d, sign, r, v) for sign in (1, -1) for r in (0.0, 0.5, 1.0) for v in (0.3, 0.9)]
    U = _drivers(len(X0), 60, params.driver_dim, 80 + d).transpose(1, 0, 2)
    U[::3] = [[points[(i + 5 * j) % len(points)] for j in range(len(X0))] for i in range(0, 60, 3)]
    U[1::7, :, -2] = 0.0
    with monkeypatch.context() as patched:
        patched.setattr(ballwalk, "_accept", None)
        _assert_rows_replay_alone(X0, U, params)
    _assert_replay_is_per_step(X0[:1], U[:, :1], params)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_chain_near_the_sphere(d):
    # the uniform walk (alpha = 0) on drivers that send it onto the unit
    # sphere to rounding, where the Python sum of squares lies in its band
    # and np.vecdot decides
    params = BallWalkParams(2.0, d, 0.0)
    rng = Rng(90 + d)
    U = np.stack([_near_tie_driver(200, d, 0.0, rng.split(j)) for j in range(3)], axis=1)
    X0 = ballwalk.ball_generator(U[0, :, : params.proposal_dim], 1.0, d)
    _assert_rows_replay_alone(X0, U[1:], params)
    _assert_replay_is_per_step(X0[:1], U[1:, :1], params)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_one_chain_huge_radius(d, alpha):
    # gamma = 1e300: y . y overflows to +inf (a Python float y * y does not
    # raise, where y ** 2 would), which rejects like the d = 3 block loop's
    # np.vecdot and the d = 2 block's finite |y| > 1; at alpha = 1 every
    # entry is inside the band, so both go through the exact per-step test
    params = BallWalkParams(1e300, d, alpha)
    U = _drivers(3, 40, params.driver_dim, 3 + d).transpose(1, 0, 2)
    U[::4, :, -2] = 0.0
    X0 = _edge_states(d)[[0, 4, 6]]
    _assert_rows_replay_alone(X0, U, params)
    # only the zero proposals (v_last = 0) stay in the unit ball, and they
    # keep every state's value
    assert (ballwalk._replay(X0, U, params) == X0).all()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_chain_asks_vecdot_only_inside_its_band(monkeypatch, d):
    # np.vecdot is asked for exactly the steps whose Python sum of squares
    # lies within 4 d 2^-53 of 1, in step order, and for nothing in d = 1
    params = BallWalkParams(2.0, d, 0.0)
    U = _near_tie_driver(300, d, 0.0, Rng(110 + d))[:, None]
    X0 = ballwalk.ball_generator(U[0, :, : params.proposal_dim], 1.0, d)
    z = ballwalk.ball_generator(U[1:, 0, : params.proposal_dim], 2.0, d)
    states = ballwalk._replay(X0, U[1:], params)[:, 0]
    band = 4 * d * 2.0**-53
    inside = []
    for x, z_i in zip(np.concatenate([X0, states[:-1]]).tolist(), z.tolist()):
        y = [a + b for a, b in zip(x, z_i)]
        s = 0.0  # summed from the first square on, as the step loop sums
        for t in y:
            s += t * t
        if d > 1 and 1.0 - band < s <= 1.0 + band:
            inside.append(y)
    vecdot, asked = np.vecdot, []
    monkeypatch.setattr(np, "vecdot", lambda a, b, *rest: asked.append(a.tolist()) or vecdot(a, b, *rest))
    again = ballwalk._replay(X0, U[1:], params)[:, 0]
    monkeypatch.undo()
    assert again.tobytes() == states.tobytes()
    assert asked == inside
    assert d == 1 or len(inside) >= 10


def test_block_asks_vecdot_only_for_chunks_in_its_band(monkeypatch):
    # d = 2, b = 2: chain 0 is sent at or near the unit circle on about half
    # its steps, chain 1 walks freely.  The np.vecdot loop replays exactly
    # the chunks of two steps with an entry whose |y| lies within 2^-48 of
    # 1, every other chunk keeps its complex scalar steps, and the states
    # are the per-step ones
    monkeypatch.setattr(ballwalk, "_REPLAY_CHUNK", 12)
    params = BallWalkParams(2.0, 2, 0.0)
    U = np.stack([_near_tie_driver(301, 2, 0.0, Rng(120)), _drivers(1, 301, 3, 121)[0]], axis=1)
    X0 = ballwalk.ball_generator(U[0, :, :2], 1.0, 2)
    U = U[1:]
    states = ballwalk._replay(X0, U, params)
    y = np.concatenate([X0[None], states[:-1]]) + ballwalk.ball_generator(U[..., :2], 2.0, 2)
    near = (np.abs(np.absolute(y.view(np.complex128)[..., 0]) - 1.0) <= 2.0**-48).any(axis=1)
    steps = _chunk_steps(U)
    assert steps == 2
    in_band = [near[i : i + steps].any() for i in range(0, len(U), steps)]
    vecdot, asked = np.vecdot, []
    monkeypatch.setattr(np, "vecdot", lambda a, b, *rest: asked.append(1) or vecdot(a, b, *rest))
    again = ballwalk._replay(X0, U, params)
    monkeypatch.setattr(np, "vecdot", vecdot)
    assert again.tobytes() == states.tobytes()
    assert len(asked) == steps * sum(in_band)
    assert 20 <= sum(in_band) <= len(in_band) - 20
    _assert_replay_is_per_step(X0, U, params)


_HALF_DOWN, _HALF_UP, _TOP = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0 - 2.0**-53


@pytest.mark.parametrize("gamma", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("d", [1, 2])
def test_ball_generator_is_the_scalar_point(d, gamma):
    # the d <= 2 proposals built in the step loop's scalar storage (copysign
    # in d = 1, complex parts in d = 2) against the scalar reference, signs
    # of zero included: the sign coordinate on both sides of 1/2, radii 0,
    # subnormal and up to 1, angles at the quarter turns
    leading = [0.0, _HALF_DOWN, 0.5, _HALF_UP, _TOP] if d == 1 else [0.0, 0.25, 0.5, 0.75]
    V = np.array([[a, r] for a in leading for r in (0.0, 5e-324, 0.5, _TOP)])
    got = ballwalk.ball_generator(V, gamma, d)
    assert got.shape == (len(V), d)
    for v, z in zip(V, got):
        assert z.tobytes() == ref.ball_point(v, gamma, d).tobytes()
        assert ballwalk.ball_generator(v, gamma, d).tobytes() == z.tobytes()


def _replay_peak(d, b, m):
    """Peak bytes traced while ``_replay`` writes m steps of b chains into
    a states array allocated beforehand."""
    params = BallWalkParams(0.8, d, 1.0)
    U = _drivers(b, m, params.driver_dim, 130 + d).transpose(1, 0, 2)
    X0, X = _edge_states(d)[np.arange(b) % 8], np.empty((m, b, d))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ballwalk._replay(X0, U, params, X)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d,b", [(1, 201), (2, 16)])
def test_replay_temporaries_are_bounded_by_the_chunk(d, b):
    # proposals, ratio test (alpha = 1) and |y| sizes of m = 4000 steps, 37
    # chunks in d = 1 and 3 in d = 2: the temporaries beside the states stay
    # within 4 chunks of floats, and twice the steps take no more
    m = 4000
    peak = _replay_peak(d, b, m)
    assert peak < 4 * ballwalk._REPLAY_CHUNK * 8
    assert _replay_peak(d, b, 2 * m) <= 1.05 * peak
