"""The kernel route: each kernel's transition K(x, .) drawn by its own
sampler, independently of the update function phi, and the per-step ball-walk
update.  They are kept as oracles the block replay of the package is checked
against, and are not used by the package.
"""

import math
from typing import Callable

import numpy as np

from mcqmclab import ballwalk
from mcqmclab.ballwalk import BallWalkParams
from mcqmclab.chain import ChainSystem, run_chains
from mcqmclab.core import Rng, TargetMeasure

Sampler = Callable[[np.ndarray, Rng], np.ndarray]


# y . y overflows to inf for radii near the float range, which the unit-ball
# test rightly rejects: the update ignores it, once per call
@np.errstate(over="ignore")
def metropolis_update(x: np.ndarray, u, params: BallWalkParams) -> np.ndarray:
    """Metropolis steps from states (..., d) and driver points (..., s) of
    the same leading shape: propose x + z with z uniform in the gamma-ball;
    accept iff the proposal stays in the unit ball and the last driver
    coordinate clears the density ratio.  Rejection returns x unchanged."""
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    if u.shape[-1] != params.driver_dim:
        raise ValueError(f"need {params.driver_dim} driver coordinates")
    rows = u.reshape(-1, params.driver_dim)
    z = ballwalk.ball_generator(rows[:, : params.proposal_dim], params.gamma, params.d)
    return ballwalk._accept(x.reshape(-1, params.d), z, rows[:, -1], params.alpha).reshape(x.shape)


def direct_sampler(target: TargetMeasure) -> Sampler:
    """K(x, .) = pi: one inverse-CDF draw, whatever x."""

    def sampler(x: np.ndarray, rng: Rng) -> np.ndarray:
        return np.asarray(target.marginal_quantile(0, rng.uniforms(1)), float)

    return sampler


def lazy_direct_sampler(target: TargetMeasure, a: float) -> Sampler:
    """K(x, .) = (1 - a) delta_x + a pi."""

    def sampler(x: np.ndarray, rng: Rng) -> np.ndarray:
        if rng.uniform() < a:
            return np.array([target.marginal_quantile(0, rng.uniform())])
        return x

    return sampler


def ballwalk_sampler(params: BallWalkParams) -> Sampler:
    """The Metropolis ball walk with its proposal drawn by rejection from
    the cube around the gamma-ball."""

    def sampler(x: np.ndarray, rng: Rng) -> np.ndarray:
        while True:
            z = params.gamma * (2.0 * rng.uniforms(params.d) - 1.0)
            if np.dot(z, z) <= params.gamma**2:
                break
        y = x + z
        if np.dot(y, y) > 1.0:
            return x
        log_ratio = params.alpha * y[0] - params.alpha * x[0]
        if log_ratio >= 0.0 or rng.uniform() <= math.exp(log_ratio):
            return y
        return x

    return sampler


def compare_expectation(
    system: ChainSystem,
    sampler: Sampler,
    F: Callable[[list[np.ndarray]], float],
    i: int,
    m: int,
    rng: Rng,
) -> tuple[float, float, float]:
    """Two Monte Carlo estimates of E_{nu,K} F(X_1, ..., X_i).

    One pushes i*s uniforms through (psi, phi); the other draws X_1 from nu
    via psi and transitions via ``sampler``.  Returns (estimate_via_driver,
    estimate_via_kernel, pooled_stderr).
    """
    s = system.s
    rng_a = rng.split(0)
    rng_b = rng.split(1)
    U = rng_a.uniforms(m * i * s).reshape(m, i, s)
    vals_a = np.array([F(list(states)) for states in run_chains(system, U)])
    vals_b = np.empty(m)
    for r in range(m):
        y = system.generate(rng_b.uniforms(s)[None])[0]
        states_b = [y]
        for _ in range(1, i):
            y = np.atleast_1d(sampler(y, rng_b))
            states_b.append(y)
        vals_b[r] = F(states_b)
    stderr = math.sqrt((np.var(vals_a, ddof=1) + np.var(vals_b, ddof=1)) / m)
    return float(np.mean(vals_a)), float(np.mean(vals_b)), stderr
