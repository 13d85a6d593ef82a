"""Update-function / generator-function formalism and chain-path generation.

A chain system bundles an update function phi: G x [0,1]^s -> G, a generator
function psi: [0,1]^s -> G for the initial distribution, the target measure,
and spectral metadata.  Paths are generated deterministically from a driver
sequence: x_1 = psi(u_0), x_{i+1} = phi(x_i; u_i), so every path is exactly
replayable.  The driver block U[b, n, s], one row per chain, is known
before a replay starts, so phi is given as a block replay: each kernel maps
the start states of b chains and their remaining driver points to all later
states at once, and ``run_chains`` calls it once and returns one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import DriverSequence, Rng, TargetMeasure, integrate

__all__ = [
    "GeneratorFunction",
    "UpdateFunction",
    "ChainSystem",
    "ChainDomainError",
    "run_chain",
    "run_chains",
    "make_direct_kernel",
    "make_lazy_direct_kernel",
    "compare_expectation",
]


class ChainDomainError(RuntimeError):
    """An update produced a state outside the domain G."""


@dataclass(frozen=True)
class GeneratorFunction:
    """Map psi: [0,1]^{s_init} -> G pushing the uniform law to the initial
    distribution nu, batched over chains: ``map(U[b, s_init]) -> X[b, d]``."""

    s_init: int
    map: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class UpdateFunction:
    """Map phi: G x [0,1]^s -> G realizing the kernel K(x, .), given as the
    replay of a whole driver block: ``replay(X0[b, d], U[m, b, s]) ->
    X[m, b, d]`` returns the states X[0] = phi(X0; U[0]) and X[i] =
    phi(X[i-1]; U[i]) of b chains; m = 0 gives no states.  Each kernel
    replays its block its own way, and must agree bit for bit with
    stepping phi.

    ``inverse``, when present, maps one pair (x, y) to a driver point u with
    phi(x; u) = y (the anywhere-to-anywhere witness).
    """

    s: int
    replay: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inverse: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass
class ChainSystem:
    """Update/generator pair with target and spectral metadata.

    ``lambda0`` is max{Lambda, 0} and ``beta`` the absolute operator norm on
    mean-zero L2, each None when unknown; no theory bound is computed from
    an unknown lambda0.  ``exact_marginal(steps, corners)`` returns the
    array of nu P^i((-inf, c)) of shape (len(corners), len(steps)) for the
    corner rows c and steps i when the kernel admits a closed-form marginal;
    otherwise the marginal is estimated by Monte Carlo.
    ``kernel_sampler(x, rng)`` draws one transition from K(x, .)
    independently of the update function.
    """

    update: UpdateFunction
    generator: GeneratorFunction
    target: TargetMeasure
    lambda0: Optional[float]
    beta: Optional[float]
    nu_density_norm: float
    exact_marginal: Optional[Callable[[Sequence[int], np.ndarray], np.ndarray]] = None
    kernel_sampler: Optional[Callable[[np.ndarray, Rng], np.ndarray]] = None

    def __post_init__(self):
        if self.lambda0 is not None:
            if not (0.0 <= self.lambda0 <= 1.0):
                raise ValueError("lambda0 must lie in [0, 1]")
            if self.beta is not None and self.lambda0 > self.beta + 1e-12:
                raise ValueError("lambda0 must not exceed beta")
        if self.update.s != self.generator.s_init:
            raise ValueError("generator and update must consume the same driver dimension")

    @property
    def s(self) -> int:
        return self.update.s

    @property
    def nu_norm_centered(self) -> float:
        """||dnu/dpi - 1||_2 = sqrt(||dnu/dpi||_2^2 - 1), since E_pi(dnu/dpi) = 1."""
        return math.sqrt(max(self.nu_density_norm**2 - 1.0, 0.0))

    @property
    def dim(self) -> int:
        return self.target.dim


def run_chain(system: ChainSystem, driver: DriverSequence, burn_in: int = 0) -> np.ndarray:
    """Deterministic replay of one path, its retained states X[n - burn_in,
    d]: ``run_chains`` of the one-row block."""
    return run_chains(system, driver.points[None], burn_in)[0]


def run_chains(system: ChainSystem, U, burn_in: int = 0) -> np.ndarray:
    """Replay of the driver block U[b, n, s], row j driving chain j: x_1 =
    psi(u_0) for all chains at once, then one ``update.replay`` of the other
    points.  Returns the retained states X[b, n - burn_in, d], read-only.

    ValueError unless U is 3-D with b >= 1, s = ``system.s``, n >= burn_in +
    1 and every entry in [0, 1].  The states are checked against G once,
    before the burn-in is dropped: ChainDomainError names the first step,
    and in it the first chain, whose state left G.
    """
    U = np.asarray(U, float)
    if U.ndim != 3 or U.shape[0] < 1 or U.shape[2] != system.s:
        raise ValueError(f"driver block needs shape (b, n, {system.s}) with b >= 1, got {U.shape}")
    b, n, _ = U.shape
    if not 0 <= burn_in < n:
        raise ValueError("drivers must contain at least burn_in + 1 points")
    if not np.all((U >= 0.0) & (U <= 1.0)):
        raise ValueError("driver coordinates must be finite and lie in [0, 1]")
    # the kernels replay step-major: a view of the block, and states whose
    # steps are contiguous rows
    U = U.transpose(1, 0, 2)
    states = np.empty((n, b, system.dim))
    states[0] = system.generator.map(U[0])
    states[1:] = system.update.replay(states[0], U[1:])
    inside = system.target.domain.contains(states)
    if not inside.all():
        i, j = divmod(int(np.argmin(inside)), b)
        raise ChainDomainError(f"state {states[i, j]} of chain {j} left the domain at step {i}")
    states = np.ascontiguousarray(states.transpose(1, 0, 2)[:, burn_in:])
    states.setflags(write=False)
    return states


# ---------------------------------------------------------------------------
# Reference kernels with known spectral data
# ---------------------------------------------------------------------------


def nu_density_norm(nu: TargetMeasure, pi: TargetMeasure) -> float:
    """||dnu/dpi||_2 by quadrature (d = 1 only)."""
    if pi.dim != 1:
        raise ValueError("quadrature norm implemented for d = 1 only")
    lo, hi = pi.domain.bounding()
    z_nu = _normalizer(nu)
    z_pi = _normalizer(pi)

    def integrand(t):
        x = np.array([[t]])
        g_nu = float(nu.density(x)[0]) / z_nu
        g_pi = float(pi.density(x)[0]) / z_pi
        return g_nu**2 / g_pi

    val, _ = integrate.quad(integrand, lo[0], hi[0], epsabs=1e-12, limit=200)
    return math.sqrt(val)


def _normalizer(m: TargetMeasure) -> float:
    if m.exact_box_mass is None:
        return m.normalizer
    lo, hi = m.domain.bounding()
    val, _ = integrate.quad(
        lambda t: float(m.density(np.array([[t]]))[0]), lo[0], hi[0], epsabs=1e-12
    )
    return val


def _quantile_rows(measure: TargetMeasure, U: np.ndarray) -> np.ndarray:
    """Inverse CDF of the first driver coordinate of each row, as states of
    shape (..., 1)."""
    p = U[..., 0]
    return np.asarray(measure.inv_cdf(p.ravel()), float).reshape(p.shape + (1,))


def make_direct_kernel(
    target: TargetMeasure, generator: Optional[GeneratorFunction] = None
) -> ChainSystem:
    """Kernel K(x, A) = pi(A): the update ignores the state and applies the
    pi-generator to the driver point.  Lambda0 = beta = 0 and nu = pi.

    For d = 1 the generator defaults to the inverse CDF; otherwise one must
    be supplied (e.g. the uniform-ball generator).
    """
    if generator is None:
        if target.dim != 1:
            raise ValueError("default generator available for d = 1 only")
        generator = GeneratorFunction(s_init=1, map=lambda U: _quantile_rows(target, U))

    def replay(X0, U):
        # the new state is psi(u) whatever the old one
        X = generator.map(U.reshape(-1, U.shape[-1]))
        return X.reshape(U.shape[:-1] + X0.shape[-1:])

    update = UpdateFunction(s=generator.s_init, replay=replay)

    def marginal(steps: Sequence[int], corners: np.ndarray) -> np.ndarray:
        masses = target.box_masses(corners)[0]
        return np.repeat(masses[:, None], len(steps), axis=1)

    def sampler(x: np.ndarray, rng: Rng) -> np.ndarray:
        return generator.map(rng.uniforms(generator.s_init)[None])[0]

    return ChainSystem(
        update=update,
        generator=generator,
        target=target,
        lambda0=0.0,
        beta=0.0,
        nu_density_norm=1.0,
        exact_marginal=marginal,
        kernel_sampler=sampler,
    )


def make_lazy_direct_kernel(
    target: TargetMeasure, a: float, nu: Optional[TargetMeasure] = None
) -> ChainSystem:
    """Lazy direct kernel K = (1-a) * identity + a * pi on a 1-D target.

    The driver dimension is s_pi + 1 = 2: the update draws fresh from pi via
    the first coordinate when the last coordinate is < a, else stays.  The
    spectrum is known exactly (lambda0 = beta = 1 - a) and the marginal law
    nu P^i = (1-a)^i nu + (1 - (1-a)^i) pi is exposed as an exact oracle.
    """
    if not (0.0 < a <= 1.0):
        raise ValueError("hold-probability complement a must lie in (0, 1]")
    if target.dim != 1:
        raise ValueError("lazy direct kernel implemented for d = 1")
    nu = nu if nu is not None else target

    generator = GeneratorFunction(s_init=2, map=lambda U: _quantile_rows(nu, U))

    def replay(X0, U):
        # a forward fill: step i holds the fresh draw of the last step at or
        # before it whose hold coordinate is < a, or X0 before the first one
        steps = np.arange(1, len(U) + 1)[:, None]
        last = np.maximum.accumulate(np.where(U[..., -1] < a, steps, 0), axis=0)
        draws = np.concatenate([X0[None], _quantile_rows(target, U)])
        return np.take_along_axis(draws, last[..., None], axis=0)

    update = UpdateFunction(s=2, replay=replay)

    def marginal(steps: Sequence[int], corners: np.ndarray) -> np.ndarray:
        m_nu = nu.box_masses(corners)[0][:, None]
        m_pi = target.box_masses(corners)[0][:, None]
        # float_power matches Python's float pow of the per-step form bit
        # for bit; numpy's power differs from it on some inputs
        w = np.float_power(1.0 - a, np.asarray(steps, float))
        return w * m_nu + (1.0 - w) * m_pi

    def sampler(x: np.ndarray, rng: Rng) -> np.ndarray:
        if rng.uniform() < a:
            return np.array([target.inv_cdf(rng.uniform())])
        return x

    return ChainSystem(
        update=update,
        generator=generator,
        target=target,
        lambda0=1.0 - a,
        beta=1.0 - a,
        nu_density_norm=1.0 if nu is target else nu_density_norm(nu, target),
        exact_marginal=marginal,
        kernel_sampler=sampler,
    )


# ---------------------------------------------------------------------------
# Expectation comparison (update-function route vs kernel route)
# ---------------------------------------------------------------------------


def compare_expectation(
    system: ChainSystem,
    F: Callable[[list[np.ndarray]], float],
    i: int,
    m: int,
    rng: Rng,
) -> tuple[float, float, float]:
    """Two Monte Carlo estimates of E_{nu,K} F(X_1, ..., X_i).

    One pushes i*s uniforms through (psi, phi); the other draws X_1 from nu
    via psi and transitions via the kernel's reference sampler.  Returns
    (estimate_via_driver, estimate_via_kernel, pooled_stderr).
    """
    if system.kernel_sampler is None:
        raise ValueError("system has no kernel_sampler")
    s = system.s
    rng_a = rng.split(0)
    rng_b = rng.split(1)
    U = rng_a.uniforms(m * i * s).reshape(m, i, s)
    vals_a = np.array([F(list(states)) for states in run_chains(system, U)])
    vals_b = np.empty(m)
    for r in range(m):
        y = system.generator.map(rng_b.uniforms(s)[None])[0]
        states_b = [y]
        for _ in range(1, i):
            y = np.atleast_1d(system.kernel_sampler(y, rng_b))
            states_b.append(y)
        vals_b[r] = F(states_b)
    stderr = math.sqrt((np.var(vals_a, ddof=1) + np.var(vals_b, ddof=1)) / m)
    return float(np.mean(vals_a)), float(np.mean(vals_b)), stderr
