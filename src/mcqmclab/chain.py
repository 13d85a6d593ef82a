"""Update-function / generator-function formalism and chain-path generation.

A chain system bundles an update function phi: G x [0,1]^s -> G, a generator
function psi: [0,1]^s -> G for the initial distribution, the target measure,
and spectral metadata.  Paths are generated deterministically from a driver
sequence: x_1 = psi(u_0), x_{i+1} = phi(x_i; u_i), so every path is exactly
replayable.  The driver block U[b, n, s], one row per chain, is known
before a replay starts, so phi is given as a block replay: each kernel maps
the start states of b chains and their remaining driver points to all later
states at once, written into the one array that ``run_chains`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import TargetMeasure

__all__ = [
    "ChainSystem",
    "ChainDomainError",
    "run_chains",
    "make_direct_kernel",
    "make_lazy_direct_kernel",
]


class ChainDomainError(RuntimeError):
    """An update produced a state outside the domain G."""


@dataclass
class ChainSystem:
    """A chain's generator psi and update phi, its target and spectral
    metadata.

    ``s`` is the driver dimension both maps consume.  ``generate(U[b, s]) ->
    X[b, d]`` is psi: [0,1]^s -> G, pushing the uniform law to the initial
    distribution nu, batched over chains.  ``replay(X0[b, d], U[m, b, s],
    X[m, b, d])`` is phi: G x [0,1]^s -> G realizing the kernel K(x, .),
    given as the replay of a whole driver block: it writes the states X[0] =
    phi(X0; U[0]) and X[i] = phi(X[i-1]; U[i]) of b chains into X; m = 0
    gives no states, and m = 1 is one step of phi.  This replay is the one
    update signature of every kernel.  Each kernel replays its block its
    own way, and must agree bit for bit with stepping phi.  ``inverse``,
    when present, maps one pair (x, y) to a driver point u with phi(x; u)
    = y (the anywhere-to-anywhere witness).

    ``lambda0`` is max{Lambda, 0} and ``beta`` the absolute operator norm on
    mean-zero L2, each None when unknown; no theory bound is computed from
    an unknown lambda0.  ``exact_marginal(steps, corners)``, when the
    kernel's marginal is known, returns the averaged marginal (1/n) sum_i
    nu P^i((-inf, c)) over the n steps i for every corner row c, the way
    :meth:`TargetMeasure.box_masses` does: the masses, shape
    (len(corners),), and their largest error; otherwise the marginal is
    estimated by Monte Carlo.
    """

    s: int
    generate: Callable[[np.ndarray], np.ndarray]
    replay: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    target: TargetMeasure
    lambda0: Optional[float]
    beta: Optional[float]
    nu_density_norm: float
    inverse: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    exact_marginal: Optional[Callable[[Sequence[int], np.ndarray], tuple[np.ndarray, float]]] = None

    def __post_init__(self):
        if self.lambda0 is not None:
            if not (0.0 <= self.lambda0 <= 1.0):
                raise ValueError("lambda0 must lie in [0, 1]")
            if self.beta is not None and self.lambda0 > self.beta + 1e-12:
                raise ValueError("lambda0 must not exceed beta")

    @property
    def nu_norm_centered(self) -> float:
        """||dnu/dpi - 1||_2 = sqrt(||dnu/dpi||_2^2 - 1), since E_pi(dnu/dpi) = 1."""
        return math.sqrt(max(self.nu_density_norm**2 - 1.0, 0.0))

    @property
    def dim(self) -> int:
        return self.target.dim


def run_chains(system: ChainSystem, U, burn_in: int = 0) -> np.ndarray:
    """Replay of the driver block U[b, n, s], row j driving chain j (one
    driver D of shape (n, s) is the block ``D[None]``): x_1 =
    psi(u_0) for all chains at once, then one ``system.replay`` of the other
    points into the states behind them.  Returns the retained states X[b, n
    - burn_in, d], read-only.

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
    # a NaN fails both
    if not (U.min() >= 0.0 and U.max() <= 1.0):
        raise ValueError("driver coordinates must be finite and lie in [0, 1]")
    # the kernels replay step-major: a view of the block, and states whose
    # steps are contiguous rows
    U = U.transpose(1, 0, 2)
    states = np.empty((n, b, system.dim))
    states[0] = system.generate(U[0])
    system.replay(states[0], U[1:], states[1:])
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
    """||dnu/dpi||_2 by quadrature (d = 1 only): the normalizers of the
    densities of nu and pi, and that of the squared ratio of the normalized
    densities, each of a :class:`TargetMeasure` without a closed form."""
    if pi.dim != 1:
        raise ValueError("quadrature norm implemented for d = 1 only")
    z_nu = TargetMeasure(nu.domain, nu.density).normalizer
    z_pi = TargetMeasure(pi.domain, pi.density).normalizer
    ratio = lambda x: (nu.density(x) / z_nu) ** 2 / (pi.density(x) / z_pi)
    return math.sqrt(TargetMeasure(pi.domain, ratio).normalizer)


def _quantile_rows(measure: TargetMeasure, U: np.ndarray) -> np.ndarray:
    """Inverse CDF of the first driver coordinate of each row, as states of
    shape (..., 1)."""
    p = U[..., 0]
    return np.asarray(measure.marginal_quantile(0, p.ravel()), float).reshape(p.shape + (1,))


def make_direct_kernel(target: TargetMeasure) -> ChainSystem:
    """Kernel K(x, A) = pi(A) on a 1-D target: the update ignores the state
    and applies the inverse CDF of pi to the driver point.  Lambda0 = beta =
    0 and nu = pi, so nu P^i = pi at every step and the averaged marginal
    is pi's box masses as they stand.
    """
    if target.dim != 1:
        raise ValueError("direct kernel implemented for d = 1")

    def replay(X0, U, X):
        # the new state is psi(u) whatever the old one
        X[...] = _quantile_rows(target, U)

    def marginal(steps: Sequence[int], corners: np.ndarray) -> tuple[np.ndarray, float]:
        return target.box_masses(corners)

    return ChainSystem(
        s=1,
        generate=lambda U: _quantile_rows(target, U),
        replay=replay,
        target=target,
        lambda0=0.0,
        beta=0.0,
        nu_density_norm=1.0,
        exact_marginal=marginal,
    )


def make_lazy_direct_kernel(
    target: TargetMeasure, a: float, nu: Optional[TargetMeasure] = None
) -> ChainSystem:
    """Lazy direct kernel K = (1-a) * identity + a * pi on a 1-D target.

    The driver dimension is s_pi + 1 = 2: the update draws fresh from pi via
    the first coordinate when the last coordinate is < a, else stays.  The
    spectrum is known exactly (lambda0 = beta = 1 - a).  The marginal law
    nu P^i = (1-a)^i nu + (1 - (1-a)^i) pi averages over the steps to w nu
    + (1 - w) pi, w the mean of the weights (1-a)^i, with error w e_nu +
    (1 - w) e_pi; the exact oracle returns that, and pi's box masses as
    they stand when nu is pi (the default).
    """
    if not (0.0 < a <= 1.0):
        raise ValueError("hold-probability complement a must lie in (0, 1]")
    if target.dim != 1:
        raise ValueError("lazy direct kernel implemented for d = 1")
    nu = nu if nu is not None else target

    def replay(X0, U, X):
        # a forward fill: step i holds the fresh draw of the last step at or
        # before it whose hold coordinate is < a, or X0 before the first one
        steps = np.arange(1, len(U) + 1)[:, None]
        last = np.maximum.accumulate(np.where(U[..., -1] < a, steps, 0), axis=0)
        draws = np.concatenate([X0[None], _quantile_rows(target, U)])
        X[...] = np.take_along_axis(draws, last[..., None], axis=0)

    def marginal(steps: Sequence[int], corners: np.ndarray) -> tuple[np.ndarray, float]:
        m_pi, e_pi = target.box_masses(corners)
        if nu is target:
            return m_pi, e_pi
        m_nu, e_nu = nu.box_masses(corners)
        # float_power matches Python's float pow bit for bit, so a one-step
        # call gives the per-step form; numpy's power differs on some inputs
        w = float(np.mean(np.float_power(1.0 - a, np.asarray(steps, float))))
        return w * m_nu + (1.0 - w) * m_pi, w * e_nu + (1.0 - w) * e_pi

    return ChainSystem(
        s=2,
        generate=lambda U: _quantile_rows(nu, U),
        replay=replay,
        target=target,
        lambda0=1.0 - a,
        beta=1.0 - a,
        nu_density_norm=1.0 if nu is target else nu_density_norm(nu, target),
        exact_marginal=marginal,
    )
