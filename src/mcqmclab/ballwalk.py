"""Metropolis algorithm with ball-walk proposal on the Euclidean unit ball.

The proposal draws z uniformly from a gamma-ball via an explicit generator
(sphere direction from the leading driver coordinates, radius from the last
proposal coordinate) and accepts with the usual density ratio, evaluated in
log space.  For gamma >= 2 the update is invertible anywhere-to-anywhere,
which is what the driver-construction pipeline exploits.

Dimension conventions: for d >= 2 the proposal consumes d coordinates
(d - 1 sphere + 1 radius) and the update d + 1 (plus acceptance).  For d = 1
the sphere S^0 = {-1, +1} needs its own sign coordinate, so the proposal
consumes 2 coordinates and the update 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import ballwalk_gap_bound
from .chain import ChainSystem, GeneratorFunction, UpdateFunction
from .core import Rng, TargetMeasure, exp_linear_ball, special, uniform_ball

__all__ = [
    "LogDensity",
    "BallWalkParams",
    "sphere_generator",
    "ball_generator",
    "metropolis_update",
    "invert_update",
    "density_presets",
    "make_metropolis_system",
]


@dataclass(frozen=True)
class LogDensity:
    """Log of an unnormalized density on the unit ball, with a certified
    log-Lipschitz constant alpha and a log-concavity witness tag.
    ``log_rho`` maps points of shape (..., d) to shape (...)."""

    log_rho: Callable[[np.ndarray], np.ndarray]
    alpha: float
    concavity_witness: str  # affine | verified-numerically | asserted

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.concavity_witness not in ("affine", "verified-numerically", "asserted"):
            raise ValueError(f"unknown witness {self.concavity_witness!r}")

    def audit(self, d: int, rng: Rng, pairs: int = 10_000, tol: float = 1e-9) -> None:
        """Randomized membership audit: log-Lipschitz bound and midpoint
        log-concavity on sampled pairs of ball points.  Raises on violation."""
        for _ in range(pairs):
            x = _random_ball_point(d, rng)
            y = _random_ball_point(d, rng)
            lx, ly = self.log_rho(x), self.log_rho(y)
            if abs(lx - ly) > self.alpha * np.linalg.norm(x - y) + tol:
                raise AssertionError(f"log-Lipschitz violation at {x}, {y}")
            if self.log_rho(0.5 * (x + y)) < 0.5 * (lx + ly) - tol:
                raise AssertionError(f"log-concavity violation at {x}, {y}")


def _random_ball_point(d: int, rng: Rng) -> np.ndarray:
    while True:
        x = 2.0 * rng.uniforms(d) - 1.0
        if np.dot(x, x) <= 1.0:
            return x


@dataclass(frozen=True)
class BallWalkParams:
    """Proposal radius gamma and state dimension d."""

    gamma: float
    d: int

    def __post_init__(self):
        if self.gamma <= 0 or self.d < 1:
            raise ValueError("need gamma > 0 and d >= 1")

    @property
    def proposal_dim(self) -> int:
        return self.d if self.d >= 2 else 2

    @property
    def driver_dim(self) -> int:
        return self.proposal_dim + 1


# ---------------------------------------------------------------------------
# Generators (batched over leading axes)
# ---------------------------------------------------------------------------


def _sin_power_quantile(p: np.ndarray, m: int) -> np.ndarray:
    """theta in [0, pi] with int_0^theta sin^m / int_0^pi sin^m = p.

    t = sin^2(theta / 2) = (1 - cos theta) / 2 has the symmetric law
    Beta((m+1)/2, (m+1)/2), so theta = 2 asin(sqrt(t)), taken from the
    nearer pole to keep full precision at both ends.
    """
    p = np.asarray(p, float)
    h = 0.5 * (m + 1)
    half = 2.0 * np.arcsin(np.sqrt(special.betaincinv(h, h, np.minimum(p, 1.0 - p))))
    return np.where(p > 0.5, math.pi - half, half)


def sphere_generator(v, d: int) -> np.ndarray:
    """Uniform points on the unit sphere S^{d-1} from d-1 driver coordinates
    (one coordinate, sign threshold 1/2, for d = 1): shape (..., d-1) or
    (..., 1) to (..., d)."""
    v = np.asarray(v, float)
    if d == 1:
        return np.where(v[..., :1] < 0.5, -1.0, 1.0)
    if v.shape[-1] != d - 1:
        raise ValueError(f"need {d - 1} coordinates for d = {d}")
    if d == 3:
        z = 1.0 - 2.0 * v[..., 0]
        ang = 2.0 * math.pi * v[..., 1]
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=-1)
    # d = 2 and d >= 4: spherical angles theta_j with density prop. to
    # sin^{d-1-j}, last angle uniform on [0, 2 pi)
    angles = [_sin_power_quantile(v[..., j], d - 2 - j) for j in range(d - 2)]
    angles.append(2.0 * math.pi * v[..., d - 2])
    x = np.empty(v.shape[:-1] + (d,))
    sin_prod = np.ones(v.shape[:-1])
    for j in range(d - 1):
        x[..., j] = sin_prod * np.cos(angles[j])
        sin_prod = sin_prod * np.sin(angles[j])
    x[..., d - 1] = sin_prod
    return x


def ball_generator(v, gamma: float, d: int) -> np.ndarray:
    """Uniform points in the closed gamma-ball: direction from the leading
    coordinates, radius gamma * v_last^{1/d}; shape (..., p) to (..., d).
    The root is float_power's, which matches Python's float pow bit for bit
    where numpy's power does not."""
    v = np.asarray(v, float)
    radius = gamma * np.float_power(v[..., -1], 1.0 / d)
    return radius[..., None] * sphere_generator(v[..., :-1], d)


# ---------------------------------------------------------------------------
# Update function and its inverse
# ---------------------------------------------------------------------------


def _accept(x: np.ndarray, z: np.ndarray, v: np.ndarray, density: "LogDensity") -> np.ndarray:
    """Metropolis steps of the rows of x (b, d) with proposals z (b, d) and
    acceptance coordinates v (b,)."""
    y = x + z
    # the density ratio through math.exp, which numpy's exp does not match in
    # the last bit; exp(0) = 1 accepts every v in [0, 1]
    log_ratio = np.minimum(density.log_rho(y) - density.log_rho(x), 0.0)
    bound = np.fromiter(map(math.exp, log_ratio.tolist()), float, len(v))
    # np.vecdot runs the BLAS dot of np.dot, whose fused multiply-adds a plain
    # sum of squares does not match in the last bit
    ok = (v <= bound) & (np.vecdot(y, y) <= 1.0)
    return np.where(ok[:, None], y, x)


def metropolis_update(
    x: np.ndarray, u, params: BallWalkParams, density: LogDensity
) -> np.ndarray:
    """Metropolis steps from states (..., d) and driver points (..., s) of
    the same leading shape: propose x + z with z uniform in the gamma-ball;
    accept iff the proposal stays in the unit ball and the last driver
    coordinate clears the density ratio.  Rejection returns x unchanged."""
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    if u.shape[-1] != params.driver_dim:
        raise ValueError(f"need {params.driver_dim} driver coordinates")
    rows = u.reshape(-1, params.driver_dim)
    z = ball_generator(rows[:, : params.proposal_dim], params.gamma, params.d)
    return _accept(x.reshape(-1, params.d), z, rows[:, -1], density).reshape(x.shape)


# the relative width of _replay's band, derived in its docstring
_RATIO_BAND = 2.0**-48


def _replay(
    X0: np.ndarray, U: np.ndarray, params: BallWalkParams, density: LogDensity
) -> np.ndarray:
    """Ball-walk replay of a driver block U (m, b, s) from states X0 (b, d),
    for a preset density: log rho(x) = alpha * x_1 (alpha = 0: uniform).

    Proposals z depend on the driver alone, and so does the density-ratio
    test: with Delta = fl(alpha y_1) - fl(alpha x_1) for y = x + z, a step
    passes it iff v <= exp(min(Delta, 0)), which in exact arithmetic is
    g = alpha z_1 - log v >= 0 (log v <= 0).  For alpha = 0, Delta is
    exactly 0 and every v in [0, 1] passes.  Otherwise the test is decided
    for the whole block from the sign of the computed g.  That is exact
    outside the band |g| <= tol, for states and proposals in the unit ball
    (|x_1|, |y_1| <= 1; the unit-ball test rejects any other y), with
    u = 2^-53, np.log within 4 ulp (NumPy validates it to 1) and math.exp
    faithful (within 1 ulp):

        |Delta - alpha z_1| <= 6 alpha u           (x + z, two products, -)
        |g - (alpha z_1 - ln v)| <= (2 alpha |z_1| + 9 |ln v|) u
                                                   (product, np.log, -)
        |ln(math.exp(t) / e^t)| <= 2.01 u          (exp)

    so tol = 2^-48 (alpha (2 + |z_1|) + |log v| + 1), 32 u per term,
    covers their sum.  The bound on exp is relative, which holds while
    exp(Delta) is a normal number, so alpha z_1 < -700 counts as inside the
    band, as does a NaN g.  A block with any entry inside the band replays
    every step through ``_accept``, the exact per-step form.  Otherwise the
    step loop keeps only y = x + z, the unit-ball test and the selection,
    computed as in ``_accept``.  Either way the states equal per-step
    ``metropolis_update`` bit for bit.
    """
    d = params.d
    z = ball_generator(U[..., : params.proposal_dim], params.gamma, d)
    v = U[..., -1]
    X = np.empty(z.shape)
    x = X0
    alpha = density.alpha
    if alpha == 0.0:
        ratio_ok = np.ones(v.shape, bool)
    else:
        az = alpha * z[..., 0]
        # v = 0 passes whatever the ratio; so does the smallest subnormal
        # once alpha z_1 >= -700, and its log is finite
        log_v = np.log(np.maximum(v, 5e-324))
        g = az - log_v
        tol = _RATIO_BAND * (alpha * (2.0 + np.abs(z[..., 0])) + np.abs(log_v) + 1.0)
        if not (np.abs(g) > tol).all() or (az < -700.0).any():
            for i in range(len(U)):
                x = X[i] = _accept(x, z[i], v[i], density)
            return X
        ratio_ok = g > 0.0
    for i in range(len(U)):
        y = x + z[i]
        # np.vecdot as in _accept, for the same rounding
        ok = ratio_ok[i] & (np.vecdot(y, y) <= 1.0)
        x = X[i] = np.where(ok[:, None], y, x)
    return X


def _sphere_inverse(e: np.ndarray, d: int) -> np.ndarray:
    if d == 1:
        return np.array([0.25 if e[0] < 0 else 0.75])
    if d == 2:
        ang = math.atan2(e[1], e[0]) % (2.0 * math.pi)
        return np.array([ang / (2.0 * math.pi)])
    if d == 3:
        ang = math.atan2(e[1], e[0]) % (2.0 * math.pi)
        return np.array([(1.0 - e[2]) / 2.0, ang / (2.0 * math.pi)])
    raise NotImplementedError("sphere inverse implemented for d <= 3 only")


def invert_update(
    x: np.ndarray, y: np.ndarray, params: BallWalkParams, density: LogDensity
) -> np.ndarray:
    """Driver point u with metropolis_update(x, u) = y, for gamma >= 2.

    For y != x the proposal is forced to z = y - x with acceptance coordinate
    0 (always accepted since rho > 0).  For y = x the returned u proposes a
    point outside the unit ball, forcing the stay branch.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    d = params.d
    if d > 3:
        raise NotImplementedError("update inversion implemented for d <= 3 only")
    z = y - x
    r = float(np.linalg.norm(z))
    if r > params.gamma:
        raise ValueError(f"target at distance {r} exceeds proposal radius {params.gamma}")
    if r > 0.0:
        v_dir = _sphere_inverse(z / r, d)
        v_rad = (r / params.gamma) ** d
        return np.concatenate([v_dir, [v_rad, 0.0]])
    # stay branch: exiting proposal along x (any direction when x = 0)
    nx = float(np.linalg.norm(x))
    e = x / nx if nx > 0 else np.eye(d)[0]
    r_out = 0.5 * ((1.0 - nx) + params.gamma)
    v_dir = _sphere_inverse(e, d)
    v_rad = min((r_out / params.gamma) ** d, 1.0)
    return np.concatenate([v_dir, [v_rad, 1.0]])


# ---------------------------------------------------------------------------
# Density presets and chain assembly
# ---------------------------------------------------------------------------


def density_presets(name: str, alpha: float, d: int) -> LogDensity:
    """uniform: log rho = 0; exp-linear: log rho(x) = alpha * x_1."""
    if name == "uniform":
        return LogDensity(
            log_rho=lambda x: np.zeros(np.shape(x)[:-1]), alpha=0.0, concavity_witness="affine"
        )
    if name == "exp-linear":
        return LogDensity(
            log_rho=lambda x: alpha * np.asarray(x, float)[..., 0],
            alpha=alpha,
            concavity_witness="affine",
        )
    raise ValueError(f"unknown density preset {name!r}")


def _target_for(name: str, alpha: float, d: int) -> TargetMeasure:
    if name == "uniform":
        return uniform_ball(d)
    return exp_linear_ball(alpha, d)


def make_metropolis_system(
    name: str, alpha: float, gamma: float, d: int
) -> ChainSystem:
    """Chain system for the Metropolis ball walk, started from the uniform
    distribution on the unit ball.

    ||dnu/dpi||_2 <= e^alpha is used as the density-norm certificate.  The
    spectral-gap lower bound applies at the optimal radius gamma* only; for
    any other radius (notably the inversion regime gamma = 2) lambda0 is
    unknown (None), and no theory bound is computed from this system.
    """
    density = density_presets(name, alpha, d)
    target = _target_for(name, alpha, d)
    params = BallWalkParams(gamma=gamma, d=d)

    p = params.proposal_dim
    generator = GeneratorFunction(
        s_init=params.driver_dim, map=lambda U: ball_generator(U[..., :p], 1.0, d)
    )

    update = UpdateFunction(
        s=params.driver_dim,
        replay=lambda X0, U: _replay(X0, U, params, density),
        inverse=lambda x, y: invert_update(x, y, params, density),
    )

    def sampler(x: np.ndarray, rng: Rng) -> np.ndarray:
        # independent route: rejection-sample z uniform in the gamma-ball
        while True:
            z = params.gamma * (2.0 * rng.uniforms(d) - 1.0)
            if np.dot(z, z) <= params.gamma**2:
                break
        y = x + z
        if np.dot(y, y) > 1.0:
            return x
        log_ratio = density.log_rho(y) - density.log_rho(x)
        if log_ratio >= 0.0 or rng.uniform() <= math.exp(log_ratio):
            return y
        return x

    gamma_star, gap = ballwalk_gap_bound(alpha, d)
    lambda0 = 1.0 - gap if abs(gamma - gamma_star) <= 1e-12 else None

    return ChainSystem(
        update=update,
        generator=generator,
        target=target,
        lambda0=lambda0,
        beta=None,
        nu_density_norm=math.exp(density.alpha),
        exact_marginal=None,
        kernel_sampler=sampler,
    )
