"""Metropolis algorithm with ball-walk proposal on the Euclidean unit ball.

The walk targets the density exp(alpha x_1) on the unit ball, which is
log-concave and alpha-log-Lipschitz by construction (alpha = 0: uniform).
The proposal draws z uniformly from a gamma-ball via an explicit generator
(sphere direction from the leading driver coordinates, radius from the last
proposal coordinate) and accepts with the usual density ratio, evaluated in
log space.  For gamma >= 2 the update is invertible anywhere-to-anywhere,
which is what the driver-construction pipeline exploits.

Dimension conventions: in d = 2 and 3 the proposal consumes d coordinates
(d - 1 sphere + 1 radius) and the update d + 1 (plus acceptance).  For d = 1
the sphere S^0 = {-1, +1} needs its own sign coordinate, so the proposal
consumes 2 coordinates and the update 3.  The walk is built for d <= 3, the
dimensions with a box-mass rule on the ball; above that the proposal, and so
the update, raise NotImplementedError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import ballwalk_gap_bound
from .chain import ChainSystem
from .core import TargetMeasure, exp_linear_ball, uniform_ball

__all__ = [
    "BallWalkParams",
    "ball_generator",
    "invert_update",
    "make_metropolis_system",
]


@dataclass(frozen=True)
class BallWalkParams:
    """Proposal radius gamma, state dimension d and the log-Lipschitz
    constant alpha of the target density exp(alpha x_1) (alpha = 0:
    uniform)."""

    gamma: float
    d: int
    alpha: float

    def __post_init__(self):
        # NaN fails both: a NaN or infinite radius or rate makes NaN steps
        if not 0.0 < self.gamma < math.inf or self.d < 1:
            raise ValueError("need finite gamma > 0 and d >= 1")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and nonnegative")

    @property
    def proposal_dim(self) -> int:
        return self.d if self.d >= 2 else 2

    @property
    def driver_dim(self) -> int:
        return self.proposal_dim + 1


# ---------------------------------------------------------------------------
# Proposal generator (batched over leading axes)
# ---------------------------------------------------------------------------


def ball_generator(v, gamma: float, d: int) -> np.ndarray:
    """Uniform points in the closed gamma-ball, d <= 3: direction from the
    leading coordinates, radius gamma * v_last^{1/d}; shape (..., p) to
    (..., d).  The root is float_power's, which matches Python's float pow
    bit for bit where numpy's power does not; in d = 1 it is v_last itself.
    d >= 4 raises NotImplementedError.

    d <= 2 is built straight in the scalar storage of ``_scalar_steps``.
    In d = 1 the point is copysign(gamma v_last, v_1 - 1/2): v_1 - 1/2 is
    negative exactly when v_1 < 1/2 (and +0.0 at 1/2), so these are the
    bits of the radius times -1 or +1, -0.0 included.  In d = 2 the point
    is (radius cos, radius sin) of the angle 2 pi v_1, the products written
    into the real and imaginary parts of one complex array, whose (..., 2)
    float view is returned.  In d = 3 the direction is Archimedes' map:
    height h = 1 - 2 v_1, angle 2 pi v_2 and (r cos, r sin, h) for r =
    sqrt(1 - h^2)."""
    v = np.asarray(v, float)
    if d == 1:
        return np.copysign(gamma * v[..., -1:], v[..., :1] - 0.5)
    if d > 3:
        raise NotImplementedError(f"ball-walk proposals are implemented for d <= 3, not d = {d}")
    if v.shape[-1] != d:
        raise ValueError(f"need {d} coordinates for d = {d}")
    radius = gamma * np.float_power(v[..., -1], 1.0 / d)
    ang = 2.0 * math.pi * v[..., d - 2]
    if d == 2:
        z = np.empty(radius.shape, complex)
        np.multiply(radius, np.cos(ang), out=z.real)
        np.multiply(radius, np.sin(ang), out=z.imag)
        return z[..., None].view(float)
    # d = 3: the height h is uniform on [-1, 1]
    h = 1.0 - 2.0 * v[..., 0]
    r = np.sqrt(np.maximum(1.0 - h * h, 0.0))
    return radius[..., None] * np.stack([r * np.cos(ang), r * np.sin(ang), h], axis=-1)


# ---------------------------------------------------------------------------
# Update function and its inverse
# ---------------------------------------------------------------------------


def _accept(x: np.ndarray, z: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """Metropolis steps of the rows of x (b, d) with proposals z (b, d) and
    acceptance coordinates v (b,), for the density exp(alpha x_1)."""
    y = x + z
    # the density ratio through math.exp, which numpy's exp does not match in
    # the last bit; exp(+-0) = 1 accepts every v in [0, 1]
    log_ratio = np.minimum(alpha * y[:, 0] - alpha * x[:, 0], 0.0)
    bound = np.fromiter(map(math.exp, log_ratio.tolist()), float, len(v))
    # np.vecdot runs the BLAS dot of np.dot, whose fused multiply-adds a plain
    # sum of squares does not match in the last bit
    ok = (v <= bound) & (np.vecdot(y, y) <= 1.0)
    return np.where(ok[:, None], y, x)


# the relative widths of _replay's bands, around a tie of the ratio test and
# around the unit circle, derived in its docstring
_RATIO_BAND = 2.0**-48
_CIRCLE_BAND = 2.0**-48
# _replay builds the proposals and the ratio test of about this many driver
# entries at a time (one step at least)
_REPLAY_CHUNK = 1 << 16
# 1.0 as a 0-d array compares faster than a Python float
_ONE = np.array(1.0)


def _one_chain(x: np.ndarray, z: np.ndarray) -> list:
    """The step loop of :func:`_replay` for one chain, in Python floats:
    the states after each proposal of z (m, d), d <= 3, from the state x
    (d,), as one flat list of m d floats, state after state (no tuple per
    step), which one array call reshapes to (m, d).

    In d = 1, |y| > 1 rejects, the block loop's own test.  In d = 2 and 3,
    a sum of the d squares y_j y_j, in any order and with or without fused
    multiply-adds, lies within gamma_d S of their exact sum S, gamma_d = d
    u / (1 - d u), u = 2^-53 (squares that underflow add at most d 2^-1074,
    nothing near 1; one that overflows makes every such sum +inf).  So for
    the Python sum s and np.vecdot's t, s <= 1 - w gives t <= (1 - w) (1 +
    gamma_d) / (1 - gamma_d) <= 1, and s > 1 + w gives t > (1 + w) (1 -
    gamma_d) / (1 + gamma_d) >= 1, for w >= 2 gamma_d / (1 - gamma_d) = 2 d
    u / (1 - 2 d u), which w = 4 d u covers.  Only a sum inside that band
    asks np.vecdot, on y as the block loop does."""
    path = []
    add = path.append
    if len(x) == 1:
        (x0,) = x.tolist()
        for z0 in z.ravel().tolist():
            y0 = x0 + z0
            if not abs(y0) > 1.0:
                x0 = y0
            add(x0)
        return path
    lo, hi = 1.0 - 4 * len(x) * 2.0**-53, 1.0 + 4 * len(x) * 2.0**-53
    if len(x) == 2:
        x0, x1 = x.tolist()
        for z0, z1 in z.tolist():
            y0, y1 = x0 + z0, x1 + z1
            s = y0 * y0 + y1 * y1
            if s <= lo or (s <= hi and np.vecdot(y := np.array((y0, y1)), y) <= 1.0):
                x0, x1 = y0, y1
            add(x0)
            add(x1)
        return path
    x0, x1, x2 = x.tolist()
    for z0, z1, z2 in z.tolist():
        y0, y1, y2 = x0 + z0, x1 + z1, x2 + z2
        s = y0 * y0 + y1 * y1 + y2 * y2
        if s <= lo or (s <= hi and np.vecdot(y := np.array((y0, y1, y2)), y) <= 1.0):
            x0, x1, x2 = y0, y1, y2
        add(x0)
        add(x1)
        add(x2)
    return path


# y . y overflows to inf near the float range, which the unit-ball test rejects
@np.errstate(over="ignore")
def _replay(X0: np.ndarray, U: np.ndarray, params: BallWalkParams, X: np.ndarray | None = None) -> np.ndarray:
    """Ball-walk replay of a driver block U (m, b, s) from states X0 (b, d)
    for the density of ``params``: log rho(x) = alpha * x_1.  The states go
    into X (m, b, d), a new array when X is None, which is returned.

    Proposals z depend on the driver alone, and so does the density-ratio
    test: with Delta = fl(alpha y_1) - fl(alpha x_1) for y = x + z, a step
    passes it iff v <= exp(min(Delta, 0)), which in exact arithmetic is
    g = alpha z_1 - log v >= 0 (log v <= 0).  For alpha = 0, Delta is
    exactly 0 and every v in [0, 1] passes.  Otherwise the test is decided
    from the sign of the computed g.  That is exact outside the band
    |g| <= tol, for states and proposals in the unit ball (|x_1|, |y_1| <=
    1; the unit-ball test rejects any other y), with u = 2^-53, np.log
    within 4 ulp (NumPy validates it to 1) and math.exp faithful (within 1
    ulp):

        |Delta - alpha z_1| <= 6 alpha u           (x + z, two products, -)
        |g - (alpha z_1 - ln v)| <= (2 alpha |z_1| + 9 |ln v|) u
                                                   (product, np.log, -)
        |ln(math.exp(t) / e^t)| <= 2.01 u          (exp)

    so 2^-48 (alpha (2 + |z_1|) + |log v| + 1), 32 u per term, covers
    their sum.  |z_1| <= gamma, and |log v| <= 745 for v >= 5e-324, so one
    band serves every entry: tol = 2^-48 (alpha (2 + gamma) + 746).  A
    wider band than needed only sends more steps to the exact path.  The
    bound on exp is relative, which holds while exp(Delta) is a normal
    number, so alpha z_1 < -700 counts as inside the band, as does a NaN g;
    the former needs alpha gamma > 700.

    The steps go in chunks of about :data:`_REPLAY_CHUNK` driver entries,
    and the band is decided per chunk: the proposals and the test of a
    chunk are built, then its steps run.  At 2^16 entries a block of a few
    hundred thousand entries takes two or three chunks, so the per-chunk
    work is paid a few times, and the temporaries beside the states stay
    within a few chunks of floats (0.5 MB each) however long the block.  A
    chunk with any entry inside the band replays its steps through
    ``_accept``, the exact per-step form.
    Otherwise a proposal that fails the ratio test becomes +inf, which the
    unit-ball test rejects, and each step writes y = x + z into its row of
    the states and copies the previous state back into the rows with
    y . y > 1 (np.vecdot, as in ``_accept``; y is never NaN: states are
    finite and proposals finite or +inf).  One chain (b = 1) takes the same
    steps in Python floats instead (:func:`_one_chain`), whose flat list
    of floats becomes the chunk's states in one ``np.fromiter`` call.

    In d <= 2 the b chains step on one scalar each (:func:`_scalar_steps`),
    on proposals that :func:`ball_generator` builds in that storage (a
    float column in d = 1, the float view of a complex array in d = 2),
    and test |y| > 1.  In d = 1 that is exactly fl(y y) > 1 for finite y.
    In d = 2, y is a complex number and |y| is np.absolute's, taken here
    to be within 4 ulp of the exact |y|, so h = |y| computed has |h - |y||
    <= 8 u |y|; np.vecdot's t lies within gamma_2 S of S = |y|^2, gamma_2 =
    2 u / (1 - 2 u), as for :func:`_one_chain`.  So h <= 1 - w gives S <=
    (1 - w)^2 / (1 - 8 u)^2 and t <= S (1 + gamma_2) <= 1, and h > 1 + w
    gives S > (1 + w)^2 / (1 + 8 u)^2 and t > S (1 - gamma_2) >= 1, for w
    >= 9.1 u, which w = 2^-48 = 32 u covers (:data:`_CIRCLE_BAND`).  An
    infinite y gives h = t = inf; a finite y with t = inf has h > 1.  A
    d = 2 chunk with any h inside the band |h - 1| <= w is replayed again
    by the np.vecdot loop, which d = 3 takes for every chunk.  Either way,
    chunk by chunk, the states equal bit for bit those of the one-step
    replays, blocks (1, b, s), taken one after another.
    """
    d, alpha = params.d, params.alpha
    m, b, s = U.shape
    X = np.empty((m, b, d)) if X is None else X
    x = X0
    tol = _RATIO_BAND * (alpha * (2.0 + params.gamma) + 746.0)
    # size[j] is y_j . y_j, and out[j] whether y_j left the unit ball
    size, out = np.empty(b), np.empty((b, 1), bool)
    out_rows = out[:, 0]
    steps = max(1, _REPLAY_CHUNK // (b * s))
    for start in range(0, m, steps):
        U_c, X_c = U[start : start + steps], X[start : start + steps]
        z = ball_generator(U_c[..., : params.proposal_dim], params.gamma, d)
        if alpha != 0.0:
            v = U_c[..., -1]
            az = alpha * z[..., 0]
            # v = 0 passes whatever the ratio; so does the smallest subnormal
            # once alpha z_1 >= -700, and its log is finite
            g = np.maximum(v, 5e-324)
            np.subtract(az, np.log(g, out=g), out=g)
            if not (np.abs(g) > tol).all() or (alpha * params.gamma > 700.0 and (az < -700.0).any()):
                for i in range(len(U_c)):
                    x = X_c[i] = _accept(x, z[i], v[i], alpha)
                continue
            np.copyto(z, np.inf, where=(g <= 0.0)[..., None])
        if b == 1:
            X_c[:, 0] = np.fromiter(_one_chain(x[0], z[:, 0]), float, len(X_c) * d).reshape(len(X_c), d)
        elif d > 2 or not _scalar_steps(x, z, X_c):
            for z_i, X_i in zip(z, X_c):
                np.add(x, z_i, X_i)
                np.vecdot(X_i, X_i, size)
                np.greater(size, _ONE, out_rows)
                np.copyto(X_i, x, where=out)
                x = X_i
        x = X_c[-1]
    return X


def _scalar_steps(x: np.ndarray, z: np.ndarray, X: np.ndarray) -> bool:
    """The step loop of :func:`_replay` for b chains in d <= 2, on one
    scalar per chain: the states after each proposal of z (m, b, d) from
    the states x (b, d), written into X (m, b, d).  A state is a float in
    d = 1 and a complex number in d = 2, a view of the same memory; so is
    a proposal, which :func:`ball_generator` builds in that storage.  One
    loop body serves both: y = x + z, |y| > 1 rejects, and ``np.putmask``
    puts x back into the rejected rows.  d = 1 writes every |y| into one
    (b,) buffer; d = 2 keeps them all, (m, b), and returns whether the
    states stand: False when some |y| lies within :data:`_CIRCLE_BAND` of
    1, where only ``np.vecdot`` decides."""
    if x.shape[-1] == 1:
        x, z, X = x[:, 0], z[..., 0], X[..., 0]
        sizes = itertools.repeat(np.empty(len(x)))
    else:
        x = np.ascontiguousarray(x).view(np.complex128)[:, 0]
        z, X = z.view(np.complex128)[..., 0], X.view(np.complex128)[..., 0]
        sizes = np.empty(z.shape)
    add, absolute, greater, putmask = np.add, np.absolute, np.greater, np.putmask
    out = np.empty(len(x), bool)
    for z_i, X_i, size in zip(z, X, sizes):
        add(x, z_i, X_i)
        absolute(X_i, size)
        greater(size, _ONE, out)
        putmask(X_i, out, x)
        x = X_i
    return x.dtype == float or not (np.abs(sizes - 1.0) <= _CIRCLE_BAND).any()


def _sphere_inverse(e: np.ndarray, d: int) -> np.ndarray:
    """The direction coordinates from which :func:`ball_generator` gives
    the unit vector e, d <= 3."""
    if d == 1:
        return np.array([0.25 if e[0] < 0 else 0.75])
    turn = math.atan2(e[1], e[0]) % (2.0 * math.pi) / (2.0 * math.pi)
    return np.array([turn] if d == 2 else [(1.0 - e[2]) / 2.0, turn])


def invert_update(x: np.ndarray, y: np.ndarray, params: BallWalkParams) -> np.ndarray:
    """Driver point u whose one-step replay, the block (1, 1, s), takes
    the state x to y, for gamma >= 2.

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
# Target presets and chain assembly
# ---------------------------------------------------------------------------


def _target_for(name: str, alpha: float, d: int) -> TargetMeasure:
    """The target of a density preset on the unit ball: uniform, or
    exp-linear (density exp(alpha x_1)); in d = 1 the interval [-1, 1]."""
    if name == "uniform":
        return uniform_ball(d)
    if name == "exp-linear":
        return exp_linear_ball(alpha, d)
    raise ValueError(f"unknown density preset {name!r}")


def make_metropolis_system(name: str, alpha: float, gamma: float, d: int) -> ChainSystem:
    """Chain system for the Metropolis ball walk on the target of the preset
    ``name`` (:func:`_target_for`), started from the uniform distribution on
    the unit ball.  The uniform walk has alpha 0 whatever ``alpha`` is.

    ||dnu/dpi||_2 <= e^alpha, for the walk's alpha, is used as the
    density-norm certificate.  The spectral-gap lower bound, from ``alpha``
    as given, applies at the optimal radius gamma* only; for any other
    radius (notably the inversion regime gamma = 2) lambda0 is unknown
    (None), and no theory bound is computed from this system.
    """
    params = BallWalkParams(gamma=gamma, d=d, alpha=alpha if name == "exp-linear" else 0.0)
    target = _target_for(name, alpha, d)

    p = params.proposal_dim
    gamma_star, gap = ballwalk_gap_bound(alpha, d)
    lambda0 = 1.0 - gap if abs(gamma - gamma_star) <= 1e-12 else None

    return ChainSystem(
        s=params.driver_dim,
        generate=lambda U: ball_generator(U[..., :p], 1.0, d),
        replay=lambda X0, U, X: _replay(X0, U, params, X),
        target=target,
        lambda0=lambda0,
        beta=None,
        nu_density_norm=math.exp(params.alpha),
        inverse=lambda x, y: invert_update(x, y, params),
    )
