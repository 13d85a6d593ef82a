"""Shared geometry, target measures, deterministic RNG and driver sequences.

Everything downstream (chains, discrepancies, covers, searches) is built on
the types here:

* ``Rng`` -- a splittable counter-based SplitMix64 generator, so every
  candidate and replica stream is reproducible from (seed, label).
* ``TargetMeasure`` -- a target distribution given by a density on a bounded
  domain, with a batched box-mass oracle over corner arrays (closed form
  where possible, the disc formula of two antiderivatives in d = 2 on the
  ball, closed-form or from the profile rule, the profile rule in d = 3,
  quadrature on the interval and the d = 2 box; any other measure is
  refused).  A row c
  of a corner array stands for the strictly open box ``(-inf, c)``; an
  entry of +inf leaves its coordinate unrestricted, one of -inf makes the
  box empty.
* ``halton_sequence`` and ``uniform_driver`` -- driver sequences as float
  arrays of shape (n, s), one point in [0,1]^s per chain step.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Rng",
    "BoxDomain",
    "BallDomain",
    "TargetMeasure",
    "halton_sequence",
    "uniform_driver",
    "uniform_interval",
    "exp_linear_interval",
    "exp_linear_box",
    "uniform_box",
    "uniform_ball",
    "exp_linear_ball",
]


class _LazyModule:
    """A module imported on first attribute access, so that importing the
    package loads no scipy; every attribute is the module's own."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


# quadrature; callers read this name at call time, so an object set in its
# place here is the one called
integrate = _LazyModule("scipy.integrate")


# ---------------------------------------------------------------------------
# Deterministic splittable RNG (SplitMix64, counter-based)
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z):
    """SplitMix64's output mix of a Python int, or in place of a uint64 array."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


# _splitmix_uniforms mixes this many outputs at a time, in two reused buffers
_SPLITMIX_CHUNK = 1 << 14


def _splitmix_uniforms(seeds: np.ndarray, n: int, start: int = 0, out=None) -> np.ndarray:
    """The uniforms in [0,1) of the SplitMix64 outputs with counters start +
    1, ..., start + n of the streams ``seeds`` (uint64, shape (m,)), shape
    (m, n), written into ``out`` when given.  The mix is exact integer
    arithmetic, done in place a chunk of rows and columns at a time, so no
    temporary is larger than a chunk and the chunks change no bit."""
    out = np.empty((len(seeds), n)) if out is None else out
    cols = max(1, min(n, _SPLITMIX_CHUNK))
    z, t = np.empty((2, _SPLITMIX_CHUNK // cols, cols), np.uint64)
    for c in range(0, n, cols):
        step = np.arange(start + c + 1, start + min(c + cols, n) + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        for r in range(0, len(seeds), len(z)):
            zc, tc = z[: len(seeds) - r, : step.size], t[: len(seeds) - r, : step.size]
            np.add(seeds[r : r + len(zc), None], step, out=zc)
            for shift, mix in ((30, _MIX1), (27, _MIX2)):
                zc ^= np.right_shift(zc, shift, out=tc)
                zc *= mix
            zc ^= np.right_shift(zc, 31, out=tc)
            zc >>= 11
            np.multiply(zc, 2.0**-53, out=out[r : r + len(zc), c : c + step.size])
    return out


class Rng:
    """Counter-based SplitMix64 stream.

    The i-th output is a pure function of ``(seed, i)``, so block generation
    via :meth:`uniforms` and one-at-a-time generation via :meth:`uniform`
    produce the same stream.  :meth:`split` derives an independent child
    stream from an integer label in [0, 2^63).  Seeds are 64-bit:
    ValueError outside [0, 2^64), where a masked seed would alias another.
    """

    def __init__(self, seed: int, _counter: int = 0):
        self.seed = int(seed)
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"Rng seeds lie in [0, 2^64), got {seed}")
        self._counter = _counter

    def uniform(self) -> float:
        self._counter += 1
        return (_mix64((self.seed + self._counter * _GAMMA) & _MASK64) >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms in [0,1) advancing the stream by n."""
        u = _splitmix_uniforms(np.array([self.seed], np.uint64), n, self._counter)[0]
        self._counter += n
        return u

    def split(self, label: int) -> "Rng":
        """The child stream of an integer label in [0, 2^63); ValueError
        outside it, where 2 label + 1, taken modulo 2^64, would give two
        labels one child."""
        label = int(label)
        if not 0 <= label < 1 << 63:
            raise ValueError(f"child labels lie in [0, 2^63), got {label}")
        return Rng(_mix64(self.seed ^ _mix64(((2 * label + 1) * _GAMMA) & _MASK64)))

    def split_uniforms(self, labels, n: int, out=None) -> np.ndarray:
        """The first n uniforms of the children with the given labels, shape
        (len(labels), n), written into ``out`` when given: row r is
        ``self.split(labels[r]).uniforms(n)``, all from one
        :func:`_splitmix_uniforms` call."""
        labels = np.asarray(labels)
        for label in (labels.min(), labels.max()) if labels.size else ():
            self.split(label)  # ValueError unless every label lies in [0, 2^63)
        seeds = _mix64(np.uint64(self.seed) ^ _mix64((2 * labels.astype(np.uint64) + 1) * np.uint64(_GAMMA)))
        return _splitmix_uniforms(seeds, n, out=out)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed:#x}, counter={self._counter})"


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box ``prod_j [lower_j, upper_j]``."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        # membership is tested once per chain step; convert the bounds once
        object.__setattr__(self, "_lo", np.asarray(self.lower, float))
        object.__setattr__(self, "_hi", np.asarray(self.upper, float))

    @property
    def dim(self) -> int:
        return len(self.lower)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Closed-box membership of points of shape (..., d)."""
        return ((pts >= self._lo) & (pts <= self._hi)).all(axis=-1)

    def bounding(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lower, float), np.asarray(self.upper, float)


@dataclass(frozen=True)
class BallDomain:
    """Euclidean unit ball centered at the origin."""

    dim: int

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Membership of points of shape (..., d), with 1e-15 relative slack
        on the squared radius for states produced by rounded arithmetic."""
        pts = np.asarray(pts, float)
        return np.vecdot(pts, pts) <= 1 + 1e-15

    def bounding(self) -> tuple[np.ndarray, np.ndarray]:
        r = np.ones(self.dim)
        return -r, r


# ---------------------------------------------------------------------------
# Target measures
# ---------------------------------------------------------------------------

# The profile rule of the ball: a Gauss-Legendre pair on intervals in theta
# (x1 = sin(theta)).  The higher order gives the value, the gap to the lower
# one the error estimate.  The fixed panel edges keep every interval at most
# pi / _DISC_PANELS long: with 8 panels the exp-linear disc's normalizer has
# a relative gap of 6.2e-12 at alpha = 100 (4 panels: 2.1e-7).
_DISC_LOW, _DISC_HIGH = (np.polynomial.legendre.leggauss(k) for k in (12, 24))
_DISC_NODES = np.concatenate([_DISC_LOW[0], _DISC_HIGH[0]])
_DISC_PANELS = 8
_DISC_PANEL_EDGES = -0.5 * math.pi + math.pi / _DISC_PANELS * np.arange(_DISC_PANELS)
# the panel edges with pi / 2, where the disc's antiderivatives end
_DISC_EDGES = np.append(_DISC_PANEL_EDGES, 0.5 * math.pi)
# the profile rule holds at most this many integrand values at once (48 per
# interval of a d = 3 column, one column at least; 36 per point of the
# disc's antiderivatives, one point at least), and grid_masses prices this
# many corners at a time
_PROFILE_CHUNK = 1 << 16


def _disc_area_below(t):
    """The antiderivative G(t) = (t sqrt(1 - t^2) + asin t) / 2 of
    sqrt(1 - t^2) on [-1, 1]."""
    return 0.5 * (t * np.sqrt(1.0 - t * t) + np.arcsin(t))


def _disc_select(t, c, s, P, Q, P_start):
    """The mass of density p(x1) on the unit disc below the corners (t, c)
    in [-1, 1]^2, elementwise (broadcast), from the values (at t, -s, s) of
    antiderivatives P of p(x) sqrt(1 - x^2) and Q of p, s = sqrt(1 - c^2),
    and P_start = P(-1).  The x2-section at x1 = x has length h + c for
    |x| < s and 2h or 0 (as c >= 0 or not) for |x| >= s, h = sqrt(1 - x^2),
    so with m = clip(t, -s, s) the mass is P(m) - P(-s) + c (Q(m) - Q(-s)),
    plus 2 (P(min(t, -s)) - P(-1) + P(max(t, s)) - P(s)) where c >= 0."""
    below, above = t < -s, t > s
    mid = lambda f: np.where(below, f[1], np.where(above, f[2], f[0]))
    inner = mid(P) - P[1] + c * (mid(Q) - Q[1])
    outer = 2.0 * (np.where(t > -s, P[1], P[0]) - P_start + np.where(t < s, P[2], P[0]) - P[2])
    return inner + np.where(c >= 0.0, outer, 0.0)


def _disc_area(t, c):
    """Area of the unit disc below the corner (t, c) in [-1, 1]^2,
    elementwise: :func:`_disc_select` with p = 1, P = G =
    :func:`_disc_area_below` and Q the identity."""
    s = np.sqrt(1.0 - c * c)
    G = _disc_area_below
    return _disc_select(t, c, s, (G(t), G(-s), G(s)), (t, -s, s), G(-1.0))


def _disc_rule(profile, a, b) -> np.ndarray:
    """The Gauss-Legendre pair on the angle intervals [a_i, b_i] of the
    integrands of the disc's antiderivatives in theta, profile(sin t)
    cos^2 t (P) and profile(sin t) cos t (Q): shape (4, len(a)), the
    24-point values of P and Q and their gaps to the 12-point values."""
    half = 0.5 * (b - a)
    theta = (0.5 * (a + b))[:, None] + half[:, None] * _DISC_NODES
    rho = np.cos(theta)
    q = profile(np.sin(theta)) * rho
    k = _DISC_LOW[0].size
    out = np.empty((4, len(a)))
    for i, f in enumerate((q * rho, q)):
        out[i] = half * np.sum(f[:, k:] * _DISC_HIGH[1], axis=-1)
        out[2 + i] = np.abs(out[i] - half * np.sum(f[:, :k] * _DISC_LOW[1], axis=-1))
    return out


def _disc_combine(t, c, s, at_t, lo, hi, start) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Unnormalized masses and errors of a disc below the corners (t, c):
    :func:`_disc_select` of the antiderivative tables at t, -s and s
    (arrays (2, ...) of P and Q, or (4, ...) with their errors E_P and E_Q,
    broadcast against t and c), with P(-1) = ``start``.  A table without
    errors, a closed form's, has errors None.  The error sums each point's
    error times the absolute value of its coefficient; a difference of one
    point's values is exact, so the terms at m and -s count where t > -s
    and s > 0, and 2 E_P(t) where c >= 0 and t lies outside (-s, s]."""
    P, Q, *E = zip(at_t, lo, hi)
    num = _disc_select(t, c, s, P, Q, start)
    if not E:
        return num, None
    EP, EQ = E
    above = t > s
    m = lambda f: np.where(above, f[2], f[0])
    err = np.where((t > -s) & (s > 0.0), m(EP) + EP[1] + np.abs(c) * (m(EQ) + EQ[1]), 0.0)
    err += np.where((c >= 0.0) & ((t <= -s) | above), 2.0 * EP[0], 0.0)
    return num, err


def _ball_section(rho, h):
    """Area of the section of the 3-ball at half-width rho below the
    corner's trailing coordinates h = (h2, h3): the disc of radius rho
    below h, rho^2 times the unit disc's area below clip(h / rho, -1, 1)."""
    t, c = (np.clip(h[..., j] / rho, -1.0, 1.0) for j in (0, 1))
    return rho * rho * _disc_area(t, c)


def _ball_section_kinks(h):
    """The half-widths rho at which :func:`_ball_section` is not smooth in
    rho, one column each: |h2|, |h3| and min(|h|, 1), where the corner
    meets the circle."""
    return np.column_stack([np.abs(h), np.minimum(np.hypot(h[:, 0], h[:, 1]), 1.0)])


def _bisect(f: Callable[[np.ndarray, np.ndarray], np.ndarray], p, a, b):
    """Bisection to width 1e-12 of nondecreasing functions for every level of
    p at once: level i halves its own bracket [a_i, b_i] (a and b broadcast
    against p), keeping the lower end while its function at the midpoint is
    below p_i, until the bracket is no wider than 1e-12, and returns the
    midpoint.  ``f(mid, live)`` gives the functions at the midpoints of the
    live levels, whose flat indices are ``live``; one call per step serves
    all of them.  The brackets of the live levels are held packed and
    updated in place; a level whose bracket is narrow enough leaves them.
    A scalar result is a float."""
    shape = np.broadcast_shapes(np.shape(p), np.shape(a), np.shape(b))
    levels, lo, hi = (np.broadcast_to(np.asarray(x, float), shape).flatten() for x in (p, a, b))
    out = 0.5 * (lo + hi)
    live = np.flatnonzero(hi - lo > 1e-12)
    levels, lo, hi = levels[live], lo[live], hi[live]
    while live.size:
        mid = 0.5 * (lo + hi)
        up = np.asarray(f(mid, live)) < levels
        np.copyto(lo, mid, where=up)
        np.copyto(hi, mid, where=~up)
        wide = hi - lo > 1e-12
        if not wide.all():
            out[live[~wide]] = 0.5 * (lo[~wide] + hi[~wide])
            live, levels, lo, hi = live[wide], levels[wide], lo[wide], hi[wide]
    return out.reshape(shape) if shape else float(out[0])


class TargetMeasure:
    """Probability measure ``pi(A) = int_A rho / int_G rho`` on a bounded domain.

    Parameters
    ----------
    domain : BoxDomain | BallDomain
    density : callable
        Unnormalized density; takes an array of shape (m, d) and returns (m,).
        Must be positive on the domain.
    exact_box_mass : callable, optional
        Closed-form normalized masses of open anchored boxes, given their
        effective (clipped) corners as an array of shape (m, d); returns (m,).
        When present the error is 0.
    exact_marginal_cdf / exact_inv_cdf : callable, optional
        Vectorized CDF of the marginal of every coordinate, and its inverse,
        for measures whose coordinates share one marginal.  Without them
        marginal CDFs are box masses (for d = 1 the CDF is the box mass of
        the corner t) and quantiles are bisected.
    profile : callable, optional
        For densities on the d = 2 or 3 ball depending on the first
        coordinate only: profile(x1), vectorized.  Box masses then come
        from the profile rule, a Gauss-Legendre pair along x1 = sin(theta)
        whose gap is the error.  In d = 2 the rule gives the disc's two
        antiderivatives along x1 at each point (:meth:`_disc_values`), and
        every corner's mass is the disc formula of them
        (:meth:`_disc_integrals`).  In d = 3 (:meth:`_profile_integrals`)
        each column of corners sharing their trailing coordinates takes
        one pass along x1 with the pair on every interval between its kinks
        and levels, summed cumulatively; the error is the cumulative sum
        of the per-interval rule gaps.
    disc_antiderivatives : callable, optional
        For a density p(x1) on the d = 2 ball with closed-form
        antiderivatives: x -> (P(x), Q(x)) for x in [-1, 1] (1-D), P' =
        p(x) sqrt(1 - x^2) and Q' = p, vectorized; the disc formula then
        takes them in place of the profile rule's, with error 0.

    Without a closed form the masses are :meth:`_integrals` of the clipped
    corners over that of the domain's upper corner, the normalizer: in
    d = 2 on the ball 2 (P(1) - P(-1)), else the profile rule or adaptive
    quadrature row by row (d = 1 and the d = 2 box).  A measure that none
    of these serves (a ball in d >= 4, a ball density without a profile or
    antiderivatives, a box density in d >= 3 without a closed form) raises
    NotImplementedError on construction, before anything is computed.

    :meth:`box_masses` takes corner rows and :meth:`grid_masses` the tensor
    grid of per-axis values (:meth:`grid_pricer`).  For every measure but
    the d = 3 profile rule the grid's masses are :meth:`box_masses` of its
    rows, bit for bit; with that rule a row is a column with one level, and
    the two agree within their reported errors.
    """

    def __init__(
        self,
        domain,
        density: Callable[[np.ndarray], np.ndarray],
        *,
        exact_box_mass: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        exact_inv_cdf: Optional[Callable] = None,
        exact_marginal_cdf: Optional[Callable] = None,
        profile: Optional[Callable] = None,
        disc_antiderivatives: Optional[Callable] = None,
    ):
        self.domain = domain
        self.density = density
        self.exact_box_mass = exact_box_mass
        self.exact_inv_cdf = exact_inv_cdf
        self.exact_marginal_cdf = exact_marginal_cdf
        self.profile = profile
        self.disc_antiderivatives = disc_antiderivatives
        if exact_box_mass is not None:
            self.normalizer, self.normalizer_error = 1.0, 0.0
        else:
            # refused before the bounding box, two arrays of length d
            ball = isinstance(domain, BallDomain)
            if ball and self.dim > 3:
                raise NotImplementedError(f"box masses on the ball are implemented for d <= 3, not d = {self.dim}")
            if not (self._ball_rule or self.dim == 1 or self.dim == 2 and not ball):
                what = "a ball density without a profile" if ball else "a box density without a closed form"
                raise NotImplementedError(f"no box-mass rule for {what} in d = {self.dim}")
            if self._ball_rule and self.dim == 2:
                if disc_antiderivatives is None:
                    # the panel prefix of the rule's P, Q, E_P and E_Q: their
                    # values at the panel edges, 0 at -1 and the full prefix
                    # at 1
                    self._disc_prefix = np.zeros((4, _DISC_PANELS + 1))
                    panels = _disc_rule(profile, _DISC_EDGES[:-1], _DISC_EDGES[1:])
                    np.cumsum(panels, axis=1, out=self._disc_prefix[:, 1:])
                    ends = self._disc_prefix[:, [0, -1]]
                else:
                    ends = np.array(disc_antiderivatives(np.array([-1.0, 1.0])))
                # the normalizer 2 (P(1) - P(-1)), with error 2 E_P(1)
                self._disc_start = float(ends[0, 0])
                num, err = [2.0 * (ends[0, 1] - ends[0, 0])], [2.0 * ends[2, 1] if len(ends) == 4 else 0.0]
            else:
                num, err = self._integrals(domain.bounding()[1][None])
            self.normalizer, self.normalizer_error = float(num[0]), float(err[0])
            if self.normalizer <= 0:
                raise ValueError("density must integrate to a positive value")

    @property
    def dim(self) -> int:
        return self.domain.dim

    # -- box masses ----------------------------------------------------------

    def box_masses(self, corners) -> tuple[np.ndarray, float]:
        """Normalized masses of the open boxes ``(-inf, c)`` intersected with
        the domain, one per row c of ``corners`` (shape (m, d)), plus the
        largest error bound among them.  Entries of +inf mean no
        restriction; a row with an entry at or below the domain's lower
        bound has mass 0, and a row at or above its upper bound in every
        entry has mass 1, both without error.  A row with a NaN entry has
        mass NaN and makes the error NaN, for every measure."""
        masses, errs = self._box_masses(corners)
        return masses, float(np.max(errs, initial=0.0))

    def _box_masses(self, corners) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`box_masses` with the error bound of every row (NaN for a
        row with a NaN entry).  The NaN, empty and full masks are built a
        column at a time.  When every row is interior, the closed form or
        :meth:`_integrals` takes the whole clipped array; otherwise it takes
        the interior rows, picked out by index."""
        c = np.asarray(corners, float)
        if c.ndim != 2 or c.shape[1] != self.dim:
            raise ValueError(f"corners of shape {c.shape} for measure dimension {self.dim}")
        lo, hi_dom = self.domain.bounding()
        nan, empty, full = np.isnan(c[:, 0]), c[:, 0] <= lo[0], c[:, 0] >= hi_dom[0]
        for j in range(1, self.dim):
            nan |= np.isnan(c[:, j])
            empty |= c[:, j] <= lo[j]
            full &= c[:, j] >= hi_dom[j]
        inside = ~(nan | empty | full)
        if len(c) and inside.all():
            masses, errs = self._clipped_masses(np.minimum(c, hi_dom))
            return masses, np.zeros(len(c)) if errs is None else errs
        full &= ~empty
        masses = np.where(nan, np.nan, full.astype(float))
        errs = np.where(nan, np.nan, 0.0)
        rest = np.flatnonzero(inside)
        if rest.size == 0:
            return masses, errs
        masses[rest], rest_errs = self._clipped_masses(np.minimum(c[rest], hi_dom))
        errs[rest] = 0.0 if rest_errs is None else rest_errs
        return masses, errs

    def _clipped_masses(self, hi: np.ndarray) -> tuple:
        """Masses and errors (None for a closed form) of clipped interior rows."""
        if self.exact_box_mass is not None:
            return self.exact_box_mass(hi), None
        return self._normalized(*self._integrals(hi))

    def grid_masses(self, axes) -> tuple[np.ndarray, float]:
        """Masses of the open boxes ``(-inf, c)`` for every corner c of the
        tensor grid of the per-axis values ``axes[j]`` (each flattened), with
        the same special cases as :meth:`box_masses`: ``masses[i_1, ...,
        i_d]`` belongs to the corner (axes[0][i_1], ..., axes[d-1][i_d]),
        plus the largest error bound: :meth:`grid_pricer` asked for
        :data:`_PROFILE_CHUNK` corners at a time, a chunk of the last axis."""
        price = self.grid_pricer(axes)
        shape = tuple(np.size(a) for a in axes)
        step = max(1, _PROFILE_CHUNK // max(1, math.prod(shape[:-1])))
        masses, err = np.empty(shape), 0.0
        for start in range(0, shape[-1], step):
            chunk = slice(start, start + step)
            masses[..., chunk], errs = price([slice(None)] * (len(shape) - 1) + [chunk])
            err = np.maximum(err, 0.0 if errs is None else np.max(errs, initial=0.0))
        return masses, float(err)

    def grid_pricer(self, axes) -> Callable[[Sequence[slice]], tuple[np.ndarray, Optional[np.ndarray]]]:
        """A function of one slice per axis giving the masses of that
        sub-grid of the grid of ``axes`` (:meth:`grid_masses`) and every
        corner's error, or None where all are 0 (a closed form, no NaN
        corner).  Each axis's work is done once, here: the disc's P and Q
        at the clipped c1 axis and at +-s of the c2 axis; the d = 3 profile
        rule integrates the requested columns over the whole c1 axis.  Other
        measures take :meth:`_box_masses` of the sub-grid's rows."""
        axes = [np.asarray(a, float).ravel() for a in axes]
        if len(axes) != self.dim:
            raise ValueError(f"{len(axes)} axes for measure dimension {self.dim}")
        ball = self._ball_rule
        if ball and self.dim == 2:
            t, c = np.clip(axes[0], -1.0, 1.0), np.clip(axes[1], -1.0, 1.0)
            s = np.sqrt(1.0 - c * c)
            at = self._disc_values(np.concatenate([t, -s, s]))
            at_t, at_lo, at_hi = at[:, : t.size], at[:, t.size : t.size + c.size], at[:, t.size + c.size :]
        elif ball:
            levels = axes[0] > -1.0
            top = np.arcsin(np.minimum(axes[0][levels], 1.0))

        def price(ranges):
            sub = [a[r] for a, r in zip(axes, ranges)]
            shape = tuple(a.size for a in sub)
            if not ball:
                grid = sub[0][:, None] if self.dim == 1 else np.stack(np.meshgrid(*sub, indexing="ij"), axis=-1)
                masses, errs = self._box_masses(grid.reshape(-1, self.dim))
                return masses.reshape(shape), errs.reshape(shape)
            r1, r2 = ranges[0], ranges[-1]
            if self.dim == 2:
                least = sub[1]
                at_c = c[r2], s[r2], at_t[:, r1, None], at_lo[:, r2], at_hi[:, r2]
                masses, errs = self._normalized(*_disc_combine(t[r1, None], *at_c, self._disc_start))
            else:
                # the columns: the corners of the trailing axes' grid, in C order
                h = np.stack(np.meshgrid(*sub[1:], indexing="ij"), axis=-1).reshape(-1, self.dim - 1)
                least = h.min(axis=1)
                masses, errs = np.zeros((2, levels.size, len(h)))
                cols = least > -1.0
                if top.size and cols.any():
                    hc = np.minimum(h[cols], 1.0)
                    num, num_err = self._profile_integrals(np.broadcast_to(top, (len(hc), top.size)), hc)
                    masses[np.ix_(levels, cols)], errs[np.ix_(levels, cols)] = self._normalized(num.T, num_err.T)
                masses, errs = masses[r1], errs[r1]
            # empty, full and NaN rows and columns (min propagates NaN; NaN last)
            level = sub[0]
            if errs is None and (np.isnan(level).any() or np.isnan(least).any()):
                errs = np.zeros(masses.shape)
            full = np.flatnonzero(level >= 1.0)[:, None], least >= 1.0
            specials = (level <= -1.0, least <= -1.0, 0.0), (np.isnan(level), np.isnan(least), np.nan)
            for grid, full_value in zip((masses,) if errs is None else (masses, errs), (1.0, 0.0)):
                grid[full] = full_value
                for rows, cols, value in specials:
                    grid[rows] = grid[:, cols] = value
            return masses.reshape(shape), None if errs is None else errs.reshape(shape)

        return price

    def box_mass(self, corner) -> tuple[float, float]:
        """Normalized mass of the open box ``(-inf, corner)`` intersected with
        the domain, plus an error bound: :meth:`box_masses` of the one row."""
        masses, err = self.box_masses(np.asarray(corner, float)[None])
        return float(masses[0]), err

    @property
    def _ball_rule(self) -> bool:
        """Whether box masses come from the ball's rules: the disc formula
        in d = 2 (a profile or closed-form antiderivatives), the profile
        rule in d = 3."""
        if not isinstance(self.domain, BallDomain):
            return False
        return (self.dim == 2 and self.disc_antiderivatives is not None) or (
            self.profile is not None and 2 <= self.dim <= 3
        )

    def _normalized(self, num: np.ndarray, num_err: Optional[np.ndarray]) -> tuple:
        """Masses and error bounds from unnormalized integrals and their
        errors; errors None (a closed form) stay None."""
        vals = np.clip(num / self.normalizer, 0.0, 1.0)
        if num_err is None:
            return vals, None
        return vals, (num_err + vals * self.normalizer_error) / self.normalizer

    def _disc_values(self, x: np.ndarray) -> np.ndarray:
        """The disc's antiderivatives P (of p(u) sqrt(1 - u^2)) and Q (of p)
        at the points x in [-1, 1] (1-D): the closed forms, shape (2,
        x.size), or the profile rule's, shape (4, x.size), P(x) = int_-1^x
        p(u) sqrt(1 - u^2) du and Q(x) = int_-1^x p(u) du with their errors
        E_P and E_Q.  For theta = asin x in the panel [e_k, e_k+1) the rule
        takes the panel prefix below e_k plus :func:`_disc_rule` on [e_k,
        theta].  Each value depends on its own point alone; the points go a
        chunk of at most :data:`_PROFILE_CHUNK` values (36 integrand values
        per point for the rule) at a time."""
        closed = self.disc_antiderivatives is not None
        out = np.empty((2 if closed else 4, x.size))
        step = _PROFILE_CHUNK if closed else max(1, _PROFILE_CHUNK // _DISC_NODES.size)
        for i in range(0, x.size, step):
            if closed:
                out[:, i : i + step] = self.disc_antiderivatives(x[i : i + step])
                continue
            theta = np.arcsin(x[i : i + step])
            k = np.searchsorted(_DISC_EDGES, theta, side="right") - 1
            out[:, i : i + step] = self._disc_prefix[:, k] + _disc_rule(self.profile, _DISC_EDGES[k], theta)
        return out

    def _disc_integrals(self, t: np.ndarray, c: np.ndarray) -> tuple:
        """Unnormalized masses and errors (None for closed-form
        antiderivatives) of the d = 2 ball below the corners (t_i, c_i) in
        [-1, 1]^2: :func:`_disc_combine` of :meth:`_disc_values` at t, -s
        and s, s = sqrt(1 - c^2), in chunks of :data:`_PROFILE_CHUNK` values."""
        s = np.sqrt(1.0 - c * c)
        closed = self.disc_antiderivatives is not None
        num, err = np.empty(t.size), None if closed else np.empty(t.size)
        step = max(1, _PROFILE_CHUNK // (3 if closed else 3 * _DISC_NODES.size))
        for i in range(0, t.size, step):
            b = slice(i, i + step)
            at = self._disc_values(np.concatenate([t[b], -s[b], s[b]])).reshape(-1, 3, t[b].size)
            num[b], e = _disc_combine(t[b], c[b], s[b], *at.swapaxes(0, 1), self._disc_start)
            if err is not None:
                err[b] = e
        return num, err

    def _profile_integrals(self, top: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unit 3-ball with a profile: int profile(sin t) S(cos t; h) cos t dt
        over -pi/2 < t < top, where S(rho; h) is the section of the ball at
        half-width rho below h (:func:`_ball_section` and its kinks
        :func:`_ball_section_kinks`), for every level ``top[k, l]`` (an
        angle, x1 = sin(top)) of every column ``h[k]`` (the corners' other
        coordinates, clipped to the domain); returns the integrals and their
        rule errors, shaped like ``top``.

        A column's breakpoints are the panel edges, the angles at which its
        section has kinks and its levels.  The integrand is smooth between
        them, and every interval below the column's highest level gets the
        Gauss-Legendre pair.  Cumulative sums over the sorted intervals give
        all levels of the column at once, and cumulative sums of the
        per-interval gaps between the two rules their errors.  Each column's
        results depend on that column alone.  Columns share every interval
        but those at their own kinks and levels, so the nodes, cos(theta)
        and the profile are computed once per distinct interval (a, b), by
        bits, and gathered back per column.

        The columns go a chunk at a time (:meth:`_profile_columns`), at
        most :data:`_PROFILE_CHUNK` integrand values per chunk (one column
        at least), so that the temporaries stay bounded by the chunk."""
        kinks = np.arccos(_ball_section_kinks(h))
        cols, levels = top.shape
        edges = _DISC_PANELS + 2 * kinks.shape[1] + levels
        step = max(1, _PROFILE_CHUNK // (edges * _DISC_NODES.size))
        out = np.empty((2, cols, levels))
        for s in range(0, cols, step):
            out[:, s : s + step] = self._profile_columns(top[s : s + step], h[s : s + step], kinks[s : s + step])
        return out[0], out[1]

    def _profile_columns(self, top, h, kinks) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_profile_integrals` of one chunk of columns, given the
        angles of their kinks."""
        cols, levels = top.shape
        panels = np.broadcast_to(_DISC_PANEL_EDGES, (cols, _DISC_PANELS))
        edges = np.concatenate([panels, -kinks, kinks, top], axis=1)
        order = np.argsort(edges, axis=1, kind="stable")
        x = np.take_along_axis(edges, order, axis=1)
        # a level's integral runs over the intervals below its sorted position
        pos = np.empty_like(order)
        np.put_along_axis(pos, order, np.arange(edges.shape[1]), axis=1)
        at = pos[:, edges.shape[1] - levels :]
        need = np.arange(edges.shape[1] - 1) < np.max(at, axis=1, keepdims=True)
        a, b = x[:, :-1][need], x[:, 1:][need]
        half = 0.5 * (b - a)
        # the distinct intervals, told apart by bits (signed zeros too):
        # interval first[i] is one of the i-th, and interval j is one of the
        # inv[j]-th
        a_bits, b_bits = a.view(np.int64), b.view(np.int64)
        o = np.lexsort((b_bits, a_bits))
        a_bits, b_bits = a_bits[o], b_bits[o]
        new = np.ones(len(o), bool)
        new[1:] = (a_bits[1:] != a_bits[:-1]) | (b_bits[1:] != b_bits[:-1])
        inv = np.empty_like(o)
        inv[o] = np.cumsum(new) - 1
        first = o[new]
        theta = (0.5 * (a + b))[first, None] + half[first, None] * _DISC_NODES
        rho = np.cos(theta)[inv]
        hs = np.broadcast_to(h[:, None], need.shape + h.shape[1:])[need]
        f = self.profile(np.sin(theta))[inv] * _ball_section(rho, hs[:, None]) * rho
        k = _DISC_LOW[0].size
        low, high = np.zeros(need.shape), np.zeros(need.shape)
        low[need] = half * np.sum(f[:, :k] * _DISC_LOW[1], axis=-1)
        high[need] = half * np.sum(f[:, k:] * _DISC_HIGH[1], axis=-1)
        zero = np.zeros((cols, 1))
        total = np.concatenate([zero, np.cumsum(high, axis=1)], axis=1)
        gap = np.concatenate([zero, np.cumsum(np.abs(high - low), axis=1)], axis=1)
        return np.take_along_axis(total, at, axis=1), np.take_along_axis(gap, at, axis=1)

    def _integrals(self, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unnormalized integrals of the density over domain ∩ (-inf, h) and
        their errors, one per row h of ``hi`` (shape (m, d), inside the
        domain's bounding box and above its lower corner): the d = 2 profile
        rule, the d = 3 one with each row its own column, else scipy
        ``quad`` (d = 1) or ``dblquad`` (a d = 2 box) row by row.  Closed-form
        disc antiderivatives have errors None."""
        if self._ball_rule and self.dim == 2:
            return self._disc_integrals(hi[:, 0], hi[:, 1])
        if self._ball_rule:
            num, err = self._profile_integrals(np.arcsin(hi[:, :1]), hi[:, 1:])
            return num[:, 0], err[:, 0]
        lo = self.domain.bounding()[0]
        if self.dim == 1:
            f = lambda t: float(self.density(np.array([[t]]))[0])
            rows = [integrate.quad(f, lo[0], h[0], epsabs=1e-10, limit=200) for h in hi]
        else:
            f2 = lambda y, x: float(self.density(np.array([[x, y]]))[0])
            rows = [integrate.dblquad(f2, lo[0], h[0], lo[1], h[1], epsabs=1e-8) for h in hi]
        return tuple(np.array(rows).T)

    # -- marginals -----------------------------------------------------------

    def marginal_cdf(self, j, t):
        """pi({x : x_j < t}), elementwise over t and the coordinates j (an
        index, or an integer array broadcast against t): the closed-form
        marginal when the measure has one, else the box masses of the
        corners with t in coordinate j and +inf in the others, one
        :meth:`box_masses` call for all of them.  A corner's mass does not
        depend on the other corners of the call: in d = 3 each corner is its
        own column of the profile rule, and in d = 2 each antiderivative
        value depends on its own point alone."""
        j, t = np.asarray(j), np.asarray(t, float)
        if self.exact_marginal_cdf is not None:
            lo, hi = self.domain.bounding()
            out = np.asarray(self.exact_marginal_cdf(np.clip(t, lo[j], hi[j])), float)
        else:
            corners = np.where(np.arange(self.dim) == j[..., None], t[..., None], np.inf)
            out = self.box_masses(corners.reshape(-1, self.dim))[0].reshape(corners.shape[:-1])
        return out if out.ndim else float(out)

    def marginal_quantile(self, j, p):
        """Marginal quantiles of coordinate j, elementwise over p and j (an
        index, or an integer array broadcast against p): the closed-form
        inverse when the measure has one, else bisection to 1e-12 (every
        level in its own bracket, one call per step for all of them) of
        ``exact_marginal_cdf`` itself where the measure has it (the midpoints
        lie in the bracket, where :meth:`marginal_cdf`'s clip changes
        nothing), or of :meth:`marginal_cdf`."""
        shape = np.broadcast_shapes(np.shape(j), np.shape(p))
        if self.exact_inv_cdf is not None:
            q = np.empty(shape)
            q[...] = self.exact_inv_cdf(p)
            return q if shape else float(q)
        lo, hi = self.domain.bounding()
        if self.exact_marginal_cdf is not None:
            return _bisect(lambda t, live: self.exact_marginal_cdf(t), p, lo[j], hi[j])
        js = np.broadcast_to(j, shape).ravel()
        return _bisect(lambda t, live: self.marginal_cdf(js[live], t), p, lo[j], hi[j])

    def cdf(self, t):
        """The CDF of a d = 1 measure: its :meth:`marginal_cdf`."""
        if self.dim != 1:
            raise ValueError("cdf is defined for d = 1 only")
        return self.marginal_cdf(0, t)

    def inv_cdf(self, p):
        """The inverse CDF of a d = 1 measure: its :meth:`marginal_quantile`."""
        if self.dim != 1:
            raise ValueError("inv_cdf is defined for d = 1 only")
        return self.marginal_quantile(0, p)


# ---------------------------------------------------------------------------
# Measure presets
# ---------------------------------------------------------------------------


def uniform_interval(a: float = -1.0, b: float = 1.0) -> TargetMeasure:
    width = b - a
    return TargetMeasure(
        BoxDomain((a,), (b,)),
        lambda x: np.ones(x.shape[0]),
        exact_box_mass=lambda hi: np.clip((hi[:, 0] - a) / width, 0.0, 1.0),
        exact_inv_cdf=lambda p: a + np.asarray(p, float) * width,
    )


def exp_linear_interval(alpha: float, a: float = -1.0, b: float = 1.0) -> TargetMeasure:
    """Density exp(alpha * x) on [a, b]; closed-form CDF."""
    if alpha == 0.0:
        return uniform_interval(a, b)
    z = math.exp(alpha * b) - math.exp(alpha * a)

    def mass(hi):
        # the closed form can round outside [0, 1] near t = a and t = b
        t = np.clip(hi[:, 0], a, b)
        return np.clip((np.exp(alpha * t) - math.exp(alpha * a)) / z, 0.0, 1.0)

    def inv(p):
        # the closed form can round outside [a, b] near p = 0 and p = 1
        p = np.asarray(p, float)
        return np.clip(np.log(p * z + math.exp(alpha * a)) / alpha, a, b)

    return TargetMeasure(
        BoxDomain((a,), (b,)),
        lambda x: np.exp(alpha * x[:, 0]),
        exact_box_mass=mass,
        exact_inv_cdf=inv,
    )


def _product_mass(first: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """Box masses of a product measure: the interval box masses ``first`` of
    coordinate 0 times uniform factors for the others, multiplied left to
    right."""

    def mass(c):
        m = first(c[:, :1])
        for j in range(1, len(lo)):
            m = m * np.clip((c[:, j] - lo[j]) / (hi[j] - lo[j]), 0.0, 1.0)
        return m

    return mass


def uniform_box(lower: Sequence[float], upper: Sequence[float]) -> TargetMeasure:
    lo = np.asarray(lower, float)
    hi = np.asarray(upper, float)
    first = uniform_interval(lo[0], hi[0]).exact_box_mass
    return TargetMeasure(
        BoxDomain(tuple(lo), tuple(hi)),
        lambda x: np.ones(x.shape[0]),
        exact_box_mass=_product_mass(first, lo, hi),
    )


def exp_linear_box(alpha: float, lower: Sequence[float], upper: Sequence[float]) -> TargetMeasure:
    """Density exp(alpha * x_1) on a box: product of a 1-D exp-linear factor
    and uniform factors, so box masses are closed-form."""
    lo = np.asarray(lower, float)
    hi = np.asarray(upper, float)
    first = exp_linear_interval(alpha, lo[0], hi[0]).exact_box_mass
    return TargetMeasure(
        BoxDomain(tuple(lo), tuple(hi)),
        lambda x: np.exp(alpha * x[:, 0]),
        exact_box_mass=_product_mass(first, lo, hi),
    )


def uniform_ball(d: int) -> TargetMeasure:
    """Uniform distribution on the Euclidean unit ball, numpy only: box
    masses from the disc formula of the closed-form antiderivatives G =
    :func:`_disc_area_below` and the identity in d = 2, with error 0 and
    normalizer 2 (G(1) - G(-1)) = pi to the bit; the profile rule with
    profile 1 in d = 3; closed-form marginals.  In d = 2 every coordinate t
    has CDF 2 (G(t) - G(-1)) / pi, the box masses of the corners (t, +inf)
    bit for bit.  In d = 3 it is the cubic (t+1)^2 (2-t)/4.  In d >= 4 no
    box-mass rule exists: NotImplementedError."""
    if d == 1:
        return uniform_interval(-1.0, 1.0)
    G, below = _disc_area_below, _disc_area_below(-1.0)
    disc = lambda t: np.clip(2.0 * (G(t) - below) / math.pi, 0.0, 1.0)
    return TargetMeasure(
        BallDomain(d),
        lambda x: np.ones(x.shape[0]),
        exact_marginal_cdf=disc if d == 2 else lambda t: (t + 1.0) ** 2 * (2.0 - t) / 4.0,
        profile=None if d == 2 else lambda x1: np.ones(np.shape(x1)),
        disc_antiderivatives=(lambda x: (G(x), x)) if d == 2 else None,
    )


def exp_linear_ball(alpha: float, d: int) -> TargetMeasure:
    """Density exp(alpha * x_1) on the unit ball (log-Lipschitz constant
    alpha): box masses by the profile rule in d = 2 and 3; in d >= 4 no
    box-mass rule exists: NotImplementedError."""
    if d == 1:
        return exp_linear_interval(alpha, -1.0, 1.0)
    return TargetMeasure(
        BallDomain(d),
        lambda x: np.exp(alpha * x[:, 0]),
        profile=lambda x1: np.exp(alpha * np.asarray(x1, float)),
    )


# ---------------------------------------------------------------------------
# Driver sequences
# ---------------------------------------------------------------------------


_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)


def halton_sequence(n: int, s: int) -> np.ndarray:
    """Halton points: coordinate j of point i is the radical inverse of i+1
    in the j-th prime base."""
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    if s > len(_PRIMES):
        raise ValueError(f"at most {len(_PRIMES)} dimensions supported")
    # the radical inverse of all points in all bases at once, one digit
    # position per pass: the scalar digit loop's float operations in the
    # same order, and adding 0 * f once a point's digits are spent leaves
    # it unchanged.  The last point's base-2 digits run out last.
    bases = np.array(_PRIMES[:s])
    digits = np.arange(1, n + 1)[:, None].repeat(s, axis=1)
    f = 1.0 / bases
    pts = np.zeros((n, s))
    while digits[-1, 0]:
        digits, digit = np.divmod(digits, bases)
        pts += digit * f
        f /= bases
    return pts


def uniform_driver(n: int, s: int, rng: Rng) -> np.ndarray:
    """Seeded deterministic uniforms of shape (n, s), reproducible per
    (seed, counter)."""
    return rng.uniforms(n * s).reshape(n, s)
