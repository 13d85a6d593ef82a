"""Shared geometry, target measures, deterministic RNG and driver sequences.

Everything downstream (chains, discrepancies, covers, searches) is built on
the types here:

* ``Rng`` -- a splittable counter-based SplitMix64 generator, so every
  candidate and replica stream is reproducible from (seed, label).
* ``TargetMeasure`` -- a target distribution given by a density on a bounded
  domain, with a batched box-mass oracle over corner arrays (closed form
  where possible, the profile rule on the ball in d = 2 and 3, quadrature
  on the interval and the d = 2 box; any other measure is refused).  A row c
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


# quadrature and incomplete beta functions; callers read these names at call
# time, so an object set in their place here is the one called
integrate = _LazyModule("scipy.integrate")
special = _LazyModule("scipy.special")


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

# The profile rule of the ball: a Gauss-Legendre pair on every interval
# between a column's breakpoints in theta (x1 = sin(theta)).  The higher
# order gives the value, the gap to the lower one the error estimate.  The
# fixed panel edges keep every interval at most pi / _DISC_PANELS long, also
# where a column has a single level: with 8 panels the gap of a single-level
# disc column stays below 1e-11 up to alpha = 100 (4 panels: 2e-7).
_DISC_LOW, _DISC_HIGH = (np.polynomial.legendre.leggauss(k) for k in (12, 24))
_DISC_NODES = np.concatenate([_DISC_LOW[0], _DISC_HIGH[0]])
_DISC_PANELS = 8
_DISC_PANEL_EDGES = -0.5 * math.pi + math.pi / _DISC_PANELS * np.arange(_DISC_PANELS)
# the profile rule takes its columns in chunks of at most this many integrand
# values, 48 per interval (one column at least)
_PROFILE_CHUNK = 1 << 16


def _disc_area_below(t):
    """The antiderivative G(t) = (t sqrt(1 - t^2) + asin t) / 2 of
    sqrt(1 - t^2) on [-1, 1]."""
    return 0.5 * (t * np.sqrt(1.0 - t * t) + np.arcsin(t))


def _disc_area(t, c):
    """Area of the unit disc below the corner (t, c) in [-1, 1]^2,
    elementwise.  The x2-section at x1 = x has length h + c for |x| < s and
    2h or 0 (as c >= 0 or not) for |x| >= s, where h = sqrt(1 - x^2) and
    s = sqrt(1 - c^2); each piece integrates in closed form through
    G = :func:`_disc_area_below`."""
    G = _disc_area_below
    s = np.sqrt(1.0 - c * c)
    mid = np.clip(t, -s, s)
    inner = G(mid) - G(-s) + c * (mid + s)
    outer = 2.0 * (G(np.minimum(t, -s)) - G(-1.0) + G(np.maximum(t, s)) - G(s))
    return inner + np.where(c >= 0.0, outer, 0.0)


def _ball_section(rho, h):
    """Measure of the section of the ball at half-width rho below the corner's
    trailing coordinates h: in d = 2 the length of {|x2| < rho, x2 < h2}, in
    d = 3 the area of the disc of radius rho below (h2, h3), rho^2 times the
    unit disc's area below clip(h / rho, -1, 1)."""
    if h.shape[-1] == 1:
        return np.minimum(np.maximum(h[..., 0], -rho), rho) + rho
    t, c = (np.clip(h[..., j] / rho, -1.0, 1.0) for j in (0, 1))
    return rho * rho * _disc_area(t, c)


def _ball_section_kinks(h):
    """The half-widths rho at which :func:`_ball_section` is not smooth in
    rho, one column each: |h2| in d = 2; |h2|, |h3| and min(|h|, 1), where
    the corner meets the circle, in d = 3."""
    if h.shape[-1] == 1:
        return np.abs(h)
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
        from the profile rule (:meth:`_profile_integrals`): per column of
        corners sharing their trailing coordinates, one pass along x1 =
        sin(theta) with a Gauss-Legendre pair per interval, summed
        cumulatively; the error is the cumulative sum of the per-interval
        rule gaps.

    Without a closed form the masses are :meth:`_integrals` of the clipped
    corners over that of the domain's upper corner, the normalizer: the
    profile rule, or adaptive quadrature row by row (d = 1 and the d = 2
    box).  A measure that none of these serves (a ball in d >= 4, a ball
    density without a profile, a box density in d >= 3 without a closed
    form) raises NotImplementedError on construction, before anything is
    computed.

    :meth:`box_masses` takes corner rows and :meth:`grid_masses` the tensor
    grid of per-axis values.  For every measure without a profile rule the
    grid's masses are :meth:`box_masses` of its rows, bit for bit; with one,
    a row is a column with one level, and the two agree within their
    reported errors.
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
    ):
        self.domain = domain
        self.density = density
        self.exact_box_mass = exact_box_mass
        self.exact_inv_cdf = exact_inv_cdf
        self.exact_marginal_cdf = exact_marginal_cdf
        self.profile = profile
        if exact_box_mass is not None:
            self.normalizer, self.normalizer_error = 1.0, 0.0
        else:
            # refused before the bounding box, two arrays of length d
            ball = isinstance(domain, BallDomain)
            if ball and self.dim > 3:
                raise NotImplementedError(f"box masses on the ball are implemented for d <= 3, not d = {self.dim}")
            if not (self._profile_rule or self.dim == 1 or self.dim == 2 and not ball):
                what = "a ball density without a profile" if ball else "a box density without a closed form"
                raise NotImplementedError(f"no box-mass rule for {what} in d = {self.dim}")
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
            hi = np.minimum(c, hi_dom)
            if self.exact_box_mass is not None:
                return self.exact_box_mass(hi), np.zeros(len(c))
            return self._normalized(*self._integrals(hi))
        full &= ~empty
        masses = np.where(nan, np.nan, full.astype(float))
        errs = np.where(nan, np.nan, 0.0)
        rest = np.flatnonzero(inside)
        if rest.size == 0:
            return masses, errs
        hi = np.minimum(c[rest], hi_dom)
        if self.exact_box_mass is not None:
            masses[rest] = self.exact_box_mass(hi)
        else:
            masses[rest], errs[rest] = self._normalized(*self._integrals(hi))
        return masses, errs

    def grid_masses(self, axes) -> tuple[np.ndarray, float]:
        """Masses of the open boxes ``(-inf, c)`` for every corner c of the
        tensor grid of the per-axis values ``axes[j]`` (each flattened), with
        the same special cases as :meth:`box_masses`: ``masses[i_1, ...,
        i_d]`` belongs to the corner (axes[0][i_1], ..., axes[d-1][i_d]),
        plus the largest error bound.  The profile rule integrates each
        column, a corner of the tensor grid of the trailing axes, once along
        x1 for all its levels c1; every other measure returns
        :meth:`box_masses` of the grid's rows in C order."""
        masses, errs = self._grid_masses(axes)
        return masses, float(np.max(errs, initial=0.0))

    def _grid_masses(self, axes) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`grid_masses` with the error bound of every corner."""
        axes = [np.asarray(a, float).ravel() for a in axes]
        if len(axes) != self.dim:
            raise ValueError(f"{len(axes)} axes for measure dimension {self.dim}")
        shape = tuple(a.size for a in axes)
        if not self._profile_rule:
            rows = axes[0][:, None] if self.dim == 1 else np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            masses, errs = self._box_masses(rows.reshape(-1, self.dim))
            return masses.reshape(shape), errs.reshape(shape)
        c1 = axes[0]
        # the columns: the corners of the trailing axes' grid, in C order
        h = np.stack(np.meshgrid(*axes[1:], indexing="ij"), axis=-1).reshape(-1, self.dim - 1)
        masses, errs = np.zeros((c1.size, len(h))), np.zeros((c1.size, len(h)))
        levels, cols = c1 > -1.0, np.all(h > -1.0, axis=1)
        if levels.any() and cols.any():
            top = np.arcsin(np.minimum(c1[levels], 1.0))
            hc = np.minimum(h[cols], 1.0)
            num, num_err = self._profile_integrals(np.broadcast_to(top, (len(hc), top.size)), hc)
            cells = np.ix_(levels, cols)
            masses[cells], errs[cells] = self._normalized(num.T, num_err.T)
        full = (c1 >= 1.0)[:, None] & np.all(h >= 1.0, axis=1)
        masses[full], errs[full] = 1.0, 0.0
        nan = np.isnan(c1)[:, None] | np.any(np.isnan(h), axis=1)
        masses[nan], errs[nan] = np.nan, np.nan
        return masses.reshape(shape), errs.reshape(shape)

    def box_mass(self, corner) -> tuple[float, float]:
        """Normalized mass of the open box ``(-inf, corner)`` intersected with
        the domain, plus an error bound: :meth:`box_masses` of the one row."""
        masses, err = self.box_masses(np.asarray(corner, float)[None])
        return float(masses[0]), err

    @property
    def _profile_rule(self) -> bool:
        """Whether box masses come from the profile rule, all corners at
        once: a ball in d = 2 or 3 with a profile."""
        return self.profile is not None and 2 <= self.dim <= 3 and isinstance(self.domain, BallDomain)

    def _normalized(self, num: np.ndarray, num_err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Masses and error bounds from unnormalized integrals and their
        errors."""
        vals = np.clip(num / self.normalizer, 0.0, 1.0)
        return vals, (num_err + vals * self.normalizer_error) / self.normalizer

    def _profile_integrals(self, top: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unit ball with a profile: int profile(sin t) S(cos t; h) cos t dt
        over -pi/2 < t < top, where S(rho; h) is the section of the ball at
        half-width rho below h (:func:`_ball_section` and its kinks
        :func:`_ball_section_kinks`, the only parts that depend on d), for
        every level ``top[k, l]`` (an angle, x1 = sin(top)) of every
        column ``h[k]`` (the corners' other coordinates, clipped to the
        domain); returns the integrals and their rule errors, shaped like
        ``top``.

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
        domain's bounding box and above its lower corner): the profile rule
        with each row its own column, else scipy ``quad`` (d = 1) or
        ``dblquad`` (a d = 2 box) row by row."""
        if self._profile_rule:
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
        :meth:`box_masses` call for all of them.  Each corner is then its
        own row, so a profile measure's mass of one corner does not depend
        on the other corners of the call."""
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
        t = np.clip(hi[:, 0], a, b)
        return (np.exp(alpha * t) - math.exp(alpha * a)) / z

    def inv(p):
        p = np.asarray(p, float)
        return np.log(p * z + math.exp(alpha * a)) / alpha

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


def _uniform_disc_mass(hi: np.ndarray) -> np.ndarray:
    """pi((-inf, c)) for the uniform unit disc and corners c = (c1, c2) in
    [-1, 1]^2: :func:`_disc_area` over pi."""
    return np.clip(_disc_area(hi[:, 0], hi[:, 1]) / math.pi, 0.0, 1.0)


def uniform_ball(d: int) -> TargetMeasure:
    """Uniform distribution on the Euclidean unit ball; closed-form box
    masses in d = 2, the profile rule with profile 1 in d = 3, and
    closed-form marginals.  In d = 2 every coordinate t has CDF
    2 (G(t) - G(-1)) / pi through :func:`_disc_area_below`, numpy only: the
    box masses of the corners (t, +inf) bit for bit.  In d = 3 it is
    I_{(1+t)/2}(2, 2) = (t+1)^2 (2-t)/4, the regularized incomplete beta
    function.  In d >= 4 no box-mass rule exists: NotImplementedError."""
    if d == 1:
        return uniform_interval(-1.0, 1.0)
    a, G, below = (d + 1) / 2, _disc_area_below, _disc_area_below(-1.0)
    disc = lambda t: np.clip(2.0 * (G(t) - below) / math.pi, 0.0, 1.0)
    return TargetMeasure(
        BallDomain(d),
        lambda x: np.ones(x.shape[0]),
        exact_box_mass=_uniform_disc_mass if d == 2 else None,
        exact_marginal_cdf=disc if d == 2 else lambda t: special.betainc(a, a, 0.5 * (1.0 + t)),
        profile=None if d == 2 else lambda x1: np.ones(np.shape(x1)),
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
