"""Shared geometry, target measures, deterministic RNG and driver sequences.

Everything downstream (chains, discrepancies, covers, searches) is built on
the types here:

* ``Rng`` -- a splittable counter-based SplitMix64 generator, so every
  candidate and replica stream is reproducible from (seed, label).
* ``AnchoredBox`` -- a strictly open box ``(-inf, corner)``; membership is
  strict in every coordinate.
* ``TargetMeasure`` -- a target distribution given by a density on a bounded
  domain, with a batched box-mass oracle over corner arrays (closed form
  where possible, quadrature or a stratified estimate otherwise).
* ``DriverSequence`` -- n points in [0,1]^s consumed one per chain step.
"""

from __future__ import annotations

import importlib
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Rng",
    "BoxDomain",
    "BallDomain",
    "AnchoredBox",
    "TargetMeasure",
    "DriverSequence",
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


def _splitmix_uniforms(seed, idx: np.ndarray) -> np.ndarray:
    """The uniforms in [0,1) of the SplitMix64 outputs with counters ``idx``
    (uint64, from 1) of the streams ``seed`` (uint64, broadcast against
    idx)."""
    z = seed + idx * np.uint64(_GAMMA)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z.astype(np.float64) * 2.0**-53


class Rng:
    """Counter-based SplitMix64 stream.

    The i-th output is a pure function of ``(seed, i)``, so block generation
    via :meth:`uniforms` and one-at-a-time generation via :meth:`uniform`
    produce the same stream.  :meth:`split` derives an independent child
    stream from an integer label.
    """

    def __init__(self, seed: int, _counter: int = 0):
        self.seed = int(seed) & _MASK64
        self._counter = _counter

    def _raw(self, i: int) -> int:
        return _mix64((self.seed + (i + 1) * _GAMMA) & _MASK64)

    def next_u64(self) -> int:
        v = self._raw(self._counter)
        self._counter += 1
        return v

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms in [0,1) advancing the stream by n."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _splitmix_uniforms(np.uint64(self.seed), idx)

    def split(self, label: int) -> "Rng":
        child = _mix64(self.seed ^ _mix64(((2 * int(label) + 1) * _GAMMA) & _MASK64))
        return Rng(child)

    def split_uniforms(self, m: int, n: int) -> np.ndarray:
        """The first n uniforms of the children 0 .. m-1, shape (m, n): row r
        is ``self.split(r).uniforms(n)``, all from one counter block."""
        labels = np.arange(m, dtype=np.uint64)
        seeds = _mix64(np.uint64(self.seed) ^ _mix64((2 * labels + 1) * np.uint64(_GAMMA)))
        return _splitmix_uniforms(seeds[:, None], np.arange(1, n + 1, dtype=np.uint64))

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
    """Euclidean ball of given radius centered at the origin."""

    dim: int
    radius: float = 1.0

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Membership of points of shape (..., d), with 1e-15 relative slack
        on the squared radius for states produced by rounded arithmetic."""
        pts = np.asarray(pts, float)
        return np.vecdot(pts, pts) <= self.radius**2 * (1 + 1e-15)

    def bounding(self) -> tuple[np.ndarray, np.ndarray]:
        r = np.full(self.dim, self.radius)
        return -r, r


# ---------------------------------------------------------------------------
# Anchored boxes
# ---------------------------------------------------------------------------


class AnchoredBox:
    """Open box ``(-inf, corner)``; membership is strict in every coordinate.

    Corner entries may be ``+inf`` (no restriction in that coordinate).  A
    corner entry of ``-inf`` makes the box empty.
    """

    __slots__ = ("corner",)

    def __init__(self, corner):
        c = np.array(corner, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "corner", c)

    @property
    def dim(self) -> int:
        return self.corner.shape[0]

    @property
    def is_empty(self) -> bool:
        return bool(np.any(self.corner == -np.inf))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Strict membership test; pts has shape (..., d)."""
        return np.all(np.asarray(pts, float) < self.corner, axis=-1)

    @property
    def key(self) -> bytes:
        return self.corner.tobytes()

    @staticmethod
    def empty(d: int) -> "AnchoredBox":
        return AnchoredBox(np.full(d, -np.inf))

    @staticmethod
    def full(d: int) -> "AnchoredBox":
        return AnchoredBox(np.full(d, np.inf))

    def __eq__(self, other):
        return isinstance(other, AnchoredBox) and np.array_equal(self.corner, other.corner)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"AnchoredBox({self.corner.tolist()})"


# ---------------------------------------------------------------------------
# Target measures
# ---------------------------------------------------------------------------

# the stratified estimate takes its rows in chunks of at most this many
# uniforms (one row at least)
_STRATIFIED_CHUNK = 1 << 16
# The disc profile rule: a Gauss-Legendre pair on every interval between a
# column's breakpoints in theta (x1 = r sin(theta)).  The higher order gives
# the value, the gap to the lower one the error estimate.  The fixed panel
# edges keep every interval at most pi / _DISC_PANELS long, also where a
# column has a single level: with 8 panels the gap of a single-level column
# stays below 1e-11 up to alpha = 100 (4 panels: 2e-7).
_DISC_LOW, _DISC_HIGH = (np.polynomial.legendre.leggauss(k) for k in (12, 24))
_DISC_NODES = np.concatenate([_DISC_LOW[0], _DISC_HIGH[0]])
_DISC_PANELS = 8
_DISC_PANEL_EDGES = -0.5 * math.pi + math.pi / _DISC_PANELS * np.arange(_DISC_PANELS)


def _ball_section(rho, h):
    """Measure of the section of the ball at half-width rho below the corner's
    trailing coordinates h: in d = 2 the length of {|x2| < rho, x2 < h2}."""
    return np.clip(h[..., 0], -rho, rho) + rho


def _ball_section_kinks(h):
    """The half-widths rho at which :func:`_ball_section` is not smooth in
    rho: |h2| in d = 2."""
    return np.abs(h)


def _bisect(f: Callable[[np.ndarray, np.ndarray], np.ndarray], p, a, b):
    """Bisection to width 1e-12 of nondecreasing functions for every level of
    p at once: level i halves its own bracket [a_i, b_i] (a and b broadcast
    against p), keeping the lower end while its function at the midpoint is
    below p_i, until the bracket is no wider than 1e-12, and returns the
    midpoint.  ``f(mid, live)`` gives the functions at the midpoints of the
    live levels, whose flat indices are ``live``; one call per step serves
    all of them.  A scalar result is a float."""
    shape = np.broadcast_shapes(np.shape(p), np.shape(a), np.shape(b))
    levels, lo, hi = (np.broadcast_to(np.asarray(x, float), shape).flatten() for x in (p, a, b))
    live = np.flatnonzero(hi - lo > 1e-12)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        up = np.asarray(f(mid, live)) < levels[live]
        lo[live[up]] = mid[up]
        hi[live[~up]] = mid[~up]
        live = live[hi[live] - lo[live] > 1e-12]
    out = 0.5 * (lo + hi)
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
        For densities on the d = 2 ball depending on the first coordinate
        only: profile(x1), vectorized.  Box masses then come from the
        profile rule (:meth:`_profile_integrals`): per column of corners
        sharing c2, one pass along x1 = r sin(theta) with a Gauss-Legendre
        pair per interval, summed cumulatively; the error is the cumulative
        sum of the per-interval rule gaps.

    Without a closed form the masses are :meth:`_integrals` of the clipped
    corners over that of the domain's upper corner, the normalizer: the
    profile rule, adaptive quadrature row by row (d = 1 and the d = 2 box)
    or the stratified estimate of all rows at once (every other domain, the
    d = 2 ball without a profile included).

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
        name: str = "",
        exact_box_mass: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        exact_inv_cdf: Optional[Callable] = None,
        exact_marginal_cdf: Optional[Callable] = None,
        profile: Optional[Callable] = None,
    ):
        self.domain = domain
        self.density = density
        self.name = name
        self.exact_box_mass = exact_box_mass
        self.exact_inv_cdf = exact_inv_cdf
        self.exact_marginal_cdf = exact_marginal_cdf
        self.profile = profile
        if exact_box_mass is not None:
            self.normalizer, self.normalizer_error = 1.0, 0.0
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
        c = np.asarray(corners, float)
        if c.ndim != 2 or c.shape[1] != self.dim:
            raise ValueError(f"corners of shape {c.shape} for measure dimension {self.dim}")
        lo, hi_dom = self.domain.bounding()
        nan = np.isnan(c).any(axis=1)
        empty = np.any(c <= lo, axis=1)
        full = np.all(c >= hi_dom, axis=1) & ~empty
        masses = np.where(nan, np.nan, full.astype(float))
        err = math.nan if nan.any() else 0.0
        rest = np.flatnonzero(~(empty | full | nan))
        if rest.size == 0:
            return masses, err
        hi = np.minimum(c[rest], hi_dom)
        if self.exact_box_mass is not None:
            masses[rest] = self.exact_box_mass(hi)
            return masses, err
        masses[rest], errs = self._normalized(*self._integrals(hi))
        return masses, err + float(np.max(errs))

    def grid_masses(self, axes) -> tuple[np.ndarray, float]:
        """Masses of the open boxes ``(-inf, c)`` for every corner c of the
        tensor grid of the per-axis values ``axes[j]`` (each flattened), with
        the same special cases as :meth:`box_masses`: ``masses[i_1, ...,
        i_d]`` belongs to the corner (axes[0][i_1], ..., axes[d-1][i_d]),
        plus the largest error bound.  The profile rule integrates each
        column c2 once along x1 for all its levels c1; every other measure
        returns :meth:`box_masses` of the grid's rows in C order."""
        axes = [np.asarray(a, float).ravel() for a in axes]
        if len(axes) != self.dim:
            raise ValueError(f"{len(axes)} axes for measure dimension {self.dim}")
        shape = tuple(a.size for a in axes)
        if not self._profile_rule:
            grid = np.meshgrid(*axes, indexing="ij")
            masses, err = self.box_masses(np.stack(grid, axis=-1).reshape(-1, self.dim))
            return masses.reshape(shape), err
        r = self.domain.radius
        c1, c2 = axes
        masses, errs = np.zeros(shape), np.zeros(shape)
        levels, cols = c1 > -r, c2 > -r
        if levels.any() and cols.any():
            top = np.arcsin(np.minimum(c1[levels], r) / r)
            h = np.minimum(c2[cols], r)[:, None]
            num, num_err = self._profile_integrals(np.broadcast_to(top, (h.shape[0], top.size)), h)
            cells = np.ix_(levels, cols)
            masses[cells], errs[cells] = self._normalized(num.T, num_err.T)
        full = (c1 >= r)[:, None] & (c2 >= r)
        masses[full], errs[full] = 1.0, 0.0
        nan = np.isnan(c1)[:, None] | np.isnan(c2)
        masses[nan] = np.nan
        return masses, math.nan if nan.any() else float(np.max(errs, initial=0.0))

    def box_mass(self, box: AnchoredBox) -> tuple[float, float]:
        """Normalized mass of ``box`` intersected with the domain, plus an
        error bound: :meth:`box_masses` of its corner."""
        if box.dim != self.dim:
            raise ValueError(f"box dimension {box.dim} != measure dimension {self.dim}")
        masses, err = self.box_masses(box.corner[None])
        return float(masses[0]), err

    @property
    def _profile_rule(self) -> bool:
        """Whether box masses come from the disc profile rule, all corners
        at once."""
        return self.profile is not None and self.dim == 2 and isinstance(self.domain, BallDomain)

    def _normalized(self, num: np.ndarray, num_err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Masses and error bounds from unnormalized integrals and their
        errors."""
        vals = np.clip(num / self.normalizer, 0.0, 1.0)
        return vals, (num_err + vals * self.normalizer_error) / self.normalizer

    def _profile_integrals(self, top: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ball with a profile: int profile(r sin t) S(r cos t; h) r cos t dt
        over -pi/2 < t < top, where S(rho; h) is the section of the ball at
        half-width rho below h (:func:`_ball_section` and its kinks
        :func:`_ball_section_kinks`, the only parts that depend on d), for
        every level ``top[k, l]`` (an angle, x1 = r sin(top)) of every
        column ``h[k]`` (the corners' other coordinates, clipped to the
        domain); returns the integrals and their rule errors, shaped like
        ``top``.

        A column's breakpoints are the panel edges, the angles at which its
        section has kinks and its levels.  The integrand is smooth between
        them, and every interval below the column's highest level gets the
        Gauss-Legendre pair.  Cumulative sums over the sorted intervals give
        all levels of the column at once, and cumulative sums of the
        per-interval gaps between the two rules their errors.  Each column's
        results depend on that column alone."""
        r = self.domain.radius
        cols, levels = top.shape
        kinks = np.arccos(_ball_section_kinks(h) / r)
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
        theta = (0.5 * (a + b))[:, None] + half[:, None] * _DISC_NODES
        rho = r * np.cos(theta)
        hs = np.broadcast_to(h[:, None], need.shape + h.shape[1:])[need]
        f = self.profile(r * np.sin(theta)) * _ball_section(rho, hs[:, None]) * rho
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
        with each row its own column, scipy ``quad`` (d = 1) or ``dblquad``
        (a d = 2 box) row by row, else :meth:`_stratified` for all rows."""
        if self._profile_rule:
            num, err = self._profile_integrals(np.arcsin(hi[:, :1] / self.domain.radius), hi[:, 1:])
            return num[:, 0], err[:, 0]
        lo = self.domain.bounding()[0]
        if self.dim == 1:
            f = lambda t: float(self.density(np.array([[t]]))[0])
            rows = [integrate.quad(f, lo[0], h[0], epsabs=1e-10, limit=200) for h in hi]
        elif self.dim == 2 and isinstance(self.domain, BoxDomain):
            f2 = lambda y, x: float(self.density(np.array([[x, y]]))[0])
            rows = [integrate.dblquad(f2, lo[0], h[0], lo[1], h[1], epsabs=1e-8) for h in hi]
        else:
            return self._stratified(hi)
        return tuple(np.array(rows).T)

    def _stratified(self, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stratified quasi-Monte Carlo estimates of :meth:`_integrals` with
        3-sigma errors.  Each row h splits the box [lo, h] into 4^d cells
        and takes one point per cell in each of 12 replications; its
        uniforms are the SplitMix64 stream seeded by the crc32 of the row's
        bytes, so a row's estimate depends on that row alone."""
        lo = self.domain.bounding()[0]
        d, k, reps = self.dim, 4, 12
        cells = k**d
        grid = np.stack(np.meshgrid(*[np.arange(k)] * d, indexing="ij"), axis=-1).reshape(cells, d)
        idx = np.arange(1, reps * cells * d + 1, dtype=np.uint64)
        est, err = np.empty(len(hi)), np.empty(len(hi))
        step = max(1, _STRATIFIED_CHUNK // idx.size)
        for s in range(0, len(hi), step):
            h = hi[s : s + step]
            seeds = np.array([_mix64(zlib.crc32(row.tobytes())) for row in h], np.uint64)
            u = _splitmix_uniforms(seeds[:, None], idx).reshape(len(h), reps, cells, d)
            pts = (lo + (grid + u) / k * (h - lo)[:, None, None]).reshape(-1, d)
            vals = (self.density(pts) * self.domain.contains(pts)).reshape(len(h), reps, cells)
            estimates = np.prod(h - lo, axis=1)[:, None] * np.mean(vals, axis=-1)
            est[s : s + step] = np.mean(estimates, axis=1)
            err[s : s + step] = 3.0 * np.std(estimates, axis=1, ddof=1) / math.sqrt(reps)
        return est, err

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
        inverse when the measure has one, else bisection of
        :meth:`marginal_cdf` to 1e-12, every level in its own bracket and
        one :meth:`marginal_cdf` call per step for all of them."""
        shape = np.broadcast_shapes(np.shape(j), np.shape(p))
        if self.exact_inv_cdf is not None:
            q = np.empty(shape)
            q[...] = self.exact_inv_cdf(p)
            return q if shape else float(q)
        lo, hi = self.domain.bounding()
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
        name=f"uniform[{a},{b}]",
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
        name=f"exp-linear(alpha={alpha})[{a},{b}]",
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
        name="uniform-box",
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
        name=f"exp-linear-box(alpha={alpha})",
        exact_box_mass=_product_mass(first, lo, hi),
    )


def _disc_area_below(t):
    """The antiderivative G(t) = (t sqrt(1 - t^2) + asin t) / 2 of
    sqrt(1 - t^2) on [-1, 1]."""
    return 0.5 * (t * np.sqrt(1.0 - t * t) + np.arcsin(t))


def _uniform_disc_mass(hi: np.ndarray) -> np.ndarray:
    """pi((-inf, c)) for the uniform unit disc and corners c = (c1, c2) in
    [-1, 1]^2.  The x2-section at x1 = x has length h + c2 for |x| < s and
    2h or 0 (as c2 >= 0 or not) for |x| >= s, where h = sqrt(1 - x^2) and
    s = sqrt(1 - c2^2); each piece integrates in closed form through G."""
    G = _disc_area_below
    t, c = hi[:, 0], hi[:, 1]
    s = np.sqrt(1.0 - c * c)
    mid = np.clip(t, -s, s)
    inner = G(mid) - G(-s) + c * (mid + s)
    outer = 2.0 * (G(np.minimum(t, -s)) - G(-1.0) + G(np.maximum(t, s)) - G(s))
    return np.clip((inner + np.where(c >= 0.0, outer, 0.0)) / math.pi, 0.0, 1.0)


def uniform_ball(d: int) -> TargetMeasure:
    """Uniform distribution on the Euclidean unit ball; closed-form box
    masses in d = 2, closed-form marginals in d >= 3: every coordinate t
    has CDF I_{(1+t)/2}((d+1)/2, (d+1)/2), the regularized incomplete beta
    function ((t+1)^2 (2-t)/4 in d = 3).  Box masses in d >= 3 are the
    stratified estimate."""
    if d == 1:
        return uniform_interval(-1.0, 1.0)
    a = (d + 1) / 2
    return TargetMeasure(
        BallDomain(d),
        lambda x: np.ones(x.shape[0]),
        name=f"uniform-ball(d={d})",
        exact_box_mass=_uniform_disc_mass if d == 2 else None,
        exact_marginal_cdf=(lambda t: special.betainc(a, a, 0.5 * (1.0 + t))) if d >= 3 else None,
    )


def exp_linear_ball(alpha: float, d: int) -> TargetMeasure:
    """Density exp(alpha * x_1) on the unit ball (log-Lipschitz constant
    alpha): box masses by the profile rule in d = 2, the stratified
    estimate in d >= 3."""
    if d == 1:
        return exp_linear_interval(alpha, -1.0, 1.0)
    return TargetMeasure(
        BallDomain(d),
        lambda x: np.exp(alpha * x[:, 0]),
        name=f"exp-linear-ball(alpha={alpha},d={d})",
        profile=lambda x1: np.exp(alpha * np.asarray(x1, float)),
    )


# ---------------------------------------------------------------------------
# Driver sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriverSequence:
    """n points in [0,1]^s, consumed one per chain step."""

    points: np.ndarray  # shape (n, s)
    provenance: str

    def __post_init__(self):
        pts = np.asarray(self.points, float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("driver sequence needs shape (n, s) with n >= 1")
        if not np.all((pts >= 0.0) & (pts <= 1.0)):
            raise ValueError("driver coordinates must be finite and lie in [0, 1]")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def s(self) -> int:
        return self.points.shape[1]


_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)


def radical_inverse(i: int, base: int) -> float:
    """Radical inverse of i >= 1 in the given base."""
    inv = 0.0
    f = 1.0 / base
    while i > 0:
        inv += (i % base) * f
        i //= base
        f /= base
    return inv


def halton_sequence(n: int, s: int) -> DriverSequence:
    """Halton points: coordinate j of point i is the radical inverse of i+1
    in the j-th prime base."""
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    if s > len(_PRIMES):
        raise ValueError(f"at most {len(_PRIMES)} dimensions supported")
    # radical_inverse for all points and bases at once, one digit position
    # per pass: the same float operations in the same order, and adding
    # 0 * f once a point's digits are spent leaves it unchanged.  The last
    # point's base-2 digits run out last.
    bases = np.array(_PRIMES[:s])
    digits = np.arange(1, n + 1)[:, None].repeat(s, axis=1)
    f = 1.0 / bases
    pts = np.zeros((n, s))
    while digits[-1, 0]:
        digits, digit = np.divmod(digits, bases)
        pts += digit * f
        f /= bases
    return DriverSequence(pts, provenance="halton")


def uniform_driver(n: int, s: int, rng: Rng) -> DriverSequence:
    """Seeded deterministic uniforms, reproducible per (seed, counter)."""
    pts = rng.uniforms(n * s).reshape(n, s)
    return DriverSequence(pts, provenance=f"uniform-random(seed={rng.seed:#x})")
