"""Shared geometry, target measures, deterministic RNG and driver sequences.

Everything downstream (chains, discrepancies, covers, searches) is built on
the types here:

* ``Rng`` -- a splittable counter-based SplitMix64 generator, so every
  candidate and replica stream is reproducible from (seed, label).
* ``AnchoredBox`` -- a strictly open box ``(-inf, corner)``; membership is
  strict in every coordinate.
* ``TargetMeasure`` -- a target distribution given by a density on a bounded
  domain, with a batched box-mass oracle over corner arrays (closed form
  where possible, quadrature otherwise) and cached normalizer.
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


def _mix64(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


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
        z = np.uint64(self.seed) + idx * np.uint64(_GAMMA)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._counter += n
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def split(self, label: int) -> "Rng":
        child = _mix64(self.seed ^ _mix64(((2 * int(label) + 1) * _GAMMA) & _MASK64))
        return Rng(child)

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

    @property
    def is_full(self) -> bool:
        return bool(np.all(self.corner == np.inf))

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

_QUAD_TOL = {1: 1e-10, 2: 1e-8}
# Gauss-Legendre rules over x1 = r sin(theta) for the disc profile
# reduction; the higher order gives the value, the gap to the lower one the
# error estimate
_DISC_RULES = tuple(np.polynomial.legendre.leggauss(k) for k in (24, 48))


def _bisect(f: Callable[[np.ndarray], np.ndarray], p, a: float, b: float):
    """Bisection to width 1e-12 of a nondecreasing f for every level of p at
    once: each level halves its own bracket [a, b], keeping the lower end
    while f(mid) < p, until it is no wider than 1e-12, and returns the
    midpoint.  Scalar p gives a float."""
    levels = np.atleast_1d(np.asarray(p, float)).ravel()
    lo = np.full(levels.shape, float(a))
    hi = np.full(levels.shape, float(b))
    live = np.flatnonzero(hi - lo > 1e-12)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        up = np.asarray(f(mid)) < levels[live]
        lo[live[up]] = mid[up]
        hi[live[~up]] = mid[~up]
        live = live[hi[live] - lo[live] > 1e-12]
    out = 0.5 * (lo + hi)
    return out.reshape(np.shape(p)) if np.ndim(p) else float(out[0])


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
        only: profile(x1), vectorized.  Box masses then come from one
        Gauss-Legendre rule over x1 for all corners.
    seed : int
        Seeds the stratified estimates of d >= 3 box masses.
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
        seed: int = 0,
    ):
        self.domain = domain
        self.density = density
        self.name = name
        self.exact_box_mass = exact_box_mass
        self.exact_inv_cdf = exact_inv_cdf
        self.exact_marginal_cdf = exact_marginal_cdf
        self.profile = profile
        self.seed = seed
        self._cache: dict[bytes, tuple[float, float]] = {}
        if exact_box_mass is not None:
            self.normalizer, self.normalizer_error = 1.0, 0.0
        else:
            lo, hi = domain.bounding()
            if self._profile_rule:
                num, err = self._disc_integrals(hi[None])
                self.normalizer, self.normalizer_error = float(num[0]), float(err[0])
            else:
                self.normalizer, self.normalizer_error = self._raw_integral(hi)
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
        mass NaN and makes the error NaN, for every measure, and nothing is
        cached for it."""
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
        if self._profile_rule:
            num, num_err = self._disc_integrals(hi)
            vals = np.clip(num / self.normalizer, 0.0, 1.0)
            errs = (num_err + vals * self.normalizer_error) / self.normalizer
        else:
            vals, errs = np.array([self._cached_mass(c[i], h) for i, h in zip(rest, hi)]).T
        masses[rest] = vals
        return masses, err + float(np.max(errs))

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

    def _cached_mass(self, corner: np.ndarray, hi: np.ndarray) -> tuple[float, float]:
        """Mass and error of one corner by its own quadrature, cached by the
        corner."""
        key = corner.tobytes()
        hit = self._cache.get(key)
        if hit is None:
            num, num_err = self._raw_integral(hi)
            mass = min(max(num / self.normalizer, 0.0), 1.0)
            hit = self._cache[key] = (mass, (num_err + mass * self.normalizer_error) / self.normalizer)
        return hit

    def _disc_integrals(self, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d = 2 ball with a profile: int profile(x1) L(x1) dx1 over x1 < h1,
        where L is the length of the x2-section below h2, in the variable
        x1 = r sin(theta).  L is r cos(theta) + h2 on |theta| < arccos(|h2|/r)
        and 2 r cos(theta) or 0 (as h2 >= 0 or not) outside, so the rule runs
        over the three pieces between these kinks, where the integrand is
        smooth."""
        r = self.domain.radius
        top = np.arcsin(hi[:, 0] / r)
        h2 = hi[:, 1:]
        kink = np.arccos(np.abs(hi[:, 1]) / r)
        edges = [np.full_like(top, -0.5 * math.pi), -kink, kink, np.full_like(top, 0.5 * math.pi)]
        rules = []
        for nodes, weights in _DISC_RULES:
            total = np.zeros_like(top)
            for k in range(3):
                a = np.minimum(edges[k], top)
                b = np.minimum(edges[k + 1], top)
                half = 0.5 * (b - a)
                theta = (0.5 * (a + b))[:, None] + half[:, None] * nodes
                chord = r * np.cos(theta)
                section = chord + h2 if k == 1 else 2.0 * chord * (h2 >= 0.0)
                f = self.profile(r * np.sin(theta)) * section * chord
                total = total + half * np.sum(f * weights, axis=1)
            rules.append(total)
        return rules[1], np.abs(rules[1] - rules[0])

    def _raw_integral(self, hi: np.ndarray) -> tuple[float, float]:
        """Unnormalized integral of the density over domain ∩ (-inf, hi), for
        hi inside the domain's bounding box."""
        d = self.dim
        lo = self.domain.bounding()[0]
        if d == 1:
            f = lambda t: float(self.density(np.array([[t]]))[0])
            val, err = integrate.quad(f, lo[0], hi[0], epsabs=_QUAD_TOL[1], limit=200)
            return val, err
        if d == 2:
            return self._raw_integral_2d(hi)
        return self._raw_integral_stratified(hi)

    def _raw_integral_2d(self, hi: np.ndarray) -> tuple[float, float]:
        lo = self.domain.bounding()[0]
        tol = _QUAD_TOL[2]

        def f2(y, x):
            return float(self.density(np.array([[x, y]]))[0])

        if isinstance(self.domain, BallDomain):
            r = self.domain.radius
            c1, c2 = hi

            def glo(x):
                return -math.sqrt(max(r * r - x * x, 0.0))

            def ghi(x):
                return min(c2, math.sqrt(max(r * r - x * x, 0.0)))

            val, err = integrate.dblquad(
                f2, -r, min(c1, r), glo, lambda x: max(ghi(x), glo(x)), epsabs=tol
            )
            return val, err
        # box domain: tensorized adaptive rule
        val, err = integrate.dblquad(f2, lo[0], hi[0], lo[1], hi[1], epsabs=tol)
        return val, err

    def _raw_integral_stratified(self, hi: np.ndarray) -> tuple[float, float]:
        """d >= 3: stratified quasi-Monte Carlo estimate with a 3-sigma bound."""
        lo = self.domain.bounding()[0]
        d = self.dim
        k = 4          # strata per axis
        reps = 12
        cells = k**d
        vol = float(np.prod(hi - lo))
        if vol <= 0:
            return 0.0, 0.0
        # Deterministic seed from the corner so results are reproducible.
        seed = _mix64(self.seed ^ zlib.crc32(np.asarray(hi, float).tobytes()))
        rng = Rng(seed)
        grid = np.stack(
            np.meshgrid(*[np.arange(k)] * d, indexing="ij"), axis=-1
        ).reshape(cells, d)
        estimates = np.empty(reps)
        for r in range(reps):
            u = rng.uniforms(cells * d).reshape(cells, d)
            pts = lo + (grid + u) / k * (hi - lo)
            vals = self.density(pts) * self.domain.contains(pts)
            estimates[r] = vol * float(np.mean(vals))
        est = float(np.mean(estimates))
        err = 3.0 * float(np.std(estimates, ddof=1)) / math.sqrt(reps)
        return est, err

    # -- marginals -----------------------------------------------------------

    def marginal_cdf(self, j: int, t):
        """pi({x : x_j < t}), elementwise over t: the closed-form marginal
        when the measure has one, else the box masses of the corners with t
        in coordinate j and +inf in the others."""
        t_arr = np.atleast_1d(np.asarray(t, float))
        if self.exact_marginal_cdf is not None:
            lo, hi = self.domain.bounding()
            out = np.asarray(self.exact_marginal_cdf(np.clip(t_arr, lo[j], hi[j])), float)
        else:
            corners = np.full((t_arr.size, self.dim), np.inf)
            corners[:, j] = t_arr.ravel()
            out = self.box_masses(corners)[0].reshape(t_arr.shape)
        return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])

    def marginal_quantile(self, j: int, p):
        """Marginal quantiles of coordinate j, elementwise over p: the
        closed-form inverse when the measure has one, else bisection of
        :meth:`marginal_cdf` to 1e-12."""
        if self.exact_inv_cdf is not None:
            q = self.exact_inv_cdf(p)
            return np.asarray(q, float) if np.ndim(p) else float(q)
        lo, hi = self.domain.bounding()
        return _bisect(lambda t: self.marginal_cdf(j, t), p, lo[j], hi[j])

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


def uniform_ball(d: int, seed: int = 0) -> TargetMeasure:
    """Uniform distribution on the Euclidean unit ball; closed-form box
    masses in d = 2, closed-form marginals in d >= 3: every coordinate t
    has CDF I_{(1+t)/2}((d+1)/2, (d+1)/2), the regularized incomplete beta
    function ((t+1)^2 (2-t)/4 in d = 3)."""
    if d == 1:
        return uniform_interval(-1.0, 1.0)
    a = (d + 1) / 2
    return TargetMeasure(
        BallDomain(d),
        lambda x: np.ones(x.shape[0]),
        name=f"uniform-ball(d={d})",
        exact_box_mass=_uniform_disc_mass if d == 2 else None,
        exact_marginal_cdf=(lambda t: special.betainc(a, a, 0.5 * (1.0 + t))) if d >= 3 else None,
        seed=seed,
    )


def exp_linear_ball(alpha: float, d: int, seed: int = 0) -> TargetMeasure:
    """Density exp(alpha * x_1) on the unit ball (log-Lipschitz constant alpha)."""
    if d == 1:
        return exp_linear_interval(alpha, -1.0, 1.0)
    return TargetMeasure(
        BallDomain(d),
        lambda x: np.exp(alpha * x[:, 0]),
        name=f"exp-linear-ball(alpha={alpha},d={d})",
        profile=lambda x1: np.exp(alpha * np.asarray(x1, float)),
        seed=seed,
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
    pts = np.empty((n, s))
    for j in range(s):
        base = _PRIMES[j]
        pts[:, j] = [radical_inverse(i + 1, base) for i in range(n)]
    return DriverSequence(pts, provenance="halton")


def uniform_driver(n: int, s: int, rng: Rng) -> DriverSequence:
    """Seeded deterministic uniforms, reproducible per (seed, counter)."""
    pts = rng.uniforms(n * s).reshape(n, s)
    return DriverSequence(pts, provenance=f"uniform-random(seed={rng.seed:#x})")
