"""Shared geometry, target measures, deterministic RNG and driver sequences.

Everything downstream (chains, discrepancies, covers, searches) is built on
the types here:

* ``Rng`` -- a splittable counter-based SplitMix64 generator, so every
  candidate and replica stream is reproducible from (seed, label).
* ``AnchoredBox`` -- a strictly open box ``(-inf, corner)``; membership is
  strict in every coordinate.
* ``TargetMeasure`` -- a target distribution given by a density on a bounded
  domain, with a box-mass oracle (analytic where possible, quadrature
  otherwise) and cached normalizer.
* ``DriverSequence`` -- n points in [0,1]^s consumed one per chain step.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate

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

    def indicator(self, pts: np.ndarray) -> np.ndarray:
        return self.contains(pts)


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

    def indicator(self, pts: np.ndarray) -> np.ndarray:
        return np.sum(np.asarray(pts, float) ** 2, axis=-1) <= self.radius**2


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


class TargetMeasure:
    """Probability measure ``pi(A) = int_A rho / int_G rho`` on a bounded domain.

    Parameters
    ----------
    domain : BoxDomain | BallDomain
    density : callable
        Unnormalized density; takes an array of shape (m, d) and returns (m,).
        Must be positive on the domain.
    exact_box_mass : callable, optional
        Closed-form normalized mass of an open anchored box, given the
        effective (clipped) corner.  When present the quadrature error is 0.
    exact_cdf / exact_inv_cdf : callable, optional
        d = 1 only; vectorized CDF and its inverse.
    profile : callable, optional
        For densities depending on the first coordinate only: profile(x1)
        (vectorized).  Enables the 1-D reduction of ball-domain masses in
        d = 2.
    """

    def __init__(
        self,
        domain,
        density: Callable[[np.ndarray], np.ndarray],
        *,
        name: str = "",
        exact_box_mass: Optional[Callable[[np.ndarray], float]] = None,
        exact_cdf: Optional[Callable] = None,
        exact_inv_cdf: Optional[Callable] = None,
        profile: Optional[Callable] = None,
        seed: int = 0,
    ):
        self.domain = domain
        self.density = density
        self.name = name
        self.exact_box_mass = exact_box_mass
        self.exact_cdf = exact_cdf
        self.exact_inv_cdf = exact_inv_cdf
        self.profile = profile
        self.seed = seed
        self._cache: dict[bytes, tuple[float, float]] = {}
        if exact_box_mass is not None:
            self.normalizer, self.normalizer_error = 1.0, 0.0
        else:
            lo, hi = domain.bounding()
            self.normalizer, self.normalizer_error = self._raw_integral(hi)
            if self.normalizer <= 0:
                raise ValueError("density must integrate to a positive value")

    @property
    def dim(self) -> int:
        return self.domain.dim

    # -- box mass ----------------------------------------------------------

    def box_mass(self, box: AnchoredBox) -> tuple[float, float]:
        """Normalized mass of ``box`` intersected with the domain, plus an
        error bound.  Corner entries of +inf mean no restriction."""
        if box.dim != self.dim:
            raise ValueError(f"box dimension {box.dim} != measure dimension {self.dim}")
        lo, hi_dom = self.domain.bounding()
        c = box.corner
        if np.any(c <= lo):
            return 0.0, 0.0
        if np.all(c >= hi_dom):
            return 1.0, 0.0
        key = box.key
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        hi = np.minimum(c, hi_dom)
        if self.exact_box_mass is not None:
            out = (float(self.exact_box_mass(hi)), 0.0)
        else:
            num, num_err = self._raw_integral(hi)
            mass = min(max(num / self.normalizer, 0.0), 1.0)
            err = (num_err + mass * self.normalizer_error) / self.normalizer
            out = (mass, err)
        self._cache[key] = out
        return out

    def _raw_integral(self, hi: np.ndarray) -> tuple[float, float]:
        """Unnormalized integral of the density over domain ∩ (-inf, hi)."""
        d = self.dim
        lo, hi_dom = self.domain.bounding()
        hi = np.minimum(np.asarray(hi, float), hi_dom)
        if np.any(hi <= lo):
            return 0.0, 0.0
        if d == 1:
            f = lambda t: float(self.density(np.array([[t]]))[0])
            val, err = integrate.quad(f, lo[0], hi[0], epsabs=_QUAD_TOL[1], limit=200)
            return val, err
        if d == 2:
            return self._raw_integral_2d(hi)
        return self._raw_integral_stratified(hi)

    def _raw_integral_2d(self, hi: np.ndarray) -> tuple[float, float]:
        lo, hi_dom = self.domain.bounding()
        tol = _QUAD_TOL[2]
        if isinstance(self.domain, BallDomain):
            r = self.domain.radius
            c1, c2 = hi

            if self.profile is not None:
                # Density depends on x1 only: integrate profile(x1) times the
                # admissible x2 segment length; a single smooth 1-D quadrature.
                def f(x):
                    h = math.sqrt(max(r * r - x * x, 0.0))
                    seg = min(c2, h) + h
                    return float(self.profile(np.array([x]))[0]) * max(seg, 0.0)

                val, err = integrate.quad(f, -r, min(c1, r), epsabs=tol, limit=200)
                return val, err

            def glo(x):
                return -math.sqrt(max(r * r - x * x, 0.0))

            def ghi(x):
                return min(c2, math.sqrt(max(r * r - x * x, 0.0)))

            def f2(y, x):
                return float(self.density(np.array([[x, y]]))[0])

            val, err = integrate.dblquad(
                f2, -r, min(c1, r), glo, lambda x: max(ghi(x), glo(x)), epsabs=tol
            )
            return val, err
        # box domain: tensorized adaptive rule
        def f2(y, x):
            return float(self.density(np.array([[x, y]]))[0])

        val, err = integrate.dblquad(f2, lo[0], hi[0], lo[1], hi[1], epsabs=tol)
        return val, err

    def _raw_integral_stratified(self, hi: np.ndarray) -> tuple[float, float]:
        """d >= 3: stratified quasi-Monte Carlo estimate with a 3-sigma bound."""
        lo, hi_dom = self.domain.bounding()
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
            vals = self.density(pts) * self.domain.indicator(pts)
            estimates[r] = vol * float(np.mean(vals))
        est = float(np.mean(estimates))
        err = 3.0 * float(np.std(estimates, ddof=1)) / math.sqrt(reps)
        return est, err

    # -- 1-D CDF machinery ---------------------------------------------------

    def cdf(self, t):
        if self.dim != 1:
            raise ValueError("cdf is defined for d = 1 only")
        if self.exact_cdf is not None:
            return self.exact_cdf(t)
        t_arr = np.atleast_1d(np.asarray(t, float))
        out = np.array([self.box_mass(AnchoredBox([ti]))[0] for ti in t_arr])
        return out if np.ndim(t) else float(out[0])

    def inv_cdf(self, p):
        """Inverse CDF; exact formula if available, else monotone bisection
        to 1e-12."""
        if self.dim != 1:
            raise ValueError("inv_cdf is defined for d = 1 only")
        if self.exact_inv_cdf is not None:
            return self.exact_inv_cdf(p)
        p_arr = np.atleast_1d(np.asarray(p, float))
        lo, hi = self.domain.bounding()
        out = np.array([self._bisect_cdf(float(pi), lo[0], hi[0]) for pi in p_arr])
        return out if np.ndim(p) else float(out[0])

    def _bisect_cdf(self, p: float, a: float, b: float) -> float:
        while b - a > 1e-12:
            m = 0.5 * (a + b)
            if self.cdf(m) < p:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    # -- marginals -----------------------------------------------------------

    def marginal_cdf(self, j: int, t: float) -> float:
        """pi({x : x_j < t})."""
        if self.dim == 1:
            return float(self.cdf(t))
        corner = np.full(self.dim, np.inf)
        corner[j] = t
        return self.box_mass(AnchoredBox(corner))[0]

    def marginal_quantile(self, j: int, p: float) -> float:
        lo, hi = self.domain.bounding()
        if self.dim == 1:
            return float(self.inv_cdf(p))
        a, b = lo[j], hi[j]
        while b - a > 1e-12:
            m = 0.5 * (a + b)
            if self.marginal_cdf(j, m) < p:
                a = m
            else:
                b = m
        return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Measure presets
# ---------------------------------------------------------------------------


def uniform_interval(a: float = -1.0, b: float = 1.0) -> TargetMeasure:
    width = b - a

    def mass(hi):
        return min(max((hi[0] - a) / width, 0.0), 1.0)

    return TargetMeasure(
        BoxDomain((a,), (b,)),
        lambda x: np.ones(x.shape[0]),
        name=f"uniform[{a},{b}]",
        exact_box_mass=mass,
        exact_cdf=lambda t: np.clip((np.asarray(t, float) - a) / width, 0.0, 1.0),
        exact_inv_cdf=lambda p: a + np.asarray(p, float) * width,
    )


def exp_linear_interval(alpha: float, a: float = -1.0, b: float = 1.0) -> TargetMeasure:
    """Density exp(alpha * x) on [a, b]; closed-form CDF."""
    if alpha == 0.0:
        return uniform_interval(a, b)
    z = math.exp(alpha * b) - math.exp(alpha * a)

    def cdf(t):
        t = np.clip(np.asarray(t, float), a, b)
        return (np.exp(alpha * t) - math.exp(alpha * a)) / z

    def inv(p):
        p = np.asarray(p, float)
        return np.log(p * z + math.exp(alpha * a)) / alpha

    return TargetMeasure(
        BoxDomain((a,), (b,)),
        lambda x: np.exp(alpha * x[:, 0]),
        name=f"exp-linear(alpha={alpha})[{a},{b}]",
        exact_box_mass=lambda hi: float(cdf(hi[0])),
        exact_cdf=cdf,
        exact_inv_cdf=inv,
    )


def uniform_box(lower: Sequence[float], upper: Sequence[float]) -> TargetMeasure:
    lo = np.asarray(lower, float)
    hi = np.asarray(upper, float)

    def mass(c):
        return float(np.prod(np.clip((c - lo) / (hi - lo), 0.0, 1.0)))

    return TargetMeasure(
        BoxDomain(tuple(lo), tuple(hi)),
        lambda x: np.ones(x.shape[0]),
        name="uniform-box",
        exact_box_mass=mass,
    )


def exp_linear_box(alpha: float, lower: Sequence[float], upper: Sequence[float]) -> TargetMeasure:
    """Density exp(alpha * x_1) on a box: product of a 1-D exp-linear factor
    and uniform factors, so box masses are closed-form."""
    lo = np.asarray(lower, float)
    hi = np.asarray(upper, float)
    d = len(lo)
    first = exp_linear_interval(alpha, lo[0], hi[0])

    def mass(c):
        m = float(first.exact_cdf(c[0]))
        for j in range(1, d):
            m *= min(max((c[j] - lo[j]) / (hi[j] - lo[j]), 0.0), 1.0)
        return m

    return TargetMeasure(
        BoxDomain(tuple(lo), tuple(hi)),
        lambda x: np.exp(alpha * x[:, 0]),
        name=f"exp-linear-box(alpha={alpha})",
        exact_box_mass=mass,
        profile=lambda x1: np.exp(alpha * np.asarray(x1, float)),
    )


def uniform_ball(d: int, seed: int = 0) -> TargetMeasure:
    """Uniform distribution on the Euclidean unit ball."""
    if d == 1:
        return uniform_interval(-1.0, 1.0)
    return TargetMeasure(
        BallDomain(d),
        lambda x: np.ones(x.shape[0]),
        name=f"uniform-ball(d={d})",
        profile=lambda x1: np.ones(np.shape(x1)),
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
