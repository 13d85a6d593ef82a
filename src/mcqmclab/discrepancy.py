"""Star discrepancy over anchored boxes, delta-covers, pull-back discrepancy
and the weighted (H1) Koksma-Hlawka machinery.

Boxes are strictly open, so the supremum over corners is approached from
above at data coordinates; the exact scan evaluates both the
"point counted" and "point not counted" branch at every critical coordinate
instead of nudging by an epsilon.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import ChainSystem, run_chain, run_chains
from .core import AnchoredBox, DriverSequence, Rng, TargetMeasure

__all__ = [
    "DiscrepancyReport",
    "DeltaCover",
    "H1Function",
    "ExactScanInfeasible",
    "CoverConstructionError",
    "star_discrepancy_exact",
    "star_discrepancy_bracket",
    "build_quantile_cover",
    "cover_size_bound",
    "pullback_discrepancy_mc",
    "kh_error_bound",
]


# bound on the corners whose masses the exact scan asks for at once
_SCAN_CHUNK_CELLS = 1 << 16
# bound on the members of a quantile cover, (ceil(d / delta) + 1)^d; the
# pull-back counts hold one float per member for each of its m + 1 paths
COVER_MEMBER_CAP = 1 << 20


class ExactScanInfeasible(RuntimeError):
    """Exact scan requested for d > 3; use the cover-bracket method."""


class CoverConstructionError(RuntimeError):
    """A quantile cover would exceed the member cap, or failed its slab-mass
    audit."""


@dataclass(frozen=True)
class DiscrepancyReport:
    """Lower/upper bracket of a discrepancy plus method metadata."""

    lower: float
    upper: float
    method: str  # exact-scan | cover-bracket | pullback-mc
    delta_used: float = 0.0
    mc_stderr: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0 + 1e-12):
            raise ValueError(f"invalid bracket [{self.lower}, {self.upper}]")


def _as_points(points, d: int) -> np.ndarray:
    pts = np.asarray(points, float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points must have shape (n, {d})")
    return pts


# ---------------------------------------------------------------------------
# Exact scan
# ---------------------------------------------------------------------------


def _count_grid(bins: Sequence[np.ndarray], dims: Sequence[int]) -> np.ndarray:
    """Cumulative point counts over a tensor grid of bins, for stacked point
    sets.

    ``bins[j]`` holds every point's bin on axis j, shape (sets, n), with
    values in range(dims[j]).  Entry [s, t_1, ..., t_d] of the result, shape
    (sets, *dims), counts the points of set s whose bin on every axis j is
    at most t_j: one histogram of the bin cells per set, summed cumulatively
    along every axis.
    """
    sets = bins[0].shape[0]
    cell = np.arange(sets)[:, None]
    for b, k in zip(bins, dims):
        cell = cell * k + b
    counts = np.bincount(cell.ravel(), minlength=sets * math.prod(dims))
    counts = counts.reshape(sets, *dims)
    for axis in range(1, len(dims) + 1):
        np.cumsum(counts, axis=axis, out=counts)
    return counts


def star_discrepancy_exact(points, measure: TargetMeasure) -> DiscrepancyReport:
    """Exact star discrepancy over open anchored boxes, d <= 3.

    The supremum is attained on the critical grid: per coordinate the
    distinct point coordinates and +inf, each evaluated with the point
    excluded (strict box at the coordinate) and included (limit from
    above).  A point's bin on axis j is its rank among the distinct
    coordinates plus one, so entry t of :func:`_count_grid` on that axis
    counts the points of rank < t: the strict count at grid index t, and
    the closed count at index t - 1.  Both branches share the corner, whose
    mass is taken once (the boundary has measure 0).  The masses come from
    :meth:`TargetMeasure.grid_masses`, a chunk of the last axis at a time
    with the others whole, so that the profile rule's cumulative axis x1 is
    never split and the result does not depend on the chunk size.  The
    bracket is the largest deviation plus and minus the largest box-mass
    error.
    """
    d = measure.dim
    if d > 3:
        raise ExactScanInfeasible(
            "exact scan is limited to d <= 3; use the cover bracket (objective star-bracket)"
        )
    pts = _as_points(points, d)
    n = pts.shape[0]
    values, ranks = zip(*(np.unique(pts[:, j], return_inverse=True) for j in range(d)))
    # the count grid with its axes reversed, so that a chunk of the last
    # axis is a contiguous block of it
    counts = _count_grid([r[None, :] + 1 for r in ranks[::-1]], [v.size + 2 for v in values[::-1]])[0]
    *whole, last = [np.append(v, np.inf) for v in values]
    step = max(1, _SCAN_CHUNK_CELLS // math.prod(a.size for a in whole))
    best = 0.0
    max_err = 0.0
    for start in range(0, last.size, step):
        masses, err = measure.grid_masses(whole + [last[start : start + step]])
        masses = np.ascontiguousarray(masses.T)  # in the count grid's axis order
        max_err = max(max_err, err)
        # the chunk's values of the last axis and one more, for the closed
        # branch of its last value
        block = counts[start : start + len(masses) + 1]
        for idx in itertools.product((slice(-1), slice(1, None)), repeat=d):
            best = max(best, float(np.max(np.abs(block[idx] / n - masses))))
    return DiscrepancyReport(
        lower=max(best - max_err, 0.0),
        upper=min(best + max_err, 1.0),
        method="exact-scan",
    )


# ---------------------------------------------------------------------------
# Delta-covers
# ---------------------------------------------------------------------------


@dataclass
class DeltaCover:
    """Finite bracketing family for anchored boxes, given by per-coordinate
    cuts.  Its members are the product grid of the cuts and +inf on every
    coordinate, in C order, then the empty box (all -inf); :attr:`corners`
    lists them.  :meth:`bracket` maps any anchored box A to (C, D) in the
    family with C ⊆ A ⊆ D and pi(D \\ C) <= delta (+ quadrature error).
    """

    delta: float
    measure: TargetMeasure
    cuts: tuple  # per-coordinate sorted cut arrays

    @functools.cached_property
    def corners(self) -> np.ndarray:
        """Corner array of the members, shape (size, d)."""
        d = len(self.cuts)
        grid = np.meshgrid(*[np.append(cj, np.inf) for cj in self.cuts], indexing="ij")
        return np.vstack([np.stack(grid, axis=-1).reshape(-1, d), np.full((1, d), -np.inf)])

    @property
    def size(self) -> int:
        """Number of members, counted without building :attr:`corners`."""
        return math.prod(len(cj) + 1 for cj in self.cuts) + 1

    def fractions_below(self, points) -> np.ndarray:
        """Fraction of the points strictly inside each member, for stacked
        point sets: shape (..., n, d) -> (..., size), in the order of
        :attr:`corners`.

        A point's bin on axis j is the number of cuts at or below x_j, so
        x_j < cuts_j[t] exactly when the bin is <= t, and every finite x_j
        is below +inf; +inf and NaN go to one more bin, below nothing.  The
        members' counts are :func:`_count_grid` without that last bin.
        """
        pts = np.asarray(points, float)
        d = len(self.cuts)
        if pts.ndim < 2 or pts.shape[-1] != d or pts.shape[-2] < 1:
            raise ValueError(f"points must have shape (..., n, {d}) with n >= 1")
        *batch, n, _ = pts.shape
        sets = math.prod(batch)
        flat = pts.reshape(sets, n, d)
        bins = [
            np.where(x < np.inf, np.searchsorted(cj, x, side="right"), len(cj) + 1)
            for cj, x in zip(self.cuts, np.moveaxis(flat, -1, 0))
        ]
        counts = _count_grid(bins, [len(cj) + 2 for cj in self.cuts])
        counts = counts[(slice(None),) + (slice(-1),) * d].reshape(sets, -1)
        fractions = np.hstack([counts, np.zeros((sets, 1), counts.dtype)]) / n
        return fractions.reshape(*batch, self.size)

    def bracket(self, box: AnchoredBox) -> tuple[AnchoredBox, AnchoredBox]:
        d = self.measure.dim
        if box.is_empty:
            e = AnchoredBox.empty(d)
            return e, e
        c_lo = np.empty(d)
        c_hi = np.empty(d)
        for j in range(d):
            a = box.corner[j]
            cuts = self.cuts[j]
            if a == np.inf:
                c_lo[j] = c_hi[j] = np.inf
                continue
            idx = int(np.searchsorted(cuts, a, side="right"))
            c_lo[j] = cuts[idx - 1] if idx > 0 else -np.inf
            c_hi[j] = cuts[idx] if idx < len(cuts) else np.inf
        if np.any(c_lo == -np.inf):
            inner = AnchoredBox.empty(d)
        else:
            inner = AnchoredBox(c_lo)
        return inner, AnchoredBox(c_hi)

    def mass(self, box: AnchoredBox) -> tuple[float, float]:
        return self.measure.box_mass(box)

    @functools.cached_property
    def _masses(self) -> tuple[np.ndarray, float]:
        grid, err = self.measure.grid_masses([np.append(cj, np.inf) for cj in self.cuts])
        return np.append(grid.ravel(), 0.0), err

    def masses(self) -> tuple[np.ndarray, float]:
        """Masses of every member, plus the max quadrature error, computed
        on the first call: the grid masses of the product grid, then 0 for
        the empty box."""
        return self._masses


def build_quantile_cover(measure: TargetMeasure, delta: float) -> DeltaCover:
    """Delta-cover from per-coordinate marginal quantile cuts.

    Coordinate j gets m = ceil(d/delta) slabs of marginal mass <= delta/d;
    bracketing each corner coordinate to adjacent cuts then gives
    pi(D \\ C) <= delta.  The levels of all d coordinates are bisected
    together.  A cover of more than :data:`COVER_MEMBER_CAP` members,
    counted as (m + 1)^d, is refused before anything is computed.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    d = measure.dim
    # d / delta is inf for the smallest subnormal delta
    m = math.ceil(min(d / delta, COVER_MEMBER_CAP))
    if (m + 1) ** d > COVER_MEMBER_CAP:
        raise CoverConstructionError(
            f"delta {delta!r} needs (ceil({d}/delta) + 1)^{d} cover members, "
            f"more than the cap of {COVER_MEMBER_CAP}"
        )
    coords = np.arange(d)[:, None]
    cuts = np.asarray(measure.marginal_quantile(coords, np.arange(1, m) / m), float)
    # Audit the slab masses; the construction can only fail for
    # pathological marginals, but we never report a cover silently.
    ends = np.ones((d, 1))
    slabs = np.diff(np.concatenate([0.0 * ends, measure.marginal_cdf(coords, cuts), ends], axis=1), axis=1)
    for j, worst in enumerate(np.max(slabs, axis=1)):
        if worst > delta / d + 1e-8:
            raise CoverConstructionError(f"coordinate {j}: finest achieved slab mass {worst:.3e}")
    return DeltaCover(delta=delta, measure=measure, cuts=tuple(cuts))


def cover_size_bound(delta: float, d: int, epsilon: float) -> int:
    """Theoretical delta-cover size bound
    ``(2 + ceil((2 C_{eps,d} / delta)^{1/(1-eps)}))^d`` with
    ``C_{eps,d} = 4^eps ((3d+1) / (2 e eps log 2))^{(3d+1)/2}``."""
    if not (0.0 < delta <= 1.0) or not (0.0 < epsilon < 1.0):
        raise ValueError("need 0 < delta <= 1 and 0 < epsilon < 1")
    c_eps = 4.0**epsilon * ((3 * d + 1) / (2 * math.e * epsilon * math.log(2.0))) ** (
        (3 * d + 1) / 2
    )
    inner = (2.0 * c_eps / delta) ** (1.0 / (1.0 - epsilon))
    return int(2 + math.ceil(inner)) ** d


# ---------------------------------------------------------------------------
# Cover-bracket discrepancy
# ---------------------------------------------------------------------------


def star_discrepancy_bracket(
    points, measure: TargetMeasure, cover: DeltaCover
) -> DiscrepancyReport:
    """Bracket of the star discrepancy: the max over cover members is a
    lower bound, and adding delta gives an upper bound."""
    pts = _as_points(points, measure.dim)
    masses, mass_err = cover.masses()
    emp = cover.fractions_below(pts)
    lower = float(np.max(np.abs(emp - masses)))
    upper = min(lower + cover.delta + mass_err, 1.0)
    return DiscrepancyReport(
        lower=lower, upper=upper, method="cover-bracket", delta_used=cover.delta
    )


# ---------------------------------------------------------------------------
# Pull-back discrepancy
# ---------------------------------------------------------------------------


def pullback_discrepancy_mc(
    system: ChainSystem,
    driver: DriverSequence,
    burn_in: int,
    cover: DeltaCover,
    m: int,
    rng: Rng,
) -> DiscrepancyReport:
    """Pull-back discrepancy of the driver sequence over the cover sets.

    For each cover set A the indicator term is evaluated exactly by replaying
    the driver prefix (membership of the prefix in the pulled-back set is
    equivalent to x_{i+1} in A), while the volume term equals the chain
    marginal nu P^i(A): taken from the system's exact-marginal oracle when
    available (mc_stderr = 0), otherwise estimated from m independent random
    chains replayed in one block with the driver's own path: replica r is
    driven by the first uniforms of ``rng.split(r)``.
    """
    if system.exact_marginal is not None:
        ind = cover.fractions_below(run_chain(system, driver, burn_in=burn_in))
        vol = np.mean(system.exact_marginal(range(burn_in, driver.n), cover.corners), axis=1)
        stderr = 0.0
    else:
        if m < 100:
            raise ValueError("need at least 100 replications without a marginal oracle")
        # indicator averages over the retained window, per cover set: the
        # driver's path first, then the replicas
        n, s = driver.points.shape
        U = np.concatenate([driver.points[None], rng.split_uniforms(m, n * s).reshape(m, n, s)])
        fractions = cover.fractions_below(run_chains(system, U, burn_in=burn_in))
        ind, acc = fractions[0], fractions[1:]
        vol = acc.mean(axis=0)
        stderr = float(np.max(acc.std(axis=0, ddof=1) / math.sqrt(m)))

    lower = float(np.max(np.abs(ind - vol)))
    upper = min(lower + cover.delta + stderr, 1.0)
    return DiscrepancyReport(
        lower=lower,
        upper=upper,
        method="pullback-mc",
        delta_used=cover.delta,
        mc_stderr=stderr,
    )


# ---------------------------------------------------------------------------
# H1 functions and the Koksma-Hlawka inequality
# ---------------------------------------------------------------------------


class H1Function:
    """f(x) = f0 + sum_j w_j 1_{(-inf, z_j)}(x): a constant plus finitely
    many open-box indicators; ||f||_H1 = |f0| + sum_j |w_j|."""

    def __init__(self, f0: float, atoms: Sequence[tuple[Sequence[float], float]]):
        self.f0 = float(f0)
        if atoms:
            self.corners = np.array([np.asarray(z, float) for z, _ in atoms])
        else:
            self.corners = np.empty((0, 1))
        self.weights = np.array([w for _, w in atoms], float)

    @property
    def norm(self) -> float:
        return abs(self.f0) + float(np.sum(np.abs(self.weights)))

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, float))
        if len(self.weights) == 0:
            return np.full(pts.shape[0], self.f0)
        inside = np.all(pts[None, :, :] < self.corners[:, None, :], axis=2)
        return self.f0 + self.weights @ inside

    def expectation(self, measure: TargetMeasure) -> tuple[float, float]:
        """E_pi f = f0 + sum_j w_j pi(box_j), with the error bound
        sum_j |w_j| times the largest box-mass error."""
        if len(self.weights) == 0:
            return self.f0, 0.0
        masses, err = measure.box_masses(self.corners)
        return self.f0 + float(self.weights @ masses), float(np.sum(np.abs(self.weights))) * err


def kh_error_bound(
    f: H1Function, points, measure: TargetMeasure
) -> tuple[float, float]:
    """Exact integration error of f against the sample mean, and the
    Koksma-Hlawka bound ``||f||_H1 * D*_upper``.

    Raises if the exact error exceeds the bound beyond quadrature slack.
    """
    pts = _as_points(points, measure.dim)
    expect, quad_err = f.expectation(measure)
    sample = float(np.mean(f(pts)))
    exact_error = abs(expect - sample)
    report = star_discrepancy_exact(pts, measure)
    bound = f.norm * report.upper
    if exact_error > bound + quad_err + 1e-12:
        raise AssertionError(
            f"Koksma-Hlawka violation: error {exact_error} > bound {bound}"
        )
    return exact_error, bound
