"""Star discrepancy over anchored boxes, delta-covers, pull-back discrepancy
and the weighted (H1) Koksma-Hlawka machinery.

Boxes are strictly open, so the supremum over corners is approached from
above at data coordinates; the exact scan evaluates both the
"point counted" and "point not counted" branch at every critical coordinate
instead of nudging by an epsilon.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import ChainSystem, run_chains
from .core import Rng, TargetMeasure

__all__ = [
    "DiscrepancyReport",
    "DeltaCover",
    "H1Function",
    "ExactScanInfeasible",
    "CoverConstructionError",
    "star_discrepancy_exact",
    "star_discrepancy_bracket",
    "build_quantile_cover",
    "quantile_cover_size",
    "pullback_discrepancy_mc",
    "kh_error_bound",
]


# bound on the corners whose masses the exact scan asks for at once, and on
# the set-member counts the cover scorer holds at once for its scored sets
# and the Monte Carlo pull-back for its replicas
_SCAN_CHUNK_CELLS = 1 << 16
# bound on the members of a quantile cover, ceil(d / delta)^d + 1
# (quantile_cover_size); a count holds one float per member
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
    if pts.ndim != 2 or pts.shape[1] != d or pts.shape[0] == 0 or np.isnan(pts).any():
        raise ValueError(f"points must have shape (n, {d}) with n >= 1 and no NaN")
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


def _grid_scan(points: np.ndarray, measure: TargetMeasure) -> tuple[float, float]:
    """Largest deviation and largest mass error over the critical grid of
    one point set (n, d), d = 2 or 3, from its count grid.

    Each corner has 2^d count combinations, one per axis strict or closed,
    and counts are cumulative on every axis, so each lies between the
    all-strict count a and the all-closed count b.  fl(c / n) - m is
    monotone in c, so the largest |c / n - m| over them is at a or b: the
    largest deviation is max(max(b / n - m), -min(a / n - m)), the
    argument of :func:`_sorted_scans`, bit for bit."""
    n, d = points.shape
    # per axis the distinct coordinates, then +inf, and every point's bin:
    # its rank among them, plus one
    values = [np.unique(points[:, j]) for j in range(d)]
    ranks = [np.searchsorted(v, points[:, j]) for j, v in enumerate(values)]
    values = [np.append(v, np.inf) for v in values]
    # the count grid of the one set with its axes reversed, so that a chunk
    # of the last axis is a contiguous block of it
    counts = _count_grid([r[None] + 1 for r in ranks[::-1]], [v.size + 1 for v in values[::-1]])[0]
    price = measure.grid_pricer(values)
    step = max(1, _SCAN_CHUNK_CELLS // math.prod(a.size for a in values[:-1]))
    best = max_err = 0.0
    for start in range(0, values[-1].size, step):
        masses, errs = price([slice(None)] * (d - 1) + [slice(start, start + step)])
        max_err = np.maximum(max_err, 0.0 if errs is None else errs.max())
        # in the count grid's axis order
        masses = masses.T
        # the chunk's values of the last axis and one more, for the closed
        # branch of its last value
        chunk = counts[start : start + len(masses) + 1]
        strict, closed = chunk[(slice(-1),) * d], chunk[(slice(1, None),) * d]
        best = np.maximum(best, np.maximum((closed / n - masses).max(), -(strict / n - masses).min()))
    return float(best), float(max_err)


def _sorted_scans(x: np.ndarray, measure: TargetMeasure) -> tuple[list, list]:
    """Largest deviation and largest mass error of each row of x (sets, n),
    the d = 1 point sets of :func:`_exact_scans`, from one sort of them all.

    Position i of a sorted row has i points before it and i + 1 up to it.
    A tie run is one critical corner; its first position is its strict
    count a and its end its closed count b.  fl(i / n) - F is monotone in
    i, so the largest |i / n - F| over the run is at a or b, the deviations
    of the count grid bit for bit; the corner +inf adds deviation 0.  Each
    run's mass is taken once, at its first value, by one grid pricer, a
    chunk of :data:`_SCAN_CHUNK_CELLS` runs at a time.
    """
    n = x.shape[1]
    xs = np.sort(x, axis=1).ravel()
    first = np.empty(xs.shape, bool)
    np.not_equal(xs[1:], xs[:-1], out=first[1:])
    first[::n] = True
    starts = np.flatnonzero(first)
    values = xs[starts]
    price = measure.grid_pricer([values])
    masses, errs = np.empty_like(values), np.empty_like(values)
    for start in range(0, values.size, _SCAN_CHUNK_CELLS):
        chunk = slice(start, start + _SCAN_CHUNK_CELLS)
        masses[chunk], chunk_errs = price([chunk])
        errs[chunk] = 0.0 if chunk_errs is None else chunk_errs
    strict = starts % n
    closed = strict + np.diff(starts, append=xs.size)
    dev = np.maximum(np.abs(strict / n - masses), np.abs(closed / n - masses))
    rows = np.flatnonzero(strict == 0)
    return np.maximum.reduceat(dev, rows).tolist(), np.maximum.reduceat(errs, rows).tolist()


def _exact_scans(paths: np.ndarray, measure: TargetMeasure) -> list[DiscrepancyReport]:
    """:func:`star_discrepancy_exact` of each of the stacked, NaN-free point
    sets ``paths`` (sets, n, d), bit for bit.  In d = 1 all sets go through
    one sort (:func:`_sorted_scans`); in d = 2 and 3 the count grid grows
    as n^d, so the sets go one at a time (:func:`_grid_scan`)."""
    d = measure.dim
    if d > 3:
        raise ExactScanInfeasible(
            "exact scan is limited to d <= 3; use the cover bracket (objective star-bracket)"
        )
    if d == 1:
        scans = zip(*_sorted_scans(paths[..., 0], measure))
    else:
        scans = [_grid_scan(p, measure) for p in paths]
    return [
        DiscrepancyReport(lower=max(b - e, 0.0), upper=min(b + e, 1.0), method="exact-scan")
        for b, e in scans
    ]


def star_discrepancy_exact(points, measure: TargetMeasure) -> DiscrepancyReport:
    """Exact star discrepancy over open anchored boxes, d <= 3.

    The supremum is attained on the critical grid: per coordinate the
    distinct point coordinates and +inf, each evaluated with the point
    excluded (strict box at the coordinate) and included (limit from
    above).  Both branches share the corner, whose mass is taken once (the
    boundary has measure 0).  In d = 1 the counts are positions in the
    sorted points (:func:`_sorted_scans`).  In d = 2 and 3 a point's bin on
    axis j is its rank among the distinct coordinates plus one, so entry t
    of :func:`_count_grid` on that axis counts the points of rank < t: the
    strict count at grid index t, and the closed count at index t - 1.  The
    masses come from one :meth:`TargetMeasure.grid_pricer`, a chunk of the
    last axis at a time with the others whole, so that the d = 3 profile
    rule's cumulative axis x1 is never split (a d = 2 mass depends on its
    own corner alone) and the result does not depend on the chunk size.  Each
    corner is compared with its all-strict and all-closed counts only
    (:func:`_grid_scan`), which bound the other 2^d - 2.  The bracket is
    the largest deviation plus and minus the largest box-mass error.  This
    is the one-set call of :func:`_exact_scans`.
    """
    return _exact_scans(_as_points(points, measure.dim)[None], measure)[0]


# ---------------------------------------------------------------------------
# Delta-covers
# ---------------------------------------------------------------------------


@dataclass
class DeltaCover:
    """Finite bracketing family for anchored boxes, given by per-coordinate
    cuts.  Its members are the product grid of the cuts and +inf on every
    coordinate, in C order, then the empty box (all -inf); :attr:`corners`
    lists them.  :meth:`bracket` maps the corner c of any anchored box A =
    (-inf, c) to the corners of boxes C and D with C ⊆ A ⊆ D, each a member
    or empty, and pi(D \\ C) <= delta (+ quadrature error).
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
        members' counts are :func:`_count_grid` without that last bin.  In
        d = 1 each set is sorted first: counts do not depend on the order
        of the points, and sorted keys search faster.
        """
        pts = np.asarray(points, float)
        d = len(self.cuts)
        if pts.ndim < 2 or pts.shape[-1] != d or pts.shape[-2] < 1:
            raise ValueError(f"points must have shape (..., n, {d}) with n >= 1")
        *batch, n, _ = pts.shape
        sets = math.prod(batch)
        flat = pts.reshape(sets, n, d)
        if d == 1:
            flat = np.sort(flat, axis=1)
        bins = [
            np.where(x < np.inf, np.searchsorted(cj, x, side="right"), len(cj) + 1)
            for cj, x in zip(self.cuts, np.moveaxis(flat, -1, 0))
        ]
        counts = _count_grid(bins, [len(cj) + 2 for cj in self.cuts])
        counts = counts[(slice(None),) + (slice(-1),) * d].reshape(sets, -1)
        fractions = np.hstack([counts, np.zeros((sets, 1), counts.dtype)]) / n
        return fractions.reshape(*batch, self.size)

    def bracket(self, corners) -> tuple[np.ndarray, np.ndarray]:
        """Inner and outer corners of every row c of ``corners`` (shape (m,
        d)), both of shape (m, d).  On axis j the inner corner takes the
        largest cut at or below c_j and the outer one the smallest cut above
        it, with -inf below the first cut and +inf above the last: one
        search per axis.  A +inf entry brackets to +inf on both sides, a NaN
        entry to NaN (mass NaN), and an inner row with a -inf entry is the
        empty box (mass 0)."""
        c = np.asarray(corners, float)
        if c.ndim != 2 or c.shape[1] != len(self.cuts):
            raise ValueError(f"corners must have shape (m, {len(self.cuts)})")
        inner, outer = np.empty_like(c), np.empty_like(c)
        for j, cj in enumerate(self.cuts):
            ends = np.concatenate([[-np.inf], cj, [np.inf]])
            k = np.searchsorted(ends, c[:, j], side="right")
            inner[:, j] = ends[k - 1]
            outer[:, j] = ends[np.minimum(k, ends.size - 1)]
        inner[np.isnan(c)] = outer[np.isnan(c)] = np.nan
        return inner, outer

    @functools.cached_property
    def _masses(self) -> tuple[np.ndarray, float]:
        grid, err = self.measure.grid_masses([np.append(cj, np.inf) for cj in self.cuts])
        return np.append(grid.ravel(), 0.0), err

    def masses(self) -> tuple[np.ndarray, float]:
        """Masses of every member, plus the max quadrature error, computed
        on the first call: the grid masses of the product grid, then 0 for
        the empty box."""
        return self._masses


def _quantile_slabs(d: int, delta: float) -> float:
    """Slabs per coordinate of the quantile cover, ceil(d / delta), or inf
    where d / delta is (the smallest subnormal delta)."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    return math.ceil(d / delta) if d / delta < math.inf else math.inf


def quantile_cover_size(d: int, delta: float) -> float:
    """Members of :func:`build_quantile_cover` in dimension d, m^d + 1,
    whether or not the member cap lets the cover be built; an int, or inf
    where the count overflows a float."""
    m = _quantile_slabs(d, delta)
    return m**d + 1 if d * math.log2(m) < 1024 else math.inf


def build_quantile_cover(measure: TargetMeasure, delta: float) -> DeltaCover:
    """Delta-cover from per-coordinate marginal quantile cuts.

    Coordinate j gets m = ceil(d/delta) slabs of marginal mass <= delta/d;
    bracketing each corner coordinate to adjacent cuts then gives
    pi(D \\ C) <= delta.  The levels of all d coordinates are bisected
    together.  A cover of more than :data:`COVER_MEMBER_CAP` members,
    m^d + 1 (:func:`quantile_cover_size`), is refused before anything is
    computed.
    """
    d = measure.dim
    m = _quantile_slabs(d, delta)
    if quantile_cover_size(d, delta) > COVER_MEMBER_CAP:
        raise CoverConstructionError(
            f"delta {delta!r} needs ceil({d}/delta)^{d} + 1 cover members, "
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


# ---------------------------------------------------------------------------
# Cover-bracket discrepancy
# ---------------------------------------------------------------------------


def star_discrepancy_bracket(
    points, measure: TargetMeasure, cover: DeltaCover
) -> DiscrepancyReport:
    """Bracket of the star discrepancy: the max over cover members is a
    lower bound, and adding delta gives an upper bound."""
    return _cover_brackets(_as_points(points, measure.dim)[None], cover)[0]


def _cover_scores(
    paths: np.ndarray, cover: DeltaCover, volume: np.ndarray, slack: float, method: str, stderr=0.0
) -> list[DiscrepancyReport]:
    """The one cover scorer: for each set of stacked point sets ``paths``
    (sets, n, d), lower max |fractions - volume| over the members and upper
    lower + delta + slack, from one count of as many sets at a time as keep
    their member counts within :data:`_SCAN_CHUNK_CELLS`."""
    step = max(1, _SCAN_CHUNK_CELLS // cover.size)
    lowers = []
    for i in range(0, len(paths), step):
        lowers += np.max(np.abs(cover.fractions_below(paths[i : i + step]) - volume), axis=-1).tolist()
    return [
        DiscrepancyReport(lo, min(lo + cover.delta + slack, 1.0), method, cover.delta, stderr)
        for lo in lowers
    ]


def _cover_brackets(paths: np.ndarray, cover: DeltaCover) -> list[DiscrepancyReport]:
    """:func:`star_discrepancy_bracket` of each set of ``paths`` (sets, n,
    d): the volume is the members' masses, the slack their error."""
    return _cover_scores(paths, cover, *cover.masses(), "cover-bracket")


# ---------------------------------------------------------------------------
# Pull-back discrepancy
# ---------------------------------------------------------------------------


def _pullback_block(system: ChainSystem, drivers: Sequence[np.ndarray], m: int, rng: Rng) -> np.ndarray:
    """The b driver rows ``drivers``, each (rows, s), then, without a marginal
    oracle, m replica rows drawn straight into the block, replica r the
    first uniforms of ``rng.split(r)`` (its prefixes are its shorter replicas)."""
    if system.exact_marginal is not None:
        return np.asarray(drivers, float)
    if m < 100:
        raise ValueError("need at least 100 replications without a marginal oracle")
    b = len(drivers)
    U = np.empty((b + m,) + np.shape(drivers[0]))
    U[:b] = drivers
    rng.split_uniforms(np.arange(m), U[0].size, out=U.reshape(b + m, -1)[b:])
    return U


def _replica_moments(replicas: np.ndarray, cover: DeltaCover) -> tuple[np.ndarray, float]:
    """Mean member fractions of the replica paths (m, n, d) and the largest
    stderr std / sqrt(m) (ddof 1) over the members.  The counts come a group
    of at most :data:`_SCAN_CHUNK_CELLS` replica-member cells at a time, and
    each sum runs down the rows in order, as ``np.mean`` and ``np.std`` of
    one (m, size) array sum them, bit for bit: once for the mean, then for
    the squared deviations, counting again every group but the first, which
    is kept.  One group is one count, and its moments are that array's."""
    m = len(replicas)
    step = max(1, _SCAN_CHUNK_CELLS // cover.size)
    first = cover.fractions_below(replicas[:step])

    def row_sum(terms) -> np.ndarray:
        # each group's rows added after the running sum, in one reduction
        total = np.add.reduce(next(terms))
        for t in terms:
            total = np.add.reduce(np.concatenate([total[None], t]))
        return total

    def groups():
        yield first
        for i in range(step, m, step):
            yield cover.fractions_below(replicas[i : i + step])

    mean = row_sum(groups()) / m
    squares = row_sum(np.square(acc - mean) for acc in groups())
    return mean, float(np.max(np.sqrt(squares / (m - 1)) / math.sqrt(m)))


def _pullbacks(
    system: ChainSystem, paths: np.ndarray, burn_in: int, cover: DeltaCover, m: int
) -> list[DiscrepancyReport]:
    """Pull-back discrepancy of each driver row of ``paths`` (sets, n, d),
    a :func:`_pullback_block` replayed after ``burn_in`` steps.  The volume
    (1/n) sum_i nu P^i(A) does not depend on the driver, so all rows share
    one: the exact marginal averaged over steps burn_in ... burn_in + n - 1,
    as the oracle returns it, its mass error the slack of the upper end; or
    else the mean of the last m rows, the replicas
    (:func:`_replica_moments`), whose largest stderr is every row's."""
    if system.exact_marginal is not None:
        steps = range(burn_in, burn_in + paths.shape[1])
        volume, err = system.exact_marginal(steps, cover.corners)
        return _cover_scores(paths, cover, volume, err, "pullback-mc")
    volume, stderr = _replica_moments(paths[-m:], cover)
    return _cover_scores(paths[:-m], cover, volume, stderr, "pullback-mc", stderr)


def pullback_discrepancy_mc(
    system: ChainSystem, driver: np.ndarray, burn_in: int, cover: DeltaCover, m: int, rng: Rng
) -> DiscrepancyReport:
    """Pull-back discrepancy of the driver sequence (shape (n, s)) over the
    cover sets.

    For each cover set A the indicator term is evaluated exactly by replaying
    the driver prefix (membership of the prefix in the pulled-back set is
    equivalent to x_{i+1} in A), while the volume term equals the chain
    marginal nu P^i(A): taken from the system's exact-marginal oracle when
    available (mc_stderr = 0), otherwise estimated from m independent random
    chains, replica r driven by ``rng.split(r)``.  This is the one-driver
    call of the block a search replays and scores (:func:`_pullback_block`,
    :func:`_pullbacks`).
    """
    U = _pullback_block(system, np.asarray(driver, float)[None], m, rng)
    return _pullbacks(system, run_chains(system, U, burn_in=burn_in), burn_in, cover, m)[0]


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
