"""References of the box-mass oracle, kept for the tests and not used by the
package.  The uniform disc whose marginals are box masses is the reference
of the disc's closed-form marginal.  The box and grid masses with their
special cases taken from whole-array masks (``box_masses_by_masks``,
``grid_masses_by_masks``) are the reference of the column-by-column masks
of ``TargetMeasure._box_masses``.  The profile rule with every column's
nodes computed for that column, in one chunk
(``profile_integrals_per_column``), is the reference of the nodes shared by
distinct interval, and of the column chunks, in
``TargetMeasure._profile_integrals``.  The quantile cover's cuts one level
at a time in Python floats (``quantile_cuts``) are the reference of the
bisection of all levels at once in ``TargetMeasure.marginal_quantile``.
"""

import math

import numpy as np

from mcqmclab.core import (
    _DISC_HIGH,
    _DISC_LOW,
    _DISC_NODES,
    _DISC_PANEL_EDGES,
    _DISC_PANELS,
    BallDomain,
    TargetMeasure,
    _ball_section,
    _ball_section_kinks,
    _uniform_disc_mass,
)


def disc_by_box_masses():
    """The uniform disc without its closed-form marginal: marginal CDFs are
    the box masses of the corners with +inf in the other coordinate, and
    quantiles are bisected from them."""
    return TargetMeasure(BallDomain(2), lambda x: np.ones(x.shape[0]), exact_box_mass=_uniform_disc_mass)


def quantile_cuts(cdf, delta: float, d: int = 2) -> list:
    """The cuts of ``build_quantile_cover`` on [-1, 1] for the levels i / m,
    m = ceil(d / delta), each bisected alone in Python floats from the
    nondecreasing ``cdf`` of a float: the midpoint 0.5 (lo + hi), the lower
    end kept while cdf(mid) < level, until hi - lo <= 1e-12."""
    m = math.ceil(d / delta)
    cuts = []
    for i in range(1, m):
        level, lo, hi = i / m, -1.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if cdf(mid) < level:
                lo = mid
            else:
                hi = mid
        cuts.append(0.5 * (lo + hi))
    return cuts


def box_masses_by_masks(measure, corners) -> tuple[np.ndarray, np.ndarray]:
    """Masses and per-row errors of the corner rows (m, d): the NaN, empty
    and full rows from masks reduced along the rows, every other row
    clipped to the domain and priced by the closed form or the measure's
    integrals, picked out by index."""
    c = np.asarray(corners, float)
    lo, hi_dom = measure.domain.bounding()
    nan = np.isnan(c).any(axis=1)
    empty = np.any(c <= lo, axis=1)
    full = np.all(c >= hi_dom, axis=1) & ~empty
    masses = np.where(nan, np.nan, full.astype(float))
    errs = np.where(nan, np.nan, 0.0)
    rest = np.flatnonzero(~(empty | full | nan))
    if rest.size == 0:
        return masses, errs
    hi = np.minimum(c[rest], hi_dom)
    if measure.exact_box_mass is not None:
        masses[rest] = measure.exact_box_mass(hi)
    else:
        masses[rest], errs[rest] = measure._normalized(*measure._integrals(hi))
    return masses, errs


def grid_masses_by_masks(measure, axes) -> tuple[np.ndarray, np.ndarray]:
    """:func:`box_masses_by_masks` of the rows of the tensor grid of
    ``axes``, from ``meshgrid``, shaped like the grid."""
    axes = [np.asarray(a, float).ravel() for a in axes]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, measure.dim)
    masses, errs = box_masses_by_masks(measure, grid)
    shape = tuple(a.size for a in axes)
    return masses.reshape(shape), errs.reshape(shape)


def profile_integrals_per_column(measure, top, h) -> tuple[np.ndarray, np.ndarray]:
    """``TargetMeasure._profile_integrals`` of the levels ``top`` (cols,
    levels) of the columns ``h`` (cols, d - 1) with the nodes, cos(theta) and
    the profile computed anew for every interval of every column."""
    cols, levels = top.shape
    kinks = np.arccos(_ball_section_kinks(h))
    panels = np.broadcast_to(_DISC_PANEL_EDGES, (cols, _DISC_PANELS))
    edges = np.concatenate([panels, -kinks, kinks, top], axis=1)
    order = np.argsort(edges, axis=1, kind="stable")
    x = np.take_along_axis(edges, order, axis=1)
    pos = np.empty_like(order)
    np.put_along_axis(pos, order, np.arange(edges.shape[1]), axis=1)
    at = pos[:, edges.shape[1] - levels :]
    need = np.arange(edges.shape[1] - 1) < np.max(at, axis=1, keepdims=True)
    a, b = x[:, :-1][need], x[:, 1:][need]
    half = 0.5 * (b - a)
    theta = (0.5 * (a + b))[:, None] + half[:, None] * _DISC_NODES
    rho = np.cos(theta)
    hs = np.broadcast_to(h[:, None], need.shape + h.shape[1:])[need]
    f = measure.profile(np.sin(theta)) * _ball_section(rho, hs[:, None]) * rho
    k = _DISC_LOW[0].size
    low, high = np.zeros(need.shape), np.zeros(need.shape)
    low[need] = half * np.sum(f[:, :k] * _DISC_LOW[1], axis=-1)
    high[need] = half * np.sum(f[:, k:] * _DISC_HIGH[1], axis=-1)
    zero = np.zeros((cols, 1))
    total = np.concatenate([zero, np.cumsum(high, axis=1)], axis=1)
    gap = np.concatenate([zero, np.cumsum(np.abs(high - low), axis=1)], axis=1)
    return np.take_along_axis(total, at, axis=1), np.take_along_axis(gap, at, axis=1)
