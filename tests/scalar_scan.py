"""The critical-grid scan with one box-mass call per corner: the scalar form
of ``star_discrepancy_exact`` for every d <= 3, and the cover counts as one
comparison of every point with every cover corner, with the cover bracket
and pull-back built on them.
They are kept as the references the exact scan and the binned cover counts
must match, and are not used by the package.
"""

import itertools
import math

import numpy as np

from mcqmclab.chain import run_chain, run_chains
from mcqmclab.core import AnchoredBox
from mcqmclab.discrepancy import DiscrepancyReport


def star_discrepancy_scan(points, mass) -> tuple[float, float]:
    """(lower, upper) bracket of the star discrepancy of points of shape
    (n, d), with ``mass(corner) -> (mass, error)`` the box-mass oracle.

    Per coordinate the candidates are every distinct coordinate, with the
    point excluded (strict) and included (closed), and +inf; every
    combination is evaluated.
    """
    pts = np.asarray(points, float)
    n, d = pts.shape
    axes = []
    for j in range(d):
        vals = np.unique(pts[:, j])
        cands = [(v, True) for v in vals] + [(v, False) for v in vals]
        cands.append((np.inf, True))
        axes.append(cands)
    best = 0.0
    max_err = 0.0
    for combo in itertools.product(*axes):
        corner = np.array([c[0] for c in combo])
        strict = np.array([c[1] for c in combo])
        inside = np.ones(n, bool)
        for j in range(d):
            if strict[j]:
                inside &= pts[:, j] < corner[j]
            else:
                inside &= pts[:, j] <= corner[j]
        m, err = mass(corner)
        best = max(best, abs(inside.mean() - m))
        max_err = max(max_err, err)
    return max(best - max_err, 0.0), min(best + max_err, 1.0)


def measure_oracle(measure):
    """The box-mass oracle of a target measure, one corner per call."""
    return lambda corner: measure.box_mass(AnchoredBox(corner))


def product_oracle(alpha: float, lower, upper):
    """The scalar closed-form box mass of the density exp(alpha x_1) on a
    box (uniform for alpha = 0), one corner per call, as the measures
    computed it before their masses were batched."""
    lo = np.asarray(lower, float)
    hi = np.asarray(upper, float)
    z = math.exp(alpha * hi[0]) - math.exp(alpha * lo[0])

    def mass(corner):
        if np.any(corner <= lo):
            return 0.0, 0.0
        if np.all(corner >= hi):
            return 1.0, 0.0
        c = np.minimum(corner, hi)
        if alpha == 0.0:
            return float(np.prod(np.clip((c - lo) / (hi - lo), 0.0, 1.0))), 0.0
        t = np.clip(c[0], lo[0], hi[0])
        m = float((np.exp(alpha * t) - math.exp(alpha * lo[0])) / z)
        for j in range(1, len(lo)):
            m *= min(max((c[j] - lo[j]) / (hi[j] - lo[j]), 0.0), 1.0)
        return m, 0.0

    return mass


def broadcast_fractions_below(points, corners) -> np.ndarray:
    """Fraction of the points (shape (n, d)) strictly inside each open box
    ``(-inf, c)``, c a row of ``corners``: one (size, n, d) comparison."""
    pts = np.asarray(points, float)
    return np.all(pts[None, :, :] < corners[:, None, :], axis=2).mean(axis=1)


def broadcast_bracket(points, cover) -> DiscrepancyReport:
    """``star_discrepancy_bracket`` with the broadcast counts."""
    masses, mass_err = cover.masses()
    emp = broadcast_fractions_below(points, cover.corners)
    lower = float(np.max(np.abs(emp - masses)))
    upper = min(lower + cover.delta + mass_err, 1.0)
    return DiscrepancyReport(lower=lower, upper=upper, method="cover-bracket", delta_used=cover.delta)


def broadcast_pullback(system, driver, burn_in, cover, m, rng) -> DiscrepancyReport:
    """``pullback_discrepancy_mc`` with the broadcast counts, one call per
    path."""
    n = driver.n - burn_in
    corners = cover.corners
    if system.exact_marginal is not None:
        ind = broadcast_fractions_below(run_chain(system, driver, burn_in), corners)
        vol = np.mean(system.exact_marginal(range(burn_in, burn_in + n), corners), axis=1)
        stderr = 0.0
    else:
        replicas = [
            rng.split(r).uniforms(driver.n * system.s).reshape(driver.n, system.s)
            for r in range(m)
        ]
        paths = run_chains(system, np.stack([driver.points] + replicas), burn_in=burn_in)
        ind = broadcast_fractions_below(paths[0], corners)
        acc = np.array([broadcast_fractions_below(p, corners) for p in paths[1:]])
        vol = acc.mean(axis=0)
        stderr = float(np.max(acc.std(axis=0, ddof=1) / math.sqrt(m)))
    lower = float(np.max(np.abs(ind - vol)))
    return DiscrepancyReport(
        lower=lower,
        upper=min(lower + cover.delta + stderr, 1.0),
        method="pullback-mc",
        delta_used=cover.delta,
        mc_stderr=stderr,
    )
