"""The critical-grid scan with one box-mass call per corner: the scalar form
of ``star_discrepancy_exact`` for every d <= 3, and the cover counts as one
comparison of every point with every cover corner, with the cover bracket
and pull-back built on them.
They are kept as the references the exact scan and the binned cover counts
must match, and are not used by the package.  ``pullback_one_block`` is the
one-driver pull-back as it was before the searches shared one replica set:
the driver's row and its m replicas counted in one call.  With an exact
marginal both pull-backs take, unless given a volume, the mean of the
per-step marginals (``per_step_volume``), which the averaged marginal
matches within ``VOLUME_ROUNDING`` (``assert_reports_close``).
"""

import itertools
import math

import numpy as np

from mcqmclab.chain import run_chains
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
    return measure.box_mass


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


# largest gap between an averaged exact marginal and the mean of its
# per-step values, per corner; the largest measured over 300 random lazy and
# direct kernels (up to 5000 steps, deltas 0.01-0.1) was 5.6e-16
VOLUME_ROUNDING = 1e-15


def per_step_volume(system, steps, corners) -> tuple[np.ndarray, float]:
    """The exact-marginal volume as the pull-back took it before the oracle
    averaged over the steps: one one-step oracle call per step, each nu P^i's
    masses and error, and the mean of the (corners, steps) array of masses
    and of the errors."""
    calls = [system.exact_marginal([i], corners) for i in steps]
    masses = np.stack([m for m, _ in calls], axis=1)
    return np.mean(masses, axis=1), float(np.mean([e for _, e in calls]))


def assert_reports_close(got: DiscrepancyReport, want: DiscrepancyReport) -> None:
    """The same report but for the volume's rounding: the lower end within
    ``VOLUME_ROUNDING``, the upper end also within the two roundings of
    adding delta and the slack to it."""
    assert (got.method, got.delta_used, got.mc_stderr) == (want.method, want.delta_used, want.mc_stderr)
    assert abs(got.lower - want.lower) <= VOLUME_ROUNDING
    assert abs(got.upper - want.upper) <= VOLUME_ROUNDING + 2.0**-51


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


def broadcast_pullback(system, driver, burn_in, cover, m, rng, volume=None) -> DiscrepancyReport:
    """``pullback_discrepancy_mc`` with the broadcast counts, one call per
    path; with an exact marginal, ``volume`` (masses, error) or else
    ``per_step_volume``."""
    n = len(driver) - burn_in
    corners = cover.corners
    if system.exact_marginal is not None:
        ind = broadcast_fractions_below(run_chains(system, driver[None], burn_in)[0], corners)
        vol, slack = volume or per_step_volume(system, range(burn_in, burn_in + n), corners)
        stderr = 0.0
    else:
        replicas = [
            rng.split(r).uniforms(driver.size).reshape(driver.shape)
            for r in range(m)
        ]
        paths = run_chains(system, np.stack([driver] + replicas), burn_in=burn_in)
        ind = broadcast_fractions_below(paths[0], corners)
        acc = np.array([broadcast_fractions_below(p, corners) for p in paths[1:]])
        vol = acc.mean(axis=0)
        stderr = slack = float(np.max(acc.std(axis=0, ddof=1) / math.sqrt(m)))
    lower = float(np.max(np.abs(ind - vol)))
    return DiscrepancyReport(
        lower=lower,
        upper=min(lower + cover.delta + slack, 1.0),
        method="pullback-mc",
        delta_used=cover.delta,
        mc_stderr=stderr,
    )


def pullback_one_block(system, driver, burn_in, cover, m, rng, volume=None) -> DiscrepancyReport:
    """``pullback_discrepancy_mc`` scored on its own: one block of the
    driver's row and, without a marginal oracle, the m replicas of ``rng``,
    all counted in one ``fractions_below`` call; with one, the volume as in
    ``broadcast_pullback``."""
    exact = system.exact_marginal is not None
    if not exact and m < 100:
        raise ValueError("need at least 100 replications without a marginal oracle")
    U = np.asarray(driver, float)[None]
    if not exact:
        U = np.empty((m + 1,) + U.shape[1:])
        U[0] = driver
        rng.split_uniforms(np.arange(m), U[0].size, out=U.reshape(m + 1, U[0].size)[1:])
    fractions = cover.fractions_below(run_chains(system, U, burn_in=burn_in))
    ind, acc = fractions[0], fractions[1:]
    if exact:
        vol, slack = volume or per_step_volume(system, range(burn_in, U.shape[1]), cover.corners)
        stderr = 0.0
    else:
        vol = acc.mean(axis=0)
        stderr = slack = float(np.max(acc.std(axis=0, ddof=1) / math.sqrt(m)))
    lower = float(np.max(np.abs(ind - vol)))
    return DiscrepancyReport(
        lower=lower,
        upper=min(lower + cover.delta + slack, 1.0),
        method="pullback-mc",
        delta_used=cover.delta,
        mc_stderr=stderr,
    )
