"""The benchmark's workloads: fixed lists of ``mcqmc run`` experiments made
from the workload seed (``scan-disc`` excepted, see ``SCAN_DISC_SEEDS``),
and a check of every experiment's output against the reference
computations in :mod:`refcalc`.  An experiment with a ``known_fault`` is
one whose check fails on every pass because of a fault in the program; the
runner counts it as failed without calling the run incorrect.

Each check also counts the work the experiment implies (chain transitions
replayed and anchored-box masses needed), from the configs and the
benchmark's own replays, so the rates do not depend on the program's
self-reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import refcalc as rc

EXP_LINEAR = {"name": "exp-linear", "alpha": 1.0}
UNIFORM = {"name": "uniform", "alpha": 0.0}
BALLWALK = {"kernel": "metropolis-ballwalk", "gamma": "gamma-star"}

# scan-disc chain seeds, the same for every workload seed: the program's
# disc quadrature misstates its error on about 1 path in 60, so a
# seed-drawn scan would fail on some seeds only.  Their 32 retained states
# are 25 (uniform) and 20 (exp-linear) distinct points: 2601 and 1681
# corners per scan.
SCAN_DISC_SEEDS = {"uniform": (11, 13), "exp-linear": (5, 6)}
# one path on which that fault shows, run in every pass so that it is
# counted in ``failed`` until the quadrature is mended: the reported
# bracket excludes the closed-form D* by 4.4e-7 (2601 corners)
SCAN_DISC_FAULT_SEED = 105003
SCAN_DISC_FAULT = "uniform-disc quadrature understates its error; the bracket excludes D*"


@dataclass
class Outcome:
    """What a check found: errors (empty when the output is right), and the
    work the experiment implies."""

    errors: list = field(default_factory=list)
    steps: int = 0
    masses: int = 0
    walk_steps: int = 0  # ball-walk transitions the benchmark replayed
    walk_moves: int = 0
    walk_boundary: int = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def walk(self, u, gamma, alpha, d):
        states, moves, boundary = rc.ballwalk_replay(u, gamma, alpha, d)
        self.walk_steps += len(states) - 1
        self.walk_moves += moves
        self.walk_boundary += boundary
        return states


@dataclass
class Experiment:
    label: str
    config: dict  # the run config, without "output"
    check: Callable  # (config, csv_row: dict, manifest: dict) -> Outcome
    known_fault: str = ""  # why the check fails on every pass, if it does


def _alpha(cfg: dict) -> float:
    return float(cfg["density"]["alpha"])


def _gamma(cfg: dict, manifest: dict, out: Outcome) -> float:
    gamma = rc.ballwalk_gamma_star(_alpha(cfg), cfg["dimension"])
    out.expect(manifest.get("gamma") == gamma, f"gamma {manifest.get('gamma')} != gamma* {gamma}")
    return gamma


def _uppers(cfg: dict, manifest: dict, out: Outcome) -> list:
    uppers = [float(score[1]) for score in manifest.get("all_scores", [])]
    out.expect(len(uppers) == cfg["k"], f"{len(uppers)} scores for k={cfg['k']}")
    return uppers


def _close(out: Outcome, name: str, got: float, want: float, tol: float) -> None:
    out.expect(abs(got - want) <= tol, f"{name} {got!r} differs from reference {want!r}")


# ---------------------------------------------------------------------------
# chain-replay: best-of-k exact search and Monte Carlo pull-back, d = 1
# ---------------------------------------------------------------------------


def search_exact_1d(seed: int) -> Experiment:
    cfg = dict(
        experiment="search", dimension=1, density=EXP_LINEAR, **BALLWALK,
        objective="star-exact", k=32, n=1024, n0=64, seed=seed,
    )
    return Experiment("search-exact-1d", cfg, _check_search_exact_1d)


def _check_search_exact_1d(cfg, row, manifest) -> Outcome:
    out = Outcome()
    k, n, n0, seed, alpha = cfg["k"], cfg["n"], cfg["n0"], cfg["seed"], _alpha(cfg)
    gamma = _gamma(cfg, manifest, out)
    cdf = rc.exp_linear_cdf(alpha)
    uppers = _uppers(cfg, manifest, out)
    disc = []
    for j in range(k):
        u = rc.driver(rc.split_seed(seed, j), n + n0, rc.ballwalk_driver_dim(1))
        retained = out.walk(u, gamma, alpha, 1)[n0:]
        disc.append(rc.ks_statistic(retained, cdf))
        out.masses += rc.critical_corners(retained)
    for j, (got, want) in enumerate(zip(uppers, disc)):
        _close(out, f"candidate {j} score", got, want, 1e-12)
    if uppers:
        best = disc[int(np.argmin(uppers))]
        _close(out, "disc_upper", row["disc_upper"], best, 1e-12)
        _close(out, "disc_lower", row["disc_lower"], best, 1e-12)
    out.steps = k * (n + n0)
    return out


def pullback_mc_1d(seed: int) -> Experiment:
    cfg = dict(
        experiment="pullback", dimension=1, density=EXP_LINEAR, **BALLWALK,
        n=256, n0=64, delta=0.05, seed=seed, **{"mc-replications": 200},
    )
    return Experiment("pullback-mc-1d", cfg, _check_pullback_mc_1d)


def _check_pullback_mc_1d(cfg, row, manifest) -> Outcome:
    out = Outcome()
    n, n0, seed, delta, m = cfg["n"], cfg["n0"], cfg["seed"], cfg["delta"], cfg["mc-replications"]
    alpha, s = _alpha(cfg), rc.ballwalk_driver_dim(1)
    gamma = _gamma(cfg, manifest, out)
    cuts = rc.quantile_cuts(rc.exp_linear_quantile(alpha), delta)
    corners = np.concatenate([cuts, [np.inf, -np.inf]])

    def below(u):
        retained = out.walk(u, gamma, alpha, 1)[n0:, 0]
        return np.mean(retained[None, :] < corners[:, None], axis=1)

    ind = below(rc.driver(seed, n + n0, s))
    rep_seed = rc.split_seed(seed, 7)
    acc = np.array([below(rc.driver(rc.split_seed(rep_seed, r), n + n0, s)) for r in range(m)])
    lower = float(np.max(np.abs(ind - acc.mean(axis=0))))
    stderr = float(np.max(acc.std(axis=0, ddof=1) / math.sqrt(m)))
    _close(out, "disc_lower", row["disc_lower"], lower, 1e-12)
    _close(out, "mc_stderr", row["mc_stderr"], stderr, 1e-12)
    _close(out, "disc_upper", row["disc_upper"], min(lower + delta + stderr, 1.0), 1e-12)
    out.expect(row["mc_stderr"] <= 0.5 / math.sqrt(m), f"mc_stderr {row['mc_stderr']} > 1/(2 sqrt(m))")
    out.steps = (m + 1) * (n + n0)
    out.masses = corners.size * m
    return out


# ---------------------------------------------------------------------------
# scan-disc: exact critical-grid scan on the unit disc, d = 2
# ---------------------------------------------------------------------------


def scan_disc_2d(seed: int, density: dict, known_fault: str = "") -> Experiment:
    cfg = dict(
        experiment="discrepancy", dimension=2, density=density, **BALLWALK,
        n=32, n0=64, seed=seed,
    )
    return Experiment(f"scan-{density['name']}-disc", cfg, _check_scan_disc_2d, known_fault)


def _disc_mass(alpha: float):
    return rc.uniform_disc_mass if alpha == 0.0 else rc.exp_linear_disc_mass(alpha)


def _disc_path(cfg, out: Outcome, gamma: float, seed: int):
    n, n0, alpha = cfg["n"], cfg["n0"], _alpha(cfg)
    u = rc.driver(seed, n + n0, rc.ballwalk_driver_dim(2))
    return out.walk(u, gamma, alpha, 2)[n0:]


def _check_scan_disc_2d(cfg, row, manifest) -> Outcome:
    out = Outcome()
    gamma = _gamma(cfg, manifest, out)
    retained = _disc_path(cfg, out, gamma, cfg["seed"])
    disc = rc.star_discrepancy_grid(retained, _disc_mass(_alpha(cfg)))
    out.expect(
        row["disc_lower"] - 1e-9 <= disc <= row["disc_upper"] + 1e-9,
        f"reference D* {disc!r} outside [{row['disc_lower']!r}, {row['disc_upper']!r}]",
    )
    out.steps = cfg["n"] + cfg["n0"]
    out.masses = rc.critical_corners(retained)
    return out


# ---------------------------------------------------------------------------
# cover-pullback: lazy-kernel pull-back with exact marginal, and a
# cover-bracket search on the uniform disc
# ---------------------------------------------------------------------------


def lazy_pullback_1d(seed: int) -> Experiment:
    cfg = dict(
        experiment="pullback", dimension=1, density=EXP_LINEAR, kernel="lazy-direct",
        a=0.5, delta=0.01, n=1024, seed=seed,
    )
    return Experiment("pullback-lazy-1d", cfg, _check_lazy_pullback_1d)


def _check_lazy_pullback_1d(cfg, row, manifest) -> Outcome:
    out = Outcome()
    n, seed, delta, alpha = cfg["n"], cfg["seed"], cfg["delta"], _alpha(cfg)
    cdf, quantile = rc.exp_linear_cdf(alpha), rc.exp_linear_quantile(alpha)
    states = rc.lazy_direct_replay(rc.driver(seed, n, 2), cfg["a"], quantile)[:, 0]
    corners = np.concatenate([rc.quantile_cuts(quantile, delta), [np.inf, -np.inf]])
    ind = np.mean(states[None, :] < corners[:, None], axis=1)
    # nu = pi, so the volume term is pi(A) at every step
    lower = float(np.max(np.abs(ind - cdf(corners))))
    _close(out, "disc_lower", row["disc_lower"], lower, 1e-12)
    _close(out, "disc_upper", row["disc_upper"], min(lower + delta, 1.0), 1e-12)
    out.expect(row["mc_stderr"] == 0.0, "exact marginal reported a Monte Carlo error")
    star = rc.ks_statistic(states, cdf)
    out.expect(abs(lower - star) <= delta, f"pull-back {lower} farther than delta from D* {star}")
    out.steps = n
    out.masses = corners.size * n
    return out


def bracket_search_2d(seed: int) -> Experiment:
    cfg = dict(
        experiment="search", dimension=2, density=UNIFORM, **BALLWALK,
        objective="star-bracket", delta=0.1, k=16, n=1024, n0=64, seed=seed,
    )
    return Experiment("search-bracket-2d", cfg, _check_bracket_search_2d)


def _check_bracket_search_2d(cfg, row, manifest) -> Outcome:
    out = Outcome()
    k, delta = cfg["k"], cfg["delta"]
    gamma = _gamma(cfg, manifest, out)
    uppers = _uppers(cfg, manifest, out)
    best = int(np.argmin(uppers)) if uppers else 0
    retained = _disc_path(cfg, out, gamma, rc.split_seed(cfg["seed"], best))
    star = rc.star_discrepancy_grid(retained, rc.uniform_disc_mass)
    out.expect(
        row["disc_lower"] <= star <= row["disc_upper"],
        f"exact D* {star!r} outside bracket [{row['disc_lower']!r}, {row['disc_upper']!r}]",
    )
    if uppers:
        _close(out, "disc_upper", row["disc_upper"], uppers[best], 0.0)
    # the program's cover: slab masses and the bracket's lower bound
    from mcqmclab.core import uniform_ball
    from mcqmclab.discrepancy import build_quantile_cover

    cuts = build_quantile_cover(uniform_ball(2), delta).cuts
    for j, cj in enumerate(cuts):
        levels = np.concatenate([[0.0], rc.uniform_disc_marginal_cdf(cj), [1.0]])
        worst = float(np.max(np.diff(levels)))
        out.expect(worst <= delta / 2 + 1e-8, f"axis {j}: cover slab mass {worst} > delta/2")
    c1, c2 = np.meshgrid(np.append(cuts[0], np.inf), np.append(cuts[1], np.inf), indexing="ij")
    corners = np.column_stack([c1.ravel(), c2.ravel()])
    emp = np.mean(np.all(retained[None, :, :] < corners[:, None, :], axis=2), axis=1)
    lower = float(np.max(np.abs(emp - rc.uniform_disc_mass(corners[:, 0], corners[:, 1]))))
    # the program's cover masses are quadratures with absolute tolerance 1e-8,
    # measured up to 4.2e-8 off the closed form
    _close(out, "disc_lower (cover recomputed)", row["disc_lower"], lower, 1e-7)
    out.steps = k * (cfg["n"] + cfg["n0"])
    out.masses = k * (corners.shape[0] + 1)  # + the empty box
    return out


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------


def chain_replay(seed: int) -> list:
    base = 1000 * seed
    return [search_exact_1d(base), pullback_mc_1d(base), search_exact_1d(base + 1), pullback_mc_1d(base + 1)]


def scan_disc(seed: int) -> list:
    """The same list for every workload seed; see SCAN_DISC_SEEDS."""
    return [
        scan_disc_2d(s, density)
        for density in (UNIFORM, EXP_LINEAR)
        for s in SCAN_DISC_SEEDS[density["name"]]
    ] + [scan_disc_2d(SCAN_DISC_FAULT_SEED, UNIFORM, SCAN_DISC_FAULT)]


def cover_pullback(seed: int) -> list:
    base = 1000 * seed
    return [lazy_pullback_1d(base), bracket_search_2d(base)]


WORKLOADS = {
    "chain-replay": chain_replay,
    "scan-disc": scan_disc,
    "cover-pullback": cover_pullback,
}
