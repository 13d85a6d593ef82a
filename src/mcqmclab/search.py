"""Driver-sequence search and construction.

Two routes to a low-discrepancy driver:

* best-of-k: score k candidate sequences (seeded random and/or Halton-based)
  and keep the one with the smallest discrepancy upper bound.  This is the
  constructive face of the existence results: a random driver achieves the
  Monte Carlo rate with positive probability, so sampling a handful and
  keeping the best realizes it.
* inversion: when the update function is anywhere-to-anywhere invertible,
  pull a prescribed low-discrepancy target path back through the update to
  obtain a driver that reproduces it exactly.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundInputs, beck_bound, corollary_main_bound
from .chain import ChainSystem, run_chain, run_chains
from .core import DriverSequence, Rng, halton_sequence, uniform_driver
from .discrepancy import (
    DeltaCover,
    DiscrepancyReport,
    pullback_discrepancy_mc,
    star_discrepancy_bracket,
    star_discrepancy_exact,
)

__all__ = [
    "SearchConfig",
    "SearchResult",
    "best_of_k",
    "invert_to_target",
    "rate_study",
    "fit_loglog_slope",
]

CANDIDATE_KINDS = ("uniform-random", "halton", "shifted-halton")
OBJECTIVES = ("star-exact", "star-bracket", "pullback-mc")


@dataclass(frozen=True)
class SearchConfig:
    """Parameters for best-of-k driver search."""

    n: int
    k: int
    seed: int
    n0: int = 0
    candidate_kinds: tuple = ("uniform-random",)
    objective: str = "star-exact"  # star-exact | star-bracket | pullback-mc
    delta: float = 0.01
    mc_replications: int = 200

    def __post_init__(self):
        if self.k < 1 or self.n < 1 or self.n0 < 0:
            raise ValueError("need k >= 1, n >= 1, n0 >= 0")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if not self.candidate_kinds:
            raise ValueError("need at least one candidate kind")
        for kind in self.candidate_kinds:
            if kind not in CANDIDATE_KINDS:
                raise ValueError(f"unknown candidate kind {kind!r}")
        if self.delta <= 0 or self.mc_replications < 1:
            raise ValueError("objective parameters must be positive")


@dataclass(frozen=True)
class SearchResult:
    best_driver: DriverSequence
    best_report: DiscrepancyReport
    all_scores: tuple  # ((provenance, upper), ...) in candidate order
    theory_bound: float


def _make_candidate(config: SearchConfig, j: int, s: int) -> DriverSequence:
    kind = config.candidate_kinds[j % len(config.candidate_kinds)]
    total = config.n + config.n0
    if kind == "uniform-random":
        return uniform_driver(total, s, Rng(config.seed).split(j))
    if kind == "halton":
        return halton_sequence(total, s)
    # shifted-halton: a seeded Cranley-Patterson rotation, Halton plus one
    # uniform shift modulo 1 (the digits are not scrambled)
    base = halton_sequence(total, s).points
    shift = Rng(config.seed).split(1000 + j).uniforms(s)
    pts = np.mod(base + shift, 1.0)
    # keep strictly inside [0,1] after the wrap
    pts = np.clip(pts, 0.0, np.nextafter(1.0, 0.0))
    return DriverSequence(pts, provenance=f"shifted-halton(seed={config.seed},j={j})")


def _scores(
    system: ChainSystem,
    drivers: list[DriverSequence],
    config: SearchConfig,
    cover: Optional[DeltaCover],
) -> list[DiscrepancyReport]:
    """One report per candidate; star objectives replay all candidates as
    one batch and score each retained path on its own."""
    if config.objective == "pullback-mc":
        return [
            pullback_discrepancy_mc(
                system, driver, config.n0, cover, config.mc_replications,
                Rng(config.seed).split(50_000 + j),
            )
            for j, driver in enumerate(drivers)
        ]
    paths = run_chains(system, np.stack([driver.points for driver in drivers]), burn_in=config.n0)
    if config.objective == "star-exact":
        return [star_discrepancy_exact(x, system.target) for x in paths]
    return [star_discrepancy_bracket(x, system.target, cover) for x in paths]


def best_of_k(
    system: ChainSystem, config: SearchConfig, cover: Optional[DeltaCover] = None
) -> SearchResult:
    """Evaluate k candidate drivers, return the one with the smallest upper
    discrepancy bound (stable argmin: ties go to the lower index).  The
    theory bound is inf for n < 16 and when the system's lambda0 is unknown.

    ``cover`` is required for the star-bracket and pullback-mc objectives.
    """
    if config.objective in ("star-bracket", "pullback-mc") and cover is None:
        raise ValueError(f"objective {config.objective!r} requires a cover")
    drivers = [_make_candidate(config, j, system.s) for j in range(config.k)]
    reports = _scores(system, drivers, config, cover)
    uppers = np.array([r.upper for r in reports])
    best = int(np.argmin(uppers))
    theory = math.inf
    if config.n >= 16 and system.lambda0 is not None:
        theory = corollary_main_bound(
            BoundInputs(
                n=config.n,
                d=system.dim,
                lambda0=system.lambda0,
                nu_norm=system.nu_density_norm,
            )
        )
    return SearchResult(
        best_driver=drivers[best],
        best_report=reports[best],
        all_scores=tuple((d.provenance, float(r.upper)) for d, r in zip(drivers, reports)),
        theory_bound=theory,
    )


def invert_to_target(
    system: ChainSystem, targets: Sequence[np.ndarray], x1_driver: np.ndarray
) -> DriverSequence:
    """Driver sequence whose chain path reproduces ``targets`` exactly.

    ``x1_driver`` must generate targets[0] through the system generator; the
    remaining driver points come from the update inverse.  The constructed
    driver is replayed through run_chain and checked against the targets to
    1e-9 sup-norm before being returned.
    """
    if system.update.inverse is None:
        raise ValueError("system update exposes no inverse")
    targets = [np.atleast_1d(np.asarray(t, float)) for t in targets]
    x1_driver = np.atleast_1d(np.asarray(x1_driver, float))
    x1 = system.generator.map(x1_driver[None])[0]
    if np.max(np.abs(x1 - targets[0])) > 1e-9:
        raise ValueError("x1_driver does not generate targets[0]")
    points = np.empty((len(targets), system.s))
    points[0] = x1_driver
    for i in range(1, len(targets)):
        try:
            points[i] = system.update.inverse(targets[i - 1], targets[i])
        except (ValueError, NotImplementedError) as exc:
            raise ValueError(f"inversion failed between targets {i - 1} and {i}: {exc}")
    driver = DriverSequence(points, provenance="inverted-to-target")
    dev = float(np.max(np.abs(run_chain(system, driver) - np.stack(targets))))
    if dev > 1e-9:
        raise AssertionError(f"reproduced path deviates from targets by {dev}")
    return driver


def fit_loglog_slope(ns: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of log(values) against log(ns)."""
    x = np.log(np.asarray(ns, float))
    y = np.log(np.asarray(values, float))
    return float(np.polyfit(x, y, 1)[0])


def rate_study(
    system: ChainSystem,
    ns: Sequence[int],
    config: SearchConfig,
    cover: Optional[DeltaCover] = None,
) -> list[dict]:
    """One best-of-k search per n, all scored over the same ``cover``
    (required for the cover objectives); rows carry the achieved bracket,
    the main theory bound and the Beck existence bound for comparison."""
    ns = list(ns)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be strictly increasing")
    rows = []
    for n in ns:
        t0 = time.perf_counter()
        result = best_of_k(system, dataclasses.replace(config, n=n), cover=cover)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            {
                "n": n,
                "seed": config.seed,
                "disc_lower": result.best_report.lower,
                "disc_upper": result.best_report.upper,
                "theory_bound": result.theory_bound,
                "beck_bound": beck_bound(n, system.dim),
                "runtime_ms": elapsed_ms,
            }
        )
    return rows
