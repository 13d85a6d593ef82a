"""Driver-sequence search and construction.

Two routes to a low-discrepancy driver:

* best-of-k: score k candidate sequences (seeded random and/or Halton-based)
  and keep the one with the smallest discrepancy upper bound.  This is the
  constructive face of the existence results: a random driver achieves the
  Monte Carlo rate with positive probability, so sampling a handful and
  keeping the best realizes it.  A rate study is one search at several n:
  the candidates are built and replayed once, at the largest n, and every
  n is scored on their prefixes.  A Monte Carlo pull-back search replays
  one replica set with them, shared by all candidates: they carry one
  stderr, so the ranking is by the lower bound.
* inversion: when the update function is anywhere-to-anywhere invertible,
  pull a prescribed low-discrepancy target path back through the update to
  obtain a driver that reproduces it exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .bounds import beck_bound, corollary_main_bound
from .chain import ChainSystem, run_chains
from .core import Rng, halton_sequence
from .discrepancy import DeltaCover, DiscrepancyReport, _cover_brackets, _exact_scans
from .discrepancy import _pullback_block, _pullbacks

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
    mc_replications: int = 200

    def __post_init__(self):
        if self.k < 1 or self.n < 1 or self.n0 < 0 or self.mc_replications < 1:
            raise ValueError("need k >= 1, n >= 1, n0 >= 0 and mc_replications >= 1")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if not self.candidate_kinds or not set(self.candidate_kinds) <= set(CANDIDATE_KINDS):
            raise ValueError(f"need known candidate kinds, got {self.candidate_kinds!r}")


@dataclass(frozen=True)
class SearchResult:
    best_driver: np.ndarray  # shape (n0 + n, s)
    best_report: DiscrepancyReport
    all_scores: tuple  # ((label, upper), ...) in candidate order
    theory_bound: float


def _candidates(config: SearchConfig, rows: int, s: int) -> tuple[list, list]:
    """The labels of the k candidates and their drivers of shape (rows, s),
    candidate j of kind ``candidate_kinds[j % len(candidate_kinds)]``.  The
    uniform-random drivers are the child streams j of ``Rng(seed)``, all
    drawn in one counter block; the halton kinds share one Halton sequence.
    Every driver's first r rows are its driver at rows = r.  The indices of
    the uniform-random candidates and their block are numpy arrays built
    before any per-candidate Python work, so a k beyond memory is refused
    by numpy's allocation at once."""
    kinds = config.candidate_kinds
    j = np.arange(config.k)
    uniform = j[np.array([kind == "uniform-random" for kind in kinds])[j % len(kinds)]]
    rng = Rng(config.seed)
    block = iter(rng.split_uniforms(uniform, rows * s).reshape(len(uniform), rows, s))
    halton = halton_sequence(rows, s) if len(uniform) < config.k else None
    labels, drivers = [], []
    for j in range(config.k):
        kind = kinds[j % len(kinds)]
        if kind == "uniform-random":
            labels.append(f"uniform-random(seed={rng.split(j).seed:#x})")
            drivers.append(next(block))
        elif kind == "halton":
            labels.append("halton")
            drivers.append(halton)
        else:
            # shifted-halton: a seeded Cranley-Patterson rotation, Halton
            # plus one uniform shift modulo 1 (the digits are not scrambled)
            shift = rng.split(1000 + j).uniforms(s)
            labels.append(f"shifted-halton(seed={config.seed},j={j})")
            drivers.append(np.mod(halton + shift, 1.0))
    return labels, drivers


def _search(
    system: ChainSystem, config: SearchConfig, ns: list, cover: Optional[DeltaCover]
) -> Iterator[SearchResult]:
    """The best-of-k search at each n of the strictly increasing ``ns``, one
    result per n (``config.n`` is not read).  The candidates are built at
    n0 + max(ns), and each label's driver (every ``"halton"`` candidate is
    one sequence) is replayed once, all in one block; without a marginal
    oracle the pull-back's m replicas of ``Rng(seed).split(50_000)`` follow
    them in it, one set shared by every candidate, so all candidates carry
    one stderr and rank by ``lower``.  Each n scores the paths' first n
    states as one block (one exact scan, cover count or pull-back)."""
    if config.objective in ("star-bracket", "pullback-mc") and cover is None:
        raise ValueError(f"objective {config.objective!r} requires a cover")
    if any(b <= a for a, b in zip([0] + ns, ns)):
        raise ValueError(f"ns must be strictly increasing sizes >= 1, got {ns!r}")
    if not ns:
        return
    n0, m = config.n0, config.mc_replications
    labels, drivers = _candidates(config, n0 + ns[-1], system.s)
    # row[label] is the label's row of the replayed block
    row = {label: r for r, label in enumerate(dict.fromkeys(labels))}
    U = [drivers[labels.index(label)] for label in row]
    if config.objective == "pullback-mc":
        U = _pullback_block(system, U, m, Rng(config.seed).split(50_000))
    # a block stacked here lives only as long as its replay
    paths = run_chains(system, np.asarray(U), n0)
    score = {
        "star-exact": lambda block: _exact_scans(block, system.target),
        "star-bracket": lambda block: _cover_brackets(block, cover),
        "pullback-mc": lambda block: _pullbacks(system, block, n0, cover, m),
    }[config.objective]
    for n in ns:
        scored = score(paths[:, :n])
        reports = [scored[row[label]] for label in labels]
        best = int(np.argmin([r.upper for r in reports]))
        theory = math.inf
        if n >= 16 and system.lambda0 is not None and system.lambda0 < 1.0:
            lam, norm = system.lambda0, system.nu_density_norm
            theory = corollary_main_bound(n=n, d=system.dim, lambda0=lam, nu_norm=norm)
        yield SearchResult(
            best_driver=drivers[best][: n0 + n],
            best_report=reports[best],
            all_scores=tuple((label, float(r.upper)) for label, r in zip(labels, reports)),
            theory_bound=theory,
        )


def best_of_k(
    system: ChainSystem, config: SearchConfig, cover: Optional[DeltaCover] = None
) -> SearchResult:
    """Evaluate k candidate drivers of n0 + n points, return the one with
    the smallest upper discrepancy bound (stable argmin: ties go to the
    lower index).  The theory bound is inf for n < 16, when the system's
    lambda0 is unknown and when it is 1 or more (no spectral gap).  This is
    the one-n rate study: :func:`_search` at ``ns = [config.n]``.

    ``cover`` is required for the star-bracket and pullback-mc objectives.
    Under pullback-mc the candidates share one replica set, so they share
    one stderr and rank by their lower bounds.
    """
    return next(_search(system, config, [config.n], cover))


def invert_to_target(
    system: ChainSystem, targets: Sequence[np.ndarray], x1_driver: np.ndarray
) -> np.ndarray:
    """Driver sequence (shape (len(targets), s)) whose chain path reproduces
    ``targets`` exactly.

    ``x1_driver`` must generate targets[0] through the system generator; the
    remaining driver points come from the update inverse.  The constructed
    driver is replayed through run_chains and checked against the targets to
    1e-9 sup-norm before being returned.
    """
    if system.inverse is None:
        raise ValueError("system update exposes no inverse")
    targets = [np.atleast_1d(np.asarray(t, float)) for t in targets]
    x1_driver = np.atleast_1d(np.asarray(x1_driver, float))
    x1 = system.generate(x1_driver[None])[0]
    if np.max(np.abs(x1 - targets[0])) > 1e-9:
        raise ValueError("x1_driver does not generate targets[0]")
    points = np.empty((len(targets), system.s))
    points[0] = x1_driver
    for i in range(1, len(targets)):
        try:
            points[i] = system.inverse(targets[i - 1], targets[i])
        except (ValueError, NotImplementedError) as exc:
            raise ValueError(f"inversion failed between targets {i - 1} and {i}: {exc}")
    dev = float(np.max(np.abs(run_chains(system, points[None])[0] - np.stack(targets))))
    if dev > 1e-9:
        raise AssertionError(f"reproduced path deviates from targets by {dev}")
    return points


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
    """The best-of-k search at each n of ``ns`` (``config.n`` is not read),
    every n scored over the same ``cover`` (required for the cover
    objectives) and on prefixes of one build and one replay at the largest
    n, so each row is bit for bit the one-n :func:`best_of_k`.  Rows carry
    the achieved bracket, the main theory bound, the Beck existence bound
    and ``runtime_ms``, the milliseconds from the study's start until that
    row's result."""
    ns, t0 = list(ns), time.perf_counter()
    return [
        {
            "n": n,
            "seed": config.seed,
            "disc_lower": result.best_report.lower,
            "disc_upper": result.best_report.upper,
            "theory_bound": result.theory_bound,
            "beck_bound": beck_bound(n, system.dim),
            "runtime_ms": (time.perf_counter() - t0) * 1000.0,
        }
        for n, result in zip(ns, _search(system, config, ns, cover))
    ]
