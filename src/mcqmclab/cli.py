"""Batch experiment front end.

Subcommands:

* ``mcqmc run <config.json>``   -- run one experiment, write CSV + manifest
* ``mcqmc bounds --d --n ...``  -- print the closed-form bound values
* ``mcqmc validate <config.json>`` -- check a config without running it

Exit codes: 0 success, 2 config error (nothing written) or an output that
cannot be written, 3 infeasible objective (e.g. exact discrepancy scan
above dimension 3, a delta-cover that fails its slab audit, a target
without a box-mass rule, such as a ball above dimension 3, or an array
larger than memory or numpy's shape limits allow).

Every numeric written to the CSV is a pure function of (config, seed);
floats are serialized with 17 significant digits so they round-trip exactly.
The one exception to byte-identical reruns is the rate-study runtime_ms
column: the milliseconds from the study's start until that row's result
(the study builds and replays its candidates once, for every n).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ballwalk import _target_for, make_metropolis_system
from .bounds import (
    ballwalk_gap_bound,
    beck_bound,
    corollary_main_bound,
    hoeffding_tail,
    main_discrepancy_bound,
)
from .chain import make_direct_kernel, make_lazy_direct_kernel, run_chains
from .core import Rng, uniform_driver
from .discrepancy import (
    CoverConstructionError,
    ExactScanInfeasible,
    build_quantile_cover,
    pullback_discrepancy_mc,
    quantile_cover_size,
    star_discrepancy_exact,
)
from .search import (
    CANDIDATE_KINDS,
    OBJECTIVES,
    SearchConfig,
    best_of_k,
    invert_to_target,
    rate_study,
)

EXPERIMENTS = ("discrepancy", "pullback", "search", "rate-study", "bounds", "invert")
_KERNELS = ("metropolis-ballwalk", "direct", "lazy-direct")
_DENSITIES = ("uniform", "exp-linear")

# Per experiment, every accepted key besides "experiment" and "output":
# key -> (type, admissible values, default).  Numbers must lie in the
# interval, strings among the choices; [t] is a non-empty list of t.
# Rng seeds are 64-bit: a closed end 2^64 - 1 would read as the float 2^64
_SEED = (int, "[0, 18446744073709551616)", 0)
# dimensions and bounds sample sizes are at most 2^53, the largest integer a
# float holds exactly, so that the bounds' float arithmetic on them is finite
_DIMENSION = (int, "[1, 9007199254740992]", 1)
_DENSITY = (dict, None, {"name": "uniform", "alpha": 0.0})
# density.alpha and bounds --alpha: e^alpha (the density's range and the
# bound on ||dnu/dpi||) must stay a finite float
_ALPHA = "[0, 700]"
# bounds: the corollary needs n >= 16 and lambda0 < 1, and ||dnu/dpi||_2 >= 1
# by Cauchy-Schwarz
_BOUNDS_N, _LAMBDA0, _NU_NORM = "[16, 9007199254740992]", "[0, 1)", "[1, inf)"
_CHAIN = {
    "seed": _SEED,
    "dimension": _DIMENSION,
    "density": _DENSITY,
    "kernel": (str, _KERNELS, "metropolis-ballwalk"),
    "gamma": (float, "(0, inf)", "gamma-star"),
    "a": (float, "(0, 1]", None),
    "n0": (int, "[0, inf)", 0),
}
_N = {"n": (int, "[1, inf)", 64)}
# the Monte Carlo pull-back needs at least 100 replications
_COVER = {"delta": (float, "(0, 1]", 0.01), "mc-replications": (int, "[100, inf)", 200)}
_SEARCH = {
    **_COVER,
    "k": (int, "[1, inf)", 16),
    "objective": (str, OBJECTIVES, "star-exact"),
    "candidate-kinds": ([str], CANDIDATE_KINDS, ["uniform-random"]),
}
_SCHEMA = {
    "discrepancy": {**_CHAIN, **_N},
    "pullback": {**_CHAIN, **_N, **_COVER},
    "search": {**_CHAIN, **_N, **_SEARCH},
    "rate-study": {**_CHAIN, **_SEARCH, "ns": ([int], "[1, inf)", [64, 256, 1024])},
    "bounds": {
        "seed": _SEED,
        "dimension": _DIMENSION,
        "n": (int, _BOUNDS_N, 16),
        "lambda0": (float, _LAMBDA0, 0.0),
        "nu-norm": (float, _NU_NORM, 1.0),
    },
    "invert": {"seed": _SEED, "density": _DENSITY, "gamma": (float, "[2, inf)", 2.0), **_N},
}


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} line {exc.lineno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _in_interval(x, interval: str) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo < x if interval[0] == "(" else lo <= x
    below = x < hi if interval[-1] == ")" else x <= hi
    return above and below


def _check(key: str, value, kind, allowed):
    """The value of ``key`` as the schema's type, or ConfigError."""
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"key {key!r} must be a non-empty list, got {value!r}")
        return [_check(key, v, kind[0], allowed) for v in value]
    if kind is str:
        if value not in allowed:
            raise ConfigError(f"key {key!r} must be one of {allowed}, got {value!r}")
        return value
    number = isinstance(value, int if kind is int else (int, float))
    if isinstance(value, bool) or not number or not _in_interval(value, allowed):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r} must be {noun} in {allowed}, got {value!r}")
    return kind(value)


def _check_density(density) -> dict:
    if not isinstance(density, dict):
        raise ConfigError("key 'density' must be an object {name, alpha}")
    bad = sorted(set(density) - {"name", "alpha"})
    if bad:
        raise ConfigError(f"unknown density keys: {bad}")
    if density.get("name") not in _DENSITIES:
        raise ConfigError(f"unknown density name {density.get('name')!r}")
    alpha = _check("density.alpha", density.get("alpha", 0.0), float, _ALPHA)
    return {"name": density["name"], "alpha": alpha}


def _validate(cfg: dict) -> dict:
    """The experiment's parameters: every schema key, checked, with its
    default where the config omits it."""
    exp = cfg.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(
            f"key 'experiment' must be one of {EXPERIMENTS}, got {exp!r}"
        )
    schema = _SCHEMA[exp]
    unknown = sorted(set(cfg) - set(schema) - {"experiment", "output"})
    if unknown:
        raise ConfigError(f"unknown keys for experiment {exp!r}: {unknown}")
    if not isinstance(cfg.get("output"), str):
        raise ConfigError("key 'output' is required and must be a path")
    out = Path(cfg["output"])
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(
            f"key 'output' must name a file in an existing directory, got {cfg['output']!r}"
        )
    params = {"experiment": exp, "output": cfg["output"]}
    for key, (kind, allowed, default) in schema.items():
        value = cfg.get(key, default)
        # "gamma-star" stands for a number where it is the default
        if key not in cfg or value == default == "gamma-star":
            params[key] = value
        elif kind is dict:
            params[key] = _check_density(value)
        else:
            params[key] = _check(key, value, kind, allowed)
    if params.get("kernel") == "lazy-direct" and params["a"] is None:
        raise ConfigError("kernel 'lazy-direct' requires key 'a'")
    ns = params.get("ns", [])
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError(f"key 'ns' must be strictly increasing, got {ns!r}")
    return params


def _build_system(p: dict):
    """The config's chain system and the ball walk's gamma, gamma* where
    the config leaves it out."""
    kernel, density, d, gamma = p["kernel"], p["density"], p["dimension"], p["gamma"]
    if gamma == "gamma-star":
        gamma = ballwalk_gap_bound(density["alpha"], d)[0]
    if kernel == "metropolis-ballwalk":
        return make_metropolis_system(density["name"], density["alpha"], gamma, d), gamma
    if d != 1:
        raise ConfigError(f"kernel {kernel!r} is implemented for dimension 1 only")
    target = _target_for(density["name"], density["alpha"], 1)
    if kernel == "direct":
        return make_direct_kernel(target), gamma
    return make_lazy_direct_kernel(target, p["a"]), gamma


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------


def _run_bounds(p: dict):
    d, n, lambda0, nu_norm = p["dimension"], p["n"], p["lambda0"], p["nu-norm"]
    header = ["d", "n", "lambda0", "nu_norm", "corollary_bound", "beck_bound"]
    bound = corollary_main_bound(n=n, d=d, lambda0=lambda0, nu_norm=nu_norm)
    return header, [[d, n, lambda0, nu_norm, bound, beck_bound(n, d)]], {}


def _run_discrepancy(p: dict):
    system, gamma = _build_system(p)
    n, n0, seed = p["n"], p["n0"], p["seed"]
    driver = uniform_driver(n + n0, system.s, Rng(seed))
    report = star_discrepancy_exact(run_chains(system, driver[None], burn_in=n0)[0], system.target)
    header = ["n", "seed", "disc_lower", "disc_upper"]
    return header, [[n, seed, report.lower, report.upper]], {"gamma": gamma}


def _run_pullback(p: dict):
    system, gamma = _build_system(p)
    n, n0, seed, delta = p["n"], p["n0"], p["seed"], p["delta"]
    cover = build_quantile_cover(system.target, delta)
    driver = uniform_driver(n + n0, system.s, Rng(seed))
    report = pullback_discrepancy_mc(
        system, driver, n0, cover, p["mc-replications"], Rng(seed).split(7)
    )
    header = ["n", "seed", "delta", "disc_lower", "disc_upper", "mc_stderr"]
    return header, [[n, seed, delta, report.lower, report.upper, report.mc_stderr]], {"gamma": gamma}


def _search_config(p: dict, n: int) -> SearchConfig:
    return SearchConfig(
        n=n,
        k=p["k"],
        seed=p["seed"],
        n0=p["n0"],
        candidate_kinds=tuple(p["candidate-kinds"]),
        objective=p["objective"],
        mc_replications=p["mc-replications"],
    )


def _theory_note(system) -> dict:
    """Manifest entry giving the reason for an infinite theory bound when
    the system's spectral constant is unknown or leaves no spectral gap."""
    if system.lambda0 is None:
        return {"theory_bound": "not computed: lambda0 is unknown for gamma != gamma*"}
    if system.lambda0 >= 1.0:
        return {"theory_bound": f"not computed: lambda0 = {system.lambda0!r} leaves no spectral gap"}
    return {}


def _cover(system, p: dict):
    """The quantile cover at the config's delta that the search objective
    scores over; None for the exact scan."""
    if p["objective"] == "star-exact":
        return None
    return build_quantile_cover(system.target, p["delta"])


def _run_search(p: dict):
    system, gamma = _build_system(p)
    sc = _search_config(p, p["n"])
    result = best_of_k(system, sc, cover=_cover(system, p))
    header = ["n", "seed", "disc_lower", "disc_upper", "theory_bound"]
    row = [sc.n, sc.seed, result.best_report.lower, result.best_report.upper, result.theory_bound]
    extra = {"gamma": gamma, "all_scores": list(result.all_scores), **_theory_note(system)}
    return header, [row], extra


def _run_rate_study(p: dict):
    system, gamma = _build_system(p)
    ns = p["ns"]
    rows = rate_study(system, ns, _search_config(p, ns[0]), cover=_cover(system, p))
    header = ["n", "seed", "disc_lower", "disc_upper", "theory_bound", "beck_bound", "runtime_ms"]
    out = [[r[h] for h in header] for r in rows]
    return header, out, {"gamma": gamma, **_theory_note(system)}


def _run_invert(p: dict):
    density, gamma, n = p["density"], p["gamma"], p["n"]
    system = make_metropolis_system(density["name"], density["alpha"], gamma, 1)
    target = system.target
    quantiles = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    targets = [np.array([target.inv_cdf(q)]) for q in quantiles]
    # x1_driver: ball generator on [-1,1] maps (sign, radius) to +-radius
    t0 = float(targets[0][0])
    x1_driver = np.array([0.25 if t0 < 0 else 0.75, abs(t0), 0.0])
    driver = invert_to_target(system, targets, x1_driver)
    states = run_chains(system, driver[None])[0]
    report = star_discrepancy_exact(states, target)
    dev = float(np.max(np.abs(states - np.stack(targets))))
    header = ["n", "disc_lower", "disc_upper", "max_deviation"]
    return header, [[n, report.lower, report.upper, dev]], {"gamma": gamma}


_RUNNERS = {
    "bounds": _run_bounds,
    "discrepancy": _run_discrepancy,
    "pullback": _run_pullback,
    "search": _run_search,
    "rate-study": _run_rate_study,
    "invert": _run_invert,
}


def _cmd_run(path: str) -> int:
    try:
        cfg = _load_config(path)
        params = _validate(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        header, rows, extra = _RUNNERS[params["experiment"]](params)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ExactScanInfeasible, CoverConstructionError, NotImplementedError, MemoryError, ValueError) as exc:
        # any ValueError but numpy's refusal of an oversized shape is a fault
        refusals = ("array is too big", "Maximum allowed dimension exceeded")
        if isinstance(exc, ValueError) and not str(exc).startswith(refusals):
            raise
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0
    out = Path(params["output"])
    manifest = {
        "config": cfg,
        "version": __version__,
        "seed": params["seed"],
        "wall_time_s": wall,
        **extra,
    }
    csv_written = False
    try:
        _write_csv(out, header, rows)
        csv_written = True
        out.with_suffix(out.suffix + ".manifest.json").write_text(
            json.dumps(manifest, indent=2, default=str) + "\n"
        )
    except OSError as exc:
        if csv_written:
            # a CSV without its manifest must not pass for a finished run
            out.unlink()
        print(f"config error: cannot write output {str(out)!r}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(path: str) -> int:
    try:
        _validate(_load_config(path))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print("ok")
    return 0


def _cmd_bounds(args) -> int:
    flags = [("--d", args.d, _DIMENSION[1]), ("--n", args.n, _BOUNDS_N), ("--alpha", args.alpha, _ALPHA)]
    flags += [("--lambda0", args.lambda0, _LAMBDA0), ("--norm", args.norm, _NU_NORM)]
    for flag, value, allowed in flags:
        if not _in_interval(value, allowed):
            print(f"config error: {flag} must be a number in {allowed}, got {value!r}", file=sys.stderr)
            return 2
    n, lambda0, nu_norm = args.n, args.lambda0, args.norm
    print(f"corollary_bound {_fmt(corollary_main_bound(n=n, d=args.d, lambda0=lambda0, nu_norm=nu_norm))}")
    print(f"beck_bound {_fmt(beck_bound(n, args.d))}")
    print(f"hoeffding_tail(c=0.1) {_fmt(hoeffding_tail(n=n, lambda0=lambda0, nu_norm=nu_norm, c=0.1))}")
    if args.alpha > 0:
        gamma_star, gap = ballwalk_gap_bound(args.alpha, args.d)
        print(f"gamma_star {_fmt(gamma_star)}")
        print(f"spectral_gap {_fmt(gap)}")
        # over the quantile cover; inf where 1 - gap rounds to 1 or |Gamma| overflows a float
        lam, norm, size = 1.0 - gap, math.exp(args.alpha), quantile_cover_size(args.d, 0.01)
        bound = math.inf
        if lam < 1.0:
            bound = main_discrepancy_bound(n=n, lambda0=lam, nu_norm=norm, cover_size=size, delta=0.01)
        print(f"main_bound(delta=0.01) {_fmt(bound)}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="mcqmc", description="Markov chain quasi-Monte Carlo experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")

    p_val = sub.add_parser("validate", help="validate a JSON config")
    p_val.add_argument("config")

    p_bounds = sub.add_parser("bounds", help="print closed-form bound values")
    p_bounds.add_argument("--d", type=int, default=1)
    p_bounds.add_argument("--n", type=int, default=16)
    p_bounds.add_argument("--alpha", type=float, default=0.0)
    p_bounds.add_argument("--lambda0", type=float, default=0.0)
    p_bounds.add_argument("--norm", type=float, default=1.0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args.config)
    if args.command == "validate":
        return _cmd_validate(args.config)
    return _cmd_bounds(args)


if __name__ == "__main__":
    sys.exit(main())
