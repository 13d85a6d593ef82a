"""Span tracing of the mcqmclab layers from the benchmark's side.

:meth:`Tracer.install` replaces the public functions of ``core``,
``chain``, ``ballwalk``, ``discrepancy``, ``bounds``, ``search`` and
``cli``, plus the oracle methods of ``Rng`` and ``TargetMeasure`` and the
scipy quadrature entry points ``core`` calls, with wrappers that record one
span per call: name, start, end and parent.  Every module of the package
that holds a reference to a wrapped function gets the wrapper, so names
other modules re-import (``search.run_chain``, ``discrepancy.run_chain``,
``cli.run_chain``, ...) are traced too.  :meth:`Tracer.uninstall` restores
the originals; untraced runs never install anything.

Spans live in flat arrays until the run ends.  A few wrappers also bump
counters that a span cannot carry (chain steps, cache hits, quadrature
warnings, ...).  :meth:`Tracer.metrics` turns the spans and counters of
one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import warnings
from array import array
from collections import Counter

import numpy as np

import refcalc

LAYERS = ("core", "chain", "ballwalk", "discrepancy", "bounds", "search", "cli")
METHODS = {
    "core": {
        "Rng": ("uniforms",),
        "TargetMeasure": ("box_mass", "cdf", "inv_cdf", "marginal_cdf", "marginal_quantile"),
    },
}
QUADRATURE = ("quad", "dblquad")  # scipy.integrate functions core calls

DRIVER = ("core.uniform_driver", "core.halton_sequence", "core.Rng.uniforms")
TARGET_BUILD = tuple(
    f"core.{n}"
    for n in ("uniform_interval", "exp_linear_interval", "uniform_box", "exp_linear_box",
              "uniform_ball", "exp_linear_ball")
)

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "core.driver_s": ("s", "lower"),
    "core.target_build_s": ("s", "lower"),
    "core.box_mass_s": ("s", "lower"),
    "core.box_mass_calls": ("count", "lower"),
    "core.box_mass_cache_hits": ("count", "higher"),
    "core.quad_calls": ("count", "lower"),
    "core.quad_s": ("s", "lower"),
    "core.quad_warnings": ("count", "lower"),
    "core.marginal_quantile_s": ("s", "lower"),
    "core.self_s": ("s", "lower"),
    "chain.run_chain_calls": ("count", "lower"),
    "chain.steps": ("count", "higher"),
    "chain.run_chain_s": ("s", "lower"),
    "chain.us_per_step": ("us", "lower"),
    "chain.self_s": ("s", "lower"),
    "ballwalk.update_calls": ("count", "lower"),
    "ballwalk.acceptance_rate": ("ratio", "higher"),
    "ballwalk.boundary_rejection_rate": ("ratio", "lower"),
    "ballwalk.self_s": ("s", "lower"),
    "discrepancy.exact_scan_s": ("s", "lower"),
    "discrepancy.exact_scan_corners": ("count", "lower"),
    "discrepancy.cover_build_s": ("s", "lower"),
    "discrepancy.cover_size": ("count", "lower"),
    "discrepancy.bracket_s": ("s", "lower"),
    "discrepancy.exact_marginal_calls": ("count", "lower"),
    "discrepancy.pullback_s": ("s", "lower"),
    "discrepancy.bracket_width": ("ratio", "lower"),
    "discrepancy.self_s": ("s", "lower"),
    "search.best_of_k_s": ("s", "lower"),
    "search.candidates": ("count", "higher"),
    "search.self_s": ("s", "lower"),
    "bounds.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.batch_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans": ("count", "lower"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span recorded by the benchmark itself."""
        return self.wrap(fn, name)(*args)

    # -- installation --------------------------------------------------------

    def _hooks(self) -> dict:
        c = self.counters

        def steps(args, kwargs):
            c["chain.steps"] += _arg(args, kwargs, 1, "driver").n

        def cache_hit(args, kwargs):
            measure, box = args[0], _arg(args, kwargs, 1, "box")
            if box.key in getattr(measure, "_cache", ()):
                c["core.box_mass_cache_hits"] += 1

        def corners(args, kwargs):
            pts = np.asarray(_arg(args, kwargs, 0, "points"), float)
            c["discrepancy.exact_scan_corners"] += refcalc.critical_corners(pts)

        def cover_size(cover):
            c["discrepancy.cover_size"] += cover.size

        def marginal_calls(args, kwargs):
            system = _arg(args, kwargs, 0, "system")
            inner = system.exact_marginal
            if inner is None or getattr(inner, "counted", False):
                return

            def counted(i, box):
                c["discrepancy.exact_marginal_calls"] += 1
                return inner(i, box)

            counted.counted = True
            system.exact_marginal = counted

        def candidates(args, kwargs):
            c["search.candidates"] += _arg(args, kwargs, 1, "config").k

        return {
            "chain.run_chain": dict(before=steps),
            "core.TargetMeasure.box_mass": dict(before=cache_hit),
            "discrepancy.star_discrepancy_exact": dict(before=corners),
            "discrepancy.build_quantile_cover": dict(after=cover_size),
            "discrepancy.pullback_discrepancy_mc": dict(before=marginal_calls),
            "search.best_of_k": dict(before=candidates),
        }

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        hooks = self._hooks()
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mcqmclab.{layer}")
            public = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for attr in public:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[fn] = self.wrap(fn, name, **hooks.get(name, {}))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    self._set(cls, meth, self.wrap(vars(cls)[meth], name, **hooks.get(name, {})))
        for modname, mod in list(sys.modules.items()):
            if modname != "mcqmclab" and not modname.startswith("mcqmclab."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        core = importlib.import_module("mcqmclab.core")
        self._set(core, "integrate", _Quadrature(core.integrate, self))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- derivation ----------------------------------------------------------

    def mark(self) -> int:
        return len(self.name)

    def metrics(self, lo: int, hi: int, counters: Counter) -> dict:
        """Per-layer metrics of the spans [lo, hi) (one pass)."""
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        start = np.frombuffer(self.start)[lo:hi]
        end = np.frombuffer(self.end)[lo:hi]
        dur = end - start
        inner = parent >= 0
        self_time = dur - np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)

        def ids(names):
            return [self._ids[n] for n in names if n in self._ids]

        def busy(names) -> float:
            """Wall time inside any span of these names (outermost spans)."""
            mask = np.isin(name, ids(names))
            s, e = start[mask], end[mask]
            if s.size == 0:
                return 0.0
            outer = np.ones(s.size, bool)
            outer[1:] = s[1:] >= np.maximum.accumulate(e)[:-1]
            return float(np.sum(e[outer] - s[outer]))

        def calls(n) -> int:
            return int(np.sum(name == self._ids[n])) if n in self._ids else 0

        def layer_self(prefix) -> float:
            in_layer = np.array([n.startswith(prefix + ".") for n in self.names] + [False])
            return float(np.sum(self_time[in_layer[name]]))

        bounds = [n for n in self.names if n.startswith("bounds.")]
        run_chain_s = busy(["chain.run_chain"])
        steps = counters["chain.steps"]
        return {
            "core.driver_s": busy(DRIVER),
            "core.target_build_s": busy(TARGET_BUILD),
            "core.box_mass_s": busy(["core.TargetMeasure.box_mass"]),
            "core.box_mass_calls": calls("core.TargetMeasure.box_mass"),
            "core.box_mass_cache_hits": counters["core.box_mass_cache_hits"],
            "core.quad_calls": sum(calls(f"core.quad.{q}") for q in QUADRATURE),
            "core.quad_s": busy([f"core.quad.{q}" for q in QUADRATURE]),
            "core.quad_warnings": counters["core.quad_warnings"],
            "core.marginal_quantile_s": busy(["core.TargetMeasure.marginal_quantile"]),
            "core.self_s": layer_self("core"),
            "chain.run_chain_calls": calls("chain.run_chain"),
            "chain.steps": steps,
            "chain.run_chain_s": run_chain_s,
            "chain.us_per_step": run_chain_s / steps * 1e6 if steps else 0.0,
            "chain.self_s": layer_self("chain"),
            "ballwalk.update_calls": calls("ballwalk.metropolis_update"),
            "ballwalk.self_s": layer_self("ballwalk"),
            "discrepancy.exact_scan_s": busy(["discrepancy.star_discrepancy_exact"]),
            "discrepancy.exact_scan_corners": counters["discrepancy.exact_scan_corners"],
            "discrepancy.cover_build_s": busy(["discrepancy.build_quantile_cover"]),
            "discrepancy.cover_size": counters["discrepancy.cover_size"],
            "discrepancy.bracket_s": busy(["discrepancy.star_discrepancy_bracket"]),
            "discrepancy.exact_marginal_calls": counters["discrepancy.exact_marginal_calls"],
            "discrepancy.pullback_s": busy(["discrepancy.pullback_discrepancy_mc"]),
            "discrepancy.self_s": layer_self("discrepancy"),
            "search.best_of_k_s": busy(["search.best_of_k"]),
            "search.candidates": counters["search.candidates"],
            "search.self_s": layer_self("search"),
            "bounds.s": busy(bounds),
            "cli.self_s": layer_self("cli"),
            "trace.spans": hi - lo,
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


class _Quadrature:
    """Stands in for ``scipy.integrate`` inside ``mcqmclab.core``: quad and
    dblquad are traced as ``core.quad.*`` and their IntegrationWarnings
    counted; every other attribute is scipy's."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        for q in QUADRATURE:
            setattr(self, q, tracer.wrap(self._counting(getattr(module, q), tracer.counters), f"core.quad.{q}"))

    def _counting(self, fn, counters):
        warning = self._module.IntegrationWarning

        @functools.wraps(fn)
        def run(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            counters["core.quad_warnings"] += sum(issubclass(w.category, warning) for w in caught)
            return result

        return run

    def __getattr__(self, attr):
        return getattr(self._module, attr)
