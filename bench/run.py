"""End-to-end benchmark of ``mcqmc run`` experiments.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` and the run exits with code 2 when there is none.  One run:

1. writes the workload's experiment configs, made from ``--seed``, to a
   scratch directory under ``bench/out/``;
2. runs whole passes through the experiments, each one in-process through
   ``mcqmclab.cli.main(["run", config])``, until the next pass would end
   more than ``--seconds`` after the first began (at least one pass).  With
   ``--trace 1`` untraced and traced passes (see ``spans.py``) alternate;
3. with ``--trace 0``, times fresh-process imports of ``mcqmclab.cli``
   before the first pass and after each pass (``setup_s`` is their
   median);
   every experiment and every import is timed between two samples of a
   fixed calibration kernel, an untraced experiment with kernel runs inside
   it too, and its time is reported at the host speed at which that kernel
   takes ``UNIT_REF_S`` (see ``HostSpeed``);
4. checks every output against the reference computations in
   ``refcalc.py``, and checks that every pass wrote the same CSV bytes;
5. prints the metrics as the last line of standard output, one JSON object
   with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  A failure is a non-zero exit of an experiment, an exception or a
failed check; every failure counts in ``failed``, and ``correct`` is false
unless the only failures are the checks of experiments with a known fault
(see ``workloads.py``).  The environment (versions, CPU count, git SHA)
and every pass time go to ``bench/out/result-<workload>-seed<N>-trace<T>.json``;
traced runs also write their spans to ``bench/out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# the names of workloads.WORKLOADS, which imports numpy (the thread pins
# below must be set before that import)
WORKLOAD_NAMES = ("chain-replay", "scan-disc", "cover-pullback")
SETUP_REPEATS = 9
# the calibration kernel's time at the reference host speed: reported
# times are in seconds at that speed (see HostSpeed)
UNIT_REF_S = 0.005
# after a timed call the kernel runs for about this share of the call's
# time, and at least SAMPLE_RUNS times; inside it, once every TICK_S s
CAL_SHARE = 0.07
SAMPLE_RUNS = 10
TICK_S = 0.1
# numpy/scipy pools pinned to one thread; the search thread pool off
SINGLE_THREAD = {
    v: "1"
    for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
IMPORT_PROBE = (
    "import json, time\n"
    "t = time.perf_counter()\n"
    "import mcqmclab.cli as cli\n"
    "print(json.dumps([time.perf_counter() - t, cli.__file__]))\n"
)


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


class HostSpeed:
    """A fixed calibration kernel that measures the host's speed of the
    moment: a scalar ball-walk replay (``refcalc``), a numpy sort and
    cumulative sum, and 20 scipy quadratures with a Python integrand, the
    mix of interpreted, array and compiled work that the experiments do.
    It uses neither the program nor anything the program could change.

    The shared host's speed drifts by tens of percent over seconds to
    minutes, and switches within a second between levels 1.7x apart, with
    CPU time inflating as much as wall time, so a wall time alone says as
    much about the host as about the program.  ``scaled`` runs the kernel
    before and after a timed call and, with ``ticks``, once every
    ``TICK_S`` seconds inside it, from a ``SIGALRM`` handler that runs
    between the call's bytecodes.  The call's time less the kernel runs
    inside it, divided by the mean kernel time and multiplied by
    ``UNIT_REF_S``, is its time at the reference speed."""

    def __init__(self):
        import numpy as np

        import refcalc as rc

        self._u = rc.driver(1, 200, rc.ballwalk_driver_dim(2))
        self._x = np.random.default_rng(0).random(20_000)
        self.samples = []  # (start, mean seconds of one kernel run, runs, inside a call)
        self._ticks = None  # kernel times inside the call being timed
        signal.signal(signal.SIGALRM, self._tick)
        self.last = self.sample()  # warm-up

    def _unit(self) -> float:
        """One run of the kernel; returns its seconds."""
        import numpy as np
        from scipy import integrate

        import refcalc as rc

        t = time.perf_counter()
        rc.ballwalk_replay(self._u, 0.5, 1.0, 2)
        rc.ballwalk_replay(self._u, 0.5, 1.0, 2)
        np.cumsum(np.sort(self._x))
        for k in range(20):
            integrate.quad(lambda x: math.sqrt(max(0.0, 1.0 - x * x)) * math.exp(0.3 * x), -0.9, 0.2 + 0.1 * k)
        return time.perf_counter() - t

    def _tick(self, signum, frame) -> None:
        ticks = self._ticks
        if ticks is not None:
            self._ticks = None  # no nested tick should the kernel outlast TICK_S
            ticks.append(self._unit())
            self._ticks = ticks

    def sample(self, after: float = 0.0) -> float:
        """Mean time of one kernel run, over enough runs to take about
        ``CAL_SHARE`` x ``after`` seconds (at least ``SAMPLE_RUNS``)."""
        runs = max(SAMPLE_RUNS, round(CAL_SHARE * after / UNIT_REF_S))
        t = time.perf_counter()
        seconds = statistics.fmean(self._unit() for _ in range(runs))
        self.samples.append((t, seconds, runs, False))
        return seconds

    def scaled(self, fn, *args, ticks: bool = False):
        """``fn(*args)`` timed between the kernel sample before it (the last
        one) and a fresh one after it, with kernel ticks inside it when
        ``ticks``; returns (result, seconds, seconds at the reference
        speed), seconds without the ticks."""
        before = self.last
        if ticks:
            self._ticks = []
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            inside, self._ticks = self._ticks or [], None
            seconds = time.perf_counter() - t - sum(inside)
        if inside:
            self.samples.append((t, statistics.fmean(inside), len(inside), True))
        self.last = self.sample(seconds)
        speed = statistics.fmean([before, *inside, self.last])
        return result, seconds, seconds * UNIT_REF_S / speed


class SetupTimer:
    """Fresh-process imports of mcqmclab.cli, one before the first pass and
    one after each pass, so that they sample the whole run rather than one
    moment of a drifting host; ``setup_s`` is the median of their times at
    the reference speed."""

    def __init__(self, env: dict, host: HostSpeed):
        self.env, self.host = env, host
        self.times: list = []  # (wall seconds, seconds at the reference speed)
        self.probe()  # warm-up, not counted: bytecode and file cache

    def take(self) -> None:
        if len(self.times) < SETUP_REPEATS:
            self.host.last = self.host.sample()
            self.times.append(self.host.scaled(self.probe)[1:])

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.take()
        return statistics.median(t for _, t in self.times)

    def probe(self) -> float:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise SystemExit(f"importing mcqmclab.cli failed:\n{proc.stderr}")
        seconds, path = json.loads(proc.stdout.splitlines()[-1])
        if not _inside_src(path):
            raise SystemExit(f"mcqmclab was imported from {path}, not from {SRC}")
        return seconds


def pass_seconds(passes: list) -> float:
    """One pass's time at the reference speed: the sum over experiments of
    each one's median time at that speed over ``passes``."""
    return sum(statistics.median(col) for col in zip(*(p["scaled"] for p in passes)))


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, scratch: Path, host: HostSpeed):
        import workloads
        from mcqmclab import cli

        self.cli, self.host = cli, host
        self.experiments = workloads.WORKLOADS[workload](seed)
        self.configs, self.outputs = [], []
        for i, exp in enumerate(self.experiments):
            out = scratch / f"{i}-{exp.label}.csv"
            path = scratch / f"{i}-{exp.label}.json"
            path.write_text(json.dumps(dict(exp.config, output=str(out)), indent=1))
            self.configs.append(str(path))
            self.outputs.append(out)
        self.passes = []  # per pass: seconds, per-experiment seconds, CSV matches, ...
        self.reference = None  # (CSV texts, manifests) of the first pass
        self.errors, self.check_ok = [], []
        self.known = []  # check failures of experiments with a known fault

    def _call(self, config: str):
        try:
            return self.cli.main(["run", config])
        except Exception:  # an experiment that raises counts as failed
            traceback.print_exc()
            return None

    def one_pass(self, tracer=None) -> None:
        for out in self.outputs:
            for f in (out, out.with_suffix(out.suffix + ".manifest.json")):
                f.unlink(missing_ok=True)
        codes, times, scaled = [], [], []
        if tracer is not None:
            lo, counters = tracer.mark(), tracer.counters.copy()
        t0 = time.perf_counter()
        for config in self.configs:
            if tracer is None:
                code, wall, ref = self.host.scaled(self._call, config, ticks=True)
            else:  # no kernel ticks, so that no span holds kernel time
                code, wall, ref = self.host.scaled(tracer.span, "bench.experiment", self._call, config)
            codes.append(code)
            times.append(wall)
            scaled.append(ref)
        seconds = time.perf_counter() - t0
        layers = None
        if tracer is not None:
            layers = tracer.metrics(lo, tracer.mark(), tracer.counters - counters)
        csv, manifests, size = [], [], 0
        for code, out in zip(codes, self.outputs):
            manifest = out.with_suffix(out.suffix + ".manifest.json")
            if code == 0 and out.is_file() and manifest.is_file():
                csv.append(out.read_text())
                manifests.append(json.loads(manifest.read_text()))
                size += out.stat().st_size + manifest.stat().st_size
            else:
                csv.append(None)
                manifests.append(None)
        if self.reference is None:
            self.reference = (csv, manifests)
        same = [c is not None and c == r for c, r in zip(csv, self.reference[0])]
        self.passes.append(dict(
            seconds=seconds, experiments=times, scaled=scaled, traced=tracer is not None, ok=same, bytes=size, layers=layers
        ))

    def run_for(self, budget: float, between=None, tracer=None) -> None:
        """Rounds of one untraced pass, then ``between()``, then with a tracer
        one traced pass, until the next round would end more than ``budget``
        s after the first began.  Alternating spreads both kinds over the
        same stretch of a drifting host, so their difference is the tracing
        overhead."""
        start, rounds = time.perf_counter(), []
        while True:
            t = time.perf_counter()
            self.one_pass()
            if between is not None:
                between()
            if tracer is not None:
                tracer.install()
                try:
                    self.one_pass(tracer)
                finally:
                    tracer.uninstall()
            now = time.perf_counter()
            rounds.append(now - t)
            if now - start + statistics.median(rounds) > budget:
                return

    def check(self) -> dict:
        """Check the first pass's outputs against the reference computations;
        returns the work per pass that the checks counted."""
        csv, manifests = self.reference
        totals = dict(steps=0, masses=0, walk_steps=0, walk_moves=0, walk_boundary=0, width=[])
        for exp, text, manifest in zip(self.experiments, csv, manifests):
            name = f"{exp.label} seed {exp.config['seed']}"
            if text is None:
                self.errors.append(f"{name}: exited non-zero, raised or wrote no output")
                self.check_ok.append(False)
                continue
            header, values = text.strip().splitlines()
            row = {h: float(v) for h, v in zip(header.split(","), values.split(","))}
            try:
                outcome = exp.check(exp.config, row, manifest)
            except Exception as exc:  # a check that cannot run fails
                traceback.print_exc()
                self.errors.append(f"{name}: check raised {exc!r}")
                self.check_ok.append(False)
                continue
            found = [f"{name}: {e}" for e in outcome.errors]
            if exp.known_fault:
                self.known += [f"{f} (known fault: {exp.known_fault})" for f in found]
            else:
                self.errors += found
            self.check_ok.append(not outcome.errors)
            totals["width"].append(row["disc_upper"] - row["disc_lower"])
            for key in ("steps", "masses", "walk_steps", "walk_moves", "walk_boundary"):
                totals[key] += getattr(outcome, key)
        return totals

    def tally(self) -> tuple[int, int, bool]:
        """Experiments attempted and failed over all passes, and whether
        every output was right apart from the checks of known faults."""
        attempted = failed = 0
        mismatch = False
        for p in self.passes:
            for ok_same, ok_check in zip(p["ok"], self.check_ok):
                attempted += 1
                failed += not (ok_same and ok_check)
            mismatch |= any(
                not same and ref is not None for same, ref in zip(p["ok"], self.reference[0])
            )
        return attempted, failed, not (self.errors or mismatch)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mcqmclab" / "cli.py").is_file():
        print(f"error: no mcqmclab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    os.environ.pop("MCQMC_THREADS", None)
    # one vCPU for the run, its import probes included: the host's vCPUs
    # run at different speeds, and a move from one to the other between a
    # calibration kernel and the call it scales would count as the call's
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    host = HostSpeed()
    setup = None if args.trace else SetupTimer(dict(os.environ, PYTHONPATH=str(SRC)), host)
    if setup is not None:
        setup.take()

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import mcqmclab

    if not _inside_src(mcqmclab.__file__):
        print(f"error: mcqmclab imported from {mcqmclab.__file__}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        runner = Runner(args.workload, args.seed, scratch, host)
        if args.trace:
            import spans

            tracer = spans.Tracer()
            runner.run_for(args.seconds, tracer=tracer)
        else:
            runner.run_for(args.seconds, between=setup.take)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup_s = setup.median()
        totals = runner.check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed, correct = runner.tally()
    batch_s = pass_seconds([p for p in runner.passes if not p["traced"]])
    if args.trace:
        traced = [p for p in runner.passes if p["traced"]]
        best = min(traced, key=lambda p: p["seconds"])
        metrics = dict(best["layers"])
        walk = max(totals["walk_steps"], 1)
        metrics.update({
            "ballwalk.acceptance_rate": totals["walk_moves"] / walk,
            "ballwalk.boundary_rejection_rate": totals["walk_boundary"] / walk,
            "discrepancy.bracket_width": statistics.fmean(totals["width"]) if totals["width"] else 0.0,
            "cli.bytes_written": best["bytes"],
            "trace.batch_s": pass_seconds(traced),
        })
        metrics["trace.overhead_s"] = metrics["trace.batch_s"] - batch_s
        metrics["trace.overhead_pct"] = metrics["trace.overhead_s"] / batch_s * 100.0
        report = {k: {"value": metrics[k], "unit": u} for k, (u, _) in spans.PER_LAYER.items()}
        tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        report = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "batch_s": {"value": batch_s, "unit": "s"},
            "chain_steps_per_s": {"value": totals["steps"] / batch_s, "unit": "steps/s"},
            "box_masses_per_s": {"value": totals["masses"] / batch_s, "unit": "masses/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
        "git_sha": git_sha(),
        "threads": SINGLE_THREAD,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "setup_runs_s": setup.times if setup else [],
        "kernel_runs_s": host.samples, "passes": runner.passes, "work_per_pass": totals,
        "configs": [e.config for e in runner.experiments], "errors": runner.errors,
        "known_faults": runner.known,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n"
    )
    for e in runner.errors + runner.known:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
