"""Import footprint: the package and the ball and disc experiments load numpy
and the stdlib only; scipy's quadrature is imported on first use, through the
handle ``core.integrate``.  Each check runs in a fresh interpreter, since this
one may have loaded scipy already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcqmclab

LAZY = ("scipy.integrate",)


def _loaded_after(code: str, tmp_path) -> list:
    """The modules of LAZY that are in sys.modules after running code."""
    probe = f"import json, sys\n{code}\nprint(json.dumps([m for m in {LAZY!r} if m in sys.modules]))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(mcqmclab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _run(tmp_path, cfg: dict) -> str:
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**cfg, "output": str(tmp_path / "out.csv")}))
    return f"from mcqmclab.cli import main\nassert main(['run', {str(path)!r}]) == 0"


@pytest.mark.parametrize("module", ["mcqmclab", "mcqmclab.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert _loaded_after(f"import {module}", tmp_path) == []


def test_disc_ballwalk_discrepancy_loads_no_scipy(tmp_path):
    cfg = {
        "experiment": "discrepancy",
        "dimension": 2,
        "density": {"name": "uniform", "alpha": 0.0},
        "n": 16,
        "seed": 1,
    }
    assert _loaded_after(_run(tmp_path, cfg), tmp_path) == []


def test_lazy_direct_pullback_loads_no_scipy(tmp_path):
    cfg = {
        "experiment": "pullback",
        "dimension": 1,
        "density": {"name": "exp-linear", "alpha": 1.0},
        "kernel": "lazy-direct",
        "a": 0.5,
        "n": 32,
        "delta": 0.1,
        "mc-replications": 100,
        "seed": 2,
    }
    assert _loaded_after(_run(tmp_path, cfg), tmp_path) == []


def test_ball3_uniform_pullback_loads_no_scipy(tmp_path):
    # the 3-ball's marginal is numpy's cubic, and its walk numpy's sphere
    cfg = {
        "experiment": "pullback",
        "dimension": 3,
        "density": {"name": "uniform", "alpha": 0.0},
        "n": 64,
        "delta": 0.1,
        "mc-replications": 100,
        "seed": 3,
    }
    code = (
        f"{_run(tmp_path, cfg)}\n"
        "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not scipy, scipy"
    )
    assert _loaded_after(code, tmp_path) == []


def test_handles_resolve_to_scipy(tmp_path):
    code = (
        "import scipy.integrate\n"
        "from mcqmclab import core\n"
        "assert core.integrate.quad is scipy.integrate.quad\n"
        "assert core.integrate.dblquad is scipy.integrate.dblquad\n"
        "assert core.integrate.IntegrationWarning is scipy.integrate.IntegrationWarning"
    )
    assert _loaded_after(code, tmp_path) == list(LAZY)


def test_first_use_loads_scipy(tmp_path):
    # a quadrature measure's normalizer loads scipy.integrate, and nothing else
    code = (
        "from mcqmclab.core import BoxDomain, TargetMeasure\n"
        "TargetMeasure(BoxDomain((0.0,), (1.0,)), lambda x: 1 + x[:, 0] ** 2).normalizer"
    )
    assert _loaded_after(code, tmp_path) == ["scipy.integrate"]


def test_disc_cover_loads_no_scipy(tmp_path):
    # the disc's marginal is numpy's closed form, not scipy's betainc
    code = (
        "import sys\n"
        "from mcqmclab.core import uniform_ball\n"
        "from mcqmclab.discrepancy import build_quantile_cover\n"
        "build_quantile_cover(uniform_ball(2), 0.1)\n"
        "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not scipy, scipy"
    )
    assert _loaded_after(code, tmp_path) == []
