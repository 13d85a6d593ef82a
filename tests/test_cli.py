import json
import math

import numpy as np
import pytest

from mcqmclab.bounds import ballwalk_gap_bound, main_discrepancy_bound
from mcqmclab.cli import _parser, main
from mcqmclab.core import TargetMeasure, uniform_ball
from mcqmclab.discrepancy import build_quantile_cover


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _bounds_cfg(tmp_path, out="bounds.csv"):
    return {
        "experiment": "bounds",
        "dimension": 1,
        "n": 16,
        "lambda0": 0.0,
        "nu-norm": 1.0,
        "output": str(tmp_path / out),
    }


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", _bounds_cfg(tmp_path))
        assert main(["validate", cfg]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_unknown_key(self, tmp_path, capsys):
        bad = _bounds_cfg(tmp_path)
        bad["typo-key"] = 1
        cfg = _write(tmp_path, "c.json", bad)
        assert main(["validate", cfg]) == 2
        assert "typo-key" in capsys.readouterr().err

    def test_unknown_experiment(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {"experiment": "frobnicate", "output": "x"})
        assert main(["validate", cfg]) == 2

    def test_missing_file(self, tmp_path, capsys):
        # a missing config, and one that is not UTF-8
        latin = tmp_path / "latin.json"
        latin.write_bytes(b"\xff\xfe")
        for path in (str(tmp_path / "absent.json"), str(latin)):
            for command in ("validate", "run"):
                assert main([command, path]) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"config error: cannot read config {path!r}: ")
                assert err.count("\n") == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_bad_density_name(self, tmp_path):
        cfg = {
            "experiment": "discrepancy",
            "density": {"name": "cauchy"},
            "output": str(tmp_path / "o.csv"),
        }
        assert main(["validate", _write(tmp_path, "c.json", cfg)]) == 2

    def test_lazy_direct_requires_a(self, tmp_path):
        cfg = {
            "experiment": "discrepancy",
            "kernel": "lazy-direct",
            "output": str(tmp_path / "o.csv"),
        }
        assert main(["validate", _write(tmp_path, "c.json", cfg)]) == 2


class TestBadValues:
    def _search(self, tmp_path, key, value):
        cfg = {
            "experiment": "search",
            "dimension": 1,
            "density": {"name": "uniform", "alpha": 0.0},
            "kernel": "direct",
            "n": 32,
            "k": 2,
            "seed": 1,
            "output": str(tmp_path / "s.csv"),
        }
        cfg[key] = value
        return _write(tmp_path, "c.json", cfg)

    def _assert_rejected(self, tmp_path, capsys, cfg_path, key):
        assert main(["run", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert repr(key) in err
        assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]
        assert main(["validate", cfg_path]) == 2

    def test_non_numeric_n(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, self._search(tmp_path, "n", "abc"), "n")

    def test_zero_k(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, self._search(tmp_path, "k", 0), "k")

    def test_negative_n(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, self._search(tmp_path, "n", -5), "n")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n", 32.5),
            ("n", True),
            ("delta", 0.0),
            ("mc-replications", 50),
            ("gamma", 0),
            ("objective", "nope"),
            ("candidate-kinds", ["sobol"]),
            ("density", {"name": "exp-linear", "alpha": -1.0}),
            # e^800 overflows a float
            ("density", {"name": "exp-linear", "alpha": 800.0}),
            # bounds: the corollary needs n >= 16 and lambda0 < 1, and
            # ||dnu/dpi||_2 >= 1
            pytest.param(("bounds", "n"), 8, id="bounds-n-8"),
            pytest.param(("bounds", "n"), 0, id="bounds-n-0"),
            pytest.param(("bounds", "dimension"), 0, id="bounds-dimension-0"),
            pytest.param(("bounds", "lambda0"), 1.0, id="bounds-lambda0-1.0"),
            pytest.param(("bounds", "nu-norm"), 0.0, id="bounds-nu-norm-0.0"),
            pytest.param(("bounds", "nu-norm"), 1e-10, id="bounds-nu-norm-1e-10"),
            # dimensions and the bounds' n are at most 2^53, the largest
            # integer a float holds exactly
            pytest.param("dimension", 2**53 + 1, id="dimension-2^53+1"),
            pytest.param("dimension", 10**300, id="dimension-10^300"),
            pytest.param("dimension", 2**1000, id="dimension-2^1000"),
            pytest.param("dimension", 10**400, id="dimension-10^400"),
            pytest.param(("bounds", "dimension"), 10**300, id="bounds-dimension-10^300"),
            pytest.param(("bounds", "n"), 2**53 + 1, id="bounds-n-2^53+1"),
            pytest.param(("bounds", "n"), 10**400, id="bounds-n-10^400"),
            # Rng seeds are 64-bit: 2^64 used to run as seed 0
            pytest.param("seed", 2**64, id="seed-2^64"),
            pytest.param("seed", 2**64 + 1, id="seed-2^64+1"),
        ],
    )
    def test_other_bad_values(self, tmp_path, capsys, key, value):
        # a key (experiment, name) belongs to that experiment, else to search
        if isinstance(key, tuple):
            key = key[1]
            cfg = _write(tmp_path, "c.json", {**_bounds_cfg(tmp_path), key: value})
        else:
            cfg = self._search(tmp_path, key, value)
        name = "density.alpha" if key == "density" else key
        self._assert_rejected(tmp_path, capsys, cfg, name)

    def test_scrambled_halton_renamed(self, tmp_path, capsys):
        # the kind is a random shift, not a scrambling; the error names its
        # new name
        cfg = self._search(tmp_path, "candidate-kinds", ["scrambled-halton"])
        assert main(["validate", cfg]) == 2
        assert "'shifted-halton'" in capsys.readouterr().err
        self._assert_rejected(tmp_path, capsys, cfg, "candidate-kinds")

    def test_gamma_star_rejected_for_inversion(self, tmp_path, capsys):
        cfg = {"experiment": "invert", "gamma": "gamma-star", "output": str(tmp_path / "i.csv")}
        self._assert_rejected(tmp_path, capsys, _write(tmp_path, "c.json", cfg), "gamma")

    def test_rate_study_ns_must_increase(self, tmp_path, capsys):
        cfg = {
            "experiment": "rate-study",
            "kernel": "direct",
            "ns": [64, 16],
            "output": str(tmp_path / "r.csv"),
        }
        self._assert_rejected(tmp_path, capsys, _write(tmp_path, "c.json", cfg), "ns")


class TestRunBounds:
    def test_golden_row(self, tmp_path):
        cfg_path = _write(tmp_path, "c.json", _bounds_cfg(tmp_path))
        assert main(["run", cfg_path]) == 0
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        assert lines[0] == "d,n,lambda0,nu_norm,corollary_bound,beck_bound"
        corollary = float(lines[1].split(",")[4])
        assert corollary == pytest.approx(1.9747, abs=1e-4)

    def test_manifest_written(self, tmp_path):
        cfg_path = _write(tmp_path, "c.json", _bounds_cfg(tmp_path))
        main(["run", cfg_path])
        manifest = json.loads((tmp_path / "bounds.csv.manifest.json").read_text())
        assert manifest["config"]["experiment"] == "bounds"
        assert "wall_time_s" in manifest and "version" in manifest

    def test_beck_overflow_prints_inf(self, tmp_path, capsys):
        assert main(["bounds", "--d", "264"]) == 0
        assert "beck_bound inf" in capsys.readouterr().out.splitlines()
        cfg_path = _write(tmp_path, "c.json", {**_bounds_cfg(tmp_path), "dimension": 264})
        assert main(["run", cfg_path]) == 0
        row = (tmp_path / "bounds.csv").read_text().splitlines()[1].split(",")
        assert float(row[5]) == math.inf

    def test_byte_identical_rerun(self, tmp_path):
        cfg_path = _write(tmp_path, "c.json", _bounds_cfg(tmp_path))
        main(["run", cfg_path])
        first = (tmp_path / "bounds.csv").read_bytes()
        main(["run", cfg_path])
        assert (tmp_path / "bounds.csv").read_bytes() == first

    def test_bad_key_writes_nothing(self, tmp_path):
        bad = _bounds_cfg(tmp_path)
        bad["bogus"] = True
        cfg_path = _write(tmp_path, "c.json", bad)
        assert main(["run", cfg_path]) == 2
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("key", ["epsilon", "delta"])
    def test_epsilon_is_not_a_key(self, tmp_path, capsys, key):
        # no bound the experiment prints reads epsilon or delta, so the keys
        # are unknown
        cfg = _bounds_cfg(tmp_path)
        cfg[key] = 0.25
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown keys" in err and f"'{key}'" in err
        assert not (tmp_path / "bounds.csv").exists()


class TestOutputPath:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("output", ["absent/bounds.csv", "."], ids=["missing-directory", "directory"])
    def test_refused_before_running(self, tmp_path, capsys, command, output):
        cfg_path = _write(tmp_path, "c.json", _bounds_cfg(tmp_path, output))
        assert main([command, cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: key 'output' must name a file in an existing directory")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_failed_write_exits_2(self, tmp_path, capsys):
        # the manifest's path is a directory, so its write fails
        (tmp_path / "bounds.csv.manifest.json").mkdir()
        assert main(["run", _write(tmp_path, "c.json", _bounds_cfg(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output {str(tmp_path / 'bounds.csv')!r}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "bounds.csv").exists()


class TestRunExperiments:
    def test_discrepancy_deterministic(self, tmp_path):
        cfg = {
            "experiment": "discrepancy",
            "dimension": 1,
            "density": {"name": "uniform", "alpha": 0.0},
            "kernel": "direct",
            "n": 64,
            "seed": 3,
            "output": str(tmp_path / "d.csv"),
        }
        cfg_path = _write(tmp_path, "c.json", cfg)
        assert main(["run", cfg_path]) == 0
        first = (tmp_path / "d.csv").read_bytes()
        assert main(["run", cfg_path]) == 0
        assert (tmp_path / "d.csv").read_bytes() == first

    def test_discrepancy_infeasible_dimension(self, tmp_path):
        cfg = {
            "experiment": "discrepancy",
            "dimension": 4,
            "density": {"name": "uniform", "alpha": 0.0},
            "gamma": 0.4,
            "n": 8,
            "output": str(tmp_path / "d.csv"),
        }
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 3
        assert not (tmp_path / "d.csv").exists()

    def test_search_exact_infeasible_dimension(self, tmp_path, capsys):
        # the d = 4 ball has no box-mass rule, so its target is refused
        # before the exact scan would refuse d = 4; the CLI maps that to
        # exit 3
        cfg = {
            "experiment": "search",
            "dimension": 4,
            "density": {"name": "uniform", "alpha": 0.0},
            "gamma": 0.4,
            "n": 8,
            "k": 2,
            "objective": "star-exact",
            "output": str(tmp_path / "s.csv"),
        }
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: box masses on the ball are implemented for d <= 3, not d = 4")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]

    def test_pullback_lazy_direct(self, tmp_path):
        cfg = {
            "experiment": "pullback",
            "dimension": 1,
            "density": {"name": "uniform"},
            "kernel": "lazy-direct",
            "a": 0.5,
            "n": 32,
            "seed": 1,
            "delta": 0.05,
            "output": str(tmp_path / "p.csv"),
        }
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        header, row = (tmp_path / "p.csv").read_text().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["mc_stderr"]) == 0.0
        assert 0.0 <= float(vals["disc_lower"]) <= float(vals["disc_upper"]) <= 1.0

    def test_search_gamma_star_resolution(self, tmp_path):
        cfg = {
            "experiment": "search",
            "dimension": 1,
            "density": {"name": "exp-linear", "alpha": 1.0},
            "kernel": "metropolis-ballwalk",
            "gamma": "gamma-star",
            "n": 32,
            "k": 2,
            "seed": 1,
            "output": str(tmp_path / "s.csv"),
        }
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["gamma"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_search_gamma_two_has_no_theory_bound(self, tmp_path):
        # lambda0 is unknown away from gamma*: the bound used to be computed
        # from lambda0 = 0 and printed as 0.884
        cfg = {
            "experiment": "search",
            "dimension": 1,
            "density": {"name": "uniform", "alpha": 0.0},
            "gamma": 2.0,
            "n": 64,
            "k": 2,
            "seed": 1,
            "output": str(tmp_path / "s.csv"),
        }
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        header, row = (tmp_path / "s.csv").read_text().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert vals["theory_bound"] == "inf"
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert "lambda0 is unknown" in manifest["theory_bound"]
        cfg["gamma"] = "gamma-star"
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        header, row = (tmp_path / "s.csv").read_text().splitlines()
        assert math.isfinite(float(dict(zip(header.split(","), row.split(",")))["theory_bound"]))

    @pytest.mark.parametrize("experiment", ["search", "rate-study"])
    def test_lazy_direct_without_gap_has_no_theory_bound(self, tmp_path, capsys, experiment):
        # 1 - a rounds to lambda0 = 1.0: the run used to end in a traceback
        cfg = {
            "experiment": experiment,
            "dimension": 1,
            "kernel": "lazy-direct",
            "a": 1e-17,
            "k": 2,
            "output": str(tmp_path / "s.csv"),
        }
        cfg.update({"n": 16} if experiment == "search" else {"ns": [16, 32]})
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""
        header, *rows = (tmp_path / "s.csv").read_text().splitlines()
        for row in rows:
            assert dict(zip(header.split(","), row.split(",")))["theory_bound"] == "inf"
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert "no spectral gap" in manifest["theory_bound"]

    def test_cover_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # a marginal CDF that moves in steps of 1/4 leaves slabs of mass 1/4
        # or more, above delta / d = 1/6, so the cover fails its slab audit
        exact = TargetMeasure.marginal_cdf
        monkeypatch.setattr(TargetMeasure, "marginal_cdf", lambda self, j, t: np.floor(4.0 * exact(self, j, t)) / 4.0)
        cfg = {
            "experiment": "search",
            "dimension": 3,
            "density": {"name": "exp-linear", "alpha": 1.0},
            "gamma": 0.4,
            "n": 30,
            "k": 2,
            "objective": "star-bracket",
            "delta": 0.5,
            "output": str(tmp_path / "s.csv"),
        }
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: coordinate 0: finest achieved slab mass")
        assert err.count("\n") == 1
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("delta", [0.5, 0.1])
    @pytest.mark.parametrize("experiment", ["search", "pullback"])
    def test_d3_exp_linear_covers_run(self, tmp_path, capsys, experiment, delta):
        # the d = 3 exp-linear ball's quantile cover passes its slab audit
        # (it failed at every alpha and delta tried while its marginal CDF
        # was a stratified estimate); the bracket is the lower end plus
        # delta plus the mass error or Monte Carlo slack
        cfg = {"experiment": experiment, "dimension": 3, "density": {"name": "exp-linear", "alpha": 1.0},
               "n": 30, "delta": delta, "output": str(tmp_path / "s.csv")}
        if experiment == "search":
            cfg.update(k=2, objective="star-bracket")
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""
        header, row = (tmp_path / "s.csv").read_text().splitlines()
        vals = dict(zip(header.split(","), map(float, row.split(","))))
        assert 0.0 <= vals["disc_lower"] <= vals["disc_upper"] <= min(vals["disc_lower"] + delta + 0.05, 1.0)

    @pytest.mark.parametrize(
        "cfg",
        [
            {"experiment": "pullback", "dimension": 1, "delta": 1e-9},
            {"experiment": "search", "dimension": 2, "objective": "star-bracket", "delta": 1e-4},
        ],
    )
    def test_cover_above_member_cap_exits_3(self, tmp_path, capsys, cfg):
        # ceil(d / delta)^d + 1 members: 1e9 + 1 and 4e8 + 1; refused before
        # anything is allocated
        cfg = {**cfg, "density": {"name": "uniform", "alpha": 0.0}, "n": 16, "k": 2,
               "output": str(tmp_path / "s.csv")}
        if cfg["experiment"] == "pullback":
            del cfg["k"]
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: delta") and "cap of 1048576" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "s.csv").exists()

    def test_largest_seed_runs(self, tmp_path, capsys):
        cfg = {"experiment": "search", "dimension": 1, "kernel": "direct", "n": 16, "k": 2,
               "seed": 2**64 - 1, "output": str(tmp_path / "s.csv")}
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""
        header, row = (tmp_path / "s.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["seed"] == "18446744073709551615"

    @pytest.mark.parametrize(
        "cfg,csv",
        [
            ({"experiment": "discrepancy", "dimension": 2, "gamma": 1e300, "n": 32, "n0": 4},
             "n,seed,disc_lower,disc_upper\n32,0,0.80463422841915921,0.80463422841915921\n"),
            ({"experiment": "search", "dimension": 3, "gamma": 1e300, "n": 16, "k": 2},
             "n,seed,disc_lower,disc_upper,theory_bound\n16,0,0.89992853659354755,0.89992853759280067,inf\n"),
            ({"experiment": "pullback", "dimension": 2, "gamma": 1e200, "n": 32, "delta": 0.1},
             "n,seed,delta,disc_lower,disc_upper,mc_stderr\n"
             "32,0,0.10000000000000001,0.78500000000000003,0.92044406025041681,0.035444060250416798\n"),
            ({"experiment": "discrepancy", "dimension": 1, "density": {"name": "exp-linear", "alpha": 300.0},
              "gamma": 1e300, "n": 32}, "n,seed,disc_lower,disc_upper\n32,0,1,1\n"),
        ],
        ids=["discrepancy-d2", "search-d3", "pullback-d2", "exp-linear-d1"],
    )
    def test_huge_proposal_radius_runs_quietly(self, tmp_path, capsys, cfg, csv):
        # y . y overflows to inf, which the unit-ball test rejects as it
        # should; the run prints no overflow warning and its CSV is unchanged
        cfg = {**cfg, "seed": 0, "output": str(tmp_path / "o.csv")}
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "o.csv").read_text() == csv

    @pytest.mark.parametrize(
        "experiment,d",
        [("pullback", 4), ("pullback", 40), ("search", 9), ("discrepancy", 9), ("rate-study", 31),
         ("search", 33), ("discrepancy", 10**4), ("discrepancy", 10**6)],
    )
    def test_ball_above_stratified_cap_exits_3(self, tmp_path, capsys, experiment, d):
        # a ball in d >= 4 has no box-mass rule (the stratified estimate
        # that served d <= 8 is gone); its target is refused before
        # anything is allocated, also where d has millions of coordinates
        cfg = {"experiment": experiment, "dimension": d, "density": {"name": "exp-linear", "alpha": 1.0},
               "output": str(tmp_path / "s.csv")}
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"infeasible: box masses on the ball are implemented for d <= 3, not d = {d}")
        assert err.count("\n") == 1
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "keys, refusal",
        [
            pytest.param({"experiment": "discrepancy", "n": 10**13}, "Unable to allocate", id="discrepancy"),
            pytest.param({"experiment": "pullback", "n": 10**13}, "Unable to allocate", id="pullback"),
            pytest.param({"experiment": "discrepancy", "n": 2**62}, "Maximum allowed dimension", id="n-2^62"),
            pytest.param({"experiment": "discrepancy", "n": 10**20}, "Maximum allowed dimension", id="n-10^20"),
            pytest.param({"experiment": "discrepancy", "n0": 2**62}, "Maximum allowed dimension", id="n0-2^62"),
            pytest.param({"experiment": "pullback", "mc-replications": 2**62}, "array is too big", id="replicas-2^62"),
            pytest.param({"experiment": "rate-study", "ns": [16, 10**20], "k": 2}, "Maximum allowed dimension", id="ns-10^20"),
        ],
    )
    def test_oversized_run_exits_3(self, tmp_path, capsys, keys, refusal):
        # n = 10^13 asks for a 218 TiB driver, beyond a 47-bit address space,
        # which numpy refuses before touching memory; larger shapes it
        # refuses with a ValueError before it computes their size in bytes
        cfg = {"dimension": 1, **keys, "output": str(tmp_path / "s.csv")}
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"infeasible: {refusal}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]

    def test_other_value_errors_are_not_infeasible(self, tmp_path, monkeypatch):
        # only numpy's shape refusals exit 3; a ValueError of the program
        # itself still ends the run with its traceback
        from mcqmclab import cli

        def fault(p):
            raise ValueError("array is not too big")

        monkeypatch.setitem(cli._RUNNERS, "discrepancy", fault)
        cfg = {"experiment": "discrepancy", "output": str(tmp_path / "s.csv")}
        with pytest.raises(ValueError, match="array is not too big"):
            main(["run", _write(tmp_path, "c.json", cfg)])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_alpha_at_its_upper_end_runs(self, tmp_path, capsys, d):
        # e^700 is near the largest float: the d = 3 profile rule's
        # normalizer and masses stay finite (the stratified estimate that
        # served d = 3 once overflowed and ended the run in [nan, nan])
        cfg = {
            "experiment": "discrepancy",
            "dimension": d,
            "density": {"name": "exp-linear", "alpha": 700.0},
            "n": 8,
            "n0": 4,
            "output": str(tmp_path / "d.csv"),
        }
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        assert capsys.readouterr().err == ""
        header, row = (tmp_path / "d.csv").read_text().splitlines()
        vals = dict(zip(header.split(","), map(float, row.split(","))))
        assert all(math.isfinite(v) for v in vals.values())
        assert 0.0 <= vals["disc_lower"] <= vals["disc_upper"] <= 1.0

    def test_rate_study_columns(self, tmp_path):
        cfg = {
            "experiment": "rate-study",
            "dimension": 1,
            "density": {"name": "uniform"},
            "kernel": "direct",
            "ns": [16, 64],
            "k": 2,
            "seed": 2,
            "output": str(tmp_path / "r.csv"),
        }
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "n,seed,disc_lower,disc_upper,theory_bound,beck_bound,runtime_ms"
        assert len(lines) == 3

    def test_invert_experiment(self, tmp_path):
        cfg = {
            "experiment": "invert",
            "density": {"name": "uniform"},
            "gamma": 2.0,
            "n": 16,
            "output": str(tmp_path / "i.csv"),
        }
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        header, row = (tmp_path / "i.csv").read_text().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["disc_lower"]) == pytest.approx(1.0 / 32.0, abs=1e-12)
        assert float(vals["max_deviation"]) <= 1e-9

    def test_invert_requires_gamma_two(self, tmp_path):
        cfg = {
            "experiment": "invert",
            "density": {"name": "uniform"},
            "gamma": 1.0,
            "n": 8,
            "output": str(tmp_path / "i.csv"),
        }
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 2


class TestBoundsSubcommand:
    def test_prints_golden(self, capsys):
        assert main(["bounds", "--d", "1", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "corollary_bound 1.9747" in out

    def test_alpha_adds_gap_lines(self, capsys):
        main(["bounds", "--d", "1", "--n", "16", "--alpha", "1.0"])
        out = capsys.readouterr().out
        assert "gamma_star" in out and "spectral_gap" in out

    @pytest.mark.parametrize("alpha", ["800", "-1", "nan", "inf"])
    def test_alpha_out_of_range_exits_2(self, capsys, alpha):
        assert main(["bounds", "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: --alpha must be a number in [0, 700]")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag,value,allowed",
        [
            ("--d", "0", "[1, 9007199254740992]"),
            ("--n", "0", "[16, 9007199254740992]"),
            ("--n", "15", "[16, 9007199254740992]"),
            pytest.param("--d", str(2**53 + 1), "[1, 9007199254740992]", id="--d-2^53+1"),
            pytest.param("--d", str(10**300), "[1, 9007199254740992]", id="--d-10^300"),
            pytest.param("--d", str(10**400), "[1, 9007199254740992]", id="--d-10^400"),
            pytest.param("--n", str(10**400), "[16, 9007199254740992]", id="--n-10^400"),
            ("--lambda0", "1", "[0, 1)"),
            ("--lambda0", "-0.5", "[0, 1)"),
            ("--norm", "0", "[1, inf)"),
            ("--norm", "1e-10", "[1, inf)"),
            ("--norm", "nan", "[1, inf)"),
        ],
    )
    def test_flag_out_of_range_exits_2(self, capsys, flag, value, allowed):
        assert main(["bounds", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {flag} must be a number in {allowed}")
        assert captured.err.count("\n") == 1

    def test_flags_at_their_ends(self, tmp_path, capsys):
        assert main(["bounds", "--d", "1", "--n", "16", "--lambda0", "0", "--norm", "1"]) == 0
        assert "corollary_bound 1.9747" in capsys.readouterr().out
        # --d and --n, and the bounds experiment's dimension and n, at 2^53
        top = str(2**53)
        assert main(["bounds", "--d", top, "--n", top, "--alpha", "1"]) == 0
        assert capsys.readouterr().err == ""
        cfg = {**_bounds_cfg(tmp_path), "dimension": 2**53, "n": 2**53}
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        assert (tmp_path / "bounds.csv").read_text().splitlines()[1].split(",")[:2] == [top, top]

    def test_alpha_at_its_upper_end(self, capsys):
        assert main(["bounds", "--alpha", "700"]) == 0
        out = capsys.readouterr().out
        assert "inf" not in out and "nan" not in out

    @pytest.mark.parametrize("d, size, value", [(1, 101, 226.176), (2, 40_001, 499.684)])
    def test_main_bound_prices_the_quantile_cover(self, capsys, d, size, value):
        # the delta = 0.01 quantile cover of the ball, not a 2-member cover
        assert main(["bounds", "--d", str(d), "--n", "1024", "--alpha", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        last = captured.out.splitlines()[-1].split()
        assert last[0] == "main_bound(delta=0.01)"
        built = build_quantile_cover(uniform_ball(d), 0.01).size
        assert built == size
        _, gap = ballwalk_gap_bound(1.0, d)
        bound = main_discrepancy_bound(n=1024, lambda0=1.0 - gap, nu_norm=math.e, cover_size=built, delta=0.01)
        assert float(last[1]) == pytest.approx(bound, rel=1e-12)
        assert float(last[1]) == pytest.approx(value, abs=1e-3)

    @pytest.mark.parametrize("d", ["80", "264", "1000000"])
    def test_main_bound_inf_without_a_float_cover_or_a_gap(self, capsys, d):
        # |Gamma| = (100 d)^d + 1 overflows a float from d = 80, and from
        # about d = 2.4e5 1 - gap rounds to 1
        assert main(["bounds", "--d", d, "--alpha", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == "main_bound(delta=0.01) inf"


class TestParser:
    def test_built_once_and_reused(self, capsys):
        assert _parser() is _parser()
        assert main(["bounds", "--d", "2", "--n", "64"]) == 0
        first = capsys.readouterr().out
        assert main(["bounds", "--n", "32"]) == 0
        second = capsys.readouterr().out
        assert first.startswith("corollary_bound") and second.startswith("corollary_bound")
        assert first != second
        # defaults are not carried over from the earlier call
        assert main(["bounds", "--d", "2", "--n", "64"]) == 0
        assert capsys.readouterr().out == first

    def test_bad_flag_still_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--no-such-flag"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert main(["bounds"]) == 0
