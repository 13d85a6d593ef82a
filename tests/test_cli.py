import json
import math

import pytest

from mcqmclab.cli import main


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

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2

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
        # the exact scan itself refuses d = 4; the CLI maps that to exit 3
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
        assert err.startswith("infeasible: exact scan is limited to d <= 3")
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

    def test_cover_failure_exits_3(self, tmp_path, capsys):
        # the stratified d = 3 marginal CDFs are too noisy for the slab audit
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

    @pytest.mark.parametrize(
        "cfg",
        [
            {"experiment": "pullback", "dimension": 1, "delta": 1e-9},
            {"experiment": "search", "dimension": 2, "objective": "star-bracket", "delta": 1e-4},
        ],
    )
    def test_cover_above_member_cap_exits_3(self, tmp_path, capsys, cfg):
        # (ceil(d / delta) + 1)^d members: 1e9 + 2 and 4e8; refused before
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

    @pytest.mark.parametrize("d", [1, 2])
    def test_alpha_at_its_upper_end_runs(self, tmp_path, d):
        cfg = {
            "experiment": "discrepancy",
            "dimension": d,
            "density": {"name": "exp-linear", "alpha": 700.0},
            "n": 8,
            "n0": 4,
            "output": str(tmp_path / "d.csv"),
        }
        assert main(["run", _write(tmp_path, "c.json", cfg)]) == 0
        header, row = (tmp_path / "d.csv").read_text().splitlines()
        assert all(math.isfinite(float(v)) for v in row.split(","))

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
            ("--d", "0", "[1, inf)"),
            ("--n", "0", "[16, inf)"),
            ("--n", "15", "[16, inf)"),
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

    def test_flags_at_their_ends(self, capsys):
        assert main(["bounds", "--d", "1", "--n", "16", "--lambda0", "0", "--norm", "1"]) == 0
        assert "corollary_bound 1.9747" in capsys.readouterr().out

    def test_alpha_at_its_upper_end(self, capsys):
        assert main(["bounds", "--alpha", "700"]) == 0
        out = capsys.readouterr().out
        assert "inf" not in out and "nan" not in out
