import dataclasses

import numpy as np
import pytest

from mcqmclab.chain import make_direct_kernel, run_chains
from mcqmclab.core import Rng, halton_sequence, uniform_driver, uniform_interval
from mcqmclab import search
from mcqmclab import discrepancy
from mcqmclab.discrepancy import (
    build_quantile_cover,
    star_discrepancy_bracket,
    star_discrepancy_exact,
)
from mcqmclab.search import (
    SearchConfig,
    best_of_k,
    fit_loglog_slope,
    invert_to_target,
    rate_study,
)


def _direct():
    return make_direct_kernel(uniform_interval(-1.0, 1.0))


def _one_candidate(config, j, s):
    """Candidate j built on its own, the reference of the search's block of
    candidates: its label and its driver of shape (n0 + n, s)."""
    kind = config.candidate_kinds[j % len(config.candidate_kinds)]
    total = config.n + config.n0
    if kind == "uniform-random":
        rng = Rng(config.seed).split(j)
        return f"uniform-random(seed={rng.seed:#x})", uniform_driver(total, s, rng)
    if kind == "halton":
        return "halton", halton_sequence(total, s)
    shift = Rng(config.seed).split(1000 + j).uniforms(s)
    pts = np.clip(np.mod(halton_sequence(total, s) + shift, 1.0), 0.0, np.nextafter(1.0, 0.0))
    return f"shifted-halton(seed={config.seed},j={j})", pts


# every kind, the halton sequence twice: candidates 1 and 3 are one driver
MIXED_KINDS = ("uniform-random", "halton", "shifted-halton", "halton")


def _walk_and_cover():
    """The d = 1 exp-linear ball walk at gamma*, which has no exact marginal
    (the pull-back draws its replicas), and its cover at delta = 0.05."""
    from mcqmclab.ballwalk import make_metropolis_system
    from mcqmclab.bounds import ballwalk_gap_bound

    system = make_metropolis_system("exp-linear", 1.0, ballwalk_gap_bound(1.0, 1)[0], 1)
    return system, build_quantile_cover(system.target, 0.05)


def _per_candidate_pullbacks(system, config, cover, n, volume=None):
    """Every candidate at n scored on its own, with its own m replicas
    ``Rng(seed).split(50_000 + j)``: the search's former pull-back, kept as
    the reference of the one shared replica set (candidate 0's replicas).
    With an exact marginal, ``volume`` (masses, error) or else the mean of
    the per-step marginals."""
    import scalar_scan as ref

    config = dataclasses.replace(config, n=n)
    return [
        ref.pullback_one_block(
            system, _one_candidate(config, j, system.s)[1], config.n0, cover,
            config.mc_replications, Rng(config.seed).split(50_000 + j), volume,
        )
        for j in range(config.k)
    ]


def _candidate_reports(monkeypatch, system, config, ns, cover):
    """The search's results at each n of ``ns`` and, per n, every
    candidate's pull-back report as its scorer returned it."""
    blocks = []

    def recording(*args):
        blocks.append(discrepancy._pullbacks(*args))
        return blocks[-1]

    monkeypatch.setattr(search, "_pullbacks", recording)
    results = list(search._search(system, config, ns, cover))
    labels = [label for label, _ in results[0].all_scores]
    row = {label: r for r, label in enumerate(dict.fromkeys(labels))}
    return results, [[block[row[label]] for label in labels] for block in blocks]


def _walk_and_cover_2d():
    """The d = 2 uniform ball walk at gamma*, no exact marginal, and its
    cover at delta = 0.2 (122 members)."""
    from mcqmclab.ballwalk import make_metropolis_system
    from mcqmclab.bounds import ballwalk_gap_bound

    system = make_metropolis_system("uniform", 0.0, ballwalk_gap_bound(0.0, 2)[0], 2)
    return system, build_quantile_cover(system.target, 0.2)


def _metropolis_inversion_system():
    from mcqmclab.ballwalk import make_metropolis_system

    return make_metropolis_system("uniform", 0.0, 2.0, 1)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n=8, k=0, seed=1)
        with pytest.raises(ValueError):
            SearchConfig(n=8, k=1, seed=1, objective="nope")
        with pytest.raises(ValueError):
            SearchConfig(n=8, k=1, seed=1, candidate_kinds=("sobol",))


class TestBestOfK:
    def test_singleton_returns_that_candidate(self):
        cfg = SearchConfig(n=32, k=1, seed=5)
        res = best_of_k(_direct(), cfg)
        assert len(res.all_scores) == 1
        assert res.best_report.upper == res.all_scores[0][1]

    def test_argmin_property(self):
        cfg = SearchConfig(n=64, k=8, seed=2)
        res = best_of_k(_direct(), cfg)
        uppers = [u for _, u in res.all_scores]
        assert res.best_report.upper == min(uppers)
        assert res.best_report.upper <= float(np.median(uppers))

    def test_deterministic(self):
        cfg = SearchConfig(n=64, k=6, seed=9)
        a = best_of_k(_direct(), cfg)
        b = best_of_k(_direct(), cfg)
        assert np.array_equal(a.best_driver, b.best_driver)
        assert a.all_scores == b.all_scores

    def test_candidate_kinds_cycle(self):
        cfg = SearchConfig(
            n=32, k=3, seed=1, candidate_kinds=("uniform-random", "halton", "shifted-halton")
        )
        res = best_of_k(_direct(), cfg)
        provs = [p for p, _ in res.all_scores]
        assert provs[1] == "halton"
        assert provs[2].startswith("shifted-halton")

    def test_halton_candidate_usually_wins(self):
        # van der Corput driver through the inverse CDF beats random drivers
        cfg = SearchConfig(n=256, k=4, seed=3, candidate_kinds=("uniform-random", "halton"))
        res = best_of_k(_direct(), cfg)
        halton_score = dict(res.all_scores)["halton"]
        assert res.best_report.upper == halton_score

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize(
        "kinds",
        [
            ("uniform-random",),
            ("halton", "shifted-halton"),
            ("shifted-halton", "uniform-random", "halton", "uniform-random"),
        ],
    )
    def test_block_candidates_are_the_one_candidate_drivers(self, kinds, seed):
        cfg = SearchConfig(n=40, k=9, seed=seed, n0=3, candidate_kinds=kinds)
        for s in (1, 3):
            labels, drivers = search._candidates(cfg, cfg.n0 + cfg.n, s)
            assert len(labels) == len(drivers) == cfg.k
            for j, (label, driver) in enumerate(zip(labels, drivers)):
                want_label, want = _one_candidate(cfg, j, s)
                assert label == want_label
                assert driver.shape == want.shape and driver.tobytes() == want.tobytes()
        res = best_of_k(_direct(), cfg)
        best = int(np.argmin([u for _, u in res.all_scores]))
        assert [label for label, _ in res.all_scores] == search._candidates(cfg, cfg.n0 + cfg.n, 1)[0]
        assert res.best_driver.tobytes() == _one_candidate(cfg, best, 1)[1].tobytes()

    @pytest.mark.parametrize("objective", ["star-exact", "star-bracket"])
    def test_repeated_candidates_are_replayed_once(self, monkeypatch, objective):
        # the halton kind is one sequence, so candidates 1 and 3 are one row
        system = _direct()
        cover = build_quantile_cover(system.target, 0.05)
        cfg = SearchConfig(
            n=32, k=4, seed=2, n0=4, candidate_kinds=("uniform-random", "halton"),
            objective=objective,
        )
        blocks = []

        def recording(system, U, burn_in=0):
            blocks.append(len(U))
            return run_chains(system, U, burn_in)

        monkeypatch.setattr(search, "run_chains", recording)
        res = best_of_k(system, cfg, cover=cover)
        assert blocks == [3]
        assert res.all_scores[1] == res.all_scores[3] and res.all_scores[1][0] == "halton"
        # every score is that of its candidate replayed and scored on its own
        for j, score in enumerate(res.all_scores):
            label, driver = _one_candidate(cfg, j, system.s)
            x = run_chains(system, driver[None], burn_in=cfg.n0)[0]
            if objective == "star-exact":
                report = star_discrepancy_exact(x, system.target)
            else:
                report = star_discrepancy_bracket(x, system.target, cover)
            assert score == (label, report.upper)

    def test_no_spectral_gap_has_no_theory_bound(self):
        # a lazy kernel with a = 1e-17: 1 - a rounds to lambda0 = 1.0, which
        # the corollary refuses
        from mcqmclab.chain import make_lazy_direct_kernel

        system = make_lazy_direct_kernel(uniform_interval(-1.0, 1.0), 1e-17)
        assert system.lambda0 == 1.0
        res = best_of_k(system, SearchConfig(n=16, k=2, seed=0))
        assert res.theory_bound == np.inf
        assert np.isfinite(res.best_report.upper)

    def test_bracket_objective_requires_cover(self):
        cfg = SearchConfig(n=16, k=2, seed=1, objective="star-bracket")
        with pytest.raises(ValueError):
            best_of_k(_direct(), cfg)

    def test_bracket_objective(self):
        system = _direct()
        cover = build_quantile_cover(system.target, 0.05)
        cfg = SearchConfig(n=64, k=4, seed=4, objective="star-bracket")
        res = best_of_k(system, cfg, cover=cover)
        assert res.best_report.method == "cover-bracket"

    def test_theory_bound_column(self):
        from mcqmclab.bounds import corollary_main_bound

        cfg = SearchConfig(n=64, k=2, seed=1)
        res = best_of_k(_direct(), cfg)
        assert res.theory_bound == corollary_main_bound(n=64, d=1, lambda0=0.0, nu_norm=1.0)


class TestInvertToTarget:
    def test_single_target(self):
        system = _metropolis_inversion_system()
        target = np.array([0.25])
        driver = invert_to_target(system, [target], np.array([0.75, 0.25, 0.0]))
        assert driver.shape == (1, system.s)
        assert np.allclose(run_chains(system, driver[None])[0][0], target, atol=1e-12)

    def test_midpoint_targets_reach_half_over_n(self):
        system = _metropolis_inversion_system()
        target_measure = uniform_interval(-1.0, 1.0)
        for n in (4, 16):
            q = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
            targets = [np.array([target_measure.inv_cdf(p)]) for p in q]
            t0 = float(targets[0][0])
            driver = invert_to_target(
                system, targets, np.array([0.25 if t0 < 0 else 0.75, abs(t0), 0.0])
            )
            rep = star_discrepancy_exact(run_chains(system, driver[None])[0], target_measure)
            assert rep.lower == pytest.approx(1.0 / (2.0 * n), abs=1e-12)

    def test_random_target_lists_roundtrip(self):
        system = _metropolis_inversion_system()
        rng = Rng(31)
        for trial in range(100):
            r = rng.split(trial)
            targets = [np.array([2.0 * r.uniform() - 1.0]) for _ in range(10)]
            t0 = float(targets[0][0])
            driver = invert_to_target(
                system, targets, np.array([0.25 if t0 < 0 else 0.75, abs(t0), 0.0])
            )
            assert np.max(np.abs(run_chains(system, driver[None])[0] - np.stack(targets))) <= 1e-9

    def test_wrong_first_target_rejected(self):
        system = _metropolis_inversion_system()
        with pytest.raises(ValueError):
            invert_to_target(system, [np.array([0.5])], np.array([0.25, 0.5, 0.0]))

    def test_system_without_inverse_rejected(self):
        # the direct kernel has no inverse: a ValueError, also for a single
        # target, which would need no inverse
        for targets in ([np.array([0.0])], [np.array([0.0]), np.array([0.5])]):
            with pytest.raises(ValueError, match="exposes no inverse"):
                invert_to_target(_direct(), targets, np.array([0.5]))


class TestRateStudy:
    def test_rows_and_monotone_ns(self):
        cfg = SearchConfig(n=16, k=2, seed=1)
        rows = rate_study(_direct(), [16, 64], cfg)
        assert [r["n"] for r in rows] == [16, 64]
        assert set(rows[0]) == {
            "n", "seed", "disc_lower", "disc_upper", "theory_bound",
            "beck_bound", "runtime_ms",
        }
        with pytest.raises(ValueError):
            rate_study(_direct(), [64, 16], cfg)

    @pytest.mark.parametrize("kinds", [("uniform-random",), MIXED_KINDS], ids=["uniform", "mixed"])
    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_one_cover_for_every_n(self, objective, kinds):
        # every n is scored on prefixes of one build and one replay, and is
        # the one-n best_of_k bit for bit
        system, cover = _walk_and_cover()
        cfg = SearchConfig(
            n=16, k=5, seed=4, n0=6, candidate_kinds=kinds, objective=objective, mc_replications=100
        )
        ns = [16, 48, 80]
        rows = rate_study(system, ns, cfg, cover=cover)
        for n, row, got in zip(ns, rows, search._search(system, cfg, ns, cover), strict=True):
            want = best_of_k(system, dataclasses.replace(cfg, n=n), cover=cover)
            assert (row["disc_lower"], row["disc_upper"]) == (want.best_report.lower, want.best_report.upper)
            assert row["theory_bound"] == want.theory_bound < np.inf
            assert got.best_report == want.best_report
            assert got.all_scores == want.all_scores
            assert got.best_driver.shape == want.best_driver.shape == (6 + n, system.s)
            assert got.best_driver.tobytes() == want.best_driver.tobytes()
        if objective != "star-exact":
            with pytest.raises(ValueError, match="requires a cover"):
                rate_study(system, [16], cfg)

    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_one_halton_sequence_and_one_replay(self, monkeypatch, objective):
        system, cover = _walk_and_cover()
        cfg = SearchConfig(n=16, k=5, seed=4, n0=6, candidate_kinds=MIXED_KINDS, objective=objective)
        haltons, replays = [], []

        def halton(n, s):
            haltons.append(n)
            return halton_sequence(n, s)

        def replay(system, U, burn_in=0):
            replays.append(U.shape)
            return run_chains(system, U, burn_in)

        monkeypatch.setattr(search, "halton_sequence", halton)
        monkeypatch.setattr(search, "run_chains", replay)
        rate_study(system, [16, 48, 80], cfg, cover=cover)
        assert haltons == [6 + 80]
        # the pull-back's 200 shared replicas follow the 4 distinct drivers
        replicas = 200 if objective == "pullback-mc" else 0
        assert replays == [(4 + replicas, 6 + 80, system.s)]

    @pytest.mark.parametrize("ns", [[0, 16], [64, 16], [16, 16]])
    def test_bad_ns_raise_before_anything_is_built(self, monkeypatch, ns):
        def refuse(*args, **kwargs):
            raise AssertionError("built or replayed before ns were checked")

        monkeypatch.setattr(search, "_candidates", refuse)
        monkeypatch.setattr(search, "run_chains", refuse)
        with pytest.raises(ValueError, match="strictly increasing"):
            rate_study(_direct(), ns, SearchConfig(n=16, k=2, seed=1))

    def test_no_ns_no_rows(self):
        assert rate_study(_direct(), [], SearchConfig(n=16, k=2, seed=1)) == []

    def test_beck_column_golden(self):
        cfg = SearchConfig(n=16, k=1, seed=1)
        rows = rate_study(_direct(), [1024], cfg)
        assert rows[0]["beck_bound"] == 8.859375


class TestPullbackSearch:
    @pytest.mark.parametrize("walk", [_walk_and_cover, _walk_and_cover_2d], ids=["d1", "d2"])
    def test_candidate_0_is_its_own_pullback(self, monkeypatch, walk):
        # candidate 0's replicas are the shared set, so it is scored bit for
        # bit as on its own, at every n of a rate study
        system, cover = walk()
        cfg = SearchConfig(
            n=16, k=5, seed=4, n0=6, candidate_kinds=MIXED_KINDS, objective="pullback-mc",
            mc_replications=100,
        )
        ns = [16, 48, 80]
        results, reports = _candidate_reports(monkeypatch, system, cfg, ns, cover)
        for n, result, got in zip(ns, results, reports, strict=True):
            want = _per_candidate_pullbacks(system, cfg, cover, n)[0]
            assert got[0] == want and want.mc_stderr > 0.0
            assert result.all_scores[0][1] == want.upper

    @pytest.mark.parametrize("kernel", ["direct", "lazy-direct"])
    def test_every_candidate_is_its_own_pullback_with_an_oracle(self, monkeypatch, kernel):
        # with an exact marginal there are no replicas, and every candidate
        # is scored as on its own: bit for bit against the averaged marginal
        # computed apart (pi, or w nu + (1 - w) pi), and within rounding of
        # the mean of the per-step marginals; the lazy chain starts away
        # from pi, so its marginal depends on the step
        import scalar_replay
        import scalar_scan as ref
        from mcqmclab.chain import make_lazy_direct_kernel
        from mcqmclab.core import exp_linear_interval

        pi, nu, a = exp_linear_interval(1.0), uniform_interval(), 0.5
        lazy = make_lazy_direct_kernel(pi, a, nu=nu)
        system = _direct() if kernel == "direct" else lazy
        cover = build_quantile_cover(system.target, 0.05)
        cfg = SearchConfig(
            n=16, k=5, seed=4, n0=6, candidate_kinds=MIXED_KINDS, objective="pullback-mc",
            mc_replications=100,
        )
        ns = [16, 48, 80]
        results, reports = _candidate_reports(monkeypatch, system, cfg, ns, cover)
        for n, result, got in zip(ns, results, reports, strict=True):
            steps = range(cfg.n0, cfg.n0 + n)
            if kernel == "direct":
                volume = system.target.box_masses(cover.corners)
            else:
                volume = scalar_replay.lazy_averaged_marginal(steps, cover.corners, pi, nu, a)
            want = _per_candidate_pullbacks(system, cfg, cover, n, volume)
            assert got == want
            for g, w in zip(got, _per_candidate_pullbacks(system, cfg, cover, n), strict=True):
                ref.assert_reports_close(g, w)
            assert [u for _, u in result.all_scores] == [r.upper for r in want]
            assert result.best_report == want[int(np.argmin([r.upper for r in want]))]

    @pytest.mark.parametrize("chunk_cells", [discrepancy._SCAN_CHUNK_CELLS, 30])
    @pytest.mark.parametrize("walk", [_walk_and_cover, _walk_and_cover_2d], ids=["d1", "d2"])
    def test_candidates_share_one_replica_set(self, monkeypatch, walk, chunk_cells):
        # every candidate's lower is max |fractions - shared replica mean|
        # from the broadcast counts, and all carry the shared stderr; 30
        # cells count the candidate rows one at a time
        import scalar_scan as ref

        system, cover = walk()
        monkeypatch.setattr(discrepancy, "_SCAN_CHUNK_CELLS", chunk_cells)
        cfg = SearchConfig(
            n=40, k=5, seed=11, n0=6, candidate_kinds=MIXED_KINDS, objective="pullback-mc",
            mc_replications=100,
        )
        (result,), (reports,) = _candidate_reports(monkeypatch, system, cfg, [cfg.n], cover)
        rng, rows = Rng(cfg.seed).split(50_000), cfg.n0 + cfg.n
        replicas = [rng.split(r).uniforms(rows * system.s).reshape(rows, system.s) for r in range(100)]
        acc = np.array([
            ref.broadcast_fractions_below(x, cover.corners)
            for x in run_chains(system, np.stack(replicas), cfg.n0)
        ])
        vol = acc.mean(axis=0)
        stderr = float(np.max(acc.std(axis=0, ddof=1) / np.sqrt(100)))
        assert {r.mc_stderr for r in reports} == {stderr} and stderr > 0.0
        for j, report in enumerate(reports):
            x = run_chains(system, _one_candidate(cfg, j, system.s)[1][None], cfg.n0)[0]
            lower = float(np.max(np.abs(ref.broadcast_fractions_below(x, cover.corners) - vol)))
            assert report.lower == lower
            assert report.upper == result.all_scores[j][1] == min(lower + cover.delta + stderr, 1.0)
        assert len({r.lower for r in reports}) > 2


class TestFitSlope:
    def test_exact_power_law(self):
        ns = [16, 64, 256]
        vals = [1.0 / (2 * n) for n in ns]
        assert fit_loglog_slope(ns, vals) == pytest.approx(-1.0, abs=1e-12)

    def test_sqrt_law(self):
        ns = [16, 64, 256, 1024]
        vals = [3.0 * n**-0.5 for n in ns]
        assert fit_loglog_slope(ns, vals) == pytest.approx(-0.5, abs=1e-12)
