"""Binned cover counts against the broadcast comparison of every point with
every cover corner (``scalar_scan.broadcast_fractions_below``), bit for
bit, and the consumers of those counts against their broadcast forms; plus
the closed-form marginals of the uniform ball in d >= 3, which make d = 3
quantile covers usable.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_scan as ref
from mcqmclab.ballwalk import make_metropolis_system
from mcqmclab.chain import make_lazy_direct_kernel, run_chain
from mcqmclab.cli import main
from mcqmclab.core import (
    Rng,
    exp_linear_ball,
    exp_linear_interval,
    uniform_ball,
    uniform_box,
    uniform_driver,
    uniform_interval,
)
from mcqmclab.discrepancy import (
    DeltaCover,
    build_quantile_cover,
    pullback_discrepancy_mc,
    star_discrepancy_bracket,
    star_discrepancy_exact,
)
from mcqmclab.search import SearchConfig, best_of_k

COVERS = {
    "interval": lambda: build_quantile_cover(exp_linear_interval(1.0), 0.1),
    "disc": lambda: build_quantile_cover(uniform_ball(2), 0.25),
    "exp-disc": lambda: build_quantile_cover(exp_linear_ball(1.0, 2), 0.5),
    "box3": lambda: build_quantile_cover(uniform_box([-1.0] * 3, [1.0] * 3), 0.5),
    "ball3": lambda: build_quantile_cover(uniform_ball(3), 0.75),
}


def _points(cover, n, seed):
    """Points in [-1, 1]^d, some exactly on cuts, on the domain's edges, and
    a few non-finite coordinates."""
    d = len(cover.cuts)
    pts = -1.0 + 2.0 * Rng(seed).uniforms(n * d).reshape(n, d)
    for j, cj in enumerate(cover.cuts):
        pts[j : j + len(cj), j] = cj[: n - j]
        pts[-1 - j, j] = -1.0
        pts[-4 - j, j] = 1.0
    pts[n // 2, 0] = np.inf
    pts[n // 2 + 1, d - 1] = -np.inf
    pts[n // 2 + 2, 0] = np.nan
    return pts


@pytest.mark.parametrize("name", sorted(COVERS))
def test_one_point_set_matches_broadcast(name):
    cover = COVERS[name]()
    pts = _points(cover, 40, 1)
    got = cover.fractions_below(pts)
    assert got.shape == (cover.size,)
    assert np.array_equal(got, ref.broadcast_fractions_below(pts, cover.corners))


@pytest.mark.parametrize("name", sorted(COVERS))
def test_stacked_point_sets_match_broadcast(name):
    cover = COVERS[name]()
    stack = np.stack([_points(cover, 24, seed) for seed in range(6)]).reshape(2, 3, 24, -1)
    got = cover.fractions_below(stack)
    assert got.shape == (2, 3, cover.size)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(got[i, j], ref.broadcast_fractions_below(stack[i, j], cover.corners))
    # b = 1 stacked is the unstacked call
    assert np.array_equal(cover.fractions_below(stack[0, :1])[0], got[0, 0])


def test_full_and_empty_rows():
    cover = COVERS["disc"]()
    pts = np.clip(np.nan_to_num(_points(cover, 40, 2)), -1.0, 1.0)
    got = cover.fractions_below(pts)
    corners = cover.corners
    assert got[np.all(corners == np.inf, axis=1)].tolist() == [1.0]
    assert got[-1] == 0.0 and np.all(corners[-1] == -np.inf)
    # a row with +inf on one axis counts the points below its cut on the other
    row = np.flatnonzero((corners[:, 0] == np.inf) & (corners[:, 1] == cover.cuts[1][2]))
    assert got[row].tolist() == [np.mean(pts[:, 1] < cover.cuts[1][2])]
    # a point with a +inf or NaN coordinate is inside no member
    odd = cover.fractions_below([[np.inf, 0.0], [0.0, np.nan], [-np.inf, 0.0], [0.0, 0.0]])
    assert odd[np.all(corners == np.inf, axis=1)].tolist() == [0.5]


def test_corners_follow_cuts():
    cover = COVERS["box3"]()
    rebuilt = DeltaCover(cover.delta, cover.measure, cover.cuts)
    assert np.array_equal(rebuilt.corners, cover.corners)
    assert rebuilt.size == len(cover.corners) == (len(cover.cuts[0]) + 1) ** 3 + 1
    grid = np.meshgrid(*[np.append(c, np.inf) for c in cover.cuts], indexing="ij")
    assert np.array_equal(cover.corners[:-1], np.stack(grid, axis=-1).reshape(-1, 3))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_size_counts_members_without_building_them(d):
    cover = build_quantile_cover(uniform_box([0.0] * d, [1.0] * d), 0.3)
    points = Rng(d).uniforms(20 * d).reshape(20, d)
    star_discrepancy_bracket(points, cover.measure, cover)
    assert "corners" not in vars(cover)
    assert cover.size == len(cover.corners)


def test_bad_shapes_rejected():
    cover = COVERS["disc"]()
    for bad in (np.zeros(5), np.zeros((4, 3)), np.zeros((0, 2))):
        with pytest.raises(ValueError):
            cover.fractions_below(bad)


_DISC_COVER = COVERS["disc"]()


@given(
    st.lists(
        st.tuples(
            st.one_of(st.floats(-1.0, 1.0), st.sampled_from(list(_DISC_COVER.cuts[0]))),
            st.one_of(st.floats(-1.0, 1.0), st.sampled_from(list(_DISC_COVER.cuts[1]))),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_random_point_sets_match_broadcast(rows):
    pts = np.array(rows, float)
    got = _DISC_COVER.fractions_below(pts)
    assert np.array_equal(got, ref.broadcast_fractions_below(pts, _DISC_COVER.corners))


# ---------------------------------------------------------------------------
# consumers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["interval", "disc", "exp-disc", "box3"])
def test_bracket_matches_broadcast(name):
    cover = COVERS[name]()
    for seed in range(3):
        pts = np.clip(np.nan_to_num(_points(cover, 40, 10 + seed)), -1.0, 1.0)
        assert star_discrepancy_bracket(pts, cover.measure, cover) == ref.broadcast_bracket(pts, cover)


def test_exact_marginal_pullback_matches_broadcast():
    system = make_lazy_direct_kernel(exp_linear_interval(1.0), a=0.5, nu=uniform_interval())
    cover = build_quantile_cover(system.target, 0.05)
    for seed in range(3):
        driver = uniform_driver(80, 2, Rng(seed))
        got = pullback_discrepancy_mc(system, driver, 8, cover, 0, Rng(0))
        assert got == ref.broadcast_pullback(system, driver, 8, cover, 0, Rng(0))


@pytest.mark.parametrize("d, delta", [(1, 0.1), (2, 0.5)])
def test_monte_carlo_pullback_matches_broadcast(d, delta):
    system = make_metropolis_system("exp-linear", 1.0, 0.3, d)
    cover = build_quantile_cover(system.target, delta)
    driver = uniform_driver(40, system.s, Rng(5))
    got = pullback_discrepancy_mc(system, driver, 4, cover, 100, Rng(9))
    assert got.mc_stderr > 0.0
    assert got == ref.broadcast_pullback(system, driver, 4, cover, 100, Rng(9))


# ---------------------------------------------------------------------------
# uniform-ball marginals in d >= 3
# ---------------------------------------------------------------------------


def test_uniform_ball_3_marginal_closed_form():
    ball = uniform_ball(3)
    t = np.linspace(-1.0, 1.0, 4001)
    for j in range(3):
        cdf = ball.marginal_cdf(j, t)
        assert np.max(np.abs(cdf - (t + 1.0) ** 2 * (2.0 - t) / 4.0)) <= 1e-14
        assert np.all(np.diff(cdf) > 0.0)
    assert ball.marginal_cdf(0, [-np.inf, -2.0, 2.0, np.inf]).tolist() == [0.0, 0.0, 1.0, 1.0]
    levels = np.arange(1, 8) / 8
    assert np.max(np.abs(ball.marginal_cdf(1, ball.marginal_quantile(1, levels)) - levels)) <= 1e-11


def test_uniform_ball_3_cover_search_runs(tmp_path):
    cfg = {
        "experiment": "search",
        "dimension": 3,
        "density": {"name": "uniform", "alpha": 0.0},
        "kernel": "metropolis-ballwalk",
        "gamma": "gamma-star",
        "n": 12,
        "n0": 4,
        "k": 2,
        "objective": "star-bracket",
        "delta": 0.25,
        "seed": 3,
        "output": str(tmp_path / "out.csv"),
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0
    row = (tmp_path / "out.csv").read_text().splitlines()[1].split(",")
    gamma = json.loads((tmp_path / "out.csv.manifest.json").read_text())["gamma"]

    # the same search in the library, and the exact scan of its chosen path
    system = make_metropolis_system("uniform", 0.0, gamma, 3)
    sc = SearchConfig(n=12, k=2, seed=3, n0=4, objective="star-bracket", delta=0.25)
    result = best_of_k(system, sc, cover=build_quantile_cover(system.target, 0.25))
    bracket = result.best_report
    assert [float(v) for v in row[2:4]] == [bracket.lower, bracket.upper]
    exact = star_discrepancy_exact(run_chain(system, result.best_driver, 4), system.target)
    assert bracket.lower <= exact.upper and exact.lower <= bracket.upper
