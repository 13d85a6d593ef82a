"""Tensor critical-grid scan and batched box-mass oracle against their
references: the one-corner-at-a-time scan in ``scalar_scan`` (bit for bit
where the masses are unchanged), scipy quadrature of the disc masses, and
the paths on which the old per-corner disc quadrature misstated its error;
the grid oracle against the box-mass rows of its grid; and the d = 3 ball's
profile rule against scipy quadrature along x1 of the closed-form sections.
"""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import scalar_scan as ref
from mcqmclab import core, discrepancy
from mcqmclab.ballwalk import make_metropolis_system
from mcqmclab.chain import run_chains
from mcqmclab.cli import main
from mcqmclab.core import (
    BallDomain,
    BoxDomain,
    Rng,
    TargetMeasure,
    exp_linear_ball,
    exp_linear_box,
    exp_linear_interval,
    uniform_ball,
    uniform_box,
    uniform_driver,
    uniform_interval,
)
from mcqmclab.discrepancy import star_discrepancy_exact


def _quad_interval():
    """exp(x) on [-1, 1] without a closed form: masses by quadrature."""
    return TargetMeasure(BoxDomain((-1.0,), (1.0,)), lambda x: np.exp(x[:, 0]))


def _quad_square():
    return TargetMeasure(
        BoxDomain((-1.0, -1.0), (1.0, 1.0)),
        lambda x: np.exp(0.5 * x[:, 0] - x[:, 1]),
    )


def _box_points(n, d, seed):
    pts = -1.0 + 2.0 * Rng(seed).uniforms(n * d).reshape(n, d)
    # ties on an axis and points on the domain boundary
    pts[1, 0] = pts[0, 0]
    pts[2, -1] = -1.0
    pts[3, 0] = 1.0
    return pts


def _ball_points(n, d, seed):
    pts = _box_points(n, d, seed)
    pts[2, -1] = -0.5
    pts[3, 0] = 0.5
    return pts / math.sqrt(d)


def _same_as_scalar(pts, measure, oracle=None):
    report = star_discrepancy_exact(pts, measure)
    lower, upper = ref.star_discrepancy_scan(pts, oracle or ref.measure_oracle(measure))
    assert (report.lower, report.upper) == (lower, upper)
    return report


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("alpha", [0.0, 1.3])
def test_product_measures_bit_identical(alpha, d):
    lo, hi = [-1.0, -0.5, 0.0][:d], [1.0, 2.0, 0.5][:d]
    measure = uniform_box(lo, hi) if alpha == 0.0 else exp_linear_box(alpha, lo, hi)
    oracle = ref.product_oracle(alpha, lo, hi)
    for seed in range(3):
        pts = lo + (np.array(hi) - lo) * (1.0 + _box_points(12 if d == 2 else 6, d, seed)) / 2.0
        _same_as_scalar(pts, measure, oracle)


@pytest.mark.parametrize("alpha", [0.0, 1.3])
def test_interval_presets_bit_identical(alpha):
    # the d = 1 count grid with the closed-form masses from box_masses;
    # the points include ties and both ends of the domain
    measure = uniform_interval() if alpha == 0.0 else exp_linear_interval(alpha)
    oracle = ref.product_oracle(alpha, [-1.0], [1.0])
    for seed in range(3):
        report = _same_as_scalar(_box_points(40, 1, seed), measure, oracle)
        assert report.lower == report.upper


def test_quadrature_measures_bit_identical():
    for seed in range(3):
        report = _same_as_scalar(_box_points(10, 1, seed), _quad_interval())
        assert report.upper > report.lower  # quadrature error enters the bracket
    _same_as_scalar(_box_points(4, 2, 7), _quad_square())


@pytest.mark.parametrize("chunk_cells", [discrepancy._SCAN_CHUNK_CELLS, 10])
@given(st.integers(1, 3), st.sampled_from([0.0, 1.3]), st.data())
@settings(max_examples=40, deadline=None)
def test_random_ties_bit_identical(chunk_cells, d, alpha, data):
    # coordinates on 5 values per axis, domain ends included, so ties are
    # dense; 10 cells make the mass chunks end inside the grid
    lo, hi = np.array([-1.0, -0.5, 0.0][:d]), np.array([1.0, 2.0, 0.5][:d])
    measure = uniform_box(lo, hi) if alpha == 0.0 else exp_linear_box(alpha, lo, hi)
    n = data.draw(st.integers(1, 16))
    steps = data.draw(
        st.lists(st.lists(st.integers(0, 4), min_size=d, max_size=d), min_size=n, max_size=n)
    )
    pts = lo + (hi - lo) * np.array(steps) / 4.0
    with mock.patch.object(discrepancy, "_SCAN_CHUNK_CELLS", chunk_cells):
        _same_as_scalar(pts, measure, ref.product_oracle(alpha, lo, hi))


_BLOCK_MEASURES = {
    "uniform-interval": lambda: uniform_interval(),
    "exp-interval": lambda: exp_linear_interval(1.3),
    "quad-interval": _quad_interval,
    "exp-box": lambda: exp_linear_box(0.7, [-1.0, -0.5], [1.0, 2.0]),
    "uniform-disc": lambda: uniform_ball(2),
}


@pytest.mark.parametrize("chunk_cells", [discrepancy._SCAN_CHUNK_CELLS, 7])
@given(st.sampled_from(sorted(_BLOCK_MEASURES)), st.data())
@settings(max_examples=40, deadline=None)
def test_block_scans_equal_one_set_scans(chunk_cells, name, data):
    # sets of one size n whose coordinates sit on grids of 1 to 9 levels, so
    # that ties are common and the sets' distinct counts differ; the
    # quadrature interval has mass errors that are not 0, and 7 cells end
    # the d = 1 block's mass chunks inside a set's row
    measure = _BLOCK_MEASURES[name]()
    lo, hi = measure.domain.bounding()
    d, n = measure.dim, data.draw(st.integers(1, 12))
    sets = []
    for _ in range(data.draw(st.integers(1, 4))):
        levels = data.draw(st.integers(1, 9))
        steps = data.draw(st.lists(st.integers(0, levels), min_size=n * d, max_size=n * d))
        sets.append(lo + (hi - lo) * np.reshape(steps, (n, d)) / (levels + 1))
    if isinstance(measure.domain, BallDomain):
        sets = [pts / math.sqrt(2.0) for pts in sets]
    with mock.patch.object(discrepancy, "_SCAN_CHUNK_CELLS", chunk_cells):
        block = discrepancy._exact_scans(np.stack(sets), measure)
    one = [star_discrepancy_exact(pts, measure) for pts in sets]
    assert block == one
    for report, pts in zip(block, sets):
        assert (report.lower, report.upper) == ref.star_discrepancy_scan(pts, ref.measure_oracle(measure))
    if name == "quad-interval":
        # a point inside the domain is a corner with a quadrature error
        inside = [bool(np.any((lo < pts) & (pts < hi))) for pts in sets]
        assert [r.upper > r.lower for r in block] == inside


@pytest.mark.parametrize("name", ["uniform-interval", "exp-interval", "quad-interval"])
def test_signed_zeros_and_tie_runs_bit_identical(name):
    # d = 1 sets holding -0.0 and +0.0, one critical corner, and runs of
    # tied states at a set's start, middle and end, one of them the whole
    # set and equal to the largest point of the set before; the last set
    # is a ball-walk path with rejected stretches of 3 or more steps
    measure = _BLOCK_MEASURES[name]()
    x = 0.3
    sets = [
        [-0.0, 0.0, 0.5, x, x, x, x, -0.5, -0.0, 1.0],
        [x, x, x, 0.0, -0.0, -0.0, 0.9, -1.0, 0.0, x],
        [0.2, 0.0, -0.7, -0.0, -1.0, x, x, x, x, x],
        [x] * 10,
        [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
    ]
    walk = make_metropolis_system("uniform", 0.0, 1.9, 1)
    path = run_chains(walk, Rng(3).uniforms(10 * walk.s).reshape(1, 10, walk.s))[0, :, 0]
    assert max(len(list(run)) for _, run in itertools.groupby(path)) >= 3
    paths = np.array(sets + [path])[..., None]
    block = discrepancy._exact_scans(paths, measure)
    for report, pts in zip(block, paths):
        assert (report.lower, report.upper) == ref.star_discrepancy_scan(pts, ref.measure_oracle(measure))


def test_chunked_scan_matches_one_chunk(monkeypatch):
    cases = [
        (_box_points(14, 2, 1), exp_linear_box(0.7, [-1.0] * 2, [1.0] * 2)),
        (_box_points(7, 3, 2), uniform_box([-1.0] * 3, [1.0] * 3)),
        (_ball_points(20, 2, 3), exp_linear_ball(1.0, 2)),
        (_box_points(9, 1, 4), _quad_interval()),
    ]
    whole = [star_discrepancy_exact(pts, m) for pts, m in cases]
    monkeypatch.setattr(discrepancy, "_SCAN_CHUNK_CELLS", 5)
    assert [star_discrepancy_exact(pts, m) for pts, m in cases] == whole


# ---------------------------------------------------------------------------
# Disc masses against scipy quadrature
# ---------------------------------------------------------------------------

# the corner of the uniform-disc path of chain seed 105003 on which the old
# per-corner quadrature returned 0.40604663 with an error of 3.3e-10
FOUND_CORNER = (0.5513046183381858, -0.020438582971054553)
DISC_CORNERS = [
    FOUND_CORNER,
    (0.0, 0.0),
    (0.3, 1e-9),
    (0.3, -1e-9),
    (-0.95, 0.4),
    (0.99, -0.999),
    (0.7, -0.6),
    (-0.2, 0.8),
    (np.inf, -0.02),
    (0.4, np.inf),
]


def _disc_reference(alpha, c1, c2):
    """Unnormalized mass of exp(alpha x1) on the unit disc below (c1, c2) by
    dblquad over x1, split where the x2-section changes form."""
    c1, c2 = min(c1, 1.0), min(c2, 1.0)
    s = math.sqrt(1.0 - c2 * c2)
    total = 0.0
    for a, b in zip((-1.0, -s, s), (-s, s, 1.0)):
        b = min(b, c1)
        if b > a:
            total += integrate.dblquad(
                lambda y, x: math.exp(alpha * x), a, b,
                lambda x: -math.sqrt(max(1.0 - x * x, 0.0)),
                lambda x: max(min(c2, math.sqrt(max(1.0 - x * x, 0.0))), -math.sqrt(max(1.0 - x * x, 0.0))),
                epsabs=1e-14, epsrel=1e-13,
            )[0]
    return total


@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
def test_disc_masses_match_dblquad(alpha):
    measure = uniform_ball(2) if alpha == 0.0 else exp_linear_ball(alpha, 2)
    masses, err = measure.box_masses(np.array(DISC_CORNERS))
    z = _disc_reference(alpha, 1.0, 1.0)
    want = [_disc_reference(alpha, *c) / z for c in DISC_CORNERS]
    # tolerance: dblquad's own accuracy at these settings
    assert np.max(np.abs(masses - want)) <= 1e-11
    if alpha == 0.0:
        assert err == 0.0
        assert masses[0] == pytest.approx(0.40604708, abs=5e-9)
    else:
        assert err <= 1e-13


def test_uniform_disc_profile_rule_matches_closed_form():
    corners = np.array(DISC_CORNERS)
    rule, err = exp_linear_ball(0.0, 2).box_masses(corners)
    closed, _ = uniform_ball(2).box_masses(corners)
    assert np.max(np.abs(rule - closed)) <= 1e-14
    assert err <= 1e-13


# ---------------------------------------------------------------------------
# Brackets on the paths where the old disc quadrature missed D*
# ---------------------------------------------------------------------------


def _kinked_quad_oracle(alpha):
    """Independent disc masses: adaptive quadrature over x1 = sin(theta) of
    exp(alpha x1) times the x2-section length, with the kinks at
    |x1| = sqrt(1 - c2^2) given to quad."""

    def raw(c1, c2):
        top = math.asin(min(c1, 1.0))
        c2 = min(c2, 1.0)
        kink = math.acos(abs(c2))

        def f(theta):
            h = math.cos(theta)
            return math.exp(alpha * math.sin(theta)) * max(min(c2, h) + h, 0.0) * h

        kinks = [p for p in (-kink, kink) if -0.5 * math.pi < p < top]
        return integrate.quad(
            f, -0.5 * math.pi, top, points=kinks or None, epsabs=1e-14, epsrel=1e-13, limit=200
        )[0]

    z = raw(1.0, 1.0)
    cache = {}

    def mass(corner):
        if np.any(corner <= -1.0):
            return 0.0, 0.0
        key = corner.tobytes()
        if key not in cache:
            cache[key] = (min(max(raw(*corner) / z, 0.0), 1.0), 0.0)
        return cache[key]

    return mass


@pytest.mark.parametrize(
    "density, seed",
    [
        ({"name": "uniform", "alpha": 0.0}, 105003),
        ({"name": "uniform", "alpha": 0.0}, 201007),
        ({"name": "exp-linear", "alpha": 1.0}, 326015),
    ],
)
def test_disc_bracket_contains_star_discrepancy(tmp_path, density, seed):
    out = tmp_path / "scan.csv"
    cfg = {
        "experiment": "discrepancy", "dimension": 2, "density": density,
        "n": 32, "n0": 64, "seed": seed, "output": str(out),
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0
    header, row = out.read_text().split()
    got = dict(zip(header.split(","), map(float, row.split(","))))
    gamma = json.loads((tmp_path / "scan.csv.manifest.json").read_text())["gamma"]
    system = make_metropolis_system(density["name"], density["alpha"], gamma, 2)
    retained = run_chains(system, uniform_driver(96, system.s, Rng(seed))[None], burn_in=64)[0]
    star, _ = ref.star_discrepancy_scan(retained, _kinked_quad_oracle(density["alpha"]))
    # the reference masses are accurate to about 1e-14
    assert got["disc_lower"] - 1e-12 <= star <= got["disc_upper"] + 1e-12


# ---------------------------------------------------------------------------
# Batched oracle against its one-row calls
# ---------------------------------------------------------------------------

MEASURES = {
    "uniform-interval": uniform_interval(-1.0, 1.0),
    "exp-linear-interval": exp_linear_interval(1.5),
    "quad-interval": _quad_interval(),
    "uniform-box-2": uniform_box([-1.0, -1.0], [1.0, 1.0]),
    "exp-linear-box-3": exp_linear_box(0.8, [-1.0] * 3, [1.0] * 3),
    "uniform-disc": uniform_ball(2),
    "exp-linear-disc": exp_linear_ball(2.0, 2),
    "uniform-ball-3": uniform_ball(3),
}
_COORD = st.one_of(
    st.floats(-1.2, 1.2, allow_nan=False), st.sampled_from([-np.inf, np.inf, -1.0, 1.0, 0.0])
)


@given(st.sampled_from(sorted(MEASURES)), st.data())
@settings(max_examples=80, deadline=None)
def test_box_masses_equal_row_by_row(name, data):
    measure = MEASURES[name]
    rows = data.draw(st.integers(1, 12))
    corners = np.array(
        data.draw(st.lists(st.lists(_COORD, min_size=measure.dim, max_size=measure.dim),
                           min_size=rows, max_size=rows))
    )
    masses, err = measure.box_masses(corners)
    singles = [measure.box_mass(c) for c in corners]
    assert np.array_equal(masses, [m for m, _ in singles])
    assert err == max(e for _, e in singles)


# ---------------------------------------------------------------------------
# Grid oracle against the rows of its grid
# ---------------------------------------------------------------------------

_GRID_COORD = st.one_of(_COORD, st.just(np.nan))


def _draw_axes(data, d):
    return [
        np.array(data.draw(st.lists(_GRID_COORD, min_size=1, max_size=5)), float)
        for _ in range(d)
    ]


def _grid_rows(axes):
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, len(axes))


@given(st.sampled_from(sorted(k for k, m in MEASURES.items() if m.profile is None)), st.data())
@settings(max_examples=80, deadline=None)
def test_grid_masses_are_box_masses_of_the_rows(name, data):
    # every measure without a profile rule: the grid's rows in C order, bit
    # for bit, with +-inf, NaN and values outside the domain on every axis
    measure = MEASURES[name]
    axes = _draw_axes(data, measure.dim)
    masses, err = measure.grid_masses(axes)
    rows, rows_err = measure.box_masses(_grid_rows(axes))
    assert masses.shape == tuple(a.size for a in axes)
    assert np.array_equal(masses.ravel(), rows, equal_nan=True)
    assert np.array_equal(err, rows_err, equal_nan=True)


@pytest.mark.parametrize("alpha", [0.0, 2.0, 4.0])
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_profile_grid_agrees_with_rows(alpha, data):
    # the disc and the 3-ball; the errors do not include rounding, about
    # 1e-15
    for d in (2, 3):
        measure = exp_linear_ball(alpha, d)
        axes = _draw_axes(data, d)
        masses, err = measure.grid_masses(axes)
        rows, rows_err = measure.box_masses(_grid_rows(axes))
        rows = rows.reshape(masses.shape)
        assert np.array_equal(np.isnan(masses), np.isnan(rows))
        if np.isnan(masses).any():
            assert math.isnan(err) and math.isnan(rows_err)
        else:
            assert np.max(np.abs(masses - rows)) <= err + rows_err + 1e-15
            # the special cases are exact on both paths
            grid = np.meshgrid(*axes, indexing="ij")
            exact = np.any([g <= -1.0 for g in grid], axis=0) | np.all([g >= 1.0 for g in grid], axis=0)
            assert np.array_equal(masses[exact], rows[exact])


def _near_kinks_and_edges():
    """Corner values on both axes: near +-1, and c1 near the kinks
    |x1| = sqrt(1 - c2^2) of the c2 values."""
    c2 = np.array([-1.0 + 1e-12, -0.999999, -0.6, -1e-9, 0.0, 1e-9, 0.6, 0.999999, 1.0 - 1e-12])
    s = np.sqrt(1.0 - c2 * c2)
    c1 = np.concatenate([s, -s, s + 1e-9, -s - 1e-9, [-1.0 + 1e-12, -0.999999, 0.999999, 1.0 - 1e-12]])
    return np.unique(c1[(c1 > -1.0) & (c1 < 1.0)]), c2


@pytest.mark.parametrize("alpha", [1.0, 4.0])
def test_profile_masses_match_kinked_quadrature(alpha):
    measure = exp_linear_ball(alpha, 2)
    oracle = _kinked_quad_oracle(alpha)
    c1, c2 = _near_kinks_and_edges()
    rows = _grid_rows([c1, c2])
    want = np.array([oracle(c)[0] for c in rows])
    grid, grid_err = measure.grid_masses([c1, c2])
    masses, err = measure.box_masses(rows)
    # the reference is accurate to about 1e-15 here
    assert np.max(np.abs(grid.ravel() - want)) <= grid_err + 1e-15
    assert np.max(np.abs(masses - want)) <= err + 1e-15
    assert grid_err <= 1e-14 and err <= 1e-14


@pytest.mark.parametrize("alpha", [1.0, 4.0])
def test_profile_grid_does_not_depend_on_the_chunk(monkeypatch, alpha):
    measure = exp_linear_ball(alpha, 2)
    pts = _ball_points(40, 2, 5)
    pts[5:9, 1] = pts[4, 1]  # a column shared by several points
    c1 = np.append(np.unique(pts[:, 0]), np.inf)
    c2 = np.append(np.unique(pts[:, 1]), np.inf)
    whole, err = measure.grid_masses([c1, c2])
    # the columns one at a time: a column's masses depend on it alone
    single = [measure.grid_masses([c1, c2[k : k + 1]]) for k in range(c2.size)]
    assert np.array_equal(np.hstack([m for m, _ in single]), whole)
    assert max(e for _, e in single) == err
    report = star_discrepancy_exact(pts, measure)
    monkeypatch.setattr(discrepancy, "_SCAN_CHUNK_CELLS", 5)
    assert star_discrepancy_exact(pts, measure) == report


# ---------------------------------------------------------------------------
# The d = 3 ball's profile rule against quadrature along x1
# ---------------------------------------------------------------------------


def _unit_disc_area(t, c):
    """Area of the unit disc below (t, c) in [-1, 1]^2 in Python floats: the
    closed form of ``core._uniform_disc_mass`` (checked against dblquad
    above) times pi."""
    G = lambda u: 0.5 * (u * math.sqrt(1.0 - u * u) + math.asin(u))
    s = math.sqrt(1.0 - c * c)
    mid = min(max(t, -s), s)
    inner = G(mid) - G(-s) + c * (mid + s)
    return inner + (2.0 * (G(min(t, -s)) - G(-1.0) + G(max(t, s)) - G(s)) if c >= 0.0 else 0.0)


def _ball3_quad_oracle(alpha):
    """Independent d = 3 ball masses: adaptive quadrature along x1 of
    exp(alpha x1) times the area of the disc section below (c2, c3), rho^2
    times the unit disc's area below (c2, c3) / rho, with the kinks at
    rho = |c2|, |c3| and min(|(c2, c3)|, 1) given to quad."""

    def raw(c):
        c1, h = min(c[0], 1.0), np.minimum(np.asarray(c[1:], float), 1.0).tolist()

        def f(x):
            rho = math.sqrt(max(1.0 - x * x, 0.0))
            if rho == 0.0:
                return 0.0
            t, u = (min(max(v / rho, -1.0), 1.0) for v in h)
            return math.exp(alpha * x) * rho * rho * _unit_disc_area(t, u)

        kinks = [abs(h[0]), abs(h[1]), min(math.hypot(*h), 1.0)]
        points = sorted({s * math.sqrt(1.0 - k * k) for k in kinks for s in (-1.0, 1.0)})
        points = [p for p in points if -1.0 < p < c1]
        return integrate.quad(f, -1.0, c1, points=points or None, epsabs=1e-15, epsrel=1e-13, limit=400)[0]

    z = raw([1.0, 1.0, 1.0])
    cache = {}

    def mass(corner):
        corner = np.asarray(corner, float)
        if np.any(corner <= -1.0):
            return 0.0, 0.0
        key = corner.tobytes()
        if key not in cache:
            cache[key] = (min(max(raw(corner) / z, 0.0), 1.0), 0.0)
        return cache[key]

    return mass


def _ball3_corners():
    """Corners of the d = 3 ball: random ones, the orthant, corners on and
    beside the kinks of their column, and +inf entries."""
    rng = Rng(17)
    c = 2.0 * rng.uniforms(24).reshape(8, 3) - 1.0
    h = c[:, 1:]
    near = []
    for k, col in ((abs(h[0, 0]), h[0]), (math.hypot(*h[0]), h[0]), (abs(h[1, 1]), h[1])):
        x = math.sqrt(1.0 - k * k)
        near += [[s * x + e, *col] for s in (-1.0, 1.0) for e in (-1e-9, 0.0, 1e-9)]
    special = [[0.0, 0.0, 0.0], [0.3, np.inf, -0.2], [np.inf, 0.4, 0.1], [-0.6, 0.99, np.inf], [0.9, -0.95, -0.1]]
    return np.vstack([c, near, special])


@pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0])
def test_ball3_masses_match_kinked_quadrature(alpha):
    measure = uniform_ball(3) if alpha == 0.0 else exp_linear_ball(alpha, 3)
    oracle = _ball3_quad_oracle(alpha)
    corners = _ball3_corners()
    want = np.array([oracle(c)[0] for c in corners])
    masses, err = measure.box_masses(corners)
    # the reference is accurate to about 1e-13
    assert err <= 1e-8
    assert np.max(np.abs(masses - want)) <= err + 1e-12
    # the grid of a random corner, a corner beside and one on a kink, the
    # orthant and +inf on every axis
    axes = [np.append(corners[[0, 13, 17, 26], j], np.inf) for j in range(3)]
    grid, grid_err = measure.grid_masses(axes)
    want = np.array([oracle(c)[0] for c in _grid_rows(axes)])
    assert grid_err <= 1e-8
    assert np.max(np.abs(grid.ravel() - want)) <= grid_err + 1e-12


@pytest.mark.parametrize("make", [uniform_ball, lambda d: exp_linear_ball(1.0, d)])
def test_ball3_scan_bracket_contains_star_discrepancy(make):
    # the exact scan of a d = 3 set against the one-corner scan with the
    # quadrature masses
    measure = make(3)
    pts = _ball_points(5, 3, 11)
    report = star_discrepancy_exact(pts, measure)
    alpha = 0.0 if measure.exact_marginal_cdf is not None else 1.0
    star, _ = ref.star_discrepancy_scan(pts, _ball3_quad_oracle(alpha))
    assert report.upper - report.lower <= 2e-8
    assert report.lower - 1e-12 <= star <= report.upper + 1e-12


@pytest.mark.parametrize(
    "name", ["exp-linear-disc", "uniform-ball-3", "exp-linear-ball-3"]
)
def test_profile_masses_do_not_depend_on_the_chunk(monkeypatch, name):
    measure = {"exp-linear-disc": exp_linear_ball(2.0, 2), "uniform-ball-3": uniform_ball(3),
               "exp-linear-ball-3": exp_linear_ball(1.0, 3)}[name]
    corners = _ball_points(60, measure.dim, 4)
    corners[::5, -1] = np.inf
    axes = [np.append(np.unique(corners[:12, j]), np.inf) for j in range(measure.dim)]
    whole = measure.box_masses(corners), measure.grid_masses(axes)
    # a chunk below one column's integrand values: every column is its own
    # chunk
    monkeypatch.setattr(core, "_PROFILE_CHUNK", 1)
    single = measure.box_masses(corners), measure.grid_masses(axes)
    for (m, e), (m1, e1) in zip(whole, single):
        assert m1.tobytes() == m.tobytes() and e1 == e


def test_profile_temporaries_are_bounded_by_the_chunk():
    # a d = 3 cover's grid with 4 levels and 1600, then 6400 columns: the
    # column chunks bound the temporaries, so the peak stays below 20
    # chunks of floats (measured 12.5 and 14.3; in one chunk, 186 and 745)
    import tracemalloc

    measure = uniform_ball(3)
    cover = discrepancy.build_quantile_cover(measure, 0.12)
    c1 = np.append(cover.cuts[0][:3], np.inf)
    peaks = []
    for n in (40, 80):
        trailing = [np.linspace(-0.9, 0.9, n)] * 2
        tracemalloc.start()
        measure.grid_masses([c1, *trailing])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert max(peaks) < 20 * core._PROFILE_CHUNK * 8
