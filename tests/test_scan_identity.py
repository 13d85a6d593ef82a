"""Tensor critical-grid scan and batched box-mass oracle against their
references: the one-corner-at-a-time scan in ``scalar_scan`` (bit for bit
where the masses are unchanged), scipy quadrature of the disc masses, and
the paths on which the old per-corner disc quadrature misstated its error;
the grid oracle against the box-mass rows of its grid; and the batched
stratified estimate against the one-corner estimate in ``scalar_masses``.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import scalar_masses
import scalar_scan as ref
from mcqmclab import core, discrepancy
from mcqmclab.ballwalk import make_metropolis_system
from mcqmclab.chain import run_chain
from mcqmclab.cli import main
from mcqmclab.core import (
    AnchoredBox,
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
    return TargetMeasure(BoxDomain((-1.0,), (1.0,)), lambda x: np.exp(x[:, 0]), name="quad")


def _quad_square():
    return TargetMeasure(
        BoxDomain((-1.0, -1.0), (1.0, 1.0)),
        lambda x: np.exp(0.5 * x[:, 0] - x[:, 1]),
        name="quad-square",
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


@pytest.mark.parametrize("make", [uniform_ball, lambda d: exp_linear_ball(1.0, d)])
def test_stratified_ball_bit_identical(make):
    _same_as_scalar(_ball_points(5, 3, 11), make(3))


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
    retained = run_chain(system, uniform_driver(96, system.s, Rng(seed)), burn_in=64)
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
    singles = [measure.box_mass(AnchoredBox(c)) for c in corners]
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
    # the errors do not include rounding, about 1e-15
    measure = exp_linear_ball(alpha, 2)
    axes = _draw_axes(data, 2)
    masses, err = measure.grid_masses(axes)
    rows, rows_err = measure.box_masses(_grid_rows(axes))
    rows = rows.reshape(masses.shape)
    assert np.array_equal(np.isnan(masses), np.isnan(rows))
    if np.isnan(masses).any():
        assert math.isnan(err) and math.isnan(rows_err)
    else:
        assert np.max(np.abs(masses - rows)) <= err + rows_err + 1e-15
        # the special cases are exact on both paths
        exact = (axes[0][:, None] <= -1.0) | (axes[1] <= -1.0) | (axes[0][:, None] >= 1.0) & (axes[1] >= 1.0)
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
# Batched stratified estimate against the one-corner estimate
# ---------------------------------------------------------------------------

STRATIFIED = {
    "uniform-ball-3": uniform_ball(3),
    "uniform-ball-4": uniform_ball(4),
    "exp-linear-ball-3": exp_linear_ball(1.0, 3),
    "exp-linear-ball-4": exp_linear_ball(2.0, 4),
    # a disc density without a profile gets the stratified estimate
    "custom-disc": TargetMeasure(BallDomain(2), lambda x: np.exp(x[:, 0] - 0.5 * x[:, 1])),
}


def _same_as_one_corner(measure, rows, masses, err):
    want = [scalar_masses.stratified_box_mass(measure, c) for c in rows]
    assert masses.tobytes() == np.array([m for m, _ in want]).tobytes()
    assert np.array_equal(err, max(e for _, e in want), equal_nan=True)


@given(st.sampled_from(sorted(STRATIFIED)), st.data())
@settings(max_examples=60, deadline=None)
def test_stratified_masses_equal_one_corner_estimate(name, data):
    # rows at the upper bound (1.0), +-inf entries and single rows among
    # them; the grid's rows go through the same estimate
    measure = STRATIFIED[name]
    d = measure.dim
    rows = data.draw(st.integers(1, 6))
    corners = np.array(
        data.draw(st.lists(st.lists(_COORD, min_size=d, max_size=d), min_size=rows, max_size=rows))
    )
    _same_as_one_corner(measure, corners, *measure.box_masses(corners))
    size = 3 if d < 4 else 2
    axes = [np.array(data.draw(st.lists(_COORD, min_size=1, max_size=size))) for _ in range(d)]
    masses, err = measure.grid_masses(axes)
    _same_as_one_corner(measure, _grid_rows(axes), masses.ravel(), err)


@pytest.mark.parametrize("name", sorted(STRATIFIED))
def test_stratified_normalizer_equals_one_corner_estimate(name):
    measure = STRATIFIED[name]
    want = scalar_masses.stratified_normalizer(measure)
    assert (measure.normalizer, measure.normalizer_error) == want


@pytest.mark.parametrize("name", ["uniform-ball-3", "exp-linear-ball-4"])
def test_stratified_masses_do_not_depend_on_the_chunk(monkeypatch, name):
    measure = STRATIFIED[name]
    corners = _ball_points(60, measure.dim, 4)
    corners[::5, -1] = np.inf
    whole, err = measure.box_masses(corners)
    # a bound below one row's uniforms: every row is its own chunk
    monkeypatch.setattr(core, "_STRATIFIED_CHUNK", 1)
    single, single_err = measure.box_masses(corners)
    assert single.tobytes() == whole.tobytes() and single_err == err
