import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import scalar_masses
from scalar_bounds import radical_inverse
from mcqmclab import core
from mcqmclab.chain import make_direct_kernel, make_lazy_direct_kernel, run_chains
from mcqmclab.core import (
    _PRIMES,
    BallDomain,
    BoxDomain,
    Rng,
    TargetMeasure,
    exp_linear_ball,
    exp_linear_box,
    exp_linear_interval,
    halton_sequence,
    uniform_ball,
    uniform_box,
    uniform_driver,
    uniform_interval,
)
from mcqmclab.discrepancy import build_quantile_cover


class TestRng:
    def test_scalar_and_block_streams_agree(self):
        a = Rng(42)
        b = Rng(42)
        xs = [a.uniform() for _ in range(100)]
        assert np.allclose(xs, b.uniforms(100), atol=0)

    def test_block_then_scalar_continues_stream(self):
        a = Rng(7)
        b = Rng(7)
        head = b.uniforms(10)
        tail = [b.uniform() for _ in range(5)]
        full = a.uniforms(15)
        assert np.array_equal(np.concatenate([head, tail]), full)

    def test_range(self):
        u = Rng(1).uniforms(10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_split_streams_differ_and_are_reproducible(self):
        r = Rng(5)
        a = r.split(0).uniforms(50)
        b = r.split(1).uniforms(50)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, Rng(5).split(0).uniforms(50))

    @given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.integers(0, 30))
    @example(0, 5, 7)
    @example(2**64 - 1, 5, 7)
    @settings(max_examples=60, deadline=None)
    def test_split_uniforms_rows_are_child_streams(self, seed, m, n):
        # the labels 0 .. m-1, then every third label from 5 on, backwards
        for labels in (range(m), range(5 + 3 * (m - 1), 4, -3)):
            block = Rng(seed).split_uniforms(labels, n)
            assert block.shape == (m, n)
            for r, label in enumerate(labels):
                assert np.array_equal(block[r], Rng(seed).split(label).uniforms(n))
        assert Rng(seed).split_uniforms([], n).shape == (0, n)

    @pytest.mark.parametrize("n", [core._SPLITMIX_CHUNK - 1, core._SPLITMIX_CHUNK, core._SPLITMIX_CHUNK + 1])
    def test_chunked_streams_are_stepped_streams(self, n):
        # one column chunk short of, at and past its size, from counter 0 and
        # from a counter inside the stream
        stepped = Rng(17)
        want = [stepped.uniform() for _ in range(n + 5)]
        assert Rng(17).uniforms(n).tolist() == want[:n]
        r = Rng(17)
        r.uniforms(5)
        assert r.uniforms(n).tolist() == want[5:]
        child = Rng(17).split(4)
        block = Rng(17).split_uniforms([4, 9], n)
        assert block[0].tolist() == [child.uniform() for _ in range(n)]
        assert block[1].tolist() == Rng(17).split(9).uniforms(n).tolist()

    @pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (0, 0), (7, 3), (5, 8), (2, 9), (13, 1)])
    def test_chunks_of_rows_and_columns(self, monkeypatch, m, n):
        # a chunk of 8 entries: several rows per chunk (n = 1 or 3), one row
        # (n = 8) and a row over two chunks (n = 9); each row is its child
        # stream stepped one output at a time, and ``out`` is written in place
        monkeypatch.setattr(core, "_SPLITMIX_CHUNK", 8)
        labels = list(range(3, 3 + 2 * m, 2))
        out = np.full((m, n), -1.0)
        assert Rng(21).split_uniforms(labels, n, out=out) is out
        for row, label in zip(out, labels):
            child = Rng(21).split(label)
            assert row.tolist() == [child.uniform() for _ in range(n)]
        r = Rng(21)
        r.uniforms(3)
        assert r.uniforms(m + n).tolist() == Rng(21).uniforms(m + n + 3)[3:].tolist()

    @pytest.mark.parametrize("label", [-1, 2**63, 2**63 + 1, 2**64 - 1, 2**64 + 1])
    def test_label_outside_63_bits_rejected(self, label):
        # 2 label + 1 is taken modulo 2^64: l and l + 2^63 would be one child
        with pytest.raises(ValueError, match="2\\^63"):
            Rng(5).split(label)
        with pytest.raises(ValueError, match="2\\^63"):
            Rng(5).split_uniforms([0, label], 4)

    def test_largest_label_kept(self):
        top = 2**63 - 1
        block = Rng(5).split_uniforms(np.array([top, 0], np.uint64), 6)
        assert block[0].tolist() == Rng(5).split(top).uniforms(6).tolist()
        assert Rng(5).split(top).seed != Rng(5).split(0).seed

    @pytest.mark.parametrize("seed", [2**64, -1, 2**70 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # masked, 2^64 would alias seed 0 and -1 seed 2^64 - 1
        with pytest.raises(ValueError, match="2\\^64"):
            Rng(seed)

    def test_largest_seed_kept(self):
        r = Rng(2**64 - 1)
        assert r.seed == 2**64 - 1
        assert not np.array_equal(r.uniforms(8), Rng(0).uniforms(8))

    def test_search_at_seed_2_64_rejected(self):
        from mcqmclab.search import SearchConfig, best_of_k

        system = make_direct_kernel(uniform_interval(-1.0, 1.0))
        with pytest.raises(ValueError, match="2\\^64"):
            best_of_k(system, SearchConfig(n=16, k=2, seed=2**64))

    def test_split_does_not_advance_parent(self):
        r = Rng(9)
        before = Rng(9).uniforms(5)
        r.split(3)
        assert np.array_equal(r.uniforms(5), before)

    def test_uniformity(self):
        # mean of 1e5 uniforms is 0.5 within 4 sigma = 4/(sqrt(12) sqrt(n))
        u = Rng(123).uniforms(100_000)
        assert abs(u.mean() - 0.5) < 4.0 / math.sqrt(12 * 100_000)


class TestDomains:
    def test_box(self):
        d = BoxDomain((-1.0, 0.0), (1.0, 2.0))
        assert d.contains(np.array([0.0, 1.0]))
        assert not d.contains(np.array([0.0, 2.5]))

    def test_ball(self):
        d = BallDomain(3)
        assert d.contains(np.zeros(3))
        assert not d.contains(np.array([1.0, 1.0, 0.0]))


class TestHalton:
    def test_base2_golden(self):
        pts = halton_sequence(3, 1)[:, 0]
        assert np.allclose(pts, [0.5, 0.25, 0.75], atol=0)

    def test_radical_inverse_base3(self):
        # 5 = 12 in base 3 -> reversed digits .21 = 2/3 + 1/9
        assert radical_inverse(5, 3) == pytest.approx(2 / 3 + 1 / 9, abs=1e-15)

    def test_sequence_is_the_scalar_radical_inverse(self):
        # the vectorized digit loop against radical_inverse, bit for bit
        n = 10_000
        pts = halton_sequence(n, len(_PRIMES))
        for j, base in enumerate(_PRIMES):
            assert np.array_equal(pts[:, j], [radical_inverse(i + 1, base) for i in range(n)])

    def test_dimensions_use_distinct_primes(self):
        pts = halton_sequence(4, 2)
        assert pts.shape == (4, 2) and pts.dtype == np.float64
        assert pts[0, 0] == 0.5 and pts[0, 1] == pytest.approx(1 / 3)

    def test_star_discrepancy_beats_random(self):
        # 1-D Halton is van der Corput; its discrepancy is O(log n / n)
        from mcqmclab.discrepancy import star_discrepancy_exact

        m = uniform_interval(0.0, 1.0)
        h = star_discrepancy_exact(halton_sequence(256, 1), m)
        assert h.lower < 0.04


class TestDriverSequence:
    # a driver D of shape (n, s) is replayed as the block D[None]; run_chains
    # is the one place a driver is checked
    def test_validation(self):
        direct = make_direct_kernel(uniform_interval())
        with pytest.raises(ValueError):
            run_chains(direct, np.array([[1.5]])[None])
        with pytest.raises(ValueError):
            run_chains(direct, np.empty((0, 1))[None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            run_chains(make_direct_kernel(uniform_interval()), np.array([[bad]])[None])
        lazy = make_lazy_direct_kernel(uniform_interval(), a=0.5)
        with pytest.raises(ValueError):
            run_chains(lazy, np.array([[0.2, 0.5], [0.3, bad]])[None])

    def test_uniform_driver_reproducible(self):
        a = uniform_driver(10, 2, Rng(3))
        b = uniform_driver(10, 2, Rng(3))
        assert a.shape == (10, 2) and a.dtype == np.float64
        assert np.array_equal(a, b)
        assert np.array_equal(a.ravel(), Rng(3).uniforms(20))


def _uniform_01():
    return uniform_interval(0.0, 1.0)


def _exp_linear_01():
    return exp_linear_interval(1.3, 0.0, 1.0)


def _quadrature_01():
    return TargetMeasure(BoxDomain((0.0,), (1.0,)), lambda x: 1.0 + x[:, 0] ** 2)


class TestIntervalMeasures:
    def test_uniform_cdf(self):
        m = uniform_interval(-1.0, 1.0)
        assert m.cdf(0.0) == 0.5
        assert m.inv_cdf(0.25) == -0.5

    def test_exp_linear_cdf_inverse_roundtrip(self):
        m = exp_linear_interval(1.0)
        for p in np.linspace(0.01, 0.99, 23):
            assert m.cdf(m.inv_cdf(p)) == pytest.approx(p, abs=1e-12)

    def test_exp_linear_mass_against_quadrature(self):
        # closed-form CDF vs the generic quadrature path on the same density
        from mcqmclab.core import TargetMeasure

        exact = exp_linear_interval(1.0)
        quad = TargetMeasure(BoxDomain((-1.0,), (1.0,)), lambda x: np.exp(x[:, 0]))
        for t in (-0.7, -0.2, 0.3, 0.9):
            m_exact, _ = exact.box_mass([t])
            m_quad, err = quad.box_mass([t])
            assert m_quad == pytest.approx(m_exact, abs=max(err, 1e-9))

    def test_box_mass_clipping(self):
        m = uniform_interval(-1.0, 1.0)
        assert m.box_mass([-2.0]) == (0.0, 0.0)
        assert m.box_mass([5.0]) == (1.0, 0.0)

    @pytest.mark.parametrize("make", [_uniform_01, _exp_linear_01, _quadrature_01])
    def test_cdf_is_the_box_mass(self, make):
        # one CDF path: cdf, marginal_cdf and the box masses of the corners
        # agree bit for bit inside, at and beyond the ends, and on NaN
        m = make()
        t = np.array([-np.inf, -1.5, 0.0, 1e-300, 0.25, 0.5, 0.75, 1.0, 1.5, np.inf, np.nan])
        masses = m.box_masses(t[:, None])[0]
        for got in (m.cdf(t), m.marginal_cdf(0, t), np.array([m.cdf(x) for x in t])):
            assert got.tobytes() == masses.tobytes()
        assert isinstance(m.cdf(0.25), float)

    @pytest.mark.parametrize("make", [_uniform_01, _exp_linear_01, _quadrature_01])
    def test_inv_cdf_is_the_marginal_quantile(self, make):
        m = make()
        p = np.array([0.0, 1e-9, 0.1, 0.5, 0.9, 1.0])
        q = m.inv_cdf(p)
        assert type(q) is np.ndarray and q.tobytes() == m.marginal_quantile(0, p).tobytes()
        assert m.inv_cdf(list(p)).tobytes() == q.tobytes()
        for x, want in zip(p, q):
            got = m.inv_cdf(float(x))
            assert type(got) is float and got == m.marginal_quantile(0, float(x))
            if make is not _quadrature_01:
                assert got == want

    def test_cdf_rejects_d_above_1(self):
        m = uniform_box([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            m.cdf(0.5)
        with pytest.raises(ValueError):
            m.inv_cdf(0.5)

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone(self, a, b):
        m = exp_linear_interval(2.0)
        lo, hi = min(a, b), max(a, b)
        assert m.cdf(lo) <= m.cdf(hi) + 1e-15


class TestProductMeasures:
    def test_uniform_box_mass(self):
        m = uniform_box([0.0, 0.0], [2.0, 2.0])
        assert m.box_mass([1.0, 1.0])[0] == pytest.approx(0.25)

    def test_exp_linear_box_matches_dblquad(self):
        m = exp_linear_box(1.0, [-1.0, -1.0], [1.0, 1.0])
        from scipy import integrate

        num, _ = integrate.dblquad(
            lambda y, x: math.exp(x), -1.0, 0.3, -1.0, 0.5, epsabs=1e-10
        )
        den = 2.0 * (math.e - 1.0 / math.e)
        assert m.box_mass([0.3, 0.5])[0] == pytest.approx(num / den, abs=1e-9)

    def test_marginal_quantile_product(self):
        m = exp_linear_box(1.0, [-1.0, -1.0], [1.0, 1.0])
        # second coordinate is uniform, so its median is 0
        assert m.marginal_quantile(1, 0.5) == pytest.approx(0.0, abs=1e-9)


class TestBallMeasures:
    def test_quarter_disc_mass(self):
        # open box (-inf, (0,0)) meets the unit disc in a quarter of it
        m = uniform_ball(2)
        mass, err = m.box_mass([0.0, 0.0])
        assert mass == pytest.approx(0.25, abs=max(err, 1e-8))

    def test_half_disc_profile_reduction(self):
        m = exp_linear_ball(0.0, 2)
        mass, err = m.box_mass([0.0, np.inf])
        assert mass == pytest.approx(0.5, abs=max(err, 1e-8))

    def test_d3_closed_forms(self):
        # the uniform 3-ball's volume 4 pi / 3, its orthant 1/8, and the
        # marginal masses (t+1)^2 (2-t)/4 on every axis: along x1 (levels)
        # and along x2 and x3 (columns), within the stated error
        m = uniform_ball(3)
        assert abs(m.normalizer - 4.0 * math.pi / 3.0) <= 1e-14
        mass, err = m.box_mass([0.0, 0.0, 0.0])
        assert err <= 1e-8 and abs(mass - 0.125) <= err + 1e-15
        t = np.concatenate([np.linspace(-0.99, 0.99, 23), [-0.0, 1.0 - 1e-9]])
        want = special.betainc(2.0, 2.0, 0.5 * (1.0 + t))
        assert np.max(np.abs(want - (t + 1.0) ** 2 * (2.0 - t) / 4.0)) <= 1e-15
        for j in range(3):
            corners = np.where(np.arange(3) == j, t[:, None], np.inf)
            masses, err = m.box_masses(corners)
            assert err <= 1e-8
            assert np.max(np.abs(masses - want)) <= err + 1e-15
            assert m.marginal_cdf(j, t).tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [400.0, 700.0])
    def test_d3_error_finite_at_large_alpha(self, alpha):
        # a normalizer near e^alpha, and a corner at x_1 <= -0.99 whose
        # mass underflows to 0, without a warning
        m = exp_linear_ball(alpha, 3)
        masses, err = m.box_masses(np.array([[-0.99, 0.1, 0.1], [0.5, 0.5, 0.5]]))
        assert 0.0 < m.normalizer < math.inf and 0.0 <= m.normalizer_error < m.normalizer
        assert masses[0] == 0.0 and 0.0 <= masses[1] <= 1.0
        assert 0.0 <= err < math.inf

    def test_measure_without_a_rule_refused_before_any_work(self, monkeypatch):
        # a ball above d = 3, a ball density without a profile and a box
        # density in d = 3 without a closed form have no box-mass rule;
        # none computes anything or builds its bounding box, two arrays of
        # length d (d = 10^6 included)
        def fail(*args, **kwargs):
            raise AssertionError("the measure computed something")

        monkeypatch.setattr(np, "meshgrid", fail)
        monkeypatch.setattr(np, "arange", fail)
        monkeypatch.setattr(BallDomain, "bounding", fail)
        monkeypatch.setattr(BoxDomain, "bounding", fail)
        monkeypatch.setattr(TargetMeasure, "_integrals", fail)
        refusals = [
            (lambda: uniform_ball(10**6), "implemented for d <= 3, not d = 1000000"),
            (lambda: exp_linear_ball(1.0, 4), "implemented for d <= 3, not d = 4"),
            (lambda: TargetMeasure(BallDomain(9), fail), "implemented for d <= 3, not d = 9"),
            (lambda: TargetMeasure(BallDomain(2), fail), "a ball density without a profile in d = 2"),
            (lambda: TargetMeasure(BallDomain(3), fail), "a ball density without a profile in d = 3"),
            (lambda: TargetMeasure(BoxDomain((0.0,) * 3, (1.0,) * 3), fail),
             "a box density without a closed form in d = 3"),
        ]
        for make, message in refusals:
            with pytest.raises(NotImplementedError, match=message):
                make()


class TestDiscMarginal:
    # a grid of [-1, 1] with its ends, the points just inside and outside
    # them, +-inf, values beyond the disc and NaN
    T = np.concatenate([
        np.linspace(-1.0, 1.0, 2001),
        [np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), -0.0],
        [np.inf, -np.inf, 1.5, -1.5, np.nan],
    ])

    def test_axis_0_is_the_box_masses_bit_for_bit(self):
        m = uniform_ball(2)
        corners = np.column_stack([self.T, np.full_like(self.T, np.inf)])
        want = m.box_masses(corners)[0]
        assert m.marginal_cdf(0, self.T).tobytes() == want.tobytes()
        assert m.marginal_cdf(0, 0.25) == float(want[np.flatnonzero(self.T == 0.25)[0]])

    def test_axis_1_is_the_box_masses_within_1e_13(self):
        m = uniform_ball(2)
        want = m.box_masses(np.column_stack([np.full_like(self.T, np.inf), self.T]))[0]
        got = m.marginal_cdf(1, self.T)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) <= 1e-13
        assert got[self.T == np.inf].tolist() == [1.0] and got[self.T == -np.inf].tolist() == [0.0]

    @pytest.mark.parametrize(
        "delta", [0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.08, 0.05, 0.03, 0.02, 0.01, 0.005]
    )
    def test_cover_cuts_are_the_box_mass_bisection(self, delta):
        # the cuts the quantile cover bisected from box masses before the
        # disc had a closed-form marginal
        got = build_quantile_cover(uniform_ball(2), delta).cuts
        want = build_quantile_cover(scalar_masses.disc_by_box_masses(), delta).cuts
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "make, delta",
        [(lambda: uniform_ball(2), 0.1), (lambda: uniform_ball(2), 0.05), (lambda: uniform_ball(2), 0.01),
         (lambda: exp_linear_ball(1.0, 2), 0.2)],
    )
    def test_cover_cuts_are_the_scalar_bisection(self, make, delta):
        # the levels bisected together, from the closed-form marginal itself
        # (uniform) or from marginal_cdf's box masses (exp-linear), are the
        # levels bisected one at a time in Python floats
        disc = make()
        got = build_quantile_cover(disc, delta).cuts
        assert len(got) == 2
        for j, g in enumerate(got):
            want = np.array(scalar_masses.quantile_cuts(lambda t: disc.marginal_cdf(j, t), delta))
            assert g.tobytes() == want.tobytes()


def _quadrature_2d():
    return TargetMeasure(
        BoxDomain((0.0, 0.0), (1.0, 1.0)), lambda x: 1.0 + x[:, 0] * x[:, 1]
    )


@pytest.mark.parametrize(
    "make",
    [
        _uniform_01,
        _quadrature_01,
        _quadrature_2d,
        lambda: uniform_ball(2),
        lambda: exp_linear_ball(1.0, 2),
        lambda: uniform_ball(3),
    ],
    ids=["interval", "quadrature-1d", "quadrature-2d", "uniform-disc", "exp-linear-disc", "ball-3"],
)
def test_nan_corners_have_nan_mass_and_error(make):
    # a NaN entry is never a certified value: its row has mass NaN and the
    # error is NaN, beside an entry below the domain (else mass 0) too, the
    # other rows keep their values
    m = make()
    d = m.dim
    good = np.full((2, d), 0.3)
    good[1] = 0.6
    want, want_err = make().box_masses(good)
    bad = [np.full(d, np.nan), np.full(d, 0.4), np.full(d, 0.4)]
    bad[1][-1] = np.nan
    bad[2][0] = -5.0
    bad[2][-1] = np.nan
    c = np.vstack([good[:1], bad, good[1:]])
    for _ in range(2):
        masses, err = m.box_masses(c)
        assert math.isnan(err)
        assert np.isnan(masses[1:4]).all()
        assert masses[[0, 4]].tobytes() == want.tobytes()
        assert all(math.isnan(v) for v in m.box_mass(bad[1]))
    masses, err = m.box_masses(good)
    assert masses.tobytes() == want.tobytes() and err == want_err


def _special_rows(measure):
    """Corner rows with NaN, +-inf and -0.0 entries, entries at, one ulp
    below and one ulp above the domain's bounds, and interior rows."""
    lo, hi = measure.domain.bounding()
    d = measure.dim
    mid = 0.5 * (lo + hi) + 0.1
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    for b in (lo, hi):
        values += [b[0], np.nextafter(b[0], -np.inf), np.nextafter(b[0], np.inf)]
    rows = [mid, 0.5 * (lo + mid), np.full(d, np.inf), lo.copy(), hi.copy()]
    for j in range(d):
        for v in values:
            row = mid.copy()
            row[j] = v
            rows.append(row)
    rows.append(np.where(np.arange(d) == d - 1, np.nan, lo))
    rows.append(np.where(np.arange(d) == 0, -np.inf, np.inf))
    return np.array(rows)


_MASKED = {
    "exp-linear-interval": lambda: exp_linear_interval(1.3, -1.0, 1.0),
    "uniform-interval": lambda: uniform_interval(-1.0, 2.0),
    "quadrature-1d": _quadrature_01,
    "uniform-disc": lambda: uniform_ball(2),
    "exp-linear-disc": lambda: exp_linear_ball(2.0, 2),
    "exp-linear-box": lambda: exp_linear_box(0.7, [-1.0, 0.0], [1.0, 2.0]),
    "uniform-box-3": lambda: uniform_box([-1.0, 0.0, 0.5], [1.0, 1.0, 2.0]),
}


@pytest.mark.parametrize("name", list(_MASKED))
def test_box_masses_against_whole_array_masks(name):
    # the masks built column by column, and the whole-array path when every
    # row is interior, give the masses and errors of the masks reduced along
    # the rows, bit for bit
    m = _MASKED[name]()
    rows = _special_rows(m)
    lo, hi = m.domain.bounding()
    interior = lo + (hi - lo) * np.linspace(0.05, 0.95, 9)[:, None] ** np.arange(1, m.dim + 1)
    interior[0, 0] = -0.0 if lo[0] < 0.0 < hi[0] else interior[0, 0]
    interior[1] = np.inf
    interior[1, 0] = 0.5 * (lo[0] + hi[0])
    blocks = [rows, interior, interior[2:3], rows[:0], rows[2:5]]
    for corners in blocks:
        got, want = m._box_masses(corners), scalar_masses.box_masses_by_masks(m, corners)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        masses, err = m.box_masses(corners)
        assert masses.tobytes() == want[0].tobytes()
        assert np.array_equal(err, np.max(want[1], initial=0.0), equal_nan=True)


@pytest.mark.parametrize("name", [n for n in _MASKED if n != "exp-linear-disc"])
def test_grid_masses_against_meshgrid(name):
    # the d = 1 axis as the one column and the meshgrid rows of d = 2 and 3
    m = _MASKED[name]()
    lo, hi = m.domain.bounding()
    specials = [np.nan, np.inf, -np.inf, -0.0, np.nextafter(lo[0], np.inf)]
    axes = [np.append(lo[j] + (hi[j] - lo[j]) * np.linspace(0.0, 1.0, 6), specials) for j in range(m.dim)]
    inner = [lo[j] + (hi[j] - lo[j]) * np.linspace(0.1, 0.9, 5) for j in range(m.dim)]
    for grid in (axes, inner):
        got = m._grid_masses(grid)
        want = scalar_masses.grid_masses_by_masks(m, grid)
        assert got[0].shape == tuple(a.size for a in grid)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("alpha", [1.0, 5.0, 30.0, 300.0])
def test_profile_rule_shares_nodes_per_distinct_interval(alpha):
    # grid columns with repeated levels and columns (zero-length intervals),
    # levels at -0.0, 0.0 and the domain's ends, the +inf column (kinks at
    # -0.0 and 0.0) and the column c2 = 0 (kinks at +-pi/2, on the first
    # panel edge); then box_masses rows, a level and a column each.  In
    # d = 3 the columns pair these c2 with c3 in ascending order, so that
    # (0, 0) has every kink at +-pi/2 and (+inf, 1) its corner kink at 0.
    # The nodes computed once per distinct interval give the bits of the
    # per-column rule
    rng = Rng(int(alpha))
    c = np.sort(2.0 * rng.uniforms(14) - 1.0)
    c1 = np.concatenate([c, c[3:6], [-0.0, 0.0, 1.0, np.inf, np.nextafter(-1.0, 0.0)]])
    c2 = np.concatenate([c[::-1], c[:2], [0.0, -0.0, np.inf, 1.0, np.nextafter(-1.0, 0.0)]])
    c3 = np.concatenate([c, c[5:7], [0.0, 0.0, 1.0, np.inf, 0.5]])
    top = np.arcsin(np.minimum(c1, 1.0))
    for d, trailing in [(2, [c2]), (3, [c2, c3])]:
        m = exp_linear_ball(alpha, d)
        h = np.minimum(np.column_stack(trailing), 1.0)
        for levels, cols in [(np.broadcast_to(top, (len(h), top.size)), h), (top[: len(h), None], h[::-1])]:
            got = m._profile_integrals(levels, cols)
            want = scalar_masses.profile_integrals_per_column(m, levels, cols)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
