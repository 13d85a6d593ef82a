import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcqmclab.core import (
    _PRIMES,
    AnchoredBox,
    BallDomain,
    BoxDomain,
    DriverSequence,
    Rng,
    TargetMeasure,
    exp_linear_ball,
    exp_linear_box,
    exp_linear_interval,
    halton_sequence,
    radical_inverse,
    uniform_ball,
    uniform_box,
    uniform_driver,
    uniform_interval,
)


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
        block = Rng(seed).split_uniforms(m, n)
        assert block.shape == (m, n)
        for r in range(m):
            assert np.array_equal(block[r], Rng(seed).split(r).uniforms(n))

    def test_split_does_not_advance_parent(self):
        r = Rng(9)
        before = Rng(9).uniforms(5)
        r.split(3)
        assert np.array_equal(r.uniforms(5), before)

    def test_uniformity(self):
        # mean of 1e5 uniforms is 0.5 within 4 sigma = 4/(sqrt(12) sqrt(n))
        u = Rng(123).uniforms(100_000)
        assert abs(u.mean() - 0.5) < 4.0 / math.sqrt(12 * 100_000)


class TestAnchoredBox:
    def test_strict_membership(self):
        box = AnchoredBox([0.5, 0.5])
        assert box.contains(np.array([0.4, 0.4]))
        assert not box.contains(np.array([0.5, 0.4]))

    def test_infinite_corners(self):
        assert AnchoredBox.full(2).contains(np.array([100.0, -3.0]))
        assert AnchoredBox.empty(2).is_empty
        assert not AnchoredBox.empty(2).contains(np.array([0.0, 0.0]))

    def test_hash_eq(self):
        assert AnchoredBox([1.0, 2.0]) == AnchoredBox([1.0, 2.0])
        assert len({AnchoredBox([1.0]), AnchoredBox([1.0]), AnchoredBox([2.0])}) == 2


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
        pts = halton_sequence(3, 1).points[:, 0]
        assert np.allclose(pts, [0.5, 0.25, 0.75], atol=0)

    def test_radical_inverse_base3(self):
        # 5 = 12 in base 3 -> reversed digits .21 = 2/3 + 1/9
        assert radical_inverse(5, 3) == pytest.approx(2 / 3 + 1 / 9, abs=1e-15)

    def test_sequence_is_the_scalar_radical_inverse(self):
        # the vectorized digit loop against radical_inverse, bit for bit
        n = 10_000
        pts = halton_sequence(n, len(_PRIMES)).points
        for j, base in enumerate(_PRIMES):
            assert np.array_equal(pts[:, j], [radical_inverse(i + 1, base) for i in range(n)])

    def test_dimensions_use_distinct_primes(self):
        pts = halton_sequence(4, 2).points
        assert pts[0, 0] == 0.5 and pts[0, 1] == pytest.approx(1 / 3)

    def test_star_discrepancy_beats_random(self):
        # 1-D Halton is van der Corput; its discrepancy is O(log n / n)
        from mcqmclab.discrepancy import star_discrepancy_exact

        m = uniform_interval(0.0, 1.0)
        h = star_discrepancy_exact(halton_sequence(256, 1).points, m)
        assert h.lower < 0.04


class TestDriverSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriverSequence(np.array([[1.5]]), provenance="bad")
        with pytest.raises(ValueError):
            DriverSequence(np.empty((0, 1)), provenance="bad")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            DriverSequence(np.array([[bad]]), provenance="bad")
        with pytest.raises(ValueError):
            DriverSequence(np.array([[0.2, 0.5], [0.3, bad]]), provenance="bad")

    def test_uniform_driver_reproducible(self):
        a = uniform_driver(10, 2, Rng(3))
        b = uniform_driver(10, 2, Rng(3))
        assert np.array_equal(a.points, b.points)


def _uniform_01():
    return uniform_interval(0.0, 1.0)


def _exp_linear_01():
    return exp_linear_interval(1.3, 0.0, 1.0)


def _quadrature_01():
    return TargetMeasure(BoxDomain((0.0,), (1.0,)), lambda x: 1.0 + x[:, 0] ** 2, name="quad")


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
        quad = TargetMeasure(
            BoxDomain((-1.0,), (1.0,)), lambda x: np.exp(x[:, 0]), name="quad-route"
        )
        for t in (-0.7, -0.2, 0.3, 0.9):
            box = AnchoredBox([t])
            m_exact, _ = exact.box_mass(box)
            m_quad, err = quad.box_mass(box)
            assert m_quad == pytest.approx(m_exact, abs=max(err, 1e-9))

    def test_box_mass_clipping(self):
        m = uniform_interval(-1.0, 1.0)
        assert m.box_mass(AnchoredBox([-2.0])) == (0.0, 0.0)
        assert m.box_mass(AnchoredBox([5.0])) == (1.0, 0.0)

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
        assert m.box_mass(AnchoredBox([1.0, 1.0]))[0] == pytest.approx(0.25)

    def test_exp_linear_box_matches_dblquad(self):
        m = exp_linear_box(1.0, [-1.0, -1.0], [1.0, 1.0])
        from scipy import integrate

        num, _ = integrate.dblquad(
            lambda y, x: math.exp(x), -1.0, 0.3, -1.0, 0.5, epsabs=1e-10
        )
        den = 2.0 * (math.e - 1.0 / math.e)
        assert m.box_mass(AnchoredBox([0.3, 0.5]))[0] == pytest.approx(num / den, abs=1e-9)

    def test_marginal_quantile_product(self):
        m = exp_linear_box(1.0, [-1.0, -1.0], [1.0, 1.0])
        # second coordinate is uniform, so its median is 0
        assert m.marginal_quantile(1, 0.5) == pytest.approx(0.0, abs=1e-9)


class TestBallMeasures:
    def test_quarter_disc_mass(self):
        # open box (-inf, (0,0)) meets the unit disc in a quarter of it
        m = uniform_ball(2)
        mass, err = m.box_mass(AnchoredBox([0.0, 0.0]))
        assert mass == pytest.approx(0.25, abs=max(err, 1e-8))

    def test_half_disc_profile_reduction(self):
        m = exp_linear_ball(0.0, 2)
        mass, err = m.box_mass(AnchoredBox([0.0, np.inf]))
        assert mass == pytest.approx(0.5, abs=max(err, 1e-8))

    def test_d3_stratified_vs_exact_octant(self):
        m = uniform_ball(3)
        mass, err = m.box_mass(AnchoredBox([0.0, 0.0, 0.0]))
        assert err < 0.02
        assert mass == pytest.approx(0.125, abs=err + 1e-3)

    def test_stratified_reproducible(self):
        a = uniform_ball(3).box_mass(AnchoredBox([0.2, 0.1, 0.4]))
        b = uniform_ball(3).box_mass(AnchoredBox([0.2, 0.1, 0.4]))
        assert a == b


def _quadrature_2d():
    return TargetMeasure(
        BoxDomain((0.0, 0.0), (1.0, 1.0)), lambda x: 1.0 + x[:, 0] * x[:, 1], name="quad-2d"
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
        assert all(math.isnan(v) for v in m.box_mass(AnchoredBox(bad[1])))
    masses, err = m.box_masses(good)
    assert masses.tobytes() == want.tobytes() and err == want_err
