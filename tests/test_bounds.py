import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_bounds import cover_size_bound
from mcqmclab.bounds import (
    BoundInputs,
    ballwalk_gap_bound,
    beck_bound,
    burn_in_bound,
    corollary_main_bound,
    hoeffding_tail,
    main_discrepancy_bound,
    tv_average_bound,
)


class TestGoldenValues:
    def test_hoeffding(self):
        val = hoeffding_tail(BoundInputs(n=1000, lambda0=0.0, nu_norm=1.0, c=0.1))
        assert val == pytest.approx(2.0 * math.exp(-10.0), rel=1e-9)

    def test_corollary_main(self):
        val = corollary_main_bound(BoundInputs(n=16, d=1, lambda0=0.0, nu_norm=1.0))
        # sqrt(2) * sqrt(log 16 + 3 log 5) / 4 + 8 / 16^(3/4)
        assert val == pytest.approx(1.9747, abs=1e-4)

    def test_beck(self):
        assert beck_bound(1024, 1) == 63.0 * 144.0 / 1024.0 == 8.859375

    def test_tv_average(self):
        val = tv_average_bound(BoundInputs(n=4, lambda0=0.5, nu_norm_centered=1.0))
        assert val == (1 - 0.5**4) / (4 * 0.5) == 0.46875

    def test_ballwalk_gap(self):
        gamma_star, gap = ballwalk_gap_bound(1.0, 1)
        assert gamma_star == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert gap == pytest.approx(3.125e-6 / 2 * 0.5, abs=1e-12)
        assert gap == pytest.approx(7.8125e-7, abs=1e-12)

    def test_ballwalk_gap_uniform(self):
        # the uniform density (alpha = 0) has 1/alpha = inf in both minima
        for d in range(1, 8):
            assert ballwalk_gap_bound(0.0, d) == (1.0 / math.sqrt(d + 1), 3.125e-6 / (d + 1) ** 2)
        with pytest.raises(ValueError):
            ballwalk_gap_bound(-0.5, 1)

    def test_main_bound(self):
        val = main_discrepancy_bound(
            BoundInputs(n=100, lambda0=0.0, nu_norm=1.0, cover_size=2, delta=0.01)
        )
        assert val == pytest.approx(math.sqrt(2 * math.log(4)) / 10 + 0.01, rel=1e-12)


class TestEdgeCases:
    def test_hoeffding_no_gap_is_trivial(self):
        assert hoeffding_tail(BoundInputs(n=10, lambda0=1.0, c=0.5)) == 1.0

    def test_hoeffding_capped_at_one(self):
        assert hoeffding_tail(BoundInputs(n=1, lambda0=0.0, nu_norm=5.0, c=0.01)) == 1.0

    def test_corollary_requires_n16(self):
        with pytest.raises(ValueError):
            corollary_main_bound(BoundInputs(n=15))

    def test_main_bound_degenerate_radicand(self):
        val = main_discrepancy_bound(
            BoundInputs(n=10, nu_norm=0.5, cover_size=1, delta=0.02)
        )
        assert val == 0.02

    def test_no_gap_refused(self):
        # lambda0 = 1 (beta below it) is a ValueError in every calculator
        # with a 1 / (1 - lambda0) factor, not a ZeroDivisionError
        inp = BoundInputs(n=16, lambda0=1.0, beta=0.5, nu_norm_centered=1.0, cover_size=2)
        for bound in (main_discrepancy_bound, corollary_main_bound, tv_average_bound, burn_in_bound):
            with pytest.raises(ValueError, match="lambda0 must be < 1"):
                bound(inp)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(lambda0=1.5)
        with pytest.raises(ValueError):
            BoundInputs(n=0)
        with pytest.raises(ValueError):
            BoundInputs(nu_norm=-1.0)

    def test_cover_size_beyond_a_float(self):
        # 2 log|cover| in place of log(|cover|^2): an int cover size past
        # float range still gives a finite bound, an infinite one inf
        base = dict(n=1024, lambda0=0.5, beta=0.5, nu_norm=math.e, nu_norm_centered=1.0, delta=0.01)
        huge = BoundInputs(cover_size=10**400, **base)
        log_size = 400 * math.log(10)
        expect = math.sqrt(3.0) * math.sqrt(2 * (2 * log_size + 1)) / 32 + 0.01
        assert main_discrepancy_bound(huge) == pytest.approx(expect, rel=1e-12)
        assert all(math.isfinite(b) for b in burn_in_bound(huge))
        infinite = BoundInputs(cover_size=math.inf, **base)
        assert main_discrepancy_bound(infinite) == math.inf
        assert burn_in_bound(infinite) == (math.inf, math.inf)

    @pytest.mark.parametrize("r,d", [(16, 263), (16, 264), (2**20, 160)])
    def test_beck_overflow_is_vacuous_inf(self, r, d):
        # at (16, 263) the power is finite and the product overflows; above
        # it the power itself overflows a float
        assert beck_bound(r, d) == math.inf

    def test_beck_finite_values_unchanged(self):
        for r, d in [(16, 261), (2**20, 150), (1024, 3), (7, 12)]:
            power = (2.0 + math.log2(r)) ** ((3 * d + 1) / 2)
            assert beck_bound(r, d) == 63.0 * math.sqrt(d) * power / r < math.inf


class TestBurnIn:
    def test_no_burn_in_reduces_to_known_pieces(self):
        inp = BoundInputs(
            n=64, n0=0, lambda0=0.5, beta=0.5, nu_norm_centered=1.0,
            cover_size=10, delta=0.01,
        )
        mixed, simple = burn_in_bound(inp)
        log_term = math.log(100 * 2.0)
        expect_mixed = (
            math.sqrt(3.0) * math.sqrt(2 * log_term) / 8.0
            + (1 - 0.5**64) / (64 * 0.5)
            + 0.01
        )
        assert mixed == pytest.approx(expect_mixed, rel=1e-12)
        expect_simple = (
            4.0 * math.sqrt(log_term) / math.sqrt(32.0) + 2.0 / 32.0 + 0.01
        )
        assert simple == pytest.approx(expect_simple, rel=1e-12)

    def test_burn_in_shrinks_bias_term(self):
        base = dict(n=64, lambda0=0.5, beta=0.5, nu_norm_centered=3.0, cover_size=10)
        m0, _ = burn_in_bound(BoundInputs(n0=0, **base))
        m10, _ = burn_in_bound(BoundInputs(n0=10, **base))
        assert m10 < m0


class TestMonotonicity:
    @given(st.integers(16, 4000), st.integers(16, 4000))
    @settings(max_examples=40, deadline=None)
    def test_corollary_decreasing_in_n(self, a, b):
        lo, hi = sorted((a, b))
        f_lo = corollary_main_bound(BoundInputs(n=lo, d=1))
        f_hi = corollary_main_bound(BoundInputs(n=hi, d=1))
        assert f_hi <= f_lo + 1e-12

    @given(st.floats(0.0, 0.99), st.floats(0.0, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_hoeffding_increasing_in_lambda0(self, a, b):
        lo, hi = sorted((a, b))
        f_lo = hoeffding_tail(BoundInputs(n=100, lambda0=lo, c=0.2))
        f_hi = hoeffding_tail(BoundInputs(n=100, lambda0=hi, c=0.2))
        assert f_hi >= f_lo - 1e-12

    @given(st.integers(1, 4), st.integers(16, 10000))
    @settings(max_examples=40, deadline=None)
    def test_corollary_consistent_with_main(self, d, n):
        # the specialization to the quantile cover size only moves constants:
        # the two bounds stay within a factor 2 of each other
        delta = n ** (-0.75)
        size = cover_size_bound(delta, d, 0.25)
        inp = BoundInputs(n=n, d=d, cover_size=size, delta=delta)
        ratio = corollary_main_bound(inp) / main_discrepancy_bound(inp)
        assert 0.5 <= ratio <= 2.0
