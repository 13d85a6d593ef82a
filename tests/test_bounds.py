import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_bounds import cover_size_bound
from mcqmclab.bounds import (
    ballwalk_gap_bound,
    beck_bound,
    burn_in_bound,
    corollary_main_bound,
    hoeffding_tail,
    main_discrepancy_bound,
    tv_average_bound,
)

# valid inputs of every calculator but hoeffding_tail, which allows lambda0 = 1
_INPUTS = {
    main_discrepancy_bound: dict(n=64, lambda0=0.5, nu_norm=2.0, cover_size=10, delta=0.01),
    corollary_main_bound: dict(n=64, d=2, lambda0=0.5, nu_norm=2.0),
    tv_average_bound: dict(n=64, lambda0=0.5, nu_norm_centered=1.0),
    burn_in_bound: dict(n=64, n0=4, lambda0=0.5, beta=0.5, nu_norm_centered=1.0, cover_size=10, delta=0.01),
}
_HOEFFDING = dict(n=64, lambda0=0.5, nu_norm=2.0, c=0.1)
# one refused value of every input, and the ValueError it raises
_OUT_OF_RANGE = {
    "lambda0": (1.5, "lambda0 must lie in"),
    "beta": (-0.5, "beta must lie in"),
    **{name: (v, "counts must be positive") for name, v in [("n", 0), ("d", 0), ("cover_size", 0), ("n0", -1)]},
    **{name: (-1.0, "nonnegative inputs required") for name in ("nu_norm", "nu_norm_centered", "delta", "c")},
}


class TestGoldenValues:
    def test_hoeffding(self):
        val = hoeffding_tail(n=1000, lambda0=0.0, nu_norm=1.0, c=0.1)
        assert val == pytest.approx(2.0 * math.exp(-10.0), rel=1e-9)

    def test_corollary_main(self):
        val = corollary_main_bound(n=16, d=1, lambda0=0.0, nu_norm=1.0)
        # sqrt(2) * sqrt(log 16 + 3 log 5) / 4 + 8 / 16^(3/4)
        assert val == pytest.approx(1.9747, abs=1e-4)

    def test_beck(self):
        assert beck_bound(1024, 1) == 63.0 * 144.0 / 1024.0 == 8.859375

    def test_tv_average(self):
        val = tv_average_bound(n=4, lambda0=0.5, nu_norm_centered=1.0)
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
        val = main_discrepancy_bound(n=100, lambda0=0.0, nu_norm=1.0, cover_size=2, delta=0.01)
        assert val == pytest.approx(math.sqrt(2 * math.log(4)) / 10 + 0.01, rel=1e-12)


class TestEdgeCases:
    def test_hoeffding_no_gap_is_trivial(self):
        assert hoeffding_tail(n=10, lambda0=1.0, nu_norm=1.0, c=0.5) == 1.0

    def test_hoeffding_capped_at_one(self):
        assert hoeffding_tail(n=1, lambda0=0.0, nu_norm=5.0, c=0.01) == 1.0

    def test_corollary_requires_n16(self):
        with pytest.raises(ValueError):
            corollary_main_bound(n=15, d=1, lambda0=0.0, nu_norm=1.0)

    def test_main_bound_degenerate_radicand(self):
        val = main_discrepancy_bound(n=10, lambda0=0.0, nu_norm=0.5, cover_size=1, delta=0.02)
        assert val == 0.02

    def test_no_gap_refused(self):
        # lambda0 = 1 (beta below it) is a ValueError in every calculator
        # with a 1 / (1 - lambda0) factor, not a ZeroDivisionError
        for bound, inputs in _INPUTS.items():
            with pytest.raises(ValueError, match="lambda0 must be < 1"):
                bound(**{**inputs, "lambda0": 1.0})

    def test_input_validation(self):
        # each calculator refuses every input of its own out of range
        for bound, inputs in [(hoeffding_tail, _HOEFFDING), *_INPUTS.items()]:
            for name, (value, message) in _OUT_OF_RANGE.items():
                if name in inputs:
                    with pytest.raises(ValueError, match=message):
                        bound(**{**inputs, name: value})

    def test_missing_input_is_a_type_error(self):
        # no input has a default, so a forgotten one cannot stand in as 0 or 1
        for bound, inputs in [(hoeffding_tail, _HOEFFDING), *_INPUTS.items()]:
            for name in inputs:
                with pytest.raises(TypeError):
                    bound(**{k: v for k, v in inputs.items() if k != name})
            with pytest.raises(TypeError):
                bound(*inputs.values())

    def test_cover_size_beyond_a_float(self):
        # 2 log|cover| in place of log(|cover|^2): an int cover size past
        # float range still gives a finite bound, an infinite one inf
        main = dict(n=1024, lambda0=0.5, nu_norm=math.e, delta=0.01)
        burn = dict(n=1024, n0=0, lambda0=0.5, beta=0.5, nu_norm_centered=1.0, delta=0.01)
        log_size = 400 * math.log(10)
        expect = math.sqrt(3.0) * math.sqrt(2 * (2 * log_size + 1)) / 32 + 0.01
        assert main_discrepancy_bound(cover_size=10**400, **main) == pytest.approx(expect, rel=1e-12)
        assert all(math.isfinite(b) for b in burn_in_bound(cover_size=10**400, **burn))
        assert main_discrepancy_bound(cover_size=math.inf, **main) == math.inf
        assert burn_in_bound(cover_size=math.inf, **burn) == (math.inf, math.inf)

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
        mixed, simple = burn_in_bound(
            n=64, n0=0, lambda0=0.5, beta=0.5, nu_norm_centered=1.0, cover_size=10, delta=0.01
        )
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
        base = dict(n=64, lambda0=0.5, beta=0.5, nu_norm_centered=3.0, cover_size=10, delta=0.0)
        m0, _ = burn_in_bound(n0=0, **base)
        m10, _ = burn_in_bound(n0=10, **base)
        assert m10 < m0


class TestMonotonicity:
    @given(st.integers(16, 4000), st.integers(16, 4000))
    @settings(max_examples=40, deadline=None)
    def test_corollary_decreasing_in_n(self, a, b):
        lo, hi = sorted((a, b))
        f_lo = corollary_main_bound(n=lo, d=1, lambda0=0.0, nu_norm=1.0)
        f_hi = corollary_main_bound(n=hi, d=1, lambda0=0.0, nu_norm=1.0)
        assert f_hi <= f_lo + 1e-12

    @given(st.floats(0.0, 0.99), st.floats(0.0, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_hoeffding_increasing_in_lambda0(self, a, b):
        lo, hi = sorted((a, b))
        f_lo = hoeffding_tail(n=100, lambda0=lo, nu_norm=1.0, c=0.2)
        f_hi = hoeffding_tail(n=100, lambda0=hi, nu_norm=1.0, c=0.2)
        assert f_hi >= f_lo - 1e-12

    @given(st.integers(1, 4), st.integers(16, 10000))
    @settings(max_examples=40, deadline=None)
    def test_corollary_consistent_with_main(self, d, n):
        # the specialization to the quantile cover size only moves constants:
        # the two bounds stay within a factor 2 of each other
        delta = n ** (-0.75)
        size = cover_size_bound(delta, d, 0.25)
        main = main_discrepancy_bound(n=n, lambda0=0.0, nu_norm=1.0, cover_size=size, delta=delta)
        ratio = corollary_main_bound(n=n, d=d, lambda0=0.0, nu_norm=1.0) / main
        assert 0.5 <= ratio <= 2.0
