import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracavg.errors import ConvergenceError
from fracavg.kernels import (
    FractionalOrder,
    as_order,
    build_kernel_weights,
    gamma_fn,
    log_mittag_leffler,
    mittag_leffler,
    mittag_leffler_terms,
)

# high-precision reference values computed with a 40-digit arbitrary-precision
# partial-sum oracle before the implementation existed
GAMMA_3_4 = 1.2254167024651776451
ML_06_05 = 1.8886847280930526741  # sum_k 0.5^k / Gamma(0.6 k + 1)
E_CONST = math.e


class TestFractionalOrder:
    def test_accepts_interior(self):
        assert FractionalOrder(0.75).beta == 0.75

    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.49, 1.2, -0.75, 0.0])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(ValueError):
            FractionalOrder(bad)

    def test_as_order_coerces_and_passes_through(self):
        order = FractionalOrder(0.6)
        assert as_order(order) is order
        assert as_order(0.85).beta == 0.85


class TestGamma:
    def test_known_integers(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(5.0) == 24.0

    def test_three_quarters_matches_oracle(self):
        assert gamma_fn(0.75) == pytest.approx(GAMMA_3_4, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            gamma_fn(bad)

    @given(st.floats(min_value=0.5, max_value=9.0))
    def test_recurrence(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


class TestMittagLeffler:
    def test_zero_argument(self):
        assert mittag_leffler(0.75, 0.0) == 1.0

    def test_beta_one_is_exp(self):
        assert mittag_leffler(1.0, 1.0) == pytest.approx(E_CONST, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=50)
    def test_beta_one_matches_exp_on_range(self, z):
        assert mittag_leffler(1.0, z) == pytest.approx(math.exp(z), rel=1e-10)

    def test_against_partial_sum_oracle(self):
        assert mittag_leffler(0.6, 0.5) == pytest.approx(ML_06_05, rel=1e-12)

    @given(
        st.floats(min_value=0.55, max_value=1.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=50)
    def test_monotone_in_argument(self, beta, z1, z2):
        lo, hi = sorted((z1, z2))
        assert mittag_leffler(beta, lo) <= mittag_leffler(beta, hi) * (1 + 1e-12)

    def test_term_cap_raises(self):
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.6, 50.0, max_terms=5)

    def test_overflowing_series_raises(self):
        # the second term is already 1e300 / Gamma(1.6); the sum passes float64 soon after
        with pytest.raises(ConvergenceError, match="overflowed"):
            mittag_leffler(0.6, 1e300)

    def test_term_count_reported(self):
        value, terms = mittag_leffler_terms(0.75, 1.0)
        assert value == pytest.approx(3.4858662200517439, rel=1e-12)
        assert 5 < terms < 200

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError):
            mittag_leffler(beta, 1.0)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.75, -1.0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.75, 1.0, tol=0.0)


def mp_log_mittag_leffler(beta: float, z: float) -> float:
    """log E_beta(z) from mpmath at 30 digits, independent of fracavg.

    At beta = 1/2 the closed form E(z) = exp(z^2) erfc(-z); otherwise the
    series, summed until its terms fall exp(-80) below the largest one.
    """
    import mpmath

    with mpmath.workdps(30):
        b, z = mpmath.mpf(beta), mpmath.mpf(z)
        if b == 0.5:
            return float(z**2 + mpmath.log(mpmath.erfc(-z)))
        log_z = mpmath.log(z)
        logs = [mpmath.mpf(0)]
        peak = logs[0]
        while logs[-1] >= peak - 80:
            k = len(logs)
            logs.append(k * log_z - mpmath.loggamma(b * k + 1))
            peak = max(peak, logs[-1])
        return float(peak + mpmath.log(mpmath.fsum(mpmath.exp(v - peak) for v in logs)))


class TestLogMittagLeffler:
    # pairs on both sides of the switch to the asymptote at z^(1/beta) = 50,
    # and far beyond float64 (E_beta overflows once z^(1/beta) passes ~710)
    @pytest.mark.parametrize("beta, z", [
        (0.6, 0.5), (0.6, 10.45), (0.6, 10.47), (0.6, 100.0), (0.6, 164.0),
        (0.75, 18.78), (0.75, 18.82), (0.75, 300.0), (0.9, 1000.0),
        (0.5, 7.06), (0.5, 7.08), (0.5, 1e3), (0.5, 1e4),
    ])
    def test_matches_mpmath(self, beta, z):
        value, _ = log_mittag_leffler(beta, z, tol=1e-14)
        assert value == pytest.approx(mp_log_mittag_leffler(beta, z), rel=1e-13)

    @given(st.floats(min_value=0.55, max_value=1.0), st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=50)
    def test_matches_direct_series(self, beta, z):
        value, _ = log_mittag_leffler(beta, z, tol=1e-14)
        direct = math.log(mittag_leffler(beta, z, tol=1e-14))
        assert value == pytest.approx(direct, rel=1e-13, abs=1e-13)

    def test_beta_one_beyond_the_switch_is_exact(self):
        assert log_mittag_leffler(1.0, 300.0) == (300.0, 1)
        assert log_mittag_leffler(0.75, 0.0) == (0.0, 1)

    def test_term_cap_raises(self):
        with pytest.raises(ConvergenceError):
            log_mittag_leffler(0.6, 10.0, max_terms=5)

    def test_log_overflow_raises(self):
        # z^(1/beta) itself is beyond float64
        with pytest.raises(ConvergenceError, match="overflowed"):
            log_mittag_leffler(0.6, 1e200)

    @pytest.mark.parametrize("beta, z, tol", [(0.0, 1.0, 1e-12), (1.5, 1.0, 1e-12),
                                              (0.75, -1.0, 1e-12), (0.75, 1.0, 0.0)])
    def test_rejects_bad_arguments(self, beta, z, tol):
        with pytest.raises(ValueError):
            log_mittag_leffler(beta, z, tol=tol)


class TestKernelWeights:
    def test_closed_form_first_weight(self):
        kw = build_kernel_weights(0.75, step=0.5, n=2)
        expected = (1.0**0.75 - 0.5**0.75) / 0.75
        assert kw.weights[0] == pytest.approx(expected, rel=1e-14)
        assert kw.weights[0] == pytest.approx(0.5405285899981860, rel=1e-12)

    def test_single_interval(self):
        kw = build_kernel_weights(0.8, step=0.3, n=1)
        assert kw.weights.shape == (1,)
        assert kw.weights[0] == pytest.approx(0.3**0.8 / 0.8, rel=1e-14)

    def test_telescoping_fixed(self):
        kw = build_kernel_weights(0.6, step=0.01, n=100)
        assert kw.total == pytest.approx(1.0**0.6 / 0.6, rel=1e-12)

    @given(
        st.floats(min_value=0.51, max_value=0.99),
        st.floats(min_value=1e-4, max_value=2.0),
        st.integers(min_value=1, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_telescoping_property(self, beta, step, n):
        kw = build_kernel_weights(beta, step, n)
        assert kw.total == pytest.approx((n * step) ** beta / beta, rel=1e-12)

    @given(
        st.floats(min_value=0.51, max_value=0.99),
        st.integers(min_value=2, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_positive_and_increasing(self, beta, n):
        kw = build_kernel_weights(beta, 0.05, n)
        assert np.all(kw.weights > 0)
        assert np.all(np.diff(kw.weights) > 0)

    def test_weights_frozen(self):
        kw = build_kernel_weights(0.75, 0.1, 10)
        with pytest.raises(ValueError):
            kw.weights[0] = 0.0

    @pytest.mark.parametrize("step,n", [(0.0, 5), (-0.1, 5), (0.1, 0), (0.1, -3)])
    def test_rejects_bad_grid(self, step, n):
        with pytest.raises(ValueError):
            build_kernel_weights(0.75, step, n)
