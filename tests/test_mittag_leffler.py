import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracspec import (AccuracyWarning, MlParams, ml_asymptotic, ml_eval,
                      ml_series, mittag_leffler)

A_GRID = [0.5, 0.75, 0.9]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MlParams(alpha=0.0)
        with pytest.raises(ValueError):
            MlParams(alpha=1.2)


class TestSeries:
    def test_zero_is_exactly_one(self):
        assert ml_series(0.0, MlParams(alpha=0.75)) == 1.0

    def test_alpha_one_is_exponential(self):
        assert ml_series(-1.0, MlParams(alpha=1.0)) == pytest.approx(math.exp(-1), rel=1e-14)

    def test_half_order_erfc_identity(self, ml_ref):
        # E_{1/2}(-1) = e * erfc(1); frozen from the 50-digit reference
        got = ml_series(-1.0, MlParams(alpha=0.5))
        assert got == pytest.approx(0.42758357615580700441, rel=1e-13)
        assert float(ml_ref(-1.0, 0.5)) == pytest.approx(0.42758357615580700441, rel=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ml_series(math.inf, MlParams(alpha=0.5))

    def test_max_terms_warning(self):
        with pytest.warns(AccuracyWarning):
            ml_series(20.0, MlParams(alpha=0.5))

    def test_cancellation_guard_warning(self):
        # far outside the trustworthy range: peak partial sum dwarfs the value
        with pytest.warns(AccuracyWarning):
            ml_series(-40.0, MlParams(alpha=0.75))


class TestAsymptotic:
    def test_leading_term_value(self):
        # x^-1 / Gamma(1 - alpha) at alpha = 1/2: 1e-6 / sqrt(pi)
        got = ml_asymptotic(1e6, 0.5, n_terms=1)
        assert got == pytest.approx(1e-6 / math.sqrt(math.pi), rel=1e-12)

    def test_one_term_within_five_percent(self, ml_ref):
        ref = float(ml_ref(-100.0, 0.75))
        assert ml_asymptotic(100.0, 0.75, 1) == pytest.approx(ref, rel=0.05)

    def test_three_terms_beat_one(self, ml_ref):
        ref = float(ml_ref(-100.0, 0.75))
        e1 = abs(ml_asymptotic(100.0, 0.75, 1) - ref)
        e3 = abs(ml_asymptotic(100.0, 0.75, 3) - ref)
        assert e3 < e1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ml_asymptotic(-1.0, 0.75)
        with pytest.raises(ValueError):
            ml_asymptotic(10.0, 1.0)
        with pytest.raises(ValueError):
            ml_asymptotic(10.0, 0.75, n_terms=0)


class TestEval:
    def test_at_zero(self):
        for alpha in A_GRID + [1.0]:
            assert ml_eval(0.0, MlParams(alpha=alpha)) == 1.0

    def test_alpha_one_exponential_identity(self):
        z = np.linspace(-20.0, 5.0, 100)
        got = ml_eval(z, MlParams(alpha=1.0))
        assert np.all(np.abs(got - np.exp(z)) <= 1e-12 * np.maximum(1.0, np.exp(z)))

    def test_deep_negative_matches_reference(self, ml_ref):
        ref = float(ml_ref(-50.0, 0.9))
        assert ml_eval(-50.0, MlParams(alpha=0.9)) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("alpha", A_GRID)
    def test_scattered_reference_values(self, alpha, ml_ref):
        for x in [0.3, 2.0, 7.0, 12.0, 30.0, 75.0, 300.0, 1e4]:
            ref = float(ml_ref(-x, alpha))
            assert ml_eval(-x, MlParams(alpha=alpha)) == pytest.approx(ref, rel=2e-7), \
                f"x={x}"

    @pytest.mark.parametrize("alpha", A_GRID)
    def test_monotone_decreasing_on_negative_axis(self, alpha):
        x = np.linspace(0.0, 100.0, 40)
        vals = ml_eval(-x, MlParams(alpha=alpha))
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("alpha", A_GRID)
    def test_branch_seam_agreement(self, alpha):
        # series vs quadrature at the series cutoff, quadrature vs asymptotic
        # at the far switch; both seams must agree much tighter than 1e-6
        p = MlParams(alpha=alpha)
        cutoff = p.series_neg_cutoff
        from fracspec.mittag_leffler import _integral_core
        s = ml_series(-cutoff, p)
        q = float(_integral_core(np.array([cutoff]), alpha)[0])
        assert abs(s - q) / abs(s) < 1e-6
        q50 = float(_integral_core(np.array([p.asymptote_switch]), alpha)[0])
        a50 = ml_asymptotic(p.asymptote_switch, alpha)
        assert abs(q50 - a50) / abs(q50) < 1e-6

    @pytest.mark.parametrize("alpha", [0.97, 0.99, 0.999])
    def test_accuracy_near_one(self, alpha, ml_ref):
        # the contour form loses accuracy like 1e-14/(1 - alpha) as the tail
        # amplitude 1/Gamma(1 - alpha) vanishes, and nowhere faster
        bound = 1e-10 if alpha > 0.99 else 5e-12
        for x in np.geomspace(1e-9, 1e6, 12):
            ref = float(ml_ref(-x, alpha))
            got = ml_eval(-x, MlParams(alpha=alpha))
            assert abs(got - ref) <= bound * ref, f"x={x:.3g}"

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_accuracy_small_alpha(self, alpha, ml_ref):
        for x in np.geomspace(1e-9, 1e6, 12):
            ref = float(ml_ref(-x, alpha))
            got = ml_eval(-x, MlParams(alpha=alpha))
            assert abs(got - ref) <= 5e-13 * ref, f"x={x:.3g}"

    def test_former_asymptotic_seam(self, ml_ref):
        # five asymptotic terms just beyond |z| = 50 were off by 4.3e-7
        ref = float(ml_ref(-50.1, 0.9))
        assert ml_eval(-50.1, MlParams(alpha=0.9)) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_huge_arguments(self, alpha):
        # far beyond where (x + Re sigma)^2 would overflow; three asymptotic
        # terms are exact to double precision from x = 1e8 on
        x = np.array([1e8, 1e12, 1e200, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ml_eval(-x, MlParams(alpha=alpha))
            ref = ml_asymptotic(x, alpha, 3)
        assert np.all(np.abs(got - ref) <= 1e-12 * ref)

    def test_quadrature_at_099_silent(self):
        p = MlParams(alpha=0.99)
        z = -0.5 * (p.series_neg_cutoff + p.asymptote_switch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            ml_eval(z, p)

    def test_array_shape_and_scalar(self):
        p = MlParams(alpha=0.75)
        out = ml_eval(np.array([-1.0, -10.0, -100.0]), p)
        assert out.shape == (3,)
        assert isinstance(ml_eval(-1.0, p), float)

    def test_convenience_wrapper(self):
        assert mittag_leffler(-5.0, 1.0) == pytest.approx(math.exp(-5), rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=1e4),
       alpha=st.floats(min_value=0.05, max_value=1.0))
@example(x=746.0, alpha=1.0)
@example(x=1e4, alpha=0.99999999)
def test_positivity_on_negative_axis(x, alpha):
    # accuracy warnings may fire for alpha -> 1 near the series cutoff; the
    # sign is robust regardless
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        value = ml_eval(-x, MlParams(alpha=alpha))
    assert value >= 0.0
    # E_1(-x) = exp(-x) is below the smallest subnormal for x > 745.13, where
    # the correctly rounded double is 0.0
    if not (alpha == 1.0 and math.exp(-x) == 0.0):
        assert value > 0.0


@settings(max_examples=40, deadline=None)
@given(x1=st.floats(min_value=0.0, max_value=99.0),
       gap=st.floats(min_value=1e-3, max_value=10.0),
       alpha=st.sampled_from(A_GRID))
def test_complete_monotonicity_spot(x1, gap, alpha):
    p = MlParams(alpha=alpha)
    assert ml_eval(-(x1 + gap), p) < ml_eval(-x1, p)
