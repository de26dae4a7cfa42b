import math
import warnings

import numpy as np
import pytest

from fracspec import (FitError, Trajectory, analyze, build_spectrum, cubic,
                      cubic_long_coefficients, closed_form_integer,
                      default_grid, eval_solution, eval_trajectory,
                      fit_power_law, lhs_caputo,
                      logistic, rescale_residual, residual,
                      residual_long_asymptote, residual_short_asymptote,
                      residual_trajectory, rhs_nonlinear, riccati)
from fracspec.residual import _window_exponent

A_GRID = [0.5, 0.75, 0.9]


class TestRhs:
    def test_riccati_fixed_point(self):
        assert rhs_nonlinear(riccati(0.75, 1.0), 1.0) == 0.0

    def test_logistic_midpoint(self):
        assert rhs_nonlinear(logistic(0.3, 0.75, 1.0), 0.5) == pytest.approx(0.25, rel=1e-15)

    def test_cubic(self):
        assert rhs_nonlinear(cubic(0.75, 1.0), 1.0) == pytest.approx(-2.0, rel=1e-15)

    def test_logistic_rate_power(self):
        spec = logistic(0.5, 0.75, 4.0)
        assert rhs_nonlinear(spec, 0.5) == pytest.approx(4.0 ** 0.5 * 0.25, rel=1e-15)

    def test_overflow_is_inf_without_warning(self):
        spec = cubic(0.75, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = rhs_nonlinear(spec, 1e200)
            array = rhs_nonlinear(spec, np.array([1e200, 1e200]))
        assert isinstance(scalar, float) and scalar == -math.inf
        assert np.all(array == -math.inf)


class TestLhsCaputo:
    def test_decays_at_large_t(self):
        sol = build_spectrum(riccati(0.75, 0.5))
        assert abs(lhs_caputo(sol, 1e6)) < 1e-4

    def test_integer_riccati_sech2(self):
        # d/dt tanh(t) = sech^2(t); exponential modes reproduce it
        sol = build_spectrum(riccati(1.0, 0.0))
        want = 1.0 - math.tanh(1.0) ** 2
        assert lhs_caputo(sol, 1.0) == pytest.approx(want, abs=1e-12)

    def test_integer_logistic_matches_rhs_of_closed_form(self):
        spec = logistic(1.0, 0.75, 1.0)
        sol = build_spectrum(spec)
        x = closed_form_integer(spec, 1.0)
        assert lhs_caputo(sol, 1.0) == pytest.approx(x * (1.0 - x), rel=1e-11)

    def test_rejects_negative_time(self):
        sol = build_spectrum(riccati(0.75, 0.5))
        with pytest.raises(ValueError):
            lhs_caputo(sol, -0.1)

    def test_t_zero_is_mode_sum_limit(self):
        sol = build_spectrum(riccati(0.75, 0.5))
        want = float(np.sum(sol.coeffs * sol.eigenvalues))
        assert lhs_caputo(sol, 0.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("t", [0.3, 0.9])
    def test_against_memory_integral_quadrature(self, t, caputo_quadrature):
        # independent route: piecewise-linear quadrature of the Caputo
        # integral of the evaluated solution, no eigenvalue identity involved
        spec = riccati(0.75, 0.5)
        sol = build_spectrum(spec)
        quad = caputo_quadrature(lambda tau: eval_trajectory(sol, tau).values, t, 0.75)
        assert abs(quad - lhs_caputo(sol, t)) < 1e-4


class TestResidualValues:
    """Implementation pinned against 30-digit reference evaluations."""

    def test_riccati_frozen(self):
        sol = build_spectrum(riccati(0.75, 0.5))
        assert residual(sol, 1e-4) == pytest.approx(1.799455118808645e-7, rel=1e-6)
        assert residual(sol, 1.0) == pytest.approx(1.3586313904185624e-2, rel=1e-6)
        assert residual(sol, 1e3) == pytest.approx(1.1688210345148039e-4, rel=1e-6)

    def test_logistic_frozen(self):
        sol = build_spectrum(logistic(0.75, 0.75, 1.0))
        assert residual(sol, 1.0) == pytest.approx(2.9570048851002374e-3, rel=1e-6)

    def test_cubic_frozen(self):
        sol = build_spectrum(cubic(0.75, 1.0, 1.0, 1.0))
        assert residual(sol, 1.0) == pytest.approx(4.7387061802097443e-2, rel=1e-6)

    def test_riccati_edge_long_time_frozen(self):
        # x0 = 0 keeps a usable tail even though its short-time sum is wild
        sol = build_spectrum(riccati(0.9, 0.0))
        assert residual(sol, 1e3) == pytest.approx(-1.2653947509754917e-4, rel=1e-6)

    def test_integer_order_vanishes(self):
        for spec in [riccati(1.0, 0.5), logistic(1.0, 0.75, 1.0), cubic(1.0, 1.0)]:
            sol = build_spectrum(spec)
            for t in [0.0, 0.5, 2.0, 10.0]:
                assert abs(residual(sol, t)) < 1e-12

    def test_fixed_points_are_annihilated(self):
        for spec in [riccati(0.75, 1.0), logistic(0.75, 1.0, 1.0), cubic(0.75, 0.0)]:
            sol = build_spectrum(spec)
            traj = eval_solution(sol, 3.0)
            assert traj == pytest.approx(spec.x0, abs=1e-14)
            for t in [1e-3, 1.0, 1e2]:
                assert abs(residual(sol, t)) < 1e-14


class TestOnePointPaths:
    """The scalar entry points are one-point calls of the trajectory paths."""

    @pytest.mark.parametrize("spec", [riccati(0.75, 0.5), riccati(0.75, 0.0),
                                      logistic(0.9, 0.75, 1.0), cubic(0.5, 1.0)],
                             ids=["riccati", "riccati-x0=0", "logistic", "cubic"])
    def test_trajectory_accepts_t_zero(self, spec):
        sol = build_spectrum(spec)
        traj = residual_trajectory(sol, [0.0, 1.0])
        assert traj.values[0] == residual(sol, 0.0)
        assert traj.values[1] == residual(sol, 1.0)

    def test_riccati_edge_t_zero_uses_x0(self):
        # ratio -1: X(0) = x0 = 0, not the even-K sum -1, so Delta(0) =
        # f(0) - sum_k c_k lambda_k = 1 - 200
        sol = build_spectrum(riccati(0.75, 0.0))
        assert residual_trajectory(sol, [0.0, 1.0]).values[0] == -199.0


class TestShortAsymptote:
    def test_riccati_fixed_point_zero(self):
        assert residual_short_asymptote(riccati(0.75, 1.0), 0.5) == 0.0

    def test_riccati_substitution(self):
        # t^(2a) / Gamma(1+a)^2 * (1 - x0^2)^2 at x0 = 0, t = 1e-2, a = 3/4
        want = 1e-3 / math.gamma(1.75) ** 2
        assert residual_short_asymptote(riccati(0.75, 0.0), 1e-2, model="paper") == \
            pytest.approx(want, rel=1e-15)

    def test_logistic_rate_factor(self):
        # general rate via the exact rescaling identity: lambda^(3a) overall
        base = residual_short_asymptote(logistic(0.75, 0.75, 1.0), 1e-3, model="paper")
        scaled = residual_short_asymptote(logistic(0.75, 0.75, 2.0), 1e-3, model="paper")
        assert scaled / base == pytest.approx(2.0 ** (3 * 0.75), rel=1e-13)

    # Measured residual over paper-formula ratios at t = 1e-4 (30-digit
    # reference).  The paper's formula overestimates the true t^(2a) amplitude by
    # 1/(2 Gamma(1+a)^2/Gamma(2a+1) - 1) for the quadratic equations and is
    # shape-wrong for the cubic; these pins document the actual relationship.
    @pytest.mark.parametrize("alpha,want", [(0.5, 0.553147), (0.75, 0.270214), (0.9, 0.103442)])
    def test_measured_ratio_riccati(self, alpha, want):
        sol = build_spectrum(riccati(alpha, 0.5))
        ratio = residual(sol, 1e-4) / residual_short_asymptote(riccati(alpha, 0.5), 1e-4,
                                                               model="paper")
        assert ratio == pytest.approx(want, rel=2e-4)

    @pytest.mark.parametrize("alpha,want", [(0.5, 0.561952), (0.75, 0.270517), (0.9, 0.103465)])
    def test_measured_ratio_logistic(self, alpha, want):
        spec = logistic(alpha, 0.75, 1.0)
        sol = build_spectrum(spec)
        ratio = residual(sol, 1e-4) / residual_short_asymptote(spec, 1e-4, model="paper")
        assert ratio == pytest.approx(want, rel=2e-4)

    @pytest.mark.parametrize("alpha,want", [(0.5, 3.32213), (0.75, 1.68361), (0.9, 0.646098)])
    def test_measured_ratio_cubic(self, alpha, want):
        spec = cubic(alpha, 0.5, 1.0, 1.0)
        sol = build_spectrum(spec)
        ratio = residual(sol, 1e-4) / residual_short_asymptote(spec, 1e-4, model="paper")
        assert ratio == pytest.approx(want, rel=2e-4)

    def test_derived_fixed_points_zero(self):
        t = np.geomspace(1e-4, 1.0, 20)
        for spec in [riccati(0.75, 1.0), logistic(0.75, 1.0, 1.0), cubic(0.75, 0.0)]:
            assert np.all(residual_short_asymptote(spec, t) == 0.0)

    @pytest.mark.parametrize("alpha", A_GRID)
    def test_derived_leading_amplitude(self, alpha):
        # d_2 = -1/2 f''(x0) f(x0)^2 c(a) / Gamma(1+a)^2: the paper's quadratic
        # amplitude times c(a), and 3b x0 (a x0 + b x0^3)^2 c(a) / G^2 for the cubic
        t = 1e-20
        g1 = math.gamma(1.0 + alpha)
        c = 2.0 * g1 ** 2 / math.gamma(1.0 + 2.0 * alpha) - 1.0
        for spec in [riccati(alpha, 0.5), logistic(alpha, 0.75, 2.0)]:
            ratio = (residual_short_asymptote(spec, t)
                     / residual_short_asymptote(spec, t, model="paper"))
            assert ratio == pytest.approx(c, rel=1e-6)
        x0, a, b = 0.7, 2.0, 0.5
        want = 3.0 * b * x0 * (a * x0 + b * x0 ** 3) ** 2 * c / g1 ** 2 * t ** (2 * alpha)
        assert residual_short_asymptote(cubic(alpha, x0, a, b), t) == \
            pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("spec", [riccati(0.75, 2.0), logistic(0.75, 0.6, 2.0),
                                      cubic(0.75, 0.7, 2.0, 0.5)],
                             ids=["riccati", "logistic", "cubic"])
    def test_derived_tracks_residual(self, spec):
        sol = build_spectrum(spec)
        for t in [1e-4, 1e-3]:
            assert residual(sol, t) == pytest.approx(
                residual_short_asymptote(spec, t), rel=1e-3)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            residual_short_asymptote(riccati(0.75, 0.5), 1e-3, model="fitted")
        with pytest.raises(ValueError):
            residual_long_asymptote(riccati(0.75, 0.5), 1e3, model="fitted")


class TestLongAsymptote:
    def test_riccati_fixed_point_substitution(self):
        # the model formula as written gives 2 t^(-a)/Gamma(1-a) at x0 = 1
        # (the measured residual is identically zero there; see the ratio pins)
        alpha = 0.75
        want = 2.0 * 10.0 ** (-alpha) / math.gamma(0.25)
        assert residual_long_asymptote(riccati(alpha, 1.0), 10.0, model="paper") == \
            pytest.approx(want, rel=1e-13)

    def test_logistic_fixed_point_zero(self):
        assert residual_long_asymptote(logistic(0.75, 1.0, 1.0), 10.0) == 0.0

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            residual_long_asymptote(riccati(1.0, 0.5), 10.0)

    # measured-over-model ratios at t = 1e3 (30-digit reference): the paper's
    # riccati formula does not reproduce the computed tail at any x0, while
    # the logistic one does
    @pytest.mark.parametrize("alpha,want", [(0.5, 0.080035), (0.75, 0.0815115), (0.9, 0.081566)])
    def test_measured_ratio_riccati(self, alpha, want):
        spec = riccati(alpha, 0.5)
        sol = build_spectrum(spec)
        ratio = residual(sol, 1e3) / residual_long_asymptote(spec, 1e3, model="paper")
        assert ratio == pytest.approx(want, rel=2e-4)

    @pytest.mark.parametrize("alpha,want", [(0.5, 0.999885), (0.75, 1.00324), (0.9, 1.00188)])
    def test_measured_ratio_logistic(self, alpha, want):
        spec = logistic(alpha, 0.75, 1.0)
        sol = build_spectrum(spec)
        ratio = residual(sol, 1e3) / residual_long_asymptote(spec, 1e3)
        assert ratio == pytest.approx(want, rel=2e-4)

    def test_riccati_is_twice_logistic(self):
        # Y = (X+1)/2 maps riccati onto logistic with lambda^a = 2 and
        # y0 = (x0+1)/2, so the riccati tail is twice the logistic one
        alpha = 0.75
        t = np.geomspace(1e2, 1e4, 7)
        want = 2.0 * residual_long_asymptote(logistic(alpha, 0.75, 2.0 ** (1 / alpha)), t)
        got = residual_long_asymptote(riccati(alpha, 0.5), t)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_derived_fixed_points_zero(self):
        t = np.geomspace(1e2, 1e4, 7)
        for spec in [riccati(0.75, 1.0), logistic(0.75, 1.0, 1.0), cubic(0.75, 0.0)]:
            assert np.all(residual_long_asymptote(spec, t) == 0.0)

    @pytest.mark.parametrize("alpha", A_GRID)
    @pytest.mark.parametrize("x0", [0.25, 0.5, 2.0])
    def test_derived_ratio_riccati(self, alpha, x0):
        spec = riccati(alpha, x0)
        ratio = residual(build_spectrum(spec), 1e3) / residual_long_asymptote(spec, 1e3)
        assert ratio == pytest.approx(1.0, abs=3e-3)

    def test_cubic_tail_fit_tracks_residual(self):
        spec = cubic(0.75, 0.5, 1.0, 1.0)
        sol = build_spectrum(spec)
        for t in [2e2, 1e3, 5e3]:
            model = residual_long_asymptote(spec, t)
            assert residual(sol, t) == pytest.approx(model, rel=1e-2)

    def test_cubic_coefficients_exposed(self):
        c1, c2, c3 = cubic_long_coefficients(cubic(0.75, 1.0))
        # leading coefficient x0 (1 - asin(sqrt(rho))/(sqrt(rho) sqrt(1+beta)))
        # for a = b = 1, x0 = 1: 1 - pi/4 = 0.2146...
        assert c1 == pytest.approx(1.0 - math.pi / 4.0, rel=5e-3)
        assert math.isfinite(c2) and math.isfinite(c3)


class TestRescaling:
    def test_identity_at_unit_rate(self):
        traj = Trajectory([1.0, 2.0], [0.1, 0.2], meta="residual")
        out = rescale_residual(traj, 1.0, 0.75)
        assert np.array_equal(out.times, traj.times)
        assert np.array_equal(out.values, traj.values)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_exact_collapse(self, lam):
        # lambda^-a Delta_lam(t) == Delta_1(lam t) pointwise
        alpha = 0.75
        grid = np.geomspace(1e-3, 1e2, 160)
        sol_lam = build_spectrum(logistic(alpha, 0.75, lam))
        sol_one = build_spectrum(logistic(alpha, 0.75, 1.0))
        rescaled = rescale_residual(residual_trajectory(sol_lam, grid), lam, alpha)
        reference = residual_trajectory(sol_one, grid * lam)
        assert np.max(np.abs(rescaled.values - reference.values)) <= 1e-10

    def test_rejects_bad_rate(self):
        traj = Trajectory([1.0, 2.0], [0.1, 0.2], meta="residual")
        with pytest.raises(ValueError):
            rescale_residual(traj, 0.0, 0.75)


class TestFitPowerLaw:
    def test_exact_power(self):
        t = np.geomspace(0.1, 10.0, 40)
        traj = Trajectory(t, 3.0 * t ** 2, meta="residual")
        expo, pref = fit_power_law(traj, 0.1, 10.0)
        assert expo == pytest.approx(2.0, abs=1e-12)
        assert pref == pytest.approx(3.0, rel=1e-12)

    def test_too_few_points(self):
        t = np.geomspace(0.1, 10.0, 40)
        traj = Trajectory(t, 3.0 * t ** 2, meta="residual")
        with pytest.raises(FitError):
            fit_power_law(traj, 20.0, 30.0)

    def test_sign_change_rejected(self):
        t = np.geomspace(0.1, 10.0, 40)
        traj = Trajectory(t, np.sin(t), meta="residual")
        with pytest.raises(FitError):
            fit_power_law(traj, 0.1, 10.0)


class TestWindowExponent:
    @pytest.mark.parametrize("power", [1.0, 3.0])
    @pytest.mark.parametrize("window, correction", [((1e-4, 1e-2), 0.5),
                                                    ((1e2, 1e3), -0.5)])
    def test_pure_powers_exact(self, power, window, correction):
        # t^a and t^(3a) carry no next-order term: the t^(+-a) basis function
        # takes nothing from the log t coefficient
        t = np.geomspace(1e-4, 1e3, 400)
        traj = Trajectory(t, 2.0 * t ** (power * 0.5), meta="residual")
        assert _window_exponent(traj, *window, correction) == pytest.approx(
            power * 0.5, abs=1e-10)


class TestAnalyze:
    def test_riccati_report(self):
        report = analyze(riccati(0.75, 0.5))
        assert report.fitted_short_exponent == pytest.approx(1.5, rel=0.05)
        assert report.fitted_long_exponent == pytest.approx(-0.75, rel=0.05)
        # interior hump: peak in [0.1, 10], endpoints well below it
        assert 0.1 <= report.t_at_max <= 10.0
        assert abs(report.grid.values[0]) < report.max_abs_delta
        assert abs(report.grid.values[-1]) < report.max_abs_delta

    @pytest.mark.parametrize("alpha", A_GRID)
    def test_scaling_windows_all_kinds(self, alpha):
        # deep windows, where the t^(+-alpha) next-order corrections have
        # decayed: the fitted slopes converge to 2 alpha and -alpha
        grid = np.geomspace(1e-7, 1e4, 500)
        for spec in [riccati(alpha, 0.5), logistic(alpha, 0.75, 1.0),
                     cubic(alpha, 0.5, 1.0, 1.0)]:
            report = analyze(spec, grid=grid,
                             short_window=(1e-6, 1e-4), long_window=(1e3, 1e4))
            assert report.fitted_short_exponent == pytest.approx(2 * alpha, rel=0.03)
            assert report.fitted_long_exponent == pytest.approx(-alpha, rel=0.03)
            # the deviation vanishes toward both ends of the grid
            assert abs(report.grid.values[0]) < report.max_abs_delta
            assert abs(report.grid.values[-1]) < report.max_abs_delta

    def test_integer_order_report(self):
        report = analyze(riccati(1.0, 0.5), grid=np.geomspace(1e-2, 10.0, 50))
        assert report.max_abs_delta < 1e-12
        assert math.isnan(report.fitted_short_exponent)
        assert np.all(report.long_asymptote.values == 0.0)

    @pytest.mark.parametrize("alpha", [0.75, 1.0])
    def test_rejects_nonpositive_grid(self, alpha):
        # the fit windows take log t; reject before any work is done
        grid = np.linspace(0.0, 10.0, 50)
        with pytest.raises(ValueError, match="positive"):
            analyze(riccati(alpha, 0.5), grid=grid)

    def test_argmax_first_occurrence(self):
        grid = np.geomspace(1e-4, 1e3, 60)
        report = analyze(logistic(0.75, 0.75, 1.0), grid=grid)
        idx = int(np.argmax(np.abs(report.grid.values)))
        assert report.t_at_max == grid[idx]

    def test_default_grid_shape(self):
        g = default_grid()
        assert g[0] == pytest.approx(1e-4) and g[-1] == pytest.approx(1e3)
        assert g.size == 400
