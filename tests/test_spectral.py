import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import (EquationKind, ProblemSpec, Trajectory, build_spectrum,
                      closed_form_integer, cubic, eval_solution,
                      eval_trajectory, logistic, riccati)


class TestProblemSpec:
    def test_riccati_rejects_negative_x0(self):
        with pytest.raises(ValueError):
            riccati(0.75, -0.1)

    def test_riccati_rejects_foreign_params(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="riccati", alpha=0.75, x0=0.5, lambda_=1.0)

    def test_logistic_rejects_divergent_x0(self):
        for bad in [0.5, 0.3, 0.0]:
            with pytest.raises(ValueError):
                logistic(0.75, bad)

    def test_logistic_requires_rate(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="logistic", alpha=0.75, x0=0.75)
        for rate in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError):
                logistic(0.75, 0.75, rate)

    def test_cubic_domain(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="cubic", alpha=0.75, x0=1.0, a=0.0, b=1.0)
        with pytest.raises(ValueError):
            ProblemSpec(kind="cubic", alpha=0.75, x0=1.0, a=1.0, b=-0.5)
        with pytest.raises(ValueError):
            ProblemSpec(kind="cubic", alpha=0.75, x0=1.0, a=1.0, b=math.nan)
        with pytest.raises(ValueError):
            cubic(0.75, 1.0, a=math.inf)
        with pytest.raises(ValueError):
            cubic(0.75, 1.0, b=math.inf)
        cubic(0.75, 1.0, a=2.0, b=0.0)   # b = 0 (linear limit) is allowed

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            riccati(0.0, 0.5)
        with pytest.raises(ValueError):
            riccati(1.0001, 0.5)

    def test_kind_coercion(self):
        assert ProblemSpec(kind="riccati", alpha=1.0, x0=0.0).kind is EquationKind.RICCATI


class TestBuildSpectrum:
    def test_riccati_edge_x0_zero(self):
        sol = build_spectrum(riccati(0.75, 0.0), terms=3)
        assert np.allclose(sol.eigenvalues, [0.0, -2.0, -4.0])
        assert np.allclose(sol.coeffs, [2.0, -2.0, 2.0])
        assert sol.offset == -1.0

    def test_logistic_small(self):
        sol = build_spectrum(logistic(0.6, 0.75, 1.0), terms=3)
        assert np.allclose(sol.eigenvalues, [0.0, -1.0, -2.0])
        assert np.allclose(sol.coeffs, [1.0, -1.0 / 3.0, 1.0 / 9.0])
        assert sol.offset == 0.0

    def test_logistic_rate_scaling(self):
        sol = build_spectrum(logistic(0.75, 0.75, 2.0), terms=4)
        assert np.allclose(np.diff(sol.eigenvalues), -(2.0 ** 0.75))

    def test_cubic_small(self):
        sol = build_spectrum(cubic(0.9, 1.0, 1.0, 1.0), terms=2)
        assert np.allclose(sol.eigenvalues, [-1.0, -3.0])
        assert sol.coeffs[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert sol.coeffs[1] == pytest.approx(0.25 / math.sqrt(2.0), rel=1e-15)

    def test_spectrum_gaps(self):
        # riccati eigenvalues step by -2, logistic by -lambda^alpha
        r = build_spectrum(riccati(0.75, 0.25), terms=10)
        assert np.allclose(np.diff(r.eigenvalues), -2.0)
        lo = build_spectrum(logistic(0.75, 0.75, 1.0), terms=10)
        assert np.allclose(np.diff(lo.eigenvalues), -1.0)

    def test_terms_validation(self):
        with pytest.raises(ValueError):
            build_spectrum(riccati(0.75, 0.5), terms=0)


class TestEvalSolution:
    def test_t_zero_returns_x0_exactly(self):
        for spec in [riccati(0.75, 0.5), logistic(0.9, 0.75, 1.0), cubic(0.5, 1.0)]:
            sol = build_spectrum(spec)
            assert eval_solution(sol, 0.0) == spec.x0

    def test_initial_condition_recovery_near_zero(self):
        # at t -> 0+ the full mode sum telescopes to x0 up to the geometric tail
        cases = [
            (riccati(0.75, 0.5), abs(1.0 + 0.5) * (1.0 / 3.0) ** 100),
            (logistic(0.75, 0.75, 1.0), (1.0 / 3.0) ** 100),
            (cubic(0.75, 1.0), 1.0 * 0.5 ** 100),
        ]
        for spec, tail in cases:
            sol = build_spectrum(spec, 100)
            assert abs(eval_solution(sol, 1e-30) - spec.x0) <= tail + 1e-12

    def test_riccati_tanh(self):
        sol = build_spectrum(riccati(1.0, 0.0))
        assert eval_solution(sol, 1.0) == pytest.approx(math.tanh(1.0), rel=1e-12)

    def test_logistic_integer_value(self):
        sol = build_spectrum(logistic(1.0, 0.75, 1.0))
        want = 0.75 / (0.75 + 0.25 * math.exp(-2.0))   # = 0.95683546702000374
        assert eval_solution(sol, 2.0) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.95683546702000374, rel=1e-15)

    def test_negative_time_rejected(self):
        sol = build_spectrum(riccati(0.75, 0.5))
        with pytest.raises(ValueError):
            eval_solution(sol, -1.0)


class TestTailBound:
    def test_covers_cubic_truncation(self):
        # ratio rho = 100/101: K = 100 gives 8.397 at t = 1e-6, K = 1000 9.965
        sol = build_spectrum(cubic(0.75, 10.0), 100)
        gap = abs(eval_solution(sol, 1e-6) - eval_solution(build_spectrum(sol.spec, 1000), 1e-6))
        assert gap > 1.5
        assert gap <= sol.tail_bound

    @pytest.mark.parametrize("spec", [riccati(0.75, 0.5), riccati(0.9, 3.0),
                                      logistic(0.5, 0.6, 2.0), cubic(0.5, -2.0, 1.0, 1.0)])
    def test_bounds_summed_tail(self, spec):
        # the geometric tails are exact; the cubic bound overestimates its sum
        # by the decay of r_k past K (6% for the case here)
        sol = build_spectrum(spec, 30)
        summed = float(np.abs(build_spectrum(spec, 5000).coeffs[30:]).sum())
        assert summed <= sol.tail_bound * (1 + 1e-12)
        assert sol.tail_bound <= summed * (1 + 0.1)

    def test_unit_ratio_unbounded(self):
        assert build_spectrum(riccati(0.75, 0.0)).tail_bound == math.inf
        assert build_spectrum(riccati(0.75, 1.0)).tail_bound == 0.0


class TestEvalTrajectory:
    def test_single_point_grid(self):
        sol = build_spectrum(riccati(0.75, 0.5))
        traj = eval_trajectory(sol, [0.0])
        assert traj.values[0] == 0.5
        assert traj.meta == "spectral"

    def test_matches_scalar_eval(self):
        sol = build_spectrum(cubic(0.75, 1.0))
        grid = np.geomspace(1e-2, 50.0, 20)
        traj = eval_trajectory(sol, grid)
        for t, v in zip(grid[::5], traj.values[::5]):
            assert v == pytest.approx(eval_solution(sol, float(t)), rel=1e-13)

    def test_riccati_monotone_rise_to_one(self):
        # even the x0 = 0 edge (mode ratio -1) rises monotonically toward 1
        for alpha in [0.5, 0.75, 0.9, 1.0]:
            for x0 in [0.0, 0.5]:
                sol = build_spectrum(riccati(alpha, x0))
                traj = eval_trajectory(sol, np.geomspace(1e-3, 1e3, 120))
                assert np.all(np.diff(traj.values) >= -1e-12), (alpha, x0)
                assert abs(traj.values[-1] - 1.0) < 0.05

    def test_long_time_limits(self):
        for spec, limit in [(riccati(0.75, 0.25), 1.0),
                            (logistic(0.75, 0.75, 1.0), 1.0),
                            (cubic(0.75, 1.0), 0.0)]:
            sol = build_spectrum(spec)
            assert abs(eval_solution(sol, 1e3) - limit) < 0.05

    def test_cubic_integer_matches_closed_form(self):
        spec = cubic(1.0, 1.0, 1.0, 1.0)
        sol = build_spectrum(spec)
        grid = np.linspace(0.0, 5.0, 40)
        traj = eval_trajectory(sol, grid)
        assert np.max(np.abs(traj.values - closed_form_integer(spec, grid))) < 1e-10

    def test_bad_grid_rejected(self):
        sol = build_spectrum(riccati(0.75, 0.5))
        with pytest.raises(ValueError):
            eval_trajectory(sol, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            eval_trajectory(sol, [])


class TestClosedForms:
    def test_riccati_values(self):
        spec = riccati(1.0, 0.0)
        assert closed_form_integer(spec, 0.0) == 0.0
        spec = riccati(1.0, 0.5)
        assert closed_form_integer(spec, 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_cubic_at_zero(self):
        assert closed_form_integer(cubic(1.0, 1.0), 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_requires_integer_order(self):
        with pytest.raises(ValueError):
            closed_form_integer(riccati(0.75, 0.5), 1.0)


class TestTrajectoryType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=[0.0, 1.0], values=[1.0], meta="spectral")
        with pytest.raises(ValueError):
            Trajectory(times=[1.0, 0.5], values=[0.0, 0.0], meta="spectral")
        with pytest.raises(ValueError):
            Trajectory(times=[0.0, 1.0], values=[0.0, math.nan], meta="spectral")
        with pytest.raises(ValueError):
            Trajectory(times=[0.0, 1.0], values=[0.0, 1.0], meta="bogus")
        for times in ([0.0, math.nan], [math.nan, 1.0], [0.0, math.inf]):
            with pytest.raises(ValueError):
                Trajectory(times=times, values=[0.0, 0.0], meta="spectral")

    def test_values_are_frozen(self):
        traj = Trajectory(times=[0.0, 1.0], values=[0.0, 1.0], meta="numerical")
        with pytest.raises(ValueError):
            traj.values[0] = 5.0


def _probe_time(alpha: float) -> float:
    # deep enough that the first-order t^alpha drift stays below ~1e-14
    return max(10.0 ** (-14.0 / alpha), 1e-290)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.3, max_value=1.0),
       x0=st.floats(min_value=0.0, max_value=3.0),
       terms=st.integers(min_value=20, max_value=150))
def test_riccati_initial_condition_property(alpha, x0, terms):
    sol = build_spectrum(riccati(alpha, x0), terms)
    ratio = abs((x0 - 1.0) / (x0 + 1.0))
    tail = abs(1.0 + x0) * ratio ** terms
    assert abs(eval_solution(sol, _probe_time(alpha)) - x0) <= tail + 1e-10


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.3, max_value=1.0),
       x0=st.floats(min_value=0.51, max_value=1.0),
       lam=st.floats(min_value=0.1, max_value=5.0))
def test_logistic_initial_condition_property(alpha, x0, lam):
    sol = build_spectrum(logistic(alpha, x0, lam), 100)
    ratio = abs((x0 - 1.0) / x0)
    assert abs(eval_solution(sol, _probe_time(alpha)) - x0) <= ratio ** 100 + 1e-10
