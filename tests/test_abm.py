import math
import tracemalloc
import warnings
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import (DivergenceError, IntegratorConfig, MlParams, Trajectory,
                      abm_solve, abm_solve_grid, abm_solve_two_phase,
                      build_spectrum, closed_form_integer, compare_solutions,
                      cubic, eval_trajectory, fit_power_law, logistic,
                      ml_eval, riccati, two_phase_grid)
from fracspec import abm
from fracspec.abm import _grid_sums, _lattice, _lattice_kernels, _march


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=1.0, h=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=1e-4, h=1e-3)
        with pytest.raises(ValueError):
            IntegratorConfig(t_max=1e4, h=1e-3)     # 1e7 steps > MAX_STEPS
        for t_max, h in [(math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.inf)]:
            with pytest.raises(ValueError):
                IntegratorConfig(t_max=t_max, h=h)

    def test_n_steps(self):
        assert IntegratorConfig(t_max=10.0, h=1e-3).n_steps == 10_000


def step_weights(alpha, n):
    """The uniform provider's (w_pred, w_hist, w_self) for the step n -> n+1,
    aligned with f_0..f_n, in units of h^a/Gamma(a+1) and h^a/Gamma(a+2):
    f_j takes the predictor kernel at lag n - j, f_0 the first kernel at lag
    n and f_1..f_n the interior kernel at lags n - 1..0."""
    pred, inter = _lattice_kernels(alpha, np.arange(n + 1), ("pred", "interior"))
    (first,) = _lattice_kernels(alpha, [n], ("first",))
    return pred[::-1], np.concatenate((first, inter[-2::-1])), 1.0


class TestWeights:
    def test_predictor_euler_limit(self):
        for n, j in [(0, 0), (5, 2), (50, 50)]:
            assert step_weights(1.0, n)[0][j] == pytest.approx(1.0, rel=1e-14)

    def test_predictor_substitution(self):
        # b_0 = 1^a - 0^a; times h^a/Gamma(a+1) it is the one-step integral
        # h^a/(a Gamma(a)) of the kernel
        w_pred, _, _ = step_weights(0.5, 0)
        assert w_pred.tolist() == [1.0]

    def test_predictor_positive_decreasing_in_lag(self):
        for alpha in [0.5, 0.75, 0.9]:
            for n in [10, 100]:
                w = step_weights(alpha, n)[0]
                assert w.size == n + 1
                assert np.all(w > 0)
                assert np.all(np.diff(w) > 0)   # weight grows toward j = n (lag shrinks)

    def test_corrector_first_weight(self):
        # first step (n = 0): 0^(a+1) - (0 - a) * 1^a = a; the predicted
        # point carries weight 1
        _, w_hist, w_self = step_weights(0.5, 0)
        assert w_hist[0] == pytest.approx(0.5, rel=1e-14)
        assert w_self == 1.0

    def test_corrector_interior_integer_limit(self):
        # raw interior weight 2; the solver's common factor h/Gamma(3) halves
        # it to the trapezoid value h
        w_hist = step_weights(1.0, 6)[1]
        assert w_hist[1:] == pytest.approx(2.0, rel=1e-13)

    def test_corrector_nonnegative_scan(self):
        for alpha in [0.3, 0.5, 0.75, 0.9, 1.0]:
            for n in [1, 2, 5, 17, 130, 1024, 10_000]:
                assert step_weights(alpha, n)[1].min() >= 0.0


class TestKernelTables:
    # integer lags 0, 1, ... and log-spaced up to 1e6, where the closed forms
    # (m+2)^(a+1) + m^(a+1) - 2(m+1)^(a+1) etc. cancel ~m^2 ulps (~1e-6)
    LAGS = np.unique(np.rint(np.concatenate(([0.0], np.geomspace(1.0, 1e6, 200)))))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9, 1.0])
    def test_against_mpmath(self, alpha):
        tables = _lattice_kernels(alpha, self.LAGS)
        with mp.workdps(40):
            a = mp.mpf(alpha)
            for i, lag in enumerate(self.LAGS.astype(int).tolist()):
                m = mp.mpf(lag)
                refs = ((m + 1) ** a - m ** a,
                        (m + 2) ** (a + 1) + m ** (a + 1) - 2 * (m + 1) ** (a + 1),
                        m ** (a + 1) - (m - a) * (m + 1) ** a,
                        (m + 1) ** (a + 1) - m ** (a + 1) - (a + 1) * m ** a)
                for name, table, ref in zip(("pred", "interior", "first", "right"),
                                            tables, refs):
                    rel = abs((float(table[i]) - ref) / ref)
                    assert rel <= 1e-14, f"{name} alpha={alpha} m={lag}: {float(rel):.3g}"


def _exact_dot(a, b):
    """a . b rounded once: each product split exactly into p + e (Dekker),
    all summed by math.fsum."""
    p = a * b
    split_a, split_b = a * 134217729.0, b * 134217729.0     # 2^27 + 1
    a_hi = split_a - (split_a - a)
    b_hi = split_b - (split_b - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return math.fsum(np.concatenate((p, e)).tolist())


def _rebuilt(spec, grid):
    """The per-step weight rebuild on the same grid, as the lattice reference."""
    inv_gamma = 1.0 / math.gamma(spec.alpha)
    return _march(spec, grid, partial(_grid_sums, grid, spec.alpha), inv_gamma, inv_gamma)


class TestLatticeTables:
    @pytest.mark.parametrize("h_fine, t_switch, h_coarse, t_max, tol", [
        (1e-2, 1.0, 0.1, 3.0, 1e-13),
        # the rebuild's own weights carry ~m^2 ulps at the long-tail size
        (1e-2, 10.0, 0.5, 1e3, 1e-9),
    ])
    def test_two_phase_matches_rebuild(self, h_fine, t_switch, h_coarse, t_max, tol):
        spec = riccati(0.75, 2.0)
        grid = two_phase_grid(h_fine, t_switch, h_coarse, t_max)
        assert _lattice(grid) is not None
        two = abm_solve_two_phase(spec, h_fine, t_switch, h_coarse, t_max)
        assert np.max(np.abs(two.values - _rebuilt(spec, grid))) <= tol

    @pytest.mark.parametrize("h_fine, t_switch, h_coarse, t_max, shape", [
        (1e-2, 1.03, 0.05, 2.0, (103, 5, 19)),     # n_fine not a multiple of ratio
        (1e-2, 0.03, 0.1, 1.0, (3, 10, 10)),       # ratio > n_fine
        (0.1, 0.1, 0.2, 0.7, (1, 2, 3)),           # n_fine = 1: L = 0, 1, 3, 5, 7
    ])
    def test_lattice_shapes_match_rebuild(self, h_fine, t_switch, h_coarse, t_max, shape):
        grid = two_phase_grid(h_fine, t_switch, h_coarse, t_max)
        assert _lattice(grid)[1:] == shape
        for spec in (riccati(0.75, 2.0), cubic(0.5, 1.0)):
            assert np.max(np.abs(abm_solve_grid(spec, grid).values - _rebuilt(spec, grid))) <= 1e-13

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(min_value=0.3, max_value=1.0),
           n_fine=st.integers(min_value=1, max_value=12),
           ratio=st.integers(min_value=2, max_value=7),
           n_coarse=st.integers(min_value=1, max_value=12))
    def test_lattice_matches_rebuild_property(self, alpha, n_fine, ratio, n_coarse):
        lags = np.concatenate((np.arange(n_fine + 1), n_fine + ratio * np.arange(1, n_coarse + 1)))
        grid = 0.05 * lags
        assert _lattice(grid)[1:] == (n_fine, ratio, n_coarse)
        spec = riccati(alpha, 2.0)
        assert np.max(np.abs(abm_solve_grid(spec, grid).values - _rebuilt(spec, grid))) <= 1e-13

    def test_long_fine_phase_short_coarse_phase_memory(self):
        # 2000 fine nodes against 2 coarse steps of ratio 2: the fine
        # history's share of the coarse steps must keep the solve's memory
        # O(N) however the nodes split between the phases
        grid = two_phase_grid(1e-3, 2.0, 2e-3, 2.004)
        assert _lattice(grid)[1:] == (2000, 2, 2)
        spec = riccati(0.75, 2.0)
        tracemalloc.start()
        try:
            values = abm_solve_grid(spec, grid).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert np.max(np.abs(values - _rebuilt(spec, grid))) <= 1e-13

    @pytest.mark.parametrize("grid", [0.01 * np.arange(301),
                                      two_phase_grid(1e-2, 1.03, 0.05, 2.0),
                                      two_phase_grid(1e-2, 1.0, 0.1, 3.0)],
                             ids=["uniform", "two-phase", "two-phase-chunks"])
    def test_long_run_products_match_short_run_products(self, monkeypatch, grid):
        # runs past _GEMV_STEPS take a ddot per sum from a row-major table;
        # here the fine history's share also comes in blocks of 6 coarse steps
        spec = riccati(0.75, 2.0)
        short = abm_solve_grid(spec, grid).values
        monkeypatch.setattr(abm, "_GEMV_STEPS", 0)
        monkeypatch.setattr(abm, "_SHARE_CELLS", 64)
        long = abm_solve_grid(spec, grid).values
        assert np.max(np.abs(long - short)) <= 1e-14
        assert np.max(np.abs(long - _rebuilt(spec, grid))) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9])
    def test_fine_share_accuracy(self, alpha):
        # the long-tail grid (1000 fine nodes, ratio 50, 1980 coarse steps);
        # with f_0 = 0 and f = 0 from the switch node on, a coarse step's
        # sums are the fine history's share alone.  One dgemv per step, a
        # single running sum over 999 terms, was 5.7-9.6e-16 off.
        n_fine, ratio, n_coarse = 1000, 50, 1980
        f = np.zeros(n_fine + n_coarse + 1)
        f[1:n_fine] = np.cos(np.pi * np.arange(1, n_fine) / n_fine)   # one sign change
        sums = list(abm._lattice_sums(alpha, n_fine, ratio, n_coarse, f))[n_fine:]
        kernels = _lattice_kernels(alpha, np.arange(n_fine + ratio * n_coarse, dtype=float),
                                   ("pred", "interior"))
        for s in [*range(1, n_coarse, 99), n_coarse]:
            lags = n_fine + ratio * s - 1 - np.arange(1, n_fine)
            for got, kernel in zip(sums[s - 1], kernels):
                terms = (kernel[lags], f[1:n_fine])
                size = math.fsum(np.abs(terms[0] * terms[1]).tolist())
                assert abs(got - _exact_dot(*terms)) <= 4e-16 * size, s

    def test_sparse_lattice_rebuilds(self):
        # on the lattice of its 1e-4 first step this grid spans 3e4 lags for
        # 5 nodes; the rebuild is the cheaper path
        grid = np.array([0.0, 1e-4, 1.0, 2.0, 3.0])
        assert _lattice(grid) is None
        spec = riccati(0.75, 2.0)
        assert np.array_equal(abm_solve_grid(spec, grid).values, _rebuilt(spec, grid))

    def test_off_lattice_grids_rebuild(self):
        # both grids sit on a 1e-4 lattice but not on one of their own first
        # step, so a fine uniform solve at h = 1e-4 contains their nodes; each
        # must be as close to it as a lattice grid with its coarsest steps
        spec = riccati(0.75, 2.0)
        fine = abm_solve(spec, IntegratorConfig(t_max=1.0, h=1e-4))
        rng = np.random.default_rng(0)
        jittered = 1e-4 * np.cumsum(np.concatenate(([0], rng.integers(20, 60, 400))))
        cases = [(two_phase_grid(3e-3, 0.3, 0.1, 1.0), two_phase_grid(4e-3, 0.3, 0.1, 1.0)),
                 (jittered[jittered <= 1.0], 6.25e-3 * np.arange(161))]
        for grid, coarser in cases:
            assert _lattice(grid) is None and _lattice(coarser) is not None
            err = {}
            for name, g in (("off", grid), ("lattice", coarser)):
                idx = np.rint(g / 1e-4).astype(int)
                err[name] = np.max(np.abs(abm_solve_grid(spec, g).values - fine.values[idx]))
            assert err["off"] <= err["lattice"], err


class TestSolve:
    def test_fixed_point_is_constant(self):
        traj = abm_solve(riccati(0.75, 1.0), IntegratorConfig(t_max=1.0, h=1e-2))
        assert np.all(traj.values == 1.0)

    def test_linear_problem_against_mittag_leffler(self):
        # b = 0 cubic is the linear relaxation d^a X = -X with solution
        # E_a(-t^a); this pins the integrator against the special function
        spec = cubic(0.75, 1.0, a=1.0, b=0.0)
        traj = abm_solve(spec, IntegratorConfig(t_max=5.0, h=4e-3))
        exact = ml_eval(-traj.times[1:] ** 0.75, MlParams(alpha=0.75))
        assert np.max(np.abs(traj.values[1:] - exact)) < 5e-5

    def test_integer_riccati_against_tanh(self):
        traj = abm_solve(riccati(1.0, 0.0), IntegratorConfig(t_max=5.0, h=1e-3))
        assert np.max(np.abs(traj.values - np.tanh(traj.times))) < 1e-5

    def test_halving_h_cuts_integer_error_by_three(self):
        errs = {}
        for h in [2e-3, 1e-3]:
            traj = abm_solve(riccati(1.0, 0.0), IntegratorConfig(t_max=5.0, h=h))
            errs[h] = np.max(np.abs(traj.values - np.tanh(traj.times)))
        assert errs[2e-3] / errs[1e-3] >= 3.0

    def test_boundedness(self):
        cfg = IntegratorConfig(t_max=10.0, h=5e-3)
        lo = abm_solve(logistic(0.75, 0.6, 1.0), cfg)
        assert np.all(lo.values > 0.0) and np.all(lo.values <= 1.0)
        ri = abm_solve(riccati(0.75, 0.25), cfg)
        assert np.all(ri.values >= 0.25) and np.all(ri.values <= 1.0)

    def test_determinism(self):
        cfg = IntegratorConfig(t_max=1.0, h=1e-3)
        a = abm_solve(cubic(0.9, 1.0), cfg)
        b = abm_solve(cubic(0.9, 1.0), cfg)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("solve", [
        lambda spec: abm_solve(spec, IntegratorConfig(t_max=1.0, h=0.1)),
        # off the lattice of its first step: weights rebuilt every step
        lambda spec: abm_solve_grid(spec, np.linspace(0.0, 1.0, 11) ** 1.5),
    ], ids=["uniform", "off-lattice"])
    def test_divergence_reports_step(self, solve):
        spec = cubic(0.9, 1.0, a=1.0, b=1e9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                solve(spec)
        assert err.value.step >= 1


class TestGridSolver:
    def test_matches_uniform_solver(self):
        spec = riccati(0.75, 0.5)
        uniform = abm_solve(spec, IntegratorConfig(t_max=0.5, h=1e-2))
        general = abm_solve_grid(spec, uniform.times)
        assert np.max(np.abs(uniform.values - general.values)) < 1e-13

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_uniform_solver_is_grid_solver(self, alpha):
        spec = cubic(alpha, 1.0)
        cfg = IntegratorConfig(t_max=2.0, h=1e-2)
        uniform = abm_solve(spec, cfg)
        general = abm_solve_grid(spec, cfg.h * np.arange(cfg.n_steps + 1))
        assert np.array_equal(uniform.times, general.times)
        assert np.array_equal(uniform.values, general.values)
        assert uniform.info == {"h": 1e-2, "alpha": alpha, "scheme": "abm-uniform"}

    def test_rejects_bad_grids(self):
        spec = riccati(0.75, 0.5)
        with pytest.raises(ValueError):
            abm_solve_grid(spec, [0.5, 1.0])
        with pytest.raises(ValueError):
            abm_solve_grid(spec, [0.0, 1.0, 1.0])
        for bad in ([0.0, 1.0, math.inf], [0.0, math.nan, 2.0]):
            with pytest.raises(ValueError):
                abm_solve_grid(spec, bad)

    def test_two_phase_grid_layout(self):
        grid = two_phase_grid(h_fine=1e-2, t_switch=1.0, h_coarse=0.1, t_max=2.0)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2.0, rel=1e-12)
        steps = np.diff(grid)
        assert steps[:100] == pytest.approx(1e-2)
        assert steps[100:] == pytest.approx(0.1)

    def test_two_phase_grid_rejects_empty_or_infinite_phases(self):
        # round((10 - 5)/100) = 0: no coarse step, the grid would stop at 5
        for args in [(1e-2, 5.0, 100.0, 10.0), (1e-2, 5.0, math.inf, 10.0),
                     (1e-2, 5.0, 0.5, math.inf), (1.0, 0.4, 1.0, 10.0)]:
            with pytest.raises(ValueError):
                two_phase_grid(*args)

    def test_two_phase_continues_fine_solution(self):
        spec = cubic(0.75, 1.0)
        two = abm_solve_two_phase(spec, h_fine=1e-2, t_switch=1.0,
                                  h_coarse=0.1, t_max=3.0)
        fine = abm_solve(spec, IntegratorConfig(t_max=1.0, h=1e-2))
        n = fine.times.size
        assert np.max(np.abs(two.values[:n] - fine.values)) < 1e-13
        assert two.info["scheme"] == "abm-two-phase"


class TestCompare:
    def test_identical_inputs_zero(self):
        traj = abm_solve(riccati(0.75, 0.5), IntegratorConfig(t_max=0.5, h=1e-2))
        delta = compare_solutions(traj, traj)
        assert np.all(delta.values == 0.0)
        assert delta.meta == "difference"

    def test_grid_mismatch_rejected(self):
        a = Trajectory([0.0, 1.0], [0.0, 0.5], meta="numerical")
        b = Trajectory([0.0, 2.0], [0.0, 0.5], meta="spectral")
        with pytest.raises(ValueError):
            compare_solutions(a, b)

    def test_riccati_difference_small(self):
        spec = riccati(0.75, 0.5)
        num = abm_solve(spec, IntegratorConfig(t_max=10.0, h=5e-3))
        sp = eval_trajectory(build_spectrum(spec, 100), num.times)
        delta = compare_solutions(num, sp)
        assert np.max(np.abs(delta.values)) < 0.01


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(min_value=0.3, max_value=1.0),
       n=st.integers(min_value=0, max_value=200),
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_predictor_weights_positive_property(alpha, n, frac):
    j = int(round(frac * n))
    assert step_weights(alpha, n)[0][j] > 0.0
