"""fracspec: spectral eigenmode solutions of fractional nonlinear rate
equations (Riccati, logistic, cubic), residual scaling diagnostics and an
independent fractional Adams-Bashforth-Moulton cross-check."""

__version__ = "0.1.0"

from .mittag_leffler import (AccuracyWarning, MlParams, ml_asymptotic, ml_eval,
                             ml_series, mittag_leffler)
from .problems import (EquationKind, ProblemSpec, SpectralSolution, Trajectory,
                       build_spectrum, closed_form_integer, cubic,
                       eval_solution, eval_trajectory, logistic, riccati)
from .residual import (FitError, ResidualReport, analyze,
                       cubic_long_coefficients, default_grid, fit_power_law,
                       rescale_residual, residual, residual_long_asymptote,
                       residual_short_asymptote, residual_trajectory,
                       rhs_nonlinear)
from .abm import (DivergenceError, IntegratorConfig, abm_solve, abm_solve_grid,
                  abm_solve_two_phase, compare_solutions, two_phase_grid)

__all__ = [
    "AccuracyWarning", "MlParams", "ml_asymptotic", "ml_eval", "ml_series",
    "mittag_leffler",
    "EquationKind", "ProblemSpec", "SpectralSolution", "Trajectory",
    "build_spectrum", "closed_form_integer", "cubic", "eval_solution",
    "eval_trajectory", "logistic", "riccati",
    "FitError", "ResidualReport", "analyze", "cubic_long_coefficients",
    "default_grid", "fit_power_law", "rescale_residual",
    "residual", "residual_long_asymptote", "residual_short_asymptote",
    "residual_trajectory", "rhs_nonlinear",
    "DivergenceError", "IntegratorConfig", "abm_solve", "abm_solve_grid",
    "abm_solve_two_phase", "compare_solutions", "two_phase_grid",
]
