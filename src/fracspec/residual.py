"""Residual diagnostics for the truncated eigen-expansion solutions.

The residual Delta(t) = RHS - LHS measures how well the expansion satisfies
its fractional equation: RHS is the nonlinear right-hand side evaluated on the
expansion, LHS the termwise Caputo derivative sum_k c_k lambda_k
E_alpha(lambda_k t^alpha) (exact, via the eigenfunction identity
d^a E_a(l t^a) = l E_a(l t^a); no quadrature is involved).  For alpha = 1 the
residual vanishes to rounding; for alpha < 1 it grows like t^(2 alpha) at
short times, peaks at an intermediate time, and decays like t^(-alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .problems import (EquationKind, ProblemSpec, SpectralSolution, Trajectory,
                       _expansion, _horner, _mode_sums, _rhs_coefficients, build_spectrum)

# Unused here; bench/tracing.py wraps these names on this module as traced layers.
from ._summation import exact_dot, neumaier_dot_rows  # noqa: F401
from .mittag_leffler import ml_eval  # noqa: F401
from .problems import mode_matrix  # noqa: F401

__all__ = [
    "FitError",
    "ResidualReport",
    "rhs_nonlinear",
    "lhs_caputo",
    "residual",
    "residual_trajectory",
    "residual_short_asymptote",
    "residual_long_asymptote",
    "cubic_long_coefficients",
    "rescale_residual",
    "fit_power_law",
    "analyze",
    "default_grid",
]


class FitError(ArithmeticError):
    """Power-law fit could not be performed on the requested window."""


def default_grid(lo: float = 1e-4, hi: float = 1e3, n: int = 400) -> np.ndarray:
    """Log-spaced analysis grid resolving both scaling windows."""
    return np.geomspace(lo, hi, n)


def rhs_nonlinear(spec: ProblemSpec, x):
    """Right-hand side f(x) of the rate equation by Horner's rule, vectorised
    in x; overflow gives +-inf without a warning."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _horner(_rhs_coefficients(spec), x)
    return float(out) if out.ndim == 0 else out


def lhs_caputo(sol: SpectralSolution, t: float) -> float:
    """Caputo derivative of the expansion, summed termwise at a single time.

    Each mode obeys d^a E_a(l t^a) = l E_a(l t^a), so the derivative is
    sum_k c_k lambda_k E_a(lambda_k t^a).  At t = 0 this returns the finite
    mode-sum limit sum_k c_k lambda_k (the k = 0 constant mode contributes
    nothing for any t).
    """
    _, modes, _ = _expansion(sol, t)
    return float(_mode_sums(modes, sol.coeffs * sol.eigenvalues)[0])


def residual(sol: SpectralSolution, t: float) -> float:
    """Delta(t) = rhs_nonlinear(X(t)) - lhs_caputo(t) at a single time: a
    one-point residual_trajectory."""
    return float(residual_trajectory(sol, t).values[0])


def residual_trajectory(sol: SpectralSolution, grid) -> Trajectory:
    """Delta sampled over a strictly increasing grid of times >= 0 (one mode
    matrix, reused for both sides).  At t = 0, X = x0 and the LHS is the
    mode-sum limit sum_k c_k lambda_k."""
    grid, modes, x = _expansion(sol, grid)
    delta = rhs_nonlinear(sol.spec, x) - _mode_sums(modes, sol.coeffs * sol.eigenvalues)
    return Trajectory(times=grid, values=delta, meta="residual")


_MODELS = ("derived", "paper")


def _check_model(model: str) -> None:
    if model not in _MODELS:
        raise ValueError(f"model must be one of {_MODELS}, got {model!r}")


def _compose(p: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """Power-series coefficients of f(x), truncated to the length of x."""
    n = len(x)
    out = np.zeros(n)
    for coef in reversed(p):
        out = np.convolve(out, x)[:n]
        out[0] += coef
    return out


def _short_coefficients(spec: ProblemSpec, order: int) -> np.ndarray:
    """d_0..d_order of the small-time residual Delta = sum_j d_j s^j, s = t^a.

    The expansion is X = sum_j m_j s^j / G_j with G_j = Gamma(1 + j a), and
    its termwise Caputo derivative is sum_j m_{j+1} s^j / G_j.  The moments
    m_j are those of the alpha = 1 flow x' = f(x) (m_0 = x0, m_{j+1} =
    d^j f(x)/dt^j at t = 0), generated here from its Taylor recursion.
    """
    p = _rhs_coefficients(spec)
    n = order + 2
    taylor = np.zeros(n)
    taylor[0] = spec.x0
    for j in range(n - 1):
        taylor[j + 1] = _compose(p, taylor[:j + 1])[j] / (j + 1)
    moments = taylor * np.array([math.factorial(j) for j in range(n)], dtype=float)
    gammas = np.array([math.gamma(1.0 + j * spec.alpha) for j in range(n - 1)])
    d = _compose(p, moments[:-1] / gammas) - moments[1:] / gammas
    d[:2] = 0.0     # d_0 and d_1 vanish identically
    return d


def _short_paper(spec: ProblemSpec, tt: np.ndarray) -> np.ndarray:
    a = spec.alpha
    g1 = math.gamma(1.0 + a)
    base = tt ** (2.0 * a) / g1 ** 2
    if spec.kind is EquationKind.RICCATI:
        return base * (1.0 - spec.x0 ** 2) ** 2
    if spec.kind is EquationKind.LOGISTIC:
        return base * spec.lambda_ ** (3.0 * a) * spec.x0 ** 2 * (spec.x0 - 1.0) ** 2
    return base * spec.x0 ** 3 * (spec.x0 - 1.0) ** 2 * (
        3.0 - tt ** a / g1 * (spec.x0 - 1.0) ** 3)


def residual_short_asymptote(spec: ProblemSpec, t, model: str = "derived"):
    """Closed-form short-time residual model, scaling as t^(2 alpha).

    model="derived" (default): the Caputo power series of the expansion with
    s = t^a, G_j = Gamma(1 + j a) and f the right-hand side,
        Delta = d_2 s^2 + d_3 s^3 + d_4 s^4,
        d_2 = -1/2 f''(x0) f(x0)^2 c(a) / G_1^2,  c(a) = 2 G_1^2 / G_2 - 1,
    with d_3, d_4 from the same series (see _short_coefficients).  It
    vanishes at the fixed points f(x0) = 0.  For the quadratic equations d_2
    is the paper's amplitude times c(a); for the cubic it is
    3b x0 (a x0 + b x0^3)^2 c(a) / G_1^2.

    model="paper": the paper's formulas, kept on record,
        riccati : t^2a / G^2(1+a) * (1 - x0^2)^2
        logistic: lambda^3a * t^2a / G^2(1+a) * x0^2 (x0-1)^2   (the general
                  rate enters through the exact rescaling
                  Delta_l(t) = l^a Delta_1(l t))
        cubic   : t^2a / G^2(1+a) * x0^3 (x0-1)^2 [3 - t^a/G(1+a) (x0-1)^3]
                  (unit-rate form, a = b = 1)
    """
    _check_model(model)
    tt = np.asarray(t, dtype=float)
    if model == "paper":
        out = _short_paper(spec, tt)
    else:
        out = np.polynomial.polynomial.polyval(tt ** spec.alpha,
                                               _short_coefficients(spec, 4))
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=64)
def _cubic_long_fit(alpha: float, x0: float, a: float, b: float,
                    terms: int) -> tuple[float, float, float]:
    spec = ProblemSpec(kind=EquationKind.CUBIC, alpha=alpha, x0=x0, a=a, b=b)
    sol = build_spectrum(spec, terms)
    grid = np.geomspace(1e2, 1e4, 64)
    delta = residual_trajectory(sol, grid).values
    if not np.any(delta):
        return 0.0, 0.0, 0.0    # fixed point x0 = 0: the residual vanishes
    u = grid ** (-alpha) / math.gamma(1.0 - alpha)
    design = np.stack([u, u ** 2, u ** 3], axis=1)
    # relative least squares so the decade span does not drown the tail
    w = 1.0 / np.abs(delta)
    coef, *_ = np.linalg.lstsq(design * w[:, None], delta * w, rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2])


def cubic_long_coefficients(spec: ProblemSpec, terms: int = 100) -> tuple[float, float, float]:
    """(C1, C2, C3) of the cubic tail model C1 u + C2 u^2 + C3 u^3 with
    u = t^(-alpha)/Gamma(1-alpha), fitted to the residual on t in [1e2, 1e4]."""
    if spec.kind is not EquationKind.CUBIC:
        raise ValueError("cubic coefficients are defined for the cubic equation")
    if spec.alpha >= 1.0:
        raise ValueError("tail model requires alpha < 1")
    return _cubic_long_fit(spec.alpha, spec.x0, spec.a, spec.b, terms)


def _logistic_tail(u, y0: float, inv_rate: float):
    """u (y0 - 1 - log y0) - lambda^(-a) u^2 log^2 y0, inv_rate = lambda^(-a)."""
    ly = math.log(y0)
    return u * (y0 - 1.0 - ly) - inv_rate * u ** 2 * ly ** 2


def residual_long_asymptote(spec: ProblemSpec, t, terms: int = 100,
                            model: str = "derived"):
    """Closed-form long-time residual model, scaling as t^(-alpha).

    With u = t^(-a)/Gamma(1-a) and L = log((x0+1)/2):

    logistic: u (x0 - 1 - log x0) - lambda^(-a) u^2 log^2 x0
    riccati : u [x0 - 1 - 2L - L^2 u]  (model="derived", the default)
              Y = (X+1)/2 maps riccati onto logistic with lambda^a = 2,
              y0 = (x0+1)/2 and the same mode ratio, so Delta_ric =
              2 Delta_log(y0); it vanishes at the fixed point x0 = 1.
              u [2L + x0 + 1 - L^2 u]  (model="paper", kept on record)
    cubic   : C1 u + C2 u^2 + C3 u^3 with numerically fitted coefficients
              (both models)
    """
    _check_model(model)
    if spec.alpha >= 1.0:
        raise ValueError("tail model requires alpha < 1 (Gamma(1-alpha) pole)")
    tt = np.asarray(t, dtype=float)
    a = spec.alpha
    u = tt ** (-a) / math.gamma(1.0 - a)
    if spec.kind is EquationKind.RICCATI:
        if model == "paper":
            big_l = math.log((spec.x0 + 1.0) / 2.0)
            out = u * (2.0 * big_l + spec.x0 + 1.0 - big_l ** 2 * u)
        else:
            out = 2.0 * _logistic_tail(u, (spec.x0 + 1.0) / 2.0, 0.5)
    elif spec.kind is EquationKind.LOGISTIC:
        out = _logistic_tail(u, spec.x0, spec.lambda_ ** (-a))
    else:
        c1, c2, c3 = cubic_long_coefficients(spec, terms)
        out = c1 * u + c2 * u ** 2 + c3 * u ** 3
    return float(out) if out.ndim == 0 else out


def rescale_residual(traj: Trajectory, lambda_: float, alpha: float) -> Trajectory:
    """Map a logistic residual curve at growth rate lambda onto the rate-free
    master curve: t -> lambda t, Delta -> Delta / lambda^alpha.  Curves for
    different rates coincide exactly after this transform."""
    if lambda_ <= 0:
        raise ValueError("lambda_ must be positive")
    return Trajectory(times=traj.times * lambda_,
                      values=traj.values * lambda_ ** (-alpha),
                      meta=traj.meta, info=traj.info)


def _fit_window(traj: Trajectory, t_lo: float, t_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """(t, log|value|) inside [t_lo, t_hi]; FitError when fewer than 5 nonzero
    samples fall inside or the values change sign there."""
    mask = (traj.times >= t_lo) & (traj.times <= t_hi) & (traj.values != 0.0)
    if mask.sum() < 5:
        raise FitError(f"need at least 5 nonzero points in [{t_lo:g}, {t_hi:g}]")
    vals = traj.values[mask]
    if np.any(vals > 0) and np.any(vals < 0):
        raise FitError("values change sign inside the fit window")
    return traj.times[mask], np.log(np.abs(vals))


def fit_power_law(traj: Trajectory, t_lo: float, t_hi: float) -> tuple[float, float]:
    """Least-squares slope/prefactor of log|value| against log t on a window.

    Returns (exponent, prefactor).  Raises FitError when fewer than 5 nonzero
    samples fall inside [t_lo, t_hi] or the values change sign there.
    """
    t, log_abs = _fit_window(traj, t_lo, t_hi)
    slope, intercept = np.polyfit(np.log(t), log_abs, 1)
    return float(slope), float(math.exp(intercept))


def _window_exponent(traj: Trajectory, t_lo: float, t_hi: float, correction: float) -> float:
    """log t coefficient of a least-squares fit of log|value| on the basis
    {1, log t, t^correction}.  The residual's leading power holds only
    asymptotically; its next-order t^(+-alpha) term would otherwise bias the
    slope of a pure power-law fit on a finite window.  Raises FitError as
    fit_power_law does."""
    t, log_abs = _fit_window(traj, t_lo, t_hi)
    design = np.stack([np.ones_like(t), np.log(t), t ** correction], axis=1)
    coef, *_ = np.linalg.lstsq(design, log_abs, rcond=None)
    return float(coef[1])


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Residual curve, its two asymptote models, fitted window exponents and
    the peak deviation (first occurrence on ties).

    The window exponents are the log t coefficients of fits of log|delta| on
    {1, log t, t^alpha} (short window) and {1, log t, t^-alpha} (long window).
    They are NaN when a window fit is impossible (alpha = 1, or a
    sign-changing window).
    """

    spec: ProblemSpec
    grid: Trajectory
    short_asymptote: Trajectory
    long_asymptote: Trajectory
    fitted_short_exponent: float
    fitted_long_exponent: float
    max_abs_delta: float
    t_at_max: float

    def summary(self) -> str:
        return (f"max|delta|={self.max_abs_delta:.6g} at t={self.t_at_max:.6g}; "
                f"short exponent={self.fitted_short_exponent:.4g} "
                f"long exponent={self.fitted_long_exponent:.4g}")

    def to_csv(self, path) -> None:
        from .io import write_report_csv
        write_report_csv(self, path)


def analyze(spec: ProblemSpec, terms: int = 100, grid=None,
            short_window: tuple[float, float] | None = None,
            long_window: tuple[float, float] | None = None) -> ResidualReport:
    """Full residual study of one problem: curve, asymptotes, fits, peak.

    The asymptote curves are the derived models (model="derived").  Default
    fit windows are [min(grid), 1e-2] and [1e2, max(grid)]; pass
    explicit windows to override.  At alpha = 1 the asymptote curves are zero
    and the exponents NaN (the residual is rounding noise by construction).
    """
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if not np.all(grid > 0):
        raise ValueError("analysis grid must be positive (the fits take log t)")
    sol = build_spectrum(spec, terms)
    delta = residual_trajectory(sol, grid)

    if spec.alpha < 1.0:
        short = Trajectory(grid, residual_short_asymptote(spec, grid), meta="residual")
        long_ = Trajectory(grid, residual_long_asymptote(spec, grid, terms), meta="residual")
    else:
        zeros = np.zeros_like(grid)
        short = Trajectory(grid, zeros, meta="residual")
        long_ = Trajectory(grid, zeros, meta="residual")

    if short_window is None:
        short_window = (float(grid[0]), 1e-2)
    if long_window is None:
        long_window = (1e2, float(grid[-1]))

    def _fit(window, correction):
        if spec.alpha >= 1.0:
            return math.nan
        try:
            return _window_exponent(delta, *window, correction)
        except FitError:
            return math.nan

    idx = int(np.argmax(np.abs(delta.values)))
    return ResidualReport(
        spec=spec,
        grid=delta,
        short_asymptote=short,
        long_asymptote=long_,
        fitted_short_exponent=_fit(short_window, spec.alpha),
        fitted_long_exponent=_fit(long_window, -spec.alpha),
        max_abs_delta=float(np.abs(delta.values[idx])),
        t_at_max=float(delta.times[idx]),
    )
