"""Fractional Adams-Bashforth-Moulton predictor-corrector integrator.

Solves the Caputo initial-value problem d^a X = f(X), X(0) = x0 with the
standard one-correction scheme with full memory (Diethelm, Ford & Freed,
Nonlinear Dyn. 29, 2002).  Every solver runs one loop, ``_march``, which at
step n combines the history f_0..f_n with per-step weights:

    predictor  X^P_{n+1} = x0 + P sum_j w_pred[j] f_j
    corrector  X_{n+1}   = x0 + C [sum_j w_hist[j] f_j + w_self f(X^P_{n+1})]

The weights come from one of two providers.  On the uniform grid t_n = n h
the kernel sequences (m+1)^a - m^a and the product-trapezoid weights are
computed once and each step takes reversed slices of them, with
P = h^a/Gamma(a+1) and C = h^a/Gamma(a+2).  On an arbitrary strictly
increasing grid the product-rectangle / product-trapezoid weights are rebuilt
each step from u_j = t_{n+1} - t_j, with P = C = 1/Gamma(a); this path also
carries the two-phase fine/coarse grid for long-horizon tail studies, which
keeps the whole fine history without resampling.  The history convolution
makes the total work O(N^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._summation import exact_dot
from .problems import ProblemSpec, Trajectory
from .residual import rhs_nonlinear

__all__ = [
    "DivergenceError",
    "IntegratorConfig",
    "abm_solve",
    "abm_solve_grid",
    "two_phase_grid",
    "abm_solve_two_phase",
    "compare_solutions",
]

# Bound on N = round(t_max/h) for the uniform solver, which keeps the O(N^2)
# history cost within a sane budget.
MAX_STEPS = 400_000


class DivergenceError(ArithmeticError):
    """State became non-finite during integration."""

    def __init__(self, step: int, t: float):
        self.step = step
        self.t = t
        super().__init__(f"integration diverged at step {step} (t = {t:g})")


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon and corrector iteration count; the order is the
    problem's own.  N = round(t_max/h) may not exceed MAX_STEPS."""

    t_max: float
    h: float = 1e-3
    corrector_iters: int = 1

    def __post_init__(self):
        if not (self.h > 0):
            raise ValueError("h must be positive")
        if self.t_max < self.h:
            raise ValueError("t_max must be at least one step")
        if self.corrector_iters < 1:
            raise ValueError("corrector_iters must be >= 1")
        if self.n_steps > MAX_STEPS:
            raise ValueError(f"{self.n_steps} steps exceed MAX_STEPS={MAX_STEPS}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.h))


def _power_diff(m: np.ndarray, alpha: float) -> np.ndarray:
    # (m+1)^a - m^a evaluated as m^a expm1(a log1p(1/m)) for m >= 1; the naive
    # difference loses ~m/alpha ulps at large m.
    out = np.empty_like(m)
    small = m < 1.0
    out[small] = (m[small] + 1.0) ** alpha - m[small] ** alpha
    mm = m[~small]
    out[~small] = mm ** alpha * np.expm1(alpha * np.log1p(1.0 / mm))
    return out


def _uniform_weights(alpha: float, n_steps: int):
    """Per-step weights on t_n = n h in units of the common factors.

    Indexed by the lag m = n - j: predictor b_m = (m+1)^a - m^a; corrector
    a_m = (m+2)^(a+1) + m^(a+1) - 2(m+1)^(a+1) for j >= 1 and
    n^(a+1) - (n-a)(n+1)^a at j = 0; the predicted point carries weight 1.
    """
    m = np.arange(n_steps, dtype=float)
    pred = _power_diff(m, alpha)
    interior = ((m + 2.0) ** (alpha + 1.0) + m ** (alpha + 1.0)
                - 2.0 * (m + 1.0) ** (alpha + 1.0))
    first = m ** (alpha + 1.0) - (m - alpha) * (m + 1.0) ** alpha
    for n in range(n_steps):
        yield (pred[:n + 1][::-1],
               np.concatenate((first[n:n + 1], interior[:n][::-1])), 1.0)


def _grid_weights(times: np.ndarray, alpha: float):
    """Per-step product-rectangle predictor and product-trapezoid corrector
    weights on an arbitrary grid, in units of 1/Gamma(a)."""
    for n in range(times.size - 1):
        u = times[n + 1] - times[:n + 2]          # u[-1] = 0
        ua = u ** alpha
        ua1 = ua * u
        d_a = (ua1[:-1] - ua1[1:]) / (alpha + 1.0)
        d_b = (ua[:-1] - ua[1:]) / alpha
        dt = np.diff(times[:n + 2])
        w = np.zeros(n + 2)
        w[:-1] += (d_a - u[1:] * d_b) / dt
        w[1:] += (u[:-1] * d_b - d_a) / dt
        yield d_b, w[:-1], w[-1]


def _march(spec: ProblemSpec, times: np.ndarray, weights, pred_factor: float,
           corr_factor: float, corrector_iters: int) -> np.ndarray:
    """P(EC)^m E over ``times`` with weights (w_pred, w_hist, w_self) per
    step, w_pred and w_hist aligned with f_0..f_n.  History sums are exact
    (fsum over the weighted products).  Raises DivergenceError with the
    offending step index if the state leaves the finite range."""
    x = np.empty(times.size)
    f = np.empty(times.size)
    x[0] = spec.x0
    f[0] = rhs_nonlinear(spec, spec.x0)
    for n, (w_pred, w_hist, w_self) in enumerate(weights):
        xp = spec.x0 + pred_factor * exact_dot(w_pred, f[:n + 1])
        hist = exact_dot(w_hist, f[:n + 1])
        xc = xp
        for _ in range(corrector_iters):
            xc = spec.x0 + corr_factor * (hist + w_self * rhs_nonlinear(spec, xc))
        if not math.isfinite(xc):
            raise DivergenceError(n + 1, times[n + 1])
        x[n + 1] = xc
        f[n + 1] = rhs_nonlinear(spec, xc)
    return x


def abm_solve(spec: ProblemSpec, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the problem's rate equation on the uniform grid t_n = n h."""
    alpha, h = spec.alpha, cfg.h
    times = h * np.arange(cfg.n_steps + 1)
    x = _march(spec, times, _uniform_weights(alpha, cfg.n_steps),
               h ** alpha / math.gamma(alpha + 1.0),
               h ** alpha / math.gamma(alpha + 2.0), cfg.corrector_iters)
    info = {"h": h, "alpha": alpha, "corrector_iters": cfg.corrector_iters,
            "scheme": "abm-uniform"}
    return Trajectory(times=times, values=x, meta="numerical", info=info)


def abm_solve_grid(spec: ProblemSpec, times, corrector_iters: int = 1) -> Trajectory:
    """Predictor-corrector on an arbitrary strictly increasing grid.

    The memory integral is treated exactly on non-uniform grids; on a uniform
    grid the weights coincide with abm_solve's.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or times[0] != 0.0:
        raise ValueError("times must start at 0 and contain at least two nodes")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    inv_gamma_a = 1.0 / math.gamma(spec.alpha)
    x = _march(spec, times, _grid_weights(times, spec.alpha),
               inv_gamma_a, inv_gamma_a, corrector_iters)
    info = {"alpha": spec.alpha, "corrector_iters": corrector_iters,
            "scheme": "abm-grid"}
    return Trajectory(times=times, values=x, meta="numerical", info=info)


def two_phase_grid(h_fine: float = 1e-3, t_switch: float = 10.0,
                   h_coarse: float = 0.1, t_max: float = 1e3) -> np.ndarray:
    """Uniform fine grid to t_switch, then uniform coarse grid to t_max."""
    if not (0 < h_fine <= h_coarse and 0 < t_switch < t_max):
        raise ValueError("need 0 < h_fine <= h_coarse and 0 < t_switch < t_max")
    n1 = int(round(t_switch / h_fine))
    n2 = int(round((t_max - t_switch) / h_coarse))
    fine = h_fine * np.arange(n1 + 1)
    coarse = t_switch + h_coarse * np.arange(1, n2 + 1)
    return np.concatenate([fine, coarse])


def abm_solve_two_phase(spec: ProblemSpec, h_fine: float = 1e-3,
                        t_switch: float = 10.0, h_coarse: float = 0.1,
                        t_max: float = 1e3, corrector_iters: int = 1) -> Trajectory:
    """Long-horizon integration on the documented fine/coarse two-phase grid.

    Full memory is kept across the phase switch (no history resampling), so
    the late-time tail is not contaminated by re-interpolation error.
    """
    grid = two_phase_grid(h_fine, t_switch, h_coarse, t_max)
    traj = abm_solve_grid(spec, grid, corrector_iters)
    info = dict(traj.info or {})
    info.update({"scheme": "abm-two-phase", "h_fine": h_fine,
                 "t_switch": t_switch, "h_coarse": h_coarse})
    return Trajectory(times=traj.times, values=traj.values,
                      meta="numerical", info=info)


def compare_solutions(numerical: Trajectory, spectral: Trajectory) -> Trajectory:
    """Pointwise difference numerical - spectral on identical grids."""
    if not np.array_equal(numerical.times, spectral.times):
        raise ValueError("trajectories are not aligned on the same time grid")
    return Trajectory(times=numerical.times,
                      values=numerical.values - spectral.values,
                      meta="difference")
