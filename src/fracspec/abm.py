"""Fractional Adams-Bashforth-Moulton predictor-corrector integrator.

Solves the Caputo initial-value problem d^a X = f(X), X(0) = x0 with the
standard one-correction scheme with full memory (Diethelm, Ford & Freed,
Nonlinear Dyn. 29, 2002).  Every solver is the grid solver on its own grid
(uniform, two-phase or arbitrary), which runs one loop, ``_march``; at step n
it combines the history f_0..f_n with per-step weights:

    predictor  X^P_{n+1} = x0 + P sum_j w_pred[j] f_j
    corrector  X_{n+1}   = x0 + C [sum_j w_hist[j] f_j + w_self f(X^P_{n+1})]

Both sums are BLAS dot products.  The weights come from one of two
providers.  On a lattice grid t_j = h L_j, with integer L stepping by 1 and
then optionally by an integer ratio R (the uniform grid, and the two-phase
fine/coarse grid when h_coarse/h_fine and t_switch/h_fine are integers), the
kernel sequences of the fine lattice are tabulated once, free of
cancellation, and each step's weights are contiguous slices of them, the
coarse ones scaled by R^a; P = h^a/Gamma(a+1) and C = h^a/Gamma(a+2).  On any
other strictly increasing grid the product-rectangle / product-trapezoid
weights are rebuilt each step from u_j = t_{n+1} - t_j, with
P = C = 1/Gamma(a).  The two-phase grid keeps the whole fine history without
resampling.  The history convolution makes the total work O(N^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Unused here; bench/tracing.py wraps ``fracspec.abm.exact_dot`` by name as a
# traced layer, so the binding stays.
from ._summation import exact_dot  # noqa: F401
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
# history cost within about two minutes: a riccati solve took 0.16-0.28 s at
# 1e4 steps and 129 s at 4e5 (2-core x86-64, Python 3.11, OpenBLAS ddot).
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


# Kernel sequences on the integer lattice, indexed by the lag m >= 0 of an
# interval's right end, in units where the uniform factors are h^a/Gamma(a+1)
# (predictor) and h^a/Gamma(a+2) (corrector):
#   pred      b_m = (m+1)^a - m^a                    product-rectangle weight
#   interior  a_m = (m+2)^(a+1) + m^(a+1) - 2(m+1)^(a+1)   interior node
#   first     m^(a+1) - (m-a)(m+1)^a                 left end of an interval
#   right     (m+1)^(a+1) - m^(a+1) - (a+1) m^a      right end of an interval
# (a_m = right_{m+1} + first_m).  The closed forms cancel ~m^2 ulps at large
# m; from _SERIES_LAG on each is c^(a-1) sum_k coef_k v^k, the binomial series
# in v = 1/m (interior: v = 1/(m+1)^2 about the middle node, all terms
# positive), accurate to a few ulps at every lag.
_SERIES_LAG = 2
_BAND_SPLIT = 16     # lags past it need far fewer series terms


def _binomials(a: float, n: int) -> np.ndarray:
    """C(a, k) for k = 0..n-1."""
    c = np.ones(n)
    for k in range(1, n):
        c[k] = c[k - 1] * (a - k + 1) / k
    return c


def _lattice_kernels(alpha: float, lags, names=("pred", "interior", "first", "right")):
    """The named kernel sequences, in order, at integer lags >= 0."""
    m = np.asarray(lags, dtype=float)
    a = alpha
    ca, ca1 = _binomials(a, 60), _binomials(a + 1.0, 60)
    # closed form, centre, power of 1/c in v, series coefficients
    defs = {
        "pred": (lambda m: (m + 1.0) ** a - m ** a, 0.0, 1, ca[1:]),
        "interior": (lambda m: ((m + 2.0) ** (a + 1.0) + m ** (a + 1.0)
                                - 2.0 * (m + 1.0) ** (a + 1.0)),
                     1.0, 2, 2.0 * ca1[2::2]),
        "first": (lambda m: m ** (a + 1.0) - (m - a) * (m + 1.0) ** a,
                  0.0, 1, a * ca[1:-1] - ca[2:]),
        "right": (lambda m: (m + 1.0) ** (a + 1.0) - m ** (a + 1.0) - (a + 1.0) * m ** a,
                  0.0, 1, ca1[2:]),
    }
    out = []
    for name in names:
        closed, centre, power, coef = defs[name]
        val = np.empty_like(m)
        small = m < _SERIES_LAG
        val[small] = closed(m[small])
        for lo, hi in ((_SERIES_LAG, _BAND_SPLIT), (_BAND_SPLIT, np.inf)):
            band = (m >= lo) & (m < hi)
            c = m[band] + centre
            # terms until v_max^k < 2^-56, below double rounding
            terms = math.ceil(56.0 / (power * math.log2(lo + centre)))
            v = c ** -float(power)
            acc = np.full_like(v, coef[terms - 1])
            for ck in coef[terms - 2::-1]:
                acc *= v
                acc += ck
            val[band] = c ** (a - 1.0) * acc
        out.append(val)
    return out


def _lattice_weights(alpha: float, n_fine: int, ratio: int = 1, n_coarse: int = 0):
    """Per-step weights on the lattice grid t = h L with L = 0, 1, ..., n_fine
    followed by n_coarse steps of ``ratio``, in the uniform units.

    Predictor and interior kernels are tabulated once, reversed, over every
    lag the grid reaches, so each step's weights are contiguous slices.  The
    kernel (t - s)^(a-1) ds is homogeneous of degree a, so a coarse interval's
    weights are the kernels at its coarse lag times ratio^a; the switch node
    L = n_fine joins the right end of the last fine interval to the left end
    of the first coarse one.
    """
    top = n_fine + ratio * n_coarse             # largest lag + 1
    pred, inter = _lattice_kernels(alpha, np.arange(top - 1, -1, -1), ("pred", "interior"))
    nodes = np.concatenate((np.arange(1, n_fine + 1),
                            n_fine + ratio * np.arange(1, n_coarse + 1)))
    (first,) = _lattice_kernels(alpha, nodes - 1, ("first",))
    for n in range(n_fine):                     # node n + 1, lags n..0
        yield (pred[top - n - 1:],
               np.concatenate((first[n:n + 1], inter[top - n:])), 1.0)
    if not n_coarse:
        return
    scale = float(ratio) ** alpha
    coarse_pred, coarse_inter = scale * pred[top - n_coarse:], scale * inter[top - n_coarse:]
    (right,) = _lattice_kernels(alpha, ratio * np.arange(1, n_coarse + 1), ("right",))
    (coarse_first,) = _lattice_kernels(alpha, np.arange(n_coarse), ("first",))
    switch = right + scale * coarse_first
    for s in range(1, n_coarse + 1):            # node n_fine + s, L = n_fine + ratio s
        off = top - n_fine - ratio * s
        yield (np.concatenate((pred[off:off + n_fine], coarse_pred[n_coarse - s:])),
               np.concatenate((first[n_fine + s - 1:n_fine + s],
                               inter[off + 1:off + n_fine], switch[s - 1:s],
                               coarse_inter[n_coarse - s + 1:])),
               scale)


def _lattice(times: np.ndarray):
    """(h, n_fine, ratio, n_coarse) when every node lies within a few ulps of
    h L with integer L stepping by 1 up to L = n_fine and by ``ratio`` after
    it, else None.  Also None when the lattice spans more lags than the N^2
    powers a per-step rebuild evaluates, so that a first step much shorter
    than the rest cannot make the tables huge."""
    h = times[1]
    lat = np.rint(times / h)
    if lat[-1] > times.size ** 2:
        return None
    if np.any(np.abs(times - h * lat) > 8.0 * np.finfo(float).eps * times):
        return None
    steps = np.diff(lat)
    n_fine = int(np.argmax(steps != 1.0)) if np.any(steps != 1.0) else steps.size
    ratio = int(steps[-1])
    if np.any(steps < 1.0) or np.any(steps[n_fine:] != ratio):
        return None
    return h, n_fine, ratio, steps.size - n_fine


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
    step, w_pred and w_hist aligned with f_0..f_n.  History sums are plain
    BLAS dot products: the weights carry a few ulps each, and a compensated
    sum changes the trajectory by less than that.  Raises DivergenceError
    with the offending step index if the state leaves the finite range."""
    x = np.empty(times.size)
    f = np.empty(times.size)
    x[0] = spec.x0
    f[0] = rhs_nonlinear(spec, spec.x0)
    for n, (w_pred, w_hist, w_self) in enumerate(weights):
        xp = spec.x0 + pred_factor * np.dot(w_pred, f[:n + 1])
        hist = np.dot(w_hist, f[:n + 1])
        xc = xp
        for _ in range(corrector_iters):
            xc = spec.x0 + corr_factor * (hist + w_self * rhs_nonlinear(spec, xc))
        if not math.isfinite(xc):
            raise DivergenceError(n + 1, times[n + 1])
        x[n + 1] = xc
        f[n + 1] = rhs_nonlinear(spec, xc)
    return x


def abm_solve(spec: ProblemSpec, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the problem's rate equation on the uniform grid t_n = n h:
    abm_solve_grid on that grid, which is the one-piece lattice."""
    traj = abm_solve_grid(spec, cfg.h * np.arange(cfg.n_steps + 1), cfg.corrector_iters)
    info = {"h": cfg.h, "alpha": spec.alpha, "corrector_iters": cfg.corrector_iters,
            "scheme": "abm-uniform"}
    return Trajectory(times=traj.times, values=traj.values, meta="numerical", info=info)


def abm_solve_grid(spec: ProblemSpec, times, corrector_iters: int = 1) -> Trajectory:
    """Predictor-corrector on an arbitrary strictly increasing grid.

    The memory integral is treated exactly on non-uniform grids.  A grid
    whose nodes lie on an integer lattice h L (a uniform run, optionally
    followed by a uniform run of an integer multiple of h, such as the
    uniform and two-phase grids) takes its weights from kernel tables
    computed once; any other grid rebuilds them every step.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or times[0] != 0.0:
        raise ValueError("times must start at 0 and contain at least two nodes")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    alpha = spec.alpha
    lattice = _lattice(times)
    if lattice is None:
        weights = _grid_weights(times, alpha)
        pred_factor = corr_factor = 1.0 / math.gamma(alpha)
    else:
        h, *pieces = lattice
        weights = _lattice_weights(alpha, *pieces)
        pred_factor = h ** alpha / math.gamma(alpha + 1.0)
        corr_factor = h ** alpha / math.gamma(alpha + 2.0)
    x = _march(spec, times, weights, pred_factor, corr_factor, corrector_iters)
    info = {"alpha": alpha, "corrector_iters": corrector_iters,
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
