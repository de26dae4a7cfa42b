"""Fractional Adams-Bashforth-Moulton predictor-corrector integrator.

Solves the Caputo initial-value problem d^a X = f(X), X(0) = x0 with the
standard one-correction scheme with full memory (Diethelm, Ford & Freed,
Nonlinear Dyn. 29, 2002).  Every solver is the grid solver on its own grid
(uniform, two-phase or arbitrary), which runs one loop, ``_march``; at step n
it combines the history f_0..f_n with per-step weights:

    predictor  X^P_{n+1} = x0 + P sum_j w_pred[j] f_j
    corrector  X_{n+1}   = x0 + C [sum_j w_hist[j] f_j + w_self f(X^P_{n+1})]

The two history sums come from one of two providers, and the rest of a
step is float arithmetic, f a Horner polynomial.  On a lattice grid
t_j = h L_j, with integer L stepping by 1 and then optionally by an integer
ratio R (the uniform grid, and the two-phase fine/coarse grid when
h_coarse/h_fine and t_switch/h_fine are integers), the predictor and
interior kernels of the fine lattice are tabulated once, free of
cancellation, as the two rows of one array; a step takes both history
sums from a slice of it against the history after f_0, which takes scalar
terms, in one BLAS call (a ddot per sum on runs past 1e4 steps).  Coarse
weights are the kernels at coarse lags scaled by R^a; the fine history
keeps its fine-lattice weights.  It is final when the coarse phase starts,
so its share of every coarse step is computed there, by chunks of R fine
nodes, each chunk one product over every coarse step, with intermediates
of O(n_coarse) and O(n_fine) (_fine_share); a coarse step then takes one
product, over the coarse history.  P = h^a/Gamma(a+1) and
C = h^a/Gamma(a+2).
On any other strictly increasing grid the product-rectangle /
product-trapezoid weights are rebuilt each step from u_j = t_{n+1} - t_j
and dotted with the history, with P = C = 1/Gamma(a).  The history
convolution makes the total work O(N^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

# Unused here; bench/tracing.py wraps ``fracspec.abm.exact_dot`` by name as a
# traced layer, so the binding stays.
from ._summation import exact_dot  # noqa: F401
from .problems import ProblemSpec, Trajectory, _check_times, _horner, _rhs_coefficients

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
# history cost within about a minute: a riccati solve took 0.033-0.038 s at
# 1e4 steps, 0.27-0.29 s at 4e4 and 28 s at 4e5 (2-core x86-64, Python 3.11,
# OpenBLAS 0.3.31).
MAX_STEPS = 400_000


class DivergenceError(ArithmeticError):
    """State became non-finite during integration."""

    def __init__(self, step: int, t: float):
        self.step = step
        self.t = t
        super().__init__(f"integration diverged at step {step} (t = {t:g})")


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size and horizon; the order is the problem's own, and each step
    corrects once.  N = round(t_max/h) may not exceed MAX_STEPS."""

    t_max: float
    h: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and math.isfinite(self.h)):
            raise ValueError("t_max and h must be finite")
        if not (self.h > 0):
            raise ValueError("h must be positive")
        if self.t_max < self.h:
            raise ValueError("t_max must be at least one step")
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
# positive), accurate to a few ulps at every lag.  The series is evaluated in
# bands of lags, each to the fewest terms its smallest lag needs.
_SERIES_LAG = 2
_BANDS = (_SERIES_LAG, 16, 256, 4096)   # first lag of each series band


def _binomials(a: float, n: int) -> np.ndarray:
    """C(a, k) for k = 0..n-1."""
    c = np.ones(n)
    for k in range(1, n):
        c[k] = c[k - 1] * (a - k + 1) / k
    return c


def _lattice_kernels(alpha: float, lags, names=("pred", "interior", "first", "right")):
    """The named kernel sequences, in order, at ascending integer lags >= 0."""
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
    cuts = np.searchsorted(m, _BANDS).tolist() + [m.size]
    out = []
    for name in names:
        closed, centre, power, coef = defs[name]
        val = np.empty_like(m)
        val[:cuts[0]] = closed(m[:cuts[0]])
        for lo, i, j in zip(_BANDS, cuts, cuts[1:]):
            c = m[i:j] + centre
            # terms until v_max^k < 2^-56, below double rounding
            terms = math.ceil(56.0 / (power * math.log2(lo + centre)))
            v = 1.0 / c if power == 1 else 1.0 / (c * c)
            acc = val[i:j]      # Horner's rule in place, in the output
            acc[...] = coef[terms - 1]
            for ck in coef[terms - 2::-1]:
                acc *= v
                acc += ck
            c **= a - 1.0
            acc *= c
        out.append(val)
    return out


# Runs of up to _GEMV_STEPS steps take both history sums of a slice from one
# OpenBLAS dgemv_n over a column-major table.  Its one running sum per row
# leaves a riccati trajectory 8.8e-15 from a solve with 40-digit weights and
# exact sums at 1e4 steps and 1.8e-14 at 4e4, where a ddot per sum, which
# keeps several partial sums, stays within 1.0e-15.  Longer runs take the
# ddots from a row-major table; at 4e4 steps they are also the faster pair.
_GEMV_STEPS = 10_000


def _gemv(rows: np.ndarray, g: np.ndarray):
    return np.dot(rows, g).tolist()


def _ddots(rows: np.ndarray, g: np.ndarray):
    return float(np.dot(rows[0], g)), float(np.dot(rows[1], g))


# The fine history's share of the coarse steps is taken in products of at
# most _SHARE_CELLS table cells (512 KB).  A block of coarse steps runs
# through every chunk of the fine history in turn, over table rows that
# overlap by all but one row, so the block's reads stay in a 2 MB L2 cache;
# and each product stays below OpenBLAS's multithreading threshold for dgemv
# (460,800 cells in 0.3.31), whose first threaded calls in a process cost
# milliseconds each.
_SHARE_CELLS = 1 << 16


def _fine_share(table: np.ndarray, ratio: int, n_coarse: int, fine: np.ndarray, dots):
    """The (pred, hist) sums over the fine history f_1..f_{n_fine-1} of every
    coarse step s = 1..n_coarse, as a (2, n_coarse) array, from the table of
    _lattice_sums.  They are final once the coarse phase starts.

    Step s weighs f_j at table column ratio (n_coarse - s) + j.  Read from
    column 1 as rows of ``ratio`` columns, the table meets the c-th chunk of
    ``ratio`` fine nodes at step s on row n_coarse - s + c, so chunk c adds
    to every coarse step through one (n_coarse x ratio) product over rows
    c..c+n_coarse-1: each step's share is a sum of ceil((n_fine-1)/ratio)
    dots of ``ratio`` terms.  The rows are views of the table's memory; in a
    column-major table they interleave both kernels, and a chunk's f values
    are spread over every other entry of its vector, zeros between.  The
    only intermediates are those vectors, O(n_fine), and O(n_coarse) sums.
    With more chunks than coarse steps, each step takes its own window of
    the table instead, one product per step as in the coarse loop.
    """
    n_chunks = -(-fine.size // ratio)
    if n_chunks > n_coarse:
        windows = range(1 + ratio * (n_coarse - 1), 0, -ratio)
        return np.array([dots(table[:, lo:lo + fine.size], fine) for lo in windows]).T
    flat = table.ravel(order="K")               # the table's memory, no copy
    row_step, col_step = (n // table.itemsize for n in table.strides)
    width = ratio * col_step
    chunks = np.zeros((n_chunks, width))
    chunks[:, ::col_step].flat[:fine.size] = fine
    share = np.zeros((2, n_coarse))
    rows = max(1, _SHARE_CELLS // width)
    for kernel, sums in enumerate(share):
        for r in range(0, n_coarse, rows):
            acc = sums[r:r + rows]
            for c, g in enumerate(chunks):
                lo = kernel * row_step + (1 + ratio * (c + r)) * col_step
                acc += flat[lo:lo + acc.size * width].reshape(acc.size, width) @ g
    return share[:, ::-1]


def _lattice_sums(alpha: float, n_fine: int, ratio: int, n_coarse: int, f: np.ndarray):
    """Per-step (pred_sum, hist_sum, w_self) against ``f``, in the uniform
    units, on the lattice grid t = h L with L = 0, 1, ..., n_fine followed by
    n_coarse steps of ``ratio``.

    The predictor and interior kernels at lags top-1, ..., 1, 0 are the two
    rows of one table, so a slice of it against f_1..f_n gives both history
    sums of a fine step; f_0 takes scalar terms.  The kernel (t - s)^(a-1) ds
    is homogeneous of degree a, so a coarse interval's weights are the
    kernels at its coarse lag times ratio^a.  The fine history
    f_1..f_{n_fine-1} is final at the switch, so its share of every coarse
    step is computed there, by chunks of ``ratio`` fine nodes (_fine_share),
    with f_0 and the switch node L = n_fine, which joins the right end of
    the last fine interval to the left end of the first coarse one, as
    scalar terms.  A coarse step then takes one product, over the coarse
    history.
    """
    top = n_fine + ratio * n_coarse             # largest lag + 1
    short = n_fine + n_coarse <= _GEMV_STEPS
    dots = _gemv if short else _ddots
    table = np.empty((2, top), order="F" if short else "C")
    lags = np.arange(top, dtype=float)
    for row, name in zip(table, ("pred", "interior")):     # one kernel alive at a time
        (row[::-1],) = _lattice_kernels(alpha, lags, (name,))
    nodes = np.concatenate((np.arange(1, n_fine + 1),
                            n_fine + ratio * np.arange(1, n_coarse + 1)))
    (first,) = _lattice_kernels(alpha, nodes - 1, ("first",))
    # f_0's predictor and corrector terms at every step: lag L - 1
    f0_pred, f0_hist = table[0, top - nodes] * f[0], first * f[0]
    for n, (p0, h0) in enumerate(zip(f0_pred[:n_fine].tolist(), f0_hist[:n_fine].tolist())):
        pred, hist = dots(table[:, top - n:], f[1:n + 1])
        yield p0 + pred, h0 + hist, 1.0
    if not n_coarse:
        return
    scale = float(ratio) ** alpha
    (right,) = _lattice_kernels(alpha, ratio * np.arange(1, n_coarse + 1), ("right",))
    (coarse_first,) = _lattice_kernels(alpha, np.arange(n_coarse), ("first",))
    # the switch node: R^a times the predictor at coarse lag s - 1, and
    # right + R^a first
    f_switch = f[n_fine]
    pred_base = f0_pred[n_fine:] + scale * f_switch * table[0, top - n_coarse:][::-1]
    hist_base = f0_hist[n_fine:] + f_switch * (right + scale * coarse_first)
    fine_pred, fine_hist = _fine_share(table, ratio, n_coarse, f[1:n_fine], dots)
    pred_base += fine_pred
    hist_base += fine_hist
    for s, (p0, h0) in enumerate(zip(pred_base.tolist(), hist_base.tolist()), 1):
        pred, hist = dots(table[:, top - s + 1:], f[n_fine + 1:n_fine + s])
        yield p0 + scale * pred, h0 + scale * hist, scale


def _lattice(times: np.ndarray):
    """(h, n_fine, ratio, n_coarse) when every node lies within a few ulps of
    h L with integer L stepping by 1 up to L = n_fine and by ``ratio`` after
    it, else None.  Also None when the lattice spans more lags than the N^2
    powers a per-step rebuild evaluates, so that a first step much shorter
    than the rest cannot make the tables huge."""
    h = float(times[1])
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


def _grid_sums(times: np.ndarray, alpha: float, f: np.ndarray):
    """Per-step (pred_sum, hist_sum, w_self) against ``f`` on an arbitrary
    grid: product-rectangle predictor and product-trapezoid corrector weights,
    in units of 1/Gamma(a), rebuilt each step and dotted with f_0..f_n."""
    steps = np.diff(times)
    for n in range(times.size - 1):
        u = times[n + 1] - times[:n + 2]          # u[-1] = 0
        ua = u ** alpha
        ua1 = ua * u
        d_a = (ua1[:-1] - ua1[1:]) / (alpha + 1.0)
        d_b = (ua[:-1] - ua[1:]) / alpha
        dt = steps[:n + 1]
        w = np.zeros(n + 2)
        w[:-1] += (d_a - u[1:] * d_b) / dt
        w[1:] += (u[:-1] * d_b - d_a) / dt
        yield float(np.dot(d_b, f[:n + 1])), float(np.dot(w[:-1], f[:n + 1])), float(w[-1])


def _march(spec: ProblemSpec, times: np.ndarray, sums, pred_factor: float,
           corr_factor: float) -> np.ndarray:
    """PECE (predict, evaluate, correct once, evaluate) over ``times``.

    ``sums(f)`` yields, for each step n, the predictor and corrector history
    sums over f_0..f_n, read from ``f`` when the step starts, and the weight
    w_self of the predicted point, as Python floats.  The history sums are
    plain BLAS products, not compensated ones: the weights carry a few ulps
    each, and against solves with 40-digit weights and exact sums the
    trajectories lie within 3.3e-15 on the benchmark's problems, 8.8e-15 at
    1e4 steps and 1.7e-15 at 4e5 (see _GEMV_STEPS).  The rest is Python
    float arithmetic, f by Horner's rule, so overflow gives inf or nan
    without a warning; DivergenceError reports the first step whose state
    is not finite."""
    p = _rhs_coefficients(spec)
    x = np.empty(times.size)
    f = np.empty(times.size)
    x[0] = x0 = float(spec.x0)
    f[0] = _horner(p, x0)
    for n, (pred_sum, hist_sum, w_self) in enumerate(sums(f)):
        xp = x0 + pred_factor * pred_sum
        xc = x0 + corr_factor * (hist_sum + w_self * _horner(p, xp))
        if not math.isfinite(xc):
            raise DivergenceError(n + 1, times[n + 1])
        x[n + 1] = xc
        f[n + 1] = _horner(p, xc)
    return x


def abm_solve(spec: ProblemSpec, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the problem's rate equation on the uniform grid t_n = n h:
    abm_solve_grid on that grid, which is the one-piece lattice."""
    traj = abm_solve_grid(spec, cfg.h * np.arange(cfg.n_steps + 1))
    info = {"h": cfg.h, "alpha": spec.alpha, "scheme": "abm-uniform"}
    return Trajectory(times=traj.times, values=traj.values, meta="numerical", info=info)


def abm_solve_grid(spec: ProblemSpec, times) -> Trajectory:
    """Predictor-corrector, one correction per step, on an arbitrary strictly
    increasing grid.

    The memory integral is treated exactly on non-uniform grids.  A grid
    whose nodes lie on an integer lattice h L (a uniform run, optionally
    followed by a uniform run of an integer multiple of h, such as the
    uniform and two-phase grids) takes its weights from kernel tables
    computed once; any other grid rebuilds them every step.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or times[0] != 0.0:
        raise ValueError("times must start at 0 and contain at least two nodes")
    _check_times(times, "times")
    alpha = spec.alpha
    lattice = _lattice(times)
    if lattice is None:
        sums = partial(_grid_sums, times, alpha)
        pred_factor = corr_factor = 1.0 / math.gamma(alpha)
    else:
        h, *pieces = lattice
        sums = partial(_lattice_sums, alpha, *pieces)
        pred_factor = h ** alpha / math.gamma(alpha + 1.0)
        corr_factor = h ** alpha / math.gamma(alpha + 2.0)
    x = _march(spec, times, sums, pred_factor, corr_factor)
    info = {"alpha": alpha, "scheme": "abm-grid"}
    return Trajectory(times=times, values=x, meta="numerical", info=info)


def two_phase_grid(h_fine: float = 1e-3, t_switch: float = 10.0,
                   h_coarse: float = 0.1, t_max: float = 1e3) -> np.ndarray:
    """Uniform fine grid to t_switch, then uniform coarse grid to t_max."""
    if not all(map(math.isfinite, (h_fine, t_switch, h_coarse, t_max))):
        raise ValueError("two-phase grid arguments must be finite")
    if not (0 < h_fine <= h_coarse and 0 < t_switch < t_max):
        raise ValueError("need 0 < h_fine <= h_coarse and 0 < t_switch < t_max")
    n1 = int(round(t_switch / h_fine))
    n2 = int(round((t_max - t_switch) / h_coarse))
    if n1 < 1 or n2 < 1:
        raise ValueError("each phase must take at least one step")
    fine = h_fine * np.arange(n1 + 1)
    coarse = t_switch + h_coarse * np.arange(1, n2 + 1)
    return np.concatenate([fine, coarse])


def abm_solve_two_phase(spec: ProblemSpec, h_fine: float = 1e-3,
                        t_switch: float = 10.0, h_coarse: float = 0.1,
                        t_max: float = 1e3) -> Trajectory:
    """Long-horizon integration on the documented fine/coarse two-phase grid.

    Full memory is kept across the phase switch (no history resampling), so
    the late-time tail is not contaminated by re-interpolation error.
    """
    grid = two_phase_grid(h_fine, t_switch, h_coarse, t_max)
    traj = abm_solve_grid(spec, grid)
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
