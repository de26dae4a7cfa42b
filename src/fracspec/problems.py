"""Problem definitions and truncated eigen-expansion solutions.

The three rate equations solved here, with the fractional derivative of
Caputo type and order 0 < alpha <= 1:

    riccati   d^a X = 1 - X^2
    logistic  d^a X = lambda^a X (1 - X)
    cubic     d^a X = -a X - b X^3

Each admits an expansion X(t) = offset + sum_k c_k E_alpha(lambda_k t^alpha)
over the eigenvalues lambda_k of the associated phase-space operator, with
coefficients fixed by the initial condition.  Truncating at K modes gives the
computable solution; K = 100 by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Unused here; bench/tracing.py wraps both names on this module as traced layers.
from ._summation import exact_dot, neumaier_dot_rows  # noqa: F401
from .mittag_leffler import MlParams, ml_eval

__all__ = [
    "EquationKind",
    "ProblemSpec",
    "SpectralSolution",
    "Trajectory",
    "riccati",
    "logistic",
    "cubic",
    "build_spectrum",
    "eval_solution",
    "eval_trajectory",
    "closed_form_integer",
]

TRAJECTORY_KINDS = ("spectral", "numerical", "residual", "difference")


class EquationKind(str, Enum):
    RICCATI = "riccati"
    LOGISTIC = "logistic"
    CUBIC = "cubic"


@dataclass(frozen=True)
class ProblemSpec:
    """Which equation, fractional order, rate parameters and initial value.

    lambda_ applies to the logistic equation only; a, b to the cubic only.
    The logistic expansion has geometric ratio (x0-1)/x0, so x0 <= 1/2 is
    rejected outright (the series would not converge absolutely).
    """

    kind: EquationKind
    alpha: float
    x0: float
    lambda_: float | None = None
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", EquationKind(self.kind))
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        if self.kind is EquationKind.RICCATI:
            if self.x0 < 0:
                raise ValueError("riccati requires x0 >= 0")
            self._reject("lambda_", "a", "b")
        elif self.kind is EquationKind.LOGISTIC:
            if self.lambda_ is None or not 0 < self.lambda_ < math.inf:
                raise ValueError("logistic requires a finite growth rate lambda_ > 0")
            if not (0.5 < self.x0 <= 1.0):
                raise ValueError(
                    "logistic requires 1/2 < x0 <= 1 (mode ratio |x0-1|/x0 "
                    "must stay below 1 for the expansion to converge)")
            self._reject("a", "b")
        else:
            if self.a is None or not 0 < self.a < math.inf:
                raise ValueError("cubic requires a finite a > 0")
            if self.b is None or not 0 <= self.b < math.inf:
                raise ValueError("cubic requires a finite b >= 0")
            self._reject("lambda_")

    def _reject(self, *names):
        for name in names:
            if getattr(self, name) is not None:
                raise ValueError(f"{name} is not a parameter of {self.kind.value}")


def riccati(alpha: float, x0: float) -> ProblemSpec:
    return ProblemSpec(kind=EquationKind.RICCATI, alpha=alpha, x0=x0)


def logistic(alpha: float, x0: float, lambda_: float = 1.0) -> ProblemSpec:
    return ProblemSpec(kind=EquationKind.LOGISTIC, alpha=alpha, x0=x0, lambda_=lambda_)


def cubic(alpha: float, x0: float, a: float = 1.0, b: float = 1.0) -> ProblemSpec:
    return ProblemSpec(kind=EquationKind.CUBIC, alpha=alpha, x0=x0, a=a, b=b)


def _check_times(times: np.ndarray, name: str) -> None:
    """Raise ValueError unless the 1-d ``times`` are finite, non-negative and
    strictly increasing.  Finiteness is tested first: NaN passes every
    comparison, and inf - inf warns."""
    if not (np.isfinite(times).all() and (times[:1] >= 0).all()
            and (np.diff(times) > 0).all()):
        raise ValueError(f"{name} must be finite, non-negative and strictly increasing")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled curve: strictly increasing times, one value per time.

    meta tags the provenance (spectral / numerical / residual / difference);
    info carries free-form run details (step sizes, grids).
    """

    times: np.ndarray
    values: np.ndarray
    meta: str
    info: dict | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        _check_times(times, "times")
        if not np.isfinite(values).all():
            raise ValueError("trajectory values must be finite")
        if self.meta not in TRAJECTORY_KINDS:
            raise ValueError(f"meta must be one of {TRAJECTORY_KINDS}")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.times.size


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """Truncated eigen-expansion: X(t) = offset + sum_k coeffs[k] E_a(eigenvalues[k] t^a)."""

    spec: ProblemSpec
    terms: int
    eigenvalues: np.ndarray
    coeffs: np.ndarray
    offset: float

    def __post_init__(self):
        for name in ("eigenvalues", "coeffs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.eigenvalues.shape != (self.terms,) or self.coeffs.shape != (self.terms,):
            raise ValueError("eigenvalues/coeffs must have length == terms")

    @property
    def tail_bound(self) -> float:
        """Certified truncation bound sum_{k >= terms} |c_k| on |X - X_K|.

        It holds at every t >= 0 because every eigenvalue is <= 0 and
        E_a(-x) is completely monotone, so 0 < E_a(-x) <= 1 (Pollard 1948).
        riccati 2|r|^K/(1-|r|), logistic |q|^K/(1-|q|), cubic
        r_K rho^K/(1-rho) x0/sqrt(beta+1) with r_K = (2K-1)!!/(2K)!!, which
        bounds the cubic tail since r_k decreases in k; inf when the mode
        ratio has modulus 1 (riccati x0 = 0).
        """
        spec, K = self.spec, self.terms
        if spec.kind is EquationKind.RICCATI:
            ratio, amplitude = abs((spec.x0 - 1.0) / (spec.x0 + 1.0)), 2.0
        elif spec.kind is EquationKind.LOGISTIC:
            ratio, amplitude = abs((spec.x0 - 1.0) / spec.x0), 1.0
        else:
            beta = (spec.b / spec.a) * spec.x0 ** 2
            ratio = beta / (beta + 1.0)
            r_K = math.exp(math.lgamma(K + 0.5) - math.lgamma(K + 1.0)) / math.sqrt(math.pi)
            amplitude = r_K * abs(spec.x0) / math.sqrt(beta + 1.0)
        if ratio >= 1.0:
            return math.inf
        return amplitude * ratio ** K / (1.0 - ratio)


def _rhs_coefficients(spec: ProblemSpec) -> tuple[float, ...]:
    """f(x) = sum_i p_i x^i: the right-hand side as polynomial coefficients."""
    if spec.kind is EquationKind.RICCATI:
        return (1.0, 0.0, -1.0)
    if spec.kind is EquationKind.LOGISTIC:
        rate = spec.lambda_ ** spec.alpha
        return (0.0, rate, -rate)
    return (0.0, -spec.a, 0.0, -spec.b)


def _horner(p: tuple[float, ...], x):
    """sum_i p_i x^i by Horner's rule, on a float or elementwise on an array."""
    out = p[-1]
    for coef in p[-2::-1]:
        out = out * x + coef
    return out


def build_spectrum(spec: ProblemSpec, terms: int = 100) -> SpectralSolution:
    """Eigenvalues and composite coefficients of the truncated expansion.

    riccati : lambda_k = -2k,            c_k = 2 r^k, r = (x0-1)/(x0+1), offset -1
    logistic: lambda_k = -k lambda^a,    c_k = q^k,   q = (x0-1)/x0
    cubic   : lambda_k = -(2k+1) a,      c_k = [(2k-1)!!/(2k)!!] rho^k x0/sqrt(beta+1)
              with beta = (b/a) x0^2, rho = beta/(beta+1)

    The double-factorial ratio uses the overflow-free recurrence
    r_k = r_{k-1} (2k-1)/(2k), r_0 = 1.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    k = np.arange(terms, dtype=float)
    if spec.kind is EquationKind.RICCATI:
        ratio = (spec.x0 - 1.0) / (spec.x0 + 1.0)
        eigenvalues = -2.0 * k
        coeffs = 2.0 * ratio ** k
        offset = -1.0
    elif spec.kind is EquationKind.LOGISTIC:
        ratio = (spec.x0 - 1.0) / spec.x0
        eigenvalues = -k * spec.lambda_ ** spec.alpha
        coeffs = ratio ** k
        offset = 0.0
    else:
        beta = (spec.b / spec.a) * spec.x0 ** 2
        rho = beta / (beta + 1.0)
        eigenvalues = -(2.0 * k + 1.0) * spec.a
        dfr = np.ones(terms)
        for m in range(1, terms):
            dfr[m] = dfr[m - 1] * (2.0 * m - 1.0) / (2.0 * m)
        coeffs = dfr * rho ** k * (spec.x0 / math.sqrt(beta + 1.0))
        offset = 0.0
    return SpectralSolution(spec=spec, terms=terms, eigenvalues=eigenvalues,
                            coeffs=coeffs, offset=offset)


def mode_matrix(sol: SpectralSolution, times: np.ndarray) -> np.ndarray:
    """E_alpha(eigenvalues * t^alpha) on a grid; shape (len(times), terms).
    Every argument is <= 0, where ml_eval reads only the order."""
    times = np.asarray(times, dtype=float)
    z = times[:, None] ** sol.spec.alpha * sol.eigenvalues[None, :]
    return ml_eval(z.ravel(), MlParams(alpha=sol.spec.alpha)).reshape(z.shape)


def _mode_sums(modes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """modes @ weights, each row a plain pairwise sum of its own.  BLAS gemv
    would round a row differently with the number of rows, making a time's
    value depend on the rest of its grid."""
    return (modes * weights).sum(axis=1)


def _expansion(sol: SpectralSolution, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grid, modes, X) on a validated grid of times >= 0, with the mode sums
    uncompensated: the residual's rounding error is set by the f(X) - LHS
    subtraction, not by the order of summation.  X(0) = x0 exactly: the
    expansion telescopes to x0 there analytically, but for the riccati edge
    x0 = 0 the mode ratio is -1 and the even-K sum would give -1 instead.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d array of times")
    _check_times(grid, "grid")
    modes = mode_matrix(sol, grid)
    x = sol.offset + _mode_sums(modes, sol.coeffs)
    if grid[0] == 0:
        x[0] = sol.spec.x0
    return grid, modes, x


def eval_trajectory(sol: SpectralSolution, grid) -> Trajectory:
    """Expansion sampled over a strictly increasing grid of times >= 0; X(0) = x0."""
    grid, _, x = _expansion(sol, grid)
    return Trajectory(times=grid, values=x, meta="spectral")


def eval_solution(sol: SpectralSolution, t: float) -> float:
    """Value of the truncated expansion at a single time: a one-point
    eval_trajectory, so t = 0 returns x0 exactly."""
    return float(eval_trajectory(sol, t).values[0])


def closed_form_integer(spec: ProblemSpec, t):
    """Exact alpha = 1 solutions (accepts scalar or array times).

    riccati : (tanh t + x0) / (x0 tanh t + 1)
    logistic: x0 / (x0 + (1 - x0) e^(-lambda t))
    cubic   : x0 e^(-a t) / sqrt(1 + (b/a) x0^2 (1 - e^(-2 a t)))
    """
    if spec.alpha != 1.0:
        raise ValueError("closed forms require alpha = 1")
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise ValueError("t must be non-negative")
    if spec.kind is EquationKind.RICCATI:
        th = np.tanh(tt)
        out = (th + spec.x0) / (spec.x0 * th + 1.0)
    elif spec.kind is EquationKind.LOGISTIC:
        out = spec.x0 / (spec.x0 + (1.0 - spec.x0) * np.exp(-spec.lambda_ * tt))
    else:
        decay = np.exp(-spec.a * tt)
        out = spec.x0 * decay / np.sqrt(
            1.0 + (spec.b / spec.a) * spec.x0 ** 2 * (1.0 - decay ** 2))
    return float(out) if out.ndim == 0 else out

