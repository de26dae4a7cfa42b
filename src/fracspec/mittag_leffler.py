"""One-parameter Mittag-Leffler function E_alpha(z) for real arguments.

E_alpha(z) = sum_{k>=0} z^k / Gamma(alpha*k + 1), 0 < alpha <= 1.

Double precision cannot evaluate the defining series for strongly negative z:
the partial sums peak near exp(|z|**(1/alpha)) while the result decays like a
power, so the alternating sum cancels catastrophically.  Evaluation therefore
dispatches over three branches:

* the power series (term recurrence through log-Gamma ratios) close to the
  origin and for all z >= 0,
* a double-exponential quadrature of the spectral representation

      E_alpha(-x) = sin(pi a)/(pi a) *
                    int_0^inf exp(-s**(1/a)) * x / (s^2 + 2xs cos(pi a) + x^2) ds

  on the mid negative axis, accurate to ~1e-13 relative for alpha <= 0.985
  and ~1e-9 at alpha = 0.99 (measured against a 60-digit series); beyond,
  the step floor cannot resolve the near-pole (2e-6 at 0.995, 3e-2 at
  0.999), so mid-band points above alpha = 0.99 raise an AccuracyWarning,
* the inverse-power asymptotic series beyond ``asymptote_switch``.

At alpha = 1 every branch collapses to exp(z), which is returned directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, rgamma

__all__ = [
    "AccuracyWarning",
    "MlParams",
    "ml_series",
    "ml_stretched_exp",
    "ml_asymptotic",
    "ml_eval",
    "mittag_leffler",
]

# Negative-axis magnitude up to which the double-precision series still meets
# ~1e-9 relative accuracy: partial sums peak near exp(|z|**(1/alpha)), so cap
# that exponent at 11.5 (peak ~1e5, leaving ~9 digits after cancellation).
_SERIES_NEG_EXPONENT_CAP = 11.5

# Ratio of peak partial-sum magnitude to the final value beyond which the
# series result is flagged as degraded by cancellation.
_CANCELLATION_RATIO = 1.0e8

_DEFAULT_ASYM_TERMS = 5

# Order above which the mid-band quadrature, held at its step floor, loses
# more than ~1e-9 relative; its results are flagged as degraded.
_QUAD_ALPHA_MAX = 0.99


class AccuracyWarning(UserWarning):
    """Result carries less accuracy than requested."""


@dataclass(frozen=True)
class MlParams:
    """Evaluation parameters for E_alpha.

    alpha            : order, in (0, 1]
    series_tol       : absolute truncation tolerance of the power series
    series_max_terms : hard cap on the number of series terms
    asymptote_switch : |z| beyond which the asymptotic branch is used (z < 0)
    """

    alpha: float
    series_tol: float = 1e-15
    series_max_terms: int = 500
    asymptote_switch: float = 50.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (self.series_tol > 0.0):
            raise ValueError("series_tol must be positive")
        if self.series_max_terms < 1:
            raise ValueError("series_max_terms must be >= 1")
        if not (self.asymptote_switch > 0.0):
            raise ValueError("asymptote_switch must be positive")

    @property
    def series_neg_cutoff(self) -> float:
        """|z| up to which the series branch is used on the negative axis."""
        return min(self.asymptote_switch, _SERIES_NEG_EXPONENT_CAP ** self.alpha)


@lru_cache(maxsize=64)
def _series_ratios(alpha: float, max_terms: int) -> np.ndarray:
    # term_{k+1} = term_k * z * ratios[k]; Gamma ratios via log-Gamma so the
    # recurrence never overflows even at k = 500, alpha = 1.
    k = np.arange(max_terms + 1, dtype=float)
    lg = gammaln(k * alpha + 1.0)
    ratios = np.exp(lg[:-1] - lg[1:])
    ratios.setflags(write=False)
    return ratios


def _series_core(z: np.ndarray, p: MlParams):
    """Vectorised series sum.  Returns (value, hit_cap_mask, cancel_mask)."""
    ratios = _series_ratios(p.alpha, p.series_max_terms)
    total = np.zeros_like(z)
    comp = np.zeros_like(z)
    peak = np.zeros_like(z)
    term = np.ones_like(z)
    active = np.ones(z.shape, dtype=bool)
    for k in range(p.series_max_terms + 1):
        t = total + term
        big = np.abs(total) >= np.abs(term)
        comp = comp + np.where(big, (total - t) + term, (term - t) + total)
        total = t
        np.maximum(peak, np.abs(total), out=peak)
        active &= ~(np.abs(term) < p.series_tol)
        if not active.any() or k == p.series_max_terms:
            break
        term = np.where(active, term * z * ratios[k], 0.0)
    value = total + comp
    cancel = peak > _CANCELLATION_RATIO * np.maximum(np.abs(value), 1e-300)
    return value, active.copy(), cancel


@lru_cache(maxsize=32)
def _de_nodes(alpha: float):
    """Double-exponential nodes/weights for the spectral representation.

    s = exp(pi/2 * sinh(tau)) on tau in [-4.1, 4.1]; the step is refined as
    alpha -> 1 because the integrand develops a near-pole of relative width
    ~tan(pi(1-alpha)) at s = x|cos(pi alpha)|.
    """
    tmax = 4.1
    d = 2.0 * (1.0 - alpha) / 3.0
    h = min(0.05, 0.8 * 2.0 * math.pi * d / 21.0)
    h = max(h, 0.004)
    n = int(math.ceil(2.0 * tmax / h))
    tau = -tmax + h * np.arange(n + 1)
    s = np.exp(0.5 * math.pi * np.sinh(tau))
    w = s * (0.5 * math.pi) * np.cosh(tau) * h
    with np.errstate(over="ignore"):            # inf is clamped to exp(-745)
        w *= np.exp(-np.minimum(s ** (1.0 / alpha), 745.0))
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


def _integral_core(x: np.ndarray, alpha: float) -> np.ndarray:
    s, we = _de_nodes(alpha)
    cospa = math.cos(math.pi * alpha)
    sinpa = math.sin(math.pi * alpha)
    out = np.empty_like(x)
    s2 = np.square(s)
    # chunk so the (x, nodes) work array stays cache-sized
    step = max(1, 2_000_000 // s.size)
    for lo in range(0, x.size, step):
        xb = x[lo:lo + step, None]
        denom = s2[None, :] + (2.0 * cospa) * xb * s[None, :] + np.square(xb)
        out[lo:lo + step] = (we[None, :] / denom).sum(axis=1)
    return (sinpa / (math.pi * alpha)) * x * out


def _asym_core(x: np.ndarray, alpha: float, n_terms: int) -> np.ndarray:
    k = np.arange(1, n_terms + 1, dtype=float)
    coef = ((-1.0) ** (k + 1)) * rgamma(1.0 - k * alpha)
    # powers summed from the smallest term up
    pows = x[:, None] ** (-k[None, :])
    return (pows * coef[None, :])[:, ::-1].sum(axis=1)


def _as_array(z) -> tuple[np.ndarray, bool]:
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def ml_series(z, p: MlParams):
    """Power-series evaluation of E_alpha(z).

    Terms are generated by the recurrence term_{k+1} = term_k * z *
    Gamma(k a + 1)/Gamma((k+1) a + 1) and accumulated with compensated
    summation; truncation happens at the first term below ``series_tol`` or at
    ``series_max_terms`` (the latter raises an AccuracyWarning).  A second
    AccuracyWarning flags cancellation-degraded results (peak partial sum
    exceeding 1e8 times the final value).
    """
    arr, scalar = _as_array(z)
    if not np.isfinite(arr).all():
        raise ValueError("ml_series requires finite arguments")
    value, hit_cap, cancel = _series_core(arr, p)
    if hit_cap.any():
        warnings.warn(
            f"series reached {p.series_max_terms} terms before tolerance "
            f"{p.series_tol:g}", AccuracyWarning, stacklevel=2)
    if cancel.any():
        warnings.warn(
            "series result degraded by cancellation; use ml_eval for "
            "strongly negative arguments", AccuracyWarning, stacklevel=2)
    return float(value[0]) if scalar else value


def ml_stretched_exp(lambda_, t, alpha: float):
    """Short-time approximation exp(-lambda * t**alpha / Gamma(1 + alpha)).

    Agrees with E_alpha(-lambda t^alpha) to first order in t^alpha only; the
    quadratic terms differ for alpha < 1.
    """
    lam = np.asarray(lambda_, dtype=float)
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise ValueError("t must be non-negative")
    if np.any(lam < 0):
        raise ValueError("lambda_ must be non-negative")
    out = np.exp(-lam * tt ** alpha / math.gamma(1.0 + alpha))
    return float(out) if out.ndim == 0 else out


def ml_asymptotic(x, alpha: float, n_terms: int = _DEFAULT_ASYM_TERMS):
    """Inverse-power expansion of E_alpha(-x) for large x > 0.

    Returns sum_{k=1}^{n_terms} (-1)^(k+1) x^(-k) / Gamma(1 - k alpha); with
    n_terms=1 this is the leading tail x^(-1)/Gamma(1-alpha).  Orders where
    1 - k*alpha hits a Gamma pole contribute zero.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("asymptotic branch requires 0 < alpha < 1; "
                         "use the exponential at alpha = 1")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    arr, scalar = _as_array(x)
    if not np.isfinite(arr).all() or np.any(arr <= 0):
        raise ValueError("ml_asymptotic requires x > 0")
    out = _asym_core(arr, alpha, n_terms)
    return float(out[0]) if scalar else out


def ml_eval(z, p: MlParams):
    """Branch-dispatched evaluation of E_alpha(z) on the real line.

    alpha = 1 returns exp(z) exactly.  Otherwise the series handles
    z >= -series_neg_cutoff (and all z >= 0), the spectral-representation
    quadrature covers the mid band down to -asymptote_switch, and the
    asymptotic series takes over beyond.  Branch values agree to better than
    1e-6 relative at the seams for alpha in [0.3, 0.95] (tested property).
    """
    arr, scalar = _as_array(z)
    if not np.isfinite(arr).all():
        raise ValueError("ml_eval requires finite arguments")
    if p.alpha == 1.0:
        out = np.exp(arr)
        return float(out[0]) if scalar else out

    out = np.empty_like(arr)
    cutoff = p.series_neg_cutoff
    ser = arr >= -cutoff
    deep = arr < -p.asymptote_switch
    mid = ~ser & ~deep

    if ser.any():
        value, hit_cap, cancel = _series_core(arr[ser], p)
        out[ser] = value
        if hit_cap.any() or cancel.any():
            warnings.warn("series branch accuracy degraded",
                          AccuracyWarning, stacklevel=2)
    if mid.any():
        out[mid] = _integral_core(-arr[mid], p.alpha)
        if p.alpha > _QUAD_ALPHA_MAX:
            warnings.warn(f"quadrature branch accuracy degraded at alpha > "
                          f"{_QUAD_ALPHA_MAX:g}", AccuracyWarning, stacklevel=2)
    if deep.any():
        out[deep] = _asym_core(-arr[deep], p.alpha, _DEFAULT_ASYM_TERMS)
    return float(out[0]) if scalar else out


def mittag_leffler(z, alpha: float):
    """E_alpha(z) with default evaluation parameters."""
    return ml_eval(z, MlParams(alpha=alpha))
