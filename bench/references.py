"""Reference values computed apart from fracspec.

Nothing here imports the package.  The expansion coefficients are written out
from the table in the project README, E_{1/2}(-x) comes from
scipy.special.erfcx (E_{1/2}(-x) = exp(x^2) erfc(x)), E_alpha for other
orders from mpmath at 60 digits, and the alpha = 1 solutions from their
closed forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import erfcx, rgamma

# Accuracy the residual checks grant fracspec's E_alpha per mode, relative.
# README: E_{1/2}(-x) matches exp(x^2) erfc(x) to 1e-8 relative; the series
# branch is designed for ~1e-9 and the quadrature for ~1e-13.
ML_REL_ERR = 1e-8
# Beyond |z| = 50 fracspec sums five terms of the inverse-power expansion;
# its error there is about the sum of the omitted terms (~4e-7 relative at
# alpha = 0.9, |z| = 50).  Twice that sum is granted on top of ML_REL_ERR.
ASYM_SWITCH = 50.0
ASYM_TERMS = 5
# Rounding allowance for sums of O(K) double-precision terms.
ROUND_REL_ERR = 1e-13

MP_DPS = 60


@dataclass(frozen=True)
class Problem:
    """One rate equation with its order, initial value and rates."""

    kind: str               # "riccati" | "logistic" | "cubic"
    alpha: float
    x0: float
    lam: float | None = None
    a: float | None = None
    b: float | None = None

    def rhs(self, x):
        if self.kind == "riccati":
            return 1.0 - x * x
        if self.kind == "logistic":
            return self.lam ** self.alpha * x * (1.0 - x)
        return -self.a * x - self.b * x ** 3

    def rhs_prime(self, x):
        if self.kind == "riccati":
            return -2.0 * x
        if self.kind == "logistic":
            return self.lam ** self.alpha * (1.0 - 2.0 * x)
        return -self.a - 3.0 * self.b * x * x


def expansion(p: Problem, terms: int = 100, num=float):
    """(offset, coeffs, eigenvalues) of the truncated expansion, from the
    README table.  ``num`` is float or mp.mpf."""
    x0 = num(p.x0)
    if p.kind == "riccati":
        r = (x0 - 1) / (x0 + 1)
        return num(-1), [2 * r ** k for k in range(terms)], [num(-2 * k) for k in range(terms)]
    if p.kind == "logistic":
        q = (x0 - 1) / x0
        rate = num(p.lam) ** num(p.alpha)
        return num(0), [q ** k for k in range(terms)], [-k * rate for k in range(terms)]
    beta = num(p.b) / num(p.a) * x0 ** 2
    rho = beta / (beta + 1)
    scale = x0 / (beta + 1) ** (num(1) / 2)
    # (2k-1)!!/(2k)!! = C(2k, k) / 4^k, exact in integers
    coeffs = [num(math.comb(2 * k, k)) / num(4) ** k * rho ** k * scale
              for k in range(terms)]
    return num(0), coeffs, [-(2 * k + 1) * num(p.a) for k in range(terms)]


def mode_allowance(z: np.ndarray, values: np.ndarray, alpha: float) -> np.ndarray:
    """Error granted to fracspec's E_alpha(z) per mode: ML_REL_ERR relative,
    plus twice the omitted terms of the asymptotic expansion where it is used."""
    x = np.abs(np.asarray(z, dtype=float))
    out = ML_REL_ERR * np.abs(values)
    deep = x > ASYM_SWITCH
    if alpha < 1.0 and deep.any():
        out[deep] += 2.0 * sum(np.abs(rgamma(1.0 - k * alpha)) * x[deep] ** (-k)
                               for k in range(ASYM_TERMS + 1, ASYM_TERMS + 11))
    return out


def _delta_and_bound(p: Problem, offset, coeffs, eigs, modes, allowance):
    """Residual and its error allowance from one row of mode values."""
    cm = [c * e for c, e in zip(coeffs, modes)]
    x = offset + math.fsum(cm)
    lhs = math.fsum(c * lam for c, lam in zip(cm, eigs))
    err_x = math.fsum(abs(c) * a for c, a in zip(coeffs, allowance))
    err_l = math.fsum(abs(c * lam) * a for c, lam, a in zip(coeffs, eigs, allowance))
    size_l = math.fsum(abs(v * lam) for v, lam in zip(cm, eigs))
    fx = p.rhs(x)
    fprime = abs(p.rhs_prime(x))
    bound = (fprime * err_x + err_l
             + ROUND_REL_ERR * (abs(fx) + size_l + fprime * math.fsum(abs(v) for v in cm)))
    return fx - lhs, bound


def residual_half(p: Problem, grid: np.ndarray, terms: int = 100):
    """Delta(t) at alpha = 1/2 from E_{1/2}(lam sqrt t) = erfcx(-lam sqrt t),
    with fsum mode sums.  Returns (delta, bound) arrays."""
    if p.alpha != 0.5:
        raise ValueError("erfcx reference needs alpha = 1/2")
    offset, coeffs, eigs = expansion(p, terms)
    z = np.sqrt(grid)[:, None] * np.asarray(eigs)[None, :]
    modes = erfcx(-z)
    allow = mode_allowance(z, modes, p.alpha)
    out = [_delta_and_bound(p, offset, coeffs, eigs, row.tolist(), a.tolist())
           for row, a in zip(modes, allow)]
    return np.array([d for d, _ in out]), np.array([b for _, b in out])


def solution_half(p: Problem, grid: np.ndarray, terms: int = 100):
    """X(t) of the truncated expansion at alpha = 1/2 and its allowance."""
    offset, coeffs, eigs = expansion(p, terms)
    z = np.sqrt(grid)[:, None] * np.asarray(eigs)[None, :]
    modes = erfcx(-z)
    weighted = modes * np.asarray(coeffs)[None, :]
    x = np.array([offset + math.fsum(row) for row in weighted.tolist()])
    allow = np.abs(coeffs)[None, :] * mode_allowance(z, modes, p.alpha)
    return x, allow.sum(axis=1) + ROUND_REL_ERR * np.abs(weighted).sum(axis=1)


class _MlTable:
    """Reciprocal Gamma values for the series and the asymptotic expansion
    of E_alpha at MP_DPS digits, grown on demand."""

    def __init__(self, alpha: float):
        with mp.workdps(MP_DPS):
            self.alpha = mp.mpf(alpha)
        self.series: list = []
        self.asym: list = []

    def series_rg(self, k: int):
        with mp.workdps(MP_DPS):
            while len(self.series) <= k:
                self.series.append(mp.rgamma(len(self.series) * self.alpha + 1))
        return self.series[k]

    def asym_rg(self, k: int):
        with mp.workdps(MP_DPS):
            while len(self.asym) <= k:
                self.asym.append(mp.rgamma(1 - len(self.asym) * self.alpha))
        return self.asym[k]


_TABLES: dict[float, _MlTable] = {}


def ml_mp(z, alpha: float):
    """E_alpha(z) for real z <= 0 and 0 < alpha < 1 at MP_DPS digits.

    |z| below 60^alpha: the defining series, whose cancellation costs about
    |z|^(1/alpha)/2.3 < 27 of the 60 digits.  Beyond: the inverse-power
    expansion truncated at its smallest term, whose error is of order
    exp(-|z|^(1/alpha)) < 1e-26 relative.
    """
    table = _TABLES.setdefault(alpha, _MlTable(alpha))
    with mp.workdps(MP_DPS):
        z = mp.mpf(z)
        x = -z
        if x < mp.mpf(60) ** table.alpha:
            total, power, k = mp.mpf(0), mp.mpf(1), 0
            tiny = mp.mpf(10) ** (-MP_DPS + 2)
            while True:
                term = power * table.series_rg(k)
                total += term
                if abs(term) < tiny and k > 10:
                    return total
                k += 1
                power *= z
        total, best, k = mp.mpf(0), None, 1
        inv = 1 / x
        power = inv
        tiny = mp.mpf(10) ** (-MP_DPS + 2)
        while k < 2000:
            term = (-1) ** (k + 1) * power * table.asym_rg(k)
            if term != 0:
                if best is not None and (abs(term) >= best
                                         or abs(term) < tiny * abs(total)):
                    break
                best = abs(term)
            total += term
            k += 1
            power *= inv
        return total


@functools.lru_cache(maxsize=64)
def _modes_mp(alpha: float, t: float, eigs: tuple) -> tuple[list, list]:
    """(z, E_alpha(z)) as doubles for z = lam t^alpha, lam in ``eigs``.
    The riccati eigenvalues do not depend on x0, so repeated (alpha, t)
    pairs hit the cache."""
    with mp.workdps(MP_DPS):
        s = mp.mpf(t) ** mp.mpf(alpha)
        return ([float(lam * s) for lam in eigs],
                [float(ml_mp(lam * s, alpha)) for lam in eigs])


def residual_mp(p: Problem, t: float, terms: int = 100):
    """Delta(t) from mpmath mode values and the table coefficients, rounded
    to double, with its allowance."""
    with mp.workdps(MP_DPS):
        offset, coeffs, eigs = expansion(p, terms, num=mp.mpf)
        z, modes = _modes_mp(p.alpha, t, tuple(eigs))
        offset = float(offset)
        coeffs = [float(c) for c in coeffs]
        eigs = [float(lam) for lam in eigs]
    allow = mode_allowance(np.array(z), np.array(modes), p.alpha).tolist()
    return _delta_and_bound(p, offset, coeffs, eigs, modes, allow)


def solution_mp(p: Problem, t: float, terms: int = 100):
    """X(t) of the truncated expansion from mpmath, with its allowance."""
    with mp.workdps(MP_DPS):
        offset, coeffs, eigs = expansion(p, terms, num=mp.mpf)
        s = mp.mpf(t) ** mp.mpf(p.alpha)
        z = np.array([float(lam * s) for lam in eigs])
        modes = np.array([float(ml_mp(lam * s, p.alpha)) for lam in eigs])
        x = float(offset + mp.fsum(c * m for c, m in zip(coeffs, modes)))
    c = np.abs(np.array([float(v) for v in coeffs]))
    allow = c * mode_allowance(z, modes, p.alpha)
    return x, float(allow.sum() + ROUND_REL_ERR * (c * np.abs(modes)).sum())


def closed_form(p: Problem, t: np.ndarray) -> np.ndarray:
    """Exact alpha = 1 solutions."""
    if p.kind == "riccati":
        th = np.tanh(t)
        return (th + p.x0) / (p.x0 * th + 1.0)
    if p.kind == "logistic":
        return p.x0 / (p.x0 + (1.0 - p.x0) * np.exp(-p.lam * t))
    decay = np.exp(-p.a * t)
    return p.x0 * decay / np.sqrt(1.0 + p.b / p.a * p.x0 ** 2 * (1.0 - decay ** 2))


def relaxation_half(x0: float, t: np.ndarray) -> np.ndarray:
    """Solution x0 E_{1/2}(-sqrt t) of d^(1/2) X = -X."""
    return x0 * erfcx(np.sqrt(t))
