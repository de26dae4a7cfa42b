"""Compensated summation kernels that fracspec no longer calls.  They stay
only while bench/tracing.py wraps them by name on problems, residual and abm."""

from __future__ import annotations

import math

import numpy as np


def exact_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product with an exactly accumulated sum of the rounded products.

    The individual products carry one rounding each; their sum is exact
    (math.fsum).
    """
    return math.fsum((np.asarray(a, dtype=float) * np.asarray(b, dtype=float)).tolist())


def neumaier_dot_rows(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Compensated row sums of ``values * weights``.

    ``values`` has shape (n_rows, k); ``weights`` has shape (k,).  Returns the
    length-n_rows array sum_k weights[k]*values[:, k] accumulated in increasing
    k with Neumaier's correction, vectorised over rows.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total = np.zeros(values.shape[0])
    comp = np.zeros(values.shape[0])
    for k in range(values.shape[1]):
        y = weights[k] * values[:, k]
        t = total + y
        big = np.abs(total) >= np.abs(y)
        comp += np.where(big, (total - t) + y, (y - t) + total)
        total = t
    return total + comp
