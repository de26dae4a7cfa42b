"""Shared fixtures: high-precision reference values and the acceptance
criterion report hook."""

from __future__ import annotations

import numpy as np
import pytest

import mpmath as mp


# ---------------------------------------------------------------------------
# high-precision Mittag-Leffler reference (test-only; >= 50 significant digits)

def ml_reference(z, alpha) -> mp.mpf:
    """E_alpha(z) by direct high-precision summation of the defining series,
    switching to the optimally truncated inverse-power expansion once the
    series would need more than ~25 guard digits of cancellation headroom."""
    z = mp.mpf(z)
    alpha = mp.mpf(alpha)
    if z == 0:
        return mp.mpf(1)
    x = abs(z)
    if z < 0 and x >= mp.mpf(55) ** alpha:
        with mp.workdps(80):
            terms = []
            for k in range(1, 700):
                t = (-1) ** (k + 1) * x ** (-k) * mp.rgamma(1 - k * alpha)
                terms.append(t)
                if t != 0 and abs(t) < mp.mpf(10) ** (-55):
                    break
            mags = [abs(t) for t in terms if t != 0]
            cut = len(terms)
            if mags and min(mags) > mp.mpf(10) ** (-55):
                smallest = min(mags)
                for i, t in enumerate(terms):
                    if t != 0 and abs(t) == smallest:
                        cut = i + 1
                        break
            return mp.fsum(terms[:cut])
    need = int(float(x ** (1 / alpha)) / 2.3) + 60
    with mp.workdps(need):
        s = mp.mpf(0)
        term = mp.mpf(1)
        k = 0
        while True:
            s += term
            k += 1
            term = z ** k / mp.gamma(k * alpha + 1)
            if abs(term) < mp.mpf(10) ** (-(need - 10)) and k > 5:
                break
            if k > 100_000:
                raise RuntimeError("reference series failed to converge")
        return +s


@pytest.fixture(scope="session")
def ml_ref():
    return ml_reference


# ---------------------------------------------------------------------------
# independent Caputo derivative: piecewise-linear quadrature of the memory
# integral on a graded grid (the termwise eigen-identity never enters here)

def caputo_l1(x_of_t, t: float, alpha: float, n: int = 4000, grading: float = 3.0) -> float:
    """x_of_t maps the whole node array to the solution values on it."""
    tau = t * (np.arange(n + 1) / n) ** grading
    x = np.asarray(x_of_t(tau), dtype=float)
    dx = np.diff(x)
    dtau = np.diff(tau)
    kernel = (t - tau) ** (1.0 - alpha)
    weights = (kernel[:-1] - kernel[1:]) / (1.0 - alpha)
    from math import fsum, gamma
    return fsum((dx / dtau * weights).tolist()) / gamma(1.0 - alpha)


@pytest.fixture(scope="session")
def caputo_quadrature():
    return caputo_l1


# ---------------------------------------------------------------------------
# acceptance summary: one PASS/FAIL line per criterion at the end of the run

def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, text): acceptance criterion this test implements")


_criterion_results: dict[tuple[int, str], list[bool]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    key = (marker.args[0], marker.args[1])
    _criterion_results.setdefault(key, []).append(report.passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for (num, text) in sorted(_criterion_results):
        results = _criterion_results[(num, text)]
        status = "PASS" if all(results) else "FAIL"
        tr.write_line(f"criterion {num}: {status} ({sum(results)}/{len(results)} checks) - {text}")
