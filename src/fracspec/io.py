"""Flat-file output: lossless CSV and key=value metadata sidecars.

Floats are rendered with 17 significant digits so parse(emit(x)) == x bitwise;
re-running a command with identical inputs produces byte-identical data files
(timestamps live only in the sidecar).
"""

from __future__ import annotations

import datetime
from pathlib import Path

import numpy as np

__all__ = [
    "format_float",
    "write_csv",
    "write_report_csv",
    "write_sidecar",
]


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path, header: list[str], columns: list[np.ndarray],
              preamble: str | None = None) -> None:
    """Comma-separated columns under a one-line header; optional '#' preamble."""
    if len(header) != len(columns):
        raise ValueError("one header entry per column")
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValueError("columns must share a length")
    lines = []
    if preamble is not None:
        lines.append(f"# {preamble}")
    lines.append(",".join(header))
    for i in range(n):
        lines.append(",".join(format_float(c[i]) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_csv(report, path) -> None:
    """ResidualReport as t, delta, short_asymptote, long_asymptote columns
    behind a one-line preamble carrying the fitted exponents."""
    preamble = (f"fitted_short_exponent={format_float(report.fitted_short_exponent)} "
                f"fitted_long_exponent={format_float(report.fitted_long_exponent)} "
                f"max_abs_delta={format_float(report.max_abs_delta)} "
                f"t_at_max={format_float(report.t_at_max)}")
    write_csv(path,
              ["t", "delta", "short_asymptote", "long_asymptote"],
              [report.grid.times, report.grid.values,
               report.short_asymptote.values, report.long_asymptote.values],
              preamble=preamble)


def write_sidecar(path, entries: dict) -> None:
    """Plain-text key=value metadata next to a data file, stamped created=."""
    lines = [f"{k}={v}" for k, v in entries.items()]
    lines.append(f"created={datetime.datetime.now().isoformat(timespec='seconds')}")
    Path(path).write_text("\n".join(lines) + "\n")
