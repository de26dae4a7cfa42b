"""Per-layer tracing of fracspec from outside the package.

The modules bind each other's functions at import (``from .mittag_leffler
import ml_eval``), so a layer is traced by replacing the attribute on every
calling module.  Each wrapped call records a span: id, parent span, layer
name, start and end (perf_counter_ns), and the work it was given.  Spans are
kept in memory; ``layer_metrics`` reduces them and ``dump`` writes them out
when the run ends.  A span opened on a worker thread (the CLI sweep pool)
takes the main thread's innermost open span as its parent.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import threading
import time

import numpy as np


def _ml_work(args, kwargs):
    z = np.asarray(args[0], dtype=float).ravel()
    p = args[1] if len(args) > 1 else kwargs["p"]
    n = z.size
    if p.alpha == 1.0:
        return (n, 0, 0, 0, n)
    series = int(np.count_nonzero(z >= -p.series_neg_cutoff))
    asym = int(np.count_nonzero(z < -p.asymptote_switch))
    return (n, series, n - series - asym, asym, 0)


def _first_len(args, kwargs, result):
    return len(args[0])


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _traj_len(args, kwargs, result):
    return len(result)


def _csv_work(args, kwargs, result):
    rows = int(np.size(args[2][0])) if args[2] else 0
    return (rows, os.path.getsize(args[0]))


def _neumaier_cells(args, kwargs, result):
    return int(np.size(args[0]))


# (layer, calling modules, function name, work counted on entry, work
# counted from the result).  Entry work is timed with the span; keep it cheap.
LAYERS = [
    ("ml.eval", ("problems", "residual", "cli"), "ml_eval", _ml_work, None),
    ("problems.mode_matrix", ("problems", "residual"), "mode_matrix", None, _result_size),
    ("problems.eval_trajectory", ("problems", "cli"), "eval_trajectory", None, _traj_len),
    ("problems.build_spectrum", ("problems", "residual", "cli"), "build_spectrum", None, None),
    ("summation.neumaier", ("problems", "residual"), "neumaier_dot_rows", None, _neumaier_cells),
    ("summation.exact_dot", ("problems", "residual", "abm"), "exact_dot", None, _first_len),
    ("residual.trajectory", ("residual", "cli"), "residual_trajectory", None, None),
    ("residual.short_model", ("residual",), "residual_short_asymptote", None, None),
    ("residual.long_model", ("residual",), "residual_long_asymptote", None, None),
    ("residual.fit", ("residual",), "fit_power_law", None, None),
    ("residual.analyze", ("residual", "cli"), "analyze", None, None),
    ("abm.solve", ("abm", "cli"), "abm_solve", None, _traj_len),
    ("abm.grid", ("abm",), "abm_solve_grid", None, _traj_len),
    ("io.write_csv", ("io", "cli"), "write_csv", None, _csv_work),
    ("cli.command", ("cli",), "main", None, None),
]


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside fracspec.mittag_leffler
    and records each warning raised there as a zero-length span."""

    def __init__(self, real, tracer: "Tracer"):
        self._real = real
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1, source=None):
        if self._tracer.active:
            self._tracer.mark("ml.warning")
        self._real.warn(message, category, stacklevel + 1, source)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []
        self.active = False     # record only inside a timed operation

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = (
                self._main_stack if threading.current_thread() is threading.main_thread()
                else [])
        return stack

    def _parent(self, stack) -> int:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return -1

    def call(self, name, fn, *args, pre=None, post=None, tag=None, **kwargs):
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            work = pre(args, kwargs) if pre else None
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
        if post:
            work = post(args, kwargs, result)
        self.spans.append((sid, parent, name, start, end, work, tag))
        return result

    def mark(self, name):
        stack = self._stack()
        now = time.perf_counter_ns()
        self.spans.append((next(self._ids), self._parent(stack), name, now, now, None, None))

    # -- installing ------------------------------------------------------
    def install(self, fx) -> None:
        """Wrap every layer function on each module that calls it; ``fx``
        holds fracspec's modules by name."""
        for layer, modules, attr, pre, post in LAYERS:
            for modname in modules:
                module = getattr(fx, modname)
                original = getattr(module, attr)
                tag = _argv_tag if layer == "cli.command" else None
                setattr(module, attr, self._wrapper(layer, original, pre, post, tag))
                self._restore.append((module, attr, original))
        ml = fx.mittag_leffler
        self._restore.append((ml, "warnings", ml.warnings))
        ml.warnings = _CountingWarnings(ml.warnings, self)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrapper(self, layer, fn, pre, post, tag):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.call(layer, fn, *args, pre=pre, post=post,
                             tag=tag(args, kwargs) if tag else None, **kwargs)
        return wrapper

    # -- output ----------------------------------------------------------
    def dump(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], s[1], index[s[2]], s[3], s[4], s[5], s[6]] for s in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns",
                                  "work", "tag"],
                       "names": names, "spans": rows}, fh)


def _argv_tag(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


def _covered(intervals, lo, hi) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from recorded spans.  Counts and times are per
    operation; rates and shares are ratios over the whole traced phase."""
    by_id = {s[0]: s for s in spans}
    groups: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        groups.setdefault(s[2], []).append(s)
        children.setdefault(s[1], []).append((s[3], s[4]))

    def named(name):
        return groups.get(name, [])

    def ancestors(s):
        parent = by_id.get(s[1])
        while parent is not None:
            yield parent
            parent = by_id.get(parent[1])

    def dur(s):
        return (s[4] - s[3]) * 1e-9

    def busy(name):
        return sum(dur(s) for s in named(name)
                   if all(a[2] != name for a in ancestors(s)))

    def self_time(name):
        return sum(dur(s) - _covered(children.get(s[0], ()), s[3], s[4]) * 1e-9
                   for s in named(name))

    def under(name, outer, tag=None):
        return [s for s in named(name)
                if any(a[2] == outer and (tag is None or a[6] == tag)
                       for a in ancestors(s))]

    def work(name, i=None):
        return sum(s[5] if i is None else s[5][i] for s in named(name))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    per = 1.0 / n_ops
    ml_work = [sum(s[5][i] for s in named("ml.eval")) for i in range(5)]
    ml_busy = busy("ml.eval")
    history = under("summation.exact_dot", "abm.solve") + under("summation.exact_dot", "abm.grid")
    history_busy = sum(dur(s) for s in history)
    abm_busy = busy("abm.solve") + busy("abm.grid")
    steps = work("abm.solve") + work("abm.grid") - len(named("abm.solve")) - len(named("abm.grid"))
    csv_bytes = work("io.write_csv", 1)
    sweeps = [s for s in named("cli.command") if s[6] == "sweep"]

    m = {
        "ml.calls": len(named("ml.eval")) * per,
        "ml.points": ml_work[0] * per,
        "ml.busy_s": ml_busy * per,
        "ml.points_per_s": ratio(ml_work[0], ml_busy),
        "ml.series.points": ml_work[1] * per,
        "ml.quad.points": ml_work[2] * per,
        "ml.asym.points": ml_work[3] * per,
        "ml.exp.points": ml_work[4] * per,
        "ml.warnings": len(named("ml.warning")) * per,
        "problems.mode_matrix.calls": len(named("problems.mode_matrix")) * per,
        "problems.mode_matrix.cells": work("problems.mode_matrix") * per,
        "problems.mode_matrix.self_s": self_time("problems.mode_matrix") * per,
        "problems.eval_trajectory.points": work("problems.eval_trajectory") * per,
        "problems.eval_trajectory.busy_s": busy("problems.eval_trajectory") * per,
        "problems.build_spectrum.busy_s": busy("problems.build_spectrum") * per,
        "summation.neumaier.calls": len(named("summation.neumaier")) * per,
        "summation.neumaier.cells": work("summation.neumaier") * per,
        "summation.neumaier.busy_s": busy("summation.neumaier") * per,
        "summation.exact_dot.calls": len(named("summation.exact_dot")) * per,
        "summation.exact_dot.terms": work("summation.exact_dot") * per,
        "summation.exact_dot.busy_s": busy("summation.exact_dot") * per,
        "abm.solve.busy_s": busy("abm.solve") * per,
        "abm.steps": steps * per,
        "abm.steps_per_s": ratio(steps, abm_busy),
        "abm.history.terms": sum(s[5] for s in history) * per,
        "abm.history.busy_s": history_busy * per,
        "abm.history.share": ratio(history_busy, abm_busy),
        "abm.grid.busy_s": busy("abm.grid") * per,
        "abm.grid.nodes": work("abm.grid") * per,
        "abm.grid.self_s": self_time("abm.grid") * per,
        "residual.trajectory.busy_s": busy("residual.trajectory") * per,
        "residual.trajectory.self_s": self_time("residual.trajectory") * per,
        "residual.short_model.busy_s": busy("residual.short_model") * per,
        "residual.long_model.busy_s": busy("residual.long_model") * per,
        "residual.long_model.trajectory_calls":
            len(under("residual.trajectory", "residual.long_model")) * per,
        "residual.fit.busy_s": busy("residual.fit") * per,
        "residual.analyze.self_s": self_time("residual.analyze") * per,
        "io.write_csv.calls": len(named("io.write_csv")) * per,
        "io.write_csv.rows": work("io.write_csv", 0) * per,
        "io.write_csv.bytes": csv_bytes * per,
        "io.write_csv.busy_s": busy("io.write_csv") * per,
        "io.bytes_per_s": ratio(csv_bytes, busy("io.write_csv")),
        "cli.command.busy_s": busy("cli.command") * per,
        "cli.self_s": self_time("cli.command") * per,
        "cli.sweep.parallelism": ratio(
            sum(dur(s) for s in under("residual.analyze", "cli.command", tag="sweep")),
            sum(dur(s) for s in sweeps)),
    }
    return {k: float(v) for k, v in m.items()}


def _unit(name: str) -> str:
    if name == "io.bytes_per_s":
        return "B/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s/op"
    if name.endswith((".share", ".parallelism")):
        return "ratio"
    if name.endswith(".bytes"):
        return "B/op"
    return "1/op"


UNITS = {name: _unit(name) for name in layer_metrics([], 1)}
