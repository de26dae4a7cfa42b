"""The four workloads: seeded inputs, the timed operation and its checks.

A workload yields rounds.  Every round holds the same operations in the same
order (the same equations, orders and sizes); only the continuous parameters
are drawn afresh from ``random.Random("<workload>:<seed>:<round>")``.  The
``cli-sweep`` rounds repeat one seeded input set, so every round is a rerun
of the first.  Each operation calls fracspec through its module attributes
at call time (``fx`` holds fracspec's modules by name), so the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref
from references import Problem

ALPHAS = (0.5, 0.75, 0.9)
TERMS = 100

# crosscheck: uniform grid on [0, T_CROSS] with step H_CROSS.  The CLI's
# default h = 1e-3 (10,000 steps) takes about 5 s per solve, so a run would
# hold two; h = 5e-3 runs the same O(N^2) history sums over 2,000 steps.
T_CROSS = 10.0
H_CROSS = 5e-3
# README: max|X_num - X_spectral| < 1e-2 for the compare example
CROSS_CAP = 1e-2

# long-tail: two-phase grid to t = 1e3 with the fine step of the ROADMAP's
# baseline.  Its coarse step 0.1 (10,901 nodes) takes about 7 s per solve;
# h_coarse = 0.5 gives 2,981 nodes.  It is inside the scheme's stable range
# for every problem drawn below (riccati at alpha = 0.5 is not, and is left
# out).
TAIL = {"h_fine": 1e-2, "t_switch": 10.0, "h_coarse": 0.5, "t_max": 1e3}


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]   # returns failure messages


def _loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def to_spec(fx, p: Problem):
    if p.kind == "riccati":
        return fx.problems.riccati(p.alpha, p.x0)
    if p.kind == "logistic":
        return fx.problems.logistic(p.alpha, p.x0, p.lam)
    return fx.problems.cubic(p.alpha, p.x0, p.a, p.b)


def _label(p: Problem) -> str:
    if p.kind == "logistic":
        return f"logistic alpha={p.alpha} x0={p.x0:.6g} lam={p.lam:.4g}"
    if p.kind == "cubic":
        return f"cubic alpha={p.alpha} x0={p.x0:.6g} a={p.a:.4g} b={p.b:.4g}"
    return f"riccati alpha={p.alpha} x0={p.x0:.6g}"


def _excess(name, err, tol) -> list:
    """One failure message if any |err| exceeds its tolerance."""
    err, tol = np.abs(np.asarray(err, dtype=float)), np.asarray(tol, dtype=float)
    bad = ~(err <= tol)
    if not bad.any():
        return []
    i = int(np.argmax(np.where(bad, err / np.maximum(tol, 1e-300), 0.0)))
    return [f"{name}: |error| {err.flat[i]:.3g} > {np.broadcast_to(tol, err.shape).flat[i]:.3g}"]


def _size_bound(p: Problem) -> float:
    """Allowance on a residual from E_alpha errors, using 0 < E_alpha(-x) <= 1
    (complete monotonicity) in place of the mode values.  ML_REL_ERR per mode
    then also covers the asymptotic branch, whose absolute error stays below
    1e-9 beyond |z| = 50."""
    offset, coeffs, eigs = ref.expansion(p, TERMS)
    fprime = max(abs(p.rhs_prime(v)) for v in (p.x0, 0.0, 1.0))
    size = math.fsum(abs(c) * (fprime + abs(lam)) for c, lam in zip(coeffs, eigs))
    return (ref.ML_REL_ERR + ref.ROUND_REL_ERR) * size


def _delta_cap(p: Problem) -> float:
    """Bound on |Delta| from 0 < E_alpha(-x) <= 1 alone: |X| <= M with
    M = |offset| + sum|c_k|, so |Delta| <= max|f| on [-M, M] + sum|c_k lambda_k|.
    Catches values that are not finite or far out of range."""
    offset, coeffs, eigs = ref.expansion(p, TERMS)
    m = abs(offset) + math.fsum(abs(c) for c in coeffs)
    if p.kind == "riccati":
        f_max = 1.0 + m * m
    elif p.kind == "logistic":
        f_max = p.lam ** p.alpha * (m + m * m)
    else:
        f_max = p.a * m + p.b * m ** 3
    return f_max + math.fsum(abs(c * lam) for c, lam in zip(coeffs, eigs))


class Workload:
    name = ""

    def __init__(self, fx, seed: int, workdir: Path):
        self.fx = fx
        self.seed = seed
        self.workdir = workdir

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def round(self, r: int) -> list[Op]:
        return [Op(_label(p), self._runner(p), self._checker(p))
                for p in self._problems(self.rng(r))]


# ---------------------------------------------------------------------------
class ResidualStudy(Workload):
    """analyze() on a stream of distinct problems, K = 100, default grid."""

    name = "residual-study"

    def _problems(self, rng):
        def ric(a):
            return Problem("riccati", a, rng.uniform(0.25, 3.0))

        def log(a):
            return Problem("logistic", a, rng.uniform(0.6, 0.98),
                           lam=_loguniform(rng, 0.5, 2.0))

        def cub(a):
            rate = _loguniform(rng, 0.5, 2.0)
            return Problem("cubic", a, rng.uniform(0.3, 1.6), a=rate,
                           b=rate * rng.uniform(0.0, 1.5))

        return ([f(a) for a in ALPHAS for f in (ric, log, cub)]
                + [ric(1.0), log(1.0)])

    def __init__(self, fx, seed, workdir):
        super().__init__(fx, seed, workdir)
        # riccati's eigenvalues do not depend on x0: its mpmath spot checks
        # cycle through four seeded grid points, whose mode values are cached
        self.riccati_samples = random.Random(f"{self.name}:{seed}:samples").sample(range(400), 4)

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for p in self._problems(rng):
            # a grid index for the mpmath spot check; logistic is checked
            # through the rescaling identity instead
            sample = None
            if p.kind == "cubic" and p.alpha in (0.75, 0.9):
                sample = rng.randrange(400)
            elif p.kind == "riccati" and p.alpha in (0.75, 0.9):
                sample = self.riccati_samples[r % 4]
            ops.append(Op(_label(p), self._runner(p), self._checker(p, sample)))
        return ops

    def _runner(self, p):
        fx = self.fx
        spec = to_spec(fx, p)
        return lambda: fx.residual.analyze(spec, TERMS)

    def _checker(self, p: Problem, sample):
        fx = self.fx

        def check(report):
            grid = report.grid.times
            delta = report.grid.values
            fails = []
            if not np.array_equal(grid, np.geomspace(1e-4, 1e3, 400)):
                fails.append("grid is not the default 400-point log grid")
            fails += _excess("|delta| beyond |f(X)| + sum|c_k lambda_k|", delta, _delta_cap(p))
            if p.alpha == 1.0:
                fails += _excess("alpha=1 residual", delta, 1e-12)
                sol = fx.problems.build_spectrum(to_spec(fx, p), TERMS)
                x = fx.problems.eval_trajectory(sol, grid).values
                fails += _excess("alpha=1 closed form", x - ref.closed_form(p, grid), 1e-12)
                return fails
            if p.alpha == 0.5:
                want, tol = ref.residual_half(p, grid, TERMS)
                fails += _excess("erfcx residual", delta - want, tol)
            if sample is not None:
                want, tol = ref.residual_mp(p, float(grid[sample]), TERMS)
                fails += _excess(f"mpmath residual at t={grid[sample]:.4g}",
                                 delta[sample] - want, tol)
            if p.kind == "logistic":
                # on every tenth grid point, to keep the check cheap
                unit = Problem("logistic", p.alpha, p.x0, lam=1.0)
                base = fx.residual.residual_trajectory(
                    fx.problems.build_spectrum(to_spec(fx, unit), TERMS),
                    p.lam * grid[::10]).values
                tol = p.lam ** p.alpha * _size_bound(unit) + _size_bound(p)
                fails += _excess("rate rescaling", delta[::10] - p.lam ** p.alpha * base, tol)
            return fails

        return check


# ---------------------------------------------------------------------------
class CrossCheck(Workload):
    """compare-style uniform ABM solve on [0, 10], the spectral trajectory at
    its nodes and the difference."""

    name = "crosscheck"

    def _problems(self, rng):
        # x0 ranges where the expansion stays within the README's 1e-2 of the
        # solution; it deviates by more away from the fixed points
        out = []
        for a in ALPHAS:
            out.append(Problem("riccati", a, rng.uniform(0.65, 1.5)))
            out.append(Problem("logistic", a, rng.uniform(0.72, 0.98),
                               lam=_loguniform(rng, 0.5, 2.0)))
            rate = _loguniform(rng, 0.5, 2.0)
            out.append(Problem("cubic", a, rng.uniform(0.15, 0.45), a=rate,
                               b=rate * rng.uniform(0.5, 1.5)))
        out.append(Problem("cubic", 0.5, rng.uniform(0.5, 2.0), a=1.0, b=0.0))
        out.append(Problem("riccati", 1.0, rng.uniform(0.3, 1.5)))
        return out

    def _runner(self, p):
        fx = self.fx
        spec = to_spec(fx, p)
        cfg = fx.abm.IntegratorConfig(t_max=T_CROSS, h=H_CROSS)

        def run():
            num = fx.abm.abm_solve(spec, cfg)
            sp = fx.problems.eval_trajectory(fx.problems.build_spectrum(spec, TERMS), num.times)
            return num, sp, fx.abm.compare_solutions(num, sp)
        return run

    def _checker(self, p: Problem):
        def check(out):
            num, sp, diff = out
            t = num.times
            fails = []
            if len(t) != round(T_CROSS / H_CROSS) + 1:
                fails.append(f"{len(t)} nodes")
            fails += _excess("max|X_num - X_spectral|", diff.values, CROSS_CAP)
            if p.kind == "cubic" and p.b == 0.0:
                exact = ref.relaxation_half(p.x0, t)
                # the error is led by the first steps, where the solution
                # behaves like t^alpha, and scales like h^alpha there
                # (0.004-0.008 h^alpha x0 for h from 5e-3 to 4e-2)
                fails += _excess("relaxation vs erfcx", num.values - exact,
                                 0.05 * H_CROSS ** p.alpha * p.x0)
                fails += _excess("spectral relaxation vs erfcx", sp.values - exact,
                                 (ref.ML_REL_ERR + ref.ROUND_REL_ERR) * p.x0)
            if p.alpha == 1.0:
                exact = ref.closed_form(p, t)
                # trapezoidal predictor-corrector at alpha = 1: order 2
                fails += _excess("alpha=1 ABM vs closed form", num.values - exact,
                                 H_CROSS ** 2)
                fails += _excess("alpha=1 spectral vs closed form", sp.values - exact, 1e-12)
            return fails
        return check


# ---------------------------------------------------------------------------
class LongTail(Workload):
    """Two-phase ABM solve to t = 1e3, the spectral trajectory at its nodes
    and the difference."""

    name = "long-tail"

    def _problems(self, rng):
        return [Problem("cubic", 0.5, rng.uniform(0.5, 2.0), a=1.0, b=0.0),
                Problem("riccati", 0.75, rng.uniform(0.25, 3.0)),
                Problem("riccati", 0.9, rng.uniform(0.25, 3.0))]

    def _runner(self, p):
        fx = self.fx
        spec = to_spec(fx, p)

        def run():
            num = fx.abm.abm_solve_two_phase(spec, **TAIL)
            sp = fx.problems.eval_trajectory(fx.problems.build_spectrum(spec, TERMS), num.times)
            return num, sp, fx.abm.compare_solutions(num, sp)
        return run

    def _checker(self, p: Problem):
        def check(out):
            num, sp, diff = out
            t, x, d = num.times, num.values, np.abs(diff.values)
            fails = []
            if t[-1] != TAIL["t_max"]:
                fails.append(f"grid ends at {t[-1]}")
            if p.kind == "cubic":
                exact = ref.relaxation_half(p.x0, t)
                # coarse-phase local error O(h_coarse^(1+alpha)), relative
                tol = 0.01 * TAIL["h_coarse"] ** (1 + p.alpha) * exact[-1]
                fails += _excess("relaxation vs erfcx at t=1e3", x[-1] - exact[-1], tol)
                fails += _excess("spectral relaxation vs erfcx", sp.values - exact,
                                 (ref.ML_REL_ERR + ref.ROUND_REL_ERR) * p.x0)
                return fails
            peak = d[(t >= 0.1) & (t <= TAIL["t_switch"])].max()
            if not d[-1] < peak:
                fails.append(f"difference at t=1e3 {d[-1]:.3g} not below its peak {peak:.3g}")
            # solutions of a scalar autonomous Caputo equation are monotone:
            # X stays between x0 and the fixed point 1
            lo, hi = min(p.x0, 1.0), max(p.x0, 1.0)
            fails += _excess("X_num outside [x0, 1]",
                             np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0), CROSS_CAP)
            return fails
        return check


# ---------------------------------------------------------------------------
def _read_csv(path: Path):
    """(preamble, header, columns) of a fracspec CSV, parsed here."""
    lines = path.read_text().splitlines()
    preamble = lines[0][2:] if lines and lines[0].startswith("# ") else None
    body = lines[1:] if preamble is not None else lines
    header = body[0].split(",")
    cols = np.array([[float(v) for v in row.split(",")] for row in body[1:]]).T
    return preamble, header, cols


class CliSweep(Workload):
    """In-process fracspec.cli.main: the 27-combination logistic sweep with
    its rescaled overlay, plus solve and residual commands.  Every round runs
    the same commands into a fresh directory; its CSVs must match the first
    (warm-up) round byte for byte."""

    name = "cli-sweep"

    def __init__(self, fx, seed, workdir):
        super().__init__(fx, seed, workdir)
        rng = self.rng(0)
        self.sweep_x0 = self._distinct(rng, 0.6, 0.95)
        self.sweep_lam = self._distinct(rng, 0.5, 2.0, log=True)
        self.solves = [Problem("riccati", 0.5, round(rng.uniform(0.3, 2.0), 4)),
                       Problem("logistic", 0.75, round(rng.uniform(0.6, 0.95), 4),
                               lam=round(_loguniform(rng, 0.5, 2.0), 4)),
                       Problem("cubic", 0.9, round(rng.uniform(0.3, 1.5), 4), a=1.0, b=1.0),
                       Problem("riccati", 1.0, round(rng.uniform(0.3, 2.0), 4)),
                       Problem("logistic", 1.0, round(rng.uniform(0.6, 0.95), 4),
                               lam=round(_loguniform(rng, 0.5, 2.0), 4)),
                       Problem("cubic", 1.0, round(rng.uniform(0.3, 1.5), 4), a=1.0, b=1.0)]
        self.residuals = []
        for a in ALPHAS:
            for _ in range(2):
                self.residuals.append(Problem("riccati", a, round(rng.uniform(0.3, 2.0), 4)))
                self.residuals.append(Problem("logistic", a, round(rng.uniform(0.6, 0.95), 4),
                                              lam=round(_loguniform(rng, 0.5, 2.0), 4)))
        self.residuals.append(Problem("riccati", 1.0, round(rng.uniform(0.3, 2.0), 4)))
        self.first_hashes: dict[str, str] | None = None

    @staticmethod
    def _distinct(rng, lo, hi, log=False):
        vals: set[float] = set()
        while len(vals) < 3:
            v = _loguniform(rng, lo, hi) if log else rng.uniform(lo, hi)
            vals.add(round(v, 4))
        return sorted(vals)

    @staticmethod
    def _spec_args(p: Problem) -> list[str]:
        args = ["--equation", p.kind, "--alpha", repr(p.alpha), "--x0", repr(p.x0)]
        if p.kind == "logistic":
            args += ["--lambda", repr(p.lam)]
        if p.kind == "cubic":
            args += ["--a", repr(p.a), "--b", repr(p.b)]
        return args

    def round(self, r):
        out = self.workdir / "cli-round"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        ops = []
        for i, p in enumerate(self.solves):
            path = out / f"solve{i}.csv"
            ops.append(Op("cli solve " + _label(p),
                          self._main(["solve", *self._spec_args(p), "--out", str(path)]),
                          self._check_solve(p, path, r)))
        for i, p in enumerate(self.residuals):
            path = out / f"residual{i}.csv"
            ops.append(Op("cli residual " + _label(p),
                          self._main(["residual", *self._spec_args(p), "--out", str(path)]),
                          self._check_residual(p, path, r)))
        sweep_dir = out / "sweep"
        argv = ["sweep", "--equation", "logistic", "--alpha", ",".join(map(repr, ALPHAS)),
                "--x0", ",".join(map(repr, self.sweep_x0)),
                "--lambda", ",".join(map(repr, self.sweep_lam)), "--out-dir", str(sweep_dir)]
        # last in the round, so its check also compares the round's CSVs
        ops.append(Op("cli sweep", self._main(argv), self._check_sweep(sweep_dir, out)))
        return ops

    def _rerun_failures(self, out: Path) -> list:
        """Compare every CSV of this round with the first round's."""
        hashes = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.rglob("*.csv"))}
        if self.first_hashes is None:
            self.first_hashes = hashes
            return []
        changed = sorted(k for k in set(hashes) | set(self.first_hashes)
                         if hashes.get(k) != self.first_hashes.get(k))
        return [f"rerun changed {len(changed)} CSVs, e.g. {changed[0]}"] if changed else []

    def _main(self, argv):
        fx = self.fx

        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = fx.cli.main(argv)
            return code, stdout.getvalue(), stderr.getvalue()
        return run

    @staticmethod
    def _exit_ok(result) -> list:
        code, _, err = result
        return [] if code == 0 else [f"exit code {code}: {err.strip()[:200]}"]

    def _check_solve(self, p: Problem, path: Path, r: int):
        def check(result):
            fails = self._exit_ok(result)
            if fails:
                return fails
            _, header, cols = _read_csv(path)
            t = np.linspace(0.0, 10.0, 501)
            if not np.array_equal(cols[0], t):
                return ["solve: t column is not linspace(0, 10, 501)"]
            x = cols[1]
            if x[0] != p.x0:
                fails.append(f"solve: X(0) = {x[0]!r}, not x0")
            if p.alpha == 1.0:
                exact = ref.closed_form(p, t)
                fails += _excess("solve alpha=1 vs closed form", x - exact, 1e-12)
                if header[2:] != ["x_closed_form"]:
                    fails.append("solve: no closed-form column at alpha = 1")
                else:
                    fails += _excess("solve closed-form column", cols[2] - exact, 1e-12)
            elif p.alpha == 0.5:
                want, tol = ref.solution_half(p, t[1:], TERMS)
                fails += _excess("solve vs erfcx", x[1:] - want, tol)
            elif r == 0:
                i = 1 + (self.seed % 500)
                want, tol = ref.solution_mp(p, float(t[i]), TERMS)
                fails += _excess(f"solve vs mpmath at t={t[i]:.4g}", x[i] - want, tol)
            return fails
        return check

    def _check_residual(self, p: Problem, path: Path, r: int):
        def check(result):
            fails = self._exit_ok(result)
            if fails:
                return fails
            preamble, header, cols = _read_csv(path)
            if header != ["t", "delta", "short_asymptote", "long_asymptote"]:
                return [f"residual: header {header}"]
            keys = [kv.split("=")[0] for kv in (preamble or "").split()]
            if keys != ["fitted_short_exponent", "fitted_long_exponent",
                        "max_abs_delta", "t_at_max"]:
                fails.append(f"residual: preamble {preamble!r}")
            t, delta = cols[0], cols[1]
            if not np.array_equal(t, np.geomspace(1e-4, 1e3, 400)):
                return fails + ["residual: t column is not the default grid"]
            if p.alpha == 1.0:
                fails += _excess("residual alpha=1", delta, 1e-12)
            elif p.alpha == 0.5:
                want, tol = ref.residual_half(p, t, TERMS)
                fails += _excess("residual vs erfcx", delta - want, tol)
            elif r == 0:
                i = self.seed % 400
                want, tol = ref.residual_mp(p, float(t[i]), TERMS)
                fails += _excess(f"residual vs mpmath at t={t[i]:.4g}", delta[i] - want, tol)
            return fails
        return check

    def _check_sweep(self, sweep_dir: Path, out: Path):
        def check(result):
            fails = self._exit_ok(result) + self._rerun_failures(out)
            if fails:
                return fails
            expected = [f"logistic_{a:g}_{x0:g}_{lam:g}.csv"
                        for a in ALPHAS for x0 in self.sweep_x0 for lam in self.sweep_lam]
            overlays = [f"logistic_{a:g}_{x0:g}_rescaled_overlay.csv"
                        for a in ALPHAS for x0 in self.sweep_x0]
            lines = (sweep_dir / "sweep_index.txt").read_text().splitlines()
            if lines != [f"{name} ok" for name in expected + overlays]:
                fails.append(f"sweep index: {len(lines)} lines, not all ok/expected")
            for a in ALPHAS:
                for x0 in self.sweep_x0:
                    name = f"logistic_{a:g}_{x0:g}_rescaled_overlay.csv"
                    _, _, cols = _read_csv(sweep_dir / name)
                    # lam^-a Delta_lam(tau/lam) is the same curve for every rate
                    tol = max(lam ** -a * _size_bound(Problem("logistic", a, x0, lam=lam))
                              for lam in self.sweep_lam)
                    for col in cols[2:]:
                        fails += _excess(f"overlay {name}", col - cols[1], 2 * tol)
                    if a == 0.5:
                        for lam in self.sweep_lam:
                            p = Problem("logistic", a, x0, lam=lam)
                            _, _, c = _read_csv(sweep_dir / f"logistic_{a:g}_{x0:g}_{lam:g}.csv")
                            want, tol = ref.residual_half(p, c[0], TERMS)
                            fails += _excess(f"sweep {p.lam:g} vs erfcx", c[1] - want, tol)
            return fails
        return check


WORKLOADS = {w.name: w for w in (ResidualStudy, CrossCheck, LongTail, CliSweep)}
