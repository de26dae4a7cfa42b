"""Command-line harness: evaluate solutions, residual studies, integrations
and comparisons as figure-ready CSV files.

Exit codes: 0 success, 1 usage or validation failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .abm import DivergenceError, IntegratorConfig, abm_solve, abm_solve_two_phase
from .io import format_float, write_csv, write_sidecar
# Unused here; bench/tracing.py wraps this name on this module as a traced layer.
from .mittag_leffler import ml_eval  # noqa: F401
from .problems import (EquationKind, ProblemSpec, build_spectrum,
                       closed_form_integer, eval_trajectory)
from .residual import FitError, analyze, residual_trajectory

__all__ = ["main"]


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for numerical
    # failures, so route usage problems through exit code 1 instead.
    def error(self, message):
        raise _Usage(message)


def _spec_args(p, list_valued=False):
    conv = str if list_valued else float
    p.add_argument("--equation", required=True,
                   choices=[k.value for k in EquationKind])
    p.add_argument("--alpha", type=conv, default=None)
    p.add_argument("--x0", type=conv, default=None)
    p.add_argument("--lambda", dest="lambda_", type=conv, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--terms", type=int, default=100)


def _grid_args(p):
    p.add_argument("--grid", choices=["linear", "log"], default="linear")
    p.add_argument("--points", type=int, default=501)
    p.add_argument("--t-min", type=float, default=1e-3)
    p.add_argument("--t-max", type=float, default=10.0)


def build_parser() -> _Parser:
    parser = _Parser(prog="fracspec")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{solve,residual,integrate,compare,sweep}")

    p = sub.add_parser("solve", help="sample the eigen-expansion solution")
    _spec_args(p)
    _grid_args(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("residual", help="residual study with asymptote models")
    _spec_args(p)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--t-min", type=float, default=1e-4)
    p.add_argument("--t-max", type=float, default=1e3)
    p.add_argument("--windows", default=None,
                   help="fit windows as SHORT_LO,SHORT_HI,LONG_LO,LONG_HI")
    p.add_argument("--out", default=None)

    p = sub.add_parser("integrate", help="predictor-corrector integration")
    _spec_args(p)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--corrector-iters", type=int, default=1)
    p.add_argument("--t-switch", type=float, default=None,
                   help="enable the two-phase grid: switch time to --h-coarse")
    p.add_argument("--h-coarse", type=float, default=0.1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("compare", help="numerical vs spectral difference")
    _spec_args(p)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--corrector-iters", type=int, default=1)
    p.add_argument("--t-switch", type=float, default=None)
    p.add_argument("--h-coarse", type=float, default=0.1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="residual studies over parameter lists")
    _spec_args(p, list_valued=True)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--t-min", type=float, default=1e-4)
    p.add_argument("--t-max", type=float, default=1e3)
    p.add_argument("--out-dir", default="sweep_out")

    return parser


# Values of the spec parameters left unset on the command line; parameters an
# equation does not use are passed through as given.
_DEFAULTS = {
    EquationKind.RICCATI: {"alpha": 0.75, "x0": 0.0},
    EquationKind.LOGISTIC: {"alpha": 0.75, "x0": 0.75, "lambda_": 1.0},
    EquationKind.CUBIC: {"alpha": 0.75, "x0": 1.0, "a": 1.0, "b": 1.0},
}


def _make_spec(equation: str, alpha, x0, lambda_, a, b) -> ProblemSpec:
    kind = EquationKind(equation)
    params = {"alpha": alpha, "x0": x0, "lambda_": lambda_, "a": a, "b": b}
    for name, default in _DEFAULTS[kind].items():
        params[name] = default if params[name] is None else float(params[name])
    return ProblemSpec(kind=kind, **params)


def _time_grid(args) -> np.ndarray:
    if args.grid == "linear":
        return np.linspace(0.0, args.t_max, args.points)
    return np.geomspace(args.t_min, args.t_max, args.points)


def _num(x) -> str:
    return f"{x:g}"


def cmd_solve(args) -> int:
    spec = _make_spec(args.equation, args.alpha, args.x0, args.lambda_, args.a, args.b)
    sol = build_spectrum(spec, args.terms)
    grid = _time_grid(args)
    traj = eval_trajectory(sol, grid)
    header = ["t", "x_spectral"]
    cols = [traj.times, traj.values]
    if spec.alpha == 1.0:
        header.append("x_closed_form")
        cols.append(closed_form_integer(spec, grid))
    out = args.out or f"{spec.kind.value}_solve.csv"
    write_csv(out, header, cols)
    print(f"wrote {out} ({len(traj)} rows)")
    return 0


def cmd_residual(args) -> int:
    spec = _make_spec(args.equation, args.alpha, args.x0, args.lambda_, args.a, args.b)
    grid = np.geomspace(args.t_min, args.t_max, args.points)
    windows = {}
    if args.windows:
        vals = [float(v) for v in args.windows.split(",")]
        if len(vals) != 4:
            raise _Usage("--windows expects four comma-separated numbers")
        windows = {"short_window": (vals[0], vals[1]),
                   "long_window": (vals[2], vals[3])}
    report = analyze(spec, args.terms, grid, **windows)
    out = args.out or f"{spec.kind.value}_residual.csv"
    report.to_csv(out)
    print(f"{spec.kind.value} alpha={_num(spec.alpha)} x0={_num(spec.x0)}: "
          + report.summary())
    return 0


def _integrate(args):
    spec = _make_spec(args.equation, args.alpha, args.x0, args.lambda_, args.a, args.b)
    if args.t_switch is not None:
        traj = abm_solve_two_phase(spec, h_fine=args.h, t_switch=args.t_switch,
                                   h_coarse=args.h_coarse, t_max=args.t_max,
                                   corrector_iters=args.corrector_iters)
    else:
        cfg = IntegratorConfig(t_max=args.t_max, h=args.h,
                               corrector_iters=args.corrector_iters)
        traj = abm_solve(spec, cfg)
    return spec, traj


def _sidecar_entries(spec: ProblemSpec, traj) -> dict:
    entries = {"kind": spec.kind.value, "alpha": spec.alpha, "x0": spec.x0}
    if spec.kind is EquationKind.LOGISTIC:
        entries["lambda"] = spec.lambda_
    if spec.kind is EquationKind.CUBIC:
        entries["a"] = spec.a
        entries["b"] = spec.b
    entries.update(traj.info or {})
    return entries


def cmd_integrate(args) -> int:
    spec, traj = _integrate(args)
    out = args.out or f"{spec.kind.value}_numerical.csv"
    write_csv(out, ["t", "x"], [traj.times, traj.values])
    write_sidecar(str(out) + ".meta", _sidecar_entries(spec, traj))
    print(f"wrote {out} ({len(traj)} rows)")
    return 0


def cmd_compare(args) -> int:
    spec, num = _integrate(args)
    sol = build_spectrum(spec, args.terms)
    sp = eval_trajectory(sol, num.times)
    delta = num.values - sp.values
    out = args.out or f"{spec.kind.value}_compare.csv"
    write_csv(out, ["t", "x_num", "x_spectral", "delta"],
              [num.times, num.values, sp.values, delta])
    print(f"max|delta| = {format_float(np.max(np.abs(delta)))}")
    return 0


def _parse_list(raw, default):
    if raw is None:
        return [default]
    vals = [float(v) for v in str(raw).split(",") if v != ""]
    if not vals:
        raise _Usage("empty parameter list")
    return vals


def cmd_sweep(args) -> int:
    kind = EquationKind(args.equation)
    defaults = _DEFAULTS[kind]
    alphas = _parse_list(args.alpha, defaults["alpha"])
    x0s = _parse_list(args.x0, defaults["x0"])
    lambdas = _parse_list(args.lambda_, defaults["lambda_"]) if "lambda_" in defaults else [None]

    combos = []
    for alpha in alphas:
        for x0 in x0s:
            for lam in lambdas:
                spec = _make_spec(kind.value, alpha, x0, lam, args.a, args.b)
                lam_tag = "na" if lam is None else _num(lam)
                name = f"{kind.value}_{_num(alpha)}_{_num(x0)}_{lam_tag}.csv"
                combos.append((spec, name))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = np.geomspace(args.t_min, args.t_max, args.points)

    done, failure = [], None
    for spec, name in combos:
        try:
            analyze(spec, args.terms, grid).to_csv(out_dir / name)
        except Exception as exc:          # indexed, then re-raised below
            failure = (name, exc)
            break
        done.append(name)

    index_lines = [f"{name} ok" for name in done]
    if failure is not None:
        index_lines.append(f"{failure[0]} FAILED {failure[1]}")
    overlay = None
    if failure is None and kind is EquationKind.LOGISTIC and len(lambdas) > 1:
        overlay = _rescaled_overlay(out_dir, alphas, x0s, lambdas, args)
        index_lines.extend(f"{name} ok" for name in overlay)
    (out_dir / "sweep_index.txt").write_text("\n".join(index_lines) + "\n")

    if failure is not None:
        print(f"sweep aborted at {failure[0]}: {failure[1]}", file=sys.stderr)
        raise failure[1]
    print(f"wrote {len(done) + len(overlay or [])} files to {out_dir}")
    return 0


def _rescaled_overlay(out_dir, alphas, x0s, lambdas, args) -> list[str]:
    # one overlay per (alpha, x0): columns tau then lam^-a Delta_lam(tau/lam),
    # which coincide for every rate when the rescaling identity holds
    names = []
    tau = np.geomspace(args.t_min, args.t_max, args.points)
    for alpha in alphas:
        for x0 in x0s:
            header = ["tau"]
            cols = [tau]
            for lam in lambdas:
                spec = _make_spec("logistic", alpha, x0, lam, None, None)
                sol = build_spectrum(spec, args.terms)
                delta = residual_trajectory(sol, tau / lam).values
                header.append(f"delta_rescaled_lambda={_num(lam)}")
                cols.append(delta * lam ** (-float(alpha)))
            name = f"logistic_{_num(alpha)}_{_num(x0)}_rescaled_overlay.csv"
            write_csv(out_dir / name, header, cols)
            names.append(name)
    return names


_COMMANDS = {
    "solve": cmd_solve,
    "residual": cmd_residual,
    "integrate": cmd_integrate,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, FitError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
