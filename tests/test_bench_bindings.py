"""The benchmark traces fracspec by replacing module attributes by name
(``bench/tracing.py``) and calls it as ``fx.<module>.<name>``
(``bench/workloads.py``); every name it wraps or calls must stay bound, and
the grids its integrator workloads solve on must take the lattice tables."""

import ast
import importlib
import re
import types
from pathlib import Path

import numpy as np
import pytest

from fracspec import abm

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _load_tracing():
    # executed from its source so that nothing is written under bench/
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()
BINDINGS = sorted({(modname, attr) for _, modules, attr, _, _ in tracing.LAYERS
                   for modname in modules})
# the workloads' fx.<module>.<name>( calls, read from source like tracing.py
NAMES = sorted(set(BINDINGS) | set(re.findall(r"\bfx\.(\w+)\.(\w+)\(",
                                               (BENCH / "workloads.py").read_text())))
# modules by name, as the benchmark holds them (the package's own
# ``residual`` attribute is a function)
fx = types.SimpleNamespace(**{
    name: importlib.import_module(f"fracspec.{name}")
    for name in {modname for modname, _ in NAMES} | {"mittag_leffler"}})


@pytest.mark.parametrize("modname, attr", NAMES)
def test_layer_binding_resolves(modname, attr):
    assert callable(getattr(getattr(fx, modname), attr, None)), f"fracspec.{modname}.{attr}"


def test_install_round_trip():
    originals = {pair: getattr(getattr(fx, pair[0]), pair[1]) for pair in BINDINGS}
    tracer = tracing.Tracer()
    tracer.install(fx)
    try:
        assert fx.abm.exact_dot is not originals[("abm", "exact_dot")]
    finally:
        tracer.uninstall()
    for (modname, attr), fn in originals.items():
        assert getattr(getattr(fx, modname), attr) is fn


def _workload_constants(*names):
    """Module-level constants of bench/workloads.py, read from its syntax tree
    so that nothing under bench/ is imported."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    found = {target.id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)
             and target.id in names}
    return [found[name] for name in names]


def test_integrator_workloads_take_lattice_tables():
    # a grid that fell to the per-step weight rebuild would slow every
    # integrator op of crosscheck and long-tail several-fold
    t_cross, h_cross, tail = _workload_constants("T_CROSS", "H_CROSS", "TAIL")
    cfg = abm.IntegratorConfig(t_max=t_cross, h=h_cross)
    assert abm._lattice(cfg.h * np.arange(cfg.n_steps + 1)) is not None
    assert abm._lattice(abm.two_phase_grid(**tail)) is not None
