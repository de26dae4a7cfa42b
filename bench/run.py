"""fracspec benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run measures whole rounds of the workload's operations until
``S`` seconds of operation time have passed, checks every output, and prints
one JSON object as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Details, figures and the layer map are in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# setup probes per untraced run, spread evenly over the operation time
SETUP_REPEATS = 9
LAYER_MODULES = ("abm", "cli", "io", "mittag_leffler", "problems", "residual")
# workloads.WORKLOADS, named here so that parsing imports nothing the setup
# probe should time
WORKLOAD_NAMES = ("residual-study", "crosscheck", "long-tail", "cli-sweep")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time import plus the first operation, once")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_fracspec():
    """The package's modules by name.  The package itself exports a function
    called ``residual``, so modules are taken from the import system."""
    import importlib
    import types
    fx = importlib.import_module("fracspec")
    if not Path(fx.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: fracspec imported from {fx.__file__}, not {SRC}")
    return types.SimpleNamespace(**{name: importlib.import_module(f"fracspec.{name}")
                                    for name in LAYER_MODULES})


def _workdir():
    """Scratch directory inside the checkout for the CLI's output files."""
    RESULTS.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="work-", dir=RESULTS)


def _probe(args) -> int:
    """Child process: import fracspec, then run the workload's first
    operation; print both times."""
    t0 = time.perf_counter()
    fx = _import_fracspec()
    t_import = time.perf_counter() - t0
    from workloads import WORKLOADS
    with _workdir() as wd:
        op = WORKLOADS[args.workload](fx, args.seed, Path(wd)).round(0)[0]
        t1 = time.perf_counter()
        op.run()
        t_first = time.perf_counter() - t1
    print(json.dumps({"import_s": t_import, "first_call_s": t_first}))
    return 0


def _setup_time(args) -> float:
    """Import plus first call in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["import_s"] + probe["first_call_s"]


class _Loop:
    """Runs a workload's operations round after round and keeps latencies
    and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.next_round = 0
        self.pending: list = []
        self.failures: list[str] = []

    def warm_up(self) -> None:
        for op in self.workload.round(-1):
            op.check(op.run())

    def run(self, done, tracer=None, mid_round=False):
        """Operations until ``done(busy_s)`` holds at the end of a round, or
        after any operation with ``mid_round`` (the next call resumes the
        round); returns the latencies and the failed count."""
        latencies, failed = [], 0
        while True:
            if not self.pending:
                self.pending = self.workload.round(self.next_round)
                self.next_round += 1
            op = self.pending.pop(0)
            msgs, dt = self._one(op, tracer)
            latencies.append(dt)
            if msgs:
                failed += 1
                self.failures.append(f"round {self.next_round - 1} {op.label}: "
                                     + "; ".join(msgs))
            if done(sum(latencies)) and (mid_round or not self.pending):
                return latencies, failed

    @staticmethod
    def _one(op, tracer):
        out = None
        try:
            if tracer is not None:
                tracer.active = True
                t0 = time.perf_counter()
                out = tracer.call("op", op.run, tag=op.label)
            else:
                t0 = time.perf_counter()
                out = op.run()
            dt = time.perf_counter() - t0
        except Exception as exc:            # a failed operation, not a harness fault
            return [f"raised {type(exc).__name__}: {exc}"], time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.active = False
        try:
            return op.check(out), dt
        except Exception as exc:
            return [f"check raised {type(exc).__name__}: {exc}"], dt


def _percentile(values, q) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values), q))


def _machine() -> dict:
    import mpmath
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    if not (SRC / "fracspec" / "__init__.py").is_file():
        print(f"error: no fracspec package at {SRC / 'fracspec'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = _parse(argv)
    if args.setup_probe:
        return _probe(args)
    # the CLI sweep runs its default pool, min(4, cores) threads
    os.environ.pop("FRACSPEC_SWEEP_WORKERS", None)

    wall0 = time.perf_counter()
    fx = _import_fracspec()
    from workloads import WORKLOADS
    if set(WORKLOADS) != set(WORKLOAD_NAMES):
        raise SystemExit("error: WORKLOAD_NAMES does not match workloads.WORKLOADS")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": _machine()}
    with _workdir() as wd:
        workload = WORKLOADS[args.workload](fx, args.seed, Path(wd))
        loop = _Loop(workload)
        loop.warm_up()
        wall_warm = time.perf_counter()
        if args.trace:
            import tracing
            # untraced and traced rounds alternate, so that drifts in machine
            # speed fall on both sides of the overhead estimate
            tracer = tracing.Tracer()
            plain, traced, failed = [], [], 0
            while sum(plain) + sum(traced) < args.seconds:
                lat, f = loop.run(lambda busy: True)
                plain, failed = plain + lat, failed + f
                tracer.install(fx)
                try:
                    lat, f = loop.run(lambda busy: True, tracer)
                finally:
                    tracer.uninstall()
                traced, failed = traced + lat, failed + f
            latencies = plain + traced
            untraced_rate = len(plain) / sum(plain)
            traced_rate = len(traced) / sum(traced)
            metrics = {k: {"value": v, "unit": tracing.UNITS[k]}
                       for k, v in tracing.layer_metrics(tracer.spans, len(traced)).items()}
            metrics["trace.ops_per_s_untraced"] = {"value": untraced_rate, "unit": "1/s"}
            metrics["trace.ops_per_s_traced"] = {"value": traced_rate, "unit": "1/s"}
            metrics["trace.overhead_pct"] = {
                "value": 100.0 * (untraced_rate / traced_rate - 1.0), "unit": "%"}
            tracer.dump(RESULTS / f"{args.workload}-seed{args.seed}-spans.json.gz")
        else:
            # a setup probe, then an equal share of the operation time, so
            # that the probes sample the machine across the whole run; the
            # run ends with its last round whole
            latencies, failed, setup = [], 0, []
            for i in range(1, SETUP_REPEATS + 1):
                setup.append(_setup_time(args))
                target = args.seconds * i / SETUP_REPEATS - sum(latencies)
                lat, f = loop.run(lambda busy: busy >= target,
                                  mid_round=i < SETUP_REPEATS)
                latencies, failed = latencies + lat, failed + f
            ms = [1e3 * v for v in latencies]
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
                "op_p50_ms": {"value": _percentile(ms, 50), "unit": "ms"},
                "op_p90_ms": {"value": _percentile(ms, 90), "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }
            record["setup_samples_s"] = setup

    wall_end = time.perf_counter()
    record["wall_s"] = {"import_and_warm_up": wall_warm - wall0,
                        "measure_check_and_probes": wall_end - wall_warm,
                        "operations": sum(latencies)}
    result = {"correct": failed == 0, "attempted": len(latencies), "failed": failed,
              "metrics": metrics}
    record.update(result=result, latencies_s=latencies, failures=loop.failures[:50])
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for msg in loop.failures[:10]:
        print("FAILED", msg, file=sys.stderr)
    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} ops={len(latencies)} failed={failed} "
          f"cores={m['cores']} python={m['python']} numpy={m['numpy']} scipy={m['scipy']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
