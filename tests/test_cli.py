import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracspec
from fracspec.cli import main
from fracspec.residual import FitError, analyze
from fracspec.io import format_float, write_csv


def run(*argv) -> int:
    return main(list(argv))


def read_csv(path):
    """(header, columns) of a fracspec CSV, '#' preamble lines skipped."""
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), [np.array(col) for col in zip(*rows)]


class TestCsvRoundTrip:
    def test_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        cols = [rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50),
                rng.standard_normal(50)]
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b"], cols, preamble="meta=1")
        header, back = read_csv(path)
        assert header == ["a", "b"]
        for orig, rt in zip(cols, back):
            assert np.array_equal(orig, rt)   # exact, not approx

    def test_format_is_17_digits(self):
        x = 0.1 + 0.2
        assert float(format_float(x)) == x


class TestSolve:
    def test_integer_order_has_closed_form_column(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run("solve", "--equation", "logistic", "--alpha", "1", "--x0",
                   "0.75", "--lambda", "1", "--points", "41", "--t-max", "5",
                   "--out", str(out))
        assert code == 0
        header, cols = read_csv(out)
        assert header == ["t", "x_spectral", "x_closed_form"]
        assert np.max(np.abs(cols[1] - cols[2])) < 1e-10

    def test_riccati_sigmoid(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run("solve", "--equation", "riccati", "--alpha", "0.75", "--x0",
                   "0", "--t-max", "10", "--points", "101", "--out", str(out))
        assert code == 0
        _, cols = read_csv(out)
        assert cols[1][-1] > 0.9           # saturates toward 1
        assert np.all(np.diff(cols[1]) > -1e-12)

    def test_cubic_decays(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run("solve", "--equation", "cubic", "--alpha", "0.75", "--a", "1",
                   "--b", "1", "--x0", "1", "--t-max", "10", "--points", "101",
                   "--out", str(out))
        assert code == 0
        _, cols = read_csv(out)
        assert np.all(np.diff(cols[1]) < 0)
        assert cols[1][-1] < 0.2

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["solve", "--equation", "riccati", "--alpha", "0.9", "--x0",
                "0.25", "--points", "31", "--t-max", "2"]
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestResidualCommand:
    def test_summary_and_file(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = run("residual", "--equation", "riccati", "--alpha", "0.9",
                   "--x0", "0.25", "--points", "200", "--out", str(out))
        assert code == 0
        captured = capsys.readouterr().out
        assert "max|delta|" in captured
        header, cols = read_csv(out)
        assert header == ["t", "delta", "short_asymptote", "long_asymptote"]
        assert np.max(np.abs(cols[1])) < 0.02
        first = out.read_text().splitlines()[0]
        assert first.startswith("# fitted_short_exponent=")

    def test_windows_flag(self, tmp_path):
        out = tmp_path / "res.csv"
        code = run("residual", "--equation", "logistic", "--alpha", "0.75",
                   "--x0", "0.75", "--lambda", "1", "--points", "250",
                   "--t-min", "1e-5", "--t-max", "1e4",
                   "--windows", "1e-5,1e-3,1e3,1e4", "--out", str(out))
        assert code == 0

    def test_bad_windows_is_usage_error(self, tmp_path):
        code = run("residual", "--equation", "riccati", "--windows", "1,2,3",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 1


class TestIntegrateCompare:
    def test_integrate_writes_sidecar(self, tmp_path):
        out = tmp_path / "n.csv"
        code = run("integrate", "--equation", "cubic", "--alpha", "0.75",
                   "--x0", "1", "--h", "0.01", "--t-max", "1", "--out", str(out))
        assert code == 0
        meta = (tmp_path / "n.csv.meta").read_text()
        assert "kind=cubic" in meta and "h=0.01" in meta and "created=" in meta
        header, cols = read_csv(out)
        assert header == ["t", "x"] and cols[0].size == 101

    def test_compare_columns_and_summary(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = run("compare", "--equation", "riccati", "--alpha", "0.75",
                   "--x0", "0.5", "--h", "0.01", "--t-max", "5", "--out", str(out))
        assert code == 0
        assert "max|delta|" in capsys.readouterr().out
        header, cols = read_csv(out)
        assert header == ["t", "x_num", "x_spectral", "delta"]
        assert np.allclose(cols[3], cols[1] - cols[2])
        assert np.max(np.abs(cols[3])) < 0.01

    def test_integer_order_compare_tight(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run("compare", "--equation", "logistic", "--alpha", "1",
                   "--x0", "0.75", "--lambda", "1", "--h", "0.005",
                   "--t-max", "5", "--out", str(out))
        assert code == 0
        _, cols = read_csv(out)
        assert np.max(np.abs(cols[3])) < 1e-4


class TestSweep:
    def test_logistic_rate_sweep_with_overlay(self, tmp_path):
        out = tmp_path / "sw"
        code = run("sweep", "--equation", "logistic", "--alpha", "0.75",
                   "--x0", "0.75", "--lambda", "0.5,1,2", "--points", "80",
                   "--out-dir", str(out))
        assert code == 0
        index = (out / "sweep_index.txt").read_text().splitlines()
        assert len(index) == 4
        names = {line.split()[0] for line in index}
        assert "logistic_0.75_0.75_0.5.csv" in names
        assert "logistic_0.75_0.75_rescaled_overlay.csv" in names
        header, cols = read_csv(out / "logistic_0.75_0.75_rescaled_overlay.csv")
        assert header[0] == "tau" and len(cols) == 4
        # collapse: every rescaled column coincides
        assert np.max(np.abs(cols[1] - cols[2])) < 1e-10
        assert np.max(np.abs(cols[1] - cols[3])) < 1e-10

    def test_riccati_alpha_sweep(self, tmp_path):
        out = tmp_path / "sw"
        code = run("sweep", "--equation", "riccati", "--alpha",
                   "0.5,0.75,0.9,1.0", "--x0", "0.25", "--points", "60",
                   "--out-dir", str(out))
        assert code == 0
        index = (out / "sweep_index.txt").read_text().splitlines()
        assert len(index) == 4
        assert all(line.endswith(" ok") for line in index)
        assert (out / "riccati_0.9_0.25_na.csv").exists()

    def test_failure_stops_the_sweep(self, tmp_path, monkeypatch):
        calls = []

        def failing_second(spec, terms, grid):
            calls.append(spec.x0)
            if len(calls) == 2:
                raise FitError("window too short")
            return analyze(spec, terms, grid)

        monkeypatch.setattr("fracspec.cli.analyze", failing_second)
        out = tmp_path / "sw"
        code = run("sweep", "--equation", "logistic", "--alpha", "0.75",
                   "--x0", "0.6,0.7,0.8,0.9", "--points", "60",
                   "--out-dir", str(out))
        assert code == 2
        assert (out / "sweep_index.txt").read_text().splitlines() == [
            "logistic_0.75_0.6_1.csv ok",
            "logistic_0.75_0.7_1.csv FAILED window too short"]
        assert calls == [0.6, 0.7]
        assert sorted(p.name for p in out.iterdir()) == [
            "logistic_0.75_0.6_1.csv", "sweep_index.txt"]

    def test_empty_list_is_usage_error(self, tmp_path):
        code = run("sweep", "--equation", "logistic", "--lambda", ",",
                   "--out-dir", str(tmp_path / "sw"))
        assert code == 1


class TestValidationAndExitCodes:
    def test_lambda_on_riccati_rejected(self):
        assert run("solve", "--equation", "riccati", "--lambda", "2") == 1

    def test_ab_on_logistic_rejected(self):
        assert run("solve", "--equation", "logistic", "--a", "1") == 1

    def test_divergent_logistic_x0(self):
        assert run("solve", "--equation", "logistic", "--x0", "0.4") == 1

    def test_unknown_flag(self):
        assert run("solve", "--equation", "riccati", "--frobnicate", "1") == 1
        # the corrector makes one pass and has no setting
        assert run("integrate", "--equation", "riccati", "--corrector-iters", "2") == 1

    def test_infinite_rate_rejected(self):
        assert run("solve", "--equation", "logistic", "--lambda", "inf") == 1

    @pytest.mark.parametrize("argv", [
        # round((10 - 5)/100) = 0 coarse steps: the output would stop at t = 5
        ("integrate", "--t-max", "10", "--t-switch", "5", "--h-coarse", "100"),
        ("integrate", "--t-max", "10", "--t-switch", "5", "--h-coarse", "inf"),
        ("integrate", "--t-max", "inf"),
        ("compare", "--t-max", "inf"),
    ])
    def test_degenerate_integrator_inputs(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert run(*argv, "--equation", "riccati", "--out", str(out)) == 1
        assert not out.exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        code = run("integrate", "--equation", "cubic", "--alpha", "0.9",
                   "--x0", "1", "--b", "1e9", "--h", "0.1", "--t-max", "2",
                   "--out", str(tmp_path / "d.csv"))
        assert code == 2


def test_runtime_needs_numpy_only():
    # a fresh interpreter: the test process itself has scipy loaded
    src = str(Path(fracspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, fracspec.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
