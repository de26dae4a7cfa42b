"""Smoke test: every script in demos/ runs to completion without numerical
warnings.  The demos call the public API, and demo 05 also the standalone
series and asymptotic routines at the old seams."""

import runpy
import warnings
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from fracspec import AccuracyWarning

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = StringIO()
    with warnings.catch_warnings(), redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("error", AccuracyWarning)
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
