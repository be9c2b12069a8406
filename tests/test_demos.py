"""Each script under demos/ runs to completion against this source tree, and
every function the benchmark tracer wraps exists in it."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_traced_names_resolve():
    # benchmarks/tracing.py imports only the stdlib; its install() calls
    # getattr on each traced name, so a deleted one would crash every traced run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.TRACED.items():
        home = importlib.import_module(f"rmcodes.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"rmcodes.{module}.{name}"
