"""Each script under demos/ runs to completion against this source tree, every
function the benchmark tracer wraps exists in it, and no public name of the
library is loaded by the tests alone."""

import ast
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


def test_no_public_name_is_test_only():
    # every public function or class of the library, and every name the
    # package exports, is loaded by the library, a demo or the benchmark
    package = ROOT / "src" / "rmcodes"
    modules = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    public = set()
    for path in modules:
        public.update(node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"))
    for node in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            public.update(alias.asname or alias.name for alias in node.names)
    callers = modules + DEMOS + [path for path in sorted((ROOT / "benchmarks").glob("*.py"))
                                 if not path.name.startswith("test_")]
    loaded = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = sorted(public - loaded)
    assert not unused, f"public names that only the tests load: {unused}"
