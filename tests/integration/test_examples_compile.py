"""Smoke checks for the example scripts.

Running every example end-to-end would add minutes to the test suite, so
here we verify each one compiles and references only the public API that
actually exists (imports resolve).  The examples themselves are exercised
manually / in the benchmark pipeline.  The benchmark scripts
(``benchmarks/``, ``perfbench/``) run outside the test suite too, so
their ``repro`` imports are checked the same way.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES_DIR = ROOT / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
BENCH_SCRIPTS = sorted(ROOT.glob("benchmarks/*.py")) + sorted(
    ROOT.glob("perfbench/*.py")
)


def _script_id(path):
    """Examples keep their bare file name; benchmark scripts are
    prefixed with their directory."""
    if path.parent == EXAMPLES_DIR:
        return path.name
    return f"{path.parent.name}/{path.name}"


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3  # deliverable (b): quickstart + >= 2 domain


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    source = path.read_text()
    compile(source, str(path), "exec")


@pytest.mark.parametrize("path", EXAMPLES + BENCH_SCRIPTS, ids=_script_id)
def test_example_imports_resolve(path):
    """Every `from repro...` import in the script must resolve."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "repro" or node.module.startswith("repro.")
        ):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(mod, alias.name), (
                    f"{path.name}: {node.module}.{alias.name} does not exist"
                )


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_has_docstring(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path.name} lacks a module docstring"
