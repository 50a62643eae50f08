"""What the circflow package imports: the standard library and itself only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import circflow

PACKAGE = Path(circflow.__file__).resolve().parent


def imported_modules(path):
    """The top-level name of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library_and_itself():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    foreign = {(path.name, name) for path in sources for name in imported_modules(path)
               if name != "circflow" and name not in sys.stdlib_module_names}
    assert foreign == set()


def test_the_rule_flags_test_and_benchmark_modules(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import numpy\nfrom _oracles import x\nfrom . import flows\n"
                      "from reference import y\nimport workloads, tracing\nimport fractions\n")
    assert sorted(set(imported_modules(source)) - set(sys.stdlib_module_names)) == [
        "_oracles", "numpy", "reference", "tracing", "workloads"]


def test_importing_the_cli_leaves_traceback_unloaded():
    """And importing ``circflow.certificates`` leaves ``dataclasses`` unloaded."""
    for module, absent in (("circflow.cli", "traceback"), ("circflow.certificates", "dataclasses")):
        probe = f"import sys, {module}; print({absent!r} in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
        assert done.stdout == "False\n", module
