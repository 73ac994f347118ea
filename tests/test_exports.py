import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("affine", "bde", "checks", "conormal", "flow", "jets", "jsontext", "program",
           "singular", "surface")
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    # tooling looks up every exported name; a stale entry breaks it
    mod = importlib.import_module(f"affasym.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing


def _src_references():
    """Every name that code in src/ loads, reads as an attribute or imports;
    the strings of an ``__all__`` list do not count."""
    refs = set()
    for path in (ROOT / "src" / "affasym").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return refs


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_caller_or_is_documented(name):
    # an export that nothing in the package uses must be named in the README
    refs = _src_references()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    mod = importlib.import_module(f"affasym.{name}")
    orphans = [n for n in mod.__all__
               if n not in refs and not re.search(rf"\b{re.escape(n)}\b", readme)]
    assert not orphans


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "affasym").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found


def test_the_benchmark_tracer_installs():
    # bench/tracer.py wraps functions it looks up by name; a deleted or
    # renamed one would fail every traced benchmark run
    code = ("import sys; sys.path.insert(0, 'bench'); import tracer; "
            "tracer.install(tracer.Recorder())")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
