"""Every script in demos/ runs to completion against the package in src/,
and every public name of the package is read by the package or a demo."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "ballquot"
# the documented entry point for library users; nothing inside reads it
DOCUMENTED_API = {"verify_claim"}


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _names_read(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_reader():
    """A name exported from ballquot/__init__.py is read, as a name or an
    attribute, in some other module of the package or in some demo."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "QMatrix" in exported and "verify_claim" in exported
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    read = set().union(*map(_names_read, sources + DEMOS))
    assert sorted(exported - read - DOCUMENTED_API) == []
