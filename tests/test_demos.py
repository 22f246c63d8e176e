"""Every script in demos/ runs to completion against the package in src/,
every public name of the package is read by the package or a demo, and
every optional parameter of the package is set by one of them."""

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
# optional parameters left for callers outside the package: the argument
# list of the command line, and the negative-control hook of the entry point
DOCUMENTED_OPTIONS = {("main", "argv"), ("verify_claim", "expected")}


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


def _defaulted_parameters(tree):
    """(function name, parameter name, position or None) of every parameter
    with a default; the position counts the arguments of a call, so a
    method's self or cls is not counted, and keyword-only ones have none."""
    methods = {id(f) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for f in node.body
               if isinstance(f, ast.FunctionDef) and not any(
                   isinstance(dec, ast.Name) and dec.id == "staticmethod"
                   for dec in f.decorator_list)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if id(node) in methods else 0
        first = len(positional) - len(args.defaults)
        for pos in range(first, len(positional)):
            yield node.name, positional[pos].arg, pos - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _calls_setting(tree):
    """(called name, parameter name or position) set by every call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        if not any(isinstance(a, ast.Starred) for a in node.args):
            for pos in range(len(node.args)):
                yield name, pos
        for kw in node.keywords:
            if kw.arg is not None:
                yield name, kw.arg


def test_every_optional_parameter_is_set_by_a_caller():
    """A parameter with a default, of a function or method of the package,
    is set by keyword or by position in some call in the package or in a
    demo; an option that no caller sets is dead code."""
    sources = sorted(PACKAGE.glob("*.py"))
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sources + DEMOS]
    set_by_calls = set().union(*(set(_calls_setting(t)) for t in trees))
    unset = sorted(
        f"{path.stem}.{func}({param})"
        for path, tree in zip(sources, trees)
        for func, param, pos in _defaulted_parameters(tree)
        if (func, param) not in set_by_calls and (func, pos) not in set_by_calls
        and (func, param) not in DOCUMENTED_OPTIONS)
    assert unset == []
