"""Static guard for the exactness contract: no float on the verification path.

Every module of the package is parsed with `ast` and must hold no float
constant, no call to `float`, no `import math` and no `from math import` of
anything but the exact integer functions.
"""

import ast
from pathlib import Path

import pytest

import torusfill

EXACT_MATH = {"gcd", "lcm", "isqrt", "factorial"}
SOURCES = sorted(Path(torusfill.__file__).parent.glob("*.py"))


def float_violations(source: str) -> list[str]:
    """One line per construct of `source` that could put a float on a path."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append(f"line {node.lineno}: float constant {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: float() call in {scope or 'module'}")
        elif isinstance(node, ast.Import):
            found.extend(f"line {node.lineno}: import math"
                         for alias in node.names if alias.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"line {node.lineno}: from math import {alias.name}"
                         for alias in node.names if alias.name not in EXACT_MATH)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_every_package_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"surd.py", "latforms.py", "geom.py", "torus.py",
                                         "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_module_has_no_float_path(path):
    assert float_violations(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    "x = 0.5",
    "def f(a):\n    return a * 1e-9",
    "def f(a):\n    return float(a)",
    "class SurdScalar:\n    def approx(self):\n        return float(self)",
    "class SurdScalar:\n    def __float__(self):\n        return float(self.approx(20))",
    "import math",
    "import math as m",
    "import os, math",
    "from math import sqrt",
    "from math import gcd, log",
    "from math import *",
])
def test_guard_flags_inexact_constructs(snippet):
    assert float_violations(snippet)


@pytest.mark.parametrize("snippet", [
    "from math import gcd, lcm, isqrt, factorial",
    "from fractions import Fraction\nx = Fraction(1, 2)",
])
def test_guard_passes_exact_constructs(snippet):
    assert float_violations(snippet) == []
