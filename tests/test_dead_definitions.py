"""Every module-level function, class and constant of the package is read,
and so is every method and property of its classes but the dunders.

A definition in `src/torusfill/` (other than `__init__.py`) is read when some
module of `src/`, `tests/` or `bench/` loads its name, accesses an attribute
of that name or imports it with `from`; a method or property is read by its
own name, whatever object it is read on.  The imports of
`src/torusfill/__init__.py` are the package's exports and read nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "torusfill" / "__init__.py"
DEFINING = sorted(p for p in INIT.parent.glob("*.py") if p != INIT)
READING = [p for top in ("src", "tests", "bench") for p in sorted((ROOT / top).rglob("*.py"))
           if p != INIT]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of each function, class and assigned name at module level,
    and (class.name, line) of each method and property of those classes that
    is not a dunder."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{m.name}", m.lineno) for m in node.body
                    if isinstance(m, FUNCTIONS)
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return out


def reads(source: str) -> set[str]:
    """Names that `source` loads, accesses as attributes or imports with `from`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_definitions(defining: dict[str, str], reading: list[str]) -> list[str]:
    """The module-level definitions of the `defining` sources (by module
    name) that none of the `reading` sources reads."""
    read = set().union(*map(reads, reading))
    return [f"{module} line {line}: {name}" for module, source in defining.items()
            for name, line in definitions(source) if name.rpartition(".")[2] not in read]


def test_every_module_level_definition_is_read():
    defining = {p.name: p.read_text() for p in DEFINING}
    assert dead_definitions(defining, [p.read_text() for p in READING]) == []


def test_dead_definition_is_found():
    module = ("X = 1\nY: int = 2\n\ndef f():\n    return X\n\nclass C:\n    pass\n\n"
              "def g():\n    pass\n\nclass D:\n    def __init__(self):\n        self.used()\n\n"
              "    def used(self):\n        pass\n\n    @property\n    def unused(self):\n"
              "        pass\n")
    user = "from m import f, D\nimport m\n\nprint(m.C)\n"
    assert dead_definitions({"m.py": module}, [module, user]) == ["m.py line 2: Y",
                                                                 "m.py line 10: g",
                                                                 "m.py line 21: D.unused"]
