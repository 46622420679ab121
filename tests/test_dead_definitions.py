"""Every module-level function, class and constant of the package is read,
and so is every method and property of its classes but the dunders; and the
package holds no code that only its tests read.

A definition in `src/torusfill/` (other than `__init__.py`) is read when some
module of `src/`, `tests/` or `bench/` loads its name, accesses an attribute
of that name or imports it with `from`; a name in a docstring or a comment is
not a read.  A definition that `src/` and `bench/` never read but `tests/`
does belongs in the tests, unless `KEPT_FOR_TESTS` names it with its reason.
A method or property is read by its own bare name, whatever object it is
read on: `Shear.from_json` and `PLFunction.from_json` are read only by the
tests, yet they pass because `Region.from_json` is read.  A name that a
function, a lambda or a comprehension loads is not a read when symtable
finds it local or free there: the function's own argument, a name it
assigns, or one that an enclosing function binds.  The imports of
`src/torusfill/__init__.py` are the package's exports and read nothing.
"""

import ast
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "torusfill" / "__init__.py"
DEFINING = sorted(p for p in INIT.parent.glob("*.py") if p != INIT)
READING = [p for top in ("src", "tests", "bench") for p in sorted((ROOT / top).rglob("*.py"))
           if p != INIT]
TESTS = ROOT / "tests"

# public names that `src/` keeps although only `tests/` reads them, each with
# the reason it stays
KEPT_FOR_TESTS: dict[str, str] = {}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# the syntax nodes that open a symtable block, with the block's name (None:
# the node's own name)
BLOCKS = {ast.FunctionDef: None, ast.AsyncFunctionDef: None, ast.ClassDef: None,
          ast.Lambda: "lambda", ast.ListComp: "listcomp", ast.SetComp: "setcomp",
          ast.DictComp: "dictcomp", ast.GeneratorExp: "genexpr"}


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


def loads_global(name: str, tables: list) -> bool:
    """Whether a load of name, in the innermost of the nested symtable blocks
    `tables`, can read a module-level definition: the innermost block that
    knows the name decides (a default, a decorator, an annotation or the
    first iterable of a comprehension sits in the syntax of a block it is not
    evaluated in, and its block is an outer one), and in a function it must
    be neither local nor free."""
    for table in reversed(tables):
        try:
            symbol = table.lookup(name)
        except KeyError:
            continue
        return not (table.get_type() == "function" and (symbol.is_local() or symbol.is_free()))
    return True


def reads(source: str) -> set[str]:
    """Names that `source` loads (see `loads_global`), accesses as
    attributes or imports with `from`."""
    names = set()
    taken = set()  # ids of the symtable blocks already matched to a node

    def visit(node, tables):
        for child in ast.iter_child_nodes(node):
            inner = tables
            if type(child) in BLOCKS:
                # a block in a default or in the first iterable of a
                # comprehension is a child of an outer block
                key = (BLOCKS[type(child)] or child.name, child.lineno)
                depth, table = [(depth, t) for depth in range(len(tables), 0, -1)
                                for t in tables[depth - 1].get_children()
                                if t.get_id() not in taken
                                and (t.get_name(), t.get_lineno()) == key][0]
                taken.add(table.get_id())
                inner = tables[:depth] + [table]
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if loads_global(child.id, tables):
                    names.add(child.id)
            elif isinstance(child, ast.Attribute):
                names.add(child.attr)
            elif isinstance(child, ast.ImportFrom):
                names.update(alias.name for alias in child.names)
            visit(child, inner)

    visit(ast.parse(source), [symtable.symtable(source, "<source>", "exec")])
    return names


def dead_definitions(defining: dict[str, str], reading: list[str]) -> list[str]:
    """The module-level definitions of the `defining` sources (by module
    name) that none of the `reading` sources reads."""
    read = set().union(*map(reads, reading))
    return [f"{module} line {line}: {name}" for module, source in defining.items()
            for name, line in definitions(source) if name.rpartition(".")[2] not in read]


def read_only_by_tests(defining: dict[str, str], package: list[str],
                       tests: list[str]) -> list[str]:
    """The definitions of the `defining` sources that no `package` source
    reads but some `tests` source does."""
    dead = set(dead_definitions(defining, package + tests))
    return [d for d in dead_definitions(defining, package) if d not in dead]


def test_every_module_level_definition_is_read():
    defining = {p.name: p.read_text() for p in DEFINING}
    assert dead_definitions(defining, [p.read_text() for p in READING]) == []


def test_no_definition_is_read_only_by_the_tests():
    defining = {p.name: p.read_text() for p in DEFINING}
    package = [p.read_text() for p in READING if not p.is_relative_to(TESTS)]
    tests = [p.read_text() for p in READING if p.is_relative_to(TESTS)]
    found = read_only_by_tests(defining, package, tests)
    assert [d for d in found if d.rpartition(": ")[2] not in KEPT_FOR_TESTS] == []


def test_dead_definition_is_found():
    module = ("X = 1\nY: int = 2\n\ndef f():\n    return X\n\nclass C:\n    pass\n\n"
              "def g():\n    pass\n\nclass D:\n    def __init__(self):\n        self.used()\n\n"
              "    def used(self):\n        pass\n\n    @property\n    def unused(self):\n"
              "        pass\n\ndef h():\n    pass\n\ndef edges():\n    pass\n\ndef clip():\n"
              "    pass\n\ndef e(clip):\n    edges = [clip]\n"
              "    return [x for x in edges], lambda: edges\n")
    user = "from m import f, D, e\nimport m\n\nprint(m.C)\n"
    test = "from m import h\n\n\ndef test_h():\n    h()\n"
    assert dead_definitions({"m.py": module}, [module, user, test]) == [
        "m.py line 2: Y", "m.py line 10: g", "m.py line 21: D.unused", "m.py line 27: edges",
        "m.py line 30: clip"]
    assert read_only_by_tests({"m.py": module}, [module, user], [test]) == ["m.py line 24: h"]
