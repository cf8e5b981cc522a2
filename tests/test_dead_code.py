"""Every function and class that src/schurkit defines is used somewhere.

A use is an ast.Name, the attribute of an ast.Attribute, or a string
constant that is an identifier (a name looked up with getattr).  Uses
count in src/schurkit (but not __init__.py, which only re-exports) and
in the README's doctest examples.  A use in tests/ keeps a function
nested in a function alive, but a module-level function or class, or a
function defined in a class body, only when schurkit.__all__ exports its
name, or when tests/test_tracing.py requires the benchmark's tracer to
patch it: a helper or method that only its own tests call is dead.  A
name that only the tracer patches is dead too.  Dunders are called by
the interpreter and are exempt.

Every module-level import of a library module is named in that module
too; __init__.py, which only re-exports, and __future__ are exempt.

No library module has an assert statement: python -O strips it, so a
check that must hold raises instead.

tests/support.py, the home of the test oracles, imports nothing from
schurkit, and it alone imports subprocess.
"""

import ast

import schurkit
from support import ROOT
from test_tracing import KEPT_FOR_THE_TRACER

LIBRARY = sorted((ROOT / "src" / "schurkit").glob("*.py"))


def names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


# The names that tests/test_tracing.py requires the tracer to keep patchable.
TRACED = {attr for _, attr in KEPT_FOR_THE_TRACER}


def uses(paths):
    return {name for path in paths for name in names_used(ast.parse(path.read_text()))}


def test_every_definition_is_used():
    lines = (ROOT / "README.md").read_text().splitlines()
    examples = [line.strip()[4:] for line in lines if line.strip()[:4] in (">>> ", "... ")]
    used = uses(path for path in LIBRARY if path.name != "__init__.py")
    used.update(names_used(ast.parse("\n".join(examples))))
    used_by_tests = uses(sorted((ROOT / "tests").glob("*.py")))
    outer, inner = set(), set()  # defined in a module or class body, or in a function
    for path in LIBRARY:
        tree = ast.parse(path.read_text())
        body = set(tree.body)
        body.update(*(node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                (outer if node in body else inner).add(node.name)
    kept = used | (used_by_tests & (set(schurkit.__all__) | TRACED))
    dead = sorted((outer - kept) | (inner - used - used_by_tests))
    assert [name for name in dead if not name.startswith("__")] == []


def test_every_import_is_used():
    unused = []
    for path in LIBRARY:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = set(names_used(tree))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_no_assert_statement():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in LIBRARY
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def modules_imported(path):
    """The top-level names of the modules that the file at path imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." if node.level else node.module.split(".")[0])
    return found


def test_support_imports_no_library_and_alone_starts_children():
    assert modules_imported(ROOT / "tests" / "support.py").isdisjoint({"schurkit", "."})
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert [path.name for path in tests if "subprocess" in modules_imported(path)] == ["support.py"]
