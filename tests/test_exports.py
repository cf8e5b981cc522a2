"""schurkit.__all__ is the package's contract: README names it, and the benchmark reads only it.

README's library section lists the exported names once; a name leaves or joins the
contract only with that list.  bench/ is outside the tier-1 test paths, so this is what
makes a trim of the exports that breaks `bench/run.py --baselines` or the harness tests
fail the ordinary test run.
"""

import ast
import re

import schurkit
from support import ROOT

README = (ROOT / "README.md").read_text()


def readme_contract():
    """The names in backticks in the list that follows README's "binds exactly these names"."""
    lines = README.split("binds exactly these names", 1)[1].split("\n\n", 2)[1]
    return re.findall(r"`(\w+)`", lines)


def test_readme_names_exactly_the_exports():
    names = readme_contract()
    assert len(names) == len(set(names)) and set(names) == set(schurkit.__all__)
    bound = {}
    exec("from schurkit import *", bound)
    assert set(bound) - {"__builtins__"} == set(schurkit.__all__)
    examples = [line.strip()[4:] for line in README.splitlines() if line.strip()[:4] == ">>> "]
    imported = {
        alias.name
        for node in ast.walk(ast.parse("\n".join(examples)))
        if isinstance(node, ast.ImportFrom) and node.module == "schurkit"
        for alias in node.names
    }
    assert imported and imported <= set(schurkit.__all__)


def test_the_benchmark_reads_only_exports_and_submodules():
    """Every pkg.<name> in bench/*.py, pkg being the imported schurkit package."""
    read = {
        node.attr
        for path in sorted((ROOT / "bench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "pkg"
    }
    submodules = {path.stem for path in (ROOT / "src" / "schurkit").glob("*.py")}
    assert {"schur_element", "enumerate_multipartitions", "is_semisimple", "cli"} <= read
    assert sorted(read - set(schurkit.__all__) - submodules) == []
