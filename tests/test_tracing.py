"""The benchmark's layer tracer still patches every name it wraps, and undoes it.

bench/ is outside the tier-1 test paths, so this is what makes a library
change that breaks `bench/run.py --trace 1` fail the ordinary test run.
"""

import importlib.util
import inspect
from pathlib import Path

import schurkit
import schurkit.cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = ("partitions", "exact", "schur", "semisimple", "cli")

# (owner, attribute) pairs that the tracer must patch, though no library code may call some
# of them: tests/test_dead_code.py keeps each attribute defined while this names it.
KEPT_FOR_THE_TRACER = {
    ("exact", "fr_expand"), ("schur", "fr_expand"), ("cli", "fr_expand"),
    ("schur", "trace_identity_sides"), ("cli", "trace_identity_sides"),
    ("SparsePoly", "__mul__"), ("SparsePoly", "div_form_exact"),
    ("SparsePoly", "render"), ("SparsePoly", "to_json"),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("schurkit_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def owners():
    """Every schurkit module and every class defined in one."""
    found = []
    for name in MODULES:
        module = getattr(schurkit, name)
        found.append(module)
        found.extend(
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__
        )
    return found


def snapshot():
    return [(owner, dict(vars(owner))) for owner in owners()]


def changed(before):
    return [
        (owner.__name__.rpartition(".")[2], attr)
        for owner, attrs in before
        for attr in set(attrs) | set(vars(owner))
        if vars(owner).get(attr) is not attrs.get(attr)
    ]


def test_tracer_patches_and_restores_every_attribute(capsys):
    before = snapshot()
    tracer = load_tracer()()
    tracer.patch(schurkit)
    try:
        patched = changed(before)
        code = tracer.run(["verify", "--suite", "integrality", "--m", "2", "--n", "2"])
    finally:
        tracer.unpatch()
    assert code == 0
    assert capsys.readouterr().out == "checked 5 multipartitions, 0 mismatches\n"
    assert KEPT_FOR_THE_TRACER <= set(patched)
    assert changed(before) == []
