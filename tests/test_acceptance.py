"""Acceptance suite: one test per criterion, each run printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criteria 1-7 run the verify suites, as a user runs them, at the full
stated bounds.  Each is parametrized by its rows, one `verify --suite`
argv each, so a failure names the argv: every row must exit 0 and print
exactly `checked N <unit>, 0 mismatches`, with N counted by
tests/support.py, which shares no code with the library.  The
independent oracles of these identities each live in one named test:
the expansion in test_schur.py::test_expanded_degree_bound_small, all of
S_m in test_schur_equivariance_small_sweep, the expanded trace identity
in test_trace_identity_grid_agrees_with_expansion, and brute-force
dimensions in test_partitions.py::test_num_standard_tableaux_matches_enumeration.
"""

import contextlib
import io
import json
import time

import pytest

from schurkit.cli import run as cli_run
from schurkit.exact import FactoredRational
from schurkit.schur import schur_element
from support import multipartitions, partitions

# every (m, n) with m <= 3 and n <= 5, and (1, 6) and (2, 6)
GRID = [(m, n) for m in (1, 2, 3) for n in range(6)] + [(1, 6), (2, 6)]


def _report(number: int, name: str, failures: list, started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {status} {name} ({time.time() - started:.1f}s)")
    assert not failures, failures[:5]


def _sweep(suite, shapes):
    """A multipartition suite's rows: at each (m, n) it checks every m-multipartition of n."""
    return [
        (f"{suite} --m {m} --n {n}", f"{len(list(multipartitions(m, n)))} multipartitions")
        for m, n in shapes
    ]


def _pairs(suite, size):
    """A pair suite's row: it checks every ordered pair of partitions of size <= size."""
    count = sum(len(partitions(k)) for k in range(size + 1)) ** 2
    return [(f"{suite} --size {size}", f"{count} partition pairs")]


def _rows(rows):
    """Parametrize a criterion by its rows; each row's id is its flags, e.g. `sm-action-m4-n3`."""
    ids = [flags.replace(" --", "-").replace(" ", "") for flags, _ in rows]
    return pytest.mark.parametrize("flags, checked", rows, ids=ids)


def _run_suite(number, name, flags, checked):
    """`verify --suite` plus the row's flags: exit 0 and exactly `checked N ..., 0 mismatches`."""
    started = time.time()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_run(["verify", "--suite", *flags.split()])
    got = (code, out.getvalue(), err.getvalue())
    failures = [] if got == (0, f"checked {checked}, 0 mismatches\n", "") else [(flags, got)]
    _report(number, f"{name}: {flags}", failures, started)


@_rows(_sweep("three-formulas", GRID))
def test_criterion_1_three_formula_agreement(flags, checked):
    _run_suite(1, "three-formula agreement (m<=3 n<=5; m<=2 n<=6)", flags, checked)


@_rows(_pairs("beta-shift", 5) + _pairs("x-symmetry", 5))
def test_criterion_2_kernel_lemmas(flags, checked):
    _run_suite(2, "kernel lemmas X=Y, X=Z, beta shifts, swap symmetry (sizes <= 5)",
               flags, checked)


MU_CASES = sum(mu[0] for k in range(1, 9) for mu in partitions(k))
HOOK_CASES = 4 * sum(len(partitions(k)) for k in range(9))


@_rows([("mu-identity --size 8", f"{MU_CASES} identities"),
        ("hook-beta --size 8", f"{HOOK_CASES} identities")])
def test_criterion_3_support_identities(flags, checked):
    _run_suite(3, "telescoping identity (|mu|<=8) and hook/beta identity (|lam|<=8)",
               flags, checked)


@_rows(_sweep("integrality", GRID + [(4, 3)]))
def test_criterion_4_integrality_and_degree(flags, checked):
    _run_suite(4, "integrality and degree bound n(m-1) (criterion 1's grid and (4,3))",
               flags, checked)


@_rows(_sweep("sm-action", GRID + [(4, 1), (4, 2), (4, 3)]))
def test_criterion_5_symmetric_group_equivariance(flags, checked):
    _run_suite(5, "S_m equivariance (criterion 1's grid and m=4 n<=3)", flags, checked)


@_rows([(f"trace-identity --m {m} --n {n}", "1 identities")
        for m, n in [(m, n) for m in (1, 2, 3) for n in range(1, 6)] + [(4, 3), (2, 7), (3, 6)]])
def test_criterion_6_trace_identity(flags, checked):
    _run_suite(6, "trace identity sum f/s = [m=1] (m<=3 n<=5; (4,3), (2,7), (3,6))",
               flags, checked)


def _criterion_rows():
    rows = []
    for m in (1, 2, 3):
        for n in (1, 2, 3, 4):
            # Q and F_101 without --mod, F_7 with it; then the targeted failure witnesses
            witnesses = (n >= 2) + (m >= 2) + (m >= 2 and n >= 2)
            for mod, fields in (("", 2), (" --mod 7", 1)):
                rows.append((f"criterion --m {m} --n {n} --seed 20240817 --trials 100{mod}",
                             f"{100 * fields + witnesses} specializations"))
    return rows


@_rows(_criterion_rows())
def test_criterion_7_semisimplicity_criterion(flags, checked):
    _run_suite(7, "criterion vs zero-form index, 100 samples per (m,n) and field"
                  " (Q, F_101, F_7) plus targeted failure witnesses", flags, checked)


def test_criterion_8_cli_determinism_and_round_trip(capsys):
    started = time.time()
    failures = []

    def invoke(*argv):
        code = cli_run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    sweeps = [
        ("schur", "--m", "2", "--n", "3", "--format", "json"),
        ("schur", "--m", "3", "--n", "2", "--formula", "symbol", "--format", "json"),
        ("pinv", "--m", "3", "--n", "2", "--format", "json"),
        ("enumerate", "--m", "2", "--n", "4", "--format", "json"),
        ("verify", "--suite", "criterion", "--m", "2", "--n", "2",
         "--seed", "7", "--trials", "20"),
        ("semisimple", "--m", "2", "--n", "2", "--set", "q1=1", "--set", "q2=0"),
    ]
    for argv in sweeps:
        first = invoke(*argv)
        second = invoke(*argv)
        if first != second:
            failures.append(("determinism", argv))
        if first[0] != 0:
            failures.append(("exit", argv, first[0]))

    code, out, _ = invoke("schur", "--m", "2", "--n", "3", "--format", "json")
    for record in json.loads(out):
        mp = tuple(tuple(lam) for lam in record["multipartition"])
        parsed = FactoredRational.from_json(record["schur"])
        if parsed != schur_element(mp):
            failures.append(("round-trip", mp))

    code, out, _ = invoke("pinv", "--m", "3", "--n", "2", "--format", "json")
    from schurkit.schur import p_invariant

    if FactoredRational.from_json(json.loads(out)) != p_invariant(3, 2):
        failures.append(("round-trip", "pinv"))
    _report(8, "CLI determinism (byte-identical reruns) and JSON round-trip",
            failures, started)
