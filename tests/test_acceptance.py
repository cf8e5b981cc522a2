"""Acceptance suite: one test per criterion, each run printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criteria 1-7 run the verify suites, as a user runs them, at the full
stated bounds.  Their rows live in tests/contract.py (`ACCEPTANCE`), one
`verify --suite` argv each with its exit code, stdout and stderr, so the
slow job and CI's installed script run them too.  Each criterion here is
parametrized by its rows, so a failure names the argv: every row must
exit 0 and print exactly `checked N <unit>, 0 mismatches`, with N counted
by tests/support.py, which shares no code with the library.  The
independent oracles of these identities each live in one named test:
the expansion in test_schur.py::test_expanded_degree_bound_small, all of
S_m in test_schur_equivariance_small_sweep, the expanded trace identity
in test_trace_identity_grid_agrees_with_expansion, and brute-force
dimensions in test_partitions.py::test_num_standard_tableaux_matches_enumeration.
"""

import json
import time

import pytest

from schurkit.cli import run as cli_run
from schurkit.schur import schur_element

import contract


def _report(number: int, name: str, failures: list, started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {status} {name} ({time.time() - started:.1f}s)")
    assert not failures, failures[:5]


def _criterion(number, name):
    """Criterion number's test: each of its rows in-process, as its own case, whose id is its
    flags (e.g. `sm-action-m4-n3`), with a PASS or FAIL line."""
    rows = contract.ACCEPTANCE[number]
    flags = [row.line.removeprefix("verify --suite ") for row in rows]

    @pytest.mark.parametrize("row, flags", zip(rows, flags),
                             ids=[f.replace(" --", "-").replace(" ", "") for f in flags])
    def test(row, flags):
        started, report = time.time(), contract.check_in_process(row, cli_run)
        _report(number, f"{name}: {flags}", [report] if report else [], started)

    return test


test_criterion_1_three_formula_agreement = _criterion(
    1, "three-formula agreement (m<=3 n<=5; m<=2 n<=6)")
test_criterion_2_kernel_lemmas = _criterion(
    2, "kernel lemmas X=Y, X=Z, beta shifts, swap symmetry (sizes <= 5)")
test_criterion_3_support_identities = _criterion(
    3, "telescoping identity (|mu|<=8) and hook/beta identity (|lam|<=8)")
test_criterion_4_integrality_and_degree = _criterion(
    4, "integrality and degree bound n(m-1) (criterion 1's grid and (4,3))")
test_criterion_5_symmetric_group_equivariance = _criterion(
    5, "S_m equivariance (criterion 1's grid and m=4 n<=3)")
test_criterion_6_trace_identity = _criterion(
    6, "trace identity sum f/s = [m=1] (m<=3 n<=5; (4,3), (2,7), (3,6))")
test_criterion_7_semisimplicity_criterion = _criterion(
    7, "criterion vs zero-form index, 100 samples per (m,n) and field (Q, F_101, F_7) plus"
       " targeted failure witnesses")


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
        if record["schur"] != schur_element(mp).to_json():
            failures.append(("round-trip", mp))

    code, out, _ = invoke("pinv", "--m", "3", "--n", "2", "--format", "json")
    from schurkit.schur import p_invariant

    if json.loads(out) != p_invariant(3, 2).to_json():
        failures.append(("round-trip", "pinv"))
    _report(8, "CLI determinism (byte-identical reruns) and JSON round-trip",
            failures, started)
