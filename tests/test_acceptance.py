"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact; the sweeps run at the full stated bounds.
"""

import itertools
import json
import random
import time

from schurkit.cli import run as cli_run
from schurkit.exact import (
    FactoredRational,
    SparsePoly,
    apply_permutation,
    fr_expand,
)
from schurkit.partitions import (
    enumerate_multipartitions,
    mp_length,
    num_standard_tableaux,
    partitions_of,
    permute_components,
)
from schurkit.schur import (
    schur_element,
    trace_identity_sides,
    verify_hook_beta_identity,
    verify_mu_identity,
    x_kernel,
    y_kernel,
    z_kernel,
)
from schurkit.semisimple import (
    ZeroFormIndex,
    cross_check_criterion,
    separation_failure_cases,
    random_specialization,
    schur_elements_table,
)
from support import standard_fillings_count


def _report(number: int, name: str, failures: list, started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {status} {name} ({time.time() - started:.1f}s)")
    assert not failures, failures[:5]


def _level_size_grid():
    grid = [(m, n) for m in (1, 2, 3) for n in range(0, 6)]
    grid += [(m, 6) for m in (1, 2)]
    return grid


def test_criterion_1_three_formula_agreement():
    started = time.time()
    failures = []
    for m, n in _level_size_grid():
        for mp in enumerate_multipartitions(m, n):
            base = schur_element(mp, "cancellation")
            if schur_element(mp, "product") != base:
                failures.append((mp, "product"))
            ell = mp_length(mp)
            for L in (ell, ell + 1, ell + 2):
                if schur_element(mp, "symbol", L) != base:
                    failures.append((mp, f"symbol:L={L}"))
    _report(1, "three-formula agreement (m<=3 n<=5; m<=2 n<=6)", failures, started)


def test_criterion_2_kernel_lemmas():
    started = time.time()
    failures = []
    parts = [lam for k in range(6) for lam in partitions_of(k)]
    for lam in parts:
        for mu in parts:
            x = x_kernel(lam, mu)
            if x != z_kernel(lam, mu):
                failures.append((lam, mu, "x=z"))
            base = max(len(lam), len(mu))
            for L in (base, base + 1, base + 2):
                if x != y_kernel(lam, mu, L):
                    failures.append((lam, mu, f"x=y:L={L}"))
            if x != apply_permutation((2, 1), x_kernel(mu, lam)):  # X_{lam mu}(x) == X_{mu lam}(-x)
                failures.append((lam, mu, "swap-negate"))
    _report(2, "kernel lemmas X=Y, X=Z, swap symmetry (sizes <= 5)", failures, started)


def test_criterion_3_support_identities():
    started = time.time()
    failures = []
    for k in range(1, 9):
        for mu in partitions_of(k):
            for ell in range(1, mu[0] + 1):
                if not verify_mu_identity(mu, ell):
                    failures.append(("mu-identity", mu, ell))
    for k in range(0, 9):
        for lam in partitions_of(k):
            for extra in range(4):
                if not verify_hook_beta_identity(lam, len(lam) + extra):
                    failures.append(("hook-beta", lam, extra))
    _report(3, "telescoping identity (|mu|<=8) and hook/beta identity (|lam|<=8)",
            failures, started)


def test_criterion_4_integrality_and_degree():
    started = time.time()
    failures = []
    for m, n in _level_size_grid():
        bound = n * (m - 1)
        for mp in enumerate_multipartitions(m, n):
            element = schur_element(mp, "cancellation")
            if any(exp < 0 for exp in element.factors.values()):
                failures.append((mp, "negative exponent"))
                continue
            try:
                poly = fr_expand(element, m)
            except Exception as exc:
                failures.append((mp, repr(exc)))
                continue
            if any(not isinstance(c, int) for c in poly.terms.values()):
                failures.append((mp, "non-integer coefficient"))
            if poly.total_degree() > bound:
                failures.append((mp, f"degree {poly.total_degree()} > {bound}"))
    _report(4, "integrality and degree bound n(m-1) over the criterion-1 sweep",
            failures, started)


def test_criterion_5_symmetric_group_equivariance():
    started = time.time()
    failures = []
    for m in (1, 2, 3):
        for n in range(0, 6):
            mps = list(enumerate_multipartitions(m, n))
            elements = {mp: schur_element(mp) for mp in mps}
            for mp in mps:
                for sigma in itertools.permutations(range(1, m + 1)):
                    lhs = elements[permute_components(mp, sigma)]
                    rhs = apply_permutation(sigma, elements[mp])
                    if lhs != rhs:
                        failures.append((mp, sigma))
    _report(5, "S_m equivariance (m<=3, n<=5, all sigma)", failures, started)


def test_criterion_6_trace_identity():
    started = time.time()
    failures = []
    for m in (1, 2, 3):
        for n in (1, 2, 3, 4):
            for mp in enumerate_multipartitions(m, n):
                if num_standard_tableaux(mp) != standard_fillings_count(mp):
                    failures.append(("dimension", mp))
            if trace_identity_sides(m, n) != SparsePoly(m, {}):
                failures.append(("trace", m, n))
    _report(6, "trace identity sum f/s = [m=1] with brute-forced dimensions (n<=4)",
            failures, started)


def test_criterion_7_semisimplicity_criterion():
    started = time.time()
    failures = []
    rng = random.Random(20240817)
    for m in (1, 2, 3):
        for n in (1, 2, 3, 4):
            index = ZeroFormIndex(schur_elements_table(m, n))
            for prime in (None, 101):
                for _ in range(100):
                    theta = random_specialization(m, n, rng, prime=prime)
                    report = cross_check_criterion(m, n, theta, index)
                    if not report.agreement:
                        failures.append(("agreement", m, n, prime, theta.q_values))
            for name, theta, witness in separation_failure_cases(m, n):
                report = cross_check_criterion(m, n, theta, index)
                if report.semisimple or witness not in report.vanishing:
                    failures.append(("witness", name, m, n))
                if not report.agreement:
                    failures.append(("witness-agreement", name, m, n))
    _report(7, "criterion vs zero-form index, 100 samples/(m,n) over Q and F_101 "
               "plus targeted failure witnesses", failures, started)


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
