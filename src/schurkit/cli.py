"""Batch command line front end.

Subcommands: enumerate, schur, pinv, verify, semisimple.  All JSON goes
to stdout, diagnostics to stderr; exit code 0 on success, 1 when a
verify suite finds a counterexample, 2 on usage errors.  Output is a
pure function of argv plus the seed, so repeated runs are byte
identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (
    FactoredRational,
    NotAPolynomialError,
    Specialization,
    apply_permutation,
    fr_eval,
    fr_expand,
    qindex,
    qvar,
)
from .partitions import (
    Multipartition,
    enumerate_multipartitions,
    mp_length,
    multipartition,
    partitions_of,
    permute_components,
)
from .schur import (
    FORMULAS,
    p_invariant,
    schur_element,
    trace_identity_sides,
    verify_hook_beta_identity,
    verify_mu_identity,
    verify_trace_identity,
    verify_x_symmetry,
    x_kernel,
    y_kernel,
    z_kernel,
)
from .semisimple import (
    SemisimplicityReport,
    ZeroFormIndex,
    cross_check_criterion,
    separation_failure_cases,
    random_specialization,
    schur_elements_table,
)


class UsageError(ValueError):
    pass


def mp_text(mp: Multipartition) -> str:
    comps = ["(" + ",".join(str(v) for v in lam) + ")" if lam else "(0)" for lam in mp]
    return "(" + ";".join(comps) + ")"


def mp_json(mp: Multipartition) -> list:
    return [list(lam) for lam in mp]


def format_output(value, fmt: str) -> str:
    """Render a factored value or report as json, latex or text."""
    latex = fmt == "latex"
    if isinstance(value, FactoredRational):
        return value.json_text() if fmt == "json" else value.render(latex=latex)
    if isinstance(value, SemisimplicityReport):
        return json.dumps(value.to_json()) if fmt == "json" else _report_text(value, latex=latex)
    raise TypeError(f"cannot format {type(value).__name__}")


def _report_text(report: SemisimplicityReport, latex: bool = False) -> str:
    if latex:
        vanish = (
            ", ".join(mp_text(mp) for mp in report.vanishing)
            if report.vanishing
            else "-"
        )
        agree = "-" if report.agreement is None else ("yes" if report.agreement else "no")
        return (
            f"{report.field} & {report.p_value} & "
            f"{'yes' if report.semisimple else 'no'} & {vanish} & {agree} \\\\"
        )
    lines = [
        f"field: {report.field}",
        f"P(theta) = {report.p_value}",
        f"semisimple: {'yes' if report.semisimple else 'no'}",
    ]
    if report.vanishing is not None:
        shown = ", ".join(mp_text(mp) for mp in report.vanishing) or "none"
        lines.append(f"vanishing ({len(report.vanishing)}): {shown}")
        lines.append(f"agreement: {'yes' if report.agreement else 'no'}")
    return "\n".join(lines)


# ---------------------------------------------------------------- commands


def _cmd_enumerate(args) -> int:
    mps = list(enumerate_multipartitions(args.m, args.n))
    if args.format == "json":
        print(json.dumps([mp_json(mp) for mp in mps]))
    else:
        for mp in mps:
            print(mp_text(mp))
    return 0


def _parse_single_multipartition(args) -> Multipartition:
    try:
        data = json.loads(args.multipartition)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--multipartition: {exc}")
    if not isinstance(data, list) or not all(
        isinstance(comp, list)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in comp)
        for comp in data
    ):
        raise UsageError("--multipartition must be a JSON array of integer arrays")
    try:
        mp = multipartition(data)
    except ValueError as exc:
        raise UsageError(f"--multipartition: {exc}")
    if args.m is not None and args.m != len(mp):
        raise UsageError(f"--m {args.m} contradicts a multipartition with {len(mp)} components")
    if args.n is not None and args.n != sum(sum(lam) for lam in mp):
        raise UsageError("--n contradicts the multipartition size")
    return mp


def _cmd_schur(args) -> int:
    if args.L is not None and args.formula != "symbol":
        raise UsageError("--L applies only to --formula symbol")
    if args.multipartition is not None:
        mps = [_parse_single_multipartition(args)]
    elif args.m is not None and args.n is not None:
        mps = list(enumerate_multipartitions(args.m, args.n))
    else:
        raise UsageError("schur needs either --multipartition or both --m and --n")
    if args.L is not None:
        too_short = [mp for mp in mps if args.L < mp_length(mp)]
        if too_short:
            raise UsageError(
                f"--L {args.L} is smaller than the length of {mp_text(too_short[0])}"
            )

    rows = [(mp, schur_element(mp, args.formula, args.L)) for mp in mps]
    if args.format == "json":
        # json.dumps of {"multipartition": ..., "schur": el.to_json()} per row, byte for byte
        payload = [
            f'{{"multipartition": {json.dumps(mp_json(mp))}, "schur": {el.json_text()}}}'
            for mp, el in rows
        ]
        if args.multipartition is not None:
            print(payload[0])
        else:
            print("[" + ", ".join(payload) + "]")
    elif args.format == "latex":
        for mp, el in rows:
            print(f"${mp_text(mp)}$ & ${el.render(latex=True)}$ \\\\")
    else:
        for mp, el in rows:
            print(f"{mp_text(mp)}: {el.render()}")
    return 0


def _cmd_pinv(args) -> int:
    value = p_invariant(args.m, args.n)
    print(format_output(value, args.format))
    return 0


def _parse_theta(args, m: int) -> Specialization:
    values: dict[int, Fraction] = {}
    for token in args.set or []:
        key, _, raw = token.partition("=")
        if not raw:
            raise UsageError(f"--set expects name=value, got {token!r}")
        try:
            val = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--set {token!r}: not a rational value")
        try:
            s = qindex(key)
        except ValueError:
            raise UsageError(f"--set {token!r}: name must be q<i> with 1 <= i <= {m}")
        if s > m:
            raise UsageError(f"--set {token!r}: --m {m} has parameters q1..q{m}")
        if s in values:
            raise UsageError(f"--set {token!r}: {key} is already set")
        values[s] = val
    missing = [s for s in range(1, m + 1) if s not in values]
    if missing:
        raise UsageError(f"missing --set for q{missing[0]}")
    try:
        return Specialization(values, prime=args.mod)
    except (ValueError, ArithmeticError) as exc:
        raise UsageError(str(exc))


def _cmd_semisimple(args) -> int:
    theta = _parse_theta(args, args.m)
    if args.vanishing:
        report = cross_check_criterion(args.m, args.n, theta)
    else:
        p_value = fr_eval(p_invariant(args.m, args.n), theta)
        report = SemisimplicityReport(
            p_value=p_value,
            semisimple=p_value != 0,
            vanishing=None,
            agreement=None,
            field=theta.field_tag(),
        )
    print(format_output(report, args.format))
    return 0


# ------------------------------------------------------------ verify suites


def _partition_pairs(size: int):
    parts = [lam for k in range(size + 1) for lam in partitions_of(k)]
    return itertools.product(parts, parts)


def _suite_three_formulas(args):
    for mp in enumerate_multipartitions(args.m, args.n):
        base = schur_element(mp, "cancellation")
        ell = mp_length(mp)
        candidates = [("product", schur_element(mp, "product"))] + [
            (f"symbol:L={L}", schur_element(mp, "symbol", L)) for L in range(ell, ell + 3)
        ]
        yield [
            {
                "multipartition": mp_json(mp),
                "formula": name,
                "value": value.to_json(),
                "cancellation": base.to_json(),
            }
            for name, value in candidates
            if value != base
        ]


def _suite_beta_shift(args):
    for lam, mu in _partition_pairs(args.size):
        x = x_kernel(lam, mu)
        z = z_kernel(lam, mu)
        base_l = max(len(lam), len(mu))
        ys = {L: y_kernel(lam, mu, L) for L in range(base_l, base_l + 4)}
        checks = [f"shift:L={L}" for L in range(base_l, base_l + 3) if ys[L] != ys[L + 1]]
        if x != ys[base_l]:
            checks.append("x=y")
        if x != z:
            checks.append("x=z")
        yield [{"pair": [list(lam), list(mu)], "check": check} for check in checks]


def _suite_x_symmetry(args):
    for lam, mu in _partition_pairs(args.size):
        ok = verify_x_symmetry(lam, mu)
        yield [] if ok else [{"pair": [list(lam), list(mu)], "check": "x-symmetry"}]


def _suite_mu_identity(args):
    for k in range(1, args.size + 1):
        for mu in partitions_of(k):
            for ell in range(1, mu[0] + 1):
                yield [] if verify_mu_identity(mu, ell) else [{"mu": list(mu), "ell": ell}]


def _suite_hook_beta(args):
    for k in range(args.size + 1):
        for lam in partitions_of(k):
            for L in range(len(lam), len(lam) + 4):
                ok = verify_hook_beta_identity(lam, L)
                yield [] if ok else [{"partition": list(lam), "L": L}]


def _suite_sm_action(args):
    # permute_components and apply_permutation are both actions of S_m with the same
    # composition rule, so equivariance under the transposition (1 2) and the m-cycle,
    # which generate S_m, is equivariance under every permutation.
    m = args.m
    transposition = (2, 1, *range(3, m + 1)) if m > 1 else (1,)
    cycle = (*range(2, m + 1), 1)
    generators = [transposition] if cycle == transposition else [transposition, cycle]
    mps = list(enumerate_multipartitions(m, args.n))
    elements = {mp: schur_element(mp) for mp in mps}
    for mp in mps:
        yield [
            {"multipartition": mp_json(mp), "sigma": list(sigma)}
            for sigma in generators
            if elements[permute_components(mp, sigma)] != apply_permutation(sigma, elements[mp])
        ]


def _suite_integrality(args):
    bound = args.n * (args.m - 1)
    for mp in enumerate_multipartitions(args.m, args.n):
        element = schur_element(mp)
        check = None
        if any(e < 0 for e in element.factors.values()):
            check = "negative exponent"
        # Every form c + q_s - q_t is primitive of degree one, so by Gauss's lemma the
        # product is integral iff its constant is, and its degree is the exponent sum.
        elif element.constant.denominator != 1:
            try:
                fr_expand(element, args.m)
            except NotAPolynomialError as exc:
                check = str(exc)
        degree = sum(element.factors.values())
        if check is None and degree > bound:
            check = f"degree {degree} > {bound}"
        yield [] if check is None else [{"multipartition": mp_json(mp), "check": check}]


def _suite_trace_identity(args):
    if args.n < 1:
        raise UsageError(f"--suite trace-identity needs --n >= 1, got {args.n}")
    if verify_trace_identity(args.m, args.n):
        yield []
        return
    got, expected = trace_identity_sides(args.m, args.n)
    yield [{"m": args.m, "n": args.n, "difference": (got - expected).to_json()}]


def _suite_criterion(args):
    if args.mod is not None:
        Specialization({}, prime=args.mod)  # refuses a modulus that is not prime, before the table
    index = ZeroFormIndex(schur_elements_table(args.m, args.n))
    rng = random.Random(args.seed)
    for prime in [args.mod] if args.mod is not None else [None, 101]:
        for _ in range(args.trials):
            theta = random_specialization(args.m, args.n, rng, prime=prime)
            report = cross_check_criterion(args.m, args.n, theta, index)
            yield [] if report.agreement else [
                {
                    "field": report.field,
                    "theta": {qvar(s): str(v) for s, v in sorted(theta.q_values.items())},
                    "report": report.to_json(),
                }
            ]
    for name, theta, witness in separation_failure_cases(args.m, args.n):
        report = cross_check_criterion(args.m, args.n, theta, index)
        ok = not report.semisimple and witness in report.vanishing and report.agreement
        yield [] if ok else [
            {
                "case": name,
                "field": report.field,
                "witness": mp_json(witness),
                "report": report.to_json(),
            }
        ]


# name -> (driver, unit, required flags, optional flags with their defaults).  A driver
# yields, for each case it checks, the list of that case's mismatch records ([] if none).
SUITES = {
    "three-formulas": (_suite_three_formulas, "multipartitions", ("m", "n"), {}),
    "beta-shift": (_suite_beta_shift, "partition pairs", (), {"size": 5}),
    "x-symmetry": (_suite_x_symmetry, "partition pairs", (), {"size": 5}),
    "mu-identity": (_suite_mu_identity, "identities", (), {"size": 5}),
    "hook-beta": (_suite_hook_beta, "identities", (), {"size": 5}),
    "sm-action": (_suite_sm_action, "multipartitions", ("m", "n"), {}),
    "integrality": (_suite_integrality, "multipartitions", ("m", "n"), {}),
    "trace-identity": (_suite_trace_identity, "identities", ("m", "n"), {}),
    "criterion": (_suite_criterion, "specializations", ("m", "n", "seed"), {"trials": 100, "mod": None}),
}


def _cmd_verify(args) -> int:
    driver, unit, required, optional = SUITES[args.suite]
    for flag in ("m", "n", "size", "seed", "trials", "mod"):
        given = getattr(args, flag) is not None
        if flag in required and not given:
            raise UsageError(f"--suite {args.suite} requires --{flag}")
        if not given and flag in optional:
            setattr(args, flag, optional[flag])
        elif given and flag not in required and flag not in optional:
            raise UsageError(f"--suite {args.suite} does not take --{flag}")
    cases = list(driver(args))
    if not cases:
        raise UsageError(f"--suite {args.suite} checked no {unit}")
    mismatches = [record for records in cases for record in records]
    for record in mismatches:
        print(json.dumps(record))
    print(f"checked {len(cases)} {unit}, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


def _suites_epilog() -> str:
    lines = ["suites: the unit they count, then their flags ([--flag default] is optional)"]
    for name, (_, unit, required, optional) in SUITES.items():
        flags = [f"--{flag}" for flag in required]
        flags += [f"[--{flag} {default}]" if default else f"[--{flag}]" for flag, default in optional.items()]
        lines.append(f"  {name:<15} {unit}: {' '.join(flags)}")
    return "\n".join(lines + ["any other flag exits 2"])


# ----------------------------------------------------------------- parser


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurkit",
        description="Exact Schur elements of degenerate cyclotomic Hecke algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all m-multipartitions of n")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("schur", help="compute Schur elements")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--multipartition", help="single multipartition as JSON, e.g. [[1],[]]")
    p.add_argument("--formula", choices=FORMULAS, default="cancellation")
    p.add_argument("--L", type=int, help="symbol size (symbol formula only)")
    p.add_argument("--format", choices=("json", "latex", "text"), default="text")
    p.set_defaults(handler=_cmd_schur)

    p = sub.add_parser("pinv", help="the semisimplicity-separation polynomial")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "latex", "text"), default="text")
    p.set_defaults(handler=_cmd_pinv)

    p = sub.add_parser("verify", help="run a named identity suite", epilog=_suites_epilog(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--size", type=_positive_int, help="partition size bound for pair suites")
    p.add_argument("--seed", type=int, help="rng seed (criterion suite)")
    p.add_argument("--trials", type=_positive_int, help="samples per field (criterion suite)")
    p.add_argument("--mod", type=int, help="restrict the criterion suite to F_p")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("semisimple", help="decide semisimplicity of a specialization")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", action="append", metavar="q1=VAL", help="assign a parameter")
    p.add_argument("--mod", type=int, help="work in the prime field F_p")
    p.add_argument(
        "--no-vanishing",
        dest="vanishing",
        action="store_false",
        help="skip the zero-form index query for vanishing Schur elements",
    )
    p.add_argument("--format", choices=("json", "latex", "text"), default="json")
    p.set_defaults(handler=_cmd_semisimple)

    return parser


def run(argv: Sequence[str]) -> int:
    """Parse argv, execute, and return the exit code (0 ok, 1 mismatch, 2 usage)."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> None:
    """The console entry: run argv, flush stdout and stderr, end the process at once.

    os._exit skips interpreter teardown, which would only free what the
    process is about to drop; in-process callers use run instead.
    """
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
