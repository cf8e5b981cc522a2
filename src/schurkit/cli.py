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
    if fmt == "json":
        return json.dumps(value.to_json())
    latex = fmt == "latex"
    if isinstance(value, FactoredRational):
        return value.render(latex=latex)
    if isinstance(value, SemisimplicityReport):
        return _report_text(value, latex=latex)
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
        payload = [{"multipartition": mp_json(mp), "schur": el.to_json()} for mp, el in rows]
        if args.multipartition is not None:
            print(json.dumps(payload[0]))
        else:
            print(json.dumps(payload))
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
    x_value = None
    for token in args.set or []:
        key, _, raw = token.partition("=")
        if not raw:
            raise UsageError(f"--set expects name=value, got {token!r}")
        try:
            val = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--set {token!r}: not a rational value")
        if key == "x":
            x_value = val
        elif key.startswith("q") and key[1:].isdigit():
            s = int(key[1:])
            if not 1 <= s <= m:
                raise UsageError(f"--set {token!r}: --m {m} has parameters q1..q{m}")
            values[s] = val
        else:
            raise UsageError(f"--set {token!r}: name must be q<i> or x")
    missing = [s for s in range(1, m + 1) if s not in values]
    if missing:
        raise UsageError(f"missing --set for q{missing[0]}")
    try:
        return Specialization(values, x_value=x_value, prime=args.mod)
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
    return list(itertools.product(parts, parts))


def _suite_three_formulas(args):
    def check(mp):
        base = schur_element(mp, "cancellation")
        bad = []
        candidates = [("product", schur_element(mp, "product"))]
        ell = mp_length(mp)
        for L in range(ell, ell + 3):
            candidates.append((f"symbol:L={L}", schur_element(mp, "symbol", L)))
        for name, value in candidates:
            if value != base:
                bad.append(
                    {
                        "multipartition": mp_json(mp),
                        "formula": name,
                        "value": value.to_json(),
                        "cancellation": base.to_json(),
                    }
                )
        return bad

    mps = list(enumerate_multipartitions(args.m, args.n))
    mismatches = [b for mp in mps for b in check(mp)]
    return len(mps), "multipartitions", mismatches


def _suite_beta_shift(args):
    def check(pair):
        lam, mu = pair
        x = x_kernel(lam, mu)
        z = z_kernel(lam, mu)
        base_l = max(len(lam), len(mu))
        bad = []
        ys = {L: y_kernel(lam, mu, L) for L in range(base_l, base_l + 4)}
        for L in range(base_l, base_l + 3):
            if ys[L] != ys[L + 1]:
                bad.append({"pair": [list(lam), list(mu)], "check": f"shift:L={L}"})
        if x != ys[base_l]:
            bad.append({"pair": [list(lam), list(mu)], "check": "x=y"})
        if x != z:
            bad.append({"pair": [list(lam), list(mu)], "check": "x=z"})
        return bad

    pairs = _partition_pairs(args.size)
    mismatches = [b for pair in pairs for b in check(pair)]
    return len(pairs), "partition pairs", mismatches


def _suite_x_symmetry(args):
    pairs = _partition_pairs(args.size)
    flags = [verify_x_symmetry(*pair) for pair in pairs]
    mismatches = [
        {"pair": [list(lam), list(mu)], "check": "x-symmetry"}
        for (lam, mu), ok in zip(pairs, flags)
        if not ok
    ]
    return len(pairs), "partition pairs", mismatches


def _suite_mu_identity(args):
    cases = [
        (mu, ell)
        for k in range(1, args.size + 1)
        for mu in partitions_of(k)
        for ell in range(1, mu[0] + 1)
    ]
    flags = [verify_mu_identity(*case) for case in cases]
    mismatches = [
        {"mu": list(mu), "ell": ell}
        for (mu, ell), ok in zip(cases, flags)
        if not ok
    ]
    return len(cases), "identities", mismatches


def _suite_hook_beta(args):
    cases = [
        (lam, len(lam) + extra)
        for k in range(args.size + 1)
        for lam in partitions_of(k)
        for extra in range(4)
    ]
    flags = [verify_hook_beta_identity(*case) for case in cases]
    mismatches = [
        {"partition": list(lam), "L": L}
        for (lam, L), ok in zip(cases, flags)
        if not ok
    ]
    return len(cases), "identities", mismatches


def _suite_sm_action(args):
    mps = list(enumerate_multipartitions(args.m, args.n))
    elements = {mp: schur_element(mp) for mp in mps}
    mismatches = []
    for mp in mps:
        for sigma in itertools.permutations(range(1, args.m + 1)):
            lhs = elements[permute_components(mp, sigma)]
            rhs = apply_permutation(sigma, elements[mp])
            if lhs != rhs:
                mismatches.append(
                    {"multipartition": mp_json(mp), "sigma": list(sigma)}
                )
    return len(mps), "multipartitions", mismatches


def _suite_integrality(args):
    variables = tuple(qvar(s) for s in range(1, args.m + 1))
    bound = args.n * (args.m - 1)

    def check(mp):
        element = schur_element(mp)
        if any(e < 0 for e in element.factors.values()):
            return [{"multipartition": mp_json(mp), "check": "negative exponent"}]
        # Every form c + q_s - q_t is primitive of degree one, so by Gauss's lemma the
        # product is integral iff its constant is, and its degree is the exponent sum.
        if element.constant.denominator != 1:
            try:
                fr_expand(element, variables)
            except NotAPolynomialError as exc:
                return [{"multipartition": mp_json(mp), "check": str(exc)}]
        degree = sum(element.factors.values())
        if degree > bound:
            return [{"multipartition": mp_json(mp), "check": f"degree {degree} > {bound}"}]
        return []

    mps = list(enumerate_multipartitions(args.m, args.n))
    mismatches = [b for mp in mps for b in check(mp)]
    return len(mps), "multipartitions", mismatches


def _suite_trace_identity(args):
    if args.n < 1:
        raise UsageError(f"--suite trace-identity needs --n >= 1, got {args.n}")
    mismatches = []
    if not verify_trace_identity(args.m, args.n):
        got, expected = trace_identity_sides(args.m, args.n)
        mismatches.append(
            {
                "m": args.m,
                "n": args.n,
                "difference": (got - expected).to_json(),
            }
        )
    return 1, "identities", mismatches


def _suite_criterion(args):
    if args.seed is None:
        raise UsageError("--suite criterion requires --seed")
    index = ZeroFormIndex(schur_elements_table(args.m, args.n))
    rng = random.Random(args.seed)
    primes = [args.mod] if args.mod is not None else [None, 101]
    mismatches = []
    checked = 0
    for prime in primes:
        for _ in range(args.trials):
            theta = random_specialization(args.m, args.n, rng, prime=prime)
            report = cross_check_criterion(args.m, args.n, theta, index)
            checked += 1
            if not report.agreement:
                mismatches.append(
                    {
                        "field": report.field,
                        "theta": {f"q{s}": str(v) for s, v in sorted(theta.q_values.items())},
                        "report": report.to_json(),
                    }
                )
    for name, theta, witness in separation_failure_cases(args.m, args.n):
        report = cross_check_criterion(args.m, args.n, theta, index)
        checked += 1
        if report.semisimple or witness not in report.vanishing or not report.agreement:
            mismatches.append(
                {
                    "case": name,
                    "field": report.field,
                    "witness": mp_json(witness),
                    "report": report.to_json(),
                }
            )
    return checked, "specializations", mismatches


SUITES = {
    "three-formulas": (_suite_three_formulas, ("m", "n")),
    "beta-shift": (_suite_beta_shift, ()),
    "x-symmetry": (_suite_x_symmetry, ()),
    "mu-identity": (_suite_mu_identity, ()),
    "hook-beta": (_suite_hook_beta, ()),
    "sm-action": (_suite_sm_action, ("m", "n")),
    "integrality": (_suite_integrality, ("m", "n")),
    "trace-identity": (_suite_trace_identity, ("m", "n")),
    "criterion": (_suite_criterion, ("m", "n")),
}


def _cmd_verify(args) -> int:
    driver, required = SUITES[args.suite]
    for flag in required:
        if getattr(args, flag) is None:
            raise UsageError(f"--suite {args.suite} requires --{flag}")
    checked, unit, mismatches = driver(args)
    if not checked:
        raise UsageError(f"--suite {args.suite} checked no {unit}")
    for record in mismatches:
        print(json.dumps(record))
    print(f"checked {checked} {unit}, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


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

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--size", type=_positive_int, default=5, help="partition size bound for pair suites")
    p.add_argument("--seed", type=int, help="rng seed (criterion suite)")
    p.add_argument("--trials", type=_positive_int, default=100, help="samples per field (criterion suite)")
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
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
