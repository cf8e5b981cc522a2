"""Batch command line front end.

Subcommands: enumerate, schur, pinv, verify, semisimple.  All JSON goes
to stdout, diagnostics to stderr; exit code 0 on success, 1 when a
verify suite finds a counterexample, 2 on usage errors.  Output is a
pure function of argv plus the seed, so repeated runs are byte
identical.  parse_args reads argv against one table of flags: FLAGS,
COMMANDS, and SUITES for the flags of each verify suite, so no command
imports argparse or gettext or builds a parser.
"""

from __future__ import annotations

import itertools
import json  # at module level: bench/tracing.py times rendering by replacing cli.json
import os
import random
import re
import sys
from fractions import Fraction
from math import factorial, lgamma, log
from types import SimpleNamespace
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
    rational_from_text,
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
    check_p_invariant,
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


# A multipartition nests two deep.  Deeper input is refused before json.loads, whose own
# limit is the interpreter's recursion depth (under 1,000 on 3.11, past 9,000 on 3.13).
MAX_NESTING = 100


def _parse_single_multipartition(args) -> Multipartition:
    brackets = re.sub(r"[^][{}]", "", re.sub(r'"(?:[^"\\]|\\.)*"?', "", args.multipartition))
    if max(itertools.accumulate(1 if c in "[{" else -1 for c in brackets), default=0) > MAX_NESTING:
        raise UsageError(f"--multipartition: nested deeper than {MAX_NESTING} brackets")
    try:
        mp = multipartition(json.loads(args.multipartition))
    except json.JSONDecodeError:  # its wording and position differ between interpreters
        raise UsageError("--multipartition: not valid JSON")
    except ValueError as exc:  # the int-digit limit of json.loads, or multipartition's refusal
        raise UsageError(f"--multipartition: {exc}")
    if args.m is not None and args.m != len(mp):
        noun = "component" if len(mp) == 1 else "components"
        raise UsageError(f"--m {args.m} contradicts a multipartition with {len(mp)} {noun}")
    if args.n is not None and args.n != sum(sum(lam) for lam in mp):
        raise UsageError("--n contradicts the multipartition size")
    return mp


def _cmd_schur(args) -> int:
    if args.multipartition is not None:
        mps = [_parse_single_multipartition(args)]
    elif args.m is not None and args.n is not None:
        mps = list(enumerate_multipartitions(args.m, args.n))
    else:
        raise UsageError("schur needs either --multipartition or both --m and --n")

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
    check_p_invariant(args.m, args.n)
    # Refuse, before P is built, a constant n! that the int-digit limit would not print:
    # lgamma sizes it, and n! >= 10**limit decides exactly within 1 of the limit.
    limit, log10 = sys.get_int_max_str_digits(), lgamma(args.n + 1) / log(10)
    if limit and (log10 > limit + 1 or log10 > limit - 1 and factorial(args.n) >= 10**limit):
        text = f"Exceeds the limit ({limit} digits) for integer string conversion"
        raise UsageError(f"{text}; {_DIGIT_LIMIT_SETTING}")
    value = p_invariant(args.m, args.n)
    print(format_output(value, args.format))
    return 0


def _parse_theta(args, m: int) -> Specialization:
    values: dict[int, Fraction] = {}
    for token in args.set:
        key, _, raw = token.partition("=")
        if not raw:
            raise UsageError(f"--set expects name=value, got {token!r}")
        try:
            val = rational_from_text(raw)
        except ValueError as exc:
            raise UsageError(f"--set {token!r}: {exc}")
        try:
            s = qindex(key)
        except ValueError:
            raise UsageError(f"--set {token!r}: name must be q<i> with 1 <= i <= {m}")
        if s > m:
            raise UsageError(f"--set {token!r}: --m {m} has parameters q1..q{m}")
        if s in values:
            raise UsageError(f"--set {token!r}: {key} is already set")
        values[s] = val
    missing = next((s for s in range(1, m + 1) if s not in values), None)
    if missing is not None:
        raise UsageError(f"missing --set for q{missing}")
    try:
        return Specialization(values, prime=args.mod)
    except (ValueError, ArithmeticError) as exc:
        raise UsageError(str(exc))


def _cmd_semisimple(args) -> int:
    theta = _parse_theta(args, args.m)
    if args.no_vanishing:
        p_value = fr_eval(p_invariant(args.m, args.n), theta)
        report = SemisimplicityReport(
            p_value=p_value,
            semisimple=p_value != 0,
            vanishing=None,
            agreement=None,
            field=theta.field_tag(),
        )
    else:
        report = cross_check_criterion(args.m, args.n, theta)
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
    if verify_trace_identity(args.m, args.n):
        yield []
        return
    difference = trace_identity_sides(args.m, args.n)
    yield [{"m": args.m, "n": args.n, "difference": difference.to_json()}]


def _suite_criterion(args):
    if args.mod is not None:
        Specialization({}, prime=args.mod)  # refuses a modulus that is not prime, before the table
        if args.mod <= args.n:
            raise UsageError(
                f"--mod {args.mod} must exceed --n {args.n}: n! vanishes mod p, so every"
                " specialization would be non-semisimple and only one side checked"
            )
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
    driver, unit = SUITES[args.suite][:2]
    cases = list(driver(args))
    if not cases:
        raise UsageError(f"--suite {args.suite} checked no {unit}")
    mismatches = [record for records in cases for record in records]
    for record in mismatches:
        print(json.dumps(record))
    print(f"checked {len(cases)} {unit}, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


# ----------------------------------------------------------------- parser


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(raw)
    return value


# flag -> (conversion, help).  The conversion is a function of the text, a tuple of the
# texts the flag accepts, list (repeatable: every value is kept, in order) or bool (bare:
# takes no value).  A (command, flag) key narrows a flag for that command.
FLAGS = {
    "m": (int, "level: the parameters are q1..q<m>"),
    "n": (int, "size of the multipartitions"),
    "multipartition": (str, "one multipartition as JSON, e.g. [[1],[]]"),
    "formula": (FORMULAS, "which of the three formulas"),
    "L": (int, "symbol size (symbol formula only)"),
    "format": (("json", "latex", "text"), "output format"),
    ("enumerate", "format"): (("json", "text"), "output format"),
    "suite": (tuple(SUITES), "the identity suite, see below"),
    "size": (_positive_int, "partition size bound"),
    "seed": (int, "rng seed"),
    "trials": (_positive_int, "samples per field"),
    "mod": (int, "work in the prime field F_p"),
    "set": (list, "q<i>=value, once for each parameter"),
    "no-vanishing": (bool, "skip the zero-form index query for vanishing Schur elements"),
}

# command -> (handler, summary, required flags, optional flags with their defaults).
# verify also takes the flags of the suite that --suite names, as SUITES lists them.
COMMANDS = {
    "enumerate": (_cmd_enumerate, "list all m-multipartitions of n", ("m", "n"),
                  {"format": "text"}),
    "schur": (
        _cmd_schur,
        "compute Schur elements",
        (),
        {"m": None, "n": None, "multipartition": None, "formula": "cancellation", "L": None,
         "format": "text"},
    ),
    "pinv": (_cmd_pinv, "the semisimplicity-separation polynomial", ("m", "n"), {"format": "text"}),
    "verify": (_cmd_verify, "run a named identity suite", ("suite",), {}),
    "semisimple": (
        _cmd_semisimple,
        "decide semisimplicity of a specialization",
        ("m", "n"),
        {"set": (), "mod": None, "no-vanishing": False, "format": "json"},
    ),
}


def _help(command: Optional[str]) -> str:
    """The help text of one command, or of schurkit when command is None."""
    if command is None:
        lines = [
            "usage: schurkit COMMAND [--flag value | --flag=value ...]",
            "Exact Schur elements of degenerate cyclotomic Hecke algebras.",
            "commands:",
        ]
        lines += [f"  {name:<11} {summary}" for name, (_, summary, _, _) in COMMANDS.items()]
        lines.append("schurkit COMMAND --help lists the flags of COMMAND")
        return "\n".join(lines)
    _, summary, required, optional = COMMANDS[command]
    lines = [f"usage: schurkit {command} [--flag value | --flag=value ...]", summary]
    for flag in (*required, *optional):
        convert, text = FLAGS.get((command, flag), FLAGS[flag])
        if isinstance(convert, tuple):
            text += f": {', '.join(convert)}"
        if flag in required:
            text += " (required)"
        elif optional[flag] not in (None, (), False):
            text += f" (default {optional[flag]})"
        lines.append(f"  --{flag:<16} {text}")
    if command == "verify":
        lines.append("suites: the unit they count, then their flags ([--flag default] is optional)")
        for name, (_, unit, needs, takes) in SUITES.items():
            flags = [f"--{flag}" for flag in needs]
            flags += [f"[--{flag} {default}]" if default else f"[--{flag}]" for flag, default in takes.items()]
            lines.append(f"  {name:<15} {unit}: {' '.join(flags)}")
    lines.append("a flag the command does not take, or a flag given twice, exits 2")
    return "\n".join(lines)


def _show_help(text: str) -> int:
    print(text)
    return 0


def _takes_value_from(word: Optional[str]) -> bool:
    # As argparse reads it: a word that starts with "-" is a flag, not a value, unless it
    # is a negative integer or holds a space.
    return word is not None and (word[:1] != "-" or word[1:].isdecimal() or " " in word)


def parse_args(argv: Sequence[str]):
    """Read argv against COMMANDS, SUITES and FLAGS: (handler, flags) or (_show_help, text).

    The flags are attributes named after them, "-" read as "_".  -h or --help answers
    with the help of the command before it.  A value that cannot be converted, a missing
    value and a flag given twice raise UsageError where they stand; an unknown word or
    flag, a missing flag, and a flag that the command or its suite does not take raise it
    once every word is read.
    """
    command, given, stray = None, {}, None
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return _show_help, _help(command)
        if command is None and word[:1] != "-":
            if word not in COMMANDS:
                raise UsageError(f"unknown command {word!r}, expected one of {', '.join(COMMANDS)}")
            command, (_, _, required, optional) = word, COMMANDS[word]
            known = {*required, *optional}
            if command == "verify":  # any flag of any suite; --suite decides which it keeps
                for _, _, needs, takes in SUITES.values():
                    known.update(needs, takes)
            continue
        flag, eq, value = word[2:].partition("=")
        if command is None or word[:2] != "--" or flag not in known:
            stray = stray or word
            continue
        convert = FLAGS.get((command, flag), FLAGS[flag])[0]
        if convert is bool:
            if eq:
                raise UsageError(f"--{flag} takes no value")
            given[flag] = True
            continue
        if not eq:
            value = next(words, None)
            if not _takes_value_from(value):
                raise UsageError(f"--{flag} expects a value")
        if convert is list:
            given.setdefault(flag, []).append(value)
            continue
        if flag in given:
            raise UsageError(f"--{flag} is given twice")
        if isinstance(convert, tuple):
            if value not in convert:
                raise UsageError(f"--{flag} expects one of {', '.join(convert)}, got {value!r}")
        elif convert is not str:
            try:
                value = convert(value)
            except ValueError:
                kind = "a positive integer" if convert is _positive_int else "an integer"
                raise UsageError(f"--{flag} expects {kind}, got {value!r}") from None
        given[flag] = value
    if command is None:
        raise UsageError(f"expected a command, one of {', '.join(COMMANDS)}")
    handler, _, required, optional = COMMANDS[command]
    where = command
    if "suite" in given:
        _, _, needs, optional = SUITES[given["suite"]]
        required, where = (*required, *needs), f"--suite {given['suite']}"
    missing = [flag for flag in required if flag not in given]
    if missing:
        raise UsageError(f"{where} requires --{missing[0]}")
    if stray is not None:
        raise UsageError(f"{command} does not take {stray!r}")
    foreign = [flag for flag in given if flag not in required and flag not in optional]
    if foreign:
        raise UsageError(f"{where} does not take --{foreign[0]}")
    values = {**optional, **given}
    return handler, SimpleNamespace(**{flag.replace("-", "_"): v for flag, v in values.items()})


# The advice that ends CPython's refusal to turn an int of more than
# sys.get_int_max_str_digits() digits into text (3.10 to 3.13), and what a
# user of the command line sets instead.  CPython 3.10 states that limit as
# "(4300)", 3.11 to 3.13 as "(4300 digits)"; run prints the latter everywhere.
_DIGIT_LIMIT_ADVICE = "use sys.set_int_max_str_digits() to increase the limit"
_DIGIT_LIMIT_SETTING = (
    "set the environment variable PYTHONINTMAXSTRDIGITS to a larger limit, or to 0 for none"
)


def run(argv: Sequence[str]) -> int:
    """Parse argv, execute, and return the exit code (0 ok, 1 mismatch, 2 usage)."""
    try:
        handler, args = parse_args(argv)
        return handler(args)
    except ValueError as exc:
        text = re.sub(r"(Exceeds the limit \(\d+)\) ", r"\1 digits) ", str(exc), count=1)
        text = text.replace(_DIGIT_LIMIT_ADVICE, _DIGIT_LIMIT_SETTING)
        print(f"error: {text}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> None:
    """The console entry: run argv, flush stdout and stderr, end the process at once.

    os._exit skips interpreter teardown, which would only free the modules
    and memoized tallies that the process is about to drop.
    An exception that escapes run still gets its traceback, exit code 1 and
    a normal exit.  Tests and embedding code call run, which returns the
    exit code and leaves the process running.
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
