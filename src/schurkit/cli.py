"""Batch command line front end.

Subcommands: enumerate, schur, pinv, verify, semisimple.  All JSON goes
to stdout, diagnostics to stderr; exit code 0 on success, 1 when a
verify suite finds a counterexample, 2 on usage errors.  Output is a
pure function of argv plus the seed, so repeated runs are byte
identical.  enumerate's text prints each row as it is enumerated; its
JSON, like every other output, is written once when it is built, so a
usage error writes nothing to stdout.  parse_args reads argv against
one table of flags: FLAGS, COMMANDS, and SUITES for the flags of each
verify suite, so no command imports argparse or gettext or builds a
parser.  A row of COMMANDS or SUITES is all that states a command: its
handler, the admission that refuses its work (a closed form of its
flags, schur.admit) before anything is built, its summary and its flags.
Every refusal of this module comes before the handler runs, as the
admission also parses --multipartition and --set onto the flags: a
handler or suite driver meets only the library's refusals (the symbol
route's --L, a printed integer past the digit limit) and "checked no".
"""

from __future__ import annotations

import itertools
import json  # at module level: bench/tracing.py times rendering by replacing cli.json
import os
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, partial
from math import ceil, isqrt, lcm, lgamma, log, log10
from types import SimpleNamespace

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
    mp_size,
    multipartition,
    partitions_of,
    permute_components,
    validate_shape,
)
from .schur import (
    FORMULAS,
    THOUSAND_WORDS,
    admit,
    multipartitions_within,
    p_invariant,
    p_invariant_work,
    partitions_within,
    schur_element,
    trace_identity_sides,
    trace_identity_work,
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


@cache
def _component_text(lam: tuple) -> str:
    return "(" + ",".join(map(str, lam)) + ")"


def mp_text(mp: Multipartition) -> str:
    # An empty component is written inline: a cache call on each of the 298 empty components
    # of a (300, 2) row costs more than the text it saves.
    return "(" + ";".join([_component_text(lam) if lam else "(0)" for lam in mp]) + ")"


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
    mps = enumerate_multipartitions(args.m, args.n)
    if args.format == "json":
        print("[" + ", ".join(json.dumps(mp_json(mp)) for mp in mps) + "]")  # holds no lists
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
        raise ValueError(f"--multipartition: nested deeper than {MAX_NESTING} brackets")
    try:
        mp = multipartition(json.loads(args.multipartition))
    except json.JSONDecodeError:  # its wording and position differ between interpreters
        raise ValueError("--multipartition: not valid JSON")
    except ValueError as exc:  # the int-digit limit of json.loads, or multipartition's refusal
        raise ValueError(f"--multipartition: {exc}")
    if args.m is not None and args.m != len(mp):
        noun = "component" if len(mp) == 1 else "components"
        raise ValueError(f"--m {args.m} contradicts a multipartition with {len(mp)} {noun}")
    if args.n is not None and args.n != sum(sum(lam) for lam in mp):
        raise ValueError("--n contradicts the multipartition size")
    return mp


def _cmd_schur(args) -> int:
    # the admission put the parsed --multipartition in place of its text, or left it None
    single = args.multipartition is not None
    mps = [args.multipartition] if single else enumerate_multipartitions(args.m, args.n)

    # Each row is rendered as its element is built and stdout is written once, so a row
    # refused mid-sweep (the symbol route's L, say) still leaves stdout empty.
    texts = ((mp, format_output(schur_element(mp, args.formula, args.L), args.format))
             for mp in mps)
    if args.format == "json":
        # json.dumps of {"multipartition": ..., "schur": element.to_json()} per row, byte for byte
        rows = (f'{{"multipartition": {json.dumps(mp_json(mp))}, "schur": {text}}}'
                for mp, text in texts)
        print(next(rows) if single else "[" + ", ".join(rows) + "]")
    elif args.format == "latex":
        print("\n".join(f"${mp_text(mp)}$ & ${text}$ \\\\" for mp, text in texts))
    else:
        print("\n".join(f"{mp_text(mp)}: {text}" for mp, text in texts))
    return 0


def _cmd_pinv(args) -> int:
    value = p_invariant(args.m, args.n)
    print(format_output(value, args.format))
    return 0


def _cmd_semisimple(args) -> int:
    theta = args.set  # the admission put the Specialization in place of the --set tokens
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


# ------------------------------------------------------------- admission
#
# A row of SUITES or COMMANDS carries the admission of its work: a closed form of its flags
# alone, which schur.admit refuses past its share of the budget before anything is built.
# It also parses --multipartition and --set and checks --mod, so no handler refuses a flag.
# The weights are the units of WORK_BUDGET that one counted item costs, each set from fresh
# CPython 3.11 runs (2 vCPUs): the larger of its microseconds and its peak bytes over 16.
# The elements of a sweep or a table each cost their components times their nodes: with
# that many forms or fewer, an element is written once per pair.


def _sized(name: str, args) -> str:
    return f"{name} at --m {args.m} --n {args.n}"


def _elements(args) -> tuple:
    return ("elements", partial(multipartitions_within, args.m, args.n))


def _admit_enumerate(args) -> None:
    where = _sized("enumerate", args)
    if args.format == "json":  # every row's text is held until the array is printed: at
        # (300, 2) and (2, 30), 10 and 5 bytes for each element's components and nodes
        admit(where, 1, _elements(args), ("components and nodes", args.m + args.n))
        # and a row is built whole: one of 1,000,000 empty components peaked at 161 MB
        admit(where, 10, ("components", args.m))
    else:  # one row at a time: a row of 10,000,000 components peaked at 852 MB
        admit(where, 6, ("components", args.m))
        validate_shape(args.m, args.n)  # as counting the elements does for JSON
    # the partitions of each size up to n, pooled before the first row: 5 us and 165 B each
    admit(where, 10, ("pooled partitions", partial(partitions_within, args.n)))


def _admit_schur(args) -> None:
    """Read schur's input once: the parsed --multipartition replaces its text, or a sweep."""
    if args.multipartition is not None:
        mp = args.multipartition = _parse_single_multipartition(args)
        m, n, length = len(mp), mp_size(mp), mp_length(mp)
        where, elements = "schur --multipartition", ()
        # the constant's hook products: that of lam |- k is k!/f^lam >= sqrt(k!)
        digits = lambda: sum(lgamma(sum(lam) + 1) for lam in mp) / log(100)
    elif args.m is not None and args.n is not None:
        m, n, length = args.m, args.n, args.n
        where, elements, digits = _sized("schur", args), (_elements(args),), None
    else:
        raise ValueError("schur needs either --multipartition or both --m and --n")
    # the sweep (700, 1) as JSON: 490,000 units, 133 MB
    admit(where, 16, *elements, ("components", m), ("nodes", max(n, 1)), digits=digits)
    if args.formula == "symbol":  # a row's beta numbers are below n + L
        length = max(length if args.L is None else args.L, 0)
        admit(where, 1, *elements, ("rows", m), ("bit operations", max(n + length, 1) ** 2))


def _admit_pinv(args) -> None:
    """P's forms, then its constant n!, built and printed: 1.6 to 1.8 us per factor and
    thousand words at n = 40,000 to 238,000.  semisimple prints n! as P(theta) at m = 1 over Q."""
    where, weight, forms = p_invariant_work(args.m, args.n)
    admit(where, weight, forms)
    admit(where, 2, ("factors", args.n), digits=lambda: lgamma(args.n + 1) / log(10))


def _parse_theta(args) -> Specialization:
    values: dict[int, Fraction] = {}
    for token in args.set:
        key, _, raw = token.partition("=")
        if not raw:
            raise ValueError(f"--set expects name=value, got {token!r}")
        try:
            val = rational_from_text(raw)
        except ValueError as exc:
            raise ValueError(f"--set {token!r}: {exc}")
        try:
            s = qindex(key)
        except ValueError:
            raise ValueError(f"--set {token!r}: name must be q<i> with 1 <= i <= {args.m}")
        if s > args.m:
            raise ValueError(f"--set {token!r}: --m {args.m} has parameters q1..q{args.m}")
        if s in values:
            raise ValueError(f"--set {token!r}: {key} is already set")
        values[s] = val
    missing = next((s for s in range(1, args.m + 1) if s not in values), None)
    if missing is not None:
        raise ValueError(f"missing --set for q{missing}")
    try:
        return Specialization(values, prime=args.mod)
    except ArithmeticError as exc:  # a denominator that vanishes mod p
        raise ValueError(str(exc))


def _log10(x: Fraction) -> float:
    """log10 of x > 0 at any size: math.log10 reads an int past the float range."""
    return log10(x.numerator) - log10(x.denominator)


def _log10_span(x: Fraction, n: int) -> float:
    """log10 of prod_{|d|<n} |d + x|, to float precision or below it, for x >= 0 not an
    integer below n.  About k = round(x) and f = x - k in [-1/2, 1/2], the factors are
    |f| at d = -k if k < n, and j + f and i - f for the j and i from 1 left in the span."""
    k = round(x)
    f = float(x - k)
    if k < n:
        ln = lgamma(k + n + f) - lgamma(1 + f) + lgamma(n - k - f) - lgamma(1 - f)
        return ln / log(10) + _log10(abs(x - k))
    if k < n << 20:  # the difference of the two lgammas then keeps nine digits
        return (lgamma(k + n + f) - lgamma(k - n + 1 + f)) / log(10)
    return (2 * n - 1) * _log10(x - n + 1)  # every factor is at least x - n + 1


def _log10_span_above(x: Fraction, n: int) -> float:
    """An upper bound on log10 of prod_{|d|<n} (|d| + x), x >= 0."""
    if x >= n << 20:
        return (2 * n - 1) * _log10(x + n)
    y = float(x) + 1
    return (log(y) + 2 * (lgamma(n + y) - lgamma(1 + y))) / log(10)


def _thousand_words(digits: float) -> int:
    return max(ceil(digits * (1 + 1e-6) / THOUSAND_WORDS), 1)


def _admit_p_value(args, theta: Specialization) -> None:
    """P(theta) over Q at m >= 2, sized from theta before fr_eval builds it.

    P(theta) = n! prod_{s<t} prod_{|d|<n} (d + x), x = theta_s - theta_t, and its reduced
    denominator is at least 1, so log10 |P(theta)|, rounded down, bounds the digits of its
    printed numerator from below; when some x is an integer in (-n, n), P(theta) = 0.  At
    m = 2 the digits of the reduced denominator are bounded from below too.
    fr_eval multiplies n! by each form's integer d D + D x, at most D (n - 1 + |x|) over the
    common denominator D, then reduces that numerator over D to the power of the forms.
    Both are work, as measured on fr_eval at n = 500 to 40,000 and D = 1 to 10^500: 1.2 to
    2.2 us per 30-bit word of a form and thousand words of the numerator, and 3,700 to 8,500
    us per thousand words of each side of the reduction, which a numerator of 0 skips.
    Printing it is work too, quadratic in the printed thousands of words.
    """
    n, values = args.n, theta.q_values.values()
    where, (_, _, (_, forms)) = f"P(theta) at --m {args.m} --n {n}", p_invariant_work(args.m, n)
    xs = [abs(a - b) for a, b in itertools.combinations(values, 2)]
    factorial = lgamma(n + 1) / log(10)
    vanishes = any(x.denominator == 1 and x < n for x in xs)
    digits = 0
    if not vanishes:
        spans = [_log10_span(x, n) for x in xs]
        digits = factorial + sum(spans) - 1e-6 * (factorial + sum(map(abs, spans))) - 1
    admit(where, 1, digits=lambda: digits)  # the digit limit first: P(theta) is printed
    d = lcm(*(v.denominator for v in values))
    form_bits = int(d * (n - 1 + max(xs))).bit_length()
    form_words = forms * max(-(-form_bits // sys.int_info.bits_per_digit), 1)
    built = factorial + sum((2 * n - 1) * log10(d) + _log10_span_above(x, n) for x in xs)
    numerator = ("numerator thousand words", _thousand_words(built))
    admit(where, 2, ("form words", form_words), numerator)
    if not vanishes:
        denominator = ("denominator thousand words", _thousand_words(forms * log10(d)))
        admit(where, 9000, numerator, denominator)
        reduced = 0
        if args.m == 2:  # x = a/b in lowest terms: each d + x is (db + a)/b, and db + a is
            # prime to b, so P(theta) reduces to a denominator of b^(2n-1) / gcd(n!, b^(2n-1))
            reduced = (2 * n - 1) * log10(xs[0].denominator) - factorial
            reduced -= 1e-6 * (reduced + 2 * factorial) + 1
            admit(where, 1, digits=lambda: reduced)
        # str prints the numerator and the reduced denominator in time quadratic in their
        # digits, whatever the digit limit: 6,450 to 6,660 us per thousand words squared
        printed = ("printed thousand words", _thousand_words(max(digits, 0) + max(reduced, 0)))
        admit(where, 7000, printed, printed)


def _admit_semisimple(args) -> None:
    if args.m == 1 and args.mod is None:  # prints P(theta) = n!
        _admit_pinv(args)
    else:
        admit(*p_invariant_work(args.m, args.n))
    if not args.no_vanishing:  # the zero-form table: (2, 22) at 2,156,440 units peaked at 111 MB
        admit(_sized("semisimple", args), 10, _elements(args), ("components", args.m),
              ("nodes", args.n))
    theta = args.set = _parse_theta(args)  # read once: the Specialization replaces the tokens
    if theta.prime is None and args.m > 1:
        _admit_p_value(args, theta)


def _admit_sweep(args) -> None:
    # three-formulas (2, 20) at 993,680 units: 2.7 s, 22 MB; sm-action (3000000, 0) at 3,000,000: 494 MB
    admit(_sized(args.suite, args), 10, _elements(args), ("components", args.m),
          ("nodes", max(args.n, 1)))


def _admit_criterion(args) -> None:
    where, weight, forms = p_invariant_work(args.m, args.n)
    admit(where, weight, forms)
    _admit_sweep(args)
    # each trial, and at most three targeted cases, evaluates P: (2, 1) at 28 us a trial
    trials = args.trials * (1 if args.mod is not None else 2) + 3
    admit(_sized(args.suite, args), 30, ("specializations", trials), forms)
    if args.mod is not None:
        Specialization({}, prime=args.mod)  # refuses a modulus that is not prime
        if args.mod <= args.n:
            raise ValueError(
                f"--mod {args.mod} must exceed --n {args.n}: n! vanishes mod p, so every"
                " specialization would be non-semisimple and only one side checked"
            )


def _pairs(size: int) -> tuple:
    def count(cap: int) -> int | str:
        parts = partitions_within(size, isqrt(cap))
        return parts * parts if isinstance(parts, int) else f"{parts}^2"

    return ("partition pairs", count)


def _admit_pairs(weight: int):
    return lambda args: admit(f"{args.suite} at --size {args.size}", weight, _pairs(args.size))


def _admit_trace_identity(args) -> None:
    admit(*trace_identity_work(args.m, args.n))


def _admit_partitions(args) -> None:
    # mu-identity and hook-beta at --size 30: 4.4 us and 81 B per partition and node
    partitions = ("partitions", partial(partitions_within, args.size))
    admit(f"{args.suite} at --size {args.size}", 6, partitions, ("nodes", args.size))


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
    elements = {mp: schur_element(mp) for mp in enumerate_multipartitions(m, args.n)}
    for mp, element in elements.items():
        yield [
            {"multipartition": mp_json(mp), "sigma": list(sigma)}
            for sigma in generators
            if elements[permute_components(mp, sigma)] != apply_permutation(sigma, element)
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
    import random  # here, not at the top: no other command pays for its import

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


# name -> (driver, admission, unit, required flags, optional flags with their defaults).  A
# driver yields, for each case it checks, the list of that case's mismatch records ([] if none).
SUITES = {
    "three-formulas": (_suite_three_formulas, _admit_sweep, "multipartitions", ("m", "n"), {}),
    # a pair took 112 us in beta-shift at --size 11 and 70 us in x-symmetry at --size 12
    "beta-shift": (_suite_beta_shift, _admit_pairs(150), "partition pairs", (), {"size": 5}),
    "x-symmetry": (_suite_x_symmetry, _admit_pairs(80), "partition pairs", (), {"size": 5}),
    "mu-identity": (_suite_mu_identity, _admit_partitions, "identities", (), {"size": 5}),
    "hook-beta": (_suite_hook_beta, _admit_partitions, "identities", (), {"size": 5}),
    "sm-action": (_suite_sm_action, _admit_sweep, "multipartitions", ("m", "n"), {}),
    "integrality": (_suite_integrality, _admit_sweep, "multipartitions", ("m", "n"), {}),
    "trace-identity": (_suite_trace_identity, _admit_trace_identity, "identities", ("m", "n"), {}),
    "criterion": (_suite_criterion, _admit_criterion, "specializations", ("m", "n", "seed"),
                  {"trials": 100, "mod": None}),
}


def _cmd_verify(args) -> int:
    driver, _, unit = SUITES[args.suite][:3]
    cases = list(driver(args))
    if not cases:
        raise ValueError(f"--suite {args.suite} checked no {unit}")
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

# command -> (handler, admission, summary, required flags, optional flags with their
# defaults).  verify also takes the flags of the suite that --suite names, and the suite's
# row admits its work, as SUITES lists them.
COMMANDS = {
    "enumerate": (_cmd_enumerate, _admit_enumerate, "list all m-multipartitions of n", ("m", "n"),
                  {"format": "text"}),
    "schur": (_cmd_schur, _admit_schur, "compute Schur elements", (),
              {"m": None, "n": None, "multipartition": None, "formula": "cancellation", "L": None,
               "format": "text"}),
    "pinv": (_cmd_pinv, _admit_pinv, "the semisimplicity-separation polynomial", ("m", "n"),
             {"format": "text"}),
    "verify": (_cmd_verify, None, "run a named identity suite", ("suite",), {}),
    "semisimple": (_cmd_semisimple, _admit_semisimple, "decide semisimplicity of a specialization",
                   ("m", "n"), {"set": (), "mod": None, "no-vanishing": False, "format": "json"}),
}


def _help(command: str | None) -> str:
    """The help text of one command, or of schurkit when command is None."""
    if command is None:
        lines = [
            "usage: schurkit COMMAND [--flag value | --flag=value ...]",
            "Exact Schur elements of degenerate cyclotomic Hecke algebras.",
            "commands:",
        ]
        lines += [f"  {name:<11} {summary}" for name, (_, _, summary, _, _) in COMMANDS.items()]
        lines.append("schurkit COMMAND --help lists the flags of COMMAND")
        return "\n".join(lines)
    _, _, summary, required, optional = COMMANDS[command]
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
        for name, (_, _, unit, needs, takes) in SUITES.items():
            flags = [f"--{flag}" for flag in needs]
            flags += [f"[--{flag} {default}]" if default else f"[--{flag}]" for flag, default in takes.items()]
            lines.append(f"  {name:<15} {unit}: {' '.join(flags)}")
    lines.append("a flag the command does not take, or a flag given twice, exits 2")
    return "\n".join(lines)


def _show_help(text: str) -> int:
    print(text)
    return 0


def _takes_value_from(word: str | None) -> bool:
    # As argparse reads it: a word that starts with "-" is a flag, not a value, unless it
    # is a negative integer or holds a space.
    return word is not None and (word[:1] != "-" or word[1:].isdecimal() or " " in word)


def parse_args(argv: Sequence[str]):
    """Read argv against COMMANDS, SUITES and FLAGS: (handler, admission, flags) of the row
    that argv names, the suite's admission for verify, or (_show_help, None, text).

    The flags are attributes named after them, "-" read as "_".  -h or --help answers
    with the help of the command before it.  A value that cannot be converted, a missing
    value and a flag given twice raise ValueError where they stand; an unknown word or
    flag, a missing flag, and a flag that the command or its suite does not take raise it
    once every word is read.
    """
    command, given, stray = None, {}, None
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return _show_help, None, _help(command)
        if command is None and word[:1] != "-":
            if word not in COMMANDS:
                raise ValueError(f"unknown command {word!r}, expected one of {', '.join(COMMANDS)}")
            command, (*_, required, optional) = word, COMMANDS[word]
            known = {*required, *optional}
            if command == "verify":  # any flag of any suite; --suite decides which it keeps
                for *_, needs, takes in SUITES.values():
                    known.update(needs, takes)
            continue
        flag, eq, value = word[2:].partition("=")
        if command is None or word[:2] != "--" or flag not in known:
            stray = stray or word
            continue
        convert = FLAGS.get((command, flag), FLAGS[flag])[0]
        if convert is bool:
            if eq:
                raise ValueError(f"--{flag} takes no value")
            given[flag] = True
            continue
        if not eq:
            value = next(words, None)
            if not _takes_value_from(value):
                raise ValueError(f"--{flag} expects a value")
        if convert is list:
            given.setdefault(flag, []).append(value)
            continue
        if flag in given:
            raise ValueError(f"--{flag} is given twice")
        if isinstance(convert, tuple):
            if value not in convert:
                raise ValueError(f"--{flag} expects one of {', '.join(convert)}, got {value!r}")
        elif convert is not str:
            try:
                value = convert(value)
            except ValueError:
                kind = "a positive integer" if convert is _positive_int else "an integer"
                raise ValueError(f"--{flag} expects {kind}, got {value!r}") from None
        given[flag] = value
    if command is None:
        raise ValueError(f"expected a command, one of {', '.join(COMMANDS)}")
    handler, admission, _, required, optional = COMMANDS[command]
    where = command
    if "suite" in given:
        _, admission, _, needs, optional = SUITES[given["suite"]]
        required, where = (*required, *needs), f"--suite {given['suite']}"
    missing = [flag for flag in required if flag not in given]
    if missing:
        raise ValueError(f"{where} requires --{missing[0]}")
    if stray is not None:
        raise ValueError(f"{command} does not take {stray!r}")
    foreign = [flag for flag in given if flag not in required and flag not in optional]
    if foreign:
        raise ValueError(f"{where} does not take --{foreign[0]}")
    values = {flag.replace("-", "_"): v for flag, v in {**optional, **given}.items()}
    return handler, admission, SimpleNamespace(**values)


# The advice that ends CPython's refusal to turn an int of more than
# sys.get_int_max_str_digits() digits into text (3.10 to 3.13), and what a
# user of the command line sets instead.  CPython 3.10 states that limit as
# "(4300)", 3.11 to 3.13 as "(4300 digits)"; run prints the latter everywhere.
_DIGIT_LIMIT_ADVICE = "use sys.set_int_max_str_digits() to increase the limit"
_DIGIT_LIMIT_SETTING = (
    "set the environment variable PYTHONINTMAXSTRDIGITS to a larger limit, or to 0 for none"
)


def run(argv: Sequence[str]) -> int:
    """Parse argv, admit its work, execute; the exit code is 0 ok, 1 mismatch, 2 usage."""
    try:
        handler, admission, args = parse_args(argv)
        if admission is not None:  # help builds nothing
            admission(args)
        return handler(args)
    except ValueError as exc:
        text = re.sub(r"(Exceeds the limit \(\d+)\) ", r"\1 digits) ", str(exc), count=1)
        text = text.replace(_DIGIT_LIMIT_ADVICE, _DIGIT_LIMIT_SETTING)
        print(f"error: {text}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> None:
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
