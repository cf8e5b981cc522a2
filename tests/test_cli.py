"""CLI surface: subcommands, exit codes, determinism, JSON round trips."""

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import shlex
import shutil
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path
from types import SimpleNamespace

import pytest

import schurkit.cli as cli_module
import schurkit.schur as schur_module
import schurkit.semisimple as semisimple_module
from schurkit.cli import SUITES, format_output, mp_text, run
from schurkit.exact import (
    FactoredRational,
    NotAPolynomialError,
    Specialization,
    fr_eval,
    fr_expand,
    fr_form,
)
from schurkit.partitions import (
    beta_set,
    enumerate_multipartitions,
    multipartition,
    partitions_of,
)
from schurkit.schur import p_invariant, schur_element, trace_identity_sides

import contract
import support
from contract import DIGITS, REFUSALS, SCRIPT_ROWS, SETTING, UNPRINTABLE, VALID


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_counterexample_exits_one(capsys, monkeypatch):
    def broken(args):
        yield [{"broken": True}]

    monkeypatch.setitem(SUITES, "three-formulas", (broken, None, "things", (), {}))
    code, out, _ = invoke(capsys, "verify", "--suite", "three-formulas")
    assert code == 1
    lines = out.splitlines()
    assert json.loads(lines[0]) == {"broken": True}
    assert lines[1] == "checked 1 things, 1 mismatches"


def test_determinism_byte_identical(capsys):
    for line in ("schur --m 3 --n 2 --format json",
                 "verify --suite criterion --m 2 --n 1 --seed 11 --trials 5"):
        assert invoke(capsys, *argv_of(line)) == invoke(capsys, *argv_of(line))


def test_format_output_rejects_unknown_type():
    with pytest.raises(TypeError):
        format_output(object(), "text")


def test_mp_text():
    assert mp_text(((3, 1), ())) == "((3,1);(0))"
    assert mp_text(((),)) == "((0))"


def test_semisimple_no_vanishing_evaluates_p_once(capsys, monkeypatch):
    calls = []
    real = cli_module.fr_eval

    def counting(value, theta):
        calls.append(value)
        return real(value, theta)

    monkeypatch.setattr(cli_module, "fr_eval", counting)
    monkeypatch.setattr(semisimple_module, "fr_eval", counting)
    code, out, _ = invoke(
        capsys, "semisimple", "--m", "3", "--n", "2", "--set", "q1=0",
        "--set", "q2=1", "--set", "q3=5", "--no-vanishing",
    )
    assert code == 0
    assert json.loads(out) == {"p_value": "0", "semisimple": False, "field": "Q"}
    assert len(calls) == 1


def test_verify_help_lists_every_suite_with_its_unit_and_flags(capsys):
    code, out, _ = invoke(capsys, "verify", "--help")
    assert code == 0
    assert "  beta-shift      partition pairs: [--size 5]\n" in out
    assert "  criterion       specializations: --m --n --seed [--trials 100] [--mod]\n" in out
    for name, (_, _, unit, _, _) in SUITES.items():
        assert f"  {name:<15} {unit}: " in out


def test_schur_rejects_non_array_component():
    # the CLI prints multipartition's own refusal of valid JSON that is not a multipartition
    for raw in ('[[1],{}]', '[[1],"21"]', '{"0": [1]}', '[[1.5]]', '[[true]]', '[1]', '5', 'null',
                '[[1],[true]]'):
        with pytest.raises(ValueError) as info:
            multipartition(json.loads(raw))
        line = f"schur --multipartition {shlex.quote(raw)}"
        assert REFUSALS[line] == f"--multipartition: {info.value}", raw


def test_pinv_prints_n_factorial_up_to_the_digit_limit(capsys, monkeypatch, digit_limit):
    """1558! has 4,300 digits and is printed; 1559! has 4,303 and is refused unbuilt.

    At m = 1 over Q, semisimple prints P(theta) = n! and is held to the same limit.
    """
    assert invoke(capsys, "pinv", "--m", "1", "--n", "1558") == (0, f"{factorial(1558)}\n", "")
    theta = ("--m", "1", "--set", "q1=0")
    report = {"p_value": str(factorial(1558)), "semisimple": True, "field": "Q"}
    printed = f"{json.dumps(report)}\n"
    assert invoke(capsys, "semisimple", *theta, "--n", "1558", "--no-vanishing") == (0, printed, "")
    monkeypatch.setattr(cli_module, "p_invariant", lambda m, n: pytest.fail("built"))
    monkeypatch.setattr(cli_module, "cross_check_criterion", lambda *args: pytest.fail("built"))
    refusal = f"error: {UNPRINTABLE}\n"
    assert invoke(capsys, "pinv", "--m", "1", "--n", "1559") == (2, "", refusal)
    assert invoke(capsys, "semisimple", *theta, "--n", "1559") == (2, "", refusal)


def test_the_digit_limit_is_worded_as_on_python_3_11_everywhere(capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    for found in (f"({limit})", f"({limit} digits)"):  # CPython 3.10, then 3.11 to 3.13
        text = f"Exceeds the limit {found} for integer string conversion: value has 5000 digits"

        def refuse(argv):
            raise ValueError(f"{text}; use sys.set_int_max_str_digits() to increase the limit")

        monkeypatch.setattr(cli_module, "parse_args", refuse)
        expected = (f"error: Exceeds the limit ({limit} digits) for integer string conversion:"
                    f" value has 5000 digits; {SETTING}\n")
        assert invoke(capsys, "pinv") == (2, "", expected), found


def test_the_multipartition_is_parsed_once(capsys, monkeypatch):
    calls = []
    real = cli_module.multipartition
    monkeypatch.setattr(cli_module, "multipartition", lambda data: calls.append(data) or real(data))
    assert invoke(capsys, "schur", "--multipartition", "[[2,1],[1]]")[0] == 0
    assert calls == [[[2, 1], [1]]]
    assert invoke(capsys, "schur", "--m", "2", "--n", "2")[0] == 0
    assert len(calls) == 1


def test_schur_refusals_are_the_librarys():
    with pytest.raises(ValueError) as info:
        schur_element(((2,), ()), "product", 2)
    assert REFUSALS["schur --m 2 --n 2 --formula product --L 2"] == str(info.value)
    # every row is built before one is printed: ((2,1);(0)) is the first too long for L = 1
    with pytest.raises(ValueError) as info:
        beta_set((2, 1), 1)
    assert REFUSALS["schur --m 2 --n 3 --formula symbol --L 1"] == str(info.value)


def test_verify_fails_when_nothing_checked(capsys, monkeypatch):
    monkeypatch.setitem(SUITES, "three-formulas", (lambda args: iter(()), None, "things", (), {}))
    assert invoke(capsys, "verify", "--suite", "three-formulas") == (
        2, "", "error: --suite three-formulas checked no things\n"
    )


def test_trace_identity_mismatch_record(capsys, monkeypatch):
    true_count = schur_module.num_standard_tableaux
    wrong = list(enumerate_multipartitions(3, 3))[4]
    monkeypatch.setattr(
        schur_module, "num_standard_tableaux", lambda mp: true_count(mp) + (mp == wrong)
    )
    difference = trace_identity_sides(3, 3).to_json()
    code, out, err = invoke(capsys, "verify", "--suite", "trace-identity", "--m", "3", "--n", "3")
    assert (code, err) == (1, "")
    record, summary = out.splitlines()
    assert json.loads(record) == {"m": 3, "n": 3, "difference": difference}
    # the record's exact bytes, so that any change to its encoding shows
    digest = "a6714b8160903a21d6745f9694c7ce48a5b88a448fd703b920fead4454d0e61d"
    assert hashlib.sha256(record.encode()).hexdigest() == digest
    assert summary == "checked 1 identities, 1 mismatches"


def test_integrality_mismatch_records(capsys, monkeypatch):
    negative, fractional, too_long = enumerate_multipartitions(3, 1)
    half = FactoredRational(Fraction(1, 2), {}) * fr_form(1, 1, 2)
    corrupted = {
        negative: fr_form(0, 1, 3, exp=-1),
        fractional: half,
        too_long: fr_form(2, 2, 3, exp=3),
    }
    monkeypatch.setattr(cli_module, "schur_element", lambda mp: corrupted[mp])
    with pytest.raises(NotAPolynomialError) as info:
        fr_expand(half, 3)
    code, out, err = invoke(capsys, "verify", "--suite", "integrality", "--m", "3", "--n", "1")
    assert (code, err) == (1, "")
    *records, summary = out.splitlines()
    assert [json.loads(line) for line in records] == [
        {"multipartition": [[1], [], []], "check": "negative exponent"},
        {"multipartition": [[], [1], []], "check": str(info.value)},
        {"multipartition": [[], [], [1]], "check": "degree 3 > 2"},
    ]
    assert summary == "checked 3 multipartitions, 3 mismatches"


@pytest.mark.parametrize(
    "command",
    [
        # about 456 kB of output, written once: far more than a pipe buffers
        "schur --m 4 --n 6 --format json",
        # 16,790,136 rows, printed as they are enumerated, in a 1 GB address space
        "enumerate --m 3 --n 30",
    ],
)
def test_a_closed_pipe_exits_without_a_traceback(command):
    with support.start(*command.split()) as proc:
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            _, err = proc.communicate(timeout=support.TIMEOUT)
        finally:
            proc.kill()
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
    assert proc.returncode == 1


def test_the_script_skips_teardown_but_not_a_traceback():
    code = (
        "import atexit, sys, schurkit.cli as cli; atexit.register(print, 'teardown');"
        " cli.main(sys.argv[1:])"
    )
    done = support.run("enumerate", "--m", "1", "--n", "1", prefix=(sys.executable, "-c", code))
    assert (done.returncode, done.stdout, done.stderr) == (0, "((1))\n", "")
    code = "import schurkit.cli as cli; cli.run = lambda argv: 1 / 0; cli.main([])"
    done = support.run(prefix=(sys.executable, "-c", code))
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("Traceback") and done.stderr.endswith("ZeroDivisionError: division by zero\n")


# Runs cli.run on the argv that follows, then writes the process's own peak resident size,
# VmHWM, in KiB, to stderr.  It is read inside the child: the ru_maxrss that the parent reaps
# also counts the parent's resident size, which the child inherits at fork.
_PEAK = (
    "import sys, schurkit.cli as cli; code = cli.run(sys.argv[1:]); sys.stdout.flush();"
    " status = open('/proc/self/status').read();"
    " print(status.split('VmHWM:')[1].split()[0], file=sys.stderr); sys.exit(code)"
)


# command -> (SHA-256 of its stdout, bound on its peak in MB), each bound well below the
# command's peak before the change that set it.
PEAKS = {
    # 81.7 MB when every linear form was interned
    "verify --suite three-formulas --m 700 --n 1": (
        hashlib.sha256(b"checked 700 multipartitions, 0 mismatches\n").hexdigest(), 27.2
    ),
    # 205.7 MB when the sweep held every element and every row's JSON text
    "schur --m 700 --n 1 --format json": (
        "264bc1a57333501028136ced2f2e16b6f5b02e1fba64810ecc45182b4a03b397", 175
    ),
    # a MemoryError in the 1 GB address space when its lists were built before json.dumps
    "enumerate --m 300 --n 2 --format json": (
        "d29d7045b5beacf1f090459fe43519ed4418071dfd96a68410d3d18fe70d229c", 170
    ),
    # 168.4 MB when a sweep of two components memoized every pair tally
    "verify --suite three-formulas --m 2 --n 20": (
        hashlib.sha256(b"checked 24842 multipartitions, 0 mismatches\n").hexdigest(), 56
    ),
    # 118.8 MB when the listing was held; a flat bound, as each row is printed when enumerated
    "enumerate --m 300 --n 2": (
        "04ce6623f6fe7a109a3b9245dc991f3be9d4e8edc547fffd7d9b40a1e7b36546", 20
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("command", PEAKS)
def test_a_sweep_at_level_700_holds_a_third_of_its_old_peak(command):
    digest, bound_mb = PEAKS[command]
    done = support.run(*command.split(), prefix=(sys.executable, "-S", "-c", _PEAK), timeout=60)
    assert done.returncode == 0
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest
    peak_mb = int(done.stderr) / 1024
    assert peak_mb <= bound_mb, peak_mb


def test_cli_import_skips_dataclasses_inspect_argparse_gettext_typing_and_random():
    unwanted = "{'dataclasses', 'inspect', 'argparse', 'gettext', 'typing', 'random'}"
    code = f"import sys, schurkit.cli; print(sorted({unwanted} & set(sys.modules)))"
    done = support.run(prefix=(sys.executable, "-S", "-c", code))
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# ------------------------------------ parity with the argparse parser it replaced


@functools.cache
def oracle_parser():
    """The argparse parser that the flag table replaced, as a reference sharing no code with it."""

    def positive_int(raw):
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value < 1:
            raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
        return value

    parser = argparse.ArgumentParser(prog="schurkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("schur")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--multipartition")
    p.add_argument("--formula", choices=("product", "symbol", "cancellation"), default="cancellation")
    p.add_argument("--L", type=int)
    p.add_argument("--format", choices=("json", "latex", "text"), default="text")

    p = sub.add_parser("pinv")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "latex", "text"), default="text")

    p = sub.add_parser("verify")
    p.add_argument("--suite", choices=sorted(ORACLE_SUITES), required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--size", type=positive_int)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=positive_int)
    p.add_argument("--mod", type=int)

    p = sub.add_parser("semisimple")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", action="append")
    p.add_argument("--mod", type=int)
    p.add_argument("--no-vanishing", dest="vanishing", action="store_false")
    p.add_argument("--format", choices=("json", "latex", "text"), default="json")
    return parser


# suite -> (required flags, optional flags with their defaults), as verify checked them
ORACLE_SUITES = {
    "three-formulas": (("m", "n"), {}),
    "beta-shift": ((), {"size": 5}),
    "x-symmetry": ((), {"size": 5}),
    "mu-identity": ((), {"size": 5}),
    "hook-beta": ((), {"size": 5}),
    "sm-action": (("m", "n"), {}),
    "integrality": (("m", "n"), {}),
    "trace-identity": (("m", "n"), {}),
    "criterion": (("m", "n", "seed"), {"trials": 100, "mod": None}),
}


def oracle_parse(argv):
    """("help", None), ("error", None) or ("ok", (command, the attributes its handler reads))."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(oracle_parser().parse_args(argv))
        except SystemExit as exc:
            return ("help" if exc.code == 0 else "error"), None
    command = args.pop("command")
    if command == "verify":
        required, optional = ORACLE_SUITES[args["suite"]]
        for flag in ("m", "n", "size", "seed", "trials", "mod"):
            given = args[flag] is not None
            if flag in required and not given:
                return "error", None
            if not given and flag in optional:
                args[flag] = optional[flag]
            elif given and flag not in required and flag not in optional:
                return "error", None
        args = {flag: args[flag] for flag in ("suite", *required, *optional)}
    if command == "semisimple":
        args["set"] = args["set"] or []
        args["no_vanishing"] = not args.pop("vanishing")
    return "ok", (command, args)


def table_parse(argv):
    """(command, attributes) as the flag table reads argv, for an argv it accepts."""
    handler, _, args = cli_module.parse_args(argv)
    (command,) = [name for name, entry in cli_module.COMMANDS.items() if entry[0] is handler]
    args = vars(args)
    if "set" in args:
        args["set"] = list(args["set"])
    return command, args


def menu_commands(monkeypatch):
    """One round of every benchmark workload, as the seed 1 plan draws it."""
    spec = importlib.util.spec_from_file_location("schurkit_bench_workloads",
                                                  support.ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses looks itself up there
    spec.loader.exec_module(workloads)
    reference = workloads.load_reference()
    return [list(op.argv) for name in workloads.WORKLOADS
            for op in workloads.plan(name, 1, 0, reference)[0]]


# -------------------------------------------- every refusal and every valid argv, exactly


# Refusals of argv that argparse accepted: unique-prefix abbreviations and a single-valued
# flag given twice (argparse kept the last value).
NARROWED = [
    "schur --mult [[1],[1]]", "enumerate --m 2 --n 1 --form json", "enumerate --m 2 --m 3 --n 1",
    "semisimple --m 1 --n 1 --set q1=0 --no-van", "verify --suite beta-shift --si 3",
    "pinv --m 2 --n 1 --format json --format text", "verify --suite beta-shift --suite hook-beta",
    "verify --suite criterion --m 2 --n 2 --seed 1 --seed 2",
]


@functools.cache
def argv_of(line):
    """The words of a row, as a shell splits them."""
    return tuple(shlex.split(line))


def row_id(row):
    line = row.line
    return f"{line[:40]}... ({len(line)} characters)" if len(line) > 100 else line or "(no words)"


@pytest.fixture
def digit_limit():
    """Run the test in-process under the int-digit limit that the rows assume."""
    with contract.digit_limit(DIGITS):
        yield


# The refusals that the library makes while a handler builds: the symbol route's --L, which
# schur_element checks row by row.  Every other refusal comes before the handler runs.
REFUSED_WHILE_BUILT = [
    "schur --m 2 --n 1 --L 2", "schur --m 2 --n 2 --formula product --L 2",
    "schur --m 2 --n 2 --formula symbol --L 1", "schur --m 2 --n 3 --formula symbol --L 1",
]


@pytest.mark.parametrize("row", contract.REFUSED_ROWS, ids=row_id)
def test_every_refusal_prints_exactly_its_row(monkeypatch, row):
    """Exit 2, nothing on stdout, the row on stderr, and nothing built before the refusal."""
    monkeypatch.setattr(cli_module, "schur_elements_table", lambda m, n: pytest.fail("built"))
    monkeypatch.setattr(schur_module, "num_standard_tableaux", lambda mp: pytest.fail("built"))
    if row.line not in REFUSED_WHILE_BUILT:
        for table in (cli_module.COMMANDS, SUITES):
            for name, (_, *rest) in list(table.items()):
                monkeypatch.setitem(table, name, (lambda args: pytest.fail("handled"), *rest))
    assert contract.check_in_process(row, run) == ""


@pytest.mark.parametrize("row", contract.VALID_ROWS, ids=row_id)
def test_every_valid_argv_prints_exactly_its_row(row):
    assert contract.check_in_process(row, run) == ""


def test_no_argv_is_a_row_twice():
    """So no row runs twice in tier-1: each is checked by the one test of its table."""
    rows = [(argv_of(row.line), row.digits) for row in contract.ROWS]
    assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("row", contract.CHILD_ROWS, ids=lambda row: f"{row_id(row)} ({row.digits})")
def test_every_child_row_holds_in_its_own_process(row):
    assert contract.check(row, support.CLI) == ""


@pytest.mark.slow
def test_every_row_holds_through_main_in_its_own_child():
    """Each row through main(), which flushes stdout and skips teardown, in python -S."""
    prefix = (sys.executable, "-S", "-m", "schurkit.cli")
    failed = [report for row in contract.ROWS if (report := contract.check(row, prefix))]
    assert not failed, "\n".join(failed)


def admission_of(argv):
    """The admission of the row that argv names, bound to its flags, without its command."""
    _, admission, args = cli_module.parse_args(argv)
    return functools.partial(admission, args)


@pytest.mark.parametrize("work", contract.BUDGET_EDGES)
def test_each_budget_admits_its_edge_and_refuses_one_past_it(work):
    inside, outside = contract.BUDGET_EDGES[work]
    with contract.digit_limit(inside.digits):
        admission_of(argv_of(inside.line))()
        with pytest.raises(ValueError, match=", above the budget of "):
            admission_of(argv_of(outside))()


@pytest.mark.slow
@pytest.mark.parametrize("work", contract.BUDGET_EDGES)
def test_each_budget_edge_runs_in_its_own_child(work):
    """The inside edge as its own python -S child, within its row's 90 s and support's caps."""
    inside, _ = contract.BUDGET_EDGES[work]
    assert contract.check(inside, (sys.executable, "-S", "-m", "schurkit.cli")) == ""


def test_p_values_are_sized_between_their_bounds(monkeypatch):
    """Each pair's span, prod_{|d|<n} |d + x|, is sized in closed form to a millionth of its
    exact log10, and its products |d| + x from above.  The digits that semisimple's admission
    then reads for P(theta) are 0 exactly when P(theta) = 0, else log10 |P(theta)| less at
    most two, and never above the digits of the printed numerator; at m = 2, those of its
    reduced denominator are at most its log10, and at least that less the digits of n!."""
    near = [Fraction(1, 10**30), Fraction(1, 2), Fraction(1, 3), Fraction(-1, 10**30)]
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        for x in {k + f for k in (0, 1, n - 1, n, n + 1, 7 * n, 10**40) for f in near} - {0}:
            if x < 0:
                continue
            exact = math.prod(abs(d + x) for d in range(1 - n, n))
            log_exact = math.log10(exact.numerator) - math.log10(exact.denominator)
            assert abs(cli_module._log10_span(x, n) - log_exact) < 1e-6 * (1 + abs(log_exact))
            above = math.prod(abs(d) + x for d in range(1 - n, n))
            assert math.log10(above.numerator) - math.log10(above.denominator) <= (
                cli_module._log10_span_above(x, n) + 1e-9), (x, n)
    charged = []
    monkeypatch.setattr(cli_module, "admit", lambda where, weight, *factors, digits=None:
                        digits and charged.append(digits()))
    rng = random.Random(5)
    values = [0, 1, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(5, 1001), Fraction(1, 10**30),
              Fraction(10**25 + 1, 7), 10**40]
    for _ in range(100):
        m, n = rng.choice((2, 2, 3)), rng.randint(1, 30)
        theta = Specialization({s: rng.choice(values) + rng.randint(-40, 40) for s in range(1, m + 1)})
        charged.clear()
        cli_module._admit_p_value(SimpleNamespace(m=m, n=n), theta)
        value = fr_eval(p_invariant(m, n), theta)
        if value == 0:
            assert charged[0] == 0, theta
        else:
            log_value = math.log10(abs(value.numerator)) - math.log10(value.denominator)
            assert log_value - 2 < charged[0] <= math.log10(abs(value.numerator)), theta
            if m == 2:  # the reduced denominator's digits, from below, within those of n!
                log_den = math.log10(value.denominator)
                assert charged[-1] <= log_den <= charged[-1] + math.log10(factorial(n)) + 2, theta


def test_the_counts_that_admission_reads_match_brute_force():
    """Elements, forms per element, P's forms and partition pairs, against the oracles."""
    within = schur_module.multipartitions_within
    for m in range(1, 5):
        for n in range(7):
            mps = list(support.multipartitions(m, n))
            assert within(m, n, 10**9) == len(mps), (m, n)
            for cap in range(len(mps)):  # below the count: the count, or a bound above the cap
                got = within(m, n, cap)
                assert got == len(mps) or cap < int(got) < len(mps), (m, n, cap)
            # an element's forms, with multiplicity, are the nodes of lam^s against each t != s:
            # at most the components times the nodes that a sweep charges it
            for mp in mps:
                forms = sum(len(support.nodes(lam)) for lam in mp) * (m - 1)
                assert sum(schur_element(mp).factors.values()) == forms <= m * max(n, 1), mp
            if n:
                forms = [(i, j, d) for i in range(m) for j in range(i + 1, m) for d in range(1 - n, n)]
                assert schur_module.p_invariant_work(m, n)[2] == ("forms", len(forms) or n)
    for size in range(8):
        parts = sum(len(support.partitions(k)) for k in range(size + 1))
        assert schur_module.partitions_within(size, 10**9) == parts
        assert cli_module._pairs(size)[1](10**9) == parts**2


# ------------------------------------------------- generated argv: the exit-code contract

# Token pools for one-token changes of VALID rows, with the sizes that from_tables draws:
# small, negative, huge and malformed ints, JSON multipartitions and --set tokens.
GENERATED_INTS = ("0", "1", "2", "3", "7", "-1", "-7", "9999999999", "1" + "0" * 40, "x", "",
                  "1.5", "2e3", "0x10")
GENERATED_MPS = ("[[1],[]]", "[[2,1],[1]]", "[[]]", "[]", "[[1,2]]", "[[-1]]", "[[1.5]]", "null",
                 "[[1]", '{"0": [1]}', "[[9999999999]]", "[[100000]]", "[" * 200,
                 "[[" + "1" * 5000 + "]]")
GENERATED_SETS = ("q1=0", "q2=1/2", "q3=-3", "q1=2.5", "q1", "q0=1", "x=1", "q1=x",
                  "q1=1e999999999", f"q2=1e{DIGITS}")
ANSWER_SECONDS = 45  # the budget's 30 s, with room for a loaded host

# Runs every argv of the JSON list in the file argv[1] through schurkit.cli.run in this one
# process and prints, for each, [exit code or the exception that escaped, stdout length,
# stderr, seconds, streamed].  Only enumerate's text is streamed: it is cut after 64 kB as a
# reader that closes the pipe cuts it.  Stdout is counted, not kept.
_GENERATED_RUNNER = """
import contextlib, io, json, sys, time
import schurkit.cli as cli
class Counted(io.TextIOBase):
    def __init__(self, cut):
        self.size, self.cut = 0, cut
    def write(self, text):
        self.size += len(text)
        if self.size > self.cut:
            raise BrokenPipeError
        return len(text)
with open(sys.argv[1]) as corpus:
    argvs = json.load(corpus)
results = []
for argv in argvs:
    try:
        handler, _, args = cli.parse_args(argv)
        streamed = handler is cli._cmd_enumerate and args.format == "text"
    except ValueError:
        streamed = False
    out, err = Counted(65536 if streamed else float("inf")), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except BrokenPipeError if streamed else ():
        code = "cut"
    except BaseException as exc:
        code = repr(exc)[:300]
    results.append([code, out.size, err.getvalue(), time.perf_counter() - started, streamed])
print(json.dumps(results))
"""


def _generated_argvs(count, sizes):
    """count argv drawn by hypothesis: from the flag tables, and one-token changes of VALID rows."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tokens = (*GENERATED_INTS, *sizes, *GENERATED_MPS, *GENERATED_SETS, *SUITES, "--bogus", "-h",
              "json", *(f"--{flag}" for flag in cli_module.FLAGS if isinstance(flag, str)))

    @st.composite
    def from_tables(draw):
        """A command or suite with its required flags and most optional ones, each with a value
        that it accepts: --set names each parameter of the drawn --m once, --multipartition
        has the drawn --m and --n, and --L follows --formula symbol."""
        command = draw(st.sampled_from(list(cli_module.COMMANDS)))
        *_, required, optional = cli_module.COMMANDS[command]
        words = [command]
        if command == "verify":
            suite = draw(st.sampled_from(list(SUITES)))
            *_, required, optional = SUITES[suite]
            words += ["--suite", suite]
        given, groups = {}, []
        for flag in [*required, *optional]:
            convert = cli_module.FLAGS.get((command, flag), cli_module.FLAGS[flag])[0]
            m, n = int(given.get("m", 1)), int(given.get("n", 1))
            if flag == "L" and given.get("formula") != "symbol":
                continue
            if convert is list:
                groups += [[f"--{flag}", f"q{s}={draw(st.sampled_from(('0', '1/2', '-3')))}"]
                           for s in range(1, m + 1)]
            elif flag in required or draw(st.integers(0, 3)):
                given[flag] = (draw(st.sampled_from(convert)) if isinstance(convert, tuple)
                               else json.dumps([[n]] + [[]] * (m - 1)) if convert is str
                               else draw(st.sampled_from(("7", "101") if flag == "mod" else sizes)))
                groups.append([f"--{flag}"] if convert is bool else [f"--{flag}", given[flag]])
        groups = draw(st.permutations(groups))
        return words + [word for group in groups for word in group]

    @st.composite
    def changed_row(draw):
        argv = list(argv_of(draw(st.sampled_from(list(VALID)))))
        i = draw(st.integers(0, len(argv) - 1))
        token = draw(st.sampled_from(tokens))
        change = draw(st.sampled_from(("replace", "insert", "delete")))
        if change == "delete":
            return argv[:i] + argv[i + 1:]
        return argv[:i] + [token] + argv[i + (change == "replace"):]

    drawn = []

    @hypothesis.settings(max_examples=count, deadline=None, derandomize=True, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(argv=st.one_of(from_tables(), changed_row()))
    def draw(argv):
        drawn.append(argv)

    draw()
    return drawn


def _check_generated(tmp_path, argvs, batch):
    """Each argv exits 0, 1 or 2 with no exception, a refusal as one error line and nothing
    on stdout, and each answers within ANSWER_SECONDS unless it streams enumerate's text."""
    for start in range(0, len(argvs), batch):
        corpus = argvs[start:start + batch]
        corpus_file = tmp_path / f"argv{start}.json"
        corpus_file.write_text(json.dumps(corpus))
        done = support.run(corpus_file, prefix=(sys.executable, "-S", "-c", _GENERATED_RUNNER),
                           timeout=support.TIMEOUT, **_CHILD_ENV)
        assert (done.returncode, done.stderr) == (0, ""), done.stderr[-2000:]
        for argv, (code, out_size, err, seconds, streamed) in zip(corpus, json.loads(done.stdout)):
            line = shlex.join(argv)[:200]
            assert code in (0, 1, 2) or (code == "cut" and streamed), (line, code, err)
            if code == 2:
                assert out_size == 0 and err.startswith("error: "), (line, out_size, err)
                assert err.count("\n") == 1 and err.endswith("\n"), (line, err)
            assert streamed or seconds < ANSWER_SECONDS, (line, seconds)


def test_generated_argv_keep_the_exit_code_contract(tmp_path):
    _check_generated(tmp_path, _generated_argvs(200, ("1", "2", "3")), batch=200)


@pytest.mark.slow
def test_generated_argv_keep_the_exit_code_contract_further(tmp_path):
    sizes = ("1", "2", "3", "13", "40", "101")  # and those whose admitted runs take seconds
    _check_generated(tmp_path, _generated_argvs(2000, sizes), batch=100)


HELP_REQUESTS = [
    ["-h"], ["--help"], ["--bogus", "-h"], ["enumerate", "--help"], ["schur", "-h"],
    ["pinv", "--m", "2", "-h"], ["verify", "--help"], ["verify", "--suite", "criterion", "-h"],
    ["semisimple", "--set", "q1=0", "--help"], ["enumerate", "--bogus", "--help"],
]


def _installed_pythons():
    """{"3.10": path to python3, ...} for the CPython 3.10-3.13 versions installed here.

    pyenv keeps them under $PYENV_ROOT, ~/.pyenv unless set; a version that pyenv lacks
    is looked up as python3.X on PATH, where actions/setup-python puts it.
    """
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = {}
    for version in sorted(root.glob("versions/3.1[0-3]*")):
        found.setdefault(".".join(version.name.split(".")[:2]), version / "bin" / "python3")
    for minor in ("3.10", "3.11", "3.12", "3.13"):
        if minor not in found and (path := shutil.which(f"python{minor}")):
            found[minor] = Path(path)
    return found


# Runs every argv of the JSON list in the file argv[1] through schurkit.cli.run, in this one
# process, and prints the [exit code, stdout, stderr] of each as one JSON list.
_CORPUS_RUNNER = """
import contextlib, io, json, sys
import schurkit.cli as cli
with open(sys.argv[1]) as corpus:
    argvs = json.load(corpus)
results = []
for argv in argvs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


_CHILD_ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
              "PYTHONINTMAXSTRDIGITS": str(DIGITS)}


def _run_in_one_child(python, corpus_file):
    """[exit code, stdout, stderr] of each argv in corpus_file, all run in one python -S child."""
    done = support.run(corpus_file, prefix=(python, "-S", "-c", _CORPUS_RUNNER),
                       timeout=support.TIMEOUT, **_CHILD_ENV)
    assert (done.returncode, done.stderr) == (0, ""), (python, done.stderr)
    return json.loads(done.stdout)


def _run_everywhere_corpus(python, corpus_file):
    """_run_in_one_child's results, then those of README's doctests run under python -S."""
    doctests = support.run("README.md", prefix=(python, "-S", "-m", "doctest"),
                           timeout=support.TIMEOUT, **_CHILD_ENV)
    return (_run_in_one_child(python, corpus_file)
            + [[doctests.returncode, doctests.stdout, doctests.stderr]])


@pytest.fixture(scope="module")
def everywhere_reference(tmp_path_factory):
    """The corpus every supported Python must print alike, its file, and the running one's bytes."""
    with pytest.MonkeyPatch.context() as patch:
        menus = menu_commands(patch)
    corpus = menus + [list(argv_of(row.line)) for row in contract.ROWS]
    corpus_file = tmp_path_factory.mktemp("corpus") / "argv.json"
    corpus_file.write_text(json.dumps(corpus))
    return corpus, corpus_file, _run_everywhere_corpus(sys.executable, corpus_file)


@pytest.mark.slow
@pytest.mark.parametrize("minor", ["3.10", "3.11", "3.12", "3.13"])
def test_every_installed_python_prints_the_same_bytes(minor, everywhere_reference):
    if minor == "{}.{}".format(*sys.version_info):
        pytest.skip(f"CPython {minor} is the running interpreter")
    python = _installed_pythons().get(minor)
    if python is None or not python.exists():
        pytest.skip(f"CPython {minor} is neither under pyenv nor on PATH")
    corpus, corpus_file, expected = everywhere_reference
    got = _run_everywhere_corpus(python, corpus_file)
    assert len(corpus) >= 185 and len(got) == len(expected) == len(corpus) + 1
    runs = [shlex.join(argv)[:100] for argv in corpus] + ["python -m doctest README.md"]
    differ = [entry for entry, a, b in zip(runs, got, expected) if a != b]
    assert not differ, (minor, differ)


def equals_spelling(argv):
    """argv with every `--flag value` written as `--flag=value`."""
    out, words = [], iter(argv)
    for word in words:
        if word.startswith("--") and "=" not in word and word != "--no-vanishing":
            word = f"{word}={next(words, '')}"
        out.append(word)
    return out


def test_the_flag_table_reads_every_argv_as_the_argparse_parser_did(capsys, monkeypatch):
    accepted = menu_commands(monkeypatch) + [
        argv_of(row.line) for row in contract.ROWS if row.code == 0]
    corpus = accepted + [equals_spelling(argv) for argv in accepted]
    for argv in corpus:
        verdict, parsed = oracle_parse(argv)
        assert verdict == "ok", argv
        assert table_parse(argv) == parsed, argv
    for line in [row.line for row in contract.ROWS if row.code == 2]:
        if line in NARROWED:
            assert oracle_parse(argv_of(line))[0] == "ok", line
            continue
        for argv in (argv_of(line), equals_spelling(argv_of(line))):
            verdict, parsed = oracle_parse(argv)
            if verdict == "ok":  # refused by the handler, not the parser
                assert table_parse(argv) == parsed, argv
            else:
                assert verdict == "error", argv
        if line in REFUSALS or line in SCRIPT_ROWS:  # no runaway input in-process
            code, out, err = invoke(capsys, *equals_spelling(argv_of(line)))
            assert (code, out) == (2, "") and err.startswith("error: "), line
            assert err.count("\n") == 1, (line, err)
    for argv in HELP_REQUESTS:
        assert oracle_parse(argv)[0] == "help", argv
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: schurkit "), argv


# ---------------------------------------------- one forced mismatch per suite


def assert_one_record(capsys, argv, record, summary):
    """The suite prints exactly this JSON record and summary line, and exits 1."""
    code, out, err = invoke(capsys, "verify", "--suite", *argv)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [json.loads(line) for line in lines[:-1]] == [record]
    assert lines[-1] == summary


def test_three_formulas_mismatch_record(capsys, monkeypatch):
    target = ((), (1,))
    wrong = FactoredRational(2, {}) * schur_element(target, "cancellation")
    real = cli_module.schur_element

    def corrupted(mp, formula="cancellation", length=None):
        if (mp, formula) == (target, "product"):
            return wrong
        return real(mp, formula, length)

    monkeypatch.setattr(cli_module, "schur_element", corrupted)
    assert_one_record(
        capsys, ["three-formulas", "--m", "2", "--n", "1"],
        {
            "multipartition": [[], [1]],
            "formula": "product",
            "value": wrong.to_json(),
            "cancellation": schur_element(target, "cancellation").to_json(),
        },
        "checked 2 multipartitions, 1 mismatches",
    )


def test_beta_shift_mismatch_records(capsys, monkeypatch):
    real_y, real_z = cli_module.y_kernel, cli_module.z_kernel
    # Y wrong only at L = 4 for ((1), ()): the shift from L = 3 fails, nothing else
    monkeypatch.setattr(
        cli_module, "y_kernel",
        lambda lam, mu, L: FactoredRational(2, {}) * real_y(lam, mu, L)
        if (lam, mu, L) == ((1,), (), 4) else real_y(lam, mu, L),
    )
    assert_one_record(
        capsys, ["beta-shift", "--size", "1"],
        {"pair": [[1], []], "check": "shift:L=3"},
        "checked 4 partition pairs, 1 mismatches",
    )
    monkeypatch.setattr(cli_module, "y_kernel", real_y)
    monkeypatch.setattr(
        cli_module, "z_kernel",
        lambda lam, mu: FactoredRational(2 if (lam, mu) == ((), (1,)) else 1, {}) * real_z(lam, mu),
    )
    assert_one_record(
        capsys, ["beta-shift", "--size", "1"],
        {"pair": [[], [1]], "check": "x=z"},
        "checked 4 partition pairs, 1 mismatches",
    )


@pytest.mark.parametrize(
    "suite, verifier, bad_case, record, summary",
    [
        ("x-symmetry", "verify_x_symmetry", ((1,), ()),
         {"pair": [[1], []], "check": "x-symmetry"}, "checked 4 partition pairs, 1 mismatches"),
        ("mu-identity", "verify_mu_identity", ((2,), 2),
         {"mu": [2], "ell": 2}, "checked 4 identities, 1 mismatches"),
        ("hook-beta", "verify_hook_beta_identity", ((1,), 3),
         {"partition": [1], "L": 3}, "checked 8 identities, 1 mismatches"),
    ],
)
def test_identity_suite_mismatch_records(capsys, monkeypatch, suite, verifier, bad_case,
                                         record, summary):
    real = getattr(cli_module, verifier)
    monkeypatch.setattr(cli_module, verifier, lambda *case: case != bad_case and real(*case))
    size = "2" if suite == "mu-identity" else "1"
    assert_one_record(capsys, [suite, "--size", size], record, summary)


def test_hook_beta_suite_reads_the_symbol_routes_row_constant(capsys, monkeypatch):
    real = schur_module._row_constant
    # a corrupted symbol route: every row holding the beta number 3 doubles its factorials
    monkeypatch.setattr(
        schur_module, "_row_constant",
        lambda row: (2 * real(row)[0], real(row)[1]) if 3 in row else real(row),
    )
    cases = [(lam, L) for k in range(4) for lam in partitions_of(k) for L in range(len(lam), len(lam) + 4)]
    expected = [{"partition": list(lam), "L": L} for lam, L in cases if 3 in beta_set(lam, L)]
    code, out, err = invoke(capsys, "verify", "--suite", "hook-beta", "--size", "3")
    *records, summary = out.splitlines()
    assert (code, err) == (1, "")
    assert expected and [json.loads(line) for line in records] == expected
    assert summary == f"checked {len(cases)} identities, {len(expected)} mismatches"


def test_x_symmetry_suite_goes_through_the_s_m_action(capsys, monkeypatch):
    # with the swap (1 2) read as the identity, X_{lam mu}(x) == X_{mu lam}(x) fails
    monkeypatch.setattr(schur_module, "apply_permutation", lambda sigma, value: value)
    code, _, err = invoke(capsys, "verify", "--suite", "x-symmetry", "--size", "3")
    assert (code, err) == (1, "")


def test_sm_action_mismatch_record(capsys, monkeypatch):
    target = schur_element(((1,), ()))
    real = cli_module.apply_permutation
    monkeypatch.setattr(
        cli_module, "apply_permutation",
        lambda sigma, value: FactoredRational(2, {}) * real(sigma, value)
        if (tuple(sigma), value) == ((2, 1), target) else real(sigma, value),
    )
    assert_one_record(
        capsys, ["sm-action", "--m", "2", "--n", "1"],
        {"multipartition": [[1], []], "sigma": [2, 1]},
        "checked 2 multipartitions, 1 mismatches",
    )


@pytest.mark.parametrize(
    "broken_call, record",
    [
        # calls: one trial over Q, one over F_101, then the factorial,
        # nonnegative-offset and negative-offset cases
        (1, {"field": "Fp:101", "theta": {"q1": "69", "q2": "16"},
             "report": {"p_value": "1", "semisimple": True, "vanishing": [],
                        "agreement": False, "field": "Fp:101"}}),
        (3, {"case": "nonnegative-offset", "field": "Q", "witness": [[2], []],
             "report": {"p_value": "0", "semisimple": False, "vanishing": [],
                        "agreement": True, "field": "Q"}}),
    ],
)
def test_criterion_mismatch_records(capsys, monkeypatch, broken_call, record):
    real = cli_module.cross_check_criterion
    calls = []

    def corrupted(m, n, theta, index=None):
        report = real(m, n, theta, index)
        calls.append(theta)
        if len(calls) - 1 != broken_call:
            return report
        # drop the vanishing list; a report that had none loses its agreement instead
        agreement = report.agreement if report.vanishing else not report.agreement
        return semisimple_module.SemisimplicityReport(
            p_value=report.p_value, semisimple=report.semisimple, vanishing=[],
            agreement=agreement, field=report.field,
        )

    monkeypatch.setattr(cli_module, "cross_check_criterion", corrupted)
    assert_one_record(
        capsys, ["criterion", "--m", "2", "--n", "2", "--seed", "3", "--trials", "1"],
        record, "checked 5 specializations, 1 mismatches",
    )
    assert len(calls) == 5
