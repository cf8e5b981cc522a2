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
import time
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
from schurkit.schur import FORMULAS, p_invariant, schur_element, trace_identity_sides

import support

REFERENCE = support.ROOT / "bench" / "reference.json"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_large_m(capsys):
    code, out, err = invoke(capsys, "enumerate", "--m", "2000", "--n", "1")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 2000
    assert lines[0] == "((1);" + ";".join(["(0)"] * 1999) + ")"


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


def test_semisimple_large_prime_is_prompt(capsys):
    started = time.perf_counter()
    code, out, _ = invoke(
        capsys, "semisimple", "--m", "2", "--n", "3", "--set", "q1=0", "--set", "q2=9",
        "--mod", "1000000000000000003",
    )
    assert time.perf_counter() - started < 5
    assert code == 0
    report = json.loads(out)
    assert report["field"] == "Fp:1000000000000000003" and report["semisimple"]


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


def test_an_output_above_the_digit_limit_names_the_environment_variable():
    line = "pinv --m 2 --n 1700"
    assert "PYTHONINTMAXSTRDIGITS to a larger limit, or to 0 for none" in REFUSALS[line]
    done = support.run(*argv_of(line), PYTHONINTMAXSTRDIGITS="0")
    assert (done.returncode, done.stderr) == (0, "")
    constant = done.stdout.partition("*")[0]
    assert constant.isdigit() and len(constant) > DIGITS


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
    refusal = f"error: {REFUSALS['pinv --m 2 --n 1700']}\n"
    assert invoke(capsys, "pinv", "--m", "1", "--n", "1559") == (2, "", refusal)
    assert invoke(capsys, "semisimple", *theta, "--n", "1559") == (2, "", refusal)


# SHA-256 of 60000!, 260,635 digits, and a newline: printing it again here would take a second
_FACTORIAL_60000 = "0fe706903c7c580f20aced3252f090afde5e1ce85b546d476f5b551f3a7a92fa"


def test_printed_digits_are_work_whatever_the_digit_limit():
    """With no int-digit limit, a constant's digits are refused as work, and 2000! is printed."""
    refusals = {
        f"{_MP} [[1000000]]": "schur --multipartition needs 1 component times 1000000 nodes times"
                              " 147 thousand words, above the budget of 1875000",
        "pinv --m 1 --n 750000": "P at --m 1 --n 750000 needs 750000 factors times 215 thousand"
                                 " words, above the budget of 15000000",
    }
    for line, message in refusals.items():
        done = support.run(*argv_of(line), timeout=1, PYTHONINTMAXSTRDIGITS="0")
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        printed = {f"{_MP} [[2000]]": f"((2000)): {factorial(2000)}\n",
                   "pinv --m 1 --n 1558": f"{factorial(1558)}\n"}
    finally:
        sys.set_int_max_str_digits(before)
    for line, out in printed.items():
        done = support.run(*argv_of(line), PYTHONINTMAXSTRDIGITS="0")
        assert (done.returncode, done.stdout, done.stderr) == (0, out, "")
    # n! is charged at its own weight, 2 units per factor and thousand words, not at P's 40
    done = support.run("pinv", "--m", "1", "--n", "60000", timeout=20, PYTHONINTMAXSTRDIGITS="0")
    assert (done.returncode, len(done.stdout), done.stderr) == (0, 260_636, "")
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == _FACTORIAL_60000


def test_the_digit_limit_is_worded_as_on_python_3_11_everywhere(capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    for found in (f"({limit})", f"({limit} digits)"):  # CPython 3.10, then 3.11 to 3.13
        text = f"Exceeds the limit {found} for integer string conversion: value has 5000 digits"

        def refuse(argv):
            raise ValueError(f"{text}; use sys.set_int_max_str_digits() to increase the limit")

        monkeypatch.setattr(cli_module, "parse_args", refuse)
        expected = (f"error: Exceeds the limit ({limit} digits) for integer string conversion:"
                    f" value has 5000 digits; {_SETTING}\n")
        assert invoke(capsys, "pinv") == (2, "", expected), found


def test_a_long_symbol_finishes(capsys):
    done = support.run("schur", "--multipartition", "[[1],[]]", "--formula", "symbol",
                       "--L", "1000")
    assert (done.returncode, done.stdout, done.stderr) == (0, "((1);(0)): (q1-q2)\n", "")


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


def test_cli_module_runs_as_a_script():
    done = support.run("verify", "--suite", "hook-beta", "--size", "2")
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "checked 16 identities, 0 mismatches\n", "")


@pytest.mark.parametrize(
    "command",
    [
        # about 700 kB of output, written once: far more than a pipe buffers
        "schur --m 4 --n 6 --format json",
        # 16,790,136 rows, printed as they are enumerated, in a 1 GB address space
        "enumerate --m 3 --n 30",
    ],
)
def test_a_closed_pipe_exits_without_a_traceback(command):
    with support.start("-m", "schurkit.cli", *command.split()) as proc:
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            _, err = proc.communicate(timeout=support.TIMEOUT)
        finally:
            proc.kill()
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
    assert proc.returncode == 1


def test_the_script_writes_all_of_stdout_before_it_exits(capsys):
    argv = ["schur", "--m", "4", "--n", "6", "--format", "json"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    assert len(expected) > 400_000  # far more than a pipe buffers
    done = support.run(*argv)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == expected


def test_the_script_skips_teardown_but_not_a_traceback():
    code = (
        "import atexit, sys, schurkit.cli as cli; atexit.register(print, 'teardown');"
        " cli.main(sys.argv[1:])"
    )
    done = support.run("enumerate", "--m", "1", "--n", "1", head=("-c", code))
    assert (done.returncode, done.stdout, done.stderr) == (0, "((1))\n", "")
    code = "import schurkit.cli as cli; cli.run = lambda argv: 1 / 0; cli.main([])"
    done = support.run(head=("-c", code))
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
    # 118.8 MB when the listing was held; a flat bound, as each row is printed when enumerated
    "enumerate --m 300 --n 2": (
        "04ce6623f6fe7a109a3b9245dc991f3be9d4e8edc547fffd7d9b40a1e7b36546", 20
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("command", PEAKS)
def test_a_sweep_at_level_700_holds_a_third_of_its_old_peak(command):
    digest, bound_mb = PEAKS[command]
    done = support.run(*command.split(), head=("-S", "-c", _PEAK), timeout=60)
    assert done.returncode == 0
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest
    peak_mb = int(done.stderr) / 1024
    assert peak_mb <= bound_mb, peak_mb


@pytest.mark.slow
def test_a_vanishing_p_value_at_n_100000_is_printed():
    """P(theta) = 0 has no digits to refuse, and fr_eval's work at (2, 100000) is admitted."""
    line = "semisimple --m 2 --n 100000 --set q1=0 --set q2=1 --no-vanishing"
    done = support.run(*argv_of(line), timeout=60, PYTHONINTMAXSTRDIGITS=str(DIGITS))
    printed = '{"p_value": "0", "semisimple": false, "field": "Q"}\n'
    assert (done.returncode, done.stdout, done.stderr) == (0, printed, "")


def test_cli_import_skips_dataclasses_inspect_argparse_and_gettext():
    unwanted = "{'dataclasses', 'inspect', 'argparse', 'gettext'}"
    code = f"import sys, schurkit.cli; print(sorted({unwanted} & set(sys.modules)))"
    done = support.run(head=("-S", "-c", code))
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


BUILD_COMMANDS = [
    f"schur --m 4 --n 6 --formula {formula} --format {fmt}"
    for formula in FORMULAS
    for fmt in ("json", "latex", "text")
] + [f"pinv --m 5 --n 8 --format {fmt}" for fmt in ("json", "latex", "text")]


@pytest.mark.parametrize("command", BUILD_COMMANDS)
def test_build_workload_stdout_digests(capsys, command):
    """The schur/pinv stdout that the benchmark's build workload gates on, byte for byte."""
    digest = json.loads(REFERENCE.read_text())[command]
    code, out, err = invoke(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def readme_command_lines():
    return [line for line in (support.ROOT / "README.md").read_text().splitlines()
            if line.startswith("schurkit ")]


def readme_commands():
    return [shlex.split(line, comments=True)[1:] for line in readme_command_lines()]


def test_readme_commands_run_and_their_comments_are_their_output(capsys):
    for line, argv in zip(readme_command_lines(), readme_commands()):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, ""), line
        comment = line.partition(" # ")[2].strip()
        if comment:
            assert out.splitlines()[0] == comment, line


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

DIGITS = 4300  # CPython's default int-digit limit: the rows assume it, and their children get it
_COMMANDS = "one of enumerate, schur, pinv, verify, semisimple"
_SETTING = "set the environment variable PYTHONINTMAXSTRDIGITS to a larger limit, or to 0 for none"
_UNPRINTABLE = f"Exceeds the limit ({DIGITS} digits) for integer string conversion; {_SETTING}"
_MP = "schur --multipartition"
_CRIT = "verify --suite criterion --m 2 --n 2 --seed 1"
_TRACE = "verify --suite trace-identity"
_GRID = "grid points, above the budget of 5000000"
_P = "forms, above the budget of 750000"
_MOD = ("must exceed --n 5: n! vanishes mod p, so every specialization would be non-semisimple"
        " and only one side checked")

# argv, as a shell splits the line -> the message of the one line "error: <message>" that it
# writes to stderr.  Each exits 2 and writes nothing to stdout.  The rows of IN_CHILD join.
REFUSALS = {
    # the command and its flags
    "": f"expected a command, {_COMMANDS}",
    "bogus": f"unknown command 'bogus', expected {_COMMANDS}",
    "bogus-command": f"unknown command 'bogus-command', expected {_COMMANDS}",
    "--m 2 enumerate --m 2 --n 1": f"unknown command '2', expected {_COMMANDS}",
    "enumerate --m 2 --n 1 --bogus 1": "enumerate does not take '--bogus'",
    "enumerate --m 2 --n 1 -m 1": "enumerate does not take '-m'",
    "enumerate --m 2 --n": "--n expects a value",
    "enumerate --m 2 --n --format json": "--n expects a value",
    "enumerate --m x --n 1": "--m expects an integer, got 'x'",
    "enumerate --m= --n 1": "--m expects an integer, got ''",
    "enumerate --m 2 --n 1 --format latex": "--format expects one of json, text, got 'latex'",
    "enumerate --m 2 --n 1 --form json": "enumerate does not take '--form'",
    "enumerate --m 2 --m 3 --n 1": "--m is given twice",
    "pinv --m 2": "pinv requires --n",
    "pinv --m 2 --n 1 --format yaml": "--format expects one of json, latex, text, got 'yaml'",
    "pinv --m 2 --n 1 stray": "pinv does not take 'stray'",
    "pinv --m 2 --n 1 -3": "pinv does not take '-3'",
    "pinv --m 2 --n 1 --format json --format text": "--format is given twice",
    "schur --formula plain --m 1 --n 1":
        "--formula expects one of product, symbol, cancellation, got 'plain'",
    "schur --mult [[1],[1]]": "schur does not take '--mult'",
    "verify": "verify requires --suite",
    "verify --suite nonsense":
        "--suite expects one of three-formulas, beta-shift, x-symmetry, mu-identity, hook-beta,"
        " sm-action, integrality, trace-identity, criterion, got 'nonsense'",
    "verify --suite beta-shift --suite hook-beta": "--suite is given twice",
    "verify --suite beta-shift --size -3": "--size expects a positive integer, got '-3'",
    "verify --suite beta-shift --size x": "--size expects a positive integer, got 'x'",
    "verify --suite beta-shift --si 3": "verify does not take '--si'",
    "verify --suite mu-identity --size 0": "--size expects a positive integer, got '0'",
    f"{_CRIT} --seed 2": "--seed is given twice",
    f"{_CRIT} --trials -3": "--trials expects a positive integer, got '-3'",
    f"{_CRIT} --trials -5": "--trials expects a positive integer, got '-5'",
    f"{_CRIT} --trials 0": "--trials expects a positive integer, got '0'",
    "semisimple --m 1 --n 1 --set": "--set expects a value",
    "semisimple --m 1 --n 1 --set -q1=0": "--set expects a value",
    "semisimple --m 1 --n 1 --set q1=0 --no-vanishing=1": "--no-vanishing takes no value",
    "semisimple --m 1 --n 1 --set q1=0 --no-van": "semisimple does not take '--no-van'",
    "semisimple --m 1 --n 1 --set q1=0 --mod --format text": "--mod expects a value",
    # the flags of each verify suite
    "verify --suite sm-action": "--suite sm-action requires --m",
    "verify --suite criterion --m 2 --n 1": "--suite criterion requires --seed",
    "verify --suite criterion --m 2 --n 2": "--suite criterion requires --seed",
    "verify --suite three-formulas --m 2 --n 1 --size 3":
        "--suite three-formulas does not take --size",
    "verify --suite three-formulas --m 2 --n 1 --trials 2":
        "--suite three-formulas does not take --trials",
    "verify --suite beta-shift --m 2": "--suite beta-shift does not take --m",
    "verify --suite beta-shift --m 3": "--suite beta-shift does not take --m",
    "verify --suite x-symmetry --size 2 --seed 1": "--suite x-symmetry does not take --seed",
    "verify --suite mu-identity --trials 4": "--suite mu-identity does not take --trials",
    "verify --suite hook-beta --mod 7": "--suite hook-beta does not take --mod",
    "verify --suite sm-action --m 2 --n 1 --size 2": "--suite sm-action does not take --size",
    "verify --suite integrality --m 2 --n 1 --seed 5": "--suite integrality does not take --seed",
    f"{_TRACE} --m 2 --n 1 --trials 3": "--suite trace-identity does not take --trials",
    "verify --suite criterion --m 2 --n 1 --seed 5 --size 2":
        "--suite criterion does not take --size",
    # the bounds on m and n, refused by the library before a row is written
    **dict.fromkeys(["enumerate --m 0 --n 1", "enumerate --m 0 --n 1 --format json",
                     "schur --m 0 --n 1", "verify --suite three-formulas --m 0 --n 1",
                     "verify --suite sm-action --m 0 --n 2"], "level m must be at least 1"),
    **dict.fromkeys(["enumerate --m 2 --n -1", "schur --m 2 --n -1 --format json",
                     "verify --suite integrality --m 2 --n -1"], "size n must be non-negative"),
    **dict.fromkeys(["pinv --m 0 --n 1", "semisimple --m 0 --n 1",
                     "semisimple --m 1 --n -1 --set q1=0",
                     # P is admitted before the criterion suite builds its table
                     "verify --suite criterion --m 2 --n 0 --seed 1"],
                    "p_invariant needs m >= 1 and n >= 1"),
    # schur
    "schur": "schur needs either --multipartition or both --m and --n",
    "schur --m 2": "schur needs either --multipartition or both --m and --n",
    "schur --m 2 --n 1 --L 2": "length applies only to formula 'symbol', not 'cancellation'",
    "schur --m 2 --n 2 --formula product --L 2":
        "length applies only to formula 'symbol', not 'product'",
    "schur --m 2 --n 2 --formula symbol --L 1": "L=1 too small for a partition of length 2",
    "schur --m 2 --n 3 --formula symbol --L 1": "L=1 too small for a partition of length 2",
    f"{_MP} [[1],[]] --formula symbol --L 3872": "schur --multipartition needs 2 rows times"
        " 15000129 bit operations, above the budget of 30000000",
    f"{_MP} [[1]] --m 2": "--m 2 contradicts a multipartition with 1 component",
    f"{_MP} 'not json'": "--multipartition: not valid JSON",
    f"{_MP} '[[1],]'": "--multipartition: not valid JSON",
    f"{_MP} '[[1,],[]]'": "--multipartition: not valid JSON",
    f"{_MP} '[[1]'": "--multipartition: not valid JSON",
    f"{_MP} '[[1],[]]x'": "--multipartition: not valid JSON",
    f"{_MP} '[[1],{{}}]'": "--multipartition: a partition must be an iterable of ints, got {}",
    f"""{_MP} '[[1],"21"]'""":
        "--multipartition: a partition must be an iterable of ints, got '21'",
    f"""{_MP} '{{"0": [1]}}'""":
        "--multipartition: a multipartition must be an iterable of partitions, got {'0': [1]}",
    f"{_MP} '[[1.5]]'": "--multipartition: parts must be ints, got 1.5",
    f"{_MP} '[[true]]'": "--multipartition: parts must be ints, got True",
    f"{_MP} '[1]'": "--multipartition: a partition must be an iterable of ints, got 1",
    f"{_MP} 5": "--multipartition: a multipartition must be an iterable of partitions, got 5",
    f"{_MP} null": "--multipartition: a multipartition must be an iterable of partitions, got None",
    f"{_MP} '[[1],[true]]'": "--multipartition: parts must be ints, got True",
    # semisimple: --set and --mod
    "semisimple --m 1 --n 1 --set q1": "--set expects name=value, got 'q1'",
    "semisimple --m 1 --n 1 --set q1=x": "--set 'q1=x': not a rational value",
    "semisimple --m 1 --n 1 --set zz=1": "--set 'zz=1': name must be q<i> with 1 <= i <= 1",
    "semisimple --m 2 --n 2 --set q1=0 --set q2=3 --set q3=5":
        "--set 'q3=5': --m 2 has parameters q1..q2",
    "semisimple --m 2 --n 2 --set q1=0 --set q2=3 --set q0=5":
        "--set 'q0=5': name must be q<i> with 1 <= i <= 2",
    "semisimple --m 2 --n 2 --set q1=0 --set q2=3 --set x=3":  # there is no indeterminate x to set
        "--set 'x=3': name must be q<i> with 1 <= i <= 2",
    "semisimple --m 2 --n 2 --set q2=3 --set q1=0 --set q1=1": "--set 'q1=1': q1 is already set",
    "semisimple --m 2 --n 2 --set q2=3 --set q1=0 --set q1=0": "--set 'q1=0': q1 is already set",
    "semisimple --m 2 --n 1 --set q1=1": "missing --set for q2",
    # Fraction reads "1_0" from Python 3.11 and "1 / 2" from 3.12 on; 3.10 reads neither
    "semisimple --m 2 --n 2 --set q1=1_0 --set q2=0": "--set 'q1=1_0': not a rational value",
    "semisimple --m 2 --n 2 --set 'q1=1 / 2' --set q2=0": "--set 'q1=1 / 2': not a rational value",
    "semisimple --m 2 --n 2 --set 'q1=1/ 2' --set q2=0": "--set 'q1=1/ 2': not a rational value",
    "semisimple --m 2 --n 2 --set q1=1e1_0 --set q2=0": "--set 'q1=1e1_0': not a rational value",
    "semisimple --m 1 --n 1 --set q1=1 --mod 4": "4 is not prime",
    "semisimple --m 1 --n 1 --set q1=1 --mod 561": "561 is not prime",  # a Carmichael number
    "semisimple --m 1 --n 1 --set q1=1 --mod 3317044064679887385961981": "modulus"
        " 3317044064679887385961981 is too large: primality is decided only below"
        " 3317044064679887385961981",
    # P(theta) over Q is sized from theta.  These values pass the digit limit, as their forms
    # are close to 0, and are charged for fr_eval's products of forms of 477 words, then for
    # reducing the numerator over D^forms, D = 10^3500
    f"semisimple --m 2 --n 1000 --set q1=0 --set q2=1e-{DIGITS} --no-vanishing":
        "P(theta) at --m 2 --n 1000 needs 953523 form words times 453 numerator thousand words,"
        " above the budget of 15000000",
    "semisimple --m 2 --n 200 --set q1=0 --set q2=1e-3500 --no-vanishing":
        "P(theta) at --m 2 --n 200 needs 74 numerator thousand words times 74 denominator"
        " thousand words, above the budget of 3333",
    # the criterion suite
    f"{_CRIT} --mod 561": "561 is not prime",
    f"{_CRIT} --mod 0": "0 is not prime",
    f"{_CRIT} --mod -5": "-5 is not prime",
    "verify --suite criterion --m 2 --n 5 --seed 1 --mod 2 --trials 2": f"--mod 2 {_MOD}",
    "verify --suite criterion --m 2 --n 5 --seed 1 --mod 3 --trials 2": f"--mod 3 {_MOD}",
    "verify --suite criterion --m 2 --n 5 --seed 1 --mod 5 --trials 2": f"--mod 5 {_MOD}",
    # the trace-identity suite.  n = 0 has the single empty multipartition with s = 1, so the
    # sum is 1 for every m: not a counterexample, but no instance of the claim
    f"{_TRACE} --m 2 --n 0": "--suite trace-identity needs --n >= 1, got 0",
    f"{_TRACE} --m 2 --n -2": "--suite trace-identity needs --n >= 1, got -2",
    f"{_TRACE} --m 0 --n 1": "--suite trace-identity needs --m >= 1, got 0",
    f"{_TRACE} --m 0 --n 2": "--suite trace-identity needs --m >= 1, got 0",
    f"{_TRACE} --m -3 --n 1": "--suite trace-identity needs --m >= 1, got -3",
    f"{_TRACE} --m -3 --n 2": "--suite trace-identity needs --m >= 1, got -3",
    f"{_TRACE} --m 3 --n 11": "trace-identity at --m 3 --n 11 needs 2304 grid points times 4599"
        " summands, above the budget of 5000000",
    f"{_TRACE} --m 3 --n 12": "trace-identity at --m 3 --n 12 needs 3481 grid points times 7868"
        " summands, above the budget of 5000000",
}

# Two usage errors that show the script writes all of its stderr before it ends the process.
_SCRIPT_ROWS = ("verify --suite beta-shift --size 0", "verify --suite hook-beta --size 0")

# The rows that run in a capped child process instead: line -> (the seconds it may take, its
# message).  Each guards an input that would run away without its refusal, or is a script row.
IN_CHILD = {
    **{line: (10, "--size expects a positive integer, got '0'") for line in _SCRIPT_ROWS},
    f"{_MP} " + "[" * 100_000: (10, "--multipartition: nested deeper than 100 brackets"),
    f"{_MP} " + "[" * 3000 + "]" * 3000: (10, "--multipartition: nested deeper than 100 brackets"),
    f"{_MP} [[{'1' * 5000}]]": (10, f"--multipartition: Exceeds the limit ({DIGITS} digits) for"
                                    f" integer string conversion: value has 5000 digits;"
                                    f" {_SETTING}"),
    "pinv --m 2 --n 1700": (10, _UNPRINTABLE),  # the constant 1700! has 4,700 digits
    # sized before n! is built, which takes about 7 s at n = 750000: at m = 1 over Q, P(theta)
    # is n!, and semisimple refuses it before it enumerates the p(n) partitions of its table
    "pinv --m 1 --n 750000": (1, _UNPRINTABLE),
    "semisimple --m 1 --n 1559 --set q1=0 --no-vanishing": (1, _UNPRINTABLE),
    "semisimple --m 1 --n 1559 --set q1=0": (1, _UNPRINTABLE),
    "semisimple --m 1 --n 750000 --set q1=0": (1, _UNPRINTABLE),
    "pinv --m 1000 --n 2": (10, f"P at --m 1000 --n 2 needs 1498500 {_P}"),
    "pinv --m 100000 --n 2": (10, f"P at --m 100000 --n 2 needs 14999850000 {_P}"),
    "pinv --m 1000000000 --n 2": (10, f"P at --m 1000000000 --n 2 needs 1499999998500000000 {_P}"),
    "semisimple --m 2 --n 1000000000 --set q1=0 --set q2=1 --no-vanishing":
        (10, f"P at --m 2 --n 1000000000 needs 1999999999 {_P}"),
    "pinv --m 1 --n 1000000000": (1, f"P at --m 1 --n 1000000000 needs 1000000000 {_P}"),
    "semisimple --set q1=0 --m 1 --n 1000000000":
        (1, f"P at --m 1 --n 1000000000 needs 1000000000 {_P}"),
    "semisimple --m 1000000000 --n 2 --set q2=0":
        (10, f"P at --m 1000000000 --n 2 needs 1499999998500000000 {_P}"),
    # P(theta) over Q, sized from theta: fr_eval spent 30.6 s at n = 100000 before the digit
    # limit refused the value, and ran past 60 s at n = 375000
    "semisimple --m 2 --n 100000 --set q1=0 --set q2=1/2 --no-vanishing": (1, _UNPRINTABLE),
    "semisimple --m 2 --n 375000 --set q1=0 --set q2=1/2 --no-vanishing": (1, _UNPRINTABLE),
    "semisimple --m 2 --n 2 --set q1=1e999999999 --set q2=0":
        (10, f"--set 'q1=1e999999999': decimal exponent above the {DIGITS}-digit limit"),
    f"semisimple --m 1 --n 1 --set q1=2.5E-{DIGITS + 1}":
        (10, f"--set 'q1=2.5E-{DIGITS + 1}': decimal exponent above the {DIGITS}-digit limit"),
    f"{_TRACE} --m 6 --n 3": (5, f"trace-identity at --m 6 --n 3 needs at least 23^5 {_GRID}"),
    f"{_TRACE} --m 9 --n 1": (5, f"trace-identity at --m 9 --n 1 needs at least 8^8 {_GRID}"),
    f"{_TRACE} --m 1000 --n 1":
        (5, f"trace-identity at --m 1000 --n 1 needs at least 999^999 {_GRID}"),
    f"{_TRACE} --m 10000000 --n 1":
        (5, f"trace-identity at --m 10000000 --n 1 needs at least 9999999^9999999 {_GRID}"),
    # each ran past 30 s or out of a 1 GB address space before its work was admitted
    "schur --m 40 --n 4": (1, "schur at --m 40 --n 4 needs 158670 elements times 40 components,"
                              " above the budget of 1875000"),
    "schur --m 100000000 --n 1":
        (1, "schur at --m 100000000 --n 1 needs 100000000 elements, above the budget of 1875000"),
    "enumerate --m 100000000 --n 1": (1, "enumerate at --m 100000000 --n 1 needs 100000000"
                                         " components, above the budget of 5000000"),
    "enumerate --m 3 --n 101 --format json": (1, "enumerate at --m 3 --n 101 needs at least"
                                                 " 30167357 elements, above the budget of 30000000"),
    f"{_MP} '[[9999999999]]'": (1, "schur --multipartition needs 1 component times 9999999999"
                                   " nodes, above the budget of 1875000"),
    # the hook product of (k) is k!, sized by lgamma before it is built
    f"{_MP} '[[1000000]]'": (1, _UNPRINTABLE),
    f"{_MP} '[[100000]]'": (1, _UNPRINTABLE),
    "verify --suite sm-action --m 1000000 --n 1": (1, "sm-action at --m 1000000 --n 1 needs"
        " 1000000 elements times 1000000 components, above the budget of 3000000"),
    "verify --suite sm-action --m 9 --n 13":
        (1, "sm-action at --m 9 --n 13 needs 12994290 elements, above the budget of 3000000"),
    "verify --suite sm-action --m 2 --n 40":
        (1, "sm-action at --m 2 --n 40 needs 9035539 elements, above the budget of 3000000"),
    "verify --suite criterion --m 3 --n 20 --seed 1 --trials 1": (1, "criterion at --m 3 --n 20"
        " needs 341649 elements times 3 components times 20 nodes, above the budget of 3000000"),
    "verify --suite criterion --m 40 --n 5 --seed 1 --mod 7 --trials 2": (1, "criterion at --m 40"
        " --n 5 needs 1614048 elements times 40 components, above the budget of 3000000"),
    "verify --suite beta-shift --size 14": (1, "beta-shift at --size 14 needs at least 508^2"
                                               " partition pairs, above the budget of 200000"),
    "verify --suite x-symmetry --size 40": (1, "x-symmetry at --size 40 needs at least 684^2"
                                               " partition pairs, above the budget of 375000"),
    "semisimple --m 2 --n 30 --set q1=0 --set q2=100": (1, "semisimple at --m 2 --n 30 needs"
        " 589128 elements times 2 components times 30 nodes, above the budget of 3000000"),
    "semisimple --m 2 --n 40 --set q1=1 --set q2=3":
        (1, "semisimple at --m 2 --n 40 needs 9035539 elements, above the budget of 3000000"),
    # over F_p, P(theta) = n! mod p is cheap, but the zero-form table holds p(1559) elements
    "semisimple --m 1 --n 1559 --set q1=0 --mod 1567": (1, "semisimple at --m 1 --n 1559 needs"
                                                         " at least 3087735 elements, above the"
                                                         " budget of 3000000"),
}
REFUSALS.update((line, message) for line, (_, message) in IN_CHILD.items())

# Refusals of argv that argparse accepted: unique-prefix abbreviations and a single-valued
# flag given twice (argparse kept the last value).
NARROWED = [
    "schur --mult [[1],[1]]", "enumerate --m 2 --n 1 --form json",
    "semisimple --m 1 --n 1 --set q1=0 --no-van", "verify --suite beta-shift --si 3",
    "enumerate --m 2 --m 3 --n 1", "pinv --m 2 --n 1 --format json --format text",
    "verify --suite beta-shift --suite hook-beta", f"{_CRIT} --seed 2",
]

_THETA = "semisimple --m 2 --n 2 --set q1=1 --set q2=0"
_Q12 = '[{"c": %d, "pos": "q1", "neg": "q2"}, 1]'  # c + q1 - q2 as a JSON factor
_SEMISIMPLE = ('{"p_value": "%s", "semisimple": true, "vanishing": [], "agreement": true,'
               ' "field": "%s"}\n')

# argv -> all that it writes to stdout, with exit code 0 and nothing on stderr.  Most refusals
# have a neighbour here, the same argv without the refused flag or with an accepted value.
VALID = {
    # what each command prints in each of its formats
    "enumerate --m 2 --n 1": "((1);(0))\n((0);(1))\n",
    "enumerate --m 2 --n 1 --format json": "[[[1], []], [[], [1]]]\n",
    "schur --m 2 --n 1 --formula cancellation --format json":
        '[{"multipartition": [[1], []], "schur": {"num": "1", "den": "1", "factors": [%s]}},'
        ' {"multipartition": [[], [1]], "schur": {"num": "-1", "den": "1", "factors": [%s]}}]\n'
        % (_Q12 % 0, _Q12 % 0),
    "schur --m 2 --n 1 --format latex":
        "$((1);(0))$ & $(q_{1}-q_{2})$ \\\\\n$((0);(1))$ & $-(q_{1}-q_{2})$ \\\\\n",
    "schur --m 2 --n 1 --formula symbol --L 3": "((1);(0)): (q1-q2)\n((0);(1)): -(q1-q2)\n",
    # 2 rows times (1 + 3871)^2 bit operations, just inside the budget of 30000000
    f"{_MP} [[1],[]] --formula symbol --L 3871": "((1);(0)): (q1-q2)\n",
    f"{_MP} [[1],[1]] --format text": "((1);(1)): -(-1+q1-q2)(1+q1-q2)\n",
    "pinv --m 2 --n 1": "(q1-q2)\n",
    "pinv --m 2 --n 2 --format latex": "2*(-1+q_{1}-q_{2})(q_{1}-q_{2})(1+q_{1}-q_{2})\n",
    "pinv --m 2 --n 2 --format json":
        '{"num": "2", "den": "1", "factors": [%s, %s, %s]}\n' % (_Q12 % -1, _Q12 % 0, _Q12 % 1),
    _THETA: '{"p_value": "0", "semisimple": false,'
        ' "vanishing": [[[1, 1], []], [[1], [1]], [[], [2]]], "agreement": true, "field": "Q"}\n',
    "semisimple --m 2 --n 1 --set q1=1/2 --set q2=0 --mod 7 --format text":
        "field: Fp:7\nP(theta) = 4\nsemisimple: yes\nvanishing (0): none\nagreement: yes\n",
    "semisimple --m 2 --n 1 --set q1=0 --set q2=0 --no-vanishing":
        '{"p_value": "0", "semisimple": false, "field": "Q"}\n',
    # the summary lines that the benchmark's expand workload gates on
    f"{_TRACE} --m 2 --n 7": "checked 1 identities, 0 mismatches\n",
    f"{_TRACE} --m 3 --n 4": "checked 1 identities, 0 mismatches\n",
    "verify --suite integrality --m 4 --n 4": "checked 105 multipartitions, 0 mismatches\n",
    "enumerate --m 3 --n 2 --format json":
        "[[[2], [], []], [[1, 1], [], []], [[1], [1], []], [[1], [], [1]], [[], [2], []],"
        " [[], [1, 1], []], [[], [1], [1]], [[], [], [2]], [[], [], [1, 1]]]\n",
    "schur --m 2 --n 2 --formula symbol --L 4 --format text":
        "((2);(0)): 2*(q1-q2)(1+q1-q2)\n((1,1);(0)): 2*(-1+q1-q2)(q1-q2)\n"
        "((1);(1)): -(-1+q1-q2)(1+q1-q2)\n((0);(2)): 2*(-1+q1-q2)(q1-q2)\n"
        "((0);(1,1)): 2*(q1-q2)(1+q1-q2)\n",
    f"{_MP} [[1],[]] --m 2 --n 1": "((1);(0)): (q1-q2)\n",
    "pinv --m 1 --n 5": "120\n",
    "verify --suite three-formulas --m 2 --n 1": "checked 2 multipartitions, 0 mismatches\n",
    "verify --suite beta-shift": "checked 361 partition pairs, 0 mismatches\n",
    "verify --suite beta-shift --size 2": "checked 16 partition pairs, 0 mismatches\n",
    "verify --suite x-symmetry --size 2": "checked 16 partition pairs, 0 mismatches\n",
    "verify --suite mu-identity": "checked 42 identities, 0 mismatches\n",
    "verify --suite hook-beta": "checked 76 identities, 0 mismatches\n",
    "verify --suite sm-action --m 2 --n 1": "checked 2 multipartitions, 0 mismatches\n",
    "verify --suite sm-action --m 9 --n 1": "checked 9 multipartitions, 0 mismatches\n",
    "verify --suite integrality --m 2 --n 1": "checked 2 multipartitions, 0 mismatches\n",
    f"{_TRACE} --m 2 --n 1": "checked 1 identities, 0 mismatches\n",
    "verify --suite criterion --m 2 --n 1 --seed 5": "checked 201 specializations, 0 mismatches\n",
    "verify --suite criterion --m 2 --n 2 --seed -4 --trials 3 --mod 7":
        "checked 6 specializations, 0 mismatches\n",
    "verify --suite criterion --m 2 --n 5 --seed 1 --mod 7 --trials 2":
        "checked 5 specializations, 0 mismatches\n",
    "semisimple --m 1 --n 1 --set q1=-1/2 --no-vanishing --format text":
        "field: Q\nP(theta) = 1\nsemisimple: yes\n",
    "semisimple --m 1 --n 1 --set q1=1 --mod 2": _SEMISIMPLE % ("1", "Fp:2"),
    "semisimple --m 1 --n 1 --set q1=1 --mod 101": _SEMISIMPLE % ("1", "Fp:101"),
    "semisimple --m 2 --n 2 --set q1=0 --set q2=5 --mod 11": _SEMISIMPLE % ("2", "Fp:11"),
    "semisimple --m 2 --n 2 --set q1=0 --set q2=3": _SEMISIMPLE % ("-48", "Q"),
    "semisimple --m 2 --n 2 --set q2=3 --set q1=1": _SEMISIMPLE % ("-12", "Q"),
    "semisimple --m 2 --n 2 --set 'q1= 1/2 ' --set q2=0 --no-vanishing":
        '{"p_value": "-3/4", "semisimple": true, "field": "Q"}\n',
    # an exponent at the limit itself is read, as an int of that many digits is
    f"semisimple --m 2 --n 2 --set q1=1e{DIGITS} --set q2=1e{DIGITS} --no-vanishing":
        '{"p_value": "0", "semisimple": false, "field": "Q"}\n',
    f"{_THETA} --format latex": "Q & 0 & no & ((1,1);(0)), ((1);(1)), ((0);(2)) & yes \\\\\n",
    f"{_THETA} --format latex --no-vanishing": "Q & 0 & no & - & - \\\\\n",
    f"{_THETA} --format text": "field: Q\nP(theta) = 0\nsemisimple: no\n"
        "vanishing (3): ((1,1);(0)), ((1);(1)), ((0);(2))\nagreement: yes\n",
    f"{_THETA} --format text --no-vanishing --mod 7": "field: Fp:7\nP(theta) = 0\nsemisimple: no\n",
}


@functools.cache
def argv_of(line):
    """The words of a row, as a shell splits them."""
    return tuple(shlex.split(line))


def row_id(line):
    return f"{line[:40]}... ({len(line)} characters)" if len(line) > 100 else line or "(no words)"


@pytest.fixture
def digit_limit():
    """Run the test in-process under the int-digit limit that the rows assume."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGITS)
    yield
    sys.set_int_max_str_digits(before)


# The refusals that the library makes while a handler builds: the symbol route's --L, which
# schur_element checks row by row.  Every other refusal comes before the handler runs.
REFUSED_WHILE_BUILT = [
    "schur --m 2 --n 1 --L 2", "schur --m 2 --n 2 --formula product --L 2",
    "schur --m 2 --n 2 --formula symbol --L 1", "schur --m 2 --n 3 --formula symbol --L 1",
]


@pytest.mark.parametrize("line", REFUSALS, ids=row_id)
def test_every_refusal_prints_exactly_its_row(capsys, monkeypatch, digit_limit, line):
    """Exit 2, nothing on stdout, the row on stderr, and nothing built before the refusal."""
    expected = (2, "", f"error: {REFUSALS[line]}\n")
    if line in IN_CHILD:
        seconds = IN_CHILD[line][0]
        done = support.run(*argv_of(line), timeout=seconds, PYTHONINTMAXSTRDIGITS=str(DIGITS))
        assert (done.returncode, done.stdout, done.stderr) == expected
        return
    monkeypatch.setattr(cli_module, "schur_elements_table", lambda m, n: pytest.fail("built"))
    monkeypatch.setattr(schur_module, "num_standard_tableaux", lambda mp: pytest.fail("built"))
    if line not in REFUSED_WHILE_BUILT:
        for table in (cli_module.COMMANDS, SUITES):
            for name, (_, *rest) in list(table.items()):
                monkeypatch.setitem(table, name, (lambda args: pytest.fail("handled"), *rest))
    assert invoke(capsys, *argv_of(line)) == expected


@pytest.mark.parametrize("line", VALID, ids=row_id)
def test_every_valid_argv_prints_exactly_its_row(capsys, digit_limit, line):
    assert invoke(capsys, *argv_of(line)) == (0, VALID[line], "")


# work -> the argv just inside its budget and the argv just past it.  Most of these runs take
# seconds or hundreds of MB, so only their admission runs here; VALID and REFUSALS hold the
# symbol route's edge, whose run is cheap.
BUDGET_EDGES = {
    "P": ("pinv --m 707 --n 2", "pinv --m 708 --n 2"),
    "trace-identity": (f"{_TRACE} --m 2 --n 23", f"{_TRACE} --m 2 --n 24"),
    "schur": ("schur --m 1875000 --n 0", "schur --m 1875001 --n 0"),
    "enumerate json": ("enumerate --m 30000000 --n 0 --format json",
                       "enumerate --m 30000001 --n 0 --format json"),
    "enumerate row": ("enumerate --m 5000000 --n 0", "enumerate --m 5000001 --n 0"),
    "pooled partitions": ("enumerate --m 1 --n 55", "enumerate --m 1 --n 56"),
    "sweeps": ("verify --suite sm-action --m 3000000 --n 0",
               "verify --suite sm-action --m 3000001 --n 0"),
    "criterion trials": ("verify --suite criterion --m 2 --n 1 --seed 1 --trials 499998",
                         "verify --suite criterion --m 2 --n 1 --seed 1 --trials 499999"),
    "semisimple table": ("semisimple --m 2 --n 22 --set q1=0 --set q2=1",
                         "semisimple --m 2 --n 23 --set q1=0 --set q2=1"),
    "beta-shift": ("verify --suite beta-shift --size 13", "verify --suite beta-shift --size 14"),
    "x-symmetry": ("verify --suite x-symmetry --size 14", "verify --suite x-symmetry --size 15"),
    "mu-identity": ("verify --suite mu-identity --size 37", "verify --suite mu-identity --size 38"),
    # fr_eval's work on P(theta) over Q; P(theta) = 0, so the digit limit refuses neither
    "P(theta)": ("semisimple --m 2 --n 101351 --set q1=0 --set q2=1 --no-vanishing",
                 "semisimple --m 2 --n 101352 --set q1=0 --set q2=1 --no-vanishing"),
}


def admission_of(argv):
    """The admission of the row that argv names, bound to its flags, without its command."""
    _, admission, args = cli_module.parse_args(argv)
    return functools.partial(admission, args)


@pytest.mark.parametrize("work", BUDGET_EDGES)
def test_each_budget_admits_its_edge_and_refuses_one_past_it(digit_limit, work):
    inside, outside = BUDGET_EDGES[work]
    admission_of(argv_of(inside))()
    with pytest.raises(ValueError, match=", above the budget of "):
        admission_of(argv_of(outside))()


def test_p_values_are_sized_between_their_bounds(monkeypatch):
    """Each pair's span, prod_{|d|<n} |d + x|, is sized in closed form to a millionth of its
    exact log10, and its products |d| + x from above.  The digits that semisimple's admission
    then reads for P(theta) are 0 exactly when P(theta) = 0, else log10 |P(theta)| less at
    most two, and never above the digits of the printed numerator."""
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
                        charged.append(digits and digits()))
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

# Value pools: small, negative, huge and malformed ints, JSON multipartitions and --set tokens.
# The slow variant adds the sizes between small and huge, whose admitted runs take seconds.
GENERATED_INTS = ("0", "1", "2", "3", "7", "-1", "-7", "9999999999", "1" + "0" * 40, "x", "",
                  "1.5", "2e3", "0x10")
GENERATED_SIZES = ("13", "40", "101")
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


def _generated_argvs(count, ints):
    """count argv drawn by hypothesis: from the flag tables, and one-token changes of VALID rows."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tokens = (*ints, *GENERATED_MPS, *GENERATED_SETS, *SUITES, "--bogus", "-h", "json",
              *(f"--{flag}" for flag in cli_module.FLAGS if isinstance(flag, str)))

    def values(command, flag):
        convert = cli_module.FLAGS.get((command, flag), cli_module.FLAGS[flag])[0]
        if isinstance(convert, tuple):
            return st.sampled_from((*convert, "bogus"))
        if convert is str:
            return st.sampled_from(GENERATED_MPS)
        return st.sampled_from(GENERATED_SETS if convert is list else ints)

    @st.composite
    def from_tables(draw):
        command = draw(st.sampled_from(list(cli_module.COMMANDS)))
        *_, required, optional = cli_module.COMMANDS[command]
        words, flags = [command], [*required, *optional]
        if command == "verify":
            suite = draw(st.sampled_from(list(SUITES)))
            *_, needs, takes = SUITES[suite]
            words, flags = ["verify", "--suite", suite], [*needs, *takes]
        groups = []
        for flag in flags:
            if draw(st.integers(0, 3)) == 0 and flag not in required:
                continue
            convert = cli_module.FLAGS.get((command, flag), cli_module.FLAGS[flag])[0]
            repeats = draw(st.integers(0, 3)) if convert is list else 1
            for _ in range(repeats):
                groups.append([f"--{flag}"] if convert is bool else
                              [f"--{flag}", draw(values(command, flag))])
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
        done = support.run(corpus_file, head=("-S", "-c", _GENERATED_RUNNER),
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
    _check_generated(tmp_path, _generated_argvs(200, GENERATED_INTS), batch=200)


@pytest.mark.slow
def test_generated_argv_keep_the_exit_code_contract_further(tmp_path):
    ints = GENERATED_INTS + GENERATED_SIZES
    _check_generated(tmp_path, _generated_argvs(2000, ints), batch=100)


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


def _run_in_one_child(python, corpus_file, timeout=support.TIMEOUT):
    """[exit code, stdout, stderr] of each argv in corpus_file, all run in one python -S child."""
    done = support.run(corpus_file, python=python, head=("-S", "-c", _CORPUS_RUNNER),
                       timeout=timeout, **_CHILD_ENV)
    assert (done.returncode, done.stderr) == (0, ""), (python, done.stderr)
    return json.loads(done.stdout)


def _run_everywhere_corpus(python, corpus_file):
    """_run_in_one_child's results, then those of README's doctests run under python -S."""
    doctests = support.run("README.md", python=python, head=("-S", "-m", "doctest"),
                           timeout=support.TIMEOUT, **_CHILD_ENV)
    return (_run_in_one_child(python, corpus_file)
            + [[doctests.returncode, doctests.stdout, doctests.stderr]])


# sm-action at m = 9 walks the m generators of S_m, not its m! permutations (over 60 s), and the
# trace-identity grid is refused before it is built.  All of them answer within 5 s together.
LARGE_M = ["verify --suite sm-action --m 9 --n 1", f"{_TRACE} --m 6 --n 3", f"{_TRACE} --m 9 --n 1",
           f"{_TRACE} --m 1000 --n 1", f"{_TRACE} --m 10000000 --n 1"]


def test_large_m_suites_answer_at_once(tmp_path):
    corpus_file = tmp_path / "argv.json"
    corpus_file.write_text(json.dumps([argv_of(line) for line in LARGE_M]))
    expected = [[0, VALID[LARGE_M[0]], ""]]
    expected += [[2, "", f"error: {REFUSALS[line]}\n"] for line in LARGE_M[1:]]
    assert _run_in_one_child(sys.executable, corpus_file, timeout=5) == expected


@pytest.fixture(scope="module")
def everywhere_reference(tmp_path_factory):
    """The corpus every supported Python must print alike, its file, and the running one's bytes."""
    with pytest.MonkeyPatch.context() as patch:
        menus = menu_commands(patch)
    corpus = readme_commands() + menus + [list(argv_of(line)) for line in (*VALID, *REFUSALS)]
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
    accepted = readme_commands() + menu_commands(monkeypatch) + [argv_of(line) for line in VALID]
    assert len(readme_commands()) >= 8
    corpus = accepted + [equals_spelling(argv) for argv in accepted]
    for argv in corpus:
        verdict, parsed = oracle_parse(argv)
        assert verdict == "ok", argv
        assert table_parse(argv) == parsed, argv
    for line in REFUSALS:
        if line in NARROWED:
            assert oracle_parse(argv_of(line))[0] == "ok", line
            continue
        for argv in (argv_of(line), equals_spelling(argv_of(line))):
            verdict, parsed = oracle_parse(argv)
            if verdict == "ok":  # refused by the handler, not the parser
                assert table_parse(argv) == parsed, argv
            else:
                assert verdict == "error", argv
        if line not in IN_CHILD or line in _SCRIPT_ROWS:  # no runaway input in-process
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
