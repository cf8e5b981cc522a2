"""CLI surface: subcommands, exit codes, determinism, JSON round trips."""

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import resource
import shlex
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import schurkit.cli as cli_module
import schurkit.schur as schur_module
import schurkit.semisimple as semisimple_module
from schurkit.cli import SUITES, format_output, mp_text, run
from schurkit.exact import (
    MAX_MODULUS,
    FactoredRational,
    NotAPolynomialError,
    fr_const,
    fr_expand,
    fr_form,
)
from schurkit.partitions import beta_set, enumerate_multipartitions, multipartition_count, partitions_of
from schurkit.schur import FORMULAS, p_invariant, schur_element, trace_identity_sides

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "bench" / "reference.json"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pinv_text(capsys):
    code, out, err = invoke(capsys, "pinv", "--m", "2", "--n", "1")
    assert (code, out, err) == (0, "(q1-q2)\n", "")


def test_pinv_latex_and_json(capsys):
    code, out, _ = invoke(capsys, "pinv", "--m", "2", "--n", "2", "--format", "latex")
    assert code == 0
    assert out == "2*(-1+q_{1}-q_{2})(q_{1}-q_{2})(1+q_{1}-q_{2})\n"
    code, out, _ = invoke(capsys, "pinv", "--m", "2", "--n", "2", "--format", "json")
    assert FactoredRational.from_json(json.loads(out)) == p_invariant(2, 2)


def test_enumerate_text_and_json(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--m", "2", "--n", "1")
    assert code == 0
    assert out == "((1);(0))\n((0);(1))\n"
    code, out, _ = invoke(capsys, "enumerate", "--m", "2", "--n", "1", "--format", "json")
    assert json.loads(out) == [[[1], []], [[], [1]]]


def test_enumerate_large_m(capsys):
    code, out, err = invoke(capsys, "enumerate", "--m", "2000", "--n", "1")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 2000
    assert lines[0] == "((1);" + ";".join(["(0)"] * 1999) + ")"


def test_schur_sweep_json_round_trip(capsys):
    code, out, _ = invoke(
        capsys, "schur", "--m", "2", "--n", "1", "--formula", "cancellation",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 2
    for record in records:
        mp = tuple(tuple(lam) for lam in record["multipartition"])
        parsed = FactoredRational.from_json(record["schur"])
        assert parsed == schur_element(mp, "cancellation")


def test_schur_single_multipartition(capsys):
    code, out, _ = invoke(
        capsys, "schur", "--multipartition", "[[1],[1]]", "--format", "text"
    )
    assert code == 0
    assert out == "((1);(1)): -(-1+q1-q2)(1+q1-q2)\n"


def test_schur_latex_rows(capsys):
    code, out, _ = invoke(capsys, "schur", "--m", "2", "--n", "1", "--format", "latex")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "$((1);(0))$ & $(q_{1}-q_{2})$ \\\\"
    assert lines[1].endswith("\\\\")


def test_schur_symbol_formula_with_l(capsys):
    code, out, _ = invoke(
        capsys, "schur", "--m", "2", "--n", "1", "--formula", "symbol", "--L", "3"
    )
    assert code == 0
    assert "((1);(0)): (q1-q2)" in out


def test_schur_usage_errors(capsys):
    assert invoke(capsys, "schur")[0] == 2
    assert invoke(capsys, "schur", "--m", "2")[0] == 2
    assert invoke(capsys, "schur", "--m", "2", "--n", "1", "--L", "2")[0] == 2
    assert invoke(capsys, "schur", "--multipartition", "not json")[0] == 2
    assert invoke(capsys, "schur", "--multipartition", "[[1]]", "--m", "2")[0] == 2
    code, _, err = invoke(
        capsys, "schur", "--m", "2", "--n", "2", "--formula", "symbol", "--L", "1"
    )
    assert code == 2 and "--L 1" in err


def test_argparse_usage_exit_code(capsys):
    assert invoke(capsys, "bogus-command")[0] == 2
    assert invoke(capsys)[0] == 2
    assert invoke(capsys, "pinv", "--m", "2")[0] == 2


def test_verify_three_formulas_summary(capsys):
    code, out, err = invoke(
        capsys, "verify", "--suite", "three-formulas", "--m", "2", "--n", "3"
    )
    assert (code, err) == (0, "")
    assert out == "checked 10 multipartitions, 0 mismatches\n"


def test_verify_pair_suites(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "beta-shift", "--size", "2")
    assert code == 0
    assert out == "checked 16 partition pairs, 0 mismatches\n"
    code, out, _ = invoke(capsys, "verify", "--suite", "x-symmetry", "--size", "2")
    assert code == 0 and "0 mismatches" in out


def test_verify_identity_suites(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "mu-identity", "--size", "4")
    assert code == 0 and out.endswith("identities, 0 mismatches\n")
    code, out, _ = invoke(capsys, "verify", "--suite", "hook-beta", "--size", "4")
    assert code == 0 and out.endswith("identities, 0 mismatches\n")


def test_verify_multipartition_suites(capsys):
    for suite in ("sm-action", "integrality", "trace-identity"):
        code, out, _ = invoke(capsys, "verify", "--suite", suite, "--m", "2", "--n", "2")
        assert code == 0, suite
        assert "0 mismatches" in out
    assert invoke(capsys, "verify", "--suite", "sm-action")[0] == 2


def test_verify_criterion_requires_seed(capsys):
    code, _, err = invoke(capsys, "verify", "--suite", "criterion", "--m", "2", "--n", "1")
    assert code == 2 and "--seed" in err


def test_verify_criterion_runs(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--suite", "criterion", "--m", "2", "--n", "2",
        "--seed", "5", "--trials", "10",
    )
    assert code == 0
    # 10 per field (Q and F101) plus the three targeted failure cases
    assert out == "checked 23 specializations, 0 mismatches\n"


def test_verify_counterexample_exits_one(capsys, monkeypatch):
    def broken(args):
        yield [{"broken": True}]

    monkeypatch.setitem(SUITES, "three-formulas", (broken, "things", (), {}))
    code, out, _ = invoke(capsys, "verify", "--suite", "three-formulas")
    assert code == 1
    lines = out.splitlines()
    assert json.loads(lines[0]) == {"broken": True}
    assert lines[1] == "checked 1 things, 1 mismatches"


def test_semisimple_report_json(capsys):
    code, out, _ = invoke(
        capsys, "semisimple", "--m", "2", "--n", "2", "--set", "q1=1", "--set", "q2=0"
    )
    assert code == 0
    assert json.loads(out) == {
        "p_value": "0",
        "semisimple": False,
        "vanishing": [[[1, 1], []], [[1], [1]], [[], [2]]],
        "agreement": True,
        "field": "Q",
    }


def test_semisimple_modular_and_rational_values(capsys):
    code, out, _ = invoke(
        capsys, "semisimple", "--m", "2", "--n", "1", "--set", "q1=1/2",
        "--set", "q2=0", "--mod", "7", "--format", "text",
    )
    assert code == 0
    assert "field: Fp:7" in out and "semisimple: yes" in out


def test_semisimple_no_vanishing_flag(capsys):
    code, out, _ = invoke(
        capsys, "semisimple", "--m", "2", "--n", "1", "--set", "q1=0",
        "--set", "q2=0", "--no-vanishing",
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"p_value": "0", "semisimple": False, "field": "Q"}


def test_semisimple_usage_errors(capsys):
    assert invoke(capsys, "semisimple", "--m", "2", "--n", "1", "--set", "q1=1")[0] == 2
    assert invoke(
        capsys, "semisimple", "--m", "1", "--n", "1", "--set", "q1=x"
    )[0] == 2
    assert invoke(
        capsys, "semisimple", "--m", "1", "--n", "1", "--set", "q1=1", "--mod", "4"
    )[0] == 2
    assert invoke(
        capsys, "semisimple", "--m", "1", "--n", "1", "--set", "zz=1"
    )[0] == 2


def test_determinism_byte_identical(capsys):
    argv = ["schur", "--m", "3", "--n", "2", "--format", "json"]
    first = invoke(capsys, *argv)
    second = invoke(capsys, *argv)
    assert first == second
    argv = ["verify", "--suite", "criterion", "--m", "2", "--n", "1",
            "--seed", "11", "--trials", "5"]
    assert invoke(capsys, *argv) == invoke(capsys, *argv)


def test_format_output_rejects_unknown_type():
    with pytest.raises(TypeError):
        format_output(object(), "text")


def test_mp_text():
    assert mp_text(((3, 1), ())) == "((3,1);(0))"
    assert mp_text(((),)) == "((0))"


def usage_error(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2, argv
    assert out == "" and "error" in err and "Traceback" not in err, argv
    return err


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


def test_semisimple_modulus_primality(capsys):
    argv = ("semisimple", "--m", "1", "--n", "1", "--set", "q1=1")
    assert "561 is not prime" in usage_error(capsys, *argv, "--mod", "561")  # Carmichael
    assert invoke(capsys, *argv, "--mod", "2")[0] == 0
    assert invoke(capsys, *argv, "--mod", "101")[0] == 0
    assert "too large" in usage_error(capsys, *argv, "--mod", str(MAX_MODULUS))
    for mod in ("561", "0", "-5"):
        err = usage_error(capsys, "verify", "--suite", "criterion", "--m", "2", "--n", "2",
                          "--seed", "1", "--mod", mod)
        assert f"{mod} is not prime" in err


def test_criterion_refuses_a_modulus_at_most_n(capsys, monkeypatch):
    # n! vanishes mod p <= n, so every drawn theta would land on the non-semisimple side
    monkeypatch.setattr(cli_module, "schur_elements_table", lambda m, n: pytest.fail("built"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mod in ("2", "3", "5"):
            err = usage_error(capsys, "verify", "--suite", "criterion", "--m", "2", "--n", "5",
                              "--seed", "1", "--mod", mod, "--trials", "2")
            assert err == (
                f"error: --mod {mod} must exceed --n 5: n! vanishes mod p, so every"
                " specialization would be non-semisimple and only one side checked\n"
            )
    monkeypatch.undo()
    code, out, _ = invoke(capsys, "verify", "--suite", "criterion", "--m", "2", "--n", "5",
                          "--seed", "1", "--mod", "7", "--trials", "2")
    assert (code, out) == (0, "checked 5 specializations, 0 mismatches\n")


def test_verify_rejects_nonpositive_size(capsys):
    assert "--size" in usage_error(capsys, "verify", "--suite", "beta-shift", "--size", "-3")
    assert "--size" in usage_error(capsys, "verify", "--suite", "mu-identity", "--size", "0")


@pytest.mark.parametrize(
    "suite, given, foreign",
    [
        ("three-formulas", ["--m", "2", "--n", "1"], ["--size", "3"]),
        ("beta-shift", [], ["--m", "3"]),
        ("x-symmetry", ["--size", "2"], ["--seed", "1"]),
        ("mu-identity", [], ["--trials", "4"]),
        ("hook-beta", [], ["--mod", "7"]),
        ("sm-action", ["--m", "2", "--n", "1"], ["--size", "2"]),
        ("integrality", ["--m", "2", "--n", "1"], ["--seed", "5"]),
        ("trace-identity", ["--m", "2", "--n", "1"], ["--trials", "3"]),
        ("criterion", ["--m", "2", "--n", "1", "--seed", "5"], ["--size", "2"]),
    ],
)
def test_verify_rejects_a_flag_the_suite_does_not_take(capsys, suite, given, foreign):
    argv = ("verify", "--suite", suite, *given)
    assert invoke(capsys, *argv)[0] == 0
    err = usage_error(capsys, *argv, *foreign)
    assert f"--suite {suite} does not take {foreign[0]}" in err


def test_verify_help_lists_every_suite_with_its_unit_and_flags(capsys):
    code, out, _ = invoke(capsys, "verify", "--help")
    assert code == 0
    assert "  beta-shift      partition pairs: [--size 5]\n" in out
    assert "  criterion       specializations: --m --n --seed [--trials 100] [--mod]\n" in out
    for name, (_, unit, _, _) in SUITES.items():
        assert f"  {name:<15} {unit}: " in out


def test_verify_rejects_nonpositive_trials(capsys):
    for trials in ("-5", "0"):
        err = usage_error(capsys, "verify", "--suite", "criterion", "--m", "2", "--n", "2",
                          "--seed", "1", "--trials", trials)
        assert "--trials" in err


def test_semisimple_rejects_parameter_beyond_m(capsys):
    argv = ("semisimple", "--m", "2", "--n", "2", "--set", "q1=0", "--set", "q2=3")
    assert "q3" in usage_error(capsys, *argv, "--set", "q3=5")
    usage_error(capsys, *argv, "--set", "q0=5")


def test_semisimple_rejects_x(capsys):
    # there is no indeterminate x to assign: every value is in q1..qm only
    argv = ("semisimple", "--m", "2", "--n", "2", "--set", "q1=0", "--set", "q2=3")
    assert "'x=3'" in usage_error(capsys, *argv, "--set", "x=3")
    assert invoke(capsys, *argv)[0] == 0


def test_semisimple_rejects_a_repeated_name(capsys):
    argv = ("semisimple", "--m", "2", "--n", "2", "--set", "q2=3")
    err = usage_error(capsys, *argv, "--set", "q1=0", "--set", "q1=1")
    assert "q1 is already set" in err
    usage_error(capsys, *argv, "--set", "q1=0", "--set", "q1=0")
    assert invoke(capsys, *argv, "--set", "q1=1")[0] == 0


def _capped(*argv):
    """Run the CLI in a fresh process under a 1 GB address space, for at most 10 s."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "schurkit.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=10,
    )


def test_semisimple_names_the_first_missing_parameter_of_a_huge_level():
    done = _capped("semisimple", "--m", "1000000000", "--n", "2", "--set", "q2=0")
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: missing --set for q1\n")


def test_semisimple_refuses_a_decimal_exponent_beyond_the_digit_limit(capsys):
    done = _capped("semisimple", "--m", "2", "--n", "2", "--set", "q1=1e999999999", "--set", "q2=0")
    limit = sys.get_int_max_str_digits()
    expected = f"error: --set 'q1=1e999999999': decimal exponent above the {limit}-digit limit\n"
    assert (done.returncode, done.stdout, done.stderr) == (2, "", expected)
    assert "decimal exponent" in usage_error(
        capsys, "semisimple", "--m", "1", "--n", "1", "--set", f"q1=2.5E-{limit + 1}"
    )
    # the exponent at the limit itself is still read, as an int of that many digits is
    code, out, _ = invoke(
        capsys, "semisimple", "--m", "2", "--n", "2", "--set", f"q1=1e{limit}",
        "--set", f"q2=1e{limit}", "--no-vanishing",
    )
    assert (code, json.loads(out)["p_value"]) == (0, "0")


def test_schur_rejects_non_array_component(capsys):
    for raw in ('[[1],{}]', '[[1],"21"]', '{"0": [1]}', '[[1.5]]', '[[true]]', '[1]'):
        assert "--multipartition" in usage_error(capsys, "schur", "--multipartition", raw), raw


def test_verify_fails_when_nothing_checked(capsys, monkeypatch):
    monkeypatch.setitem(SUITES, "three-formulas", (lambda args: iter(()), "things", (), {}))
    assert "checked no things" in usage_error(capsys, "verify", "--suite", "three-formulas")


def test_trace_identity_rejects_empty_size(capsys):
    # n = 0 has the single empty multipartition with s = 1, so the sum
    # is 1 for every m: not a counterexample, but no instance of the claim
    for n in ("0", "-2"):
        err = usage_error(capsys, "verify", "--suite", "trace-identity", "--m", "2", "--n", n)
        assert "--n" in err


def test_trace_identity_rejects_a_level_below_one(capsys):
    for m in ("0", "-3"):
        for n in ("1", "2"):
            err = usage_error(capsys, "verify", "--suite", "trace-identity", "--m", m, "--n", n)
            assert err == "error: level m must be at least 1\n", (m, n)


def test_trace_identity_mismatch_record(capsys, monkeypatch):
    true_count = schur_module.num_standard_tableaux
    wrong = list(enumerate_multipartitions(3, 3))[4]
    monkeypatch.setattr(
        schur_module, "num_standard_tableaux", lambda mp: true_count(mp) + (mp == wrong)
    )
    got, expected = trace_identity_sides(3, 3)
    code, out, err = invoke(capsys, "verify", "--suite", "trace-identity", "--m", "3", "--n", "3")
    assert (code, err) == (1, "")
    record, summary = out.splitlines()
    assert json.loads(record) == {"m": 3, "n": 3, "difference": (got - expected).to_json()}
    assert summary == "checked 1 identities, 1 mismatches"


def test_integrality_mismatch_records(capsys, monkeypatch):
    negative, fractional, too_long = enumerate_multipartitions(3, 1)
    half = fr_const(Fraction(1, 2)) * fr_form(1, 1, 2)
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "schurkit.cli", "verify", "--suite", "hook-beta", "--size"]
    done = subprocess.run([*argv, "2"], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "checked 16 identities, 0 mismatches\n", ""
    )
    done = subprocess.run([*argv, "0"], capture_output=True, text=True, env=env)
    assert done.returncode == 2 and done.stdout == "" and "--size" in done.stderr


def test_a_closed_pipe_exits_without_a_traceback():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "schurkit.cli", "schur", "--m", "4", "--n", "6", "--format", "json"]
    # about 700 kB of output: far more than a pipe buffers, so the write meets the closed end
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
    assert code == 1


def _script(*argv, code=None, text=False, **env):
    """Run the CLI as `python -m schurkit.cli argv`, or run `python -c code`, in a fresh process.

    stdout is block-buffered, as it is for a user, so a lost flush loses output.
    """
    env = {**os.environ, **env}
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    head = ["-m", "schurkit.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *argv], capture_output=True, text=text, env=env)


def test_the_script_writes_all_of_stdout_before_it_exits(capsys):
    argv = ["schur", "--m", "4", "--n", "6", "--format", "json"]
    assert run(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 400_000  # far more than a pipe buffers
    done = _script(*argv)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == expected


def test_the_script_writes_all_of_a_usage_error(capsys):
    argv = ["verify", "--suite", "beta-shift", "--size", "0"]
    assert run(argv) == 2
    expected = capsys.readouterr().err
    assert expected == "error: --size expects a positive integer, got '0'\n"
    done = _script(*argv, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", expected)


def test_the_script_skips_teardown_but_not_a_traceback():
    code = (
        "import atexit, sys, schurkit.cli as cli; atexit.register(print, 'teardown');"
        " cli.main(sys.argv[1:])"
    )
    done = _script("enumerate", "--m", "1", "--n", "1", code=code, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "((1))\n", "")
    code = "import schurkit.cli as cli; cli.run = lambda argv: 1 / 0; cli.main([])"
    done = _script(code=code, text=True)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("Traceback") and done.stderr.endswith("ZeroDivisionError: division by zero\n")


@pytest.mark.slow
def test_a_sweep_at_level_700_holds_a_third_of_its_old_peak():
    """three-formulas at (700,1) peaked at 941 MB when every pair was memoized at every (s, t)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = ["verify", "--suite", "three-formulas", "--m", "700", "--n", "1"]
    proc = subprocess.Popen([sys.executable, "-m", "schurkit.cli", *argv], stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert out == b"checked 700 multipartitions, 0 mismatches\n"
    peak_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb <= 314, peak_mb


def test_large_m_suites_answer_at_once(capsys):
    started = time.perf_counter()
    assert invoke(capsys, "verify", "--suite", "sm-action", "--m", "9", "--n", "1") == (
        0, "checked 9 multipartitions, 0 mismatches\n", ""
    )
    for m, count in (
        ("9", "at least 8^8"),
        ("1000", "at least 999^999"),
        ("10000000", "at least 9999999^9999999"),
    ):
        code, out, err = invoke(capsys, "verify", "--suite", "trace-identity", "--m", m, "--n", "1")
        assert (code, out) == (2, "")
        assert err == (
            f"error: trace-identity at --m {m} --n 1 needs {count} grid points, above the budget"
            f" of {schur_module.TRACE_WORK_BUDGET} grid points times summands\n"
        )
    code, out, err = invoke(capsys, "verify", "--suite", "trace-identity", "--m", "6", "--n", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: trace-identity at --m 6 --n 3 needs at least 23^5 grid points, ")
    assert time.perf_counter() - started < 5


@pytest.mark.parametrize("n, points, summands", [(11, 2304, 4599), (12, 3481, 7868)])
def test_trace_identity_refuses_grid_points_times_summands(capsys, monkeypatch, n, points, summands):
    def refuse(mp):
        raise RuntimeError("a cofactor was built")

    monkeypatch.setattr(schur_module, "num_standard_tableaux", refuse)
    code, out, err = invoke(capsys, "verify", "--suite", "trace-identity", "--m", "3", "--n", str(n))
    assert (code, out) == (2, "")
    assert err == (
        f"error: trace-identity at --m 3 --n {n} needs {points} grid points times {summands}"
        f" summands, above the budget of {schur_module.TRACE_WORK_BUDGET}\n"
    )
    assert points * summands > schur_module.TRACE_WORK_BUDGET


def test_cli_import_skips_dataclasses_inspect_argparse_and_gettext():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    unwanted = "{'dataclasses', 'inspect', 'argparse', 'gettext'}"
    code = f"import sys, schurkit.cli; print(sorted({unwanted} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "suite, m, n",
    [("trace-identity", 2, 7), ("trace-identity", 3, 4), ("integrality", 4, 4)],
)
def test_expand_workload_summary_lines(capsys, suite, m, n):
    """The exact summary lines that the benchmark's expand workload gates on."""
    if suite == "integrality":
        expected = f"checked {multipartition_count(m, n)} multipartitions, 0 mismatches\n"
    else:
        expected = "checked 1 identities, 0 mismatches\n"
    assert invoke(capsys, "verify", "--suite", suite, "--m", str(m), "--n", str(n)) == (
        0, expected, ""
    )


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
    handler, args = cli_module.parse_args(argv)
    (command,) = [name for name, entry in cli_module.COMMANDS.items() if entry[0] is handler]
    args = vars(args)
    if "set" in args:
        args["set"] = list(args["set"])
    return command, args


def readme_command_lines():
    return [line for line in (ROOT / "README.md").read_text().splitlines()
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
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses looks itself up there
    spec.loader.exec_module(workloads)
    reference = workloads.load_reference()
    return [list(op.argv) for name in workloads.WORKLOADS
            for op in workloads.plan(name, 1, 0, reference)[0]]


VALID = [
    ["enumerate", "--m", "3", "--n", "2", "--format", "json"],
    ["schur", "--m", "2", "--n", "2", "--formula", "symbol", "--L", "4", "--format", "text"],
    ["schur", "--multipartition", "[[1],[]]", "--m", "2", "--n", "1"],
    ["verify", "--suite", "beta-shift", "--size", "2"],
    ["verify", "--suite", "mu-identity"],
    ["verify", "--suite", "criterion", "--m", "2", "--n", "2", "--seed", "-4", "--trials", "3",
     "--mod", "7"],
    ["verify", "--suite", "trace-identity", "--m", "-3", "--n", "1"],
    ["semisimple", "--m", "1", "--n", "1", "--set", "q1=-1/2", "--no-vanishing", "--format", "text"],
    ["semisimple", "--m", "2", "--n", "2", "--set", "q1=0", "--set", "q2=5", "--mod", "11"],
]

MALFORMED = [
    [],
    ["bogus"],
    ["--m", "2", "enumerate", "--m", "2", "--n", "1"],
    ["enumerate", "--m", "2", "--n", "1", "--bogus", "1"],
    ["enumerate", "--m", "2", "--n", "1", "-m", "1"],
    ["enumerate", "--m", "2", "--n"],
    ["enumerate", "--m", "2", "--n", "--format", "json"],
    ["enumerate", "--m", "x", "--n", "1"],
    ["enumerate", "--m=", "--n", "1"],
    ["enumerate", "--m", "2", "--n", "1", "--format", "latex"],
    ["pinv", "--m", "2", "--n", "1", "--format", "yaml"],
    ["pinv", "--m", "2"],
    ["pinv", "--m", "2", "--n", "1", "stray"],
    ["pinv", "--m", "2", "--n", "1", "-3"],
    ["schur", "--formula", "plain", "--m", "1", "--n", "1"],
    ["verify"],
    ["verify", "--suite", "nonsense"],
    ["verify", "--suite", "beta-shift", "--size", "0"],
    ["verify", "--suite", "beta-shift", "--size", "x"],
    ["verify", "--suite", "beta-shift", "--m", "2"],
    ["verify", "--suite", "criterion", "--m", "2", "--n", "2", "--seed", "1", "--trials", "-3"],
    ["verify", "--suite", "criterion", "--m", "2", "--n", "2"],
    ["verify", "--suite", "three-formulas", "--m", "2", "--n", "1", "--trials", "2"],
    ["semisimple", "--m", "1", "--n", "1", "--set", "q1=0", "--no-vanishing=1"],
    ["semisimple", "--m", "1", "--n", "1", "--set", "q1"],
    ["semisimple", "--m", "1", "--n", "1", "--set"],
    ["semisimple", "--m", "1", "--n", "1", "--set", "-q1=0"],
    ["semisimple", "--m", "1", "--n", "1", "--set", "q1=0", "--mod", "--format", "text"],
]

HELP_REQUESTS = [
    ["-h"], ["--help"], ["--bogus", "-h"], ["enumerate", "--help"], ["schur", "-h"],
    ["pinv", "--m", "2", "-h"], ["verify", "--help"], ["verify", "--suite", "criterion", "-h"],
    ["semisimple", "--set", "q1=0", "--help"], ["enumerate", "--bogus", "--help"],
]

# Accepted by argparse, refused by the table on purpose: unique-prefix abbreviations and a
# single-valued flag given twice (argparse kept the last value).
NARROWED = [
    ["schur", "--mult", "[[1],[1]]"],
    ["enumerate", "--m", "2", "--n", "1", "--form", "json"],
    ["semisimple", "--m", "1", "--n", "1", "--set", "q1=0", "--no-van"],
    ["verify", "--suite", "beta-shift", "--si", "3"],
    ["enumerate", "--m", "2", "--m", "3", "--n", "1"],
    ["pinv", "--m", "2", "--n", "1", "--format", "json", "--format", "text"],
    ["verify", "--suite", "beta-shift", "--suite", "hook-beta"],
    ["verify", "--suite", "criterion", "--m", "2", "--n", "2", "--seed", "1", "--seed", "2"],
]


def equals_spelling(argv):
    """argv with every `--flag value` written as `--flag=value`."""
    out, words = [], iter(argv)
    for word in words:
        if word.startswith("--") and "=" not in word and word != "--no-vanishing":
            word = f"{word}={next(words, '')}"
        out.append(word)
    return out


def test_the_flag_table_reads_every_argv_as_the_argparse_parser_did(capsys, monkeypatch):
    accepted = readme_commands() + menu_commands(monkeypatch) + VALID
    assert len(readme_commands()) >= 8
    corpus = accepted + [equals_spelling(argv) for argv in accepted]
    for argv in corpus:
        verdict, parsed = oracle_parse(argv)
        assert verdict == "ok", argv
        assert table_parse(argv) == parsed, argv
    for argv in MALFORMED + [equals_spelling(argv) for argv in MALFORMED]:
        if oracle_parse(argv)[0] == "ok":  # rejected by the handler, not the parser
            assert table_parse(argv) == oracle_parse(argv)[1], argv
        else:
            assert oracle_parse(argv)[0] == "error", argv
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    for argv in HELP_REQUESTS:
        assert oracle_parse(argv)[0] == "help", argv
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: schurkit "), argv
    for argv in NARROWED:
        assert oracle_parse(argv)[0] == "ok", argv
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: "), argv


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
    wrong = fr_const(2) * schur_element(target, "cancellation")
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
        lambda lam, mu, L: fr_const(2) * real_y(lam, mu, L)
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
        lambda lam, mu: fr_const(2) * real_z(lam, mu) if (lam, mu) == ((), (1,)) else real_z(lam, mu),
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
        lambda sigma, value: fr_const(2) * real(sigma, value)
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
