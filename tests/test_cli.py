"""CLI surface: subcommands, exit codes, determinism, JSON round trips."""

import hashlib
import json
import os
import subprocess
import sys
import time
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
from schurkit.partitions import enumerate_multipartitions, multipartition_count
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


def test_the_script_writes_all_of_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage line to the terminal width
    argv = ["verify", "--suite", "beta-shift", "--size", "0"]
    assert run(argv) == 2
    expected = capsys.readouterr().err
    assert expected.startswith("usage: schurkit verify")
    assert expected.endswith("error: argument --size: expected a positive integer, got '0'\n")
    done = _script(*argv, text=True, COLUMNS="80")
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
        assert f"needs {count} grid points, above the budget of" in err
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


def test_cli_import_skips_dataclasses_and_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, schurkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
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
