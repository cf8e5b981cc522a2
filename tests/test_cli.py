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
        return 1, "things", [{"broken": True}]

    monkeypatch.setitem(SUITES, "three-formulas", (broken, ()))
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
    usage_error(capsys, "verify", "--suite", "criterion", "--m", "2", "--n", "2",
                "--seed", "1", "--mod", "561")


def test_verify_rejects_nonpositive_size(capsys):
    assert "--size" in usage_error(capsys, "verify", "--suite", "beta-shift", "--size", "-3")
    assert "--size" in usage_error(capsys, "verify", "--suite", "mu-identity", "--size", "0")


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
    monkeypatch.setitem(SUITES, "three-formulas", (lambda args: (0, "things", []), ()))
    assert "checked no things" in usage_error(capsys, "verify", "--suite", "three-formulas")


def test_trace_identity_rejects_empty_size(capsys):
    # n = 0 has the single empty multipartition with s = 1, so the sum
    # is 1 for every m: not a counterexample, but no instance of the claim
    for n in ("0", "-2"):
        err = usage_error(capsys, "verify", "--suite", "trace-identity", "--m", "2", "--n", n)
        assert "--n" in err


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
