"""The CLI contract, stated once: each argv of schurkit with its exit code, stdout and stderr.

tests/test_cli.py checks each row in-process or in a child, a slow test in its own
`python -S -m schurkit.cli`, and CI through the installed script, outside the checkout:

    python tests/contract.py schurkit    # the command that each row's argv follows

It names the schurkit package that the command imports, fails if that is in the checkout, as
an editable install's is, and prints each failing row with what it expected and what came back.
"""

import hashlib
import re
import shlex
import sys
from pathlib import Path
from typing import NamedTuple

import support

DIGITS = 4300  # CPython's default int-digit limit: a row runs under it unless it states another
_COMMANDS = "one of enumerate, schur, pinv, verify, semisimple"
SETTING = "set the environment variable PYTHONINTMAXSTRDIGITS to a larger limit, or to 0 for none"
UNPRINTABLE = f"Exceeds the limit ({DIGITS} digits) for integer string conversion; {SETTING}"
_MP = "schur --multipartition"
_CRIT = "verify --suite criterion --m 2 --n 2 --seed 1"
TRACE = "verify --suite trace-identity"
_GRID = "grid points, above the budget of 5000000"
_P = "forms, above the budget of 750000"
_BUDGET = "above the budget of 3000000"
_MOD = ("must exceed --n 5: n! vanishes mod p, so every specialization would be non-semisimple"
        " and only one side checked")

# argv, as a shell splits the line -> the message of the one line "error: <message>" that it
# writes to stderr.  Each exits 2 and writes nothing to stdout.
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
    f"{TRACE} --m 2 --n 1 --trials 3": "--suite trace-identity does not take --trials",
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
    f"{TRACE} --m 2 --n 0": "--suite trace-identity needs --n >= 1, got 0",
    f"{TRACE} --m 2 --n -2": "--suite trace-identity needs --n >= 1, got -2",
    f"{TRACE} --m 0 --n 1": "--suite trace-identity needs --m >= 1, got 0",
    f"{TRACE} --m 0 --n 2": "--suite trace-identity needs --m >= 1, got 0",
    f"{TRACE} --m -3 --n 1": "--suite trace-identity needs --m >= 1, got -3",
    f"{TRACE} --m -3 --n 2": "--suite trace-identity needs --m >= 1, got -3",
    f"{TRACE} --m 3 --n 11": "trace-identity at --m 3 --n 11 needs 2304 grid points times 4599"
        " summands, above the budget of 5000000",
    f"{TRACE} --m 3 --n 12": "trace-identity at --m 3 --n 12 needs 3481 grid points times 7868"
        " summands, above the budget of 5000000",
}

# Two usage errors that show the script writes all of its stderr before it ends the process.
SCRIPT_ROWS = ("verify --suite beta-shift --size 0", "verify --suite hook-beta --size 0")

_THETA = "semisimple --m 2 --n 2 --set q1=1 --set q2=0"
_Q12 = '[{"c": %d, "pos": "q1", "neg": "q2"}, 1]'  # c + q1 - q2 as a JSON factor
_SEMISIMPLE = ('{"p_value": "%s", "semisimple": true, "vanishing": [], "agreement": true,'
               ' "field": "%s"}\n')

# argv -> all that it writes to stdout, with exit code 0 and nothing on stderr.  Most refusals
# have a neighbour here, the same argv without the refused flag or with an accepted value.
VALID = {
    # what each command prints in each of its formats
    "enumerate --m 1 --n 1": "((1))\n",
    "enumerate --m 2 --n 1": "((1);(0))\n((0);(1))\n",
    "enumerate --m 2 --n 1 --format json": "[[[1], []], [[], [1]]]\n",
    **dict.fromkeys(
        ["schur --m 2 --n 1 --formula cancellation --format json",
         "schur --m 2 --n 1 --format json"],
        '[{"multipartition": [[1], []], "schur": {"num": "1", "den": "1", "factors": [%s]}},'
        ' {"multipartition": [[], [1]], "schur": {"num": "-1", "den": "1", "factors": [%s]}}]\n'
        % (_Q12 % 0, _Q12 % 0)),
    f"{_MP} '[[2],[1]]' --format json": '{"multipartition": [[2], [1]], "schur": {"num": "-2",'
        ' "den": "1", "factors": [%s, %s, %s]}}\n' % (_Q12 % -1, _Q12 % 0, _Q12 % 2),
    f"{_MP} '[[2],[1]]' --format latex":
        "$((2);(1))$ & $-2*(-1+q_{1}-q_{2})(q_{1}-q_{2})(2+q_{1}-q_{2})$ \\\\\n",
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
    f"{TRACE} --m 2 --n 7": "checked 1 identities, 0 mismatches\n",
    f"{TRACE} --m 3 --n 4": "checked 1 identities, 0 mismatches\n",
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
    # the m generators of S_m, not its m! permutations, which took over 60 s
    "verify --suite sm-action --m 9 --n 1": "checked 9 multipartitions, 0 mismatches\n",
    "verify --suite integrality --m 2 --n 1": "checked 2 multipartitions, 0 mismatches\n",
    f"{TRACE} --m 2 --n 1": "checked 1 identities, 0 mismatches\n",
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


DEADLINE = 10  # seconds: the deadline of a row that states none


class Row(NamedTuple):
    line: str  # the argv, as a shell splits this line
    code: int
    out: str  # stdout exactly, or "sha256:" and the SHA-256 of a large one
    err: str
    seconds: float = DEADLINE
    digits: int = DIGITS  # the int-digit limit, 0 for none


def _refused(line: str, seconds: float, message: str, digits: int = DIGITS) -> Row:
    """A refusal: exit 2, nothing on stdout, the one line "error: <message>" on stderr."""
    return Row(line, 2, "", f"error: {message}\n", seconds, digits)


# The rows that run only in a child, each in its own process: those that guard an input that
# would run away without its refusal, the script rows, and those with their own int-digit
# limit or deadline, or with more output than a pipe holds.
CHILD_ROWS = [
    *(_refused(line, 10, "--size expects a positive integer, got '0'") for line in SCRIPT_ROWS),
    _refused(f"{_MP} " + "[" * 100_000, 10, "--multipartition: nested deeper than 100 brackets"),
    _refused(f"{_MP} " + "[" * 3000 + "]" * 3000, 10,
             "--multipartition: nested deeper than 100 brackets"),
    _refused(f"{_MP} [[{'1' * 5000}]]", 10, f"--multipartition: Exceeds the limit ({DIGITS}"
             f" digits) for integer string conversion: value has 5000 digits; {SETTING}"),
    _refused("pinv --m 2 --n 1700", 10, UNPRINTABLE),  # the constant 1700! has 4,700 digits
    # sized before n! is built, which takes about 7 s at n = 750000: at m = 1 over Q, P(theta)
    # is n!, and semisimple refuses it before it enumerates the p(n) partitions of its table
    _refused("pinv --m 1 --n 750000", 1, UNPRINTABLE),
    _refused("semisimple --m 1 --n 1559 --set q1=0 --no-vanishing", 1, UNPRINTABLE),
    _refused("semisimple --m 1 --n 1559 --set q1=0", 1, UNPRINTABLE),
    _refused("semisimple --m 1 --n 750000 --set q1=0", 1, UNPRINTABLE),
    _refused("pinv --m 1000 --n 2", 10, f"P at --m 1000 --n 2 needs 1498500 {_P}"),
    _refused("pinv --m 100000 --n 2", 10, f"P at --m 100000 --n 2 needs 14999850000 {_P}"),
    _refused("pinv --m 1000000000 --n 2", 10,
             f"P at --m 1000000000 --n 2 needs 1499999998500000000 {_P}"),
    _refused("semisimple --m 2 --n 1000000000 --set q1=0 --set q2=1 --no-vanishing", 10,
             f"P at --m 2 --n 1000000000 needs 1999999999 {_P}"),
    _refused("pinv --m 1 --n 1000000000", 1, f"P at --m 1 --n 1000000000 needs 1000000000 {_P}"),
    _refused("semisimple --set q1=0 --m 1 --n 1000000000", 1,
             f"P at --m 1 --n 1000000000 needs 1000000000 {_P}"),
    _refused("semisimple --m 1000000000 --n 2 --set q2=0", 10,
             f"P at --m 1000000000 --n 2 needs 1499999998500000000 {_P}"),
    # P(theta) over Q, sized from theta: fr_eval spent 30.6 s at n = 100000 before the digit
    # limit refused the value, and ran past 60 s at n = 375000
    _refused("semisimple --m 2 --n 100000 --set q1=0 --set q2=1/2 --no-vanishing", 1, UNPRINTABLE),
    _refused("semisimple --m 2 --n 375000 --set q1=0 --set q2=1/2 --no-vanishing", 1, UNPRINTABLE),
    # at m = 2 the reduced denominator is held to the limit too: fr_eval built it for 17.5 s
    _refused("semisimple --m 2 --n 200 --set q1=0 --set q2=1e-2000 --no-vanishing", 1, UNPRINTABLE),
    _refused("semisimple --m 2 --n 2 --set q1=1e999999999 --set q2=0", 10,
             f"--set 'q1=1e999999999': decimal exponent above the {DIGITS}-digit limit"),
    _refused(f"semisimple --m 1 --n 1 --set q1=2.5E-{DIGITS + 1}", 10,
             f"--set 'q1=2.5E-{DIGITS + 1}': decimal exponent above the {DIGITS}-digit limit"),
    _refused(f"{TRACE} --m 6 --n 3", 5, f"trace-identity at --m 6 --n 3 needs at least 23^5 {_GRID}"),
    _refused(f"{TRACE} --m 9 --n 1", 5, f"trace-identity at --m 9 --n 1 needs at least 8^8 {_GRID}"),
    _refused(f"{TRACE} --m 1000 --n 1", 5,
             f"trace-identity at --m 1000 --n 1 needs at least 999^999 {_GRID}"),
    _refused(f"{TRACE} --m 10000000 --n 1", 5,
             f"trace-identity at --m 10000000 --n 1 needs at least 9999999^9999999 {_GRID}"),
    # each ran past 30 s or out of a 1 GB address space before its work was admitted
    _refused("schur --m 40 --n 4", 1, "schur at --m 40 --n 4 needs 158670 elements times 40"
             " components, above the budget of 1875000"),
    _refused("schur --m 100000000 --n 1", 1, "schur at --m 100000000 --n 1 needs 100000000"
             " elements, above the budget of 1875000"),
    _refused("enumerate --m 100000000 --n 1", 1, "enumerate at --m 100000000 --n 1 needs"
             " 100000000 components, above the budget of 5000000"),
    _refused("enumerate --m 3 --n 101 --format json", 1, "enumerate at --m 3 --n 101 needs at"
             " least 30167357 elements, above the budget of 30000000"),
    _refused(f"{_MP} '[[9999999999]]'", 1, "schur --multipartition needs 1 component times"
             " 9999999999 nodes, above the budget of 1875000"),
    # the hook product of (k) is k!, sized by lgamma before it is built
    _refused(f"{_MP} '[[1000000]]'", 1, UNPRINTABLE),
    _refused(f"{_MP} '[[100000]]'", 1, UNPRINTABLE),
    _refused("verify --suite sm-action --m 1000000 --n 1", 1, "sm-action at --m 1000000 --n 1"
             f" needs 1000000 elements times 1000000 components, {_BUDGET}"),
    _refused("verify --suite sm-action --m 9 --n 13", 1,
             f"sm-action at --m 9 --n 13 needs 12994290 elements, {_BUDGET}"),
    _refused("verify --suite sm-action --m 2 --n 40", 1,
             f"sm-action at --m 2 --n 40 needs 9035539 elements, {_BUDGET}"),
    _refused("verify --suite criterion --m 3 --n 20 --seed 1 --trials 1", 1, "criterion at --m 3"
             f" --n 20 needs 341649 elements times 3 components times 20 nodes, {_BUDGET}"),
    _refused("verify --suite criterion --m 40 --n 5 --seed 1 --mod 7 --trials 2", 1, "criterion"
             f" at --m 40 --n 5 needs 1614048 elements times 40 components, {_BUDGET}"),
    _refused("verify --suite beta-shift --size 14", 1, "beta-shift at --size 14 needs at least"
             " 508^2 partition pairs, above the budget of 200000"),
    _refused("verify --suite x-symmetry --size 40", 1, "x-symmetry at --size 40 needs at least"
             " 684^2 partition pairs, above the budget of 375000"),
    _refused("semisimple --m 2 --n 30 --set q1=0 --set q2=100", 1, "semisimple at --m 2 --n 30"
             f" needs 589128 elements times 2 components times 30 nodes, {_BUDGET}"),
    _refused("semisimple --m 2 --n 40 --set q1=1 --set q2=3", 1,
             f"semisimple at --m 2 --n 40 needs 9035539 elements, {_BUDGET}"),
    # over F_p, P(theta) = n! mod p is cheap, but the zero-form table holds p(1559) elements
    _refused("semisimple --m 1 --n 1559 --set q1=0 --mod 1567", 1, "semisimple at --m 1 --n"
             f" 1559 needs at least 3087735 elements, {_BUDGET}"),
    # with no int-digit limit a constant's digits are still work, and n! is charged at its own
    # weight, 2 units per factor and thousand words, not at P's 40
    _refused(f"{_MP} '[[1000000]]'", 1, "schur --multipartition needs 1 component times 1000000"
             " nodes times 147 thousand words, above the budget of 1875000", 0),
    _refused("pinv --m 1 --n 750000", 1, "P at --m 1 --n 750000 needs 750000 factors times 215"
             " thousand words, above the budget of 15000000", 0),
    Row(f"{_MP} [[2000]]", 0,
        "sha256:fe3360d1dea2bb87415d22c8fb243e11ec3ccba855269367931a8a3439126a41", "", digits=0),
    Row("pinv --m 1 --n 1558", 0,
        "sha256:5e3aeaa07d2118019427fdaa23d1a93897048d5174dec5c8b00455411af5b078", "", digits=0),
    Row("pinv --m 2 --n 1700", 0,
        "sha256:a334d38dd2da0e8d5610150c695127016392e1f5069f2b5c922e37d8c4324410", "", digits=0),
    Row("pinv --m 1 --n 60000", 0,  # 260,635 digits
        "sha256:0fe706903c7c580f20aced3252f090afde5e1ce85b546d476f5b551f3a7a92fa", "", 20, 0),
    # 455,867 bytes, all written before the script ends
    Row("schur --m 4 --n 6 --format json", 0,
        "sha256:f158e675df880f3308cf03788320a2f5bf3c4dfa0e63c7e54681299fa43d330d", ""),
    Row(f"{_MP} [[1],[]] --formula symbol --L 1000", 0, "((1);(0)): (q1-q2)\n", ""),
    Row("enumerate --m 2000 --n 1", 0,
        "sha256:2963603d7f91f106edaf092473e898b4d35938b2bc66015a918b6448a4e062c2", ""),
    Row("verify --suite hook-beta --size 2", 0, "checked 16 identities, 0 mismatches\n", ""),
    Row("semisimple --m 2 --n 3 --set q1=0 --set q2=9 --mod 1000000000000000003", 0,
        '{"p_value": "999999999999667363", "semisimple": true, "vanishing": [], "agreement": true,'
        ' "field": "Fp:1000000000000000003"}\n', "", 5),
    # P(theta) = 0 has no digits to refuse, and fr_eval stops at its zero form
    Row("semisimple --m 2 --n 100000 --set q1=0 --set q2=1 --no-vanishing", 0,
        '{"p_value": "0", "semisimple": false, "field": "Q"}\n', "", 2),
]


ROWS = [*(Row(line, 0, out, "") for line, out in VALID.items()),
        *(_refused(line, DEADLINE, message) for line, message in REFUSALS.items()), *CHILD_ROWS]


def check(row: Row, prefix, checkout=True) -> str:
    """"" if `*prefix *argv` answers as the row states, else what was expected and what came
    back.  checkout=False runs it outside the checkout with src off PYTHONPATH."""
    argv = shlex.split(row.line)
    try:
        done = support.run(*argv, prefix=prefix, timeout=row.seconds, checkout=checkout,
                           PYTHONINTMAXSTRDIGITS=str(row.digits))
    except support.TimeoutExpired:
        got = f"no answer within {row.seconds} s"
    else:
        out = done.stdout
        if row.out.startswith("sha256:"):
            out = f"sha256:{hashlib.sha256(out.encode()).hexdigest()}"
        got = (done.returncode, out, done.stderr)
    expected = (row.code, row.out, row.err)
    if got == expected:
        return ""
    return (f"{shlex.join([*map(str, prefix), *argv])[:300]} (int-digit limit {row.digits})\n"
            f"  expected {repr(expected)[:600]}\n  got      {repr(got)[:600]}")


def origin(prefix) -> str:
    """Where `*prefix` imports schurkit from, outside the checkout, by its verbose import log."""
    log = support.run("--help", prefix=prefix, checkout=False, PYTHONVERBOSE="1").stderr
    found = re.search(r"(/\S*?/schurkit)/__init__\.py", log)
    return found[1] if found else ""


def main(prefix) -> int | str:
    where = origin(prefix)
    print(f"{shlex.join(prefix)} imports schurkit from {where or 'nowhere that it names'}")
    if not where or Path(where).resolve().is_relative_to(support.ROOT):
        return "the rows must meet an installed package (pip install .), not the checkout"
    failed = [report for row in ROWS if (report := check(row, prefix, checkout=False))]
    for report in failed:
        print(report)
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} rows held through {shlex.join(prefix)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]) if sys.argv[1:] else "usage: python tests/contract.py COMMAND...")
