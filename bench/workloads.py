"""Seeded workloads for the schurkit CLI and the gate that checks each op.

A workload is a fixed menu of CLI invocations.  One round runs every
menu item once; the seed draws the order of each round and the
parameters the menu leaves open (specializations, criterion seeds,
output formats).  The CLI only ever sees the generated argv.

Expected outputs are derived here without calling the library: case
counts come from an independent partition-count recurrence, the
semisimplicity verdict from theta alone, and the schur/pinv output
bytes from SHA-256 digests recorded in reference.json.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

REFERENCE = Path(__file__).with_name("reference.json")

# Mean cost of one round at the seed commit (CPython 3.11, 2 cores).
# The number of rounds in a run is fixed from --seconds and this cost,
# never from the clock, so every run of a seed does the same work and
# percentiles are taken over the same sample count on every commit.
ROUND_SECONDS = {"build": 5.6, "criterion": 3.8, "expand": 6.3}

CRITERION_TRIALS = 40
FAILURE_CASES = 3  # separation_failure_cases for m >= 2, n >= 2


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its stdout must be.

    expect is one of
      ("stdout", text)                     exact stdout;
      ("sha256", hexdigest)                digest of the stdout bytes;
      ("semisimple", verdict, field_tag)   single-theta report.
    """

    argv: tuple[str, ...]
    expect: tuple

    @property
    def label(self) -> str:
        """The argv without the values the seed draws: one label per menu item."""
        words = []
        for i, word in enumerate(self.argv):
            if i and self.argv[i - 1] in ("--seed", "--set"):
                continue
            if word not in ("--seed", "--set"):
                words.append(word)
        return " ".join(words)


# ------------------------------------------------------------ oracles


def partition_counts(n: int) -> list[int]:
    """p(0..n) by the recurrence over the largest allowed part."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts


def multipartition_total(m: int, n: int) -> int:
    """Number of m-tuples of partitions with sizes summing to n."""
    p = partition_counts(n)
    ways = [1] + [0] * n
    for _ in range(m):
        ways = [sum(ways[j] * p[k - j] for j in range(k + 1)) for k in range(n + 1)]
    return ways[n]


def partition_pair_total(size: int) -> int:
    """Ordered pairs of partitions, each of size at most `size`."""
    return sum(partition_counts(size)) ** 2


def semisimple_verdict(n: int, q: list, prime: Optional[int]) -> bool:
    """n! != 0 and no q_i - q_j is an integer d with |d| < n (mod p when given)."""
    if prime is not None:
        if prime <= n:
            return False
        for i in range(len(q)):
            for j in range(i + 1, len(q)):
                d = (q[i] - q[j]) % prime
                if d < n or d > prime - n:
                    return False
        return True
    for i in range(len(q)):
        for j in range(i + 1, len(q)):
            d = Fraction(q[i]) - Fraction(q[j])
            if d.denominator == 1 and abs(d) < n:
                return False
    return True


# ------------------------------------------------------------ menus


def _verify_line(checked: int, unit: str) -> str:
    return f"checked {checked} {unit}, 0 mismatches\n"


def three_formulas_op(m: int, n: int) -> Op:
    argv = ("verify", "--suite", "three-formulas", "--m", str(m), "--n", str(n))
    return Op(argv, ("stdout", _verify_line(multipartition_total(m, n), "multipartitions")))


def integrality_op(m: int, n: int) -> Op:
    argv = ("verify", "--suite", "integrality", "--m", str(m), "--n", str(n))
    return Op(argv, ("stdout", _verify_line(multipartition_total(m, n), "multipartitions")))


def trace_identity_op(m: int, n: int) -> Op:
    argv = ("verify", "--suite", "trace-identity", "--m", str(m), "--n", str(n))
    return Op(argv, ("stdout", _verify_line(1, "identities")))


def beta_shift_op(size: int) -> Op:
    argv = ("verify", "--suite", "beta-shift", "--size", str(size))
    return Op(argv, ("stdout", _verify_line(partition_pair_total(size), "partition pairs")))


def criterion_op(m: int, n: int, seed: int, prime: Optional[int],
                 trials: int = CRITERION_TRIALS) -> Op:
    argv = ("verify", "--suite", "criterion", "--m", str(m), "--n", str(n),
            "--seed", str(seed), "--trials", str(trials))
    fields = 2
    if prime is not None:
        argv += ("--mod", str(prime))
        fields = 1
    checked = trials * fields + FAILURE_CASES
    return Op(argv, ("stdout", _verify_line(checked, "specializations")))


def _hashed(argv: tuple[str, ...], reference: dict) -> Op:
    return Op(argv, ("sha256", reference[" ".join(argv)]))


def _semisimple(m: int, n: int, rng: random.Random, prime: Optional[int]) -> Op:
    if prime is None:
        # Integers in a box a few times n, so both verdicts are common,
        # and now and then a half-integer, which never collides.
        q = [Fraction(rng.randint(-3 * n, 3 * n)) for _ in range(m)]
        q = [v + Fraction(1, 2) if rng.random() < 0.25 else v for v in q]
    else:
        q = [rng.randrange(prime) for _ in range(m)]
    argv = ("semisimple", "--m", str(m), "--n", str(n))
    for s, v in enumerate(q, 1):
        argv += ("--set", f"q{s}={v}")
    if prime is not None:
        argv += ("--mod", str(prime))
    field = "Q" if prime is None else f"Fp:{prime}"
    return Op(argv, ("semisimple", semisimple_verdict(n, q, prime), field))


SCHUR_FORMULAS = ("product", "symbol", "cancellation")
FORMATS = ("json", "latex", "text")


def schur_argvs() -> list[tuple[str, ...]]:
    """Every invocation whose stdout is checked against reference.json."""
    argvs = [
        ("schur", "--m", "4", "--n", "6", "--formula", f, "--format", fmt)
        for f in SCHUR_FORMULAS
        for fmt in FORMATS
    ]
    argvs += [("pinv", "--m", "5", "--n", "8", "--format", fmt) for fmt in FORMATS]
    return argvs


def _round(workload: str, rng: random.Random, reference: dict) -> list[Op]:
    if workload == "build":
        ops = [three_formulas_op(3, 6), three_formulas_op(2, 8), three_formulas_op(4, 5),
               beta_shift_op(6)]
        ops += [_hashed(argv, reference) for argv in schur_argvs() if argv[0] == "schur"]
        ops.append(_semisimple(3, 7, rng, None))
        ops.append(_semisimple(4, 6, rng, 101))
        ops.append(_hashed(("pinv", "--m", "5", "--n", "8", "--format", rng.choice(FORMATS)),
                           reference))
    elif workload == "criterion":
        ops = [criterion_op(m, n, rng.randrange(1, 10**6), prime)
               for m, n in ((3, 5), (3, 6), (4, 4))
               for prime in (None, 101)]
        # A cheap seventh item puts the median op inside the (3,6) F_101
        # samples, which sit well apart from their neighbours in cost.
        ops.append(criterion_op(2, 5, rng.randrange(1, 10**6), 101))
    elif workload == "expand":
        ops = [trace_identity_op(2, 7), trace_identity_op(3, 4), trace_identity_op(3, 5),
               integrality_op(3, 6), integrality_op(4, 4)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


WORKLOADS = tuple(ROUND_SECONDS)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def plan(workload: str, seed: int, seconds: float, reference: dict) -> list[list[Op]]:
    """Whole rounds sized to about `seconds` at the seed commit, at least 20 ops.

    The same (workload, seed, seconds) always gives the same ops.
    """
    rng = random.Random(f"{workload}:{seed}")
    rounds = [_round(workload, rng, reference)]
    wanted = max(-(-20 // len(rounds[0])), round(seconds / ROUND_SECONDS[workload]))
    rounds += [_round(workload, rng, reference) for _ in range(wanted - 1)]
    return rounds


# ------------------------------------------------------------ gate


def check(op: Op, exit_code: int, stdout: bytes) -> Optional[str]:
    """None when the op succeeded with the expected output, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    kind = op.expect[0]
    if kind == "stdout":
        if stdout != op.expect[1].encode():
            return f"stdout {stdout[-200:]!r}, expected {op.expect[1]!r}"
        return None
    if kind == "sha256":
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != op.expect[1]:
            return f"stdout sha256 {digest}, expected {op.expect[1]}"
        return None
    if kind == "semisimple":
        _, verdict, field = op.expect
        try:
            report = json.loads(stdout)
        except ValueError:
            return f"stdout is not JSON: {stdout[:200]!r}"
        if not isinstance(report, dict):
            return f"stdout is not a report: {stdout[:200]!r}"
        problems = []
        if report.get("semisimple") is not verdict:
            problems.append(f"semisimple={report.get('semisimple')!r}, expected {verdict}")
        if report.get("agreement") is not True:
            problems.append("agreement is not true")
        if report.get("field") != field:
            problems.append(f"field={report.get('field')!r}, expected {field!r}")
        vanishing = report.get("vanishing")
        if not isinstance(vanishing, list) or (not vanishing) != verdict:
            problems.append("vanishing list contradicts the verdict")
        if (report.get("p_value") != "0") != verdict:
            problems.append(f"p_value={report.get('p_value')!r} contradicts the verdict")
        return "; ".join(problems) or None
    raise ValueError(f"unknown expectation {kind!r}")
