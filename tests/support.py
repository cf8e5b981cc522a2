"""The test oracles that share no code with the library, and the one way to start a child.

Nothing here imports schurkit: each oracle derives by another route what
the library computes, so a bug cannot hide in both.  Every child process
a test starts goes through start or run, which give it the source tree
on its path, a 1 GB address space and a deadline.
"""

import os
import resource
import subprocess
import sys
from fractions import Fraction
from functools import cache
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 60  # seconds: the CPU time any child gets, and the longest wait on a slow one

# ------------------------------------------------------------------ oracles


def nodes(lam):
    """The nodes (i, j) of the diagram of lam, 1-based, row by row, left to right."""
    return [(i, j) for i, row in enumerate(lam, 1) for j in range(1, row + 1)]


def generalized_hook(lam, mu, i, j):
    """The hook of node (i, j) of lam in mu, by counting: the nodes right of it in row i of
    lam, the nodes of column j of mu less i, and the node itself."""
    arm = len(range(j + 1, lam[i - 1] + 1))
    leg = sum(1 for row in mu if row >= j) - i
    return arm + leg + 1


def beta_numbers(lam, length):
    """lam_i + length - i for i = 1..length, with lam_i = 0 beyond the rows of lam."""
    return tuple((lam[i - 1] if i <= len(lam) else 0) + length - i for i in range(1, length + 1))


@cache
def partitions(n):
    """Every partition of n, parts decreasing, in decreasing lexicographic order.

    Built as the ascending compositions of n (each part at least the one
    before it), the other way round from the library's descending recursion.
    """

    def ascending(n, smallest):
        if n == 0:
            yield ()
            return
        for first in range(smallest, n + 1):
            for rest in ascending(n - first, first):
                yield (first, *rest)

    return tuple(sorted((p[::-1] for p in ascending(n, 1)), reverse=True))


def multipartitions(m, n):
    """Every m-tuple of partitions of total size n: each size of the first, then the rest."""
    if m == 0:
        if n == 0:
            yield ()
        return
    for size in range(n + 1):
        for lam in partitions(size):
            for rest in multipartitions(m - 1, n - size):
                yield (lam, *rest)


def fold(occurrences):
    """prod (c + q_s - q_t)^exp over the occurrences (c, s, t, exp), as (constant, {(s, t, c): exp}).

    Each occurrence is oriented as it arrives: with s > t it is
    -((-c) + q_t - q_s), and with s == t it is the constant c.  No exponent is 0.
    """
    constant, factors = Fraction(1), {}
    for c, s, t, exp in occurrences:
        if s == t:
            constant *= Fraction(c) ** exp
            continue
        if s > t:
            c, s, t = -c, t, s
            constant *= Fraction(-1) ** exp
        factors[s, t, c] = factors.get((s, t, c), 0) + exp
    return constant, {key: exp for key, exp in factors.items() if exp}


def standard_fillings_count(mp):
    """Count standard fillings by peeling the largest entry off every way."""
    if all(not lam for lam in mp):
        return 1
    total = 0
    for s, lam in enumerate(mp):
        for i in range(len(lam)):
            below = lam[i + 1] if i + 1 < len(lam) else 0
            if lam[i] > below:
                smaller = lam[:i] + (lam[i] - 1,) + lam[i + 1 :]
                while smaller and smaller[-1] == 0:
                    smaller = smaller[:-1]
                total += standard_fillings_count(mp[:s] + (smaller,) + mp[s + 1 :])
    return total


def poly_at(poly, theta):
    """The expanded polynomial at the specialization theta, summed term by term over Q or F_p."""
    values = [theta.value_of(s) for s in range(1, poly.m + 1)]
    total = sum(c * prod(v**k for v, k in zip(values, e)) for e, c in poly.terms.items())
    return total if theta.prime is None else total % theta.prime


# ------------------------------------------------------------ child processes


def _cap():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (TIMEOUT, TIMEOUT))


def start(*args, python=sys.executable, **env):
    """`python *args` started in the repository root, with stdout and stderr as pipes.

    The child's environment is this one plus env, with src first on
    PYTHONPATH and stdout block-buffered, as a user's is, so a lost flush
    loses output.  It gets a 1 GB address space and is killed after TIMEOUT
    seconds of CPU time, so a loop in the library ends even while its test
    blocks on it.
    """
    env = {**os.environ, **env}
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [str(python), *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=ROOT, preexec_fn=_cap,
    )


def run(*argv, head=("-m", "schurkit.cli"), python=sys.executable, timeout=10, **env):
    """Run `python *head *argv`, the CLI by default, as start does, and wait for it.

    stdout and stderr come back as str, decoded without newline translation.
    A child still running after timeout seconds is killed and raises
    subprocess.TimeoutExpired, which fails the test.
    """
    with start(*head, *argv, python=python, **env) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out.decode(), err.decode())
