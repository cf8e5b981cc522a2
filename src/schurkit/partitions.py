"""Partitions, multipartitions, hooks, beta sets and symbols.

A partition is stored as a tuple of weakly decreasing positive integers;
the empty tuple is the empty partition.  A multipartition is a tuple of
partitions.  Rows, columns and components are 1-based everywhere.

Three reads of a partition are memoized, so a sweep makes each of them
once: conjugate holds one entry per distinct partition, beta_set one per
distinct (partition, L), and hook_product one per distinct partition.
Each is the memo itself, keyed on its arguments, so it takes tuples
only; the exported entries that reach them (the kernels and
schur_element) convert lists first.  generalized_hook_length reads mu'
from the conjugate memo, and generalized_hooks gives every node's hook
from one read of it; hook_product multiplies generalized_hooks(lam, lam).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from math import factorial, inf, prod

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]


def _items(value: Iterable, rule: str) -> tuple:
    """tuple(value), refusing with ValueError(rule) a non-iterable, a str and a dict.

    A str or a dict is iterable, but only an empty one would pass the checks on its items.
    """
    if not isinstance(value, Iterable) or isinstance(value, (str, dict)):
        raise ValueError(f"{rule}, got {value!r}")
    return tuple(value)


def partition(parts: Iterable[int]) -> Partition:
    """Build a partition from an iterable of ints, stripping trailing zeros."""
    p = _items(parts, "a partition must be an iterable of ints")
    for v in p:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"parts must be ints, got {v!r}")
    while p and p[-1] == 0:
        p = p[:-1]
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"parts must be weakly decreasing, got {p}")
    if p and p[-1] < 0:
        raise ValueError(f"parts must be non-negative, got {p}")
    return p


def multipartition(components: Iterable[Iterable[int]]) -> Multipartition:
    """Build a multipartition (tuple of partitions); ValueError on any other input."""
    comps = _items(components, "a multipartition must be an iterable of partitions")
    mp = tuple(map(partition, comps))
    if not mp:
        raise ValueError("a multipartition needs at least one component")
    return mp


def mp_size(mp: Multipartition) -> int:
    return sum(sum(lam) for lam in mp)


def mp_length(mp: Multipartition) -> int:
    """Maximum number of rows over the components."""
    return max((len(lam) for lam in mp), default=0)


@cache
def conjugate(lam: Partition) -> Partition:
    """Column counts of the diagram: result_j = #{i : lam_i >= j}; memoized.

    One pass from the last row up: the columns lam_(i+1) < j <= lam_i have i nodes.
    """
    cols: list[int] = []
    for i in range(len(lam), 0, -1):
        cols += [i] * (lam[i - 1] - len(cols))
    return tuple(cols)


def nodes(lam: Partition) -> Iterator[tuple[int, int]]:
    """All nodes (i, j) of the diagram, row by row."""
    for i, row in enumerate(lam, 1):
        for j in range(1, row + 1):
            yield (i, j)


def generalized_hook_length(lam: Partition, mu: Partition, i: int, j: int) -> int:
    """Mixed arm/leg statistic lam_i - i + mu'_j - j + 1; may be non-positive.

    The node must lie in the diagram of lam; mu is arbitrary and its
    conjugate contributes zero in columns beyond mu_1.  Coincides with
    the ordinary hook length when mu == lam.
    """
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise ValueError(f"node ({i},{j}) outside the diagram of {lam}")
    cols = conjugate(mu)
    return lam[i - 1] - i + (cols[j - 1] if j <= len(cols) else 0) - j + 1


def generalized_hooks(lam: Partition, mu: Partition) -> tuple[int, ...]:
    """generalized_hook_length(lam, mu, i, j) at every node of lam, row by row.

    Row i adds lam_i - i + 1 to the column offsets mu'_j - j, read once from conjugate(mu).
    """
    if not lam:
        return ()
    cols = conjugate(mu)
    offsets = [c - j for j, c in enumerate(cols + (0,) * (lam[0] - len(cols)), 1)]
    return tuple(row - i + e for i, row in enumerate(lam) for e in offsets[:row])


@cache
def beta_set(lam: Partition, length: int) -> tuple[int, ...]:
    """Beta numbers lam_i + L - i for i = 1..L, strictly decreasing; memoized on (lam, L).

    L must be at least the number of rows; the result determines both
    lam and L (its own length).  A refusal is raised again on every call, not memoized.
    """
    if length < len(lam):
        raise ValueError(f"L={length} too small for a partition of length {len(lam)}")
    return tuple(row + length - i for i, row in enumerate(lam, 1)) + tuple(
        range(length - len(lam) - 1, -1, -1)
    )


def l_symbol(mp: Multipartition, length: int) -> tuple[tuple[int, ...], ...]:
    """The m x L matrix whose row s is the beta set of component s."""
    return tuple(beta_set(lam, length) for lam in mp)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n in decreasing lexicographic order: (n) first, (1,..,1) last."""
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(max_part, n)
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def validate_shape(m: int, n: int) -> None:
    """ValueError unless m >= 1 and n >= 0: the shapes that P_{m,n} is defined for."""
    if m < 1:
        raise ValueError("level m must be at least 1")
    if n < 0:
        raise ValueError("size n must be non-negative")


def enumerate_multipartitions(m: int, n: int) -> Iterator[Multipartition]:
    """All m-multipartitions of n, each exactly once.

    Order: decreasing lex on the size composition (|lam^1|,..,|lam^m|),
    then decreasing lex on each component's parts, last component
    varying fastest.  The order is fixed so that serialized output is
    stable across runs.
    """
    validate_shape(m, n)
    pools = [tuple(partitions_of(k)) for k in range(n + 1)]
    # Stars and bars: n stars among n + m - 1 slots, the rest bars; star i at slot pos
    # lies in part pos - i.  combinations() yields the slot sets in increasing lex
    # order, which is decreasing lex order on the size compositions.
    for stars in itertools.combinations(range(n + m - 1), n):
        comp = [0] * m
        for i, pos in enumerate(stars):
            comp[pos - i] += 1
        yield from itertools.product(*map(pools.__getitem__, comp))


def permute_components(mp: Multipartition, sigma: Sequence[int]) -> Multipartition:
    """Move component s to position sigma(s); sigma is 1-based images."""
    m = len(mp)
    if sorted(sigma) != list(range(1, m + 1)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 1..{m}")
    out: list[Partition] = [()] * m
    for s in range(1, m + 1):
        out[sigma[s - 1] - 1] = mp[s - 1]
    return tuple(out)


@cache
def hook_product(lam: Partition) -> int:
    """Product of all hook lengths of the diagram, the hooks of lam against itself; memoized."""
    return prod(generalized_hooks(lam, lam))


def num_standard_tableaux(mp: Multipartition) -> int:
    """Number of standard fillings of the multidiagram with 1..n.

    Equals multinomial(n; |lam^1|,..,|lam^m|) times the product of the
    per-component hook-length counts, i.e. n! over the product of all
    hook lengths.
    """
    count, rem = divmod(factorial(mp_size(mp)), prod(map(hook_product, mp)))
    if rem:
        raise ArithmeticError("hook product does not divide n!")
    return count


def partition_counts(n: int, cap: float = inf) -> list[int]:
    """[p(0), ..., p(n)] by Euler's pentagonal recurrence, cut after the first value above cap.

    p(k) = sum over j >= 1 of (-1)^(j+1) (p(k - j(3j-1)/2) + p(k - j(3j+1)/2)), in O(k^1.5)
    steps; p grows as exp(pi sqrt(2k/3)), so a cap stops it within a few dozen values.
    """
    p = [1] if n >= 0 else []
    for k in range(1, n + 1):
        if p[-1] > cap:
            break
        total, j, g = 0, 1, 1  # g = j(3j-1)/2, the j-th generalized pentagonal number
        while g <= k:
            term = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            total += term if j % 2 else -term
            j += 1
            g += 3 * j - 2
        p.append(total)
    return p


def multipartition_count(m: int, n: int) -> int:
    """Number of m-multipartitions of n: the m-th convolution power of p(0..n), at n.

    The power is taken by repeated squaring, in O(n^2 log m) steps.
    """
    if m < 1 or n < 0:
        return int(n == 0)

    def convolve(a: list[int], b: list[int]) -> list[int]:
        return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n + 1)]

    counts, power = [1] + [0] * n, partition_counts(n)
    while m:
        if m & 1:
            counts = convolve(counts, power)
        m, power = m >> 1, convolve(power, power)
    return counts[n]
