"""Partitions, multipartitions, hooks, beta sets and symbols.

A partition is stored as a tuple of weakly decreasing positive integers;
the empty tuple is the empty partition.  A multipartition is a tuple of
partitions.  Rows, columns and components are 1-based everywhere.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial
from typing import Iterable, Iterator, Sequence

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]


def partition(parts: Iterable[int]) -> Partition:
    """Build a partition from an iterable of ints, stripping trailing zeros."""
    p = tuple(parts)
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
    """Build a multipartition (tuple of partitions)."""
    mp = tuple(partition(c) for c in components)
    if not mp:
        raise ValueError("a multipartition needs at least one component")
    return mp


def mp_size(mp: Multipartition) -> int:
    return sum(sum(lam) for lam in mp)


def mp_length(mp: Multipartition) -> int:
    """Maximum number of rows over the components."""
    return max((len(lam) for lam in mp), default=0)


def conjugate(lam: Partition) -> Partition:
    """Column counts of the diagram: result_j = #{i : lam_i >= j}."""
    if not lam:
        return ()
    return tuple(sum(1 for v in lam if v >= j) for j in range(1, lam[0] + 1))


def conjugate_part(lam: Partition, j: int) -> int:
    """The j-th part of the conjugate, zero when j exceeds the first row."""
    return sum(1 for v in lam if v >= j)


def nodes(lam: Partition) -> Iterator[tuple[int, int]]:
    """All nodes (i, j) of the diagram, row by row."""
    for i, row in enumerate(lam, 1):
        for j in range(1, row + 1):
            yield (i, j)


def hook_length(lam: Partition, i: int, j: int) -> int:
    """Number of nodes at, right of and below (i, j): lam_i - i + lam'_j - j + 1."""
    return generalized_hook_length(lam, lam, i, j)


def generalized_hook_length(lam: Partition, mu: Partition, i: int, j: int) -> int:
    """Mixed arm/leg statistic lam_i - i + mu'_j - j + 1; may be non-positive.

    The node must lie in the diagram of lam; mu is arbitrary and its
    conjugate contributes zero in columns beyond mu_1.  Coincides with
    the ordinary hook length when mu == lam.
    """
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise ValueError(f"node ({i},{j}) outside the diagram of {lam}")
    return lam[i - 1] - i + conjugate_part(mu, j) - j + 1


def beta_set(lam: Partition, length: int) -> tuple[int, ...]:
    """Beta numbers lam_i + L - i for i = 1..L, strictly decreasing.

    L must be at least the number of rows; the result determines both
    lam and L (its own length).
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


def enumerate_multipartitions(m: int, n: int) -> Iterator[Multipartition]:
    """All m-multipartitions of n, each exactly once.

    Order: decreasing lex on the size composition (|lam^1|,..,|lam^m|),
    then decreasing lex on each component's parts, last component
    varying fastest.  The order is fixed so that serialized output is
    stable across runs.
    """
    if m < 1:
        raise ValueError("level m must be at least 1")
    if n < 0:
        raise ValueError("size n must be non-negative")
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
    """Product of all hook lengths of the diagram; memoized, so lam is a tuple."""
    prod = 1
    for i, j in nodes(lam):
        prod *= hook_length(lam, i, j)
    return prod


def num_standard_tableaux(mp: Multipartition) -> int:
    """Number of standard fillings of the multidiagram with 1..n.

    Equals multinomial(n; |lam^1|,..,|lam^m|) times the product of the
    per-component hook-length counts, i.e. n! over the product of all
    hook lengths.
    """
    n = mp_size(mp)
    denom = 1
    for lam in mp:
        denom *= hook_product(lam)
    count, rem = divmod(factorial(n), denom)
    if rem:
        raise ArithmeticError("hook product does not divide n!")
    return count


def multipartition_count(m: int, n: int) -> int:
    """Number of m-multipartitions of n: the partition counts p(0..n), convolved m times.

    p(k) comes from Euler's pentagonal recurrence, p(k) = sum over j >= 1 of
    (-1)^(j+1) (p(k - j(3j-1)/2) + p(k - j(3j+1)/2)), in O(n^1.5) steps, and the
    last convolution forms only its n-th term.
    """
    if m < 1:
        return int(n == 0)
    p = [1] + [0] * n
    for k in range(1, n + 1):
        total, j, g = 0, 1, 1  # g = j(3j-1)/2, the j-th generalized pentagonal number
        while g <= k:
            term = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            total += term if j % 2 else -term
            j += 1
            g += 3 * j - 2
        p[k] = total
    counts = p  # m = 1
    for _ in range(m - 2):
        counts = [sum(counts[j] * p[k - j] for j in range(k + 1)) for k in range(n + 1)]
    return p[n] if m == 1 else sum(counts[j] * p[n - j] for j in range(n + 1))
