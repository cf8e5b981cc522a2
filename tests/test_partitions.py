"""Combinatorics layer: examples plus exhaustive small-domain invariants."""

import itertools
from math import factorial

import pytest

from schurkit.partitions import (
    beta_set,
    conjugate,
    enumerate_multipartitions,
    generalized_hook_length,
    hook_length,
    hook_product,
    l_symbol,
    mp_length,
    multipartition,
    multipartition_count,
    num_standard_tableaux,
    partition,
    partitions_of,
    permute_components,
)

# ------------------------------------------------------------------ oracles


def diagram(lam):
    return {(i, j) for i, row in enumerate(lam, 1) for j in range(1, row + 1)}


def conjugate_by_columns(lam):
    """Independent conjugate: count nodes per column of the drawn diagram."""
    nodes = diagram(lam)
    cols = {}
    for _, j in nodes:
        cols[j] = cols.get(j, 0) + 1
    return tuple(cols[j] for j in sorted(cols))


def hook_by_counting(lam, i, j):
    """Independent hook length: literally count arm, leg and the node itself."""
    nodes = diagram(lam)
    arm = sum(1 for (a, b) in nodes if a == i and b > j)
    leg = sum(1 for (a, b) in nodes if b == j and a > i)
    return arm + leg + 1


def partitions_by_ascending(n):
    """Independent partition generator (ascending composition recursion)."""

    def gen(n, smallest):
        if n == 0:
            yield ()
            return
        for first in range(smallest, n + 1):
            for rest in gen(n - first, first):
                yield (first,) + rest

    return {tuple(reversed(p)) for p in gen(n, 1)}


def multipartitions_brute(m, n):
    """Independent multipartition set: all ways to split n and pick partitions."""
    out = set()
    for sizes in itertools.product(range(n + 1), repeat=m):
        if sum(sizes) != n:
            continue
        for combo in itertools.product(*(partitions_by_ascending(k) for k in sizes)):
            out.add(combo)
    return out


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


def all_partitions_up_to(n):
    for k in range(n + 1):
        yield from partitions_of(k)


# ----------------------------------------------------------------- examples


def test_partition_constructor():
    assert partition([3, 1, 0, 0]) == (3, 1)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([2, -1])
    for parts in ([2.7], ["3"], [True], [2, 1.0]):
        with pytest.raises(ValueError, match="parts must be ints"):
            partition(parts)


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)


def test_hook_length_examples():
    assert hook_length((2, 1), 1, 1) == 3
    assert hook_length((3, 1), 1, 3) == 1
    assert hook_length((3,), 1, 1) == 3
    with pytest.raises(ValueError):
        hook_length((2, 1), 2, 2)


def test_generalized_hook_examples():
    assert generalized_hook_length((1,), (), 1, 1) == 0
    assert generalized_hook_length((2, 1), (2, 1), 1, 1) == 3
    assert generalized_hook_length((2, 1), (3, 2, 1), 1, 1) == 4
    with pytest.raises(ValueError):
        generalized_hook_length((1,), (3,), 1, 2)


def test_beta_set_examples():
    assert beta_set((), 3) == (2, 1, 0)
    assert beta_set((3, 1), 2) == (4, 1)
    assert beta_set((2, 1), 2) == (3, 1)
    with pytest.raises(ValueError):
        beta_set((3, 1, 1), 2)


def test_l_symbol_examples():
    assert l_symbol(((), ()), 1) == ((0,), (0,))
    assert l_symbol(((1,), (1,)), 1) == ((1,), (1,))
    assert l_symbol(((2,), (1, 1)), 2) == ((3, 0), (2, 1))
    with pytest.raises(ValueError):
        l_symbol(((1, 1), ()), 1)


def test_enumerate_examples():
    assert list(enumerate_multipartitions(2, 1)) == [((1,), ()), ((), (1,))]
    assert len(list(enumerate_multipartitions(1, 4))) == 5
    assert len(list(enumerate_multipartitions(2, 2))) == 5


def test_num_standard_tableaux_examples():
    assert num_standard_tableaux(((1,), (1,))) == 2
    assert num_standard_tableaux(((2, 1),)) == 2
    assert num_standard_tableaux(((), (), ())) == 1


def test_multipartition_constructor():
    assert multipartition([[2, 1], []]) == ((2, 1), ())
    with pytest.raises(ValueError):
        multipartition([])


def test_permute_components():
    mp = ((2,), (1,), ())
    assert permute_components(mp, (2, 3, 1)) == ((), (2,), (1,))
    assert permute_components(mp, (1, 2, 3)) == mp
    with pytest.raises(ValueError):
        permute_components(mp, (1, 1, 2))


# --------------------------------------------------------------- invariants


def test_conjugate_involution_and_columns_exhaustive():
    for lam in all_partitions_up_to(10):
        assert conjugate(lam) == conjugate_by_columns(lam)
        assert conjugate(conjugate(lam)) == lam


def test_hook_formula_matches_counting_exhaustive():
    for lam in all_partitions_up_to(10):
        for i, row in enumerate(lam, 1):
            for j in range(1, row + 1):
                assert hook_length(lam, i, j) == hook_by_counting(lam, i, j)
                assert generalized_hook_length(lam, lam, i, j) == hook_length(lam, i, j)


def test_beta_set_round_trip():
    for lam in all_partitions_up_to(10):
        for extra in range(4):
            length = len(lam) + extra
            beta = beta_set(lam, length)
            assert len(beta) == length
            assert all(a > b for a, b in zip(beta, beta[1:]))
            assert partition(b - length + i for i, b in enumerate(beta, 1)) == lam
            assert beta_set(lam, length + 1) == tuple(b + 1 for b in beta) + (0,)


def test_beta_sets_at_distinct_l_differ():
    assert beta_set((2, 1), 2) != beta_set((2, 1), 3)


def test_enumeration_matches_brute_force_and_counts():
    for m in (1, 2, 3):
        for n in range(0, 9):
            got = list(enumerate_multipartitions(m, n))
            assert len(got) == len(set(got)), "duplicates in enumeration"
            assert set(got) == multipartitions_brute(m, n)
            assert len(got) == multipartition_count(m, n)


def convolved_count(m, n):
    """p(0..n) by the largest-part recurrence, convolved m times, every term formed."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    counts = [1] + [0] * n
    for _ in range(m):
        counts = [sum(counts[j] * p[k - j] for j in range(k + 1)) for k in range(n + 1)]
    return counts[n]


def test_multipartition_count_matches_brute_force_and_the_plain_convolution():
    for m in range(5):
        for n in range(6):
            assert multipartition_count(m, n) == len(multipartitions_brute(m, n)), (m, n)
        for n in range(61):
            assert multipartition_count(m, n) == convolved_count(m, n), (m, n)


def test_enumeration_order_is_by_composition_then_parts():
    mps = list(enumerate_multipartitions(2, 2))
    assert mps == [
        ((2,), ()),
        ((1, 1), ()),
        ((1,), (1,)),
        ((), (2,)),
        ((), (1, 1)),
    ]


def size_compositions(m, n):
    """The size vectors (|lam^1|, .., |lam^m|) of the enumeration, one per run of equal ones."""
    sizes = (tuple(map(sum, mp)) for mp in enumerate_multipartitions(m, n))
    return [comp for comp, _ in itertools.groupby(sizes)]


def test_compositions_cover_and_order():
    comps = size_compositions(3, 2)
    assert comps[0] == (2, 0, 0)
    assert comps[-1] == (0, 0, 2)
    assert len(comps) == len(set(comps)) == 6


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_compositions_match_a_brute_force_filter(m):
    # decreasing lex on the size vectors, each vector's multipartitions in one run
    for n in range(6):
        expected = sorted(
            (c for c in itertools.product(range(n + 1), repeat=m) if sum(c) == n), reverse=True
        )
        assert size_compositions(m, n) == expected


def test_compositions_reach_past_the_recursion_limit():
    count = 0
    for mp in enumerate_multipartitions(5000, 1):
        if not count:
            assert mp[0] == (1,) and len(mp) == 5000
        count += 1
    assert count == 5000
    assert mp[-1] == (1,) and mp[:-1] == ((),) * 4999
    with pytest.raises(ValueError):
        next(enumerate_multipartitions(0, 1))


def test_num_standard_tableaux_matches_enumeration():
    for m in (1, 2, 3):
        for n in range(0, 6):
            for mp in enumerate_multipartitions(m, n):
                assert num_standard_tableaux(mp) == standard_fillings_count(mp)


def test_hook_product_single_row():
    assert hook_product((4,)) == factorial(4)
    assert hook_product(()) == 1


def test_mp_length():
    assert mp_length(((2, 1), (1, 1, 1))) == 3
    assert mp_length(((), ())) == 0
