"""Combinatorics layer: examples plus exhaustive small-domain invariants."""

import itertools
from math import factorial

import pytest

from schurkit.partitions import (
    beta_set,
    conjugate,
    enumerate_multipartitions,
    generalized_hook_length,
    generalized_hooks,
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
from schurkit.schur import schur_element, z_kernel
from support import (
    beta_numbers,
    generalized_hook,
    multipartitions,
    nodes,
    partitions,
    standard_fillings_count,
)

# ------------------------------------------------------------------ oracles


def conjugate_by_columns(lam):
    """Independent conjugate: count nodes per column of the drawn diagram."""
    cols = {}
    for _, j in nodes(lam):
        cols[j] = cols.get(j, 0) + 1
    return tuple(cols[j] for j in sorted(cols))


def hook_by_counting(lam, i, j):
    """Independent hook length: literally count arm, leg and the node itself."""
    arm = sum(1 for (a, b) in nodes(lam) if a == i and b > j)
    leg = sum(1 for (a, b) in nodes(lam) if b == j and a > i)
    return arm + leg + 1


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
    # not iterable, or a str or dict, whose empty value would read as the empty partition
    for parts in (3, None, "", {}, {3: 1}):
        with pytest.raises(ValueError, match="^a partition must be an iterable of ints, got "):
            partition(parts)
    assert partition(iter([2, 1, 0])) == (2, 1)


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)


def test_hook_length_examples():
    assert generalized_hook_length((2, 1), (2, 1), 1, 1) == 3
    assert generalized_hook_length((3, 1), (3, 1), 1, 3) == 1
    assert generalized_hook_length((3,), (3,), 1, 1) == 3
    with pytest.raises(ValueError):
        generalized_hook_length((2, 1), (2, 1), 2, 2)


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
    assert multipartition(map(list, [(1,), ()])) == ((1,), ())
    with pytest.raises(ValueError):
        multipartition([])
    for components in ([1], [[1], None], [[1], {}], [[1], ""]):
        with pytest.raises(ValueError, match="^a partition must be an iterable of ints, got "):
            multipartition(components)
    for components in (5, None, "", {"0": [1]}):
        with pytest.raises(ValueError, match="^a multipartition must be an iterable of partitions"):
            multipartition(components)


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
                assert generalized_hook_length(lam, lam, i, j) == hook_by_counting(lam, i, j)


def test_generalized_hooks_match_counting_on_every_pair_up_to_8():
    pairs = [
        (lam, mu)
        for a in range(9)
        for b in range(9 - a)
        for lam in partitions(a)
        for mu in partitions(b)
    ]
    assert len(pairs) == 434
    for lam, mu in pairs:
        expected = tuple(generalized_hook(lam, mu, i, j) for i, j in nodes(lam))
        assert generalized_hooks(lam, mu) == expected, (lam, mu)
        assert tuple(generalized_hook_length(lam, mu, i, j) for i, j in nodes(lam)) == expected


def test_beta_set_and_l_symbol_are_lam_i_plus_l_minus_i():
    parts = list(all_partitions_up_to(6))
    for lam in parts:
        for length in range(len(lam), len(lam) + 4):
            assert beta_set(lam, length) == beta_numbers(lam, length), (lam, length)
    for mp in enumerate_multipartitions(3, 4):
        length = mp_length(mp) + 1
        assert l_symbol(mp, length) == tuple(beta_numbers(lam, length) for lam in mp)


def test_memoized_reads_take_lists_and_give_equal_tuples():
    # the memos key on tuples; the exported entries that reach them convert lists first
    for lam, mu in (((3, 1), (2, 2)), ((), (1,)), ((2,), ())):
        assert type(conjugate(lam)) is type(beta_set(lam, 3)) is tuple
        as_lists = [list(lam), list(mu)]
        assert schur_element(as_lists, "symbol", 3) == schur_element((lam, mu), "symbol", 3)
        assert z_kernel(*as_lists) == z_kernel(lam, mu)  # conjugate, generalized_hooks
    assert l_symbol(((2,), (1, 1)), 2) == ((3, 0), (2, 1))
    # a refusal is not memoized: it is raised again
    for _ in range(2):
        with pytest.raises(ValueError, match="^L=1 too small for a partition of length 2$"):
            beta_set((2, 1), 1)


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
            assert set(got) == set(multipartitions(m, n))
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
            assert multipartition_count(m, n) == len(list(multipartitions(m, n))), (m, n)
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
