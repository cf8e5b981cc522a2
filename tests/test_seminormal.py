"""Seminormal residues as a fourth, independent route to whole Schur elements.

In the seminormal form the Schur element is a product along any one
standard tableau T of shape L (Mathas, Matrix units and generic degrees
for the Ariki-Koike algebras, J. Algebra 281, 2004; for the degenerate
algebra Ariki-Mathas-Rui, Cyclotomic Nazarov-Wenzl algebras, Nagoya
Math. J. 182, 2006).  Node (i, j) of component s has residue
res = q_s + j - i.  If alpha_k is the node of T that holds k and L_(k-1)
the shape of the entries below k, then

  s_L = prod_k  prod_{beta addable to L_(k-1), beta != alpha_k} (res alpha_k - res beta)
              / prod_{beta removable from L_(k-1)} (res alpha_k - res beta).

At m = 1 this is the hook product.  The residues, addable and removable
nodes and tableaux are built here, and the multipartitions and the product
in support.py, with the stdlib only, so no hook, beta number or kernel of
the library takes part: the check reads whole values, constant and
factors, of all three formulas.
"""

import random

import pytest

from schurkit import schur_element
from support import fold, multipartitions

FORMULAS = ("product", "symbol", "cancellation")
SHAPES = [(m, n) for m, top in ((1, 6), (2, 5), (3, 4)) for n in range(1, top + 1)]
SHAPES += [(4, 3), (5, 2)]
SLOW_SHAPES = [(m, n) for m, top in ((2, 9), (3, 6), (4, 5)) for n in range(1, top + 1)]


def addable(shape):
    """The nodes (s, i, j), 1-based, that can be added to the multipartition shape."""
    for s, lam in enumerate(shape, 1):
        rows = (*lam, 0)
        for i, row in enumerate(rows, 1):
            if i == 1 or rows[i - 2] > row:
                yield s, i, row + 1


def removable(shape):
    """The nodes (s, i, j), 1-based, whose removal leaves a multipartition."""
    for s, lam in enumerate(shape, 1):
        for i, row in enumerate(lam, 1):
            if i == len(lam) or lam[i] < row:
                yield s, i, row


def grow(shape, node):
    """shape with node added (node is addable, or one row past the last)."""
    s, i, _ = node
    lam = list(shape[s - 1])
    if i > len(lam):
        lam.append(0)
    lam[i - 1] += 1
    return (*shape[: s - 1], tuple(lam), *shape[s:])


def row_reading(mp):
    """The standard tableau filled component by component, row by row."""
    return [
        (s, i, j)
        for s, lam in enumerate(mp, 1)
        for i, row in enumerate(lam, 1)
        for j in range(1, row + 1)
    ]


def column_reading(mp):
    """The standard tableau filled component by component, column by column."""
    nodes = []
    for s, lam in enumerate(mp, 1):
        for j in range(1, (lam[0] if lam else 0) + 1):
            nodes += [(s, i, j) for i, row in enumerate(lam, 1) if row >= j]
    return nodes


def random_tableau(mp, rng):
    """A standard tableau of shape mp: remove random removable nodes, then reverse."""
    shape, nodes = mp, []
    while any(shape):
        s, i, j = rng.choice(list(removable(shape)))
        lam = list(shape[s - 1])
        lam[i - 1] -= 1
        shape = (*shape[: s - 1], tuple(row for row in lam if row), *shape[s:])
        nodes.append((s, i, j))
    return nodes[::-1]


def seminormal(m, tableau):
    """The residue product along tableau: its shape, constant and {(s, t, c): exp}.

    Each difference res alpha - res beta = (c_alpha - c_beta) + q_a - q_b is
    one occurrence for fold, which reads it as a constant when a == b and
    orients it otherwise.
    """
    occurrences, shape = [], ((),) * m
    for alpha in tableau:
        a, c_alpha = alpha[0], alpha[2] - alpha[1]
        others = [(beta, 1) for beta in addable(shape) if beta != alpha]
        others += [(beta, -1) for beta in removable(shape)]
        occurrences += [(c_alpha - (j - i), a, b, exp) for (b, i, j), exp in others]
        shape = grow(shape, alpha)
    return (shape, *fold(occurrences))


def mismatches(mp, tableau):
    """The formulas whose element of mp differs from the seminormal product along tableau."""
    shape, constant, factors = seminormal(len(mp), tableau)
    assert shape == mp
    bad = []
    for formula in FORMULAS:
        element = schur_element(mp, formula)
        got = {(form.s, form.t, form.c): e for form, e in element.factors.items()}
        if element.constant != constant or got != factors:
            bad.append((mp, formula))
    return bad


def sweep(shapes):
    checked, bad = 0, []
    for m, n in shapes:
        for mp in multipartitions(m, n):
            for reading in (row_reading, column_reading):
                bad += mismatches(mp, reading(mp))
                checked += 1
    return checked, bad


def test_the_oracle_is_the_hook_product_at_level_one():
    hooks = {(): 1, (1,): 1, (2,): 2, (1, 1): 2, (2, 1): 3, (3, 1): 8, (2, 2): 12}
    for lam, product in hooks.items():
        for reading in (row_reading, column_reading):
            assert seminormal(1, reading((lam,)))[1:] == (product, {})


def test_the_oracle_counts_its_own_multipartitions():
    # the numbers of multipartitions of (m, n) are the coefficients of prod (1 - x^k)^-m
    assert [sum(1 for _ in multipartitions(2, n)) for n in range(6)] == [1, 2, 5, 10, 20, 36]
    assert sum(1 for _ in multipartitions(4, 3)) == 40


def test_every_element_is_the_seminormal_product():
    checked, bad = sweep(SHAPES)
    assert checked == 494
    assert bad == []


def test_the_seminormal_product_does_not_depend_on_the_tableau():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    shapes = [(2, 7), (3, 5), (4, 4), (5, 3), (6, 2)]

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(shape=st.sampled_from(shapes), data=st.data())
    def check(shape, data):
        mp = data.draw(st.sampled_from(list(multipartitions(*shape))))
        tableau = random_tableau(mp, random.Random(data.draw(st.integers(0, 2**32))))
        assert mismatches(mp, tableau) == []

    check()


@pytest.mark.slow
def test_every_larger_element_is_the_seminormal_product():
    checked, bad = sweep(SLOW_SHAPES)
    assert checked == 2 * sum(1 for shape in SLOW_SHAPES for _ in multipartitions(*shape))
    assert bad == []
