"""Block theory as a second, independent oracle for vanishing Schur elements.

A Specht module of a split symmetric cellular algebra is simple and
projective at theta, and so alone in its block, iff its Schur element is
non-zero there (Geck-Pfeiffer, Characters of Finite Coxeter Groups and
Iwahori-Hecke Algebras, 2000, ch. 7).  The blocks of the degenerate
cyclotomic Hecke algebra are the classes of equal residue multisets, where
node (i, j) of component s has residue theta(q_s) + j - i in the field
(Brundan 2008; Brundan-Kleshchev 2009, in every characteristic).  So
s_L(theta) = 0 iff another multipartition of n has L's residues, and
theta is semisimple iff every class is a singleton.

The residues are computed here from the nodes, with the stdlib only, and
share no formula with the library.
"""

import itertools
from collections import Counter

import pytest

from schurkit import (
    Specialization,
    ZeroFormIndex,
    enumerate_multipartitions,
    is_semisimple,
    schur_elements_table,
)

SHAPES = [(m, n) for m in (1, 2, 3) for n in range(1, 5)] + [(2, 5), (4, 2), (4, 3)]
PRIMES = (2, 3, 5, 7)


def contents(mp):
    """(s, j - i) for every node (i, j) of every component s (0-based s)."""
    return [
        (s, j - i)
        for s, lam in enumerate(mp)
        for i, row in enumerate(lam, 1)
        for j in range(1, row + 1)
    ]


def predicted_vanishing(cells_by_mp, theta, prime, sign):
    """The multipartitions that share their residue multiset with another one."""
    keys = {}
    for mp, cells in cells_by_mp:
        values = (sign * theta[s] + c for s, c in cells)
        keys[mp] = tuple(sorted(v % prime if prime else v for v in values))
    sizes = Counter(keys.values())
    return {mp for mp, key in keys.items() if sizes[key] > 1}


def rational_thetas(m, n):
    """The integer box [-n-1, n+1] at q_m = 0, then points spaced 2n apart.

    The spaced points, and the same with q_1 shifted by 1, are semisimple;
    the last puts q_1 on a hyperplane through q_2, so it is not.
    """
    for point in itertools.product(range(-n - 1, n + 2), repeat=m - 1):
        yield (*point, 0)
    spaced = tuple(2 * n * s for s in range(1, m + 1))
    yield spaced
    yield (spaced[0] + 1, *spaced[1:])
    if m >= 2:
        yield (spaced[1] + n - 1, *spaced[1:])


def residue_mismatches(m, n, thetas, prime=None, sign=1):
    """Count the theta checked; list those where the prediction and the library disagree.

    A theta disagrees when the predicted vanishing set differs from the
    zero-form index's, or when "every class is a singleton" differs from
    is_semisimple.  Also returns how many theta were semisimple.
    """
    cells_by_mp = [(mp, contents(mp)) for mp in enumerate_multipartitions(m, n)]
    index = ZeroFormIndex(schur_elements_table(m, n))
    checked, semisimple, bad = 0, 0, []
    for theta in thetas:
        spec = Specialization(dict(enumerate(theta, 1)), prime=prime)
        expected = predicted_vanishing(cells_by_mp, theta, prime, sign)
        got = is_semisimple(m, n, spec)
        if set(index.vanishing(spec)) != expected or got != (not expected):
            bad.append(theta)
        checked += 1
        semisimple += got
    return checked, semisimple, bad


@pytest.mark.parametrize("m, n", SHAPES)
def test_residue_classes_predict_vanishing_over_q(m, n):
    checked, semisimple, bad = residue_mismatches(m, n, rational_thetas(m, n))
    assert bad == []
    assert semisimple >= 1
    if m >= 2:
        assert semisimple < checked  # both sides of the criterion are reached


@pytest.mark.parametrize("m, n", SHAPES)
def test_residue_classes_predict_vanishing_over_fp(m, n):
    for p in PRIMES:  # p <= n included: there n! = 0 and nothing is semisimple
        thetas = ((*point, 0) for point in itertools.product(range(p), repeat=m - 1))
        _, semisimple, bad = residue_mismatches(m, n, thetas, prime=p)
        assert bad == [], p
        if p <= n:
            assert semisimple == 0


def test_opposite_residue_convention_is_caught():
    box = ((a, b, 0) for a, b in itertools.product(range(-4, 5), repeat=2))
    checked, _, bad = residue_mismatches(3, 3, box, sign=-1)
    assert checked == 81
    assert len(bad) > checked // 2  # 60 of the 81


DRAWN_SHAPES = [(2, n) for n in range(2, 6)] + [(3, n) for n in range(2, 5)] + [(4, 2), (4, 3)]
DRAWN_PRIMES = (3, 7, 101, 10007, 998_244_353, 999_999_999_999_999_989, 2_305_843_009_213_693_951)


@pytest.mark.parametrize("field", ["Q", "Fp"])
def test_residue_classes_predict_vanishing_on_drawn_theta(field):
    """theta mixes components spaced 2n apart with components on or next to a hyperplane.

    Component s is either 2ns + e with |e| <= 1, or q_t + d for an earlier
    t and |d| <= n: on the hyperplane d + q_t - q_s = 0 when |d| < n, next
    to it when |d| = n.  Over F_p, d may be shifted by p, so that equal
    residues come from distinct integers.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    verdicts = set()

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(shape=st.sampled_from(DRAWN_SHAPES), data=st.data())
    def check(shape, data):
        m, n = shape
        prime = None if field == "Q" else data.draw(st.sampled_from(DRAWN_PRIMES))
        theta = []
        for s in range(1, m + 1):
            if s > 1 and data.draw(st.booleans()):
                d = data.draw(st.integers(-n, n)) + (prime or 0) * data.draw(st.integers(-1, 1))
                theta.append(theta[data.draw(st.integers(0, s - 2))] + d)
            else:
                theta.append(2 * n * s + data.draw(st.integers(-1, 1)))
        _, semisimple, bad = residue_mismatches(m, n, [tuple(theta)], prime)
        assert bad == []
        if m == 4:
            verdicts.add(semisimple)

    check()
    if field == "Q":
        assert verdicts == {0, 1}  # the semisimple side is reached at m = 4 over Q
