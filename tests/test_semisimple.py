"""Semisimplicity criterion: worked examples, targeted witnesses, random agreement."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from schurkit.exact import FactoredRational, Specialization, fr_eval, fr_form
from schurkit.schur import p_invariant, schur_element
from schurkit.semisimple import (
    ZeroFormIndex,
    cross_check_criterion,
    is_semisimple,
    separation_failure_cases,
    random_specialization,
    schur_elements_table,
    vanishing_schur_elements,
)


def test_is_semisimple_examples():
    assert is_semisimple(1, 3, Specialization({1: 0}))
    assert not is_semisimple(2, 1, Specialization({1: 0, 2: 0}))
    assert not is_semisimple(2, 2, Specialization({1: 1, 2: 0}))


def test_vanishing_examples():
    both = vanishing_schur_elements(2, 1, Specialization({1: 3, 2: 3}))
    assert both == [((1,), ()), ((), (1,))]
    assert vanishing_schur_elements(2, 1, Specialization({1: 5, 2: 0})) == []
    # at n=1 no factor 1 + q_s - q_t exists, so q1 - q2 = 1 stays semisimple
    assert vanishing_schur_elements(2, 1, Specialization({1: 1, 2: 0})) == []


def test_cross_check_offset_one():
    report = cross_check_criterion(2, 2, Specialization({1: 1, 2: 0}))
    assert report.p_value == 0
    assert not report.semisimple
    assert report.agreement
    # q1 - q2 = 1 kills exactly these three elements
    assert report.vanishing == [
        ((1, 1), ()),
        ((1,), (1,)),
        ((), (2,)),
    ]


def test_cross_check_factorial_case():
    # characteristic p = n: n! = 0 and the one-row multipartition vanishes
    report = cross_check_criterion(1, 3, Specialization({1: 1}, prime=3))
    assert report.p_value == 0
    assert not report.semisimple
    assert ((3,),) in report.vanishing
    assert report.agreement


def test_cross_check_generic_point():
    report = cross_check_criterion(2, 1, Specialization({1: Fraction(7, 2), 2: 0}))
    assert report.semisimple
    assert report.vanishing == []
    assert report.agreement


def test_report_json_schema():
    report = cross_check_criterion(2, 1, Specialization({1: 0, 2: 0}))
    data = report.to_json()
    assert list(data) == ["p_value", "semisimple", "vanishing", "agreement", "field"]
    assert data == {
        "p_value": "0",
        "semisimple": False,
        "vanishing": [[[1], []], [[], [1]]],
        "agreement": True,
        "field": "Q",
    }


def test_separation_failure_witnesses():
    for m in (1, 2, 3):
        for n in (1, 2, 3, 4):
            for name, theta, witness in separation_failure_cases(m, n):
                report = cross_check_criterion(m, n, theta)
                assert not report.semisimple, (name, m, n)
                assert witness in report.vanishing, (name, m, n)
                assert report.agreement, (name, m, n)


def test_targeted_offsets_direct():
    # theta(k + q_s - q_t) = 0 with 0 <= k < n: witness puts (n) in component s
    m, n = 2, 3
    for k in range(n):
        theta = Specialization({1: -k, 2: 0})
        vanishing = vanishing_schur_elements(m, n, theta)
        assert ((n,), ()) in vanishing
    # -n < k < 0: witness puts (n) in component t
    for k in range(-(n - 1), 0):
        theta = Specialization({1: -k, 2: 0})
        vanishing = vanishing_schur_elements(m, n, theta)
        assert ((), (n,)) in vanishing


def test_random_specialization_ranges():
    rng = random.Random(1)
    theta = random_specialization(3, 4, rng)
    assert set(theta.q_values) == {1, 2, 3}
    assert all(-4 <= v <= 4 for v in theta.q_values.values())
    modular = random_specialization(3, 4, rng, prime=101)
    assert all(0 <= v < 101 for v in modular.q_values.values())


def test_criterion_equals_p_evaluation():
    rng = random.Random(9)
    for _ in range(50):
        theta = random_specialization(2, 3, rng)
        assert is_semisimple(2, 3, theta) == (fr_eval(p_invariant(2, 3), theta) != 0)


def test_vanishing_never_raises_poles():
    # cancellation-free elements are polynomial products: every evaluation works
    theta = Specialization({1: 0, 2: 0, 3: 0})
    for mp, element in schur_elements_table(3, 3):
        fr_eval(element, theta)
        assert element == schur_element(mp, "cancellation")


# ------------------------------------------------- zero-form index vs oracle


@lru_cache(maxsize=None)
def _table(m, n):
    return tuple(schur_elements_table(m, n))


def oracle_vanishing(table, theta):
    """Evaluate every element in full and keep those that are zero."""
    return [mp for mp, element in table if fr_eval(element, theta) == 0]


ORACLE_SHAPES = [(m, n) for m in (1, 2, 3) for n in range(1, 6)] + [(4, 3)]
ORACLE_FIELDS = (None, 2, 3, 5, 7, 101)


def _oracle_theta(m, n, prime, rng):
    """q values k/d with d in {1, 2, 3}: integers near [-n, n], halves, thirds.

    Over F_p the denominators that vanish mod p are left out, and the
    numerators range over a few multiples of p so that residues repeat.
    """
    dens = [d for d in (1, 2, 3) if prime is None or d % prime]
    d = rng.choice(dens)
    span = (n + 1) * d if prime is None else 2 * prime
    values = {}
    for s in range(1, m + 1):
        # mostly one shared denominator, so that differences are often integral
        ds = d if rng.random() < 0.8 else rng.choice(dens)
        values[s] = Fraction(rng.randint(-span, span), ds)
    return Specialization(values, prime=prime)


@pytest.mark.parametrize("m,n", ORACLE_SHAPES)
def test_zero_form_index_matches_oracle(m, n):
    table = _table(m, n)
    index = ZeroFormIndex(table)
    rng = random.Random(1000 * m + n)
    hits = 0
    for prime in ORACLE_FIELDS:
        for _ in range(20):
            theta = _oracle_theta(m, n, prime, rng)
            expected = oracle_vanishing(table, theta)
            assert index.vanishing(theta) == expected, (m, n, prime, theta.q_values)
            hits += bool(expected)
    # the draws reach vanishing elements; P_{1,1} has the single element 1
    assert hits or (m, n) == (1, 1)


def test_zero_form_index_integer_grid_over_q():
    # every integer point of the box [-n-1, n+1]^2, for two components
    for n in range(1, 6):
        table = _table(2, n)
        index = ZeroFormIndex(table)
        for a in range(-n - 1, n + 2):
            for b in range(-n - 1, n + 2):
                theta = Specialization({1: a, 2: b})
                assert index.vanishing(theta) == oracle_vanishing(table, theta), (n, a, b)


def test_zero_form_index_synthetic_table():
    # a zero element, a constant, a flipped form and a cubed form
    table = [
        (((1,), ()), FactoredRational(Fraction(0), {})),
        (((), (1,)), FactoredRational(Fraction(6), {})),
        (((2,), ()), fr_form(-1, 2, 1) * fr_form(-2, 2, 1)),
        (((1,), (1,)), fr_form(2, 1, 2, exp=3)),
    ]
    index = ZeroFormIndex(table)
    for prime in (None, 2, 3, 5):
        for q1, q2 in ((0, 0), (0, 3), (1, 3), (5, 1), (Fraction(1, 7), Fraction(15, 7))):
            theta = Specialization({1: q1, 2: q2}, prime=prime)
            assert index.vanishing(theta) == oracle_vanishing(table, theta), (prime, q1, q2)
    assert index.vanishing(Specialization({1: 1, 2: 3})) == [((1,), ()), ((2,), ()), ((1,), (1,))]


def test_zero_form_index_rejects_negative_exponents():
    element = fr_form(1, 1, 2, exp=-1)
    with pytest.raises(ValueError):
        ZeroFormIndex([(((1,), ()), element)])


def test_an_index_of_another_table_is_rejected():
    theta = Specialization({1: -2, 2: 0})
    report = cross_check_criterion(2, 3, theta)
    assert report.agreement and not report.semisimple
    assert cross_check_criterion(2, 3, theta, ZeroFormIndex(schur_elements_table(2, 3))) == report
    index = ZeroFormIndex(schur_elements_table(2, 2))
    assert index.shape == (2, 2)
    with pytest.raises(ValueError, match=r"\(2, 2\), not \(2, 3\)"):
        cross_check_criterion(2, 3, theta, index)
    with pytest.raises(ValueError):
        vanishing_schur_elements(3, 2, theta, index)
    with pytest.raises(ValueError):
        ZeroFormIndex([])


def test_zero_form_index_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        shape=st.sampled_from([(m, n) for m in (1, 2, 3, 4) for n in range(1, 7) if m * n <= 16]),
        prime=st.sampled_from((None, 2, 3, 5, 7, 11, 101, 10007)),
        data=st.data(),
    )
    def check(shape, prime, data):
        m, n = shape
        dens = [d for d in range(1, 5) if prime is None or d % prime]
        values = {
            s: Fraction(data.draw(st.integers(-2 * n, 2 * n)), data.draw(st.sampled_from(dens)))
            for s in range(1, m + 1)
        }
        theta = Specialization(values, prime=prime)
        table = _table(m, n)
        assert ZeroFormIndex(table).vanishing(theta) == oracle_vanishing(table, theta)

    check()
