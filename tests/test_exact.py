"""Exact arithmetic: canonical forms, products, expansion, evaluation."""

import json
import random
import sys
from fractions import Fraction
from math import factorial, isqrt, prod

import pytest

from schurkit.exact import (
    MAX_MODULUS,
    PRINTED_DIGITS,
    FactoredRational,
    NonIntegerConstantError,
    NotAPolynomialError,
    PoleError,
    ProductBuilder,
    SparsePoly,
    Specialization,
    apply_permutation,
    fr_eval,
    fr_expand,
    fr_form,
    qindex,
    qvar,
    rational_from_text,
)
from schurkit.exact import _is_prime
from schurkit.partitions import enumerate_multipartitions
from schurkit.schur import FORMULAS, THOUSAND_WORDS, WORK_BUDGET, p_invariant, schur_element
from schurkit.schur import x_kernel, y_kernel, z_kernel

import contract
from support import fold, poly_at


def random_factored(rng: random.Random, max_factors: int = 4) -> FactoredRational:
    """Random canonical value over q1..q3 with small integer data."""
    b = ProductBuilder()
    b.const(Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3])))
    pool = [(1, 2), (1, 3), (2, 3)]
    for _ in range(rng.randint(0, max_factors)):
        s, t = rng.choice(pool)
        c = rng.randint(-3, 3)
        exp = rng.choice([-2, -1, 1, 2])
        b.form(c, s, t, exp=exp)
    return b.build()


def random_theta(rng: random.Random, prime=None) -> Specialization:
    if prime is None:
        values = {s: Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for s in (1, 2, 3)}
    else:
        values = {s: rng.randrange(prime) for s in (1, 2, 3)}
    return Specialization(values, prime=prime)


# ----------------------------------------------------------- canonical form


def test_canonical_orientation():
    assert fr_form(0, 2, 1) == FactoredRational(-1, {(1, 2, 0): 1})
    assert fr_form(5, 1, 3) == FactoredRational(1, {(1, 3, 5): 1})
    assert fr_form(4, 2, 2) == FactoredRational(4, {})
    assert fr_form(-1, 3, 1) == FactoredRational(-1, {(1, 3, 1): 1})
    # both orientations give one form, and an even exponent keeps the sign
    squared = FactoredRational(1, {(1, 3, 1): 2})
    assert fr_form(-1, 3, 1, exp=2) == fr_form(1, 1, 3, exp=2) == squared
    with pytest.raises(ValueError, match="positive"):
        fr_form(1, 0, 2)
    # the indices are checked before a form with s == t folds into the constant
    for q in (0, -3):
        with pytest.raises(ValueError, match=f"^parameter indices must be positive, got q{q} and q{q}$"):
            fr_form(2, q, q)


def test_linear_form_is_a_plain_int_triple():
    [form] = fr_form(-2, 1, 2).factors
    assert type(form) is tuple and form == (1, 2, -2)
    # tuple order is the render order
    forms = [(2, 3, -5), (1, 3, 4), (1, 2, 1), (1, 2, -1)]
    value = FactoredRational(1, dict.fromkeys(forms, 1))
    assert [form for form, _ in value.sorted_factors()] == sorted(forms)
    assert value.render() == "(-1+q1-q2)(1+q1-q2)(4+q1-q3)(-5+q2-q3)"


def test_every_path_keys_its_factors_by_canonical_int_triples():
    a = fr_form(3, 2, 1, exp=2) * fr_form(-1, 1, 3)
    b = fr_form(0, 3, 2, exp=-1)
    values = [schur_element(((2,), (1,), ()), formula) for formula in FORMULAS]
    values += [kernel((2, 1), (1,)) for kernel in (x_kernel, z_kernel)]
    values += [y_kernel((2, 1), (1,), 3), p_invariant(3, 2), a * b, a / b, b**-3, a**2]
    values += [apply_permutation((3, 1, 2), a / b), fr_form(-2, 3, 1)]
    for value in values:
        assert value.factors
        for form in value.factors:
            assert type(form) is tuple and len(form) == 3, form
            assert all(type(k) is int for k in form) and 1 <= form[0] < form[1], form


def test_constants_never_stored_as_factors():
    value = fr_form(4, 1, 1, exp=2)
    assert value == FactoredRational(16, {})
    assert value.factors == {}


def test_fr_mul_examples():
    a = fr_form(0, 1, 2)
    assert a * (a ** -1) == FactoredRational(1, {})

    two = FactoredRational(2, {}) * fr_form(1, 1, 2)
    three = FactoredRational(3, {}) * fr_form(1, 1, 2)
    prod = two * three
    assert prod.constant == 6
    assert prod.factors == {(1, 2, 1): 2}

    u = fr_form(0, 1, 3)
    one_plus_u = fr_form(1, 1, 3)
    assert u * one_plus_u * (one_plus_u ** -1) == u


def test_fr_equal_examples():
    u = fr_form(0, 1, 3)
    one_plus_u = fr_form(1, 1, 3)
    assert (u * one_plus_u) / one_plus_u == u
    assert fr_form(0, 1, 2) != fr_form(0, 2, 1)
    assert y_kernel((1,), (), 2) == y_kernel((1,), (), 3)


def test_zero_value():
    zero = FactoredRational(0, {}) * fr_form(1, 1, 2)
    assert zero.constant == 0 and zero.factors == {}
    with pytest.raises(ZeroDivisionError):
        FactoredRational(1, {}) / zero


# ---------------------------------------------------------- builder oracle


def _fold_each_occurrence(occurrences):
    """Reference builder: canonicalize every occurrence as it arrives."""
    constant, factors = fold(occurrences)
    return FactoredRational(constant, factors)


def _random_occurrences(rng):
    """Occurrences (c, s, t, exp); s == t == None marks a constant c."""
    names = [1, 2, 3]
    pool = [(rng.randint(-3, 3), rng.choice(names), rng.choice(names)) for _ in range(4)]
    out = []
    for _ in range(rng.randint(0, 14)):
        roll = rng.random()
        if roll < 0.15:
            value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            exp = rng.choice([-2, -1, 1, 2, 3]) if value else rng.choice([1, 2])
            out.append((value, None, None, exp))
            continue
        c, s, t = rng.choice(pool)
        if rng.random() < 0.5:  # the other orientation of the same form
            c, s, t = -c, t, s
        if s == t and c == 0:
            exp = rng.choice([1, 2])
        else:
            exp = rng.choice([-3, -2, -1, 0, 1, 2, 3])
        out.append((c, s, t, exp))
        if roll > 0.85 and (s != t or c):  # a later occurrence cancels this one
            out.append((c, s, t, -exp) if rng.random() < 0.5 else (-c, t, s, -exp))
    rng.shuffle(out)
    return out


def _product_at(occurrences, values):
    """The product evaluated occurrence by occurrence; None at a pole."""
    def at(v):
        return 0 if v is None else values[v]

    result = Fraction(1)
    for c, s, t, exp in occurrences:
        v = c + at(s) - at(t)
        if v == 0 and exp < 0:
            return None
        result *= Fraction(v) ** exp
    return result


def test_builder_matches_occurrence_fold_and_evaluation():
    rng = random.Random(31)
    checked_points = 0
    for _ in range(600):
        occurrences = _random_occurrences(rng)
        b = ProductBuilder()
        for c, s, t, exp in occurrences:
            if s is None:  # form() refuses the index None, as any index below 1
                b.const(c, exp)
            else:
                b.form(c, s, t, exp=exp)
        value = b.build()
        assert value == _fold_each_occurrence(occurrences), occurrences
        assert b.build() == value
        for _ in range(3):
            values = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for s in (1, 2, 3)}
            expected = _product_at(occurrences, values)
            if expected is None:
                continue
            theta = Specialization(values)
            assert fr_eval(value, theta) == expected, occurrences
            checked_points += 1
    assert checked_points > 1500


def test_builder_rejects_zero_to_a_negative_power_at_the_call():
    b = ProductBuilder()
    with pytest.raises(ZeroDivisionError):
        b.const(0, -1)
    with pytest.raises(ZeroDivisionError):
        b.const(Fraction(0), -2)
    with pytest.raises(ZeroDivisionError):
        b.form(0, 1, 1, exp=-1)
    assert b.build() == FactoredRational(1, {})


# ------------------------------------------------------------------ expand


def test_fr_expand_single_form():
    poly = fr_expand(fr_form(0, 1, 2), 2)
    assert poly.terms == {(1, 0): 1, (0, 1): -1}


def test_fr_expand_product_frozen_and_at_points():
    # (1 + q1 - q2)(1 + q2 - q1) == 1 - q1^2 + 2 q1 q2 - q2^2
    value = fr_form(1, 1, 2) * fr_form(1, 2, 1)
    poly = fr_expand(value, 2)
    assert poly.terms == {(0, 0): 1, (2, 0): -1, (1, 1): 2, (0, 2): -1}
    rng = random.Random(42)
    for _ in range(3):
        theta = Specialization({1: rng.randint(-9, 9), 2: rng.randint(-9, 9)})
        assert poly_at(poly, theta) == fr_eval(value, theta)


def test_fr_expand_rejects_true_quotient():
    value = fr_form(0, 1, 2) / fr_form(1, 1, 2)
    with pytest.raises(NotAPolynomialError):
        fr_expand(value, 2)


def test_fr_expand_rejects_fractional_constant():
    with pytest.raises(NonIntegerConstantError):
        fr_expand(FactoredRational(Fraction(1, 2), {}) * fr_form(0, 1, 2), 2)


def test_fr_expand_refuses_a_fractional_constant_before_expanding():
    # Gauss's lemma: a product of the primitive forms c + q_s - q_t is integral iff its
    # constant is, so the refusal names the constant and no coefficient
    value = FactoredRational(Fraction(-5, 6), {}) * fr_form(1, 1, 2, exp=3) * fr_form(0, 2, 3)
    with pytest.raises(NonIntegerConstantError, match=r"^constant -5/6 is not an integer$"):
        fr_expand(value, 3)


def test_fr_expand_cancels_before_division():
    # the (q1 - q2) below cancels factor-wise, leaving -(-2 + q1 - q2)
    num = fr_form(0, 1, 2) * fr_form(2, 2, 1)
    value = num / fr_form(0, 1, 2)
    poly = fr_expand(value, 2)
    assert poly.terms == {(0, 0): 2, (1, 0): -1, (0, 1): 1}


def test_sparse_poly_exact_division():
    diff = fr_expand(fr_form(0, 1, 2), 2)
    total = SparsePoly(2, {(1, 0): 1, (0, 1): 1})  # q1 + q2
    form = (1, 2, 0)
    assert (diff * total).div_form_exact(form) == total
    with pytest.raises(NotAPolynomialError):
        SparsePoly(2, {**(diff * total).terms, (0, 0): 1}).div_form_exact(form)


def test_fr_expand_rejects_variable_outside_the_tuple():
    with pytest.raises(ValueError, match="q3"):
        fr_expand(fr_form(0, 1, 3), 2)
    with pytest.raises(ValueError, match="q3 is beyond"):
        fr_expand(fr_form(0, 1, 2) / fr_form(2, 1, 3), 2)


def test_fr_expand_with_unused_variables():
    value = FactoredRational(-2, {}) * fr_form(1, 1, 3) * fr_form(0, 1, 3)
    poly = fr_expand(value, 4)
    assert poly.m == 4
    # -2 (1 + q1 - q3)(q1 - q3) = -2 q1 + 2 q3 - 2 q1^2 + 4 q1 q3 - 2 q3^2
    assert poly.terms == {
        (1, 0, 0, 0): -2, (0, 0, 1, 0): 2, (2, 0, 0, 0): -2, (1, 0, 1, 0): 4, (0, 0, 2, 0): -2
    }
    small = fr_expand(value, 3)
    assert {e + (0,): c for e, c in small.terms.items()} == poly.terms


def test_fr_expand_constant_only():
    assert fr_expand(FactoredRational(-6, {}), 2).terms == {(0, 0): -6}
    assert fr_expand(FactoredRational(Fraction(12, 4), {}), 0).terms == {(): 3}
    assert fr_expand(FactoredRational(0, {}), 1).terms == {}
    with pytest.raises(NonIntegerConstantError):
        fr_expand(FactoredRational(Fraction(-5, 3), {}), 1)


def test_fr_expand_high_power_fills_the_packing_base():
    # total positive degree 25, so the packed base is 26 and q^25 is its top digit
    for s, t in ((1, 2), (2, 1)):
        poly = fr_expand(fr_form(3, s, t, exp=25), 2)
        expected = {}
        for a in range(26):
            for b in range(26 - a):
                e = [0, 0]
                e[s - 1], e[t - 1] = a, b
                multinomial = factorial(25) // (factorial(a) * factorial(b) * factorial(25 - a - b))
                expected[tuple(e)] = multinomial * 3 ** (25 - a - b) * (-1) ** b
        assert poly.terms == expected
    value = fr_form(-1, 1, 2, exp=9) * fr_form(2, 2, 3, exp=7)
    generic = SparsePoly(3, {(0, 0, 0): 1})
    for form, exp in value.factors.items():
        for _ in range(exp):
            s, t, c = form
            generic = generic * fr_expand(fr_form(c, s, t), 3)
    assert fr_expand(value, 3) == generic


def _no_division(monkeypatch):
    def fail(self, form):
        raise AssertionError("fr_expand called div_form_exact")

    monkeypatch.setattr(SparsePoly, "div_form_exact", fail)


def test_fr_expand_rejects_negative_exponents_without_dividing(monkeypatch):
    # distinct canonical forms never divide each other, so a true quotient
    # is rejected before anything is multiplied or divided
    _no_division(monkeypatch)
    value = (FactoredRational(4, {}) * fr_form(1, 1, 2, exp=3)) / fr_form(0, 2, 3, exp=2)
    with pytest.raises(NotAPolynomialError, match="does not divide"):
        fr_expand(value, 3)
    # the first denominator form in sorted_factors() order is named, and the
    # quotient error comes before the one for a fractional constant
    value = (FactoredRational(Fraction(1, 2), {}) * fr_form(0, 1, 2)) / (
        fr_form(2, 2, 3) * fr_form(-1, 1, 3)
    )
    with pytest.raises(NotAPolynomialError) as info:
        fr_expand(value, 3)
    assert type(info.value) is NotAPolynomialError
    assert str(info.value) == "(-1+q1-q3) does not divide the numerator exactly"


def _sympy_oracle(sympy, value: FactoredRational, m: int):
    """value as a sympy polynomial dict in q1..qm, or None when it is not an integer polynomial.

    A product with no negative exponent is multiplied out as sympy Polys over QQ; any other
    value goes through sympy.cancel.
    """
    q = sympy.symbols(f"q1:{m + 1}")
    constant = sympy.Rational(value.constant.numerator, value.constant.denominator)
    if all(exp > 0 for exp in value.factors.values()):
        poly = sympy.Poly(constant, *q, domain="QQ")
        for (s, t, c), exp in value.factors.items():
            poly *= sympy.Poly(c + q[s - 1] - q[t - 1], *q, domain="QQ") ** exp
    else:
        expr = constant
        for (s, t, c), exp in value.factors.items():
            expr *= (c + q[s - 1] - q[t - 1]) ** exp
        num, den = sympy.fraction(sympy.cancel(expr))
        if not den.is_number:
            return None
        poly = sympy.Poly(sympy.expand(num / den), *q)
    coeffs = poly.as_dict()
    if not all(c.is_integer for c in coeffs.values()):
        return None
    return {e: int(c) for e, c in coeffs.items() if c}


def test_fr_expand_matches_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    _no_division(monkeypatch)
    for m, n in ((2, 4), (3, 3), (4, 2)):
        for mp in enumerate_multipartitions(m, n):
            element = schur_element(mp)
            assert fr_expand(element, m).terms == _sympy_oracle(sympy, element, m), mp
    hand_built = [
        FactoredRational(Fraction(1, 2), {}) * fr_form(0, 1, 2) * fr_form(1, 1, 2),
        FactoredRational(Fraction(-3, 4), {}) * fr_form(2, 3, 1, exp=3),
        FactoredRational(Fraction(6, 4), {}) * FactoredRational(2, {}) * fr_form(-1, 2, 3, exp=2),
        fr_form(1, 1, 2, exp=2) / fr_form(0, 2, 3),
        (FactoredRational(Fraction(5, 2), {}) * fr_form(0, 1, 2)) / fr_form(3, 1, 3),
        FactoredRational(Fraction(7, 3), {}),
        FactoredRational(-8, {}),
    ]
    for value in hand_built:
        expected = _sympy_oracle(sympy, value, 3)
        if expected is None:
            with pytest.raises(NotAPolynomialError):
                fr_expand(value, 3)
        else:
            assert fr_expand(value, 3).terms == expected, value


# -------------------------------------------------------------------- eval


def test_fr_eval_examples():
    value = fr_form(1, 1, 2) * fr_form(1, 2, 1)
    assert fr_eval(value, Specialization({1: 2, 2: 0})) == -3

    with pytest.raises(PoleError):
        fr_eval(fr_form(0, 1, 2, exp=-1), Specialization({1: 0, 2: 0}))

    got = fr_eval(fr_form(0, 1, 2), Specialization({1: 5, 2: 3}, prime=7))
    assert got == 2


def _fraction_eval(value: FactoredRational, q: dict) -> Fraction:
    """The value at q by plain Fraction arithmetic, one factor at a time."""
    factors = [(Fraction(c) + q[s] - q[t], exp) for (s, t, c), exp in value.factors.items()]
    if any(v == 0 and exp < 0 for v, exp in factors):
        raise PoleError("oracle pole")
    return value.constant * prod((v**exp for v, exp in factors), start=Fraction(1))


def test_fr_eval_over_q_matches_a_fraction_oracle():
    rng = random.Random(31)
    half = {1: Fraction(1, 2), 2: Fraction(-3, 2), 3: Fraction(5, 2)}
    cases = [
        # integral theta, negative exponents, non-integral constant
        (FactoredRational(Fraction(3, 4), {}) * fr_form(1, 1, 2, exp=-2) * fr_form(-2, 2, 3, exp=3),
         {1: 4, 2: -1, 3: 2}),
        # half-integral theta: the exponent sum -1 puts d into the numerator
        (fr_form(0, 1, 3, exp=2) * fr_form(1, 1, 2, exp=-3), half),
        # mixed denominators, d = 6
        (fr_form(2, 1, 2) * fr_form(0, 2, 3, exp=-1), {1: Fraction(1, 3), 2: Fraction(1, 2), 3: 0}),
        # a zero numerator factor next to a non-zero denominator factor: the value 0
        (fr_form(2, 1, 3) * fr_form(0, 1, 2, exp=-1), half),
        # a zero constant
        (FactoredRational(0, {}), half),
    ]
    assert fr_eval(cases[3][0], Specialization(cases[3][1])) == 0
    assert fr_eval(cases[4][0], Specialization(cases[4][1])) == 0
    for _ in range(300):
        q = {s: Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4])) for s in (1, 2, 3)}
        cases.append((random_factored(rng, max_factors=6), q))
    poles = 0
    for value, q in cases:
        theta = Specialization(q)
        try:
            expected = _fraction_eval(value, theta.q_values)
        except PoleError:
            poles += 1
            with pytest.raises(PoleError):
                fr_eval(value, theta)
            continue
        got = fr_eval(value, theta)
        assert type(got) is Fraction and got == expected, (value, q)
    assert poles > 0


def test_fr_eval_pole_and_unassigned_parameter_over_q():
    # at q1 = 1/2, q2 = 3/2, q3 = 1/2 both (1 + q1 - q2) and (-1 + q2 - q3) vanish: the one in
    # the denominator is a pole, whichever comes first
    value = fr_form(1, 1, 2, exp=-1) * fr_form(-1, 2, 3)
    theta = Specialization({1: Fraction(1, 2), 2: Fraction(3, 2), 3: Fraction(1, 2)})
    with pytest.raises(PoleError):
        fr_eval(value, theta)
    value = fr_form(1, 1, 2) * fr_form(-1, 2, 3, exp=-1)
    assert list(value.factors) == [(1, 2, 1), (2, 3, -1)]
    with pytest.raises(PoleError):
        fr_eval(value, theta)
    with pytest.raises(ValueError, match="q3"):
        fr_eval(fr_form(0, 1, 3), Specialization({1: 0, 2: 0}))


def test_fr_eval_constant_denominator_mod_p():
    value = FactoredRational(Fraction(1, 7), {})
    with pytest.raises(PoleError):
        fr_eval(value, Specialization({1: 0}, prime=7))
    assert fr_eval(value, Specialization({1: 0}, prime=5)) == pow(7, -1, 5)


def test_specialization_validation():
    with pytest.raises(ValueError):
        Specialization({1: 0}, prime=6)
    theta = Specialization({1: Fraction(1, 2)}, prime=5)
    assert theta.value_of(1) == 3  # 2^-1 mod 5
    with pytest.raises(ValueError, match="q2"):
        theta.value_of(2)
    limit = sys.get_int_max_str_digits()
    assert Specialization({1: f"1e{limit}"}).value_of(1) == 10**limit
    assert Specialization({1: "-3/6", 2: "2.5"}, prime=7).q_values == {1: 3, 2: 6}
    with pytest.raises(ValueError, match=f"^decimal exponent above the {limit}-digit limit$"):
        Specialization({1: f"1e{limit + 1}"})  # Fraction would write out 10^(limit + 1)
    # cli._admit_p_value charges 7,000 units per printed thousand words, squared
    assert PRINTED_DIGITS == THOUSAND_WORDS * isqrt(WORK_BUDGET // 7000)
    for digits in (0, PRINTED_DIGITS + 1):
        with contract.digit_limit(digits):
            with pytest.raises(ValueError, match=f"^decimal exponent above {PRINTED_DIGITS},"):
                Specialization({1: f"1e-{PRINTED_DIGITS + 1}"})
    for text in ("1/0", "q1", "1e", ""):
        with pytest.raises(ValueError, match="^not a rational value$"):
            rational_from_text(text)
    # Python 3.10's grammar on every version: Fraction reads "1_0" from 3.11 on, "1 / 2" from 3.12 on
    for text in ("1_0", "1 / 2", "1/ 2", "1 /2", "1.5_0", "1e1_0", "- 3"):
        with pytest.raises(ValueError, match="^not a rational value$"):
            Specialization({1: text})
    read = {" 3 ": 3, "1/2": Fraction(1, 2), "1e3": 1000, "-7/4": Fraction(-7, 4), "\t+.5\n": Fraction(1, 2)}
    for text, value in read.items():
        assert Specialization({1: text}).value_of(1) == value, text


# ----------------------------------------------------- permutation action


def test_apply_permutation_examples():
    u = fr_form(0, 1, 2)
    swapped = apply_permutation((2, 1), u)
    assert swapped.constant == -1
    assert swapped.factors == {(1, 2, 0): 1}
    assert apply_permutation((1, 2), u) == u
    assert apply_permutation((2, 1), swapped) == u


def test_apply_permutation_group_action():
    rng = random.Random(5)
    for _ in range(300):
        value = random_factored(rng)
        sigma = list(range(1, 4))
        tau = list(range(1, 4))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        composed = [sigma[tau[s - 1] - 1] for s in (1, 2, 3)]
        lhs = apply_permutation(composed, value)
        rhs = apply_permutation(sigma, apply_permutation(tau, value))
        assert lhs == rhs


def test_apply_permutation_rejects_parameter_beyond_sigma():
    with pytest.raises(ValueError, match="q2"):
        apply_permutation((1,), fr_form(0, 1, 2))
    with pytest.raises(ValueError, match="q3"):
        apply_permutation((2, 1), fr_form(1, 3, 1))
    assert apply_permutation((1, 2, 3), fr_form(2, 1, 2)) == fr_form(2, 1, 2)


# ----------------------------------------------------------- randomized


def test_fr_mul_commutative_associative_inverse():
    rng = random.Random(11)
    for _ in range(1000):
        a = random_factored(rng)
        b = random_factored(rng)
        c = random_factored(rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        unit = FactoredRational(Fraction(1), a.factors)
        assert unit * (unit ** -1) == FactoredRational(1, {})


def _field_op(op: str, x, y, prime):
    """x op y in Q or F_prime, for op in "*", "/" and "**" (y an int exponent); None if undefined."""
    if op == "*":
        return x * y if prime is None else x * y % prime
    if op == "/" and y:
        return x / y if prime is None else x * pow(y, -1, prime) % prime
    if op == "**" and (x or y >= 0):
        return x**y if prime is None else pow(x, y, prime)
    return None


def test_arithmetic_matches_evaluation_and_stays_canonical():
    # *, / and ** merge exponents without a builder, so each is checked against evaluation
    # and against the value rebuilt from its raw triples, some given in the flipped
    # orientation -c + q_t - q_s = -(c + q_s - q_t) with the sign (-1)^exp taken out
    rng = random.Random(37)
    checked = 0
    for trial in range(500):
        a, b = random_factored(rng), random_factored(rng)
        prime = (None, 101)[trial % 2]
        theta = random_theta(rng, prime=prime)
        k = rng.randint(-3, 3)
        for op, result, rhs in (("*", a * b, b), ("/", a / b, b), ("**", a**k, k)):
            assert 0 not in result.factors.values(), (a, op, rhs)
            rebuilt = ProductBuilder().const(result.constant)
            for (s, t, c), exp in result.factors.items():
                if rng.random() < 0.5:
                    rebuilt.form(c, s, t, exp=exp)
                else:
                    rebuilt.form(-c, t, s, exp=exp).const(-1, exp)
            assert rebuilt.build() == result, (a, op, rhs)
            try:
                x = fr_eval(a, theta)
                y = rhs if op == "**" else fr_eval(b, theta)
            except PoleError:
                continue
            expected = _field_op(op, x, y, prime)
            if expected is not None:
                assert fr_eval(result, theta) == expected, (a, op, rhs, theta.q_values)
                checked += 1
    assert checked > 1000


def test_a_zero_exponent_never_survives_construction():
    form = (1, 2, 0)
    held = FactoredRational(1, {form: 0})
    assert held == FactoredRational(1, {}) and hash(held) == hash(FactoredRational(1, {}))
    assert held.render() == "1" and held.factors == {}
    a = fr_form(1, 1, 2, exp=2) * fr_form(0, 2, 3, exp=-1) * FactoredRational(3, {})
    assert (a / a).factors == {} and a / a == FactoredRational(1, {})
    assert (a * a**-1) == FactoredRational(1, {}) and a**0 == FactoredRational(1, {})
    assert FactoredRational(0, {form: 2}) == FactoredRational(0, {})
    zero = FactoredRational(0, {})
    assert (zero * a).factors == (a * zero).factors == (zero / a).factors == {}
    for bad in (lambda: a**0.5, lambda: a * 2, lambda: 2 * a, lambda: a / Fraction(2)):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ZeroDivisionError):
        a / FactoredRational(0, {})
    with pytest.raises(ZeroDivisionError):
        FactoredRational(0, {}) ** -1


def test_expand_is_multiplicative():
    rng = random.Random(13)
    for _ in range(300):
        a = ProductBuilder()
        b = ProductBuilder()
        for target in (a, b):
            target.const(rng.randint(1, 3))
            for _ in range(rng.randint(0, 3)):
                s, t = rng.choice([(1, 2), (1, 3), (2, 3)])
                target.form(rng.randint(-2, 2), s, t)
        av, bv = a.build(), b.build()
        lhs = fr_expand(av * bv, 3)
        rhs = fr_expand(av, 3) * fr_expand(bv, 3)
        assert lhs == rhs


def test_eval_commutes_with_expand():
    rng = random.Random(17)
    for trial in range(1000):
        b = ProductBuilder()
        b.const(rng.randint(-3, 3) or 1)
        for _ in range(rng.randint(0, 4)):
            s, t = rng.choice([(1, 2), (1, 3), (2, 3)])
            b.form(rng.randint(-3, 3), s, t)
        value = b.build()
        prime = (None, 101, 10007)[trial % 3]
        theta = random_theta(rng, prime=prime)
        assert fr_eval(value, theta) == poly_at(fr_expand(value, 3), theta)


def test_distinct_canonical_values_are_distinguished_by_points():
    """Two distinct canonical values disagree somewhere: canonicalization sanity."""
    rng = random.Random(23)
    for _ in range(200):
        a = random_factored(rng)
        b = random_factored(rng)
        if a == b:
            continue
        degree = sum(abs(e) for e in a.factors.values()) + sum(
            abs(e) for e in b.factors.values()
        )
        found = False
        attempts = 0
        while not found and attempts < 2 * (1 + degree) + 20:
            attempts += 1
            theta = random_theta(rng)
            try:
                if fr_eval(a, theta) != fr_eval(b, theta):
                    found = True
            except PoleError:
                continue
        assert found, f"indistinguishable distinct values: {a!r} vs {b!r}"


# ------------------------------------------------------------------- misc


def test_render_and_sort_order():
    b = ProductBuilder()
    b.const(2)
    b.form(1, 1, 2)
    b.form(-1, 1, 2)
    b.form(0, 1, 2)
    assert b.build().render() == "2*(-1+q1-q2)(q1-q2)(1+q1-q2)"
    assert FactoredRational(6, {}).render(latex=True) == "6"
    assert fr_form(1, 1, 2, exp=2).render() == "(1+q1-q2)^2"
    assert fr_form(1, 1, 2).render(latex=True) == "(1+q_{1}-q_{2})"


def _plain_render(value, latex):
    """FactoredRational.render written out afresh, with nothing memoized."""
    parts = []
    for (s, t, c), exp in sorted(value.factors.items()):
        body = f"q_{{{s}}}-q_{{{t}}}" if latex else f"q{s}-q{t}"
        text = f"({c}+{body})" if c else f"({body})"
        if exp != 1:
            text += f"^{{{exp}}}" if latex else f"^{exp}"
        parts.append(text)
    body = "".join(parts)
    if not body:
        return str(value.constant)
    prefix = {1: "", -1: "-"}.get(value.constant, f"{value.constant}*")
    return prefix + body


def _plain_json(value):
    """FactoredRational.to_json written out afresh as dicts and lists, with nothing memoized."""
    factors = [[{"c": c, "pos": f"q{s}", "neg": f"q{t}"}, exp]
               for (s, t, c), exp in sorted(value.factors.items())]
    constant = value.constant
    return {"num": str(constant.numerator), "den": str(constant.denominator), "factors": factors}


def test_memoized_factor_text_matches_a_plain_renderer():
    values = [
        schur_element(mp, formula)
        for mp in enumerate_multipartitions(3, 4)
        for formula in ("product", "symbol", "cancellation")
    ]
    values += [apply_permutation(sigma, y_kernel(lam, mu, 3))
               for lam, mu in (((2,), (1,)), ((1, 1), (3,))) for sigma in ((1, 2), (3, 1, 2))]
    values += [
        FactoredRational(Fraction(-3, 4), {}) * fr_form(2, 1, 3, exp=-2) * fr_form(0, 2, 3, exp=5),
        FactoredRational(Fraction(5, 6), {}) / fr_form(-7, 2, 1),
        FactoredRational(Fraction(-1, 2), {}),
        FactoredRational(0, {}),
        FactoredRational(-1, {}) * fr_form(0, 1, 2, exp=-1),
    ]
    values += [random_factored(random.Random(seed)) for seed in range(40)]
    rng = random.Random(29)
    values += [random_factored(rng) for _ in range(100)]
    assert any(e < 0 for value in values for e in value.factors.values())
    assert any(value.constant.denominator != 1 for value in values)
    for value in values:
        assert value.render() == _plain_render(value, latex=False)
        assert value.render(latex=True) == _plain_render(value, latex=True)
        assert value.json_text() == json.dumps(_plain_json(value))
        assert value.to_json() == _plain_json(value)
    encoded = fr_form(1, 1, 2, exp=2).to_json()
    assert encoded["factors"] == [[{"c": 1, "pos": "q1", "neg": "q2"}, 2]]


def test_qindex_inverts_qvar():
    assert [qindex(qvar(s)) for s in (1, 2, 10, 123)] == [1, 2, 10, 123]
    for name in ("x", "q0", "q", "q-1", "Q1", "q01", "q1 ", "q²", 1, None):
        with pytest.raises(ValueError, match="parameter name"):
            qindex(name)
    with pytest.raises(ValueError):
        qvar(0)


def test_sparse_poly_json_graded_lex():
    poly = SparsePoly(2, {(0, 0): 1, (2, 0): -1, (1, 1): 2, (0, 2): -1})
    data = poly.to_json()
    assert data == [[[2, 0], "-1"], [[1, 1], "2"], [[0, 2], "-1"], [[0, 0], "1"]]
    assert poly.render() == "-q1^2+2*q1*q2-q2^2+1"
    assert poly.render(latex=True) == "-q_{1}^{2}+2q_{1}q_{2}-q_{2}^{2}+1"


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert all(_is_prime(p) == _trial_division(p) for p in range(-3, 20000))


def test_is_prime_large_and_adversarial():
    # Carmichael numbers and strong pseudoprimes to the first 8 and 12 prime bases
    for composite in (561, 1105, 1729, 41041, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(composite), composite
    for prime in (1000000000000000003, 2**61 - 1, 2**31 - 1):
        assert _is_prime(prime), prime
    assert not _is_prime(2**61 + 1)


def test_is_prime_refuses_moduli_beyond_the_bound():
    assert not _is_prime(MAX_MODULUS - 1)  # even
    with pytest.raises(ValueError, match="too large"):
        _is_prime(MAX_MODULUS)
    with pytest.raises(ValueError, match="too large"):
        Specialization({1: 0}, prime=2**89 - 1)
