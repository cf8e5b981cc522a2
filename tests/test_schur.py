"""Kernels, the three Schur-element formulas, and the supporting identities."""

import random
from fractions import Fraction
from math import factorial, prod

import pytest

import schurkit.schur as schur_module
from schurkit.exact import (
    X,
    Specialization,
    apply_permutation,
    canonical_parts,
    fr_const,
    fr_eval,
    fr_expand,
    fr_form,
    qvar,
)
from schurkit.partitions import (
    enumerate_multipartitions,
    mp_length,
    partitions_of,
    permute_components,
)
from schurkit.schur import (
    p_invariant,
    schur_element,
    trace_identity_sides,
    vanishes_identically,
    verify_hook_beta_identity,
    verify_mu_identity,
    verify_trace_identity,
    verify_x_symmetry,
    x_kernel,
    y_kernel,
    z_kernel,
)


def small_partitions(max_size):
    return [lam for k in range(max_size + 1) for lam in partitions_of(k)]


# ------------------------------------------------------------------ kernels


def test_x_kernel_examples():
    assert x_kernel((), ()) == fr_const(1)
    assert x_kernel((1,), ()) == fr_form(0, X)
    assert x_kernel((), (1,)) == fr_const(-1) * fr_form(0, X)


def test_y_kernel_examples():
    assert y_kernel((), (), 0) == fr_const(1)
    assert y_kernel((1,), (), 1) == fr_form(0, X)
    # (1+x)(1-x): canonically -(-1+x)(1+x), expanding to 1 - x^2
    val = y_kernel((1,), (1,), 1)
    assert val == x_kernel((1,), (1,))
    assert fr_expand(val, (X,)).terms == {(0,): 1, (2,): -1}


def test_y_kernel_requires_large_l():
    with pytest.raises(ValueError):
        y_kernel((2, 1), (), 1)


def test_z_kernel_examples():
    assert z_kernel((1,), ()) == fr_form(0, X)
    assert z_kernel((), (1,)) == fr_const(-1) * fr_form(0, X)
    assert z_kernel((1,), (1,)) == x_kernel((1,), (1,))


def test_z_kernel_is_a_pure_product():
    for lam in small_partitions(4):
        for mu in small_partitions(3):
            z = z_kernel(lam, mu)
            assert all(exp > 0 for exp in z.factors.values())
            assert z.constant.denominator == 1


def test_kernel_agreement_small_sweep():
    parts = small_partitions(3)
    for lam in parts:
        for mu in parts:
            x = x_kernel(lam, mu)
            assert x == z_kernel(lam, mu)
            base = max(len(lam), len(mu))
            for length in range(base, base + 3):
                assert x == y_kernel(lam, mu, length)


def test_beta_shift_invariance_small_sweep():
    parts = small_partitions(3)
    for lam in parts:
        for mu in parts:
            base = max(len(lam), len(mu))
            values = [y_kernel(lam, mu, L) for L in range(base, base + 4)]
            assert all(values[0] == v for v in values[1:])


# ------------------------------------------------------------ Schur element


def test_schur_single_node_all_routes():
    mp = ((1,), ())
    expected = fr_form(0, qvar(1), qvar(2))
    assert schur_element(mp, "product") == expected
    assert schur_element(mp, "cancellation") == expected
    for L in (1, 2, 3):
        assert schur_element(mp, "symbol", L) == expected


def test_schur_two_single_boxes():
    mp = ((1,), (1,))
    value = schur_element(mp)
    expected = fr_form(1, qvar(1), qvar(2)) * fr_form(1, qvar(2), qvar(1))
    assert value == expected
    poly = fr_expand(value, ("q1", "q2"))
    assert poly.terms == {(0, 0): 1, (2, 0): -1, (1, 1): 2, (0, 2): -1}


def test_schur_one_row_level_one_is_factorial():
    for n in range(7):
        mp = ((n,),) if n else ((),)
        for formula in ("product", "symbol", "cancellation"):
            assert schur_element(mp, formula) == fr_const(factorial(n))


def test_schur_symbol_l_too_small():
    with pytest.raises(ValueError):
        schur_element(((1, 1), ()), "symbol", 1)


def test_schur_unknown_formula():
    with pytest.raises(ValueError):
        schur_element(((1,),), "magic")


def test_three_formula_agreement_small_sweep():
    for m in (1, 2, 3):
        for n in range(4):
            for mp in enumerate_multipartitions(m, n):
                base = schur_element(mp, "cancellation")
                assert schur_element(mp, "product") == base
                ell = mp_length(mp)
                for L in range(ell, ell + 3):
                    assert schur_element(mp, "symbol", L) == base


def test_schur_equivariance_small_sweep():
    import itertools

    for m in (2, 3):
        for n in (1, 2, 3):
            mps = list(enumerate_multipartitions(m, n))
            elements = {mp: schur_element(mp) for mp in mps}
            for mp in mps:
                for sigma in itertools.permutations(range(1, m + 1)):
                    lhs = elements[permute_components(mp, sigma)]
                    assert lhs == apply_permutation(sigma, elements[mp])


# -------------------------------------------------------------- P invariant


def test_p_invariant_examples():
    assert p_invariant(1, 3) == fr_const(6)
    assert p_invariant(2, 1) == fr_form(0, qvar(1), qvar(2))
    expected = (
        fr_const(2)
        * fr_form(-1, qvar(1), qvar(2))
        * fr_form(0, qvar(1), qvar(2))
        * fr_form(1, qvar(1), qvar(2))
    )
    assert p_invariant(2, 2) == expected


def test_p_invariant_factor_count():
    # each pair i<j contributes 2n-1 linear factors
    value = p_invariant(3, 3)
    assert sum(value.factors.values()) == 3 * (2 * 3 - 1)
    with pytest.raises(ValueError):
        p_invariant(0, 1)
    with pytest.raises(ValueError):
        p_invariant(1, 0)


# ---------------------------------------------------------------- verifiers


def test_mu_identity_base_case_is_inverse_y():
    assert verify_mu_identity((1,), 1)
    # both sides of the base case reduce to 1/y
    lhs = (fr_form(1, X) ** -1) * fr_form(1, X) * (fr_form(0, X) ** -1)
    assert lhs == fr_form(0, X, exp=-1)


def test_mu_identity_examples():
    assert verify_mu_identity((2, 1), 1)
    assert verify_mu_identity((3, 3, 1), 2)


def _mu_identity_sides_at(mu, ell, y):
    """Both displayed sides evaluated directly with Fraction arithmetic."""

    def col(j):
        return sum(1 for v in mu if v >= j)

    lhs = 1 / Fraction(mu[0] + y)
    for i in range(1, col(ell) + 1):
        lhs *= Fraction(mu[i - 1] - i + 1 + y) / (mu[i - 1] - i + y)
    rhs = 1 / Fraction(ell - col(ell) - 1 + y)
    for j in range(ell, mu[0] + 1):
        rhs *= Fraction(j - col(j) - 1 + y) / (j - col(j) + y)
    return lhs, rhs


def test_mu_identity_sides_agree_at_random_points():
    # independent numeric oracle for the symbolic comparison
    rng = random.Random(3)
    for mu in ((2, 1), (3, 3, 1), (4, 2, 2, 1)):
        for ell in range(1, mu[0] + 1):
            checked = 0
            while checked < 5:
                y = Fraction(rng.randint(20, 200), rng.randint(1, 7))
                try:
                    lhs, rhs = _mu_identity_sides_at(mu, ell, y)
                except ZeroDivisionError:
                    continue
                assert lhs == rhs
                checked += 1
            assert verify_mu_identity(mu, ell)


def test_mu_identity_exhaustive_small():
    for lam in small_partitions(6):
        if not lam:
            continue
        for ell in range(1, lam[0] + 1):
            assert verify_mu_identity(lam, ell)


def test_mu_identity_preconditions():
    with pytest.raises(ValueError):
        verify_mu_identity((), 1)
    with pytest.raises(ValueError):
        verify_mu_identity((2,), 3)
    with pytest.raises(ValueError):
        verify_mu_identity((2,), 0)


def test_hook_beta_identity_examples():
    assert verify_hook_beta_identity((2, 1), 2)
    assert verify_hook_beta_identity((), 2)
    assert verify_hook_beta_identity((4,), 1)


def test_hook_beta_identity_small_sweep():
    for lam in small_partitions(6):
        for extra in range(4):
            assert verify_hook_beta_identity(lam, len(lam) + extra)


def test_x_symmetry_examples():
    assert verify_x_symmetry((1,), ())
    assert verify_x_symmetry((2, 1), (2, 1))
    assert verify_x_symmetry((2, 1), (1, 1))


def test_x_symmetry_small_sweep():
    parts = small_partitions(3)
    for lam in parts:
        for mu in parts:
            assert verify_x_symmetry(lam, mu)


# ------------------------------------------------------------ trace identity


def test_trace_identity_small():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            assert verify_trace_identity(m, n)
    assert verify_trace_identity(3, 6)


def test_trace_identity_grid_agrees_with_expansion():
    cases = [(m, n) for m in (1, 2, 3) for n in range(1, 6)] + [(4, 3), (2, 7)]
    for m, n in cases:
        got, expected = trace_identity_sides(m, n)
        assert verify_trace_identity(m, n) == (got == expected), (m, n)


def test_trace_identity_grid_rejects_a_wrong_dimension(monkeypatch):
    true_count = schur_module.num_standard_tableaux
    for m, n in ((2, 3), (3, 3), (3, 4)):
        wrong = list(enumerate_multipartitions(m, n))[n]
        monkeypatch.setattr(
            schur_module,
            "num_standard_tableaux",
            lambda mp, wrong=wrong: true_count(mp) + (mp == wrong),
        )
        assert not verify_trace_identity(m, n), (m, n)
        got, expected = trace_identity_sides(m, n)
        assert got != expected


@pytest.mark.parametrize("d", [1, 3, 6])
def test_vanishes_identically_needs_the_whole_grid(d):
    # prod_{k<d} (-k + q1 - q2) has degree d in q1 and, at q2 = 0, vanishes
    # at q1 = 0..d-1: a grid of d points per variable would miss it
    forms = [canonical_parts(-k, "q1", "q2")[0] for k in range(d)]
    factors = [(k, 1) for k in range(d)]
    assert all(prod(-k + q1 for k in range(d)) == 0 for q1 in range(d))
    assert not vanishes_identically(2, forms, [(1, factors)])
    assert vanishes_identically(2, forms, [(1, factors), (-1, factors)])
    # a third variable and a zero exponent on a form that vanishes on the
    # grid (q2 - q3 at q2 = 0) change nothing
    forms3 = forms + [canonical_parts(0, "q2", "q3")[0]]
    assert not vanishes_identically(3, forms3, [(1, factors + [(d, 0)])])
    assert vanishes_identically(3, forms3, [(1, factors + [(d, 0)]), (-1, factors)])


def test_vanishes_identically_rejects_other_forms():
    with pytest.raises(ValueError, match="not a form"):
        vanishes_identically(2, [canonical_parts(1, "q1", None)[0]], [(1, [(0, 1)])])
    with pytest.raises(ValueError, match="not a form"):
        vanishes_identically(2, [canonical_parts(1, "q1", "q3")[0]], [(1, [(0, 1)])])
    with pytest.raises(ValueError, match="negative exponent"):
        vanishes_identically(2, [canonical_parts(1, "q1", "q2")[0]], [(1, [(0, -1)])])


def _oracle_partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _oracle_partitions(n - first, first):
            yield (first,) + rest


def _oracle_multipartitions(m, n):
    if m == 1:
        yield from ((lam,) for lam in _oracle_partitions(n))
        return
    for k in range(n + 1):
        for lam in _oracle_partitions(k):
            for rest in _oracle_multipartitions(m - 1, n - k):
                yield (lam,) + rest


def _oracle_hook(lam, mu, i, j):
    """lam_i - i + mu'_j - j + 1 for the node (i, j) of lam, 1-based."""
    return lam[i - 1] - i + sum(1 for row in mu if row >= j) - j + 1


def test_trace_identity_matches_sympy():
    """sum_L f^L / s_L = [m = 1], with elements, hooks and f^L built here."""
    sympy = pytest.importorskip("sympy")
    for m, n in ((1, 3), (2, 3), (3, 2), (2, 4)):
        q = sympy.symbols(f"q1:{m + 1}")
        names = {f"q{s}": q[s - 1] for s in range(1, m + 1)}
        summands = []
        for mp in _oracle_multipartitions(m, n):
            element = sympy.Integer(1)
            hooks = 1
            for s, lam in enumerate(mp):
                for i, row in enumerate(lam, 1):
                    for j in range(1, row + 1):
                        hooks *= _oracle_hook(lam, lam, i, j)
                        for t, mu in enumerate(mp):
                            element *= _oracle_hook(lam, mu, i, j) + q[s] - q[t]
            summands.append(sympy.Integer(factorial(n) // hooks) / element)
            # the library's element is the same polynomial
            value = schur_element(mp)
            ours = sympy.Rational(value.constant.numerator, value.constant.denominator)
            for form, exp in value.factors.items():
                ours *= (form.c + names[form.pos] - names[form.neg]) ** exp
            assert sympy.expand(element - ours) == 0, mp
        total = sympy.cancel(sympy.together(sympy.Add(*summands)))
        assert total == (1 if m == 1 else 0), (m, n)


def test_trace_identity_sides_level_one():
    got, expected = trace_identity_sides(1, 4)
    assert got == expected
    assert expected.terms


def test_trace_identity_sides_level_two_is_zero():
    got, expected = trace_identity_sides(2, 2)
    assert expected.terms == {}
    assert got.terms == {}


# ------------------------------------------------------- degree / integrality


def test_expanded_degree_bound_small():
    """The expansion oracle for the integrality suite, which reads both facts off
    the factored value: integer coefficients and total degree = exponent sum = n(m-1)."""
    sizes = [(m, n) for m in (1, 2, 3) for n in range(1, 6)] + [(4, 3)]
    for m, n in sizes:
        variables = tuple(qvar(s) for s in range(1, m + 1))
        for mp in enumerate_multipartitions(m, n):
            element = schur_element(mp)
            assert all(exp > 0 for exp in element.factors.values()), mp
            poly = fr_expand(element, variables)
            assert all(type(c) is int for c in poly.terms.values()), mp
            degree = sum(element.factors.values())
            assert poly.total_degree() == degree == n * (m - 1), mp


def _poly_at(poly, theta):
    """The expanded polynomial at theta, summed term by term over Q or F_p."""
    values = [theta.value_of(v) for v in poly.variables]
    total = sum(c * prod(v**k for v, k in zip(values, e)) for e, c in poly.terms.items())
    return total if theta.prime is None else total % theta.prime


def test_schur_at_generic_point_matches_expansion():
    thetas = [
        Specialization({1: Fraction(19, 2), 2: Fraction(-7, 3), 3: 5}),
        Specialization({1: 17, 2: 60, 3: 3}, prime=101),
    ]
    for mp in enumerate_multipartitions(3, 3):
        element = schur_element(mp)
        poly = fr_expand(element, ("q1", "q2", "q3"))
        for theta in thetas:
            assert fr_eval(element, theta) == _poly_at(poly, theta)
