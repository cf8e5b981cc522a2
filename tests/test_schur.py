"""Kernels, the three Schur-element formulas, and the supporting identities."""

import argparse
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

import schurkit.cli as cli
import schurkit.schur as schur_module
from schurkit.exact import (
    FactoredRational,
    SparsePoly,
    Specialization,
    apply_permutation,
    fr_const,
    fr_eval,
    fr_expand,
    fr_form,
)
from schurkit.partitions import (
    beta_set,
    enumerate_multipartitions,
    l_symbol,
    mp_length,
    multipartition_count,
    num_standard_tableaux,
    partitions_of,
    permute_components,
)
from schurkit.schur import (
    FORMULAS,
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
from support import (
    beta_numbers,
    fold,
    generalized_hook,
    multipartitions,
    nodes,
    partitions,
    poly_at,
)


def small_partitions(max_size):
    return [lam for k in range(max_size + 1) for lam in partitions_of(k)]


# ------------------------------------------------------------------ kernels


def test_x_kernel_examples():
    # every kernel is taken at x = q1 - q2; the S_m action moves it to q_s - q_t
    assert x_kernel((), ()) == fr_const(1)
    assert x_kernel((1,), ()) == fr_form(0, 1, 2)
    assert x_kernel((), (1,)) == fr_const(-1) * fr_form(0, 1, 2)
    assert apply_permutation((3, 1, 2), x_kernel((1,), ())) == fr_form(0, 3, 1)


def test_y_kernel_examples():
    assert y_kernel((), (), 0) == fr_const(1)
    assert y_kernel((1,), (), 1) == fr_form(0, 1, 2)
    # (1+x)(1-x): canonically -(-1+x)(1+x), expanding to 1 - x^2 at x = q1 - q2
    val = y_kernel((1,), (1,), 1)
    assert val == x_kernel((1,), (1,))
    assert fr_expand(val, 2).terms == {(0, 0): 1, (2, 0): -1, (1, 1): 2, (0, 2): -1}


def test_y_kernel_requires_large_l():
    with pytest.raises(ValueError):
        y_kernel((2, 1), (), 1)


def test_z_kernel_examples():
    assert z_kernel((1,), ()) == fr_form(0, 1, 2)
    assert z_kernel((), (1,)) == fr_const(-1) * fr_form(0, 1, 2)
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


def test_list_inputs_equal_tuple_inputs():
    # the kernels and formulas are memoized on tuples; lists are converted first
    for mp in (((2,), (1, 1)), ((2, 1), (), (1,)), ((3,),)):
        as_lists = [list(lam) for lam in mp]
        for formula in ("product", "symbol", "cancellation"):
            assert schur_element(as_lists, formula) == schur_element(mp, formula)
    for lam, mu in (((2,), (1,)), ((2, 1), (1, 1)), ((), (3,))):
        assert x_kernel(list(lam), list(mu)) == x_kernel(lam, mu)
        assert y_kernel(list(lam), list(mu), 3) == y_kernel(lam, mu, 3)
        assert z_kernel(list(lam), list(mu)) == z_kernel(lam, mu)
    # these two read the tuple-keyed hook_product memo
    for lam in small_partitions(5):
        assert num_standard_tableaux([list(lam)]) == num_standard_tableaux((lam,))
        for length in (len(lam), len(lam) + 2):
            assert verify_hook_beta_identity(list(lam), length) == (
                verify_hook_beta_identity(lam, length)
            )
    for mp in enumerate_multipartitions(2, 3):
        assert num_standard_tableaux([list(lam) for lam in mp]) == num_standard_tableaux(mp)


# Reference kernels, node by node as the kernels are defined, folded into
# their own canonical product: an oracle that shares no code with src/.


def _oracle_x(lam, mu, s, t):
    mu1 = mu[0] if mu else 0
    mubar = [sum(1 for row in mu if row >= k) for k in range(1, mu1 + 1)]
    out = [(j - i, t, s, 1) for i, j in nodes(mu)]
    for i, j in nodes(lam):
        out.append((j - i - mu1, s, t, 1))
        for k in range(1, mu1 + 1):
            out += [(j - i + mubar[k - 1] - k + 1, s, t, 1), (j - i + mubar[k - 1] - k, s, t, -1)]
    return fold(out)


def _oracle_y(lam, mu, length, s, t):
    rows, cols = beta_numbers(lam, length), beta_numbers(mu, length)
    out = [((-1) ** (length * (length - 1) // 2), s, s, 1), (0, s, t, length)]
    out += [(i, s, t, 1) for a in rows for i in range(1, a + 1)]
    out += [(j, t, s, 1) for b in cols for j in range(1, b + 1)]
    out += [(a - b, s, t, -1) for a in rows for b in cols]
    return fold(out)


def _oracle_z(lam, mu, s, t):
    out = [(generalized_hook(lam, mu, i, j), s, t, 1) for i, j in nodes(lam)]
    out += [(generalized_hook(mu, lam, i, j), t, s, 1) for i, j in nodes(mu)]
    return fold(out)


def test_tallied_kernels_match_the_node_by_node_oracle():
    pairs = [
        (lam, mu)
        for a in range(6)
        for b in range(6 - a)
        for lam in partitions(a)
        for mu in partitions(b)
    ]
    # sigma(1) = s and sigma(2) = t, so renaming a kernel at x = q1 - q2 by
    # sigma gives the same kernel at x = q_s - q_t
    for lam, mu in pairs:
        for sigma in ((1, 2), (2, 1), (1, 3, 2), (3, 2, 1)):
            s, t = sigma[:2]
            x, z = (apply_permutation(sigma, k(lam, mu)) for k in (x_kernel, z_kernel))
            assert (x.constant, x.factors) == _oracle_x(lam, mu, s, t), (lam, mu, s, t)
            assert (z.constant, z.factors) == _oracle_z(lam, mu, s, t), (lam, mu, s, t)
            base = max(len(lam), len(mu))
            for length in range(base, base + 4):
                y = apply_permutation(sigma, y_kernel(lam, mu, length))
                expected = _oracle_y(lam, mu, length, s, t)
                assert (y.constant, y.factors) == expected, (lam, mu, length, s, t)


def _oracle_tally(sign, tally):
    return sign, tuple(sorted((c, exp) for c, exp in tally.items() if exp))


def _oracle_x_tally(lam, mu):
    """X_{lam mu} node by node, as (sign, ((c, exp), ...)) for sign * prod (c + x)^exp."""
    mu1 = mu[0] if mu else 0
    tally = Counter(i - j for i, j in nodes(mu))
    for i, j in nodes(lam):
        tally[j - i - mu1] += 1
        for k in range(1, mu1 + 1):
            col = sum(1 for row in mu if row >= k)
            tally[j - i + col - k + 1] += 1
            tally[j - i + col - k] -= 1
    return _oracle_tally((-1) ** sum(mu), tally)


def _oracle_y_tally(lam, mu, length):
    """Y from the beta numbers, one rising factor and one pair quotient at a time."""
    rows, cols = beta_numbers(lam, length), beta_numbers(mu, length)
    tally = Counter({0: length})
    for a in rows:
        tally.update(range(1, a + 1))
    for b in cols:
        tally.update(range(-b, 0))
    for a in rows:
        for b in cols:
            tally[a - b] -= 1
    return _oracle_tally((-1) ** (length * (length - 1) // 2 + sum(cols)), tally)


def _oracle_z_tally(lam, mu):
    """Z_{lam mu} node by node: (h + x) for the hooks of lam, -(-h + x) for those of mu."""
    tally = Counter(generalized_hook(lam, mu, i, j) for i, j in nodes(lam))
    tally.update(-generalized_hook(mu, lam, i, j) for i, j in nodes(mu))
    return _oracle_tally((-1) ** sum(mu), tally)


def test_row_wise_tallies_match_the_node_by_node_oracle():
    pairs = [
        (lam, mu)
        for a in range(9)
        for b in range(9 - a)
        for lam in partitions(a)
        for mu in partitions(b)
    ]
    assert len(pairs) == 434
    x_tally, y_tally, z_tally = (
        getattr(schur_module, name).__wrapped__ for name in ("_x_tally", "_y_tally", "_z_tally")
    )
    for lam, mu in pairs:
        assert x_tally(lam, mu) == _oracle_x_tally(lam, mu), (lam, mu)
        assert z_tally(lam, mu) == _oracle_z_tally(lam, mu), (lam, mu)
        base = max(len(lam), len(mu))
        for length in range(base, base + 3):
            rows = (beta_set(lam, length), beta_set(mu, length))
            assert y_tally(*rows) == _oracle_y_tally(lam, mu, length), (lam, mu, length)


@pytest.mark.parametrize(
    "broken, formula, kernel",
    [
        ("_x_tally", "product", "x_kernel"),
        ("_y_tally", "symbol", "y_kernel"),
        ("_z_tally", "cancellation", "z_kernel"),
        ("hook_product", "product", None),
        ("_row_constant", "symbol", None),
        ("_z_diagonal", "cancellation", None),
    ],
)
def test_each_route_builds_without_the_others(
    monkeypatch, clear_caches, broken, formula, kernel
):
    """Memoization never lets one formula or kernel reuse another's value."""
    mps = list(enumerate_multipartitions(3, 3))
    expected = [schur_element(mp) for mp in mps]
    parts = small_partitions(3)
    kernels = {
        "x_kernel": x_kernel,
        "y_kernel": lambda lam, mu: y_kernel(lam, mu, max(len(lam), len(mu)) + 1),
        "z_kernel": z_kernel,
    }
    want = {name: [k(lam, mu) for lam in parts for mu in parts] for name, k in kernels.items()}

    def refuse(*args):
        raise RuntimeError(f"{broken} is off")

    refuse.__wrapped__ = refuse  # the kernels call a tally past its cache
    monkeypatch.setattr(schur_module, broken, refuse)
    clear_caches()
    for other in set(FORMULAS) - {formula}:
        assert [schur_element(mp, other) for mp in mps] == expected, other
    with pytest.raises(RuntimeError):
        schur_element(mps[0], formula)
    for name, k in kernels.items():
        if name == kernel:
            with pytest.raises(RuntimeError):
                k((1,), ())
        else:
            assert [k(lam, mu) for lam in parts for mu in parts] == want[name], name
    if kernel is not None:
        # the beta-shift suite compares all three kernels, so it needs this route too
        with pytest.raises(RuntimeError):
            cli.run(["verify", "--suite", "beta-shift", "--size", "3"])


def _misses(cached):
    return cached.cache_info().misses


def test_the_beta_shift_suite_leaves_the_tally_caches_empty(capsys, clear_caches):
    clear_caches()
    assert cli.run(["verify", "--suite", "beta-shift", "--size", "4"]) == 0
    assert capsys.readouterr().out == "checked 144 partition pairs, 0 mismatches\n"
    for tally in (schur_module._x_tally, schur_module._y_tally, schur_module._z_tally):
        assert tally.cache_info().currsize == 0, tally


def test_sweeps_build_one_tally_per_distinct_pair(clear_caches):
    mps = list(enumerate_multipartitions(4, 6))
    clear_caches()
    for mp in mps:
        schur_element(mp, "product")
        schur_element(mp, "cancellation")
    # a pair of two empty components has the tally (1, ()) and is never visited
    visited = [(mp, s, t) for mp in mps for s in range(4) for t in range(s + 1, 4) if mp[s] or mp[t]]
    pairs = {(mp[s], mp[t]) for mp, s, t in visited}
    components = {lam for mp in mps for lam in mp}
    assert _misses(schur_module._x_tally) == len(pairs)
    # Z is tallied once per pair s < t, both directions merged; the diagonal is a constant
    assert _misses(schur_module._z_tally) == len(pairs)
    assert _misses(schur_module._z_diagonal) == len(components)
    assert _misses(schur_module.hook_product) == len(components)
    assert _misses(schur_module._y_tally) == 0
    assert _misses(schur_module._row_constant) == 0
    for mp in mps:
        schur_element(mp, "symbol")
    rows = {(mp[s], mp[t], mp_length(mp)) for mp, s, t in visited}
    assert _misses(schur_module._y_tally) == len(rows)
    beta_rows = {(lam, mp_length(mp)) for mp in mps for lam in mp}
    assert _misses(schur_module._row_constant) == len(beta_rows)


@pytest.mark.parametrize("length", range(7))
def test_two_empty_components_have_the_unit_block(length):
    """The pair every route skips: X and Z of ((), ()), and Y of two staircases, are 1."""
    staircase = tuple(range(length - 1, -1, -1))
    assert l_symbol(((), ()), length) == (staircase, staircase)
    tallies = [
        schur_module._x_tally.__wrapped__((), ()),
        schur_module._z_tally.__wrapped__((), ()),
        schur_module._y_tally.__wrapped__(staircase, staircase),
    ]
    for s, t in ((1, 2), (2, 5)):
        for tally in tallies:
            assert schur_module._union(1, 1, [(tally, s, t)]) == fr_const(1)


def test_a_sweep_visits_only_pairs_with_a_non_empty_component(monkeypatch, clear_caches):
    calls = []
    z_tally = schur_module._z_tally

    def counted(*args):
        calls.append(args)
        return z_tally(*args)

    clear_caches()  # before the patch hides the real _z_tally from it
    monkeypatch.setattr(schur_module, "_z_tally", counted)
    for mp in enumerate_multipartitions(200, 1):
        schur_element(mp)
    # each element has one non-empty component, paired with the 199 others, not C(200, 2)
    # pairs; the (4,6) sweep above shows that every route skips the same pairs
    assert len(calls) == 200 * 199
    monkeypatch.undo()
    # the sweep holds only what other elements reuse: the Z tallies of ((1,), ()) and
    # ((), (1,)) and the diagonals of (1,) and (), not a copy at each of 39,800 (s, t)
    held = {
        name: value.cache_info().currsize
        for name, value in vars(schur_module).items()
        if callable(getattr(value, "cache_info", None))
    }
    assert sum(held.values()) <= 4, held


def _blocks(mp, formula):
    """The per-pair values, each its tally at x = q_s - q_t, whose union is the element."""
    if formula == "symbol":
        rows, tally = l_symbol(mp, mp_length(mp)), schur_module._y_tally
    else:
        rows = mp
        tally = schur_module._x_tally if formula == "product" else schur_module._z_tally
    return [
        schur_module._union(1, 1, [(tally(a, b), s, t)])
        for (s, a), (t, b) in itertools.combinations(enumerate(rows, 1), 2)
    ]


def test_an_element_is_the_disjoint_union_of_its_blocks():
    for mp in enumerate_multipartitions(4, 4):
        for formula in FORMULAS:
            blocks = _blocks(mp, formula)
            element = schur_element(mp, formula)
            assert len(element.factors) == sum(len(b.factors) for b in blocks), (mp, formula)
            assert element.factors == {form: e for b in blocks for form, e in b.factors.items()}


# ------------------------------------------------------------ Schur element


def test_schur_single_node_all_routes():
    mp = ((1,), ())
    expected = fr_form(0, 1, 2)
    assert schur_element(mp, "product") == expected
    assert schur_element(mp, "cancellation") == expected
    for L in (1, 2, 3):
        assert schur_element(mp, "symbol", L) == expected


def test_schur_two_single_boxes():
    mp = ((1,), (1,))
    value = schur_element(mp)
    expected = fr_form(1, 1, 2) * fr_form(1, 2, 1)
    assert value == expected
    poly = fr_expand(value, 2)
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


def test_only_the_symbol_route_takes_a_length():
    mp = ((2,), (1,))
    for formula in ("product", "cancellation"):
        with pytest.raises(ValueError, match="applies only to formula 'symbol'"):
            schur_element(mp, formula, 5)
    assert schur_element(mp, "symbol", 5) == schur_element(mp)


def test_three_formula_agreement_small_sweep():
    for m in (1, 2, 3):
        for n in range(4):
            for mp in enumerate_multipartitions(m, n):
                base = schur_element(mp, "cancellation")
                assert schur_element(mp, "product") == base
                ell = mp_length(mp)
                for L in range(ell, ell + 3):
                    assert schur_element(mp, "symbol", L) == base


def _all_permutation_mismatches(m, elements):
    """The m! oracle of the sm-action suite: every (mp, sigma) that breaks equivariance."""
    return [
        (mp, sigma)
        for mp in elements
        for sigma in itertools.permutations(range(1, m + 1))
        if elements[permute_components(mp, sigma)] != apply_permutation(sigma, elements[mp])
    ]


def test_schur_equivariance_small_sweep():
    for m in (2, 3, 4):
        for n in (1, 2, 3):
            elements = {mp: schur_element(mp) for mp in enumerate_multipartitions(m, n)}
            assert _all_permutation_mismatches(m, elements) == [], (m, n)


def test_permutation_actions_compose_alike():
    """Both actions send sigma then tau to the one permutation s -> tau(sigma(s))."""
    perms = list(itertools.permutations(range(1, 5)))
    mp = ((2,), (), (1, 1), (1,))
    value = schur_element(mp) * fr_form(3, 2, 4, exp=-1)
    for sigma in perms:
        for tau in perms:
            both = tuple(tau[sigma[s] - 1] for s in range(4))
            twice = permute_components(permute_components(mp, sigma), tau)
            assert twice == permute_components(mp, both)
            twice = apply_permutation(tau, apply_permutation(sigma, value))
            assert twice == apply_permutation(both, value)


def test_sm_action_generators_decide_as_all_permutations(monkeypatch):
    """Corrupt one element at a time: the generator checks fail iff the m! oracle does."""
    verdicts = set()
    for m, n in ((2, 2), (3, 2), (3, 3), (4, 1), (4, 2)):
        mps = list(enumerate_multipartitions(m, n))
        for target in mps:
            # a constant keeps the symmetry of a fixed point; a form breaks it
            for corruption in (fr_const(2), fr_form(0, 1, 2)):
                table = {mp: schur_element(mp) for mp in mps}
                table[target] = corruption * table[target]
                monkeypatch.setattr(cli, "schur_element", table.__getitem__)
                records = list(cli._suite_sm_action(argparse.Namespace(m=m, n=n)))
                caught = any(records)
                assert caught == bool(_all_permutation_mismatches(m, table)), (m, n, target)
                verdicts.add(caught)
    assert verdicts == {True, False}


def _random_multipartition_property(max_examples):
    """Three-formula agreement and S_m-equivariance on random (m <= 5, n <= 12) cases."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def multipartitions(draw):
        m = draw(st.integers(1, 5))
        n = draw(st.integers(0, 12))
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        mp = []
        for size in sizes:
            parts = []
            while size:
                part = draw(st.integers(1, size))
                parts.append(part)
                size -= part
            mp.append(tuple(sorted(parts, reverse=True)))
        return tuple(mp)

    @hypothesis.settings(
        max_examples=max_examples, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(mp=multipartitions(), data=st.data())
    def check(mp, data):
        base = schur_element(mp, "cancellation")
        assert schur_element(mp, "product") == base
        ell = mp_length(mp)
        for L in (ell, ell + 1):
            assert schur_element(mp, "symbol", L) == base
        sigma = data.draw(st.permutations(range(1, len(mp) + 1)))
        assert schur_element(permute_components(mp, sigma)) == apply_permutation(sigma, base)

    check()


def test_random_multipartition_property():
    _random_multipartition_property(max_examples=20)


@pytest.mark.slow
def test_random_multipartition_property_many():
    _random_multipartition_property(max_examples=1000)


# -------------------------------------------------------------- P invariant


def test_p_invariant_examples():
    assert p_invariant(1, 3) == fr_const(6)
    assert p_invariant(2, 1) == fr_form(0, 1, 2)
    expected = fr_const(2) * fr_form(-1, 1, 2) * fr_form(0, 1, 2) * fr_form(1, 1, 2)
    assert p_invariant(2, 2) == expected


def test_p_invariant_factor_count():
    # each pair i<j contributes 2n-1 linear factors
    value = p_invariant(3, 3)
    assert sum(value.factors.values()) == 3 * (2 * 3 - 1)
    with pytest.raises(ValueError):
        p_invariant(0, 1)
    with pytest.raises(ValueError):
        p_invariant(1, 0)


def test_p_invariant_bound_is_inclusive(monkeypatch):
    # C(m, 2)*(2n - 1) = 15 at (3, 3), (2, 8) and (6, 1), and n = 15 at m = 1, where P is n!
    # alone; the memo is cleared, since a hit checks nothing
    monkeypatch.setattr(schur_module, "P_FACTOR_BOUND", 15)
    p_invariant.cache_clear()
    for m, n in ((3, 3), (2, 8), (6, 1)):
        assert sum(p_invariant(m, n).factors.values()) == 15
    assert p_invariant(1, 15) == fr_const(factorial(15))
    for m, n in ((3, 4), (2, 9), (7, 1), (1, 16)):
        with pytest.raises(ValueError, match=f"^P at --m {m} --n {n} has .* above the bound of 15$"):
            p_invariant(m, n)
    p_invariant.cache_clear()


# ---------------------------------------------------------------- verifiers


def test_mu_identity_base_case_is_inverse_y():
    assert verify_mu_identity((1,), 1)
    # both sides of the base case reduce to 1/y, at y = q1 - q2
    lhs = (fr_form(1, 1, 2) ** -1) * fr_form(1, 1, 2) * (fr_form(0, 1, 2) ** -1)
    assert lhs == fr_form(0, 1, 2, exp=-1)


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


def test_row_constant_is_the_factorials_over_the_vandermonde():
    # the superfactorial quotient as the symbol formula states it, multiplied out
    for lam in small_partitions(8):
        for length in range(len(lam), len(lam) + 5):
            row = beta_set(lam, length)
            quotient = Fraction(prod(map(factorial, row)),
                                prod(a - b for a, b in itertools.combinations(row, 2)))
            assert schur_module._row_constant(row) == quotient.as_integer_ratio(), (lam, length)


@pytest.mark.slow
def test_symbol_route_at_a_long_symbol_equals_the_cancellation_route():
    for mp in enumerate_multipartitions(2, 4):
        length = mp_length(mp) + 200
        assert schur_element(mp, "symbol", length) == schur_element(mp, "cancellation"), mp


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


def test_trace_identity_refuses_an_empty_size_before_the_level():
    # n = 0 has the single empty multipartition with s = 1: a sum of 1 for every m,
    # which is no instance of the claim rather than a mismatch
    for m in (2, 0):
        with pytest.raises(ValueError, match="needs --n >= 1, got 0"):
            verify_trace_identity(m, 0)


def test_trace_identity_grid_agrees_with_expansion():
    cases = [(m, n) for m in (1, 2, 3) for n in range(1, 6)] + [(4, 3), (2, 7)]
    for m, n in cases:
        zero = trace_identity_sides(m, n) == SparsePoly(m, {})
        assert verify_trace_identity(m, n) == zero, (m, n)


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
        assert trace_identity_sides(m, n) != SparsePoly(m, {})


class _GridSpy:
    """Stands in for itertools inside schur and records the grid sizes it is asked for."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(itertools, name)

    def product(self, *ranges):
        self.sizes.append(prod(map(len, ranges)))
        return itertools.product(*ranges)


@pytest.mark.parametrize(
    "m, n", [(1, 4), (2, 7), (2, 10), (3, 3), (3, 4), (4, 2), (4, 3), (5, 1), (6, 1)]
)
def test_trace_identity_budget_counts_the_grid(monkeypatch, m, n):
    spy = _GridSpy()
    monkeypatch.setattr(schur_module, "itertools", spy)
    assert verify_trace_identity(m, n)
    (points,) = spy.sizes
    # the grid sized from (m, n) alone is the grid the cofactors give
    side = schur_module._grid_side(m, n)
    assert points == side ** (m - 1)
    summands = multipartition_count(m, n)
    # a summand costs every grid point, or at m = 1 (one point) its n nodes
    work = max(points, n) * summands
    cost = f"{points} grid points" if m > 1 else f"{n} nodes"
    monkeypatch.setattr(schur_module, "TRACE_WORK_BUDGET", work - 1)
    message = f"needs {cost} times {summands} summands, above the budget of {work - 1}$"
    with pytest.raises(ValueError, match=message):
        verify_trace_identity(m, n)
    # below side^(m-1) the run is refused before the summands are counted,
    # and below n^2 before the grid is sized
    if points > n * n:
        monkeypatch.setattr(schur_module, "TRACE_WORK_BUDGET", points - 1)
        message = (
            rf"needs at least {side}\^{m - 1} grid points,"
            rf" above the budget of {points - 1} grid points times summands$"
        )
        with pytest.raises(ValueError, match=message):
            verify_trace_identity(m, n)
    monkeypatch.setattr(schur_module, "TRACE_WORK_BUDGET", n * n - 1)
    message = f"needs at least {n} nodes times {n} summands, above the budget of {n * n - 1}$"
    with pytest.raises(ValueError, match=message):
        verify_trace_identity(m, n)
    monkeypatch.setattr(schur_module, "TRACE_WORK_BUDGET", work)
    assert verify_trace_identity(m, n)
    assert spy.sizes == [points, points]


def test_trace_identity_refuses_a_large_m_before_building_elements(monkeypatch):
    def refuse(m, n):
        raise RuntimeError("elements were built")

    monkeypatch.setattr(schur_module, "_trace_summands", refuse)
    for m in (9, 1000):
        with pytest.raises(ValueError, match=rf"at least {m - 1}\^{m - 1} grid points"):
            verify_trace_identity(m, 1)
    with pytest.raises(ValueError, match="needs 2304 grid points times 4599 summands, above the budget"):
        verify_trace_identity(3, 11)


@pytest.mark.parametrize(
    "m, n, message",
    [
        (2, 24, "at --m 2 --n 24 needs 61 grid points times 94235 summands"),
        (2, 5000, "at --n 5000 needs at least 5000 nodes times 5000 summands"),
        (1, 60, "at --m 1 --n 60 needs 60 nodes times 966467 summands"),
    ],
)
def test_trace_identity_refusals_build_nothing(monkeypatch, m, n, message):
    def refuse(*args):
        raise RuntimeError("something was built")

    for name in ("schur_element", "_z_tally", "_trace_summands", "enumerate_multipartitions"):
        monkeypatch.setattr(schur_module, name, refuse)
    with pytest.raises(ValueError, match=message):
        verify_trace_identity(m, n)


def _oracle_top_exponents(size):
    """(|lam|, |mu|) -> c -> the largest exponent of (c + x) in Z_{lam mu}, node by node.

    Z_{lam mu} is read off _oracle_z_tally; Counter | is a max.
    """
    top = {}
    for a in range(size + 1):
        for b in range(size + 1 - a):
            best = top[a, b] = Counter()
            for lam in partitions(a):
                for mu in partitions(b):
                    best |= Counter(dict(_oracle_z_tally(lam, mu)[1]))
    return top


def _check_grid_side(exact, at_most):
    """_grid_side against the degree of D read off every pair's Z block.

    At m = 2 the pairs of an element have |lam| + |mu| = n, at m >= 3 any
    size up to n; every element has degree at least n in q_s.
    """
    top = _oracle_top_exponents(max(exact, at_most))
    for m, bound in ((2, exact), (3, at_most), (4, at_most)):
        for n in range(1, bound + 1):
            sizes = [(a, b) for a in range(n + 1) for b in range(n + 1 - a)]
            exponents = Counter()
            for a, b in sizes:
                if m > 2 or a + b == n:
                    exponents |= top[a, b]
            side = (m - 1) * sum(exponents.values()) - n + 1
            assert schur_module._grid_side(m, n) == side, (m, n)


def test_grid_side_matches_the_node_oracle():
    _check_grid_side(exact=12, at_most=8)


@pytest.mark.slow
def test_grid_side_matches_the_node_oracle_further():
    _check_grid_side(exact=24, at_most=10)


def _trace_identity_property(shapes, max_examples):
    """On drawn admitted shapes: the identity holds on the sized grid, and one f^L off by one fails it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    true_count = schur_module.num_standard_tableaux

    @hypothesis.settings(
        max_examples=max_examples, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(shape=st.sampled_from(shapes), data=st.data())
    def check(shape, data):
        m, n = shape
        wrong = data.draw(st.sampled_from(list(multipartitions(m, n))))
        with pytest.MonkeyPatch.context() as patch:
            spy = _GridSpy()
            patch.setattr(schur_module, "itertools", spy)
            assert verify_trace_identity(m, n)
            assert spy.sizes == [schur_module._grid_side(m, n) ** (m - 1)]
            patch.setattr(
                schur_module, "num_standard_tableaux", lambda mp: true_count(mp) + (mp == wrong)
            )
            assert not verify_trace_identity(m, n)

    check()


def _shapes(*bounds):
    return [(m, n) for m, top in enumerate(bounds, 1) for n in range(1, top + 1)]


def test_trace_identity_property():
    _trace_identity_property(_shapes(12, 8, 4, 2), max_examples=30)


@pytest.mark.slow
def test_trace_identity_property_wider():
    _trace_identity_property(_shapes(12, 14, 6, 4, 2), max_examples=100)


@pytest.mark.parametrize("d", [1, 3, 6])
def test_vanishes_identically_needs_the_whole_grid(d):
    # prod_{k<d} (-k + q1 - q2) has degree d in q1 and, at q2 = 0, vanishes
    # at q1 = 0..d-1: a grid of d points per variable would miss it
    value = prod((fr_form(-k, 1, 2) for k in range(d)), start=fr_const(1))
    assert all(prod(-k + q1 for k in range(d)) == 0 for q1 in range(d))
    assert not vanishes_identically(2, [(1, value)])
    assert vanishes_identically(2, [(1, value), (-1, value)])
    # a third variable changes nothing, nor a form that vanishes on part of the
    # grid (q2 - q3 at q2 = 0), as a factor or held at the exponent 0
    value3 = value * fr_form(0, 2, 3)
    held = FactoredRational(value.constant, {**value.factors, (2, 3, 0): 0})
    assert not vanishes_identically(3, [(1, value3)])
    assert not vanishes_identically(3, [(1, held)])
    assert vanishes_identically(3, [(1, value3), (-1, value3)])
    assert vanishes_identically(3, [(1, held), (-1, value)])


def test_vanishes_identically_rejects_other_forms():
    with pytest.raises(ValueError, match="not a form"):
        vanishes_identically(2, [(1, fr_form(1, 1, 3))])
    with pytest.raises(ValueError, match="negative exponent"):
        vanishes_identically(2, [(1, fr_form(1, 1, 2, exp=-1))])
    with pytest.raises(ValueError, match="^constant 1/2 of summand 1 is not an integer$"):
        vanishes_identically(2, [(1, fr_form(1, 1, 2)), (2, fr_const(Fraction(1, 2)))])


def test_vanishes_identically_on_sums_that_cancel():
    """Zero sums whose summands have different forms, and the same sums with one coefficient moved.

    With a drawn product A: g A(a + q_s - q_t) + g A(b + q_t - q_u) - (g A)(a + b + q_s - q_u)
    for s < t < u, and at m = 2 A(a + q1 - q2) - A(b + q1 - q2) - ((a - b)A).  The last
    summand carries its integer in its value, the others in their coefficient.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(m=st.integers(2, 4), data=st.data())
    def check(m, data):
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        factors = data.draw(
            st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(pairs), st.integers(1, 2)),
                     max_size=3)
        )
        a_value = fr_const(data.draw(st.integers(1, 3) | st.integers(-3, -1)))
        for c, (s, t), exp in factors:
            a_value = a_value * fr_form(c, s, t, exp)
        a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        if m == 2:
            hypothesis.assume(a != b)
            summands = [(1, a_value * fr_form(a, 1, 2)), (-1, a_value * fr_form(b, 1, 2)),
                        (-1, fr_const(a - b) * a_value)]
        else:
            s, t, u = sorted(data.draw(st.permutations(range(1, m + 1)))[:3])
            g = data.draw(st.sampled_from((1, 2, -3)))
            summands = [(g, a_value * fr_form(a, s, t)), (g, a_value * fr_form(b, t, u)),
                        (-1, fr_const(g) * a_value * fr_form(a + b, s, u))]
        assert vanishes_identically(m, summands)
        total = Counter()
        for f, value in summands:
            for e, c in fr_expand(value, m).terms.items():
                total[e] += f * c
        assert not any(total.values())
        k = data.draw(st.integers(0, len(summands) - 1))
        f, value = summands[k]
        summands[k] = (f + data.draw(st.sampled_from((1, -1))), value)
        assert not vanishes_identically(m, summands)

    check()


def test_trace_identity_matches_sympy():
    """sum_L f^L / s_L = [m = 1], with elements, hooks and f^L built here."""
    sympy = pytest.importorskip("sympy")
    for m, n in ((1, 3), (2, 3), (3, 2), (2, 4)):
        q = sympy.symbols(f"q1:{m + 1}")
        summands = []
        for mp in multipartitions(m, n):
            element = sympy.Integer(1)
            hooks = 1
            for s, lam in enumerate(mp):
                for i, j in nodes(lam):
                    hooks *= generalized_hook(lam, lam, i, j)
                    for t, mu in enumerate(mp):
                        element *= generalized_hook(lam, mu, i, j) + q[s] - q[t]
            summands.append(sympy.Integer(factorial(n) // hooks) / element)
            # the library's element is the same polynomial
            value = schur_element(mp)
            ours = sympy.Rational(value.constant.numerator, value.constant.denominator)
            for (s, t, c), exp in value.factors.items():
                ours *= (c + q[s - 1] - q[t - 1]) ** exp
            assert sympy.expand(element - ours) == 0, mp
        total = sympy.cancel(sympy.together(sympy.Add(*summands)))
        assert total == (1 if m == 1 else 0), (m, n)


def test_trace_identity_sides_level_one(monkeypatch):
    assert trace_identity_sides(1, 4) == SparsePoly(1, {})
    # with every f^L zero only -[m = 1] * D is left, and D = lcm(24, 8, 12, 8, 24)
    monkeypatch.setattr(schur_module, "num_standard_tableaux", lambda mp: 0)
    assert trace_identity_sides(1, 4).terms == {(0,): -24}


def test_trace_identity_sides_level_two_is_zero(monkeypatch):
    assert trace_identity_sides(2, 2) == SparsePoly(2, {})
    # at m > 1 no D is subtracted: with every f^L zero, N is zero too
    monkeypatch.setattr(schur_module, "num_standard_tableaux", lambda mp: 0)
    assert trace_identity_sides(2, 2) == SparsePoly(2, {})


# ------------------------------------------------------- degree / integrality


def test_expanded_degree_bound_small():
    """The expansion oracle for the integrality suite, which reads both facts off
    the factored value: integer coefficients and total degree = exponent sum = n(m-1)."""
    sizes = [(m, n) for m in (1, 2, 3) for n in range(1, 6)] + [(4, 3)]
    for m, n in sizes:
        for mp in enumerate_multipartitions(m, n):
            element = schur_element(mp)
            assert all(exp > 0 for exp in element.factors.values()), mp
            poly = fr_expand(element, m)
            assert all(type(c) is int for c in poly.terms.values()), mp
            degree = sum(element.factors.values())
            assert poly.total_degree() == degree == n * (m - 1), mp


def test_schur_at_generic_point_matches_expansion():
    thetas = [
        Specialization({1: Fraction(19, 2), 2: Fraction(-7, 3), 3: 5}),
        Specialization({1: 17, 2: 60, 3: 3}, prime=101),
    ]
    for mp in enumerate_multipartitions(3, 3):
        element = schur_element(mp)
        poly = fr_expand(element, 3)
        for theta in thetas:
            assert fr_eval(element, theta) == poly_at(poly, theta)
