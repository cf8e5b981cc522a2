"""Schur elements of the degenerate cyclotomic Hecke algebra H_{m,n}(Q).

Three independent routes produce the same canonical factored value:

  * product:       ordinary hooks times one kernel X per component pair,
                   evaluated at x = q_s - q_t;
  * symbol:        a single quotient of factorials and linear forms read
                   off the L-symbol of beta numbers;
  * cancellation:  a plain product of (generalized hook + q_s - q_t)
                   over all nodes and target components, with no
                   denominator at all.

The kernels X, Y, Z on ordinary partition pairs live here too, together
with boolean verifiers for the supporting identities, so that every one
of them can be checked on concrete instances.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod
from typing import Sequence

from .exact import (
    X,
    FactoredRational,
    LinearForm,
    ProductBuilder,
    SparsePoly,
    fr_expand,
    negate_x,
    qvar,
    substitute_x,
)
from .partitions import (
    Multipartition,
    Partition,
    beta_set,
    conjugate,
    conjugate_part,
    enumerate_multipartitions,
    generalized_hook_length,
    hook_product,
    l_symbol,
    mp_length,
    nodes,
    num_standard_tableaux,
)

FORMULAS = ("product", "symbol", "cancellation")


def x_kernel(lam: Partition, mu: Partition) -> FactoredRational:
    """The pairing X on two partitions, a rational function of x.

    Product over the nodes of mu of (j - i - x), times, for every node
    of lam, (j - i - mu_1 + x) and the telescoping column corrections
    (j - i + mu'_k - k + 1 + x) / (j - i + mu'_k - k + x) for k up to
    mu_1.  Empty partitions contribute empty products.
    """
    mu1 = mu[0] if mu else 0
    mubar = conjugate(mu)
    b = ProductBuilder()
    for i, j in nodes(mu):
        b.form(j - i, neg=X)
    for i, j in nodes(lam):
        b.form(j - i - mu1, pos=X)
        for k in range(1, mu1 + 1):
            b.form(j - i + mubar[k - 1] - k + 1, pos=X)
            b.form(j - i + mubar[k - 1] - k, pos=X, exp=-1)
    return b.build()


def y_kernel(lam: Partition, mu: Partition, length: int) -> FactoredRational:
    """The beta-number form of the pairing, computed from L-beta sets.

    (-1)^C(L,2) x^L times rising products (i + x) over the beta numbers
    of lam and (j - x) over those of mu, divided by (a - b + x) over all
    beta pairs.  Invariant under beta shifts, hence independent of L.
    """
    if length < max(len(lam), len(mu)):
        raise ValueError(f"L={length} too small for lengths {len(lam)}, {len(mu)}")
    beta_l = beta_set(lam, length)
    beta_m = beta_set(mu, length)
    b = ProductBuilder()
    b.const((-1) ** comb(length, 2))
    b.form(0, pos=X, exp=length)
    for a in beta_l:
        for i in range(1, a + 1):
            b.form(i, pos=X)
    for bb in beta_m:
        for j in range(1, bb + 1):
            b.form(j, neg=X)
    for a in beta_l:
        for bb in beta_m:
            b.form(a - bb, pos=X, exp=-1)
    return b.build()


def z_kernel(lam: Partition, mu: Partition) -> FactoredRational:
    """Cancellation-free form of the pairing: a pure product of linear factors.

    (generalized hook of lam against mu + x) over the nodes of lam times
    (generalized hook of mu against lam - x) over the nodes of mu.
    """
    b = ProductBuilder()
    for i, j in nodes(lam):
        b.form(generalized_hook_length(lam, mu, i, j), pos=X)
    for i, j in nodes(mu):
        b.form(generalized_hook_length(mu, lam, i, j), neg=X)
    return b.build()


def schur_element(
    mp: Multipartition, formula: str = "cancellation", length: int | None = None
) -> FactoredRational:
    """Schur element of a multipartition, by any of the three formulas.

    formula is one of "product", "symbol", "cancellation"; length is the
    symbol size L (symbol route only, default the multipartition length).
    All routes return equal canonical values.
    """
    if formula == "product":
        return _schur_product(mp)
    if formula == "symbol":
        return _schur_symbol(mp, length)
    if formula == "cancellation":
        return _schur_cancellation(mp)
    raise ValueError(f"unknown formula {formula!r}; expected one of {FORMULAS}")


def _schur_product(mp: Multipartition) -> FactoredRational:
    m = len(mp)
    b = ProductBuilder()
    for lam in mp:
        b.const(hook_product(lam))
    for s in range(1, m + 1):
        for t in range(s + 1, m + 1):
            b.fr(substitute_x(x_kernel(mp[s - 1], mp[t - 1]), s, t))
    return b.build()


def _schur_symbol(mp: Multipartition, length: int | None) -> FactoredRational:
    m = len(mp)
    if length is None:
        length = mp_length(mp)
    rows = l_symbol(mp, length)
    q = [qvar(s) for s in range(1, m + 1)]
    b = ProductBuilder()
    b.const((-1) ** (comb(m, 2) * comb(length, 2)))
    for s in range(m):
        for t in range(s + 1, m):
            b.form(0, q[s], q[t], exp=length)
    for s in range(m):
        # prod over beta numbers a of row s of prod_{k<=a} (k + q_s - q_t),
        # one call per k with the number of a >= k as exponent
        row = rows[s]
        counts = [(k, sum(a >= k for a in row)) for k in range(1, max(row, default=0) + 1)]
        for t in range(m):
            for k, count in counts:
                b.form(k, q[s], q[t], exp=count)
    for s in range(m):
        for t in range(s + 1, m):
            for a_s in rows[s]:
                for a_t in rows[t]:
                    b.form(a_s - a_t, q[s], q[t], exp=-1)
    for row in rows:
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                b.const(row[i] - row[j], exp=-1)
    return b.build()


def _schur_cancellation(mp: Multipartition) -> FactoredRational:
    q = [qvar(s) for s in range(1, len(mp) + 1)]
    b = ProductBuilder()
    for q_s, lam in zip(q, mp):
        for i, j in nodes(lam):
            for q_t, mu in zip(q, mp):
                b.form(generalized_hook_length(lam, mu, i, j), q_s, q_t)
    return b.build()


@cache
def p_invariant(m: int, n: int) -> FactoredRational:
    """The separation polynomial n! * prod_{i<j} prod_{|d|<n} (d + q_i - q_j).

    Its non-vanishing under a specialization is equivalent to the
    specialized algebra being semisimple.  Memoized: callers share the
    returned value, which like every FactoredRational is never mutated.
    """
    if m < 1 or n < 1:
        raise ValueError("p_invariant needs m >= 1 and n >= 1")
    b = ProductBuilder()
    b.const(factorial(n))
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            for d in range(-(n - 1), n):
                b.form(d, qvar(i), qvar(j))
    return b.build()


def verify_mu_identity(mu: Partition, ell: int) -> bool:
    """Check the telescoping row/column identity behind the kernel recursions.

    Both sides are rational functions of one indeterminate y (realized
    as the x variable): the left walks the first mu'_ell rows, the right
    walks columns ell..mu_1.  True for every partition and every
    1 <= ell <= mu_1.
    """
    if not mu or not (1 <= ell <= mu[0]):
        raise ValueError("need a non-empty partition and 1 <= ell <= mu_1")
    mubar_ell = conjugate_part(mu, ell)
    lhs = ProductBuilder()
    lhs.form(mu[0], pos=X, exp=-1)
    for i in range(1, mubar_ell + 1):
        lhs.form(mu[i - 1] - i + 1, pos=X)
        lhs.form(mu[i - 1] - i, pos=X, exp=-1)
    rhs = ProductBuilder()
    rhs.form(ell - mubar_ell - 1, pos=X, exp=-1)
    for j in range(ell, mu[0] + 1):
        cj = conjugate_part(mu, j)
        rhs.form(j - cj - 1, pos=X)
        rhs.form(j - cj, pos=X, exp=-1)
    return lhs.build() == rhs.build()


def verify_hook_beta_identity(lam: Partition, length: int) -> bool:
    """Check prod(hooks) * prod_{i<j}(beta_i - beta_j) == prod_i beta_i! exactly."""
    beta = beta_set(lam, length)
    lhs = hook_product(lam)
    for i in range(len(beta)):
        for j in range(i + 1, len(beta)):
            lhs *= beta[i] - beta[j]
    rhs = 1
    for b in beta:
        rhs *= factorial(b)
    return lhs == rhs


def verify_x_symmetry(lam: Partition, mu: Partition) -> bool:
    """Check that swapping the pair is the same as negating x in the kernel."""
    return x_kernel(lam, mu) == negate_x(x_kernel(mu, lam))


def _trace_terms(m: int, n: int):
    """The multipartitions, their Schur elements and the common denominator D.

    D is the factorwise least common multiple of all the elements: the
    lcm of their integer constants times each form to its largest
    exponent, so every D / s_L is a polynomial.
    """
    mps = list(enumerate_multipartitions(m, n))
    elements = [schur_element(mp) for mp in mps]
    lcm_factors: dict = {}
    lcm_const = 1
    for el in elements:
        c = el.constant
        assert c.denominator == 1 and c != 0
        lcm_const = lcm(lcm_const, abs(c.numerator))
        for form, exp in el.factors.items():
            lcm_factors[form] = max(lcm_factors.get(form, 0), exp)
    return mps, elements, FactoredRational(Fraction(lcm_const), lcm_factors)


def trace_identity_sides(m: int, n: int) -> tuple[SparsePoly, SparsePoly]:
    """Numerators of sum_L f^L / s_L and of its expected value, over one denominator.

    The common denominator D is the factorwise least common multiple of
    all Schur elements; the left side is sum_L f^L * expand(D / s_L), the
    right side is expand(D) for m = 1 and the zero polynomial otherwise.
    This is the expansion oracle for verify_trace_identity.
    """
    mps, elements, denom = _trace_terms(m, n)
    variables = tuple(qvar(s) for s in range(1, m + 1))
    terms: dict[tuple[int, ...], int] = {}
    for mp, el in zip(mps, elements):
        f = num_standard_tableaux(mp)
        for e, c in fr_expand(denom / el, variables).terms.items():
            terms[e] = terms.get(e, 0) + f * c
    total = SparsePoly(variables, terms)
    expected = fr_expand(denom, variables) if m == 1 else SparsePoly(variables, {})
    return total, expected


def vanishes_identically(
    m: int, forms: Sequence[LinearForm], terms: Sequence[tuple[int, Sequence[tuple[int, int]]]]
) -> bool:
    """Decide whether sum_k c_k * prod_i forms[i]^e_ik is the zero polynomial.

    terms holds one (c_k, [(i, e_ik), ...]) per summand, with integer
    c_k and exponents e_ik >= 0; every form must be a difference
    c + q_s - q_t with s, t in 1..m.  The sum then depends only on the
    differences of the q's, so it is zero iff it is zero at q_m = 0.
    Its degree in q_s (s < m) is at most d_s, the largest over k of the
    summed exponents of the forms that contain q_s, and a polynomial
    within these degrees that vanishes on the grid
    {0..d_1} x ... x {0..d_(m-1)} is zero (Alon's Combinatorial
    Nullstellensatz, or induction on the number of variables).  So the
    sum is evaluated in plain ints at each grid point, every form once
    per point, and False is returned at the first non-zero value.  A
    summand with a form that is zero at the point is skipped: on the
    trace identity grids of (3,5) and (4,4) that is 65% and 80% of them.
    """
    slot = {qvar(s): s - 1 for s in range(1, m + 1)}
    compiled = []
    for form in forms:
        if form.pos not in slot or form.neg not in slot:
            raise ValueError(f"{form.render()} is not a form c + q_s - q_t with s, t <= {m}")
        compiled.append((form.c, slot[form.pos], slot[form.neg]))
    degrees = [0] * m
    containing = [0] * len(compiled)  # bit k set: summand k has the form as a factor
    rows = []
    for k, (c, factors) in enumerate(terms):
        degree = [0] * m
        idx, exps = [], []
        for i, e in factors:
            if e < 0:
                raise ValueError(f"negative exponent {e} on {forms[i].render()}")
            if e:
                _, s, t = compiled[i]
                degree[s] += e
                degree[t] += e
                containing[i] |= 1 << k
                idx.append(i)
                exps.append(e)
        degrees = [max(a, b) for a, b in zip(degrees, degree)]
        rows.append((c, idx, exps))
    for point in itertools.product(*(range(d + 1) for d in degrees[:-1])):
        q = (*point, 0)
        values = [c + q[s] - q[t] for c, s, t in compiled]
        dead = 0
        for i, v in enumerate(values):
            if not v:
                dead |= containing[i]
        get = values.__getitem__
        if sum(
            c * prod(map(pow, map(get, idx), exps))
            for k, (c, idx, exps) in enumerate(rows)
            if not dead >> k & 1
        ):
            return False
    return True


def verify_trace_identity(m: int, n: int) -> bool:
    """Check sum over all multipartitions of dim/schur == (1 if m == 1 else 0).

    Over the common denominator D of trace_identity_sides the identity
    says that sum_L f^L * (D / s_L) - [m = 1] * D is the zero polynomial.
    Each D / s_L is an integer times powers of the forms of D, so this is
    decided by vanishes_identically, by exact integer evaluation and
    without expanding anything.
    """
    mps, elements, denom = _trace_terms(m, n)
    forms = list(denom.factors)
    lcm_exps = list(denom.factors.values())
    lcm_const = denom.constant.numerator
    terms = []
    for mp, el in zip(mps, elements):
        coefficient = num_standard_tableaux(mp) * (lcm_const // el.constant.numerator)
        exps = [e - el.factors.get(form, 0) for form, e in zip(forms, lcm_exps)]
        terms.append((coefficient, list(enumerate(exps))))
    if m == 1:
        terms.append((-lcm_const, list(enumerate(lcm_exps))))
    return vanishes_identically(m, forms, terms)
