"""Schur elements of the degenerate cyclotomic Hecke algebra H_{m,n}(Q).

Three independent routes produce the same canonical factored value:

  * product:       ordinary hooks times one kernel X_{lam^s lam^t}(x)
                   per component pair, evaluated at x = q_s - q_t;
  * symbol:        a single quotient of factorials and linear forms read
                   off the L-symbol of beta numbers;
  * cancellation:  a plain product of (generalized hook + q_s - q_t)
                   over all nodes and target components, with no
                   denominator at all.

The kernels x_kernel, y_kernel, z_kernel on partition pairs live here
too, with boolean verifiers for the supporting identities, so that
every one of them can be checked on concrete instances.  A kernel is a
rational function of x = q_1 - q_2; apply_permutation moves it to any
other pair, and x -> -x is the transposition (1 2).

Each formula is a constant times one kernel per pair s < t, so both the
kernels and the formulas read their forms off a tally of one partition
pair: (sign, ((c, exp), ...)), meaning sign * prod (c + x)^exp.  The
formulas memoize their tallies; a kernel computes a fresh one, since
the beta-shift suite takes each kernel once per pair.  Each entry is
taken at x = q_s - q_t, s < t, through canonical_parts, which interns
every form.  The forms of distinct pairs never coincide, so an element
is its constant times the plain union of its pairs' forms.  X, Y and Z
each have their own tally, and each formula its own memoized constant,
so the three formulas stay independent checks.  Kernels and formulas
accept lists and convert them to tuples before the cache lookup.

verify_trace_identity decides sum_L f^L / s_L = [m = 1] by exact integer
evaluation on a grid, and refuses a run whose size, read off (m, n)
alone, exceeds TRACE_WORK_BUDGET.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod
from typing import Callable, Iterable, Sequence

from .exact import (
    FactoredRational,
    LinearForm,
    ProductBuilder,
    SparsePoly,
    apply_permutation,
    canonical_parts,
    fr_expand,
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
    multipartition_count,
    nodes,
    num_standard_tableaux,
)

FORMULAS = ("product", "symbol", "cancellation")


Tally = tuple[int, tuple[tuple[int, int], ...]]


def _entries(tally: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((c, exp) for c, exp in tally.items() if exp))


@cache
def _x_tally(lam: Partition, mu: Partition) -> Tally:
    """X_{lam mu}(x) as (sign, ((c, exp), ...)): sign times prod (c + x)^exp.

    From the nodes of lam, grouped by content j - i, and the columns of
    mu: each node of mu gives (j - i - x) = -(i - j + x); each content d
    of lam gives (d - mu_1 + x) and, for every column k of mu with
    offset e = mu'_k - k, the correction (d + e + 1 + x) / (d + e + x).
    """
    tally = dict(Counter(i - j for i, j in nodes(mu)))
    mu1 = mu[0] if mu else 0
    offsets = [col - k for k, col in enumerate(conjugate(mu), 1)]
    get = tally.get
    for d, count in Counter(j - i for i, j in nodes(lam)).items():
        tally[d - mu1] = get(d - mu1, 0) + count
        for e in offsets:
            tally[d + e + 1] = get(d + e + 1, 0) + count
            tally[d + e] = get(d + e, 0) - count
    return (-1) ** sum(mu), _entries(tally)


@cache
def _y_tally(beta_l: tuple[int, ...], beta_m: tuple[int, ...]) -> Tally:
    """Y from two beta rows of one length L, as (sign, ((c, exp), ...)).

    (-1)^C(L,2) x^L times the rising products prod_{k<=a} (k + x) over
    the beta numbers a of lam and prod_{k<=b} (k - x) over those b of
    mu, divided by (a - b + x) over all pairs.  A row is strictly
    decreasing, so k lies in the rising products of exactly the first i
    numbers of a row when row_(i+1) < k <= row_i: one entry per k, and
    the (k - x) flips give the sign (-1)^sum(beta_m).
    """
    length = len(beta_l)
    tally = {0: length}
    for row, side in ((beta_l, 1), (beta_m, -1)):
        for i, (a, below) in enumerate(zip(row, row[1:] + (0,)), 1):
            for k in range(below + 1, a + 1):
                tally[side * k] = i
    get = tally.get
    for a in beta_l:
        for b in beta_m:
            tally[a - b] = get(a - b, 0) - 1
    return (-1) ** (comb(length, 2) + sum(beta_m)), _entries(tally)


def _hooks(lam: Partition, mu: Partition) -> Counter:
    """The generalized hooks of lam against mu, one per node of lam."""
    return Counter(generalized_hook_length(lam, mu, i, j) for i, j in nodes(lam))


@cache
def _z_tally(lam: Partition, mu: Partition) -> Tally:
    """Z_{lam mu}(x) as (sign, ((c, exp), ...)), both directions merged in x.

    (h + x) over the generalized hooks h of lam against mu, and
    (h - x) = -(-h + x) over those of mu against lam: one sign per node
    of mu.
    """
    tally = _hooks(lam, mu)
    for h, count in _hooks(mu, lam).items():
        tally[-h] += count
    return (-1) ** sum(mu), _entries(tally)


def _union(num: int, den: int, blocks: Iterable[tuple[Tally, int, int]]) -> FactoredRational:
    """num / den times each tally of blocks, a (tally, s, t) with s < t, taken at x = q_s - q_t.

    Every form of a tally at (s, t) has the indices {s, t}, so the tallies
    of distinct pairs share no form and the factors are a plain union.
    """
    factors: dict[LinearForm, int] = {}
    for (sign, entries), s, t in blocks:
        num *= sign
        for c, exp in entries:
            factors[canonical_parts(c, s, t)[0]] = exp
    return FactoredRational(num if den == 1 else Fraction(num, den), factors)


def _assemble(num: int, den: int, tally: Callable, rows: tuple, mp: tuple) -> FactoredRational:
    """num / den times the memoized tally(rows[s], rows[t]) at x = q_s - q_t for all s < t.

    Pairs of two empty components of mp are skipped: their tally is (1, ()) on every route
    (on the symbol route their rows are the same staircase).  At n = 1 that leaves m - 1
    pairs per element instead of C(m, 2), so a sweep is quadratic in m, not cubic.
    """
    live = [s for s, lam in enumerate(mp) if lam]
    pairs = [(s, t) if s < t else (t, s) for s in live for t in range(len(mp)) if t > s or not mp[t]]
    return _union(num, den, ((tally(rows[s], rows[t]), s + 1, t + 1) for s, t in pairs))


def x_kernel(lam: Partition, mu: Partition) -> FactoredRational:
    """The pairing X_{lam mu}(x) on two partitions, at x = q_1 - q_2.

    Product over the nodes of mu of (j - i - x), times, for every node
    of lam, (j - i - mu_1 + x) and the telescoping column corrections
    (j - i + mu'_k - k + 1 + x) / (j - i + mu'_k - k + x) for k up to
    mu_1.  Empty partitions contribute empty products.
    """
    return _union(1, 1, [(_x_tally.__wrapped__(tuple(lam), tuple(mu)), 1, 2)])


def y_kernel(lam: Partition, mu: Partition, length: int) -> FactoredRational:
    """The beta-number form of the pairing from L-beta sets, at x = q_1 - q_2.

    (-1)^C(L,2) x^L times rising products (i + x) over the beta numbers
    of lam and (j - x) over those of mu, divided by (a - b + x) over all
    beta pairs.  Invariant under beta shifts, hence independent of L.
    """
    tally = _y_tally.__wrapped__(beta_set(lam, length), beta_set(mu, length))
    return _union(1, 1, [(tally, 1, 2)])


def z_kernel(lam: Partition, mu: Partition) -> FactoredRational:
    """Cancellation-free form of the pairing at x = q_1 - q_2: a pure product.

    (generalized hook of lam against mu + x) over the nodes of lam times
    (generalized hook of mu against lam - x) over the nodes of mu.
    """
    return _union(1, 1, [(_z_tally.__wrapped__(tuple(lam), tuple(mu)), 1, 2)])


def schur_element(
    mp: Multipartition, formula: str = "cancellation", length: int | None = None
) -> FactoredRational:
    """Schur element of a multipartition, by any of the three formulas.

    formula is one of "product", "symbol", "cancellation"; length is the
    symbol size L (symbol route only, default the multipartition length).
    All routes return equal canonical values.

    mp must be a multipartition: components of weakly decreasing non-negative
    ints, lists or tuples.  That is not checked here, and other input gives a
    meaningless value; partitions.multipartition validates untrusted input.
    """
    if length is not None and formula != "symbol":
        raise ValueError(f"length applies only to formula 'symbol', not {formula!r}")
    mp = tuple(map(tuple, mp))
    if formula == "product":
        return _schur_product(mp)
    if formula == "symbol":
        return _schur_symbol(mp, length)
    if formula == "cancellation":
        return _schur_cancellation(mp)
    raise ValueError(f"unknown formula {formula!r}; expected one of {FORMULAS}")


def _schur_product(mp: Multipartition) -> FactoredRational:
    """prod_s hook_product(lam^s) * prod_{s<t} X_{lam^s lam^t}(q_s - q_t)."""
    return _assemble(prod(map(hook_product, mp)), 1, _x_tally, mp, mp)


@cache
def _row_constant(row: tuple[int, ...]) -> tuple[int, int]:
    """prod_a a! and the Vandermonde prod_{i<j} (a_i - a_j) of one L-symbol row."""
    return prod(map(factorial, row)), prod(a - b for a, b in itertools.combinations(row, 2))


def _schur_symbol(mp: Multipartition, length: int | None) -> FactoredRational:
    """prod over the rows of (prod_a a! / Vandermonde) * prod_{s<t} Y(row s, row t).

    The rows are those of the L-symbol and Y is taken at x = q_s - q_t.
    prod_a a! over a row is prod_k k^#{a >= k}; the per-row constant
    comes from the row alone, not from the hooks.
    """
    rows = l_symbol(mp, mp_length(mp) if length is None else length)
    num = den = 1
    for row in rows:
        a, b = _row_constant(row)
        num *= a
        den *= b
    return _assemble(num, den, _y_tally, rows, mp)


@cache
def _z_diagonal(lam: Partition) -> int:
    """The s == t factor of the cancellation product: the hooks of lam against itself."""
    return prod(generalized_hook_length(lam, lam, i, j) for i, j in nodes(lam))


def _schur_cancellation(mp: Multipartition) -> FactoredRational:
    """prod_{s, t} prod over the nodes of lam^s of (h(lam^s, lam^t) + q_s - q_t).

    The terms with s == t are constants; the pair s < t together with
    t > s is Z_{lam^s lam^t}.
    """
    return _assemble(prod(map(_z_diagonal, mp)), 1, _z_tally, mp, mp)


@cache
def p_invariant(m: int, n: int) -> FactoredRational:
    """The separation polynomial n! * prod_{i<j} prod_{|d|<n} (d + q_i - q_j).

    Its non-vanishing under a specialization is equivalent to the
    specialized algebra being semisimple.  Memoized: callers share the
    returned value, which like every FactoredRational is never mutated.
    It is n! times one tally (1, ((d, 1), ...)) per pair i < j, through
    the same _union as the Schur elements.
    """
    if m < 1 or n < 1:
        raise ValueError("p_invariant needs m >= 1 and n >= 1")
    tally = (1, tuple((d, 1) for d in range(1 - n, n)))
    pairs = itertools.combinations(range(1, m + 1), 2)
    return _union(factorial(n), 1, ((tally, i, j) for i, j in pairs))


def verify_mu_identity(mu: Partition, ell: int) -> bool:
    """Check the telescoping row/column identity behind the kernel recursions.

    Both sides are rational functions of one indeterminate y, taken at
    y = q_1 - q_2: the left walks the first mu'_ell rows, the right walks
    columns ell..mu_1.  True for every partition and every 1 <= ell <= mu_1.
    """
    if not mu or not (1 <= ell <= mu[0]):
        raise ValueError("need a non-empty partition and 1 <= ell <= mu_1")
    mubar_ell = conjugate_part(mu, ell)
    lhs = ProductBuilder()
    lhs.form(mu[0], 1, 2, exp=-1)
    for i in range(1, mubar_ell + 1):
        lhs.form(mu[i - 1] - i + 1, 1, 2)
        lhs.form(mu[i - 1] - i, 1, 2, exp=-1)
    rhs = ProductBuilder()
    rhs.form(ell - mubar_ell - 1, 1, 2, exp=-1)
    for j in range(ell, mu[0] + 1):
        cj = conjugate_part(mu, j)
        rhs.form(j - cj - 1, 1, 2)
        rhs.form(j - cj, 1, 2, exp=-1)
    return lhs.build() == rhs.build()


def verify_hook_beta_identity(lam: Partition, length: int) -> bool:
    """Check prod(hooks) * prod_{i<j}(beta_i - beta_j) == prod_i beta_i! exactly.

    The beta side is _row_constant, the per-row constant of the symbol route.
    """
    factorials, vandermonde = _row_constant(beta_set(lam, length))
    return hook_product(lam) * vandermonde == factorials


def verify_x_symmetry(lam: Partition, mu: Partition) -> bool:
    """Check X_{lam mu}(x) == X_{mu lam}(-x); x -> -x is the swap (1 2) of q_1 and q_2."""
    return x_kernel(lam, mu) == apply_permutation((2, 1), x_kernel(mu, lam))


# The most grid points times summands verify_trace_identity evaluates: every point
# evaluates every summand.  The time of one such evaluation still grows with n, so the
# budget is set from runs on CPython 3.11 (2 vCPUs): (2,23) at 3.7M took 14 s, (4,5)
# at 4.4M 2.8 s and (3,10) at 5.3M 7.8 s, while (2,24) at 5.7M took 47 s and (3,11)
# at 10.6M 16-37 s.  (1,46), charged n nodes per summand, at 4.9M took 15-24 s.
TRACE_WORK_BUDGET = 5_000_000


def _grid_side(m: int, n: int) -> int:
    """The values on each side of the grid verify_trace_identity evaluates, for m >= 2.

    Every element has degree at least n in q_s (a Z block of (lam, mu) has |lam| + |mu|
    forms), and the pairs with |lam| + |mu| <= n (= n at m = 2) all occur.  The largest
    exponent of (c + x) in their Z tallies is max{j : j(|c| + j) <= n}, at ((|c| + j)^j, ()),
    and summed over c these count the (a, b) >= 1 with ab <= n; deg_{q_s} D is m - 1 times that.
    """
    return (m - 1) * sum(n // k for k in range(1, n + 1)) - n + 1


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
    terms: dict[tuple[int, ...], int] = {}
    for mp, el in zip(mps, elements):
        f = num_standard_tableaux(mp)
        for e, c in fr_expand(denom / el, m).terms.items():
            terms[e] = terms.get(e, 0) + f * c
    total = SparsePoly(m, terms)
    expected = fr_expand(denom, m) if m == 1 else SparsePoly(m, {})
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
    compiled = []
    for form in forms:
        if form.t > m:
            raise ValueError(f"{form.render()} is not a form c + q_s - q_t with s, t <= {m}")
        compiled.append((form.c, form.s - 1, form.t - 1))
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

    Raises ValueError when n < 1 or m < 1, and, before any element is built, when the
    work sized from (m, n) alone exceeds TRACE_WORK_BUDGET: n^2 (at least p(n) >= n
    summands of n nodes), then _grid_side(m, n)^(m - 1) points, multiplied out only
    until they pass it, then max(points, n) per summand (at m = 1, on one point, its
    nodes).  The grid evaluated still comes from the cofactors: this moves only refusals.
    """
    if n < 1:
        raise ValueError(f"--suite trace-identity needs --n >= 1, got {n}")
    if m < 1:
        raise ValueError("level m must be at least 1")
    if n * n > TRACE_WORK_BUDGET:
        raise ValueError(
            f"trace-identity at --n {n} needs at least {n} nodes times {n} summands,"
            f" above the budget of {TRACE_WORK_BUDGET}"
        )
    side, points = _grid_side(m, n), 1
    for _ in range(m - 1):
        points *= side
        if points > TRACE_WORK_BUDGET:
            raise ValueError(
                f"trace-identity at --m {m} --n {n} needs at least {side}^{m - 1} grid points,"
                f" above the budget of {TRACE_WORK_BUDGET} grid points times summands"
            )
    summands = multipartition_count(m, n)
    if max(points, n) * summands > TRACE_WORK_BUDGET:
        cost = f"{points} grid points" if points >= n else f"{n} nodes"
        raise ValueError(
            f"trace-identity at --m {m} --n {n} needs {cost} times"
            f" {summands} summands, above the budget of {TRACE_WORK_BUDGET}"
        )
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
