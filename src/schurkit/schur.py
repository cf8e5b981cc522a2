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
the beta-shift suite takes each kernel once per pair.  An entry (c, exp)
at x = q_s - q_t, s < t, is the canonical form (s, t, c), and the forms
of distinct pairs never coincide, so an element is its constant times
the plain union of its pairs' forms.  X, Y and Z each have their own
tally, but the product and cancellation constants, hook_product and
_z_diagonal, multiply the same generalized_hook_length values (they stay
two functions because bench/tracing.py patches that name here).  The
independent constant is the symbol route's _row_constant, which
verify_hook_beta_identity checks against the hooks.  Kernels and
formulas accept lists and convert them to tuples before the cache lookup.

What the memos hold: one X or Z tally per distinct ordered pair of
partitions a sweep reads, one Y tally per distinct pair of beta rows,
one _row_constant per distinct row, that is per (partition, L), and one
_z_diagonal per distinct partition; hook_product, conjugate and the beta
rows are partitions' memos, one entry per partition or per (partition,
L).  The tallies are read row by row: X from row ranges of contents and
mu's column offsets, Y from the rows as bit sets, Z from
generalized_hooks, which reads mu' once per pair instead of once per
node.

sum_L f^L / s_L = [m = 1] holds iff the numerator N of _trace_summands
is zero.  verify_trace_identity decides that by exact integer evaluation
on a grid, and refuses a run whose size, read off (m, n) alone, exceeds
TRACE_WORK_BUDGET.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod
from operator import neg
from typing import Callable, Iterable

from .exact import (
    FactoredRational,
    LinearForm,
    ProductBuilder,
    SparsePoly,
    _factor_text,
    apply_permutation,
    fr_expand,
)
from .partitions import (
    Multipartition,
    Partition,
    beta_set,
    conjugate,
    enumerate_multipartitions,
    generalized_hook_length,
    generalized_hooks,
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

    Row by row: row i of mu gives (j - i - x) = -(i - j + x) for its
    contents; row i of lam, contents d from 1 - i to lam_i - i, gives
    (d - mu_1 + x) for each d and, for every column k of mu with offset
    e = mu'_k - k, the corrections (d + e + 1 + x) / (d + e + x), which
    telescope along the row to (lam_i - i + e + 1 + x) / (e - i + 1 + x).
    """
    tally: dict[int, int] = {}
    get = tally.get
    for i, row in enumerate(mu, 1):
        for c in range(i - row, i):
            tally[c] = get(c, 0) + 1
    mu1 = mu[0] if mu else 0
    offsets = [col - k for k, col in enumerate(conjugate(mu), 1)]
    for i, row in enumerate(lam, 1):
        for d in range(1 - i - mu1, row + 1 - i - mu1):
            tally[d] = get(d, 0) + 1
        for e in offsets:
            tally[row - i + e + 1] = get(row - i + e + 1, 0) + 1
            tally[e - i + 1] = get(e - i + 1, 0) - 1
    return (-1) ** sum(mu), _entries(tally)


@cache
def _y_tally(beta_l: tuple[int, ...], beta_m: tuple[int, ...]) -> Tally:
    """Y from two beta rows of one length L, as (sign, ((c, exp), ...)).

    (-1)^C(L,2) x^L times the rising products prod_{k<=a} (k + x) over
    the beta numbers a of lam and prod_{k<=b} (k - x) over those b of
    mu, divided by (a - b + x) over all pairs.  With the rows as bit sets
    A and B, (k + x) for k > 0 is in #{a >= k} = |A >> k| rising factors
    and |A & (B << k)| pair quotients; (-k + x) likewise with A and B
    swapped, and the (k - x) flips give the sign (-1)^sum(beta_m); x is
    in L factors and |A & B| quotients.  c runs upward, so the entries
    come out sorted.
    """
    length = len(beta_l)
    a_bits = sum(map((1).__lshift__, beta_l))
    b_bits = sum(map((1).__lshift__, beta_m))
    entries = [
        (-k, e)
        for k in range(b_bits.bit_length() - 1, 0, -1)
        if (e := (b_bits >> k).bit_count() - (b_bits & a_bits << k).bit_count())
    ]
    if e := length - (a_bits & b_bits).bit_count():
        entries.append((0, e))
    entries += [
        (k, e)
        for k in range(1, a_bits.bit_length())
        if (e := (a_bits >> k).bit_count() - (a_bits & b_bits << k).bit_count())
    ]
    return (-1) ** (comb(length, 2) + sum(beta_m)), tuple(entries)


@cache
def _z_tally(lam: Partition, mu: Partition) -> Tally:
    """Z_{lam mu}(x) as (sign, ((c, exp), ...)), both directions merged in x.

    (h + x) over the generalized hooks h of lam against mu, and
    (h - x) = -(-h + x) over those of mu against lam: one sign per node
    of mu.
    """
    tally = Counter(generalized_hooks(lam, mu))
    tally.update(map(neg, generalized_hooks(mu, lam)))
    return (-1) ** sum(mu), _entries(tally)


def _union(num: int, den: int, blocks: Iterable[tuple[Tally, int, int]]) -> FactoredRational:
    """num / den times each tally of blocks, a (tally, s, t) with s < t, taken at x = q_s - q_t.

    Every form of a tally at (s, t) is the canonical (s, t, c), so the
    tallies of distinct pairs share no form and the factors are a plain union.
    """
    factors: dict[LinearForm, int] = {}
    for (sign, entries), s, t in blocks:
        num *= sign
        for c, exp in entries:
            factors[(s, t, c)] = exp
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
    """prod_a a! over the Vandermonde prod_{i<j} (a_i - a_j) of one L-symbol row, reduced.

    With A the row as a bit set, it is prod_{k>=2} k^e_k, e_k = |A >> k| - |A & (A >> k)|:
    prod_a a! has a factor k per a >= k, the Vandermonde one per pair a_i - a_j = k.  Each
    product has about L^2/2 * log2(L) bits, while the counts cost about L^2 bit operations.
    """
    a = sum(map((1).__lshift__, row))
    exps = [(k, (a >> k).bit_count() - (a & a >> k).bit_count()) for k in range(2, a.bit_length())]
    q = Fraction(prod(k**e for k, e in exps if e > 0), prod(k**-e for k, e in exps if e < 0))
    return q.numerator, q.denominator


def _schur_symbol(mp: Multipartition, length: int | None) -> FactoredRational:
    """prod over the rows of (prod_a a! / Vandermonde) * prod_{s<t} Y(row s, row t).

    The rows are those of the L-symbol and Y is taken at x = q_s - q_t.
    A row's constant counts exponents: k^e_k, with e_k the beta numbers >= k
    less the pairs at distance k; it comes from the row alone, not the hooks.
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


# The most factors C(m, 2) * (2n - 1) that p_invariant builds.  A fresh CPython 3.11
# process (2 vCPUs) printing P as JSON peaked at 345 MB at (707, 2), with 748,713 factors
# the largest m admitted at n = 2, and at 662 MB at (1000, 2) with 1,498,500.  At m = 1,
# P is n! alone and counts n factors, and the pinv command also sizes n! against the
# int-digit limit.  ROADMAP item 5 folds these checks into its shared admission helper.
P_FACTOR_BOUND = 750_000


def check_p_invariant(m: int, n: int) -> None:
    """ValueError, in O(1), for m or n below 1 or P with more than P_FACTOR_BOUND factors."""
    if m < 1 or n < 1:
        raise ValueError("p_invariant needs m >= 1 and n >= 1")
    # at m = 1 there is no pair, and the n factors of n! are all of P
    rule, factors = ("C(m, 2)*(2n - 1)", comb(m, 2) * (2 * n - 1)) if m > 1 else ("n", n)
    if factors > P_FACTOR_BOUND:
        raise ValueError(
            f"P at --m {m} --n {n} has {rule} = {factors} factors,"
            f" above the bound of {P_FACTOR_BOUND}"
        )


@cache
def p_invariant(m: int, n: int) -> FactoredRational:
    """The separation polynomial n! * prod_{i<j} prod_{|d|<n} (d + q_i - q_j).

    Its non-vanishing under a specialization is equivalent to the
    specialized algebra being semisimple.  Memoized: callers share the
    returned value, which like every FactoredRational is never mutated.
    It is n! times one tally (1, ((d, 1), ...)) per pair i < j, through
    the same _union as the Schur elements, after check_p_invariant.
    """
    check_p_invariant(m, n)
    tally = (1, tuple((d, 1) for d in range(1 - n, n))) if m > 1 else None
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
    cols = conjugate(mu)
    mubar_ell = cols[ell - 1]
    lhs = ProductBuilder()
    lhs.form(mu[0], 1, 2, exp=-1)
    for i in range(1, mubar_ell + 1):
        lhs.form(mu[i - 1] - i + 1, 1, 2)
        lhs.form(mu[i - 1] - i, 1, 2, exp=-1)
    rhs = ProductBuilder()
    rhs.form(ell - mubar_ell - 1, 1, 2, exp=-1)
    for j in range(ell, mu[0] + 1):
        cj = cols[j - 1]
        rhs.form(j - cj - 1, 1, 2)
        rhs.form(j - cj, 1, 2, exp=-1)
    return lhs.build() == rhs.build()


def verify_hook_beta_identity(lam: Partition, length: int) -> bool:
    """Check prod(hooks) * prod_{i<j}(beta_i - beta_j) == prod_i beta_i! exactly.

    The beta side is _row_constant, the per-row constant of the symbol route,
    as a reduced fraction num / den.
    """
    num, den = _row_constant(beta_set(lam, length))
    return hook_product(tuple(lam)) * den == num


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


def _trace_summands(m: int, n: int) -> list[tuple[int, FactoredRational]]:
    """The numerator N of sum_L f^L / s_L - [m = 1] over one denominator D, as (f, value) pairs.

    D is the factorwise least common multiple of all the elements: the
    lcm of their constants' numerators times each form to its largest
    exponent, so every D / s_L is a polynomial.  Then
    N = sum_L f^L * (D / s_L) - [m = 1] * D: one pair (f^L, D / s_L) per
    multipartition, and (-1, D) when m = 1.  N is zero exactly when the
    trace identity holds.
    """
    mps = list(enumerate_multipartitions(m, n))
    elements = [schur_element(mp) for mp in mps]
    lcm_factors: dict[LinearForm, int] = {}
    for el in elements:
        for form, exp in el.factors.items():
            lcm_factors[form] = max(lcm_factors.get(form, 0), exp)
    denom = FactoredRational(lcm(*(el.constant.numerator for el in elements)), lcm_factors)
    summands = [(num_standard_tableaux(mp), denom / el) for mp, el in zip(mps, elements)]
    if m == 1:
        summands.append((-1, denom))
    return summands


def trace_identity_sides(m: int, n: int) -> SparsePoly:
    """The numerator N of _trace_summands, expanded.

    N is the zero polynomial exactly when the trace identity holds.  This
    is the expansion oracle for verify_trace_identity.
    """
    terms: dict[tuple[int, ...], int] = {}
    for f, value in _trace_summands(m, n):
        for e, c in fr_expand(value, m).terms.items():
            terms[e] = terms.get(e, 0) + f * c
    return SparsePoly(m, terms)


def vanishes_identically(m: int, summands: Iterable[tuple[int, FactoredRational]]) -> bool:
    """Decide whether sum_k f_k * v_k is the zero polynomial, for (f_k, v_k) in summands.

    Each f_k is an int and each v_k an integer constant times forms
    c + q_s - q_t, s, t in 1..m, to exponents >= 0 (ValueError otherwise).
    The sum then depends only on the differences of the q's, so it is
    zero iff it is zero at q_m = 0.
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
    index: dict[LinearForm, int] = {}
    containing: dict[int, int] = {}  # bit k set: summand k has form i as a factor
    degrees = [0] * m
    rows = []
    for k, (f, value) in enumerate(summands):
        if value.constant.denominator != 1:
            raise ValueError(f"constant {value.constant} of summand {k} is not an integer")
        degree = [0] * m
        idx, exps = [], []
        for form, e in value.factors.items():
            s, t, _ = form
            if t > m:
                text = _factor_text(form, 1, False)
                raise ValueError(f"{text} is not a form c + q_s - q_t with s, t <= {m}")
            if e < 0:
                raise ValueError(f"negative exponent {e} on {_factor_text(form, 1, False)}")
            i = index.setdefault(form, len(index))
            containing[i] = containing.get(i, 0) | 1 << k
            degree[s - 1] += e
            degree[t - 1] += e
            idx.append(i)
            exps.append(e)
        degrees = [max(a, b) for a, b in zip(degrees, degree)]
        rows.append((f * value.constant.numerator, idx, exps))
    compiled = [(c, s - 1, t - 1) for s, t, c in index]
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

    That is, whether the numerator N of _trace_summands is zero, decided
    by vanishes_identically, by exact integer evaluation and without
    expanding anything.

    Raises ValueError when n < 1 or m < 1, and, before any element is built, when the
    work sized from (m, n) alone exceeds TRACE_WORK_BUDGET: n^2 (at least p(n) >= n
    summands of n nodes), then _grid_side(m, n)^(m - 1) points, multiplied out only
    until they pass it, then max(points, n) per summand (at m = 1, on one point, its
    nodes).  The grid evaluated still comes from the cofactors: this moves only refusals.
    """
    if n < 1:
        raise ValueError(f"--suite trace-identity needs --n >= 1, got {n}")
    if m < 1:
        raise ValueError(f"--suite trace-identity needs --m >= 1, got {m}")
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
    return vanishes_identically(m, _trace_summands(m, n))
