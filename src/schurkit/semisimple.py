"""Semisimplicity of specialized algebras and two-sided criterion checks.

A specialization theta of the parameters makes the algebra semisimple
exactly when theta(P) != 0 for the separation polynomial P, and that in
turn happens exactly when no Schur element vanishes under theta.  Both
sides are computable here, so the equivalence itself can be stress
tested.

Vanishing is read off the cancellation-free formula without evaluating
it: each element is an integer constant times a product of forms
c + q_s - q_t, so it vanishes under theta exactly when its constant is
zero in the field or one of its forms is.  ZeroFormIndex inverts the
table once, variable pair -> c -> element positions, and a query looks
up theta(q_t) - theta(q_s) for each pair.  P(theta) is still evaluated
factor by factor, so agreement compares two independent computations.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional, Sequence

from .exact import FactoredRational, FieldElement, Specialization, _factor_text, fr_eval
from .partitions import Multipartition, enumerate_multipartitions, mp_size
from .schur import p_invariant, schur_element


class SemisimplicityReport(NamedTuple):
    """Outcome of the criterion check for one specialization."""

    p_value: FieldElement
    semisimple: bool
    vanishing: Optional[list[Multipartition]]
    agreement: Optional[bool]
    field: str

    def to_json(self) -> dict:
        data: dict = {"p_value": str(self.p_value), "semisimple": self.semisimple}
        if self.vanishing is not None:
            data["vanishing"] = [[list(lam) for lam in mp] for mp in self.vanishing]
            data["agreement"] = self.agreement
        data["field"] = self.field
        return data


def is_semisimple(m: int, n: int, theta: Specialization) -> bool:
    """True iff theta(P) != 0; P is a polynomial, so no poles can occur."""
    return fr_eval(p_invariant(m, n), theta) != 0


class ZeroFormIndex:
    """Inverted index of the zero forms of a table of Schur elements.

    Built once from (multipartition, element) pairs whose exponents are
    all positive.  shape is the (m, n) of its first multipartition: a
    table of P_{m,n} is never empty.  A query costs one dictionary lookup
    per variable pair over Q, one check per stored offset c over F_p,
    plus the size of the answer.  Every stored offset has |c| < n, so a
    query checks at most C(m, 2) * (2n - 1) of them.
    """

    def __init__(self, elements: Sequence[tuple[Multipartition, FactoredRational]]):
        if not elements:
            raise ValueError("the zero-form index needs a non-empty table")
        first = elements[0][0]
        self.shape = (len(first), mp_size(first))
        self._multipartitions = [mp for mp, _ in elements]
        self._constants = [el.constant for _, el in elements]
        # (s, t) -> c -> positions of the elements with a factor c + q_s - q_t
        self._forms: dict[tuple[int, int], dict[int, list[int]]] = {}
        for i, (mp, el) in enumerate(elements):
            for form, exp in el.factors.items():
                if exp < 0:
                    raise ValueError(
                        f"{_factor_text(form, 1, False)} has exponent {exp} in the element of"
                        f" {mp}; the zero-form index needs denominator-free products"
                    )
                s, t, c = form
                self._forms.setdefault((s, t), {}).setdefault(c, []).append(i)
        # field (None for Q, else p) -> positions whose constant is zero there
        self._zero_constants: dict[Optional[int], list[int]] = {}

    def _constant_hits(self, theta: Specialization) -> list[int]:
        hits = self._zero_constants.get(theta.prime)
        if hits is None:
            hits = [i for i, k in enumerate(self._constants) if theta.constant_value(k) == 0]
            self._zero_constants[theta.prime] = hits
        return hits

    def vanishing(self, theta: Specialization) -> list[Multipartition]:
        """Multipartitions whose element vanishes under theta, in table order."""
        hits = set(self._constant_hits(theta))
        p = theta.prime
        for (s, t), by_c in self._forms.items():
            # c + theta(q_s) - theta(q_t) = 0  <=>  c = target
            target = theta.value_of(t) - theta.value_of(s)
            if p is None:
                # a Fraction key equals an int key only when it is integral
                hits.update(by_c.get(target, ()))
            else:
                for c, positions in by_c.items():
                    if (c - target) % p == 0:
                        hits.update(positions)
        return [self._multipartitions[i] for i in sorted(hits)]


def vanishing_schur_elements(
    m: int,
    n: int,
    theta: Specialization,
    index: Optional[ZeroFormIndex] = None,
) -> list[Multipartition]:
    """All multipartitions whose Schur element vanishes under theta.

    Returned in enumeration order.  Pass a ZeroFormIndex of the (m, n)
    table to amortize its construction over repeated queries; an index of
    another table raises ValueError.
    """
    if index is None:
        index = ZeroFormIndex(schur_elements_table(m, n))
    elif index.shape != (m, n):
        raise ValueError(f"the zero-form index was built for (m, n) = {index.shape}, not {(m, n)}")
    return index.vanishing(theta)


def schur_elements_table(
    m: int, n: int
) -> list[tuple[Multipartition, FactoredRational]]:
    """Cancellation-free Schur elements for all of P_{m,n}, enumeration order."""
    return [(mp, schur_element(mp)) for mp in enumerate_multipartitions(m, n)]


def cross_check_criterion(
    m: int,
    n: int,
    theta: Specialization,
    index: Optional[ZeroFormIndex] = None,
) -> SemisimplicityReport:
    """Evaluate the criterion AND find the vanishing Schur elements, reporting agreement.

    agreement is (p_value != 0) == (no element vanishes); a False value
    signals an implementation bug, never a mathematical possibility.
    """
    p_value = fr_eval(p_invariant(m, n), theta)
    vanishing = vanishing_schur_elements(m, n, theta, index)
    semisimple = p_value != 0
    return SemisimplicityReport(
        p_value=p_value,
        semisimple=semisimple,
        vanishing=vanishing,
        agreement=(semisimple == (not vanishing)),
        field=theta.field_tag(),
    )


def random_specialization(
    m: int, n: int, rng: random.Random, prime: Optional[int] = None
) -> Specialization:
    """Draw one random specialization for criterion sweeps.

    Over the rationals the q values are integers in [-n, n], a box small
    enough that non-semisimple collisions are common; over F_p they are
    uniform residues.  p <= n makes n! vanish identically and every
    sample non-semisimple, so criterion sweeps should keep p > n.
    """
    if prime is None:
        values = {s: rng.randint(-n, n) for s in range(1, m + 1)}
    else:
        values = {s: rng.randrange(prime) for s in range(1, m + 1)}
    return Specialization(values, prime=prime)


def separation_failure_cases(
    m: int, n: int
) -> list[tuple[str, Specialization, Multipartition]]:
    """Targeted non-semisimple specializations with their witness multipartitions.

    One per way the separation polynomial can vanish: n! = 0 (prime
    characteristic <= n; witness has (n) in the first component), a
    vanishing factor k + q_s - q_t with 0 <= k < n (witness puts (n) in
    component s), and one with -n < k < 0 (witness puts (n) in
    component t).
    """
    cases: list[tuple[str, Specialization, Multipartition]] = []

    def witness(component: int) -> Multipartition:
        return tuple((n,) if s == component else () for s in range(1, m + 1))

    p = 2 if n >= 2 else None
    if p is not None:
        theta = Specialization({s: s % p for s in range(1, m + 1)}, prime=p)
        cases.append(("factorial", theta, witness(1)))
    if m >= 2:
        k = n - 1  # 0 <= k < n, theta(k + q_1 - q_2) = 0
        theta = Specialization({s: -k if s == 1 else 0 for s in range(1, m + 1)})
        cases.append(("nonnegative-offset", theta, witness(1)))
        k = -(n - 1) if n >= 2 else None  # -n < k < 0 needs n >= 2
        if k is not None:
            theta = Specialization({s: -k if s == 1 else 0 for s in range(1, m + 1)})
            cases.append(("negative-offset", theta, witness(2)))
    return cases
