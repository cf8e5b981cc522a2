"""Exact arithmetic for factored rational functions over the integers.

Every quantity this library computes is a rational constant times a
product of integer powers of linear forms c + q_s - q_t in the
parameters q_1..q_m.  Distinct canonical forms are pairwise
non-associate irreducibles, so the factored representation is unique
and equality is a dictionary comparison; no polynomial gcd is ever
needed.

A form is the plain int triple (s, t, c), canonical when 1 <= s < t;
tuple order is the order every renderer lists factors in.  Flipping an
orientation multiplies the ambient constant by (-1)^exponent.
Forms with s == t are constants and fold into the ambient constant.
Parameters are ints everywhere; the names "q<i>" appear only in
rendering, in the JSON encoding and in parsing.
"""

from __future__ import annotations

import json
import re
import sys
from functools import cache
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence, Union

FieldElement = Union[Fraction, int]


class PoleError(ArithmeticError):
    """A denominator vanished under a specialization."""


class NotAPolynomialError(ValueError):
    """Expansion was requested for a genuine quotient."""


class NonIntegerConstantError(NotAPolynomialError):
    """Expansion left a fractional coefficient behind."""


@cache
def qvar(s: int) -> str:
    """Name of the s-th parameter (1-based); one shared string per index."""
    if s < 1:
        raise ValueError(f"parameter index must be positive, got {s}")
    return f"q{s}"


def qindex(name: str) -> int:
    """The index s of the parameter name "q<s>"; ValueError for any other name."""
    if not isinstance(name, str) or not re.fullmatch(r"q[1-9][0-9]*", name):
        raise ValueError(f"{name!r} is not a parameter name q<i> with i >= 1")
    return int(name[1:])


LinearForm = tuple[int, int, int]  # (s, t, c): c + q_s - q_t


@cache
def _factor_text(form: LinearForm, exp: int, latex: bool) -> str:
    """One factor of FactoredRational.render: the form, then ^exp unless exp == 1.

    At exp 1, not latex, it is the form's own text, which error messages name.
    """
    s, t, c = form
    body = f"q_{{{s}}}-q_{{{t}}}" if latex else f"q{s}-q{t}"
    text = f"({c}+{body})" if c else f"({body})"
    if exp != 1:
        text += f"^{{{exp}}}" if latex else f"^{exp}"
    return text


@cache
def _factor_json(form: LinearForm, exp: int) -> str:
    """json.dumps of one entry [{"c", "pos", "neg"}, exp] of FactoredRational.to_json's
    "factors": the form's constant and the names of q_s and q_t, then the exponent."""
    s, t, c = form
    return json.dumps([{"c": c, "pos": qvar(s), "neg": qvar(t)}, exp])


def canonical_parts(c: int, s: int, t: int, /) -> tuple[Optional[LinearForm], int]:
    """Reduce c + q_s - q_t to canonical (form, sign), or (None, c) if s == t."""
    if s < 1 or t < 1:
        raise ValueError(f"parameter indices must be positive, got q{s} and q{t}")
    if s == t:
        return None, c
    if s > t:
        return (t, s, -c), -1
    return (s, t, c), 1


class FactoredRational:
    """A rational constant times a product of linear forms (s, t, c) to exponents.

    The invariant, which the constructor and _merge keep: no exponent is
    0, and a zero constant has no factors.  Given canonical form keys, the
    value is then canonical, so two instances are equal iff their data
    coincide, which for these factored products is the same as equality
    of the rational functions they denote.  Instances are
    immutable by convention; every operation returns a new value.
    """

    __slots__ = ("constant", "factors")

    def __init__(self, constant: Fraction, factors: Mapping[LinearForm, int]):
        if type(constant) is not Fraction:
            constant = Fraction(constant)
        self.constant = constant
        self.factors = dict(factors) if constant else {}
        if 0 in self.factors.values():
            self.factors = {form: exp for form, exp in self.factors.items() if exp}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self.constant == other.constant and self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.constant, frozenset(self.factors.items())))

    def _merge(self, other: "FactoredRational", k: int) -> "FactoredRational":
        """self * other**k for k = +-1, canonical as built, so it skips the constructor."""
        factors = dict(self.factors)
        get = factors.get
        for form, exp in other.factors.items():
            if e := get(form, 0) + k * exp:
                factors[form] = e
            else:
                del factors[form]
        merged = object.__new__(FactoredRational)
        merged.constant = self.constant * other.constant**k
        merged.factors = factors if merged.constant else {}
        return merged

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        return self._merge(other, 1) if isinstance(other, FactoredRational) else NotImplemented

    def __truediv__(self, other: "FactoredRational") -> "FactoredRational":
        return self._merge(other, -1) if isinstance(other, FactoredRational) else NotImplemented

    def __pow__(self, k: int) -> "FactoredRational":
        if not isinstance(k, int):
            return NotImplemented
        return FactoredRational(self.constant**k, {form: e * k for form, e in self.factors.items()})

    def __repr__(self) -> str:
        return f"FactoredRational({self.render()})"

    def sorted_factors(self) -> list[tuple[LinearForm, int]]:
        """Factor list in the canonical order used by every renderer."""
        return sorted(self.factors.items())

    def render(self, latex: bool = False) -> str:
        """Deterministic text form: constant prefix then canonical factors."""
        body = "".join([_factor_text(form, exp, latex) for form, exp in self.sorted_factors()])
        if not body:
            return str(self.constant)
        if self.constant == 1:
            return body
        if self.constant == -1:
            return "-" + body
        return f"{self.constant}*{body}"

    def to_json(self) -> dict:
        return {
            "num": str(self.constant.numerator),
            "den": str(self.constant.denominator),
            "factors": [
                [{"c": c, "pos": qvar(s), "neg": qvar(t)}, exp]
                for (s, t, c), exp in self.sorted_factors()
            ],
        }

    def json_text(self) -> str:
        """json.dumps(self.to_json()), joined from memoized per-factor text.

        The schur and pinv commands print this instead of dumping a payload of
        thousands of small dicts.
        """
        factors = ", ".join([_factor_json(form, exp) for form, exp in self.sorted_factors()])
        num, den = self.constant.numerator, self.constant.denominator
        return f'{{"num": "{num}", "den": "{den}", "factors": [{factors}]}}'

    @classmethod
    def from_json(cls, data: Mapping) -> "FactoredRational":
        """Inverse of to_json; ValueError on a malformed encoding."""
        b = ProductBuilder()
        try:
            b.const(Fraction(int(data["num"]), int(data["den"])))
            for form, exp in data["factors"]:
                b.form(int(form["c"]), qindex(form["pos"]), qindex(form["neg"]), exp=int(exp))
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed factored value: {exc!r}") from exc
        return b.build()


class ProductBuilder:
    """Turns raw (c, s, t, exp) triples into a canonical value.

    Its users are fr_form, apply_permutation, FactoredRational.from_json
    and schur.verify_mu_identity.  form() canonicalizes at the call,
    flips the sign for an odd exponent on a flipped orientation and adds
    the exponent under the canonical (s, t, c); a form with s == t is a
    constant and folds in at once, so form(0, 1, 1, exp=-1) raises
    ZeroDivisionError at the call.  const() multiplies the one Fraction
    constant by value**exp.  build() leaves the builder unchanged; the
    constructor drops the cancelled exponents.
    """

    __slots__ = ("constant", "factors")

    def __init__(self) -> None:
        self.constant = Fraction(1)
        self.factors: dict[LinearForm, int] = {}

    def const(self, value: Union[int, Fraction], exp: int = 1) -> "ProductBuilder":
        self.constant *= Fraction(value) ** exp
        return self

    def form(self, c: int, s: int, t: int, exp: int = 1) -> "ProductBuilder":
        """Multiply by (c + q_s - q_t)^exp."""
        if s == t:
            return self.const(c, exp)
        form, sign = canonical_parts(c, s, t)
        if sign < 0 and exp % 2:
            self.constant = -self.constant
        self.factors[form] = self.factors.get(form, 0) + exp
        return self

    def build(self) -> FactoredRational:
        return FactoredRational(self.constant, self.factors)


def fr_const(value: Union[int, Fraction]) -> FactoredRational:
    return FactoredRational(Fraction(value), {})


def fr_form(c: int, s: int, t: int, exp: int = 1) -> FactoredRational:
    """The value (c + q_s - q_t)^exp."""
    return ProductBuilder().form(c, s, t, exp=exp).build()


def apply_permutation(sigma: Sequence[int], value: FactoredRational) -> FactoredRational:
    """Rename q_s -> q_{sigma(s)} and re-canonicalize; sigma is 1-based images."""
    m = len(sigma)
    if sorted(sigma) != list(range(1, m + 1)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 1..{m}")
    b = ProductBuilder()
    b.const(value.constant)
    for (s, t, c), exp in value.factors.items():
        if t > m:  # t is the larger index of a canonical form
            raise ValueError(f"q{t} is beyond the permutation {tuple(sigma)} of 1..{m}")
        b.form(c, sigma[s - 1], sigma[t - 1], exp=exp)
    return b.build()


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster 2015); larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality for p < MAX_MODULUS; ValueError beyond it."""
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus {p} is too large: primality is decided only below {MAX_MODULUS}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def rational_from_text(text: str) -> Fraction:
    """The rational number that text denotes, as Fraction reads it; ValueError otherwise.

    Fraction's grammar grew "_" between digits in Python 3.11 and spaces around "/"
    in 3.12, so both are refused here and every supported Python reads 3.10's: an
    optional sign, then an integer, a fraction a/b or a decimal with an optional
    exponent, with white space only at the ends.  Fraction writes out 10^exponent
    for a decimal exponent, so the exponent is first held to the interpreter's
    integer digit limit, sys.get_int_max_str_digits().
    """
    if "_" in text or len(text.split()) > 1:
        raise ValueError("not a rational value")
    try:
        exponent = abs(int(text.lower().partition("e")[2] or 0))
    except ValueError:
        exponent = 0  # not a decimal exponent: Fraction refuses the text below
    limit = sys.get_int_max_str_digits()
    if limit and exponent > limit:
        raise ValueError(f"decimal exponent above the {limit}-digit limit")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("not a rational value") from None


class Specialization:
    """Assignment of field values to the parameters q_s.

    prime=None evaluates over the rationals; otherwise over the prime
    field F_p.  Values may be given as ints, Fractions or text, which
    rational_from_text reads; over F_p a fraction a/b becomes a * b^-1
    mod p.  Criterion-style tests should keep p > n, since n! vanishes
    identically when p <= n.
    """

    def __init__(
        self,
        q_values: Mapping[int, Union[int, Fraction, str]],
        prime: Optional[int] = None,
    ):
        if prime is not None and not _is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        self.prime = prime
        self.q_values = {int(s): self.constant_value(v) for s, v in q_values.items()}

    def constant_value(self, v: Union[int, Fraction, str]) -> FieldElement:
        """v as an element of the field: a Fraction over Q, a residue mod p over F_p."""
        frac = rational_from_text(v) if isinstance(v, str) else Fraction(v)
        if self.prime is None:
            return frac
        if frac.denominator % self.prime == 0:
            raise PoleError(f"denominator of {frac} vanishes mod {self.prime}")
        return frac.numerator * pow(frac.denominator, -1, self.prime) % self.prime

    def field_tag(self) -> str:
        return "Q" if self.prime is None else f"Fp:{self.prime}"

    def value_of(self, s: int) -> FieldElement:
        if s not in self.q_values:
            raise ValueError(f"q{s} is not assigned by this specialization")
        return self.q_values[s]


def fr_eval(a: FactoredRational, theta: Specialization) -> FieldElement:
    """Exact value of a under theta; raises PoleError on vanishing denominators.

    Over Q the q_s share one denominator d, z_s = q_s * d, so a form is
    (c*d + z_s - z_t) / d: the factors multiply as ints, and one Fraction
    is built at the end, with d to the power of the exponent sum.
    """
    if theta.prime is not None:
        p, value = theta.prime, theta.value_of
        values = [((c + value(s) - value(t)) % p, exp) for (s, t, c), exp in a.factors.items()]
        for v, exp in values:
            if exp < 0 and v == 0:
                raise PoleError("denominator factor evaluates to zero")
        result = theta.constant_value(a.constant)
        for v, exp in values:
            result = result * pow(v, exp, p) % p
        return result
    d = lcm(*(v.denominator for v in theta.q_values.values()))
    z = {s: v.numerator * (d // v.denominator) for s, v in theta.q_values.items()}
    num, den = a.constant.numerator, a.constant.denominator
    degree = 0
    for (s, t, c), exp in a.factors.items():
        if s not in z or t not in z:
            theta.value_of(s if t in z else t)  # raises: the parameter is not assigned
        v = c * d + z[s] - z[t]
        if exp >= 0:
            num *= v**exp
        elif v:
            den *= v**-exp
        else:
            raise PoleError("denominator factor evaluates to zero")
        degree += exp
    return Fraction(num, den * d**degree) if degree >= 0 else Fraction(num * d**-degree, den)


class SparsePoly:
    """Expanded integer-coefficient polynomial in q_1..q_m.

    It serves only as the result of fr_expand and as the trace-identity
    numerator that trace_identity_sides returns, which is also the
    difference polynomial in the mismatch record of verify --suite
    trace-identity.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Mapping[tuple[int, ...], int]):
        self.m = m
        self.terms = {e: c for e, c in terms.items() if c}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return SparsePoly(self.m, terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def _exponent(self, s: int) -> tuple[int, ...]:
        return tuple(1 if i == s else 0 for i in range(1, self.m + 1))

    def _form_terms(self, form: LinearForm) -> dict[tuple[int, ...], int]:
        s, t, c = form
        terms = {self._exponent(s): 1, self._exponent(t): -1}
        if c:
            terms[(0,) * self.m] = c
        return terms

    def div_form_exact(self, form: LinearForm) -> "SparsePoly":
        """Exact division by a linear form; raises NotAPolynomialError on remainder.

        Uses the one-divisor division algorithm in graded-lex order; the
        divisor's leading coefficient is always +-1, so quotients stay
        integral.
        """
        f_terms = self._form_terms(form)
        key = lambda e: (sum(e), e)
        lt_f = max(f_terms, key=key)
        cf = f_terms[lt_f]
        p = dict(self.terms)
        q: dict[tuple[int, ...], int] = {}
        while p:
            lt = max(p, key=key)
            if any(a < b for a, b in zip(lt, lt_f)):
                raise NotAPolynomialError(
                    f"{_factor_text(form, 1, False)} does not divide the numerator exactly"
                )
            qe = tuple(a - b for a, b in zip(lt, lt_f))
            qc = p[lt] // cf
            q[qe] = qc
            for fe, fc in f_terms.items():
                e = tuple(a + b for a, b in zip(qe, fe))
                new = p.get(e, 0) - qc * fc
                if new:
                    p[e] = new
                else:
                    p.pop(e, None)
        return SparsePoly(self.m, q)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Graded-lex order, leading term first."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def to_json(self) -> list:
        return [[list(e), str(c)] for e, c in self.sorted_terms()]

    def render(self, latex: bool = False) -> str:
        if not self.terms:
            return "0"

        chunks = []
        for e, c in self.sorted_terms():
            powers = []
            for s, k in enumerate(e, 1):
                if not k:
                    continue
                var = f"q_{{{s}}}" if latex else qvar(s)
                if k == 1:
                    powers.append(var)
                else:
                    powers.append(f"{var}^{{{k}}}" if latex else f"{var}^{k}")
            mono = ("" if latex else "*").join(powers)
            if not mono:
                chunks.append(f"{c:+d}")
            elif c == 1:
                chunks.append(f"+{mono}")
            elif c == -1:
                chunks.append(f"-{mono}")
            else:
                sep = "" if latex else "*"
                chunks.append(f"{c:+d}{sep}{mono}")
        out = "".join(chunks)
        return out[1:] if out.startswith("+") else out


def fr_expand(a: FactoredRational, m: int) -> SparsePoly:
    """Expand a factored value into a SparsePoly in q_1..q_m with integer coefficients.

    A value with a negative exponent is rejected at once: its forms are
    pairwise non-associate irreducibles, so no form of the denominator
    divides the numerator.  So is a fractional constant: every form
    c + q_s - q_t is primitive, so by Gauss's lemma the product of forms
    is primitive and the value is integral iff its constant is.  The
    factors are then multiplied out and scaled by the integer constant.

    A monomial is packed into one int whose base-B digit i, with
    B = total positive degree + 1, is the exponent of q_(i+1); no digit
    can carry, so multiplying by c + q_s - q_t is one shift-add: each
    coefficient v at key k adds c*v at k, v at k + B^(s-1) and -v at
    k + B^(t-1).  The keys are unpacked once, after the last factor, as
    the integer constant is applied.
    """
    beyond = max((t for _, t, _ in a.factors), default=0)
    if beyond > m:
        raise ValueError(f"q{beyond} is beyond the variables q1..q{m}")
    factors = a.sorted_factors()
    for form, exp in factors:
        if exp < 0:
            raise NotAPolynomialError(
                f"{_factor_text(form, 1, False)} does not divide the numerator exactly"
            )
    if a.constant.denominator != 1:
        raise NonIntegerConstantError(f"constant {a.constant} is not an integer")
    base = 1 + sum(exp for _, exp in factors)
    units = [base**i for i in range(m)]
    packed = {0: 1}
    for (s, t, c), exp in factors:
        up, un = units[s - 1], units[t - 1]
        for _ in range(exp):
            new = {k: c * v for k, v in packed.items()} if c else {}
            get = new.get
            for k, v in packed.items():
                k1 = k + up
                new[k1] = get(k1, 0) + v
                k2 = k + un
                new[k2] = get(k2, 0) - v
            packed = new
    num = a.constant.numerator
    return SparsePoly(m, {tuple([k // u % base for u in units]): num * v for k, v in packed.items()})
