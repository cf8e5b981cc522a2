"""Exact arithmetic for factored rational functions over the integers.

Every quantity this library computes is a rational constant times a
product of integer powers of linear forms c + v - w in the parameters
q_1..q_m and one extra indeterminate x.  Distinct canonical forms are
pairwise non-associate irreducibles, so the factored representation is
unique and equality is a dictionary comparison; no polynomial gcd is
ever needed.

Canonical orientation of a form:
  * at least one variable is present (pure constants fold into the
    ambient rational constant);
  * the positive slot is always occupied, and when both variables are
    present the positive one has the smaller rank (q_1 < q_2 < ... < x);
  * flipping an orientation multiplies the ambient constant by
    (-1)^exponent, never changes the form itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

X = "x"

FieldElement = Union[Fraction, int]


class PoleError(ArithmeticError):
    """A denominator vanished under a specialization."""


class NotAPolynomialError(ValueError):
    """Expansion was requested for a genuine quotient."""


class NonIntegerConstantError(NotAPolynomialError):
    """Expansion left a fractional coefficient behind."""


def qvar(s: int) -> str:
    """Name of the s-th parameter (1-based)."""
    if s < 1:
        raise ValueError(f"parameter index must be positive, got {s}")
    return f"q{s}"


def _rank(v: str) -> tuple[int, int]:
    if v == X:
        return (1, 0)
    return (0, int(v[1:]))


@dataclass(frozen=True)
class LinearForm:
    """Canonical linear form c + pos - neg; construct via canonical_parts."""

    c: int
    pos: str
    neg: Optional[str] = None

    def variables(self) -> tuple[str, ...]:
        return (self.pos,) if self.neg is None else (self.pos, self.neg)

    def sort_key(self) -> tuple:
        neg_rank = (2, 0) if self.neg is None else _rank(self.neg)
        return (_rank(self.pos), neg_rank, self.c)

    def render(self, latex: bool = False) -> str:
        def var(v: str) -> str:
            if latex and v != X:
                return f"q_{{{v[1:]}}}"
            return v

        body = var(self.pos)
        if self.neg is not None:
            body += f"-{var(self.neg)}"
        if self.c:
            body = f"{self.c}+{body}"
        return f"({body})"

    def to_json(self) -> dict:
        return {"c": self.c, "pos": self.pos, "neg": self.neg}


@cache
def canonical_parts(
    c: int, pos: Optional[str], neg: Optional[str], /
) -> tuple[Optional[LinearForm], int]:
    """Reduce c + pos - neg to canonical (form, sign), or (None, c) if constant.

    Memoized on the positional triple, and a flipped orientation is
    answered from its canonical triple, so every canonical form is one
    interned LinearForm.
    """
    if pos == neg:
        return None, c
    if pos is None or (neg is not None and _rank(neg) < _rank(pos)):
        return canonical_parts(-c, neg, pos)[0], -1
    return LinearForm(c, pos, neg), 1


class FactoredRational:
    """A rational constant times a product of LinearForm^exponent.

    Instances are immutable by convention; every operation returns a new
    value.  Two instances are equal iff their canonical data coincide,
    which for these factored products is the same as equality of the
    rational functions they denote.
    """

    __slots__ = ("constant", "factors")

    def __init__(self, constant: Fraction, factors: Mapping[LinearForm, int]):
        constant = Fraction(constant)
        if constant == 0:
            factors = {}
        self.constant = constant
        self.factors = dict(factors)

    @classmethod
    def one(cls) -> "FactoredRational":
        return cls(Fraction(1), {})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self.constant == other.constant and self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.constant, frozenset(self.factors.items())))

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        return ProductBuilder().fr(self).fr(other).build()

    def __truediv__(self, other: "FactoredRational") -> "FactoredRational":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero product")
        return ProductBuilder().fr(self).fr(other, exp=-1).build()

    def __pow__(self, k: int) -> "FactoredRational":
        return ProductBuilder().fr(self, exp=k).build()

    def __repr__(self) -> str:
        return f"FactoredRational({self.render()})"

    def is_zero(self) -> bool:
        return self.constant == 0

    def sorted_factors(self) -> list[tuple[LinearForm, int]]:
        """Factor list in the canonical order used by every renderer."""
        return sorted(self.factors.items(), key=lambda fe: fe[0].sort_key())

    def variables(self) -> list[str]:
        seen = {v for form in self.factors for v in form.variables()}
        return sorted(seen, key=_rank)

    def render(self, latex: bool = False) -> str:
        """Deterministic text form: constant prefix then canonical factors."""
        parts = []
        for form, exp in self.sorted_factors():
            s = form.render(latex=latex)
            if exp != 1:
                s += f"^{{{exp}}}" if latex else f"^{exp}"
            parts.append(s)
        body = "".join(parts)
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
            "factors": [[form.to_json(), exp] for form, exp in self.sorted_factors()],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "FactoredRational":
        b = ProductBuilder()
        b.const(Fraction(int(data["num"]), int(data["den"])))
        for form, exp in data["factors"]:
            b.form(int(form["c"]), form.get("pos"), form.get("neg"), exp=int(exp))
        return b.build()


class ProductBuilder:
    """Accumulates a canonical product of constants and linear-form powers.

    Occurrences are only tallied: form() adds its exponent under the raw
    triple (c, pos, neg) and const() multiplies an integer numerator and
    denominator.  build() canonicalizes each distinct triple once, so the
    cost of canonicalization and of the one Fraction reduction does not
    grow with the number of occurrences.
    """

    __slots__ = ("num", "den", "raw")

    def __init__(self) -> None:
        self.num = 1
        self.den = 1
        self.raw: dict[tuple[int, Optional[str], Optional[str]], int] = {}

    def const(self, value: Union[int, Fraction], exp: int = 1) -> "ProductBuilder":
        if exp == 0:
            return self
        if value == 0 and exp < 0:
            raise ZeroDivisionError("zero constant factor with negative exponent")
        if type(value) is int:
            num, den = value, 1
        else:
            value = Fraction(value)
            num, den = value.numerator, value.denominator
        if exp < 0:
            num, den, exp = den, num, -exp
        self.num *= num**exp
        self.den *= den**exp
        return self

    def form(
        self,
        c: int,
        pos: Optional[str] = None,
        neg: Optional[str] = None,
        exp: int = 1,
    ) -> "ProductBuilder":
        if exp == 0:
            return self
        if pos == neg:
            return self.const(c, exp)
        key = (c, pos, neg)
        raw = self.raw
        raw[key] = raw.get(key, 0) + exp
        return self

    def fr(self, value: FactoredRational, exp: int = 1) -> "ProductBuilder":
        if exp == 0:
            return self
        self.const(value.constant, exp)
        raw = self.raw
        for form, e in value.factors.items():
            key = (form.c, form.pos, form.neg)
            raw[key] = raw.get(key, 0) + e * exp
        return self

    def build(self) -> FactoredRational:
        num = self.num
        factors: dict[LinearForm, int] = {}
        for (c, pos, neg), exp in self.raw.items():
            if exp:
                form, sign = canonical_parts(c, pos, neg)
                if sign < 0 and exp % 2:
                    num = -num
                factors[form] = factors.get(form, 0) + exp
        if 0 in factors.values():  # both orientations of a form cancelled
            factors = {form: e for form, e in factors.items() if e}
        return FactoredRational(Fraction(num, self.den), factors)


def fr_const(value: Union[int, Fraction]) -> FactoredRational:
    return FactoredRational(Fraction(value), {})


def fr_form(
    c: int, pos: Optional[str] = None, neg: Optional[str] = None, exp: int = 1
) -> FactoredRational:
    return ProductBuilder().form(c, pos, neg, exp=exp).build()


def apply_permutation(sigma: Sequence[int], value: FactoredRational) -> FactoredRational:
    """Rename q_s -> q_{sigma(s)} and re-canonicalize; sigma is 1-based images."""
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 1..{len(sigma)}")

    def rename(v: Optional[str]) -> Optional[str]:
        if v is None or v == X:
            return v
        s = int(v[1:])
        if s > len(sigma):
            raise ValueError(f"{v} is beyond the permutation {tuple(sigma)} of 1..{len(sigma)}")
        return qvar(sigma[s - 1])

    b = ProductBuilder()
    b.const(value.constant)
    for form, exp in value.factors.items():
        b.form(form.c, rename(form.pos), rename(form.neg), exp=exp)
    return b.build()


def substitute_x(a: FactoredRational, s: int, t: int) -> FactoredRational:
    """Replace x by q_s - q_t in every factor.

    Only forms of the shape c + x can occur in the kernels this is
    applied to; a form mixing x with a parameter would need three
    variables after substitution and is rejected.
    """
    if s == t:
        raise ValueError("substitution x -> q_s - q_t needs distinct indices")
    b = ProductBuilder()
    b.const(a.constant)
    for form, exp in a.factors.items():
        if X not in form.variables():
            b.form(form.c, form.pos, form.neg, exp=exp)
        elif form.pos == X and form.neg is None:
            b.form(form.c, qvar(s), qvar(t), exp=exp)
        else:
            raise ValueError(
                f"substituting x in {form.render()} would create a three-variable form"
            )
    return b.build()


def negate_x(a: FactoredRational) -> FactoredRational:
    """Replace x by -x; defined for values whose x-factors are pure c + x."""
    b = ProductBuilder()
    b.const(a.constant)
    for form, exp in a.factors.items():
        if X not in form.variables():
            b.form(form.c, form.pos, form.neg, exp=exp)
        elif form.pos == X and form.neg is None:
            b.form(form.c, neg=X, exp=exp)
        else:
            raise ValueError(f"cannot negate x inside the mixed form {form.render()}")
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


class Specialization:
    """Assignment of field values to the parameters q_s (and optionally x).

    prime=None evaluates over the rationals; otherwise over the prime
    field F_p.  Values may be given as ints or Fractions; over F_p a
    fraction a/b becomes a * b^-1 mod p.  Criterion-style tests should
    keep p > n, since n! vanishes identically when p <= n.
    """

    def __init__(
        self,
        q_values: Mapping[int, Union[int, Fraction, str]],
        x_value: Union[int, Fraction, str, None] = None,
        prime: Optional[int] = None,
    ):
        if prime is not None and not _is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        self.prime = prime
        self.q_values = {int(s): self._coerce(v) for s, v in q_values.items()}
        self.x_value = None if x_value is None else self._coerce(x_value)

    def _coerce(self, v: Union[int, Fraction, str]) -> FieldElement:
        frac = Fraction(v)
        if self.prime is None:
            return frac
        if frac.denominator % self.prime == 0:
            raise PoleError(f"denominator of {frac} vanishes mod {self.prime}")
        return frac.numerator * pow(frac.denominator, -1, self.prime) % self.prime

    def field_tag(self) -> str:
        return "Q" if self.prime is None else f"Fp:{self.prime}"

    def value_of(self, var: str) -> FieldElement:
        if var == X:
            if self.x_value is None:
                raise ValueError("x is not assigned by this specialization")
            return self.x_value
        s = int(var[1:])
        if s not in self.q_values:
            raise ValueError(f"q{s} is not assigned by this specialization")
        return self.q_values[s]

    def eval_form(self, form: LinearForm) -> FieldElement:
        v = form.c + self.value_of(form.pos)
        if form.neg is not None:
            v -= self.value_of(form.neg)
        return v % self.prime if self.prime is not None else v

    def constant_value(self, constant: Fraction) -> FieldElement:
        return self._coerce(constant)


def fr_eval(a: FactoredRational, theta: Specialization) -> FieldElement:
    """Exact value of a under theta; raises PoleError on vanishing denominators."""
    values = [(theta.eval_form(form), exp) for form, exp in a.factors.items()]
    for v, exp in values:
        if exp < 0 and v == 0:
            raise PoleError("denominator factor evaluates to zero")
    result = theta.constant_value(a.constant)
    for v, exp in values:
        if theta.prime is None:
            result *= Fraction(v) ** exp
        else:
            result = result * pow(v, exp, theta.prime) % theta.prime
    return result


class SparsePoly:
    """Expanded integer-coefficient polynomial over a fixed variable tuple.

    It serves only as the result of fr_expand, in the expansion oracle
    trace_identity_sides, and as the difference polynomial in the
    mismatch record of verify --suite trace-identity.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], int]):
        self.variables = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            new = terms.get(e, 0) + c
            if new:
                terms[e] = new
            else:
                terms.pop(e, None)
        return SparsePoly(self.variables, terms)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(e, 0) + c1 * c2
                if new:
                    terms[e] = new
                else:
                    terms.pop(e, None)
        return SparsePoly(self.variables, terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def _exponent(self, var: str) -> tuple[int, ...]:
        idx = self.variables.index(var)
        return tuple(1 if i == idx else 0 for i in range(len(self.variables)))

    def _form_terms(self, form: LinearForm) -> dict[tuple[int, ...], int]:
        terms: dict[tuple[int, ...], int] = {}
        terms[self._exponent(form.pos)] = 1
        if form.neg is not None:
            terms[self._exponent(form.neg)] = -1
        if form.c:
            zero = (0,) * len(self.variables)
            terms[zero] = terms.get(zero, 0) + form.c
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
                    f"{form.render()} does not divide the numerator exactly"
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
        return SparsePoly(self.variables, q)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Graded-lex order, leading term first."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def to_json(self) -> list:
        return [[list(e), str(c)] for e, c in self.sorted_terms()]

    def render(self, latex: bool = False) -> str:
        if not self.terms:
            return "0"

        def var(v: str) -> str:
            if latex and v != X:
                return f"q_{{{v[1:]}}}"
            return v

        chunks = []
        for e, c in self.sorted_terms():
            powers = []
            for v, k in zip(self.variables, e):
                if not k:
                    continue
                if k == 1:
                    powers.append(var(v))
                else:
                    powers.append(f"{var(v)}^{{{k}}}" if latex else f"{var(v)}^{k}")
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


def fr_expand(
    a: FactoredRational, variables: Optional[Sequence[str]] = None
) -> SparsePoly:
    """Expand a factored value into a SparsePoly with integer coefficients.

    A value with a negative exponent is rejected at once: its forms are
    pairwise non-associate irreducibles, so no form of the denominator
    divides the numerator.  The positive-exponent factors are multiplied
    out, and the rational constant must leave every coefficient integral.

    A monomial is packed into one int whose base-B digit i, with
    B = total positive degree + 1, is the exponent of variables[i]; no
    digit can carry, so multiplying by c + pos - neg is one shift-add.
    """
    if variables is None:
        variables = a.variables()
    variables = tuple(variables)
    missing = set(a.variables()) - set(variables)
    if missing:
        raise ValueError(f"{sorted(missing)} are not among the variables {variables}")
    factors = a.sorted_factors()
    for form, exp in factors:
        if exp < 0:
            raise NotAPolynomialError(f"{form.render()} does not divide the numerator exactly")
    base = 1 + sum(exp for _, exp in factors)
    units = [base**i for i in range(len(variables))]
    unit = dict(zip(variables, units))
    packed = {0: 1}
    for form, exp in factors:
        c, up = form.c, unit[form.pos]
        un = 0 if form.neg is None else unit[form.neg]
        for _ in range(exp):
            new = {k: c * v for k, v in packed.items()} if c else {}
            get = new.get
            for k, v in packed.items():
                k1 = k + up
                new[k1] = get(k1, 0) + v
                if un:
                    k2 = k + un
                    new[k2] = get(k2, 0) - v
            packed = new
    num, den = a.constant.numerator, a.constant.denominator
    scaled: dict[tuple[int, ...], int] = {}
    for k, v in packed.items():
        if not v:
            continue
        q, r = divmod(v * num, den)
        if r:
            raise NonIntegerConstantError(
                f"constant {a.constant} leaves non-integer coefficient {Fraction(v * num, den)}"
            )
        scaled[tuple([k // u % base for u in units])] = q
    return SparsePoly(variables, scaled)
