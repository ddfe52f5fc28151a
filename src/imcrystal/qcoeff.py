"""Exact arithmetic in the coefficient ring.

Coefficients are rational functions in ``s = q^(1/2)`` over the rationals,
extended by Laurent powers of a formal central ``gamma^(1/2)``.  Every
nonzero rational function is stored q-adically as

    scale * s^shift * num(s) / den(s)

where ``scale`` is a nonzero rational, ``shift`` counts half powers of q,
and ``num``/``den`` are coprime primitive integer polynomials with nonzero
constant term and positive leading coefficient.  This form is unique, so
equality of values is equality of tuples, and ``shift`` is exactly the
q-adic valuation (in half units) used for regularity-at-zero tests.

Exponents of both q and gamma are always counted in half units: ``q**2``
has half-exponent 4, ``gamma**(1/2)`` has half-exponent 1.

Every value the verification suites produce is a Laurent polynomial
(``den == (1,)``), and three invariants let sums, products and quotients
of such values skip the general normalisation in ``_canon``:

* Gauss's lemma: a product of primitive integer polynomials is primitive.
  Two canonical ``num`` tuples also have positive leading coefficients and
  nonzero constant terms, so their product is again a canonical ``num``.
* Exact integer division: if a primitive ``b`` divides a primitive ``a``
  over the rationals, the quotient is a primitive integer polynomial (with
  positive leading coefficient and nonzero constant term when ``a`` and
  ``b`` have them).  So long division in the integers, which stops at the
  first inexact step or nonzero remainder, either yields the canonical
  ``num`` of the quotient or shows the quotient is not Laurent; only then
  does the gcd-based path run.
* Content and sign: a sum of two Laurent values, written over the common
  denominator of their scales as one integer polynomial, has no
  denominator to cancel.  Dropping its zero end coefficients into
  ``shift`` and dividing out its content, negated when the top
  coefficient is negative, leaves the canonical ``num``; ``scale`` is
  that content over the common denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Union

Rational = Union[int, Fraction]


class CoefficientError(ArithmeticError):
    """Raised for invalid coefficient operations (poles, bad divisors)."""


# ---------------------------------------------------------------------------
# integer polynomials in s, ascending coefficient tuples, () is zero


def _ptrim(p: Iterable[int]) -> tuple[int, ...]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two polynomials given without trailing zeros."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return ()
    if len(a) == 1:
        x = a[0]
        return b if x == 1 else tuple([x * y for y in b])
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return tuple(out)


def _pquo(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    """Quotient a/b in the integer polynomials, or None if b does not
    divide a there; operands are given without trailing zeros."""
    if b == (1,):
        return a
    n = len(a) - len(b) + 1
    if n < 1:
        return None
    rem = list(a)
    lead = b[-1]
    out = [0] * n
    for i in range(n - 1, -1, -1):
        c, r = divmod(rem[i + len(b) - 1], lead)
        if r:
            return None
        if c:
            out[i] = c
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    if any(rem[: len(b) - 1]):
        return None
    return tuple(out)


def _pgcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive gcd with positive leading coefficient."""
    fa = [Fraction(x) for x in a]
    fb = [Fraction(x) for x in b]
    while fb:
        # fa mod fb over the rationals
        while len(fa) >= len(fb):
            c = fa[-1] / fb[-1]
            off = len(fa) - len(fb)
            for j, y in enumerate(fb):
                fa[off + j] -= c * y
            while fa and fa[-1] == 0:
                fa.pop()
            if not fa:
                break
        fa, fb = fb, fa
    lcm = math.lcm(*(x.denominator for x in fa))
    ints = _ptrim(int(x * lcm) for x in fa)
    c = math.gcd(*ints)
    if ints[-1] < 0:
        c = -c
    return tuple(x // c for x in ints)


# ---------------------------------------------------------------------------
# QRat: one rational function in s


@dataclass(frozen=True)
class QRat:
    """Canonical rational function in s = q^(1/2); see module docstring."""

    scale: Fraction
    shift: int
    num: tuple[int, ...]
    den: tuple[int, ...]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> QRat:
        return _QRAT_ZERO

    @staticmethod
    def one() -> QRat:
        return _QRAT_ONE

    @staticmethod
    def rational(x: Rational) -> QRat:
        return _canon(Fraction(x), 0, (1,), (1,))

    @staticmethod
    def q_power(halfexp: int) -> QRat:
        """q^(halfexp/2), e.g. q_power(4) is q**2."""
        return _canon(Fraction(1), halfexp, (1,), (1,))

    @staticmethod
    def from_laurent(terms: dict[int, Rational]) -> QRat:
        """Laurent polynomial given as {half-exponent: rational coefficient}."""
        nonzero = {e: Fraction(c) for e, c in terms.items() if c}
        if not nonzero:
            return _QRAT_ZERO
        shift = min(nonzero)
        coeffs = [Fraction(0)] * (max(nonzero) - shift + 1)
        for e, c in nonzero.items():
            coeffs[e - shift] = c
        return _canon_frac(coeffs, (1,), shift)

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.scale == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> QRat:
        if self.is_zero:
            return self
        return QRat(-self.scale, self.shift, self.num, self.den)

    def __add__(self, other: QRat) -> QRat:
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        shift = min(self.shift, other.shift)
        if self.den == (1,) and other.den == (1,):
            # Laurent fast path: combine over a common integer denominator
            qa, qb = self.scale.denominator, other.scale.denominator
            lcm = math.lcm(qa, qb)
            a = self.scale.numerator * (lcm // qa)
            b = other.scale.numerator * (lcm // qb)
            size = max(
                len(self.num) + self.shift - shift, len(other.num) + other.shift - shift
            )
            coeffs = [0] * size
            for i, c in enumerate(self.num):
                coeffs[i + self.shift - shift] += a * c
            for i, c in enumerate(other.num):
                coeffs[i + other.shift - shift] += b * c
            # canonical by content and sign alone (module docstring)
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            if not coeffs:
                return _QRAT_ZERO
            lead = 0
            while not coeffs[lead]:
                lead += 1
            c = math.gcd(*coeffs)
            if coeffs[-1] < 0:
                c = -c
            num = tuple(coeffs[lead:]) if c == 1 else tuple([x // c for x in coeffs[lead:]])
            return QRat(Fraction(c, lcm), shift + lead, num, (1,))
        n1 = [self.scale * c for c in _pmul(self.num, other.den)]
        n2 = [other.scale * c for c in _pmul(other.num, self.den)]
        coeffs = [Fraction(0)] * max(len(n1) + self.shift - shift, len(n2) + other.shift - shift)
        for i, c in enumerate(n1):
            coeffs[i + self.shift - shift] += c
        for i, c in enumerate(n2):
            coeffs[i + other.shift - shift] += c
        return _canon_frac(coeffs, _pmul(self.den, other.den), shift)

    def __sub__(self, other: QRat) -> QRat:
        return self + (-other)

    def __mul__(self, other: QRat) -> QRat:
        if self is _QRAT_ONE:
            return other
        if other is _QRAT_ONE:
            return self
        if not self.scale or not other.scale:
            return _QRAT_ZERO
        if self.den == (1,) and other.den == (1,):
            # canonical as it stands, by Gauss's lemma (module docstring)
            return QRat(
                self.scale * other.scale,
                self.shift + other.shift,
                _pmul(self.num, other.num),
                (1,),
            )
        return _canon(
            self.scale * other.scale,
            self.shift + other.shift,
            _pmul(self.num, other.num),
            _pmul(self.den, other.den),
        )

    def __truediv__(self, other: QRat) -> QRat:
        if other.is_zero:
            raise CoefficientError("division by zero")
        if self.is_zero:
            return _QRAT_ZERO
        if self.den == (1,) and other.den == (1,):
            num = _pquo(self.num, other.num)
            if num is not None:
                # canonical as it stands, by exact division (module docstring)
                return QRat(self.scale / other.scale, self.shift - other.shift, num, (1,))
        return _canon(
            self.scale / other.scale,
            self.shift - other.shift,
            _pmul(self.num, other.den),
            _pmul(self.den, other.num),
        )

    def __pow__(self, n: int) -> QRat:
        if n < 0:
            return _QRAT_ONE / self ** (-n)
        out = _QRAT_ONE
        for _ in range(n):
            out = out * self
        return out

    # -- inspection ----------------------------------------------------------

    def valuation(self) -> int | float:
        """q-adic valuation in half units; +inf for zero."""
        return math.inf if self.is_zero else self.shift

    def at_zero(self) -> Fraction:
        """Value at q = 0; requires regularity at 0."""
        if self.is_zero or self.shift > 0:
            return Fraction(0)
        if self.shift < 0:
            raise CoefficientError("pole at q = 0")
        return self.scale * self.num[0] / self.den[0]


_QRAT_ZERO = QRat(Fraction(0), 0, (1,), (1,))
_QRAT_ONE = QRat(Fraction(1), 0, (1,), (1,))


def _canon(scale: Fraction, shift: int, num: tuple[int, ...], den: tuple[int, ...]) -> QRat:
    num = _ptrim(num)
    den = _ptrim(den)
    if not den:
        raise CoefficientError("division by zero")
    if not num or scale == 0:
        return _QRAT_ZERO
    while num[0] == 0:
        num = num[1:]
        shift += 1
    while den[0] == 0:
        den = den[1:]
        shift -= 1
    cn = math.gcd(*num)
    if num[-1] < 0:
        cn = -cn
    if cn != 1:
        scale *= cn
        num = tuple(x // cn for x in num)
    cd = math.gcd(*den)
    if den[-1] < 0:
        cd = -cd
    if cd != 1:
        scale /= cd
        den = tuple(x // cd for x in den)
    if den != (1,) and num != (1,):
        g = _pgcd(num, den)
        if g != (1,):
            # exact, primitive and with positive leading terms, by Gauss's lemma
            num = _pquo(num, g)
            den = _pquo(den, g)
    return QRat(scale, shift, num, den)


def _canon_frac(coeffs: list[Fraction], den: tuple[int, ...], shift: int) -> QRat:
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return _canon(Fraction(1, lcm), shift, _ptrim(int(c * lcm) for c in coeffs), den)


# ---------------------------------------------------------------------------
# named values


@lru_cache(maxsize=None)
def quantum_int(n: int) -> QRat:
    """[n] = (q^n - q^-n)/(q - q^-1) in closed Laurent form."""
    if n == 0:
        return QRat.zero()
    if n < 0:
        return -quantum_int(-n)
    # q^(1-n) + q^(3-n) + ... + q^(n-1): unit coefficients, canonical as built
    return QRat(Fraction(1), -2 * (n - 1), (1, 0, 0, 0) * (n - 1) + (1,), (1,))


@lru_cache(maxsize=None)
def g_coeff(r: int) -> QRat:
    """Structure coefficients of the annihilation-operator recursion:
    g(0) = q^2 and g(r) = (q^4 - 1) q^(2(r-1)) for r > 0."""
    if r < 0:
        raise ValueError("g_coeff needs r >= 0")
    if r == 0:
        return QRat.q_power(4)
    return QRat.from_laurent({4 * r + 4: 1, 4 * r - 4: -1})


@lru_cache(maxsize=None)
def g_coeff_bar(r: int) -> QRat:
    """Image of g_coeff under q -> 1/q; the inverse power series, so that
    sum over r of g_coeff(r) * g_coeff_bar(N - r) is 1 for N = 0 and 0
    otherwise.  This expansion drives the phi-side operators."""
    if r < 0:
        raise ValueError("g_coeff_bar needs r >= 0")
    if r == 0:
        return QRat.q_power(-4)
    return QRat.from_laurent({-4 * r - 4: 1, -4 * r + 4: -1})


Q_DIFF = QRat.from_laurent({2: 1, -2: -1})  # q - q^-1


# ---------------------------------------------------------------------------
# Coeff: Laurent combination of QRat values over powers of gamma^(1/2)


class Coeff:
    """Finite sum of QRat coefficients weighted by powers of gamma^(1/2).

    Keys of the internal map are gamma half-exponents.  Values never store
    a zero QRat.  Treated as immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, QRat] | None = None):
        self._terms = {g: r for g, r in (terms or {}).items() if not r.is_zero}

    @staticmethod
    def _of(terms: dict[int, QRat]) -> Coeff:
        """Wrap a map already free of zero values, without copying it."""
        out = Coeff.__new__(Coeff)
        out._terms = terms
        return out

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> Coeff:
        return Coeff()

    @staticmethod
    def one() -> Coeff:
        return Coeff({0: QRat.one()})

    @staticmethod
    def rational(x: Rational) -> Coeff:
        return Coeff({0: QRat.rational(x)})

    @staticmethod
    def q_power(halfexp: int) -> Coeff:
        return Coeff({0: QRat.q_power(halfexp)})

    @staticmethod
    def gamma_power(halfexp: int) -> Coeff:
        return Coeff({halfexp: QRat.one()})

    @staticmethod
    def from_qrat(r: QRat, gamma_halfexp: int = 0) -> Coeff:
        return Coeff({gamma_halfexp: r})

    @staticmethod
    def quantum(n: int) -> Coeff:
        return Coeff.from_qrat(quantum_int(n))

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coeff):
            return NotImplemented
        return self._terms == other._terms

    def items(self) -> Iterator[tuple[int, QRat]]:
        return iter(sorted(self._terms.items()))

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> Coeff:
        return Coeff._of({g: -r for g, r in self._terms.items()})

    def __add__(self, other: Coeff) -> Coeff:
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for g, r in other._terms.items():
            s = out[g] + r if g in out else r
            if s.is_zero:
                del out[g]
            else:
                out[g] = s
        return Coeff._of(out)

    def __sub__(self, other: Coeff) -> Coeff:
        return self + (-other)

    def __mul__(self, other: Coeff | QRat | Rational) -> Coeff:
        if not isinstance(other, Coeff):
            other = Coeff.from_qrat(other) if isinstance(other, QRat) else Coeff.rational(other)
        a, b = self._terms, other._terms
        if len(a) == 1 and len(b) == 1:
            # one gamma term each: a single product, nonzero as both factors are
            (g1, r1), = a.items()
            (g2, r2), = b.items()
            # the unit returns the other operand, as in QRat.__mul__
            if not g1 and r1 is _QRAT_ONE:
                return other
            if not g2 and r2 is _QRAT_ONE:
                return self
            return Coeff._of({g1 + g2: r1 * r2})
        out: dict[int, QRat] = {}
        for g1, r1 in a.items():
            for g2, r2 in b.items():
                g = g1 + g2
                s = out[g] + r1 * r2 if g in out else r1 * r2
                if s.is_zero:
                    del out[g]
                else:
                    out[g] = s
        return Coeff._of(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Coeff | QRat | Rational) -> Coeff:
        if isinstance(other, (int, Fraction)):
            other = Coeff.rational(other)
        elif isinstance(other, QRat):
            other = Coeff.from_qrat(other)
        if other.is_zero:
            raise CoefficientError("division by zero")
        if len(other._terms) != 1:
            raise CoefficientError("division only by gamma-homogeneous values")
        (g0, r0), = other._terms.items()
        return Coeff._of({g - g0: r / r0 for g, r in self._terms.items()})

    # -- inspection ----------------------------------------------------------

    def valuation(self) -> int | float:
        """Minimum q-adic valuation over gamma terms; +inf for zero."""
        if self.is_zero:
            return math.inf
        return min(r.shift for r in self._terms.values())

    def is_regular_at_zero(self) -> bool:
        return self.valuation() >= 0

    def reduce_at_zero(self) -> dict[int, Fraction]:
        """Value of each gamma term at q = 0; rejects poles."""
        if self.valuation() < 0:
            raise CoefficientError("pole at q = 0")
        out = {}
        for g, r in self._terms.items():
            v = r.at_zero()
            if v:
                out[g] = v
        return out

    def constant_at_zero(self) -> Fraction:
        """Value at q = 0 for a gamma-free coefficient."""
        if any(g != 0 for g in self._terms):
            raise CoefficientError("coefficient carries gamma")
        return self.reduce_at_zero().get(0, Fraction(0))

    def specialize_gamma_one(self) -> Coeff:
        """Sum all gamma terms: the gamma = 1 specialization."""
        total = QRat.zero()
        for r in self._terms.values():
            total = total + r
        return Coeff({0: total})

    def is_gamma_free(self) -> bool:
        return all(g == 0 for g in self._terms)

    def __repr__(self) -> str:
        return f"Coeff({format_coeff(self)!r})"


def congruent_mod_q2(c: Coeff, target: Rational) -> bool:
    """True iff c is congruent to the rational target modulo q^2."""
    return (c - Coeff.rational(target)).valuation() >= 4


# ---------------------------------------------------------------------------
# canonical printing


def _format_power(name: str, halfexp: int) -> str:
    if halfexp % 2 == 0:
        e = halfexp // 2
        return name if e == 1 else f"{name}^{e}"
    return f"{name}^({halfexp}/2)"


def _format_laurent(terms: list[tuple[int, Fraction]]) -> str:
    """Ascending list of (halfexp, rational) -> text like '-1+q^2'."""
    parts = []
    for e, c in terms:
        body = None
        if e == 0:
            body = str(abs(c))
        else:
            mag = abs(c)
            pw = _format_power("q", e)
            body = pw if mag == 1 else f"{mag}*{pw}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


def _format_qrat_term(r: QRat, gamma_halfexp: int) -> str:
    """One gamma term, sign included in the result."""
    factors: list[str] = []
    sign = "-" if r.scale < 0 else ""
    mag = abs(r.scale)
    if r.den == (1,) and gamma_halfexp == 0:
        # plain Laurent polynomial: merge scale, shift and num
        terms = [(r.shift + i, r.scale * c) for i, c in enumerate(r.num) if c]
        return _format_laurent(terms)
    if mag != 1:
        factors.append(str(mag))
    if r.shift != 0:
        factors.append(_format_power("q", r.shift))
    if r.num != (1,):
        p = _format_laurent([(i, Fraction(c)) for i, c in enumerate(r.num) if c])
        if r.den != (1,):
            qtext = _format_laurent([(i, Fraction(c)) for i, c in enumerate(r.den) if c])
            factors.append(f"({p})/({qtext})")
        else:
            factors.append(f"({p})")
    elif r.den != (1,):
        qtext = _format_laurent([(i, Fraction(c)) for i, c in enumerate(r.den) if c])
        factors.append(f"1/({qtext})")
    if gamma_halfexp != 0:
        factors.append(_format_power("g", gamma_halfexp))
    if not factors:
        factors.append("1")
    return sign + "*".join(factors)


def format_coeff(c: Coeff) -> str:
    """Canonical text: gamma terms in increasing gamma exponent, polynomials
    in ascending powers."""
    if c.is_zero:
        return "0"
    parts = []
    for g, r in c.items():
        text = _format_qrat_term(r, g)
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append(" - " + text[1:])
        else:
            parts.append(" + " + text)
    return "".join(parts)
