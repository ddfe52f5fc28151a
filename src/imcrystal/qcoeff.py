"""Exact arithmetic in the coefficient ring.

Coefficients are rational functions in ``s = q^(1/2)`` over the rationals,
extended by Laurent powers of a formal central ``gamma^(1/2)``.  Exponents
of both q and gamma are always counted in half units: ``q**2`` has
half-exponent 4, ``gamma**(1/2)`` has half-exponent 1.

``Coeff`` is the coefficient the algebra computes with.  Every divisor
is gamma-homogeneous, so every value is one canonical form,

    N(gamma, s) / (d * D(s))

where N is a sparse dict ``{(gamma_halfexp, q_halfexp): int}`` that stores
no zero, d is a positive ``int`` prime to the values of N taken together,
and D is a primitive integer polynomial with nonzero constant term and
positive leading coefficient that no polynomial divides together with
every gamma term of N.  The form is unique as built, so equality compares
N, d and D.  Every value the verification suites produce is a Laurent
polynomial, with the one shared D = ``_ONE``: there sums and products
divide out only an integer factor, and only when d is not 1, and no step
builds a dense polynomial or a ``Fraction``.  Only the parser's division by
a non-monomial scalar, or a ``QRat`` with a denominator, makes a D of
positive degree; a polynomial gcd then cancels the common factor.  There
is one division rule: the gamma-homogeneous divisor is read as one
``QRat`` term, inverted in closed form by swapping its num and den, and
multiplied in, so a quotient, by a monomial too, builds that ``QRat`` and
its ``Fraction`` scale.  ``Coeff.items()`` reads the value as sorted
``(gamma_halfexp, QRat)`` pairs.

``QRat`` is the public view of one gamma-free ``Coeff``, a rational
function of s, stored q-adically as

    scale * s^shift * num(s) / den(s)

where ``scale`` is a nonzero rational, ``shift`` counts half powers of q,
and ``num``/``den`` are coprime primitive integer polynomials with nonzero
constant term and positive leading coefficient.  This form is unique, and
``shift`` is exactly the q-adic valuation used for regularity-at-zero
tests.  ``QRat`` has no arithmetic of its own: its operators compute on
the ``Coeff``s of their operands and read the result back from the
``Coeff`` form, with content over d as scale, the lowest exponent as
shift, and D less the factor it shares with that term as den.

The named series are ``Coeff``s, each defined once: ``Coeff.quantum`` for
the quantum integers and ``_kernel`` for the structure series g and gbar
of the annihilation operators.  The public ``QRat`` names
``quantum_int``, ``g_coeff`` and ``g_coeff_bar`` are views of them.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterator, Union

Rational = Union[int, Fraction]


class CoefficientError(ArithmeticError):
    """Raised for invalid coefficient operations (poles, bad divisors)."""


# ---------------------------------------------------------------------------
# integer polynomials in s, ascending coefficient tuples, () is zero


def _pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two polynomials given without trailing zeros."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _pquo(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient a/b of integer polynomials given without trailing zeros,
    where b divides a with an integer quotient."""
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        out[i] = c = rem[i + len(b) - 1] // b[-1]
        for j, y in enumerate(b):
            rem[i + j] -= c * y
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
    ints = [int(x * lcm) for x in fa]
    c = math.gcd(*ints)
    if ints[-1] < 0:
        c = -c
    return tuple(x // c for x in ints)


# ---------------------------------------------------------------------------
# the immutable value classes (QRat, qalgebra.Weight, verma.HighestWeight,
# crystal.CrystalClass) derive from _Value and set their slots once, in
# their own __init__, through _set

_set = object.__setattr__


class _Value:
    """An immutable value.  A subclass lists its fields in __slots__, and
    its key is the tuple of their values in that order: it is equal to an
    instance of its own class with the same key (never to a tuple), hashed
    by the key, printed as Name(field=value, ...), and refuses any
    assignment or deletion."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, *args) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# QRat: one rational function in s, computed through Coeff


class QRat(_Value):
    """Canonical rational function in s = q^(1/2); see module docstring.
    An immutable value of its four fields."""

    __slots__ = ("scale", "shift", "num", "den")

    def __init__(self, scale: Fraction, shift: int, num: tuple[int, ...], den: tuple[int, ...]):
        _set(self, "scale", scale)
        _set(self, "shift", shift)
        _set(self, "num", num)
        _set(self, "den", den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> QRat:
        return _QRAT_ZERO

    @staticmethod
    def one() -> QRat:
        return _QRAT_ONE

    @staticmethod
    def rational(x: Rational) -> QRat:
        return _qrat(Coeff.rational(x))

    @staticmethod
    def q_power(halfexp: int) -> QRat:
        """q^(halfexp/2), e.g. q_power(4) is q**2."""
        return _qrat(Coeff.q_power(halfexp))

    @staticmethod
    def from_laurent(terms: dict[int, Rational]) -> QRat:
        """Laurent polynomial given as {half-exponent: rational coefficient}."""
        return _qrat(sum((Coeff.rational(c) * Coeff.q_power(e) for e, c in terms.items()),
                         Coeff.zero()))

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.scale == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic, in Coeff at gamma^0 --------------------------------------

    def __neg__(self) -> QRat:
        return _qrat(-Coeff.from_qrat(self))

    def __add__(self, other: QRat) -> QRat:
        return _in_coeff(operator.add, self, other)

    def __sub__(self, other: QRat) -> QRat:
        return _in_coeff(operator.sub, self, other)

    def __mul__(self, other: QRat) -> QRat:
        return _in_coeff(operator.mul, self, other)

    def __truediv__(self, other: QRat) -> QRat:
        return _in_coeff(operator.truediv, self, other)

    def __pow__(self, n: int) -> QRat:
        c = math.prod([Coeff.from_qrat(self)] * abs(n), start=Coeff.one())
        return _qrat(c if n >= 0 else Coeff.one() / c)

    # -- inspection ----------------------------------------------------------

    def valuation(self) -> int | float:
        """q-adic valuation in half units; +inf for zero."""
        return Coeff.from_qrat(self).valuation()

    def at_zero(self) -> Fraction:
        """Value at q = 0; requires regularity at 0."""
        return Coeff.from_qrat(self).constant_at_zero()


_QRAT_ZERO = QRat(Fraction(0), 0, (1,), (1,))
_QRAT_ONE = QRat(Fraction(1), 0, (1,), (1,))


def _in_coeff(op, a: QRat, b: object) -> QRat:
    """op on the Coeffs of a and b, read back; NotImplemented unless b is a
    QRat, so that a Coeff operand takes the Coeff operator."""
    if not isinstance(b, QRat):
        return NotImplemented
    return _qrat(op(Coeff.from_qrat(a), Coeff.from_qrat(b)))


def _qrat(c: Coeff) -> QRat:
    """The gamma-free value c as a QRat."""
    return dict(c.items()).get(0, _QRAT_ZERO)


def _qrat_term(pairs: list[tuple[int, int]], d: int, D: tuple[int, ...]) -> QRat:
    """One gamma term of N / (d * D), given as ascending (e, v) pairs: its
    content, with the sign of its top value, over d is the scale and its
    lowest exponent the shift.  D is prime to all gamma terms together, not
    to each, so the factor D shares with this term is cancelled."""
    c = _content(pairs)
    num = tuple(v // c for v in _poly(pairs))
    if D is not _ONE:
        g = _pgcd(num, D)
        # exact, primitive and with positive leading terms, by Gauss's lemma
        num, D = _pquo(num, g), _pquo(D, g)
    return QRat(Fraction(c, d), pairs[0][0], num, D)


# ---------------------------------------------------------------------------
# named values: each series a Coeff, its QRat name a view through _qrat


def _kernel(sign: int, r: int) -> Coeff:
    """g(r) for sign 1 and gbar(r) for sign -1: q^(2 sign) for r = 0, else
    q^(sign(2r+2)) - q^(sign(2r-2))."""
    if r < 0:
        raise ValueError("the g series needs r >= 0")
    if r == 0:
        return Coeff.q_power(4 * sign)
    return Coeff.q_power(sign * (4 * r + 4)) - Coeff.q_power(sign * (4 * r - 4))


def quantum_int(n: int) -> QRat:
    """[n] = (q^n - q^-n)/(q - q^-1): the QRat of Coeff.quantum(n)."""
    return _qrat(Coeff.quantum(n))


def g_coeff(r: int) -> QRat:
    """Structure coefficients of the annihilation-operator recursion:
    g(0) = q^2 and g(r) = (q^4 - 1) q^(2(r-1)) for r > 0."""
    return _qrat(_kernel(1, r))


def g_coeff_bar(r: int) -> QRat:
    """Image of g_coeff under q -> 1/q; the inverse power series, so that
    sum over r of g_coeff(r) * g_coeff_bar(N - r) is 1 for N = 0 and 0
    otherwise.  This expansion drives the phi-side operators."""
    return _qrat(_kernel(-1, r))


# ---------------------------------------------------------------------------
# Coeff: a sparse map over an integer times a polynomial in s


_Key = tuple[int, int]  # (gamma half-exponent, q half-exponent)
_UNIT: dict[_Key, int] = {(0, 0): 1}
_ONE = (1,)  # the denominator polynomial of every Laurent value
_new = object.__new__


class Coeff:
    """A coefficient: N / (d * D), canonical as the module docstring says.

    ``_t`` maps (gamma half-exponent, q half-exponent) to a nonzero int,
    ``_d`` is a positive int prime to the values taken together, and ``_D``
    is an ascending tuple of ints, a primitive polynomial in s with nonzero
    constant term and positive leading coefficient, that has no factor in
    common with every gamma term of ``_t``.  A Laurent value holds the
    shared ``_ONE``.  Treated as immutable, and hashed by value.
    """

    __slots__ = ("_t", "_d", "_D")

    def __init__(self, terms: dict[int, QRat] | None = None):
        out = sum((_of_qrat(r, g) for g, r in (terms or {}).items() if r), Coeff.zero())
        self._t, self._d, self._D = out._t, out._d, out._D

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> Coeff:
        return _hot({})

    @staticmethod
    def one() -> Coeff:
        return _hot({(0, 0): 1})

    @staticmethod
    def rational(x: Rational) -> Coeff:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"not an int or a Fraction: {x!r}")
        x = Fraction(x)
        return _hot({(0, 0): x.numerator} if x else {}, x.denominator)

    @staticmethod
    def q_power(halfexp: int) -> Coeff:
        return _hot({(0, halfexp): 1})

    @staticmethod
    def gamma_power(halfexp: int) -> Coeff:
        return _hot({(halfexp, 0): 1})

    @staticmethod
    def from_qrat(r: QRat, gamma_halfexp: int = 0) -> Coeff:
        return Coeff({gamma_halfexp: r})

    @staticmethod
    def quantum(n: int) -> Coeff:
        """[n] = q^(1-n) + q^(3-n) + ... + q^(n-1), and [-n] = -[n]."""
        sign, m = (1, n) if n > 0 else (-1, -n)
        return _hot({(0, 2 * (1 - m) + 4 * i): sign for i in range(m)})

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coeff):
            return NotImplemented
        return self._t == other._t and self._d == other._d and self._D == other._D

    def __hash__(self) -> int:
        return hash((frozenset(self._t.items()), self._d, self._D))

    def items(self) -> Iterator[tuple[int, QRat]]:
        return iter([(g, _qrat_term(pairs, self._d, self._D))
                     for g, pairs in _by_gamma(self._t).items()])

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> Coeff:
        return _hot({k: -v for k, v in self._t.items()}, self._d, self._D)

    def __add__(self, other: Coeff | QRat | Rational) -> Coeff:
        if not isinstance(other, Coeff) and (other := _lift(other)) is NotImplemented:
            return NotImplemented
        a, b = self._t, other._t
        if not b:
            return self
        if not a:
            return other
        da, db, D = self._d, other._d, self._D
        if D is not other._D and D != other._D:
            # over the product of the two denominator polynomials
            a, b, D = _times(a, other._D), _times(b, D), _pmul(D, other._D)
        if len(a) < len(b):
            a, b, da, db = b, a, db, da
        # fold the smaller map into a copy of the larger one, both over d
        d = math.lcm(da, db)
        m = d // da
        t = a.copy() if m == 1 else {k: v * m for k, v in a.items()}
        m = d // db
        if m != 1:
            b = {k: v * m for k, v in b.items()}
        for k, v in b.items():
            v += t.get(k, 0)
            if v:
                t[k] = v
            else:
                del t[k]
        if D is _ONE:
            return _hot(t) if d == 1 else _reduced(t, d)
        return _make(t, d, D)

    __radd__ = __add__

    def __sub__(self, other: Coeff | QRat | Rational) -> Coeff:
        other = _lift(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other: QRat | Rational) -> Coeff:
        other = _lift(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __mul__(self, other: Coeff | QRat | Rational) -> Coeff:
        if not isinstance(other, Coeff) and (other := _lift(other)) is NotImplemented:
            return NotImplemented
        a, b = self._t, other._t
        # the unit returns the other operand, as in QRat.__mul__
        if a == _UNIT and self._d == 1 and self._D is _ONE:
            return other
        if b == _UNIT and other._d == 1 and other._D is _ONE:
            return self
        t: dict[_Key, int] = {}
        for (g1, e1), v1 in a.items():
            for (g2, e2), v2 in b.items():
                k = (g1 + g2, e1 + e2)
                t[k] = t.get(k, 0) + v1 * v2
        # only a sum of two or more products can cancel
        if len(a) > 1 < len(b) and 0 in t.values():
            t = {k: v for k, v in t.items() if v}
        d = self._d * other._d
        if self._D is other._D is _ONE:
            return _hot(t) if d == 1 else _reduced(t, d)
        return _make(t, d, _pmul(self._D, other._D))

    __rmul__ = __mul__

    def __truediv__(self, other: Coeff | QRat | Rational) -> Coeff:
        if not isinstance(other, Coeff) and (other := _lift(other)) is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise CoefficientError("division by zero")
        if len({g for g, _ in other._t}) != 1:
            raise CoefficientError("division only by gamma-homogeneous values")
        # by r gamma^g: multiply by 1/r gamma^-g, where 1/r swaps num and den
        # and inverts the scale, so it is canonical as built
        (g, r), = other.items()
        return self * _of_qrat(QRat(1 / r.scale, -r.shift, r.den, r.num), -g)

    # -- inspection ----------------------------------------------------------

    def valuation(self) -> int | float:
        """Minimum q-adic valuation over gamma terms; +inf for zero."""
        return min((e for _, e in self._t), default=math.inf)

    def is_regular_at_zero(self) -> bool:
        return self.valuation() >= 0

    def reduce_at_zero(self) -> dict[int, Fraction]:
        """Value of each gamma term at q = 0; rejects poles."""
        if self.valuation() < 0:
            raise CoefficientError("pole at q = 0")
        return {g: Fraction(v, self._d * self._D[0]) for (g, e), v in self._t.items() if not e}

    def constant_at_zero(self) -> Fraction:
        """Value at q = 0 for a gamma-free coefficient."""
        if not self.is_gamma_free():
            raise CoefficientError("coefficient carries gamma")
        return self.reduce_at_zero().get(0, Fraction(0))

    def specialize_gamma_one(self) -> Coeff:
        """Sum all gamma terms: the gamma = 1 specialization."""
        out: dict[_Key, int] = {}
        for (_, e), v in self._t.items():
            out[0, e] = out.get((0, e), 0) + v
        return _make({k: v for k, v in out.items() if v}, self._d, self._D)

    def is_gamma_free(self) -> bool:
        return not any(g for g, _ in self._t)

    def gamma_shift(self, halfexp: int) -> Coeff:
        """self * gamma^(halfexp/2): the gamma half-exponent of each term
        moves by halfexp, which keeps the canonical form."""
        return _hot({(g + halfexp, e): v for (g, e), v in self._t.items()}, self._d, self._D)

    def __repr__(self) -> str:
        return f"Coeff({format_coeff(self)!r})"


def _lift(x: object) -> Coeff:
    """The operand of a Coeff operator as a Coeff: a Coeff as it is, a QRat,
    an int or a Fraction lifted, and NotImplemented for anything else."""
    if isinstance(x, Coeff):
        return x
    if isinstance(x, QRat):
        return Coeff.from_qrat(x)
    return Coeff.rational(x) if isinstance(x, (int, Fraction)) else NotImplemented


def _hot(t: dict[_Key, int], d: int = 1, D: tuple[int, ...] = _ONE) -> Coeff:
    """Wrap a map already in the canonical form over d and D, without
    copying it."""
    out = _new(Coeff)
    out._t, out._d, out._D = t, d, D
    return out


def _reduced(t: dict[_Key, int], d: int, D: tuple[int, ...] = _ONE) -> Coeff:
    """_hot once the common factor of d and the values is divided out."""
    c = math.gcd(d, *t.values())
    if c != 1:
        t = {k: v // c for k, v in t.items()}
        d //= c
    return _hot(t, d, D)


def _make(t: dict[_Key, int], d: int, D: tuple[int, ...]) -> Coeff:
    """The Coeff of t / (d * D), for t free of zero values and D primitive
    with nonzero constant term and positive leading coefficient: the common
    factor of D and every gamma term of t is divided out, then that of d
    and the values."""
    if D is not _ONE:
        terms = _by_gamma(t)
        g = D
        for pairs in terms.values():
            g = _pgcd(_poly(pairs), g)
        if len(g) > 1:
            # exact, by Gauss's lemma; zero (no terms) leaves D / D = 1
            t = {
                (gam, pairs[0][0] + i): v
                for gam, pairs in terms.items()
                for i, v in enumerate(_pquo(_poly(pairs), g))
                if v
            }
            D = _pquo(D, g) if g != D else _ONE
    return _reduced(t, d, D)


def _of_qrat(r: QRat, g: int) -> Coeff:
    """The nonzero QRat r times gamma^(g/2), canonical as built: num is
    primitive and prime to den."""
    m = r.scale.numerator
    return _hot(
        {(g, r.shift + i): m * c for i, c in enumerate(r.num) if c},
        r.scale.denominator,
        _ONE if r.den == _ONE else r.den,
    )


def _times(t: dict[_Key, int], p: tuple[int, ...]) -> dict[_Key, int]:
    """The map t times the polynomial p in s, free of zero values."""
    out: dict[_Key, int] = {}
    for (g, e), v in t.items():
        for i, c in enumerate(p):
            out[g, e + i] = out.get((g, e + i), 0) + v * c
    return {k: v for k, v in out.items() if v}


def _by_gamma(t: dict[_Key, int]) -> dict[int, list[tuple[int, int]]]:
    """Ascending (q half-exponent, value) pairs of each gamma term, in
    increasing gamma half-exponent."""
    out: dict[int, list[tuple[int, int]]] = {}
    for (g, e), v in sorted(t.items()):
        out.setdefault(g, []).append((e, v))
    return out


def _poly(pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    """Ascending (e, v) pairs as a polynomial in s, from the lowest e."""
    e0 = pairs[0][0]
    out = [0] * (pairs[-1][0] - e0 + 1)
    for e, v in pairs:
        out[e - e0] = v
    return tuple(out)


def _content(pairs: list[tuple[int, int]]) -> int:
    """gcd of the values of ascending pairs, with the sign of the top one."""
    c = math.gcd(*(v for _, v in pairs))
    return -c if pairs[-1][1] < 0 else c


def congruent_mod_q2(c: Coeff, target: Rational) -> bool:
    """True iff c is congruent to the rational target modulo q^2."""
    return (c - Coeff.rational(target)).valuation() >= 4


def residue_mod_q2(c: Coeff) -> Fraction | None:
    """The rational that the gamma-free c is congruent to modulo q^2, or
    None when there is none: c has a pole at q = 0, or c minus its value at
    0 is not divisible by q^2."""
    if not c.is_regular_at_zero():
        return None
    r = c.constant_at_zero()
    return r if congruent_mod_q2(c, r) else None


# ---------------------------------------------------------------------------
# canonical printing


def _format_power(name: str, halfexp: int) -> str:
    if halfexp % 2 == 0:
        e = halfexp // 2
        return name if e == 1 else f"{name}^{e}"
    return f"{name}^({halfexp}/2)"


def _format_laurent(terms: list[tuple[int, Rational]]) -> str:
    """Ascending list of (halfexp, rational) -> text like '-1+q^2'."""
    parts = []
    for e, c in terms:
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            pw = _format_power("q", e)
            body = pw if mag == 1 else f"{mag}*{pw}"
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts)


def _format_factored(
    scale: Fraction,
    shift: int,
    num: list[tuple[int, int]],
    den: list[tuple[int, int]] | None,
    gamma_halfexp: int,
) -> str:
    """scale * q^shift * (num)/(den) * g^gamma, num and den as ascending
    (halfexp, int) pairs; sign included in the result."""
    factors: list[str] = []
    mag = abs(scale)
    if mag != 1:
        factors.append(str(mag))
    if shift != 0:
        factors.append(_format_power("q", shift))
    p = None if num == [(0, 1)] else _format_laurent(num)
    if den is not None:
        factors.append(f"({p})/({_format_laurent(den)})" if p else f"1/({_format_laurent(den)})")
    elif p:
        factors.append(f"({p})")
    if gamma_halfexp != 0:
        factors.append(_format_power("g", gamma_halfexp))
    return ("-" if scale < 0 else "") + "*".join(factors or ["1"])


def _format_term(pairs: list[tuple[int, int]], d: int, D: tuple[int, ...], g: int) -> str:
    """One gamma term of N / (d * D), given as ascending (e, v) pairs.  D
    is cancelled first, when it is not `_ONE`; a term still over a
    polynomial prints in the QRat form.  A Laurent term without gamma
    prints as one polynomial, and with gamma its sign, content and q-shift
    are factored out as the QRat form has them."""
    if D is not _ONE:
        r = _qrat_term(pairs, d, D)
        if r.den != _ONE:
            num, den = ([(i, c) for i, c in enumerate(poly) if c] for poly in (r.num, r.den))
            return _format_factored(r.scale, r.shift, num, den, g)
        pairs = [(pairs[0][0] + i, v) for i, v in enumerate(_pquo(_poly(pairs), D)) if v]
    if g == 0:
        return _format_laurent(pairs if d == 1 else [(e, Fraction(v, d)) for e, v in pairs])
    c, e0 = _content(pairs), pairs[0][0]
    return _format_factored(Fraction(c, d), e0, [(e - e0, v // c) for e, v in pairs], None, g)


def join_signed(texts: list[str]) -> str:
    """The texts as one sum: ' - ' before a negative text, ' + ' before
    any other."""
    return texts[0] + "".join(
        " - " + text[1:] if text.startswith("-") else " + " + text for text in texts[1:]
    )


def format_coeff(c: Coeff) -> str:
    """Canonical text: gamma terms in increasing gamma exponent, polynomials
    in ascending powers."""
    if c.is_zero:
        return "0"
    return join_signed([_format_term(t, c._d, c._D, g) for g, t in _by_gamma(c._t).items()])


def prints_as_sum(c: Coeff) -> bool:
    """True when format_coeff(c) is a sum at top level: c has two or more
    gamma terms, or one gamma-free Laurent term of two or more monomials.
    Any other single term prints as one signed product."""
    gammas = {g for g, _ in c._t}
    return len(gammas) > 1 or gammas == {0} and c._D is _ONE and len(c._t) > 1
