"""Coefficient ring: examples, canonical form, valuations, series identities.

QRat computes through Coeff, so the reference below is QRat's own arithmetic
as it was before: the canonical form built on the four fields, with its own
polynomial gcd.  It reads no Coeff and no helper of qcoeff.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from imcrystal.qcoeff import (
    Coeff,
    CoefficientError,
    QRat,
    _ONE,
    _pmul,
    congruent_mod_q2,
    format_coeff,
    g_coeff,
    g_coeff_bar,
    prints_as_sum,
    quantum_int,
    residue_mod_q2,
)


# ---------------------------------------------------------------------------
# the reference arithmetic on the fields scale, shift, num and den


def naive_pmul(a, b):
    """Dense schoolbook product, trimmed; the reference for _pmul."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_gcd(a, b):
    """Primitive gcd with a positive top coefficient of two ascending integer
    polynomials, by Euclid's algorithm over the rationals; () if both are 0."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    while b:
        while len(a) >= len(b):  # a mod b
            c, off = a[-1] / b[-1], len(a) - len(b)
            for j, y in enumerate(b):
                a[off + j] -= c * y
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    if not a:
        return ()
    ints = [int(x * math.lcm(*(y.denominator for y in a))) for x in a]
    c = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return tuple(x // c for x in ints)


def ref_quo(a, b):
    """a / b for integer polynomials where b divides a with integer quotient."""
    rem, out = [Fraction(x) for x in a], []
    while len(rem) >= len(b):
        c, off = rem[-1] / b[-1], len(rem) - len(b)
        out.append(c)
        for j, y in enumerate(b):
            rem[off + j] -= c * y
        rem.pop()
    assert not any(rem) and all(c.denominator == 1 for c in out)
    return tuple(int(c) for c in reversed(out))


def canon(scale, shift, num, den):
    """scale * s^shift * num / den in the canonical form of the module
    docstring: the old QRat normaliser."""
    num, den = naive_pmul(num, (1,)), naive_pmul(den, (1,))  # trimmed
    if not den:
        raise CoefficientError("division by zero")
    if not num or scale == 0:
        return QRat.zero()
    while num[0] == 0:
        num, shift = num[1:], shift + 1
    while den[0] == 0:
        den, shift = den[1:], shift - 1
    cn = math.gcd(*num) if num[-1] > 0 else -math.gcd(*num)
    cd = math.gcd(*den) if den[-1] > 0 else -math.gcd(*den)
    num, den = tuple(x // cn for x in num), tuple(x // cd for x in den)
    g = ref_gcd(num, den) if den != (1,) and num != (1,) else (1,)
    return QRat(Fraction(scale) * cn / cd, shift, ref_quo(num, g), ref_quo(den, g))


def canon_frac(coeffs, den, shift):
    """Rational coefficients from s^shift up, over the polynomial den."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return canon(Fraction(1, lcm), shift, [int(c * lcm) for c in coeffs], den)


def ref_laurent(terms):
    """The old QRat.from_laurent of {half-exponent: rational}."""
    nonzero = {e: Fraction(c) for e, c in terms.items() if c}
    if not nonzero:
        return QRat.zero()
    shift = min(nonzero)
    coeffs = [Fraction(0)] * (max(nonzero) - shift + 1)
    for e, c in nonzero.items():
        coeffs[e - shift] = c
    return canon_frac(coeffs, (1,), shift)


def canon_sum(a, b):
    """a + b: the old QRat.__add__."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    shift = min(a.shift, b.shift)
    n1 = [a.scale * c for c in naive_pmul(a.num, b.den)]
    n2 = [b.scale * c for c in naive_pmul(b.num, a.den)]
    coeffs = [Fraction(0)] * max(len(n1) + a.shift - shift, len(n2) + b.shift - shift)
    for i, c in enumerate(n1):
        coeffs[i + a.shift - shift] += c
    for i, c in enumerate(n2):
        coeffs[i + b.shift - shift] += c
    return canon_frac(coeffs, naive_pmul(a.den, b.den), shift)


def ref_neg(a):
    return QRat(-a.scale, a.shift, a.num, a.den)


def canon_product(a, b):
    """a * b: the old QRat.__mul__."""
    return canon(a.scale * b.scale, a.shift + b.shift,
                 naive_pmul(a.num, b.num), naive_pmul(a.den, b.den))


def canon_quotient(a, b):
    """a / b: the old QRat.__truediv__."""
    if b.is_zero:
        raise CoefficientError("division by zero")
    return canon(a.scale / b.scale, a.shift - b.shift,
                 naive_pmul(a.num, b.den), naive_pmul(a.den, b.num))


def ref_pow(a, n):
    """a ** n: the old QRat.__pow__."""
    if n < 0:
        return canon_quotient(QRat.one(), ref_pow(a, -n))
    out = QRat.one()
    for _ in range(n):
        out = canon_product(out, a)
    return out


def laurent(terms):
    return QRat.from_laurent(terms)


Q_DIFF = laurent({2: 1, -2: -1})  # q - q^-1


class TestQRatExamples:
    def test_half_powers_multiply(self):
        s = QRat.q_power(1)
        assert s * s == QRat.q_power(2)

    def test_polynomial_division(self):
        q4m1 = laurent({8: 1, 0: -1})  # q^4 - 1
        q2m1 = laurent({4: 1, 0: -1})  # q^2 - 1
        assert q4m1 / q2m1 == laurent({4: 1, 0: 1})  # q^2 + 1

    def test_additive_inverse(self):
        q2 = QRat.q_power(4)
        assert (q2 + (-q2)).is_zero

    def test_canonical_tuples_unique(self):
        a = laurent({4: 2, 0: -2}) / QRat.rational(2)
        b = laurent({4: 1, 0: -1})
        assert a == b
        assert (a.scale, a.shift, a.num, a.den) == (b.scale, b.shift, b.num, b.den)

    def test_denominator_normalization(self):
        r = QRat.one() / laurent({4: -1, 0: 1})  # 1/(1 - q^2)
        assert r.den[-1] > 0 and r.num[0] != 0 and r.den[0] != 0

    def test_division_by_zero(self):
        with pytest.raises(CoefficientError):
            QRat.one() / QRat.zero()

    def test_no_negative_power_of_zero(self):
        with pytest.raises(CoefficientError):
            QRat.zero() ** -1


class TestOperands:
    def test_qrat_times_coeff_is_coeff_times_qrat(self):
        c = Coeff.gamma_power(1) + Coeff.q_power(-3) * Coeff.rational(Fraction(1, 3))
        for r in (QRat.one(), QRat.rational(2), QRat.one() / laurent({0: 1, 2: 1})):
            assert r * c == c * r
            assert type(r * c) is Coeff

    # every Coeff operator lifts a QRat, an int or a Fraction operand, and
    # returns NotImplemented for any other, which Python turns into TypeError

    def test_coeff_plus_int(self):
        assert Coeff.one() + 3 == Coeff.rational(4)

    def test_coeff_minus_int(self):
        assert Coeff.one() - 3 == Coeff.rational(-2)

    def test_coeff_plus_qrat(self):
        assert Coeff.one() + QRat.one() == Coeff.rational(2)

    def test_coeff_minus_qrat(self):
        assert Coeff.q_power(2) - QRat.q_power(2) == Coeff.zero()

    def test_coeff_plus_fraction(self):
        assert Coeff.one() + Fraction(1, 2) == Coeff.rational(Fraction(3, 2))

    def test_int_plus_coeff(self):
        assert 3 + Coeff.one() == Coeff.rational(4)

    def test_int_minus_coeff(self):
        assert 3 - Coeff.one() == Coeff.rational(2)

    def test_sum_of_coeffs(self):
        assert sum([Coeff.one(), Coeff.q_power(2)]) == Coeff.one() + Coeff.q_power(2)

    def test_coeff_times_and_over_every_lifted_operand(self):
        c = Coeff.q_power(2) * 2
        for other in (2, Fraction(2), QRat.rational(2), Coeff.rational(2)):
            assert c * other == Coeff.q_power(2) * 4
            assert c / other == Coeff.q_power(2)

    @pytest.mark.parametrize("other", ["a", 1.5, None, [1]])
    def test_coeff_with_anything_else_raises(self, other):
        c = Coeff.one()
        for op, name in ((operator.add, "__add__"), (operator.sub, "__sub__"),
                         (operator.mul, "__mul__"), (operator.truediv, "__truediv__")):
            assert getattr(c, name)(other) is NotImplemented
            with pytest.raises(TypeError):
                op(c, other)

    @pytest.mark.parametrize("other", [Coeff.one(), 3, Fraction(1, 2)])
    def test_qrat_with_anything_else_raises(self, other):
        # only a Coeff has reflected operators, for +, - and *, which lift
        # the QRat; a QRat over a Coeff still raises
        r = QRat.rational(2)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            if op is not operator.truediv and isinstance(other, Coeff):
                assert op(r, other) == op(Coeff.from_qrat(r), other)
            else:
                with pytest.raises(TypeError):
                    op(r, other)

    @pytest.mark.parametrize("build", [
        Coeff.rational,
        QRat.rational,
        lambda x: QRat.from_laurent({2: 1, 0: x}),
        lambda x: Coeff.one() * x,
        lambda x: Coeff.q_power(1) / x,
    ], ids=["Coeff.rational", "QRat.rational", "QRat.from_laurent", "Coeff*", "Coeff/"])
    def test_floats_are_not_exact_rationals(self, build):
        assert build(Fraction(1, 10)) == build(Fraction(1, 10))
        with pytest.raises(TypeError):
            build(0.1)
        with pytest.raises(TypeError):
            build(1.0)


class TestQuantumInt:
    def test_values(self):
        assert quantum_int(1) == QRat.one()
        assert quantum_int(2) == laurent({2: 1, -2: 1})  # q + q^-1
        assert quantum_int(-1) == -QRat.one()
        assert quantum_int(0).is_zero

    def test_defining_quotient(self):
        # [n] * (q - q^-1) = q^n - q^-n
        for n in range(-6, 7):
            expected = canon_sum(ref_laurent({2 * n: 1}), ref_neg(ref_laurent({-2 * n: 1})))
            assert quantum_int(n) * Q_DIFF == expected

    def test_closed_tuple_matches_laurent(self):
        for n in range(-60, 61):
            sign = 1 if n > 0 else -1
            expected = ref_laurent({2 * (abs(n) - 1) - 4 * j: sign for j in range(abs(n))})
            assert as_tuple(quantum_int(n)) == as_tuple(expected), n


class TestGSeries:
    def test_values(self):
        q4m1 = ref_laurent({8: 1, 0: -1})  # q^4 - 1
        assert g_coeff(0) == ref_laurent({4: 1})
        assert g_coeff(1) == q4m1
        assert g_coeff(2) == canon_product(q4m1, ref_laurent({4: 1}))

    def test_two_closed_forms_agree(self):
        # (1 - q^-4) q^(2(r+1)) = (q^4 - 1) q^(2(r-1))
        for r in range(1, 11):
            lhs = canon_product(ref_laurent({0: 1, -8: -1}), ref_laurent({4 * (r + 1): 1}))
            assert lhs == g_coeff(r)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            g_coeff(-1)
        with pytest.raises(ValueError):
            g_coeff_bar(-1)

    def test_series_are_inverse(self):
        for n in range(0, 13):
            total = QRat.zero()
            for r in range(n + 1):
                total = total + g_coeff(r) * g_coeff_bar(n - r)
            assert total == (QRat.one() if n == 0 else QRat.zero())

    @pytest.mark.parametrize(
        "series,kernel_num,kernel_den",
        [
            # sum g(r) t^r solves (t - q^-2) S = q^-2 t - 1
            (g_coeff, {-4: 1}, {-4: 1}),
            # sum gbar(r) t^r solves (t - q^2) S = q^2 t - 1
            (g_coeff_bar, {4: 1}, {4: 1}),
        ],
    )
    def test_taylor_consistency(self, series, kernel_num, kernel_den):
        # S(t) * (t - c) - (c t - 1) has t-adic order > N, c the kernel pole
        N = 12
        c = laurent(kernel_den)
        coeffs = [series(r) for r in range(N + 1)]
        prod = [QRat.zero()] * (N + 2)
        for r, a in enumerate(coeffs):
            prod[r + 1] = prod[r + 1] + a  # t * t^r
            prod[r] = prod[r] - a * c  # -c * t^r
        target0 = -QRat.one()
        target1 = laurent(kernel_num)
        assert prod[0] - target0 == QRat.zero()
        assert prod[1] - target1 == QRat.zero()
        for r in range(2, N + 1):
            assert prod[r].is_zero


class TestValuation:
    def test_examples(self):
        assert (Coeff.q_power(4) + Coeff.q_power(6)).valuation() == 4
        ratio = Coeff.from_qrat(laurent({8: 1, 0: -1}) / laurent({4: 1, 0: -1}))
        assert ratio.valuation() == 0
        assert Coeff.zero().valuation() == math.inf

    def test_reduce_at_zero(self):
        assert (Coeff.one() + Coeff.q_power(4)).constant_at_zero() == 1
        assert (Coeff.q_power(4) - Coeff.one()).constant_at_zero() == -1
        assert Coeff.q_power(1).constant_at_zero() == 0

    def test_pole_rejected(self):
        with pytest.raises(CoefficientError):
            Coeff.q_power(-2).reduce_at_zero()

    def test_per_gamma_term(self):
        c = Coeff.gamma_power(2) * Coeff.rational(3) + Coeff.one()
        assert c.reduce_at_zero() == {0: Fraction(1), 2: Fraction(3)}


class TestCongruence:
    def test_examples(self):
        assert congruent_mod_q2(Coeff.one() + Coeff.q_power(4), 1)
        assert congruent_mod_q2(Coeff.q_power(4), 0)
        assert not congruent_mod_q2(Coeff.q_power(2), 0)
        assert congruent_mod_q2(Coeff.rational(5), 5)

    def test_residue(self):
        third = Coeff.rational(Fraction(1, 3))
        assert residue_mod_q2(third + Coeff.q_power(4)) == Fraction(1, 3)
        assert residue_mod_q2(Coeff.q_power(4)) == 0
        assert residue_mod_q2(Coeff.zero()) == 0
        # regular at 0, but off its value there by q^(1/2) or q
        assert residue_mod_q2(third + Coeff.q_power(1)) is None
        assert residue_mod_q2(Coeff.q_power(2)) is None
        # a pole at 0, and a non-Laurent value regular at 0
        assert residue_mod_q2(Coeff.q_power(-2) + Coeff.one()) is None
        assert residue_mod_q2(Coeff.one() / (Coeff.one() - Coeff.q_power(4))) == 1


class TestGammaArithmetic:
    def test_division_needs_homogeneous(self):
        mixed = Coeff.one() + Coeff.gamma_power(2)
        with pytest.raises(CoefficientError):
            Coeff.one() / mixed

    def test_division_by_zero(self):
        with pytest.raises(CoefficientError):
            Coeff.one() / Coeff.zero()

    def test_gamma_specialization(self):
        c = Coeff.gamma_power(2) * Coeff.q_power(4) + Coeff.gamma_power(-2)
        assert c.specialize_gamma_one() == Coeff.q_power(4) + Coeff.one()

    def test_specialization_is_sum_of_terms(self):
        c = Coeff.gamma_power(1) - Coeff.gamma_power(-1)
        assert c.specialize_gamma_one().is_zero


# ---------------------------------------------------------------------------
# property tests

small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda x: x != 0)


@st.composite
def laurents(draw, allow_zero=False):
    n = draw(st.integers(min_value=0 if allow_zero else 1, max_value=3))
    terms = {}
    for _ in range(n):
        terms[draw(st.integers(min_value=-5, max_value=5))] = draw(small_rationals)
    return QRat.from_laurent(terms)


@st.composite
def qrats(draw, allow_zero=False):
    num = draw(laurents(allow_zero=allow_zero))
    den = draw(laurents())
    return num / den


@st.composite
def coeffs(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    out = Coeff.zero()
    for _ in range(n):
        out = out + Coeff.from_qrat(
            draw(qrats(allow_zero=True)), draw(st.integers(min_value=-2, max_value=2))
        )
    return out


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(min_value=-5, max_value=5),
                       st.integers(min_value=-3, max_value=3) | small_rationals, max_size=4))
def test_from_laurent_matches_reference(terms):
    assert as_tuple(QRat.from_laurent(terms)) == as_tuple(ref_laurent(terms))


@settings(max_examples=40, deadline=None)
@given(qrats())
def test_power_matches_reference(r):
    for n in range(-3, 4):
        assert as_tuple(r ** n) == as_tuple(ref_pow(r, n)), n


@settings(max_examples=60, deadline=None)
@given(qrats(), qrats())
def test_cancel_round_trip(a, b):
    assert (a * b) / b == a


@settings(max_examples=60, deadline=None)
@given(qrats(), qrats())
def test_valuation_additive(a, b):
    assert (a * b).valuation() == a.valuation() + b.valuation()


@settings(max_examples=60, deadline=None)
@given(coeffs(), coeffs(), coeffs())
def test_coeff_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a - a).is_zero


@settings(max_examples=40, deadline=None)
@given(coeffs())
def test_unit_product_is_the_operand(a):
    one = Coeff.one()
    assert one * a == a == a * one
    # either form: a unit factor returns the other operand itself, the
    # left one first when both are units
    assert one * a is a
    assert a * one is (one if a == one else a)


@settings(max_examples=60, deadline=None)
@given(coeffs(), qrats(), st.integers(min_value=-2, max_value=2))
def test_gamma_homogeneous_division_round_trip(a, r, g):
    b = Coeff.from_qrat(r, g)
    assert (a * b) / b == a


def monomial_quotient(a, b):
    """The fields (terms, d, D) of a / b for a monomial b = v/d q^(e/2)
    gamma^(g/2) by its closed formula, apart from the reciprocal rule of
    Coeff: multiply the values by d/v, shift every exponent by (-g, -e),
    and divide out the common factor of the new integer denominator and
    the values."""
    ((g0, e0), v0), = b._t.items()
    m = b._d if v0 > 0 else -b._d
    t = {(g - g0, e - e0): v * m for (g, e), v in a._t.items()}
    d = a._d * abs(v0)
    c = math.gcd(d, *t.values())
    return {k: v // c for k, v in t.items()}, d // c, a._D


@settings(max_examples=100, deadline=None)
@given(coeffs(), small_rationals, st.integers(min_value=-7, max_value=7),
       st.integers(min_value=-3, max_value=3))
def test_monomial_division_matches_the_closed_formula(a, x, e, g):
    # negative and fractional values, odd (half) q exponents and gamma
    b = Coeff.rational(x) * Coeff.q_power(e) * Coeff.gamma_power(g)
    assert len(b._t) == 1 and b._D is _ONE
    quotient = a / b
    assert (quotient._t, quotient._d, quotient._D) == monomial_quotient(a, b)
    assert quotient * b == a


@settings(max_examples=40, deadline=None)
@given(coeffs())
def test_format_is_stable(c):
    # identical values print identically (canonical form is unique)
    rebuilt = Coeff.zero() + c
    assert format_coeff(rebuilt) == format_coeff(c)


def needs_parens(text):
    """True when a printed coefficient is a sum or difference at top level:
    the text scan that prints_as_sum replaces, kept as its oracle."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0 and text[i - 1] not in "^(*/":
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(coeffs())
def test_prints_as_sum_matches_the_text_scan(c):
    # the drawn values carry gamma terms, half exponents, rational values
    # and denominators that are not monomials
    assert prints_as_sum(c) == needs_parens(format_coeff(c))


@pytest.mark.parametrize("c, expected", [
    (Coeff.zero(), False),
    (Coeff.rational(Fraction(-3, 2)), False),
    (Coeff.q_power(-3), False),
    (Coeff.one() + Coeff.q_power(1), True),
    (Coeff.quantum(2) * Coeff.gamma_power(2), False),
    (Coeff.one() + Coeff.gamma_power(-1), True),
    (Coeff.one() / (Coeff.one() - Coeff.q_power(2)), False),
    (Coeff.one() / (Coeff.one() - Coeff.q_power(2)) + Coeff.gamma_power(2), True),
], ids=["zero", "rational", "half-power", "laurent-sum", "gamma-product", "two-gammas",
        "fraction", "fraction-plus-gamma"])
def test_prints_as_sum_examples(c, expected):
    assert prints_as_sum(c) is expected
    assert needs_parens(format_coeff(c)) is expected


# ---------------------------------------------------------------------------
# QRat arithmetic against the reference


def as_tuple(r):
    return (r.scale, r.shift, r.num, r.den)


def is_canonical(r):
    if r.is_zero:
        return as_tuple(r) == as_tuple(QRat.zero())
    return all(
        p[0] != 0 and p[-1] > 0 and math.gcd(*p) == 1 for p in (r.num, r.den)
    ) and as_tuple(canon(r.scale, r.shift, r.num, r.den)) == as_tuple(r)


@st.composite
def integer_laurents(draw):
    """Canonical Laurent QRats with integer coefficients and a rational scale."""
    terms = draw(st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-5, max_value=5).filter(bool),
        min_size=1, max_size=5,
    ))
    return QRat.from_laurent(terms) * QRat.rational(draw(small_rationals))


def laurent_ints(*coeffs, shift=0):
    return QRat.from_laurent({shift + i: c for i, c in enumerate(coeffs) if c})


# 1/(1+q), (1+q^2)/(2-q^(1/2)), q^(-3/2)/(1-q)^2: each carries a denominator
NON_LAURENT = [
    QRat.one() / laurent_ints(1, 0, 1),
    laurent_ints(1, 0, 0, 0, 1) / laurent_ints(2, -1),
    QRat.q_power(-3) / laurent_ints(1, 0, -2, 0, 1),
]


@settings(max_examples=150, deadline=None)
@given(integer_laurents(), integer_laurents())
def test_laurent_product_matches_canon(a, b):
    assert as_tuple(a * b) == as_tuple(canon_product(a, b))
    assert (a * b).den == (1,)
    one = QRat.one()
    assert as_tuple(a * one) == as_tuple(one * a) == as_tuple(a)


@settings(max_examples=100, deadline=None)
@given(integer_laurents(), integer_laurents())
def test_exact_laurent_quotient_matches_canon(a, b):
    ab = a * b
    assert as_tuple(ab / b) == as_tuple(canon_quotient(ab, b))
    assert as_tuple(ab / b) == as_tuple(a)


@settings(max_examples=100, deadline=None)
@given(integer_laurents(), integer_laurents())
def test_any_laurent_quotient_matches_canon(a, b):
    # exact or not: the fast path and the general path agree, and the
    # result is canonical either way
    got = a / b
    assert as_tuple(got) == as_tuple(canon_quotient(a, b))
    assert is_canonical(got)


@settings(max_examples=100, deadline=None)
@given(integer_laurents())
def test_division_by_q_diff_matches_canon(a):
    assert as_tuple((a * Q_DIFF) / Q_DIFF) == as_tuple(a)
    assert as_tuple(a / Q_DIFF) == as_tuple(canon_quotient(a, Q_DIFF))


@settings(max_examples=100, deadline=None)
@given(integer_laurents(), st.sampled_from(NON_LAURENT))
def test_mixed_operands_match_canon(a, r):
    for x, y in ((a, r), (r, a), (r, r)):
        assert as_tuple(x * y) == as_tuple(canon_product(x, y))
        assert as_tuple(x / y) == as_tuple(canon_quotient(x, y))
        assert is_canonical(x * y) and is_canonical(x / y)


def top_term(r):
    return QRat.q_power(r.shift + len(r.num) - 1) * QRat.rational(r.scale * r.num[-1])


@st.composite
def laurent_sums(draw):
    """Two Laurent values with fractional scales whose sum is unconstrained,
    cancels completely, loses its lowest or its top term, or has integer
    content > 1 (the top coefficient is negative in about half the draws)."""
    a, d = draw(integer_laurents()), draw(integer_laurents())
    kind = draw(st.sampled_from(("any", "negation", "lowest", "top", "content")))
    if kind == "any":
        return a, d
    if kind == "negation":
        return a, -a
    if kind == "lowest":
        low = QRat.q_power(a.shift) * QRat.rational(a.scale * a.num[0])
        return a, d * QRat.q_power(a.shift + 1 - d.shift) - low
    if kind == "top":
        gap = (a.shift + len(a.num)) - (d.shift + len(d.num)) - 1
        return a, d * QRat.q_power(gap) - top_term(a)
    return a, d * QRat.rational(draw(st.integers(min_value=2, max_value=6))) - a


@settings(max_examples=300, deadline=None)
@given(laurent_sums())
def test_laurent_sum_matches_canon(ab):
    a, b = ab
    got = a + b
    assert as_tuple(got) == as_tuple(canon_sum(a, b))
    assert as_tuple(b + a) == as_tuple(got)
    assert is_canonical(got)


class TestLaurentSumCases:
    def test_full_cancellation(self):
        a = laurent_ints(3, 0, -1, shift=-2) * QRat.rational(Fraction(2, 3))
        assert (a + (-a)) is QRat.zero()

    def test_lowest_and_top_terms_cancel(self):
        a = laurent_ints(1, 2, 3, shift=-1)
        got = a + laurent_ints(-1, shift=-1) + laurent_ints(-3, shift=1)
        assert as_tuple(got) == (Fraction(2), 0, (1,), (1,))

    def test_content_and_negative_top(self):
        # (2 - 4q^(1/2)) / 3 + (4 - 2q^(1/2)) / 3 = 2 - 2q^(1/2)
        a = laurent_ints(2, -4) * QRat.rational(Fraction(1, 3))
        b = laurent_ints(4, -2) * QRat.rational(Fraction(1, 3))
        assert as_tuple(a + b) == (Fraction(-2), 0, (-1, 1), (1,))


class TestLaurentDivisionCases:
    def test_inexact_falls_back_to_canon(self):
        r = QRat.one() / laurent_ints(1, 0, 1)  # 1/(1 + q)
        assert as_tuple(r) == (Fraction(1), 0, (1,), (1, 0, 1))
        assert is_canonical(r)

    def test_inexact_with_remainder(self):
        # (q^2 + 1)/(q + 1) leaves remainder 2
        a, b = laurent_ints(1, 0, 0, 0, 1), laurent_ints(1, 0, 1)
        assert as_tuple(a / b) == as_tuple(canon_quotient(a, b))
        assert (a / b).den == (1, 0, 1)

    def test_by_monomial(self):
        a = laurent_ints(3, -1, 0, 2, shift=-2)
        got = a / QRat.q_power(5) / QRat.rational(Fraction(2, 3))
        assert as_tuple(got) == (a.scale * Fraction(3, 2), a.shift - 5, a.num, (1,))

    def test_by_q_diff(self):
        q4m1 = laurent_ints(-1, 0, 0, 0, 0, 0, 0, 0, 1, shift=-4)  # q^2 - q^-2
        assert q4m1 / Q_DIFF == quantum_int(2)

    def test_divisor_lead_not_unit(self):
        b = laurent_ints(1, 0, 3)  # 1 + 3q
        a = b * laurent_ints(2, 1, 0, 5)
        assert as_tuple(a / b) == as_tuple(canon_quotient(a, b))
        assert (a / b).den == (1,)
        # not exact over the integers: the step quotient 5/3 is not integral
        c = laurent_ints(1, 0, 5)
        assert as_tuple(c / b) == as_tuple(canon_quotient(c, b))
        assert (c / b).den == b.num


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=13),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=13),
)
def test_pmul_matches_dense_product(a, b):
    a, b = naive_pmul(tuple(a), (1,)), naive_pmul(tuple(b), (1,))  # trimmed
    assert _pmul(a, b) == naive_pmul(a, b)


# ---------------------------------------------------------------------------
# the sparse Coeff against the {gamma: QRat} form it replaced


class RefCoeff:
    """{gamma half-exponent: QRat}, with the arithmetic and printing Coeff
    had before its sparse form, each term computed by the reference
    arithmetic: the reference for the tests below."""

    def __init__(self, terms):
        self.terms = {g: r for g, r in terms.items() if not r.is_zero}

    def __add__(self, other):
        out = dict(self.terms)
        for g, r in other.terms.items():
            out[g] = canon_sum(out[g], r) if g in out else r
        return RefCoeff(out)

    def __neg__(self):
        return RefCoeff({g: ref_neg(r) for g, r in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for g1, r1 in self.terms.items():
            for g2, r2 in other.terms.items():
                g, r = g1 + g2, canon_product(r1, r2)
                out[g] = canon_sum(out[g], r) if g in out else r
        return RefCoeff(out)

    def __truediv__(self, other):
        (g0, r0), = other.terms.items()
        return RefCoeff({g - g0: canon_quotient(r, r0) for g, r in self.terms.items()})

    def valuation(self):
        return min((r.shift for r in self.terms.values()), default=math.inf)

    def reduce_at_zero(self):
        if self.valuation() < 0:
            raise CoefficientError("pole at q = 0")
        return {g: v for g, r in self.terms.items() if (v := r.at_zero())}

    def specialize_gamma_one(self):
        total = QRat.zero()
        for r in self.terms.values():
            total = canon_sum(total, r)
        return RefCoeff({0: total})

    def congruent_mod_q2(self, target):
        return (self - RefCoeff({0: ref_laurent({0: target})})).valuation() >= 4

    def items(self):
        return sorted(self.terms.items())

    def format(self):
        parts = []
        for g, r in self.items():
            text = ref_format_term(r, g)
            if not parts:
                parts.append(text)
            elif text.startswith("-"):
                parts.append(" - " + text[1:])
            else:
                parts.append(" + " + text)
        return "".join(parts) or "0"


def ref_format_power(name, halfexp):
    if halfexp % 2 == 0:
        e = halfexp // 2
        return name if e == 1 else f"{name}^{e}"
    return f"{name}^({halfexp}/2)"


def ref_format_laurent(terms):
    parts = []
    for e, c in terms:
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            pw = ref_format_power("q", e)
            body = pw if mag == 1 else f"{mag}*{pw}"
        parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
    return "".join(parts)


def ref_format_term(r, g):
    """One gamma term as QRat fields print it: a plain polynomial without
    gamma, else sign, scale, q-shift, (num)/(den) and the gamma power."""
    if r.den == (1,) and g == 0:
        return ref_format_laurent([(r.shift + i, r.scale * c) for i, c in enumerate(r.num) if c])
    factors = []
    if abs(r.scale) != 1:
        factors.append(str(abs(r.scale)))
    if r.shift != 0:
        factors.append(ref_format_power("q", r.shift))
    num = ref_format_laurent([(i, Fraction(c)) for i, c in enumerate(r.num) if c])
    den = ref_format_laurent([(i, Fraction(c)) for i, c in enumerate(r.den) if c])
    if r.num != (1,) and r.den != (1,):
        factors.append(f"({num})/({den})")
    elif r.num != (1,):
        factors.append(f"({num})")
    elif r.den != (1,):
        factors.append(f"1/({den})")
    if g != 0:
        factors.append(ref_format_power("g", g))
    return ("-" if r.scale < 0 else "") + "*".join(factors or ["1"])


@st.composite
def gamma_terms(draw, max_terms=3):
    """{gamma half-exponent: QRat}: Laurent values with fractional
    coefficients and half exponents, or with a denominator in about a
    third of the terms, over up to max_terms gamma half-exponents."""
    keys = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=1,
                         max_size=max_terms, unique=True))
    return {
        g: draw(st.one_of(laurents(allow_zero=True), laurents(), qrats(allow_zero=True)))
        for g in keys
    }


def ref_gcd_degree(polys):
    """Degree of the gcd of ascending integer polynomials; -1 if all of them
    are zero."""
    g = ()
    for p in polys:
        g = ref_gcd(g, p)
    return len(g) - 1


def in_one_form(c):
    """N / (d * D): N a map of nonzero ints, d a positive int prime to them,
    and D a primitive integer polynomial with nonzero constant term and
    positive top coefficient that shares no factor of positive degree with
    all the gamma terms of N; a Laurent value holds the shared (1,)."""
    t, d, D = c._t, c._d, c._D
    by_gamma = {}
    for (g, e), v in t.items():
        by_gamma.setdefault(g, {})[e] = v
    polys = [[vs.get(e, 0) for e in range(min(vs), max(vs) + 1)] for vs in by_gamma.values()]
    return (
        all(type(v) is int and v for v in t.values())
        and type(d) is int and d > 0 and math.gcd(d, *t.values()) == 1
        and type(D) is tuple and all(type(x) is int for x in D)
        and D[0] != 0 and D[-1] > 0 and math.gcd(*D) == 1
        and (D is _ONE if D == (1,) else ref_gcd_degree([D, *polys]) == 0)
    )


def same(c, ref):
    """Coeff c is in canonical form, equal to the Coeff built from the
    reference terms, and has the pairs and the text of the reference."""
    return (
        in_one_form(c)
        and c == Coeff(ref.terms)
        and list(c.items()) == ref.items()
        and format_coeff(c) == ref.format()
    )


@settings(max_examples=100, deadline=None)
@given(gamma_terms(), gamma_terms())
def test_sparse_arithmetic_matches_reference(ta, tb):
    a, b = Coeff(ta), Coeff(tb)
    ra, rb = RefCoeff(ta), RefCoeff(tb)
    assert same(a, ra) and same(b, rb)
    assert same(a + b, ra + rb)
    assert same(a - b, ra - rb)
    assert same(-a, -ra)
    assert same(a * b, ra * rb)
    assert (a + b == b + a) and (a - a).is_zero


@settings(max_examples=100, deadline=None)
@given(gamma_terms(), qrats(), st.integers(min_value=-3, max_value=3))
def test_sparse_homogeneous_division_matches_reference(ta, r, g):
    a, ra = Coeff(ta), RefCoeff(ta)
    for divisor in (r, QRat.q_power(g) * QRat.rational(r.scale)):
        assert same(a / Coeff({g: divisor}), ra / RefCoeff({g: divisor}))


@settings(max_examples=60, deadline=None)
@given(gamma_terms(), st.sampled_from([0, 1, -1, Fraction(1, 2), 3]))
def test_sparse_inspection_matches_reference(ta, target):
    a, ra = Coeff(ta), RefCoeff(ta)
    assert a.valuation() == ra.valuation()
    if ra.valuation() < 0:
        with pytest.raises(CoefficientError):
            a.reduce_at_zero()
    else:
        assert a.reduce_at_zero() == ra.reduce_at_zero()
    assert same(a.specialize_gamma_one(), ra.specialize_gamma_one())
    assert congruent_mod_q2(a, target) == ra.congruent_mod_q2(target)
    assert a.is_gamma_free() == all(g == 0 for g in ra.terms)


@settings(max_examples=60, deadline=None)
@given(gamma_terms())
def test_built_in_the_form_of_its_value(ta):
    c = Coeff(ta)
    assert in_one_form(c)
    assert (c._D is _ONE) == all(r.den == (1,) for r in ta.values())


@settings(max_examples=60, deadline=None)
@given(gamma_terms(), gamma_terms(), st.sampled_from(NON_LAURENT))
# one value that has gamma terms, d = 6 and D = 1 + q, of positive degree
@example({-2: laurent({0: Fraction(1, 2), 4: 1}), 1: QRat.one() / laurent_ints(1, 0, 1),
          3: laurent({-1: Fraction(-1, 3)})},
         {0: QRat.one() / laurent_ints(2, -1)}, NON_LAURENT[0])
def test_hash_agrees_with_equality(ta, tb, r):
    pieces = [Coeff.from_qrat(x, g) for g, x in ta.items()]
    forward = sum(pieces, Coeff.zero())
    b = Coeff(tb)
    for one, other in (
        (forward, sum(reversed(pieces), Coeff.zero())),
        (forward, forward + b - b),
        (forward, forward / r * r),
    ):
        assert one == other and hash(one) == hash(other)


def inverse(*laurent_terms):
    """1 / (sum of c q^(e/2) over (e, c) pairs) as a Coeff."""
    return Coeff.from_qrat(QRat.one() / laurent(dict(laurent_terms)))


class TestOneForm:
    def test_a_cancelled_denominator_leaves_the_shared_one(self):
        one_plus_q = Coeff.one() + Coeff.q_power(2)
        for c in (
            inverse((0, 1), (2, 1)) * one_plus_q,
            inverse((0, 1), (2, 1)) + Coeff.q_power(2) * inverse((0, 1), (2, 1)),
            one_plus_q / one_plus_q,
            inverse((0, 1), (2, 1)) - inverse((0, 1), (2, 1)),
        ):
            assert in_one_form(c) and c._D is _ONE and c.valuation() in (0, math.inf)

    def test_sum_over_a_common_factor(self):
        # 1/(1+q) + g/(1-q^2): D is -1+q^2 in s = q^(1/2), with a positive top
        c = inverse((0, 1), (2, 1)) + inverse((0, 1), (4, -1)) * Coeff.gamma_power(2)
        assert in_one_form(c) and c._D == (-1, 0, 0, 0, 1)
        assert format_coeff(c) == "1/(1+q) - 1/(-1+q^2)*g"

    def test_a_factor_of_only_one_gamma_term_stays(self):
        # ((1+q) g + q)/(1+q): 1+q divides the g term only, so it stays
        one_plus_q = Coeff.one() + Coeff.q_power(2)
        c = inverse((0, 1), (2, 1)) * (one_plus_q * Coeff.gamma_power(2) + Coeff.q_power(2))
        assert in_one_form(c) and c._D == (1, 0, 1)
        assert [r.den for _, r in c.items()] == [(1, 0, 1), (1,)]

    def test_specialization_cancels_the_denominator(self):
        # (g + q)/(1+q) at g = 1 is 1
        c = inverse((0, 1), (2, 1)) * (Coeff.gamma_power(2) + Coeff.q_power(2))
        assert in_one_form(c) and c._D == (1, 0, 1)
        assert c.specialize_gamma_one() == Coeff.one()
        assert c.specialize_gamma_one()._D is _ONE

    def test_inspection_reads_the_denominator(self):
        c = inverse((0, 2), (2, 1)) * Coeff.rational(3)  # 3/(2+q)
        assert c.reduce_at_zero() == {0: Fraction(3, 2)}
        assert c.valuation() == 0 and c.is_gamma_free()
        assert (c * Coeff.q_power(-2)).valuation() == -2


def test_quantum_matches_quantum_int():
    for n in range(-40, 41):
        assert Coeff.quantum(n) == Coeff.from_qrat(quantum_int(n)), n
