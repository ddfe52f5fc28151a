"""Coeff and QRat against sympy's rational functions, an oracle independent
of both.

Each drawn value is built twice from the same terms: as a Coeff, and as
{gamma half-exponent: rational function of s} in sympy, with s = q^(1/2);
or as a QRat, and as one rational function of s.  Results of Coeff are read
back through the public items(), results of QRat through its fields, and
compared with what sympy computes on its side.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from imcrystal import pairing
from imcrystal.qalgebra import Weight
from imcrystal.qcoeff import Coeff, CoefficientError, QRat, congruent_mod_q2

sympy = pytest.importorskip("sympy")

S = sympy.Symbol("s")


def rational(x):
    return sympy.Rational(x.numerator, x.denominator)


@st.composite
def pairs(draw):
    """A small Coeff and its sympy value; a non-Laurent one in about half
    the draws, divided by 1 + a*s^k."""
    c, x = Coeff.zero(), {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        g = draw(st.integers(min_value=-2, max_value=2))
        e = draw(st.integers(min_value=-3, max_value=3))
        v = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        c = c + Coeff.rational(v) * Coeff.q_power(e) * Coeff.gamma_power(g)
        x[g] = x.get(g, 0) + rational(v) * S**e
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=2))
        a = draw(st.sampled_from([-2, -1, 1, 2]))
        c = c / (Coeff.one() + Coeff.q_power(k) * a)
        x = {g: f / (1 + a * S**k) for g, f in x.items()}
    return c, x


@st.composite
def homogeneous(draw):
    """A nonzero gamma-homogeneous Coeff and its sympy value."""
    c, x = draw(pairs())
    g = draw(st.integers(min_value=-2, max_value=2))
    c = c.specialize_gamma_one() + Coeff.q_power(7)
    f = sum(x.values()) + S**7
    return c * Coeff.gamma_power(g), {g: f}


@st.composite
def qrats(draw, denominator=True):
    """A QRat and its sympy value, divided by 1 + a*s^k when denominator is
    True, else in about half the draws."""
    terms = draw(st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        min_size=1, max_size=3,
    ))
    r = QRat.from_laurent(terms)
    f = sum(rational(v) * S**e for e, v in terms.items())
    if denominator or draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=2))
        a = draw(st.sampled_from([-2, -1, 1, 2]))
        r = r / QRat.from_laurent({0: 1, k: a})
        f = f / (1 + a * S**k)
    return r, f


def qrat_to_sympy(r):
    return (rational(r.scale) * S**r.shift
            * sum(a * S**i for i, a in enumerate(r.num))
            / sum(b * S**i for i, b in enumerate(r.den)))


def to_sympy(c):
    return {g: qrat_to_sympy(r) for g, r in c.items()}


def same(c, x):
    got = to_sympy(c)
    return all(sympy.cancel(got.get(g, 0) - x.get(g, 0)) == 0 for g in set(got) | set(x))


def lowest_degree(p):
    return min(m[0] for m in sympy.Poly(p, S).monoms())


def order(f):
    """s-adic valuation of a rational function of s; +inf for zero."""
    f = sympy.cancel(f)
    if f == 0:
        return math.inf
    num, den = sympy.fraction(f)
    return lowest_degree(num) - lowest_degree(den)


def valuation(x):
    return min((order(f) for f in x.values()), default=math.inf)


@settings(max_examples=30, deadline=None)
@given(pairs(), pairs())
def test_arithmetic_matches_sympy(ax, by):
    (a, x), (b, y) = ax, by
    assert same(a, x) and same(b, y)
    total = dict(x)
    for g, f in y.items():
        total[g] = total.get(g, 0) + f
    assert same(a + b, total)
    assert same(a - b, {g: x.get(g, 0) - y.get(g, 0) for g in set(x) | set(y)})
    prod = {}
    for g1, f1 in x.items():
        for g2, f2 in y.items():
            prod[g1 + g2] = prod.get(g1 + g2, 0) + f1 * f2
    assert same(a * b, prod)


@settings(max_examples=30, deadline=None)
@given(qrats(), qrats(denominator=False))
def test_qrat_arithmetic_matches_sympy(ax, by):
    (a, x), (b, y) = ax, by
    assert sympy.cancel(qrat_to_sympy(a) - x) == 0
    assert sympy.cancel(qrat_to_sympy(b) - y) == 0
    for got, expected in ((a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x)):
        assert sympy.cancel(qrat_to_sympy(got) - expected) == 0
    if b.is_zero:
        with pytest.raises(CoefficientError):
            a / b
    else:
        assert sympy.cancel(qrat_to_sympy(a / b) - x / y) == 0


@settings(max_examples=30, deadline=None)
@given(pairs(), homogeneous())
def test_homogeneous_division_matches_sympy(ax, by):
    (a, x), (b, y) = ax, by
    (g0, f0), = y.items()
    assert same(a / b, {g - g0: f / f0 for g, f in x.items()})


@settings(max_examples=30, deadline=None)
@given(pairs(), st.sampled_from([0, 1, -1, Fraction(1, 3)]))
def test_inspection_matches_sympy(ax, target):
    a, x = ax
    v = valuation(x)
    assert a.valuation() == v
    if v < 0:
        with pytest.raises(CoefficientError):
            a.reduce_at_zero()
    else:
        expected = {}
        for g, f in x.items():
            if order(f) == 0:
                expected[g] = sympy.cancel(f).subs(S, 0)
        got = a.reduce_at_zero()
        assert set(got) == set(expected)
        assert all(rational(got[g]) == expected[g] for g in got)
    shifted = dict(x)
    shifted[0] = shifted.get(0, 0) - rational(Fraction(target))
    assert congruent_mod_q2(a, target) == (valuation(shifted) >= 4)


def test_gram_entries_of_length_at_most_two():
    # the form is the identity on normal words of length <= 2, except that
    # (x[a]x[a], x[a]x[a]) = 1 + q^2
    window = (-5, 5)
    entries = 0
    for length in (1, 2):
        for degree in range(length * window[0], length * window[1] + 1):
            g = pairing.gram(Weight(length, degree), window)
            for i, row in enumerate(g.entries):
                for j, c in enumerate(row):
                    square = length == 2 and g.basis[i][0] == g.basis[i][1]
                    expected = (1 + S**4 if square else 1) if i == j else 0
                    assert same(c, {0: expected}), (g.basis[i], g.basis[j])
                    entries += 1
    assert entries == 267
