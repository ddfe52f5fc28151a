"""Annihilation operators: recursion, closed-formula oracle, relations."""

import inspect
import random
import sys
from functools import cache, partial
from itertools import product
from math import prod

import pytest

from imcrystal.qcoeff import Coeff, g_coeff, g_coeff_bar
from imcrystal import kashiwara
from imcrystal.qalgebra import Element, Weight, _linear_sum, enumerate_all, normalize_word
from imcrystal.kashiwara import (
    PHI,
    PSI,
    RELATIONS,
    _compositions,
    _kernel,
    check_kashiwara_relation,
    omega_apply,
    omega_at_one,
    omega_mono,
    omega_psi_closed,
)


def x(*indices):
    return Element.monomial(indices)


def omega_phi_closed(p, mono):
    """Deletion-slot summation formula for the phi-side operator, the mirror
    of omega_psi_closed: sums over the removed slot l and compositions
    (r_1 .. r_{l-1}) with sum r_j = -(p + n_l); each term lowers the prefix
    indices by the r_j, deletes slot l, multiplies the gbar factors and
    carries gamma^-p."""
    gp = Coeff.gamma_power(-2 * p)
    return _linear_sum(
        (
            normalize_word(tuple(n - r for n, r in zip(mono, rs)) + mono[l:]),
            prod((Coeff.from_qrat(g_coeff_bar(r)) for r in rs), start=gp),
        )
        for l in range(1, len(mono) + 1)
        for rs in _compositions(-(p + mono[l - 1]), l - 1)
    )


@cache
def gamma_kernel(sign, r):
    """The kernel of the recursion with gamma kept: q^(2 sign) for r = 0,
    else q^(sign(2r+2)) - q^(sign(2r-2)) times gamma^r."""
    if r == 0:
        return Coeff.q_power(4 * sign)
    return (Coeff.q_power(sign * (4 * r + 4)) - Coeff.q_power(sign * (4 * r - 4))) * (
        Coeff.gamma_power(2 * r)
    )


@cache
def omega_gamma(kind, p, mono):
    """The component recursion with gamma kept, as the module docstring
    states it, kept as an oracle for the gamma = 1 table: the kernel carries
    gamma^r and the delta term gamma^(sign p)."""
    if not mono:
        return Element.zero()
    sign = 1 if kind == PSI else -1
    m, rest = mono[0], mono[1:]
    rmax = sign * p + (max(rest) if sign > 0 else -min(rest)) if rest else -1
    pieces = [(normalize_word(rest), Coeff.gamma_power(2 * sign * p))] if p == -m else []
    for r in range(rmax + 1):
        c = gamma_kernel(sign, r)
        pieces.extend(
            (normalize_word((m + sign * r,) + w), d * c)
            for w, d in omega_gamma(kind, p - sign * r, rest)._terms.items()
        )
    return _linear_sum(pieces)


def residual_four_terms(relation, comps, e):
    """The relation residuals with every four-term identity written out term
    by term, an oracle for the q-commutator form of `kashiwara._residual`.
    The operators are read from the module at each call, so a patched
    operator reaches both."""
    x, omega = kashiwara._x, kashiwara.omega_apply
    q2, one = Coeff.q_power(4), Coeff.one()
    gam = Coeff.gamma_power  # in half units of the gamma exponent
    if relation in ("omegapsi-x", "omegaphi-x"):
        kind = PSI if relation == "omegapsi-x" else PHI
        s, (m, n) = (1 if kind == PSI else -1), comps
        left = omega(kind, m, x(n + 1, e)) * q2 - x(n + 1, omega(kind, m, e))
        right = omega(kind, m + 1, x(n, e)) - x(n, omega(kind, m + 1, e)) * q2
        out = left * gam(1 + s) - right * gam(1 - s)
        if m == -n - 1:
            out = out - e * ((q2 - one) * gam(2 * s * m + 1 + s))
        return out
    if relation in ("psi-psi", "phi-phi"):
        kind = PSI if relation == "psi-psi" else PHI
        k, l = comps
        return (
            omega(kind, k + 1, omega(kind, l, e)) * q2
            - omega(kind, l, omega(kind, k + 1, e))
            - omega(kind, k, omega(kind, l + 1, e))
            + omega(kind, l + 1, omega(kind, k, e)) * q2
        )
    if relation == "phi-psi":
        k, m = comps
        out = omega(PSI, k, omega(PHI, m, e))
        rmax = max((k + max(mono) for mono in e._terms if mono), default=-1)
        for r in range(rmax + 1):
            out = out - omega(PHI, m + r, omega(PSI, k - r, e)) * (_kernel(-1, r) * gam(4 * r))
        return out
    k, l = comps  # serre-x
    return x(l, x(k + 1, e)) - x(k + 1, x(l, e)) * q2 - x(l + 1, x(k, e)) * q2 + x(k, x(l + 1, e))


HOMOGENEITY_CASES = [
    (kind, p, mono)
    for kind in (PSI, PHI) for mono in enumerate_all(4, (-3, 3)) for p in range(-7, 8)
]


@pytest.mark.parametrize("sign,series", [(1, g_coeff), (-1, g_coeff_bar)])
def test_kernel_is_the_series_term_times_gamma(sign, series):
    # the table's kernel is the series term alone; the oracle's carries gamma^r
    for r in range(12):
        assert _kernel(sign, r) == Coeff.from_qrat(series(r))
        assert gamma_kernel(sign, r) == Coeff.from_qrat(series(r), 2 * r)


class TestRecursionExamples:
    def test_delta_base(self):
        assert omega_mono(PSI, 0, (0,)) == Element.one()

    def test_kills_unit(self):
        assert omega_mono(PSI, 3, ()).is_zero
        assert omega_mono(PHI, 3, ()).is_zero

    def test_one_unrolling(self):
        assert omega_mono(PSI, 0, (1, 0)) == Element({(1,): Coeff.q_power(4)})

    def test_delta_with_gamma(self):
        assert omega_mono(PSI, -1, (1, 0)) == Element({(0,): Coeff.gamma_power(-2)})

    def test_gamma_one_specialization(self):
        e = omega_mono(PSI, -1, (1, 0)).specialize_gamma_one()
        assert e == x(0)

    def test_linear_extension(self):
        e = x(1, 0) * Coeff.rational(2) + x(0, 0)
        assert omega_apply(PSI, 0, e) == omega_mono(PSI, 0, (1, 0)) * 2 + omega_mono(
            PSI, 0, (0, 0)
        )

    def test_phi_single_factor(self):
        assert omega_mono(PHI, -2, (2,)) == Element({(): Coeff.gamma_power(4)})
        assert omega_mono(PHI, 1, (2,)).is_zero

    def test_named_component(self):
        op = partial(omega_apply, PSI, 0)
        assert op(x(1, 0)) == Element({(1,): Coeff.q_power(4)})

    def test_unknown_kind_raises_before_the_memo(self):
        # also on the empty monomial, and without storing an entry
        before = dict(kashiwara._OMEGA_CACHE)
        for e in (Element.one(), x(1, 0)):
            with pytest.raises(ValueError, match="unknown operator kind 'bogus'"):
                omega_apply("bogus", 0, e)
        assert kashiwara._OMEGA_CACHE == before

    @pytest.mark.parametrize("operator", [omega_apply, omega_at_one])
    @pytest.mark.parametrize("e", [Element.zero(), x(1)], ids=["zero", "x1"])
    def test_unknown_kind_raises_on_every_element(self, operator, e):
        # the kind is read before any term, so a zero element has no way round it
        with pytest.raises(ValueError, match="unknown operator kind 'bogus'"):
            operator("bogus", 3, e)

    @pytest.mark.parametrize("mono", [(), (1, 0)])
    def test_unknown_kind_raises_on_every_monomial(self, mono):
        with pytest.raises(ValueError, match="unknown operator kind 'bogus'"):
            omega_mono("bogus", 3, mono)


class TestClosedFormula:
    def test_examples(self):
        assert omega_psi_closed(0, (0,)) == Element.one()
        assert omega_psi_closed(0, (1, 0)) == Element({(1,): Coeff.q_power(4)})
        assert omega_psi_closed(5, (0,)).is_zero

    def test_oracle_equivalence(self):
        for mono in enumerate_all(3, (-2, 2)):
            for p in range(-5, 6):
                assert omega_psi_closed(p, mono) == omega_mono(PSI, p, mono), (p, mono)

    def test_phi_oracle_equivalence(self):
        cases = [(p, mono) for mono in enumerate_all(3, (-2, 2)) for p in range(-6, 7)]
        assert len(cases) == 728
        for p, mono in cases:
            assert omega_phi_closed(p, mono) == omega_mono(PHI, p, mono), (p, mono)

    def test_compositions_in_lexicographic_order(self):
        for total in range(-1, 6):
            for parts in range(5):
                expected = [t for t in product(range(total + 1), repeat=parts) if sum(t) == total]
                assert list(_compositions(total, parts)) == expected, (total, parts)

    def test_compositions_do_not_recurse(self):
        # one part per factor of a long word, with the stack bounded well
        # below one frame per part
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            comps = list(_compositions(1, 500))
        finally:
            sys.setrecursionlimit(limit)
        assert comps == [tuple(int(i == j) for i in range(500)) for j in reversed(range(500))]

    def test_long_word_does_not_recurse(self, cold):
        # cold chains of 319 factors, with the stack bounded well below one
        # frame per factor
        cold(kashiwara._OMEGA_CACHE)
        n = 320
        mono = (1,) + (0,) * (n - 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            psi, phi = omega_mono(PSI, 0, mono), omega_mono(PHI, 0, mono)
        finally:
            sys.setrecursionlimit(limit)
        assert psi == omega_psi_closed(0, mono)
        # phi(0) x[0]^k = (1 + q^-2 + ... + q^(-2(k-1))) x[0]^(k-1), and x[1]
        # in front contributes q^-2
        runs = sum((Coeff.q_power(-4 * j) for j in range(n - 1)), Coeff.zero())
        assert phi == Element({mono[:-1]: Coeff.q_power(-4) * runs})


class TestInvariants:
    def test_gamma_homogeneity(self):
        # every term of a psi(p) image carries gamma^p, every term of a phi(p)
        # image gamma^-p, times its value at gamma = 1; asserted on the
        # recursion with gamma kept, since the table assumes it
        assert len(HOMOGENEITY_CASES) == 9900
        for kind, p, mono in HOMOGENEITY_CASES:
            gp = Coeff.gamma_power(2 * (p if kind == PSI else -p))
            for _, c in omega_gamma(kind, p, mono).items():
                assert c == c.specialize_gamma_one() * gp, (kind, p, mono)

    def test_table_read_matches_the_gamma_recursion(self):
        for kind, p, mono in HOMOGENEITY_CASES:
            assert omega_mono(kind, p, mono) == omega_gamma(kind, p, mono), (kind, p, mono)

    def test_gamma_one_reader_matches_specialization(self):
        # seeded sums of normal monomials with q-power coefficients; on
        # gamma-carrying coefficients omega_apply still equals the sum of the
        # monomial images
        rng = random.Random(21)
        monos = enumerate_all(4, (-3, 3))
        for _ in range(300):
            terms = {
                mono: Coeff.q_power(rng.randint(-4, 4)) * rng.choice((-2, -1, 1, 3))
                for mono in rng.sample(monos, rng.randint(2, 6))
            }
            e = Element(terms)
            kind, p = rng.choice((PSI, PHI)), rng.randint(-7, 7)
            assert omega_at_one(kind, p, e) == omega_apply(kind, p, e).specialize_gamma_one()
            g = Element({mono: c * Coeff.gamma_power(rng.randint(-3, 3))
                         for mono, c in terms.items()})
            assert omega_apply(kind, p, g) == _linear_sum(
                (omega_mono(kind, p, mono), c) for mono, c in g._terms.items()
            ), (kind, p, g)

    def test_serre_compatibility(self, cold):
        # the recursion run on a word that is not normal gives the image of
        # its normal form, so it is well defined on the quotient by the Serre
        # relations; the raw words' entries stay out of other tests
        cold(kashiwara._OMEGA_CACHE)
        rng = random.Random(20)
        for _ in range(3000):
            word = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 5)))
            p = rng.randint(-5, 5)
            normal = normalize_word(word)
            for kind in (PSI, PHI):
                assert omega_mono(kind, p, word) == omega_apply(kind, p, normal), (kind, p, word)


class TestSupport:
    @pytest.mark.parametrize("kind", [PSI, PHI])
    def test_delta_support_is_exact(self, kind):
        # omega(p - s r) is nonzero on mono at r = _reach and zero past it
        s = 1 if kind == PSI else -1
        for mono in enumerate_all(4, (-3, 3)):
            for p in range(-7, 8):
                reach = kashiwara._reach(s, p, mono)
                if reach >= 0:
                    assert not omega_mono(kind, p - s * reach, mono).is_zero, (p, mono)
                for r in range(reach + 1, reach + 4):
                    assert omega_mono(kind, p - s * r, mono).is_zero, (p, r, mono)

    def test_psi_kills_below_support(self):
        for mono in enumerate_all(3, (-2, 2)):
            if not mono:
                continue
            for p in range(-8, -max(mono)):
                assert omega_mono(PSI, p, mono).is_zero, (p, mono)

    def test_phi_kills_above_support(self):
        for mono in enumerate_all(3, (-2, 2)):
            if not mono:
                continue
            for p in range(-min(mono) + 1, 8):
                assert omega_mono(PHI, p, mono).is_zero, (p, mono)

    def test_weight_shift(self):
        for mono in enumerate_all(3, (-2, 2)):
            if not mono:
                continue
            for p in range(-5, 6):
                img = omega_mono(PSI, p, mono)
                if not img.is_zero:
                    assert img.weight() == Weight(len(mono) - 1, sum(mono) + p)


class TestRelations:
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_passes_small(self, relation):
        rep = check_kashiwara_relation(relation, (-1, 1), max_length=2, window=(-1, 1))
        assert rep.passed, rep.witnesses[:3]
        assert rep.checked > 0

    def test_report_serialization(self):
        rep = check_kashiwara_relation("psi-psi", (0, 1), max_length=1, window=(0, 1))
        assert rep.passed
        assert rep.name == "psi-psi"

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            check_kashiwara_relation("nope", (0, 0))

    def test_equal_components_degenerate(self):
        rep = check_kashiwara_relation("psi-psi", (1, 1), max_length=2, window=(-1, 1))
        assert rep.passed

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_inverted_component_range_raises(self, relation):
        with pytest.raises(ValueError, match="empty range 2:-2: need a <= b"):
            check_kashiwara_relation(relation, (2, -2))

    def test_q_commutator_form_matches_the_four_term_formulas(self, monkeypatch):
        # scaling the image of every odd index by q breaks each relation, so
        # many of the residuals compared are nonzero and carry their signs
        q, one = Coeff.q_power(2), Coeff.one()
        x, omega = kashiwara._x, kashiwara.omega_apply
        monkeypatch.setattr(kashiwara, "_x", lambda n, e: x(n, e) * (q if n % 2 else one))
        monkeypatch.setattr(
            kashiwara, "omega_apply", lambda kind, p, e: omega(kind, p, e) * (q if p % 2 else one)
        )
        nonzero = dict.fromkeys(RELATIONS, 0)
        for relation in RELATIONS:
            for comps in product(range(-2, 3), repeat=2):
                for mono in enumerate_all(2, (-1, 1)):
                    e = Element.monomial(mono)
                    got = kashiwara._residual(relation, comps, e)
                    assert got == residual_four_terms(relation, comps, e), (relation, comps, mono)
                    nonzero[relation] += not got.is_zero
        assert all(nonzero.values()), nonzero
