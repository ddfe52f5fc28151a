"""Bilinear form: frozen values, Gram matrices, membership probes."""

import random

import pytest

from imcrystal.qcoeff import Coeff
from imcrystal.qalgebra import Element, Weight, _linear_sum, enumerate_all, enumerate_basis
from imcrystal.kashiwara import PSI, omega_apply, omega_mono
from imcrystal import pairing
from imcrystal.pairing import (
    _pair_monos,
    gram,
    lattice_membership_probe,
    orthonormality_report,
    pair,
)


def x(*indices):
    return Element.monomial(indices)


ONE = Coeff.one()
Q2 = Coeff.q_power(4)


def pair_monos_recursive(ma, mb, memo):
    """The replaced evaluation, kept as an oracle: peel the leftmost factor
    of the first argument and recurse on each monomial of psi(-m) b, with
    its own memo of suffix pairs."""
    if not ma:
        return ONE if not mb else Coeff.zero()
    key = (ma, mb)
    if key not in memo:
        image = omega_mono(PSI, -ma[0], mb).specialize_gamma_one()
        memo[key] = _linear_sum(
            (Element.scalar(pair_monos_recursive(ma[1:], mono, memo)), c)
            for mono, c in image._terms.items()
        ).coefficient(())
    return memo[key]


def pair_double_loop(a, b):
    """The replaced `pair`, kept as an oracle: one cached monomial pairing
    for each (ma, mb) term pair."""
    return _linear_sum(
        (Element.scalar(_pair_monos(ma, mb)), ca * cb)
        for ma, ca in a._terms.items()
        for mb, cb in b._terms.items()
    ).coefficient(())


def pair_gamma_chain(a, b):
    """The chain as it ran on the operators with gamma kept, as an oracle for
    the gamma = 1 table: psi(-m) with gamma, then specialized, at each step."""
    total = Coeff.zero()
    for ma, ca in a._terms.items():
        e = b
        for m in ma:
            e = omega_apply(PSI, -m, e).specialize_gamma_one()
        total = total + ca * e.coefficient(())
    return total


def _bench_pair_words(rng):
    """A word and a permutation of it, drawn as the benchmark's `pair`
    requests are: 1-6 factors over x[-3..3]."""
    word = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
    other = word[:]
    rng.shuffle(other)
    return x(*word), x(*other)


class TestPairExamples:
    def test_unit(self):
        assert pair(Element.one(), Element.one()) == ONE

    def test_mismatched_degree(self):
        assert pair(x(0), x(1)).is_zero

    def test_frozen_value(self):
        assert pair(x(1, 1), x(1, 1)) == ONE + Q2

    def test_delta_blocked(self):
        assert pair(x(2, 0), x(1, 1)).is_zero

    def test_gamma_inputs_rejected(self):
        e = Element.monomial((0,), Coeff.gamma_power(2))
        with pytest.raises(ValueError):
            pair(e, x(0))

    def test_powers_closed_form(self):
        # (x[a]^n, x[a]^n) = prod over k = 1..n of (1 - q^(2k)) / (1 - q^2),
        # far past the lengths the Gram probes reach
        for a in (-2, 0, 3):
            expected = ONE
            for n in range(1, 31):
                expected = expected * ((ONE - Coeff.q_power(4 * n)) / (ONE - Q2))
                power = x(*(a,) * n)
                assert pair(power, power) == expected, (a, n)


class TestGram:
    def test_singleton(self):
        g = gram(Weight(1, 0), (-1, 1))
        assert g.basis == [(0,)]
        assert g.entries == [[ONE]]

    def test_weight_2_2(self):
        g = gram(Weight(2, 2), (0, 2))
        assert g.basis == [(2, 0), (1, 1)]
        assert g.entries[0][0] == ONE
        assert g.entries[0][1].is_zero and g.entries[1][0].is_zero
        assert g.entries[1][1] == ONE + Q2
        assert orthonormality_report(g).passed

    def test_empty_weight(self):
        g = gram(Weight(1, 5), (0, 2))
        assert g.basis == [] and g.entries == []

    def test_symmetric(self):
        g = gram(Weight(3, 0), (-2, 2))
        n = len(g.basis)
        for i in range(n):
            for j in range(n):
                assert g.entries[i][j] == g.entries[j][i]

    def test_orthonormality_grid(self):
        # diagonal congruent to 1, off-diagonal to 0 mod q^2, all weights
        for k in range(1, 4):
            for d in range(-2 * k, 2 * k + 1):
                rep = orthonormality_report(gram(Weight(k, d), (-2, 2)))
                assert rep.passed, rep.witnesses[:2]

    def test_perturbed_entry_fails(self):
        g = gram(Weight(2, 2), (0, 2))
        g.entries[0][1] = g.entries[0][1] + Coeff.q_power(2)
        rep = orthonormality_report(g)
        assert not rep.passed
        assert any("(0,1)" in w or "(1,0)" in w for w in rep.witnesses)

    def test_nondegenerate_probe(self):
        # Gram determinant nonzero on a small window (2x2 diagonal blocks)
        g = gram(Weight(2, 2), (0, 2))
        det = g.entries[0][0] * g.entries[1][1] - g.entries[0][1] * g.entries[1][0]
        assert not det.is_zero

    def test_serialization(self):
        d = gram(Weight(2, 2), (0, 2)).to_dict()
        assert d["basis"] == ["x[2]x[0]", "x[1]x[1]"]
        assert d["residues_mod_q2"] == [["1", "0"], ["0", "1"]]


class TestChain:
    def test_matches_recursive_evaluation(self, cold):
        cold(pairing._PAIR_CACHE)
        memo = {}
        monos = enumerate_all(3, (-2, 2))
        for ma in monos:
            for mb in monos:
                assert _pair_monos(ma, mb) == pair_monos_recursive(ma, mb, memo), (ma, mb)

    def test_pair_matches_double_loop(self):
        rng = random.Random(20181206)
        for _ in range(60):
            a, b = _bench_pair_words(rng)
            assert pair(a, b) == pair_double_loop(a, b), (a, b)
            assert pair(b, a) == pair_double_loop(b, a), (b, a)

    def test_pair_matches_double_loop_on_sums(self):
        rng = random.Random(7)
        for _ in range(20):
            a, b = _bench_pair_words(rng)
            c, d = _bench_pair_words(rng)
            lhs, rhs = a + c * Q2, b * Coeff.rational(-2) + d
            assert pair(lhs, rhs) == pair_double_loop(lhs, rhs)
            assert pair(rhs, lhs) == pair_double_loop(rhs, lhs)

    def test_matches_the_gamma_chain(self, cold):
        cold(pairing._PAIR_CACHE)
        rng = random.Random(20181206)
        draws = [_bench_pair_words(rng) for _ in range(60)]
        sums = [
            (a + c * Q2, b * Coeff.rational(-2) + d)
            for (a, b), (c, d) in zip(draws[::2], draws[1::2])
        ]
        for a, b in draws + sums:
            for u, v in ((a, b), (b, a)):
                assert pair(u, v) == pair_gamma_chain(u, v), (u, v)
        for a, b in draws:
            for ma in a._terms:
                for mb in b._terms:
                    for u, v in ((ma, mb), (mb, ma)):
                        expected = pair_gamma_chain(Element({u: ONE}), Element({v: ONE}))
                        assert _pair_monos(u, v) == expected, (u, v)

    def test_no_self_call(self, monkeypatch, cold):
        chain = pairing._pair_monos

        def refuse(*args):
            raise AssertionError("_pair_monos called itself")

        cold(pairing._PAIR_CACHE)
        monkeypatch.setattr(pairing, "_pair_monos", refuse)
        assert chain((1, 1), (1, 1)) == ONE + Q2
        assert pairing._PAIR_CACHE == {((1, 1), (1, 1)): ONE + Q2}


class TestProperties:
    def test_cross_length_zero(self):
        monos = enumerate_all(3, (-1, 1))
        for ma in monos:
            for mb in monos:
                if len(ma) != len(mb):
                    assert pair(
                        Element({ma: ONE}), Element({mb: ONE})
                    ).is_zero, (ma, mb)

    def _random_homogeneous(self, rng, k=None):
        k = k or rng.randint(1, 3)
        d = sum(rng.randint(-2, 2) for _ in range(k))
        basis = enumerate_basis(k, (-2, 2), d)
        e = Element.zero()
        for m in basis:
            if rng.random() < 0.6:
                e = e + Element({m: Coeff.q_power(rng.randint(-2, 2)) * rng.randint(-3, 3)})
        return e if not e.is_zero else Element({basis[0]: ONE})

    def test_symmetry_random(self):
        rng = random.Random(23)
        for _ in range(60):
            a = self._random_homogeneous(rng)
            w = a.weight()
            basis = enumerate_basis(w.length, (-2, 2), w.degree)
            b = Element.zero()
            for m in basis:
                if rng.random() < 0.6:
                    b = b + Element({m: Coeff.q_power(rng.randint(-2, 2)) * rng.randint(-2, 2)})
            assert pair(a, b) == pair(b, a)

    def test_adjointness_random(self):
        rng = random.Random(29)
        for _ in range(60):
            a = self._random_homogeneous(rng)
            b = self._random_homogeneous(rng)
            m = rng.randint(-2, 2)
            lhs = pair(Element.monomial((m,)) * a, b)
            rhs = pair(a, omega_apply(PSI, -m, b).specialize_gamma_one())
            assert lhs == rhs

    def test_weight_orthogonality(self):
        rng = random.Random(31)
        for _ in range(60):
            a = self._random_homogeneous(rng)
            b = self._random_homogeneous(rng)
            if a.weight() != b.weight():
                assert pair(a, b).is_zero


class TestMembership:
    def test_accepts_monomial_combination(self):
        assert lattice_membership_probe(x(1, 0), (-2, 2)) is None
        combo = x(1, 0) + x(0, 1) * Q2
        assert lattice_membership_probe(combo, (-2, 2)) is None

    def test_rejects_pole(self):
        pole = lattice_membership_probe(x(0) * Coeff.q_power(-2), (-2, 2))
        assert pole is not None
        assert pole.startswith("pairing against x[0] is ") and pole.endswith("(pole at 0)")

    def test_zero_passes(self):
        assert lattice_membership_probe(Element.zero(), (-2, 2)) is None

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            lattice_membership_probe(x(0) + x(1, 1), (-2, 2))
