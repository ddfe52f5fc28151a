"""Module actions on reduced highest-weight modules and their direct sums."""

import inspect
import sys
from fractions import Fraction
from math import factorial

import pytest

from imcrystal.kashiwara import _compositions
from imcrystal.qcoeff import Coeff, QRat, g_coeff, g_coeff_bar, quantum_int
from imcrystal.qalgebra import Element, _linear_sum, enumerate_all, normalize_word, parse_element
from imcrystal.verma import (
    GENERATORS,
    HighestWeight,
    VermaVector,
    _extend,
    _h_mono,
    _psi_phi_diff,
    _xplus_mono,
    act_D,
    act_h,
    act_K,
    act_xminus,
    act_xplus,
    component_swap_map,
    current_commutator,
    format_vector,
    injection_map,
    nilpotency_probe,
    projection_map,
    simplicity_probe,
    tilde_omega,
    verify_intertwining,
)


Q_DIFF = QRat.from_laurent({2: 1, -2: -1})  # q - q^-1


def x(*indices):
    return Element.monomial(indices)


def chevalley(gen, v):
    """A Chevalley generator as `act --gen` applies it: GENERATORS at k = 0."""
    return GENERATORS[gen](0, v)


# ---------------------------------------------------------------------------
# oracles: h[k] without a memo, the Cartan currents as partition sums in the
# h[k] and as per-factor kernel products, the raising action as a recursion
# over the factors, and the breadth-first raising search


def act_h_uncached(k, v):
    """h[k] as the shifted words summed per call, then scaled by -[2k]/k."""
    shifted = _extend(v, lambda mono, lam: _linear_sum(
        (normalize_word(mono[:pos] + (mono[pos] + k,) + mono[pos + 1 :]), None)
        for pos in range(len(mono))
    ))
    return shifted * (Coeff.from_qrat(quantum_int(2 * k)) * Fraction(-1, k))


def _partitions(n, top):
    """Partitions of n into weakly decreasing parts of at most top."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, top), 0, -1):
        for tail in _partitions(n - part, part):
            yield (part,) + tail


def _exp_terms(n, step):
    """Degree-n part of exp(step * sum_j h[j] u^j): sorted h indices mapped to
    step^(number of factors) / (product of the multiplicities' factorials)."""
    terms = {}
    for parts in _partitions(n, n):
        mult = 1
        for j in set(parts):
            mult *= factorial(parts.count(j))
        terms[tuple(sorted(parts))] = step ** len(parts) * QRat.rational(Fraction(1, mult))
    return terms


def psi_oracle(n):
    """psi(n) as (K power, h polynomial): 0 for n < 0, K for n = 0, otherwise
    K times the partition sum of products ((q - q^-1) h[j])^m / m!."""
    return 1, (_exp_terms(n, Q_DIFF) if n >= 0 else {})


def phi_oracle(p):
    """phi(p): 0 for p > 0, K^-1 for p = 0, otherwise K^-1 times the partition
    sum over negative h indices with the sign (-1)^(number of factors)."""
    if p > 0:
        return -1, {}
    terms = _exp_terms(-p, -Q_DIFF)
    return -1, {tuple(sorted(-j for j in hs)): c for hs, c in terms.items()}


def apply_current(component, v):
    """K^kpow times the h polynomial, applied through act_K and act_h."""
    kpow, terms = component
    out = VermaVector(v.ambient, {})
    for hs, c in terms.items():
        w = act_K(v, kpow)
        for j in hs:
            w = act_h(j, w)
        out = out + w * Coeff.from_qrat(c)
    return out


def diff_oracle(p, v):
    """(psi(p) - phi(p)) / (q - q^-1) on v, from the partition sums."""
    d = apply_current(psi_oracle(p), v) - apply_current(phi_oracle(p), v)
    return d.map_components(lambda i, e: Element({m: c / Q_DIFF for m, c in e.items()}))


def diff_kernel_product(p, mono, lam):
    """(psi(p) - phi(p)) / (q - q^-1) on a monomial vector as one kernel
    coefficient per factor: per composition of |p|, the K power and the
    q^(+-2) of each factor times g_coeff_bar(r) (psi side) or g_coeff(r)
    (phi side) for each part r, then every coefficient divided by q - q^-1."""
    if p == 0:
        return Element({mono: Coeff.from_qrat(quantum_int(lam.h - 2 * len(mono)))})
    sign, kernel = (1, g_coeff_bar) if p > 0 else (-1, g_coeff)
    scale = QRat.q_power(sign * (2 * (lam.h - 2 * len(mono)) + 4 * len(mono)))
    if p < 0:
        scale = -scale
    pieces = []
    for rs in _compositions(abs(p), len(mono)):
        coeff = scale
        for r in rs:
            coeff = coeff * kernel(r)
        word = tuple(n + sign * r for n, r in zip(mono, rs))
        pieces.append((normalize_word(word), Coeff.from_qrat(coeff)))
    return Element({m: c / Q_DIFF for m, c in _linear_sum(pieces)._terms.items()})


def xplus_recursive(k, mono, lam):
    """x+[k] on a monomial vector by commuting past the leading factor:
    the insertion on the rest, plus the leading factor times x+[k] on it."""
    if not mono:
        return Element.zero()
    head, rest = mono[0], mono[1:]
    pieces = [(_psi_phi_diff(k + head, rest, lam.h), None)]
    pieces.extend(
        (normalize_word((head,) + m), c)
        for m, c in xplus_recursive(k, rest, lam)._terms.items()
    )
    return _linear_sum(pieces)


def bfs_simplicity_path(v, index_pad=2):
    """Breadth-first raising search: expands every nonzero x+ image of a
    whole level and returns the first path that reaches length 0."""
    if v.is_zero:
        return None
    frontier = [(v, [])]
    while frontier:
        next_frontier = []
        for vec, path in frontier:
            lengths = {len(m) for e in vec.components.values() for m in e.monomials()}
            if lengths == {0}:
                return path
            idx = [i for e in vec.components.values() for m in e.monomials() for i in m]
            lo, hi = min(idx), max(idx)
            for n in range(-hi - index_pad, -lo + index_pad + 1):
                w = act_xplus(n, vec)
                if not w.is_zero:
                    next_frontier.append((w, path + [n]))
        frontier = next_frontier
    return None


@pytest.fixture
def M1():
    return (HighestWeight(1, 0),)


class TestHighestWeight:
    def test_reduced_condition(self):
        for args in [(0,), (0, 0), (0, 3)]:
            with pytest.raises(ValueError):
                HighestWeight(*args)

    def test_equal_and_hashed_by_h_and_d(self):
        assert HighestWeight(1) == HighestWeight(1, 0)
        assert HighestWeight(1, 0) != HighestWeight(1, 1) != HighestWeight(-1, 1)
        assert hash(HighestWeight(3, 2)) == hash(HighestWeight(3, 2))
        assert len({HighestWeight(1), HighestWeight(1, 0), HighestWeight(3)}) == 2

    def test_direct_sum_rejects_zero(self):
        with pytest.raises(ValueError):
            (HighestWeight(1), HighestWeight(0))


class TestLowering:
    def test_reordering_lifted(self, M1):
        v = act_xminus(0, VermaVector(M1, {0: x(2)}))
        assert v.element(0) == x(0) * x(2)

    def test_on_highest(self, M1):
        assert act_xminus(1, VermaVector(M1, {0: Element.one()})).element(0) == x(1)

    def test_on_zero(self, M1):
        assert act_xminus(0, VermaVector(M1, {})).is_zero


class TestHeisenberg:
    def test_single_factor(self, M1):
        v = act_h(1, VermaVector(M1, {0: x(0)}))
        assert v.element(0) == x(1) * (-Coeff.quantum(2))

    def test_kills_highest(self, M1):
        assert act_h(1, VermaVector(M1, {0: Element.one()})).is_zero
        assert act_h(-3, VermaVector(M1, {0: Element.one()})).is_zero

    def test_negative_index(self, M1):
        v = act_h(-1, VermaVector(M1, {0: x(1)}))
        assert v.element(0) == x(0) * (-Coeff.quantum(2))

    def test_zero_index_rejected(self, M1):
        with pytest.raises(ValueError):
            act_h(0, VermaVector(M1, {0: Element.one()}))

    def test_memo_matches_uncached(self):
        ks = (1, -1, 2, -2, 3, -3)
        for h in (1, 2, -1, 3):
            M = (HighestWeight(h, 0),)
            for mono in enumerate_all(3, (-2, 2)):
                v = VermaVector(M, {0: Element.monomial(mono)})
                for k in ks:
                    assert act_h(k, v) == act_h_uncached(k, v), (h, mono, k)
        M = (HighestWeight(1, 0), HighestWeight(-1, 0))
        vectors = [
            VermaVector(M, {0: parse_element("x[1]x[0] + (q^2)*x[-1]x[2] - 3*x[0]")}),
            VermaVector(M, {0: x(2, -1)})
            + VermaVector(M, {1: parse_element("(1-q^2)*x[0]x[0]x[1] + x[-2]")}),
            VermaVector(M, {1: x(0, 0) + x(1, -1)}),
        ]
        for v in vectors:
            for k in ks:
                assert act_h(k, v) == act_h_uncached(k, v), (format_vector(v), k)

    def test_cached_image_is_not_mutated(self):
        mono = (1, 0, -1)
        M = (HighestWeight(2, 0),)
        v = VermaVector(M, {0: Element.monomial(mono)})
        cached = _h_mono(2, mono)
        terms = dict(cached._terms)
        w = act_h(2, v)
        # results built from the cached image: scaled, summed and cancelled
        (w * Coeff.q_power(4) + w - w) * Coeff.rational(-1)
        act_h(2, v + v * Coeff.q_power(2)) - w
        act_h(-1, w)
        assert _h_mono(2, mono) is cached
        assert cached._terms == terms
        assert cached == act_h_uncached(2, v).element(0)


class TestCartanCurrents:
    def test_psi_zero_is_K(self):
        assert psi_oracle(0) == (1, {(): QRat.one()})

    def test_psi_one(self):
        assert psi_oracle(1) == (1, {(1,): Q_DIFF})

    def test_phi_minus_one(self):
        assert phi_oracle(-1) == (-1, {(-1,): -Q_DIFF})

    def test_vanishing_sides(self):
        assert psi_oracle(-2) == (1, {})
        assert phi_oracle(3) == (-1, {})

    def test_psi_two_partition_sum(self):
        kpow, terms = psi_oracle(2)
        assert kpow == 1 and set(terms) == {(2,), (1, 1)}
        assert terms[(2,)] == Q_DIFF
        # (q - q^-1)^2 / 2
        assert terms[(1, 1)] == QRat.from_laurent({4: Fraction(1, 2), 0: -1, -4: Fraction(1, 2)})

    def test_closed_form_matches_partition_sums(self):
        for h in (1, 2, -1, 3):
            lam = HighestWeight(h, 0)
            M = (lam,)
            for mono in enumerate_all(2, (-2, 2)):
                v = VermaVector(M, {0: Element.monomial(mono)})
                for p in range(-5, 6):
                    expected = diff_oracle(p, v)
                    assert _psi_phi_diff(p, mono, lam.h) == expected.element(0), (h, mono, p)
                    assert current_commutator(p, v) == expected, (h, mono, p)

    def test_closed_weight_matches_kernel_product(self):
        # words of length 3 and x[1]x[0]^n reach three nonzero parts
        cases = [(mono, p) for mono in enumerate_all(3, (-2, 2)) for p in range(-5, 6)]
        cases += [((1,) + (0,) * n, p) for n in range(9) for p in range(-3, 4)]
        for h in (1, -2):
            lam = HighestWeight(h, 0)
            for mono, p in cases:
                assert _psi_phi_diff(p, mono, lam.h) == diff_kernel_product(p, mono, lam), (h, mono, p)


class TestRaising:
    def test_scalar_on_single_factor(self):
        for J in (1, 2, -1, 5):
            M = (HighestWeight(J, 0),)
            v = act_xplus(0, VermaVector(M, {0: x(0)}))
            assert v.element(0) == Element.scalar(Coeff.quantum(J))

    def test_heisenberg_kills(self, M1):
        assert act_xplus(1, VermaVector(M1, {0: x(0)})).is_zero

    def test_two_factor_example(self, M1):
        v = act_xplus(-1, VermaVector(M1, {0: x(1, 0)}))
        assert v.element(0) == -x(0)

    def test_annihilates_highest(self, M1):
        for k in range(-3, 4):
            assert act_xplus(k, VermaVector(M1, {0: Element.one()})).is_zero

    def test_slot_sum_matches_recursion(self):
        for h in (1, 2, -1, 3):
            lam = HighestWeight(h, 0)
            for mono in enumerate_all(3, (-2, 2)):
                for k in range(-4, 5):
                    assert _xplus_mono(k, mono, lam.h) == xplus_recursive(k, mono, lam), (h, mono, k)

    def test_sl2_string(self):
        # x+[0] x[0]^n v = [n][h - n + 1] x[0]^(n-1) v
        for h in (1, 2, -1, 3):
            M = (HighestWeight(h, 0),)
            for n in range(1, 7):
                v = act_xplus(0, VermaVector(M, {0: x(*[0] * n)}))
                expected = x(*[0] * (n - 1)) * (Coeff.quantum(n) * Coeff.quantum(h - n + 1))
                assert v.element(0) == expected, (h, n)

    def test_deep_word_does_not_recurse(self):
        # the same string formula on a 200-factor word, with the stack
        # bounded well below one frame per factor
        n, h = 200, 1
        M = (HighestWeight(h, 0),)
        v = VermaVector(M, {0: x(*[0] * n)})
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            out = act_xplus(0, v)
        finally:
            sys.setrecursionlimit(limit)
        expected = x(*[0] * (n - 1)) * (Coeff.quantum(n) * Coeff.quantum(h - n + 1))
        assert out.element(0) == expected

    def test_commutator_insertion(self, M1):
        # [x+_k, x-_l] equals the current commutator at p = k + l
        for k, l in [(0, 0), (1, -1), (-2, 1)]:
            v = VermaVector(M1, {0: x(1, 0)})
            lhs = act_xplus(k, act_xminus(l, v)) - act_xminus(l, act_xplus(k, v))
            assert lhs == current_commutator(k + l, v)


class TestDiagonal:
    def test_K_examples(self):
        M = (HighestWeight(1, 0),)
        v = act_K(VermaVector(M, {0: x(2, 0)}))
        assert v.element(0) == x(2, 0) * Coeff.q_power(-6)
        M2 = (HighestWeight(2, 0),)
        assert act_K(VermaVector(M2, {0: Element.one()})).element(0) == Element.scalar(
            Coeff.q_power(4)
        )

    def test_D_examples(self):
        M = (HighestWeight(1, 0),)
        assert act_D(VermaVector(M, {0: Element.one()})) == VermaVector(M, {0: Element.one()})
        v = act_D(VermaVector(M, {0: x(2, 0)}))
        assert v.element(0) == x(2, 0) * Coeff.q_power(4)

    def test_inverse_powers(self, M1):
        v = VermaVector(M1, {0: x(1, 0, -1)})
        assert act_K(act_K(v, -1)) == v
        assert act_D(act_D(v, -1)) == v


class TestChevalley:
    def test_examples(self):
        M = (HighestWeight(1, 0),)
        assert chevalley("E1", VermaVector(M, {0: x(0)})).element(0) == Element.scalar(
            Coeff.quantum(1)
        )
        assert chevalley("F1", VermaVector(M, {0: Element.one()})).element(0) == x(0)
        M2 = (HighestWeight(2, 0),)
        assert chevalley("K0", VermaVector(M2, {0: Element.one()})).element(0) == Element.scalar(
            Coeff.q_power(-4)
        )

    def test_E0_through_dictionary(self):
        M = (HighestWeight(3, 0),)
        v = VermaVector(M, {0: Element.one()})
        assert chevalley("E0", v).element(0) == x(1) * Coeff.q_power(-6)

    def test_EF_commutator(self):
        # E1 F1 - F1 E1 = (K1 - K1^-1)/(q - q^-1) on samples
        M = (HighestWeight(2, 0),)
        for mono in enumerate_all(2, (-1, 1)):
            v = VermaVector(M, {0: Element.monomial(mono)})
            lhs = chevalley("E1", chevalley("F1", v)) - chevalley("F1", chevalley("E1", v))
            rhs = (act_K(v) - act_K(v, -1)).map_components(
                lambda i, e: Element(
                    {m: c / Coeff.from_qrat(Q_DIFF) for m, c in e.items()}
                )
            )
            assert lhs == rhs, mono

    def test_unknown_generator(self):
        M = (HighestWeight(1, 0),)
        with pytest.raises(KeyError):
            chevalley("E2", VermaVector(M, {0: Element.one()}))


class TestTildeOmega:
    def test_examples(self, M1):
        assert tilde_omega(-1, VermaVector(M1, {0: x(1, 0)})).element(0) == x(0)
        assert tilde_omega(0, VermaVector(M1, {0: x(1, 0)})).element(0) == x(1) * Coeff.q_power(4)
        assert tilde_omega(5, VermaVector(M1, {0: Element.one()})).is_zero


class TestDirectSum:
    def test_inject_project(self):
        M = (HighestWeight(1, 0), HighestWeight(3, 0))
        e = x(1, 0)
        (_, project0), (_, project1) = projection_map(M, 0), projection_map(M, 1)
        assert project0(VermaVector(M, {0: e})).element(0) == e
        assert project1(VermaVector(M, {0: e})).is_zero

    def test_injection_rejects_a_component_outside_the_sum(self):
        # every given index is checked, a zero element's too
        with pytest.raises(ValueError):
            VermaVector((HighestWeight(1),), {5: Element.zero()})
        _, inject2 = injection_map((HighestWeight(1), HighestWeight(3)), 2)
        with pytest.raises(ValueError):
            inject2(VermaVector((HighestWeight(1),), {}))

    def test_projection_rejects_a_vector_of_another_sum(self):
        _, project0 = projection_map((HighestWeight(1, 0), HighestWeight(3, 0)), 0)
        for other in [(HighestWeight(1, 0),), (HighestWeight(1, 0), HighestWeight(3, 1))]:
            with pytest.raises(ValueError, match="does not live in this sum"):
                project0(VermaVector(other, {0: x(0)}))

    def test_descriptor(self):
        M = (HighestWeight(1, 0), HighestWeight(3, 0))
        assert len(M) == 2

    def test_vector_algebra(self):
        M = (HighestWeight(1, 0), HighestWeight(3, 0))
        v = VermaVector(M, {0: x(0)}) + VermaVector(M, {1: x(1)})
        assert (v - v).is_zero
        w = VermaVector(M, {1: x(1) * Coeff.q_power(2) + x(0)})
        assert v - w == v + w * Coeff.rational(-1)
        assert format_vector(v) == "[0] x[0] @ (h=1,d=0) ; [1] x[1] @ (h=3,d=0)"


class TestIntertwining:
    def _fixtures(self):
        M = (HighestWeight(1, 0), HighestWeight(3, 0))
        monos = enumerate_all(2, (-1, 1))
        single = (HighestWeight(1, 0),)
        inj_samples = [VermaVector(single, {0: Element.monomial(m)}) for m in monos]
        sum_samples = [VermaVector(M, {i: Element.monomial(m)}) for m in monos for i in (0, 1)]
        return M, inj_samples, sum_samples

    def test_injection_passes(self):
        M, inj_samples, _ = self._fixtures()
        rep = verify_intertwining(injection_map(M, 0), inj_samples, (-1, 1))
        assert rep.passed, rep.witnesses[:2]

    def test_projection_passes(self):
        M, _, sum_samples = self._fixtures()
        for i in (0, 1):
            rep = verify_intertwining(projection_map(M, i), sum_samples, (-1, 1))
            assert rep.passed, rep.witnesses[:2]

    def test_swap_control_fails(self):
        M, _, sum_samples = self._fixtures()
        rep = verify_intertwining(component_swap_map(M), sum_samples, (-1, 1))
        assert not rep.passed
        assert any("K does not commute" in w for w in rep.witnesses)


class TestProbes:
    def test_nilpotency_examples(self, M1):
        assert nilpotency_probe(0, VermaVector(M1, {0: x(0)}), 3) == 2
        assert nilpotency_probe(0, VermaVector(M1, {0: Element.one()}), 1) == 1
        t = nilpotency_probe(2, VermaVector(M1, {0: x(1, 0)}), 4)
        assert t is not None and t <= 3

    def test_nilpotency_cap(self, M1):
        with pytest.raises(ValueError):
            nilpotency_probe(0, VermaVector(M1, {0: Element.one()}), 0)

    def test_simplicity(self):
        for h in (1, 2, -1):
            M = (HighestWeight(h, 0),)
            for mono in enumerate_all(2, (-1, 1)):
                if not mono:
                    continue
                path = simplicity_probe(VermaVector(M, {0: Element.monomial(mono)}))
                assert path is not None and len(path) == len(mono), (h, mono)

    def test_depth_first_matches_breadth_first(self):
        for h in (1, 2, -1):
            M = (HighestWeight(h, 0),)
            for mono in enumerate_all(3, (-2, 2)):
                if mono:
                    v = VermaVector(M, {0: Element.monomial(mono)})
                    assert simplicity_probe(v) == bfs_simplicity_path(v), (h, mono)

    def test_mixed_lengths_take_the_shortest_path(self):
        M = (HighestWeight(1, 0), HighestWeight(3, 0))
        exprs = ("1", "1 + x[2]", "x[0] + x[0]x[0]", "x[0] + x[1]x[0]",
                 "x[1]x[0] + x[0]x[0]x[-1]")
        for expr in exprs:
            for v in (VermaVector(M, {0: parse_element(expr)}),
                      VermaVector(M, {0: parse_element(expr)}) + VermaVector(M, {1: x(0, 0)})):
                assert simplicity_probe(v) == bfs_simplicity_path(v), (expr, v)
        assert simplicity_probe(VermaVector(M, {0: parse_element("1 + x[2]")})) == [-2]
        # x+[0] kills x[0]x[0], so one step already reaches the highest weight
        assert simplicity_probe(VermaVector(M, {0: parse_element("x[0] + x[0]x[0]")})) == [0]
