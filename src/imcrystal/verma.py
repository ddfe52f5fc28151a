"""Reduced imaginary highest-weight modules and direct sums of them.

A component is the module generated by a vector v with K v = q^(h) v,
D v = q^(d) v, annihilated by all raising generators and all Heisenberg
generators, over a highest weight with h != 0; the central element acts
trivially, so every computation here is at gamma = 1.  A direct sum is the
tuple of the highest weights of its components, and a vector of it is a
finite map from component id to an algebra element, meaning (element) . v_i
summed over components; VermaVector(weights, {i: e}) is the canonical
injection of the i-th summand.

Generator actions:

* lowering x[n]: left multiplication followed by normal ordering;
* Heisenberg h[k] (k != 0): sum over factors of the index shift n -> n+k
  weighted by -[2k]/k, and h[k] v = 0; the image of each monomial, scalar
  included, is memoised, as it does not depend on the weight;
* raising x+[k]: a sum over the slots i of x[n_1]...x[n_m] of the prefix
  x[n_1]...x[n_(i-1)] times the Cartan-current combination
  (psi(p) - phi(p)) / (q - q^-1), p = k + n_i, applied to the suffix after
  slot i; on a word of m factors that insertion shifts the indices by a
  composition of |p| in the direction s = sign(p), with the closed weight
  -q^(s(h-2m) - 2p) (q^s + q^(3s)) (1 - q^(4s))^(j-1) for a composition
  with j nonzero parts;
* K and D act diagonally on each weight space;
* Chevalley generators act through the loop-generator dictionary
  E0 = x[1] K^-1, F0 = K x+[-1], E1 = x+[0], F1 = x[0], K0 = K^-1 (at
  gamma = 1), K1 = K.

The tilde operators (componentwise annihilation operators and left
multiplications) commute with module homomorphisms; verify_intertwining
checks that on samples, together with the module-map property itself so
that corrupted maps are detected.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .check import Check, closed_range
from .qcoeff import Coeff, _Value, _set
from .qalgebra import Element, Monomial, _linear_sum, format_element, memo, normalize_word
from .kashiwara import PSI, _compositions, omega_at_one


class HighestWeight(_Value):
    """Highest-weight datum (h, d) with h nonzero (the reduced condition);
    an immutable value of (h, d)."""

    __slots__ = ("h", "d")

    def __init__(self, h: int, d: int = 0):
        if h == 0:
            raise ValueError("not in the reduced category: need h != 0")
        _set(self, "h", h)
        _set(self, "d", d)


class VermaVector:
    """Finite sum over components i of (element_i) . v_i in the direct sum
    of the ambient weights; every given component must be one of the sum,
    and zero ones are dropped."""

    __slots__ = ("ambient", "components")

    def __init__(self, ambient: tuple[HighestWeight, ...], components: dict[int, Element]):
        for i in components:
            if not 0 <= i < len(ambient):
                raise ValueError(f"component {i} outside the ambient sum")
        self.ambient = ambient
        self.components = {i: e for i, e in components.items() if not e.is_zero}

    @property
    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VermaVector):
            return NotImplemented
        return self.ambient == other.ambient and self.components == other.components

    def __add__(self, other: VermaVector) -> VermaVector:
        if self.ambient != other.ambient:
            raise ValueError("vectors live in different modules")
        out = dict(self.components)
        for i, e in other.components.items():
            out[i] = out.get(i, Element.zero()) + e
        return VermaVector(self.ambient, out)

    def __sub__(self, other: VermaVector) -> VermaVector:
        return self + other.map_components(lambda i, e: -e)

    def __mul__(self, c: Coeff | int | Fraction) -> VermaVector:
        return VermaVector(self.ambient, {i: e * c for i, e in self.components.items()})

    __rmul__ = __mul__

    def element(self, i: int = 0) -> Element:
        return self.components.get(i, Element.zero())

    def map_components(self, fn: Callable[[int, Element], Element]) -> VermaVector:
        return VermaVector(
            self.ambient, {i: fn(i, e) for i, e in self.components.items()}
        )


def format_vector(v: VermaVector) -> str:
    if v.is_zero:
        return "0"
    parts = []
    for i in sorted(v.components):
        lam = v.ambient[i]
        parts.append(f"[{i}] {format_element(v.components[i])} @ (h={lam.h},d={lam.d})")
    return " ; ".join(parts)


# ---------------------------------------------------------------------------
# generator actions


def act_xminus(n: int, v: VermaVector) -> VermaVector:
    """Tilde lowering operator: componentwise left multiplication."""
    xn = Element.monomial((n,))
    return v.map_components(lambda i, e: xn * e)


def tilde_omega(m: int, v: VermaVector) -> VermaVector:
    """Tilde annihilation operator: componentwise, at gamma = 1."""
    return v.map_components(lambda i, e: omega_at_one(PSI, m, e))


def _extend(v: VermaVector, image: Callable[[Monomial, HighestWeight], Element]) -> VermaVector:
    """Componentwise linear extension of a map on monomial vectors."""
    return VermaVector(v.ambient, {
        i: _linear_sum((image(mono, v.ambient[i]), c) for mono, c in e._terms.items())
        for i, e in v.components.items()
    })


@memo({})
def _h_scalar(k: int) -> Coeff:
    """-[2k]/k, the weight of each index shift in h[k]."""
    return Coeff.quantum(2 * k) * Fraction(-1, k)


_H_CACHE: dict[tuple[int, Monomial], Element] = {}


@memo(_H_CACHE)
def _h_mono(k: int, mono: Monomial) -> Element:
    """h[k] on a monomial vector, scalar included; it does not depend on the
    weight, so the memo key leaves the weight out."""
    c = _h_scalar(k)
    return _linear_sum(
        (normalize_word(mono[:pos] + (mono[pos] + k,) + mono[pos + 1 :]), c)
        for pos in range(len(mono))
    )


def act_h(k: int, v: VermaVector) -> VermaVector:
    """h[k]: shift one factor at a time by k with weight -[2k]/k; the
    highest-weight vector itself is killed."""
    if k == 0:
        raise ValueError("h[0] is not a generator")
    return _extend(v, lambda mono, lam: _h_mono(k, mono))


def _k_eigen_halfexp(h: int, length: int) -> int:
    # K eigenvalue on a length-k monomial vector is q^(h - 2k)
    return 2 * (h - 2 * length)


def act_K(v: VermaVector, power: int = 1) -> VermaVector:
    return _extend(v, lambda mono, lam: Element._of(
        {mono: Coeff.q_power(power * _k_eigen_halfexp(lam.h, len(mono)))}
    ))


def act_D(v: VermaVector, power: int = 1) -> VermaVector:
    return _extend(v, lambda mono, lam: Element._of(
        {mono: Coeff.q_power(2 * power * (lam.d + sum(mono)))}
    ))


# ---------------------------------------------------------------------------
# Cartan currents


_DIFF_CACHE: dict[tuple[int, Monomial, int], Element] = {}

# per sign s: the weight of a composition with one nonzero part, up to its
# q-power, -(q^s + q^(3s)), and the factor 1 - q^(4s) of each further part
_HEAD = {s: -(Coeff.q_power(2 * s) + Coeff.q_power(6 * s)) for s in (1, -1)}
_STEP = {s: Coeff.one() - Coeff.q_power(8 * s) for s in (1, -1)}


@memo(_DIFF_CACHE)
def _psi_phi_diff(p: int, mono: Monomial, h: int) -> Element:
    """(psi(p) - phi(p)) / (q - q^-1) applied to a monomial vector of a
    module of highest weight h (the only part of the weight it reads, so the
    memo key holds h alone).

    The h[k] act as derivations.  So for p > 0, psi(p) is K times a sum over
    the compositions of p into one part r per factor: each factor's index
    is raised by its part, with the coefficient of u^r in the kernel
    (1 - q^2 u)/(1 - q^-2 u) as weight.  For p < 0, -phi(p) is the image of
    that sum under q -> 1/q, with K^-1, the indices lowered and a minus
    sign.  Let s = sign(p) and m = len(mono).  A composition of |p| with
    j >= 1 nonzero parts then has a closed weight:

    1. K^s gives q^(s(h-2m));
    2. a zero part gives q^(2s) q^(-2s) = 1;
    3. a part r > 0 gives q^(-2sr) (1 - q^(4s)), and the parts sum to |p|;
    4. (1 - q^(4s)) / (q - q^-1) = -s (q^s + q^(3s)) exactly, and the sign
       of the phi side is s.

    So the weight is -q^(s(h-2m) - 2p) (q^s + q^(3s)) (1 - q^(4s))^(j-1).
    """
    if p == 0:
        # (K - K^-1)/(q - q^-1) acts by the quantum integer of the weight
        return Element({mono: Coeff.quantum(h - 2 * len(mono))})
    s = 1 if p > 0 else -1
    weights = [Coeff.q_power(s * _k_eigen_halfexp(h, len(mono)) - 4 * p) * _HEAD[s]]
    for _ in range(1, min(abs(p), len(mono))):
        weights.append(weights[-1] * _STEP[s])
    return _linear_sum(
        (normalize_word(tuple(n + s * r for n, r in zip(mono, rs))),
         weights[len(rs) - rs.count(0) - 1])
        for rs in _compositions(abs(p), len(mono))
    )


def current_commutator(p: int, v: VermaVector) -> VermaVector:
    """(psi(p) - phi(p)) / (q - q^-1) acting on a vector.  This is the value
    of the commutator of a raising and a lowering generator whose indices
    sum to p, and the insertion step of the raising action."""
    return _extend(v, lambda mono, lam: _psi_phi_diff(p, mono, lam.h))


_XPLUS_CACHE: dict[tuple[int, Monomial, int], Element] = {}


@memo(_XPLUS_CACHE)
def _xplus_mono(k: int, mono: Monomial, h: int) -> Element:
    """x+[k] on a monomial vector of highest weight h: over the slots j, the
    prefix before j times the insertion (psi - phi)(k + n_j) / (q - q^-1) on
    the suffix after j, which is what x+[k] leaves when it commutes past
    x[n_j]."""
    return _linear_sum(
        (normalize_word(mono[:j] + w), c)
        for j, n in enumerate(mono)
        for w, c in _psi_phi_diff(k + n, mono[j + 1 :], h)._terms.items()
    )


def act_xplus(k: int, v: VermaVector) -> VermaVector:
    return _extend(v, lambda mono, lam: _xplus_mono(k, mono, lam.h))


# every module generator by its command-line name, as a function of the
# index k (read by x+, x- and h only) and the vector
GENERATORS: dict[str, Callable[[int, VermaVector], VermaVector]] = {
    "x+": lambda k, v: act_xplus(k, v),
    "x-": lambda k, v: act_xminus(k, v),
    "h": lambda k, v: act_h(k, v),
    "K": lambda k, v: act_K(v),
    "D": lambda k, v: act_D(v),
    "E0": lambda k, v: act_xminus(1, act_K(v, -1)),
    "E1": lambda k, v: act_xplus(0, v),
    "F0": lambda k, v: act_K(act_xplus(-1, v), 1),
    "F1": lambda k, v: act_xminus(0, v),
    "K0": lambda k, v: act_K(v, -1),
    "K1": lambda k, v: act_K(v, 1),
}


# ---------------------------------------------------------------------------
# probes and intertwining checks


def nilpotency_probe(n: int, v: VermaVector, cap: int) -> int | None:
    """Smallest t <= cap with (x+[n])^t v = 0, or None if the cap is hit."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    current = v
    for t in range(1, cap + 1):
        current = act_xplus(n, current)
        if current.is_zero:
            return t
    return None


# how far past the indices of v the raising indices of simplicity_probe reach
_INDEX_PAD = 2


def simplicity_probe(v: VermaVector) -> list[int] | None:
    """Search for a sequence of raising actions taking v to a nonzero
    multiple of a highest-weight vector; returns the index sequence.

    Each x+[n] shortens every monomial by one, so a full path is as long as
    one of the monomials of v.  For each such length, shortest first, a
    depth-first search tries the indices in increasing order and stops at
    the first full path: the lexicographically first of the shortest ones.
    """

    def lengths(vec: VermaVector) -> set[int]:
        return {len(m) for e in vec.components.values() for m in e.monomials()}

    def raised(vec: VermaVector, path: list[int]):
        idx = [i for e in vec.components.values() for m in e.monomials() for i in m]
        for n in range(-max(idx) - _INDEX_PAD, -min(idx) + _INDEX_PAD + 1):
            w = act_xplus(n, vec)
            if not w.is_zero:
                yield w, path + [n]

    for depth in sorted(lengths(v)):
        stack = [iter([(v, [])])]
        while stack:
            for vec, path in stack[-1]:
                if len(path) < depth:
                    stack.append(raised(vec, path))
                    break
                if lengths(vec) == {0}:
                    return path
            else:
                stack.pop()
    return None


# a linear map between direct sums, checked for intertwining: its name and
# its function
ModuleMap = tuple[str, Callable[[VermaVector], VermaVector]]


def injection_map(weights: tuple[HighestWeight, ...], i: int) -> ModuleMap:
    """Canonical injection of a vector of the i-th summand into the sum."""
    return f"inject[{i}]", lambda v: VermaVector(weights, {i: v.element(0)})


def projection_map(weights: tuple[HighestWeight, ...], i: int) -> ModuleMap:
    """Canonical projection of a vector of the sum onto the i-th summand."""

    def project(v: VermaVector) -> VermaVector:
        if v.ambient != weights:
            raise ValueError("vector does not live in this sum")
        return VermaVector((weights[i],), {0: v.element(i)})

    return f"project[{i}]", project


def component_swap_map(weights: tuple[HighestWeight, ...]) -> ModuleMap:
    """Control fixture: swap the two components of a 2-component sum.  Not a
    module map when the weights differ, so intertwining checks must fail."""
    if len(weights) != 2:
        raise ValueError("swap control needs exactly two components")
    return "swap", lambda v: VermaVector(weights, {1 - i: e for i, e in v.components.items()})


def verify_intertwining(
    nu: ModuleMap, samples: Iterable[VermaVector], m_range: tuple[int, int]
) -> Check:
    """Check that nu, a (name, function) pair, commutes with the tilde
    operators and with the module actions (K, D, h[k], x+[k]) on every
    sample."""
    name, fn = nu
    operators: list[tuple[str, Callable[[VermaVector], VermaVector]]] = []
    for m in closed_range(m_range):
        operators.append((f"xminus[{m}]", lambda v, m=m: act_xminus(m, v)))
        operators.append((f"omega-psi[{m}]", lambda v, m=m: tilde_omega(m, v)))
        operators.append((f"xplus[{m}]", lambda v, m=m: act_xplus(m, v)))
        if m != 0:
            operators.append((f"h[{m}]", lambda v, m=m: act_h(m, v)))
    operators.append(("K", act_K))
    operators.append(("D", act_D))

    def noncommuting(case: tuple[VermaVector, str, Callable[[VermaVector], VermaVector]]):
        sample, op_name, op = case
        if fn(op(sample)) != op(fn(sample)):
            return f"{op_name} does not commute with {name} on {format_vector(sample)}"

    return Check(name).run(
        ((sample, op_name, op) for sample in samples for op_name, op in operators), noncommuting
    )
