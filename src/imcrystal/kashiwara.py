"""Annihilation operators on the lowering algebra and their relations.

Two operator families act on the algebra of normal monomials, one adjoint
to the psi half of the Cartan currents and one to the phi half.  Both are
evaluated by a component recursion that peels the leading factor of a
monomial:

    psi(p)(x[m] w) = delta(p, -m) gamma^p w
                     + sum_{r >= 0} g(r) gamma^r x[m+r] psi(p-r)(w)
    phi(p)(x[m] w) = delta(p, -m) gamma^-p w
                     + sum_{r >= 0} gbar(r) gamma^r x[m-r] phi(p+r)(w)

with psi(p)(1) = phi(p)(1) = 0.  The structure series g and gbar are the
two opposite-parameter expansions of the same rational kernel (they are
inverse to each other as power series); using the g expansion on the psi
side and the gbar expansion on the phi side is forced by well-definedness:
only these choices are compatible with the Serre relations.  Both series
are defined once, as `Coeff`s, by `qcoeff._kernel`.  Every
recursion path is cut by the Kronecker delta, so evaluation is exactly
finite: psi(p) kills a monomial once p < -max(indices), phi(p) once
p > -min(indices).  The recursion is the definition; each component
is a body under `qalgebra.memo` that yields the keys of the components on
the rest of the monomial and is sent their values, which `memo` computes
on its own stack, so a word of any length takes no Python frame per
factor.

Both families are homogeneous in gamma: every term of psi(p)(w) is gamma^p
times its value at gamma = 1, and every term of phi(p)(w) is gamma^-p times
it, since the delta term carries exactly that power and the kernel term
gamma^r meets psi(p - r), or phi(p + r), on the rest.  So the memo table
holds the operators at gamma = 1 (the series term alone as the kernel,
coefficient 1 on the delta term), and gamma^(+-p) is restored when it is
read, as one shift of the gamma exponent of each term of the image.  The
bilinear form and the module actions live at gamma = 1 and read the table
directly.

A closed summation formula for the psi family over deletion slots and
compositions is kept as an independent cross-check oracle, and a checker
verifies the defining operator relations of the algebra generated by the
psi operators and left multiplication, with gamma kept formal.  Each
four-term relation is a sum of two q-commutators
C(f, g) = q^2 f g - g f, and the phi-psi relation is summed over the
delta support.
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from typing import Generator, Iterator

from .check import Check, closed_range
from .qcoeff import Coeff, _kernel
from .qalgebra import (
    Element,
    Monomial,
    _linear_sum,
    enumerate_all,
    format_element,
    format_monomial,
    memo,
    normalize_word,
)

PSI = "psi"
PHI = "phi"


_SIGN = {PSI: 1, PHI: -1}
_ONE = Coeff.one()
_OMEGA_CACHE: dict[tuple[str, int, Monomial], Element] = {}


def _sign(kind: str) -> int:
    """+1 on the psi side, -1 on the phi side; each public operator reads
    it before any term, so an unknown kind raises on every element."""
    if kind not in _SIGN:
        raise ValueError(f"unknown operator kind {kind!r}")
    return _SIGN[kind]


def _reach(sign: int, p: int, mono: Monomial) -> int:
    """The delta support: the largest r for which omega(p - sign r), psi
    for sign 1 and phi for sign -1, can be nonzero on mono, or a negative
    number when there is none (-1 on the empty monomial).  Every recursion
    path ends in a delta at some index of mono, so max(mono) bounds the psi
    side and -min(mono) the phi side."""
    return sign * p + (max(mono) if sign > 0 else -min(mono)) if mono else -1


@memo(_OMEGA_CACHE)
def _omega_one(kind: str, p: int, mono: Monomial) -> Generator[list, list, Element]:
    """One annihilation-operator component on a monomial, at gamma = 1.

    The body yields the keys of the components on the rest of the monomial
    and `memo` sends their values; callers always get the element."""
    sign = _SIGN[kind]
    if not mono:
        return Element.zero()
    m, rest = mono[0], mono[1:]
    subs = yield [(kind, p - sign * r, rest) for r in range(_reach(sign, p, rest) + 1)]
    pieces = [(normalize_word(rest), None)] if p == -m else []
    for r, sub in enumerate(subs):
        c = _kernel(sign, r)
        pieces += [(normalize_word((m + sign * r,) + w), d * c) for w, d in sub._terms.items()]
    return _linear_sum(pieces)


def _times_gamma(e: Element, halfexp: int) -> Element:
    """e * gamma^(halfexp/2), by a shift of the gamma exponent of each term."""
    return Element._of({m: c.gamma_shift(halfexp) for m, c in e._terms.items()}) if halfexp else e


def omega_mono(kind: str, p: int, mono: Monomial) -> Element:
    """Apply one annihilation-operator component to a normal monomial."""
    halfexp = 2 * _sign(kind) * p
    return _times_gamma(_omega_one(kind, p, mono), halfexp)


def omega_apply(kind: str, p: int, e: Element) -> Element:
    """Linear extension over an element; gamma in coefficients commutes, so
    the sum is taken at gamma = 1 and gamma^(+-p) is restored once, on it."""
    halfexp = 2 * _sign(kind) * p
    if len(e._terms) == 1:
        # a monomial reads its image: no sum to take
        (mono, c), = e._terms.items()
        if c == _ONE:
            return omega_mono(kind, p, mono)
    return _times_gamma(omega_at_one(kind, p, e), halfexp)


def omega_at_one(kind: str, p: int, e: Element) -> Element:
    """The image of a gamma-free e at gamma = 1; on any e, omega_apply(kind,
    p, e) without its factor gamma^(+-p)."""
    _sign(kind)
    return _linear_sum((_omega_one(kind, p, mono), c) for mono, c in e._terms.items())


# ---------------------------------------------------------------------------
# closed-formula oracle for the psi side


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order: the places of parts - 1 bars among total + parts - 1."""
    if total < 0:
        return
    if parts == 0:
        if total == 0:
            yield ()
        return
    width = total + parts - 1
    for bars in combinations(range(width), parts - 1):
        edges = (-1,) + bars + (width,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def omega_psi_closed(p: int, mono: Monomial) -> Element:
    """Deletion-slot summation formula for the psi-side operator.

    Sums over the removed slot l and compositions (r_1 .. r_{l-1}) with
    sum r_j = p + n_l; each term shifts the prefix indices up by the r_j,
    deletes slot l, multiplies the g factors and carries gamma^p.  Must
    agree with omega_mono(PSI, p, mono) on every monomial.
    """
    gp = Coeff.gamma_power(2 * p)
    return _linear_sum(
        (
            normalize_word(tuple(n + r for n, r in zip(mono, rs)) + mono[l:]),
            prod((_kernel(1, r) for r in rs), start=gp),
        )
        for l in range(1, len(mono) + 1)
        for rs in _compositions(p + mono[l - 1], l - 1)
    )


# ---------------------------------------------------------------------------
# relation checker

RELATIONS = ("omegapsi-x", "omegaphi-x", "psi-psi", "phi-phi", "phi-psi", "serre-x")


def _x(n: int, e: Element) -> Element:
    return Element.monomial((n,)) * e


def _q_commutator(f: tuple[str, int], g: tuple[str, int], e: Element) -> Element:
    """C(f, g) e = q^2 f g e - g f e, for operators named (kind, index):
    omega(index) of the family kind, or left multiplication x(index) for
    kind "x"."""

    def act(op: tuple[str, int], v: Element) -> Element:
        kind, n = op
        return _x(n, v) if kind == "x" else omega_apply(kind, n, v)

    return act(f, act(g, e)) * Coeff.q_power(4) - act(g, act(f, e))


def _residual(relation: str, comps: tuple[int, ...], e: Element) -> Element:
    """LHS - RHS of the named operator identity applied to e, formal gamma.

    Each four-term identity is a sum of two q-commutators C (see
    `_q_commutator`).  With omega the family of sign s (+1 for psi, -1 for
    phi) and x left multiplication:

        omega-x:    C(omega(m), x(n+1)) gamma^((1+s)/2)
                      + C(x(n), omega(m+1)) gamma^((1-s)/2),
                    less (q^2 - 1) gamma^(s m + (1+s)/2) e when m = -n - 1;
        omega-omega: C(omega(k+1), omega(l)) + C(omega(l+1), omega(k));
        serre-x:    -[C(x(k+1), x(l)) + C(x(l+1), x(k))].

    The omega-x forms are the coefficient-extracted generating-function
    relations (the commonly printed gamma-free deltas are their gamma = 1
    specializations).  phi-psi sums psi(k - r) over the delta support of e.
    """
    if relation in ("omegapsi-x", "omegaphi-x"):
        kind = PSI if relation == "omegapsi-x" else PHI
        s, (m, n) = _SIGN[kind], comps
        # gamma powers in half units
        out = _q_commutator((kind, m), ("x", n + 1), e) * Coeff.gamma_power(1 + s)
        out = out + _q_commutator(("x", n), (kind, m + 1), e) * Coeff.gamma_power(1 - s)
        if m == -n - 1:
            out = out - e * ((Coeff.q_power(4) - _ONE) * Coeff.gamma_power(2 * s * m + 1 + s))
        return out
    if relation in ("psi-psi", "phi-phi", "serre-x"):
        kind = {"psi-psi": PSI, "phi-phi": PHI, "serre-x": "x"}[relation]
        k, l = comps
        out = _q_commutator((kind, k + 1), (kind, l), e)
        out = out + _q_commutator((kind, l + 1), (kind, k), e)
        return -out if kind == "x" else out
    if relation == "phi-psi":
        k, m = comps
        out = omega_apply(PSI, k, omega_apply(PHI, m, e))
        for r in range(max((_reach(1, k, mono) for mono in e._terms), default=-1) + 1):
            c = _kernel(-1, r).gamma_shift(4 * r)
            out = out - omega_apply(PHI, m + r, omega_apply(PSI, k - r, e)) * c
        return out
    raise ValueError(f"unknown relation {relation!r}")


def check_kashiwara_relation(
    relation: str,
    component_range: tuple[int, int],
    *,
    max_length: int = 2,
    window: tuple[int, int] = (-2, 2),
) -> Check:
    """Evaluate LHS - RHS of the chosen identity on every basis monomial in
    the domain for every component pair in range; each nonzero residual is
    a witness, so an empty witness list is a pass."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}; choose from {RELATIONS}")
    components = closed_range(component_range)
    domain = enumerate_all(max_length, window)

    def residual(case: tuple[int, int, Monomial]) -> str | None:
        a, b, mono = case
        res = _residual(relation, (a, b), Element.monomial(mono))
        if not res.is_zero:
            return f"{relation}{(a, b)} on {format_monomial(mono)}: residual {format_element(res)}"

    return Check(relation).run(
        ((a, b, mono) for a in components for b in components for mono in domain), residual
    )
