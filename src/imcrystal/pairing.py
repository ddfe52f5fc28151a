"""The symmetric bilinear form on the lowering algebra.

The form is fixed by (1, 1) = 1 together with adjointness between left
multiplication and the psi-side annihilation operators:

    (x[m] a, b) = (a, psi(-m) b)

So (x[m_1]...x[m_k], b) = (1, psi(-m_k)...psi(-m_1) b): evaluation is a
chain that applies psi(-m) to b for each factor m of the first argument,
left to right, and then reads off the coefficient of the empty monomial.
Everything here lives at gamma = 1: each step reads the gamma = 1 table of
the annihilation operators directly.  Monomials of different weights pair
to zero, the Gram matrix of any fixed weight is congruent to the identity
modulo q^2, and an element u belongs to the crystal lattice exactly when
all its pairings against normal monomial vectors are regular at 0; the
probe below tests that on a finite index window.
"""

from __future__ import annotations

from .check import Check
from .qcoeff import Coeff, congruent_mod_q2, format_coeff, residue_mod_q2
from .qalgebra import Element, Monomial, Weight, enumerate_basis, format_monomial, memo
from .kashiwara import PSI, omega_at_one

_PAIR_CACHE: dict[tuple[Monomial, Monomial], Coeff] = {}


def _pair_word(ma: Monomial, b: Element) -> Coeff:
    """(x_ma, b): the psi chain of ma over the whole of b, so the terms of b
    share every step."""
    for m in ma:
        b = omega_at_one(PSI, -m, b)
    return b.coefficient(())


@memo(_PAIR_CACHE)
def _pair_monos(ma: Monomial, mb: Monomial) -> Coeff:
    return _pair_word(ma, Element({mb: Coeff.one()}))


def pair(a: Element, b: Element) -> Coeff:
    """Bilinear form value; inputs must be gamma-free (the gamma = 1 world)."""
    if not (a.is_gamma_free() and b.is_gamma_free()):
        raise ValueError("the form is evaluated at gamma = 1; specialize first")
    return sum((ca * _pair_word(ma, b) for ma, ca in a._terms.items()), Coeff.zero())


# ---------------------------------------------------------------------------
# Gram matrices


class GramMatrix:
    __slots__ = ("weight", "window", "basis", "entries")

    def __init__(self, weight: Weight, window: tuple[int, int], basis: list[Monomial],
                 entries: list[list[Coeff]]):
        self.weight, self.window, self.basis, self.entries = weight, window, basis, entries

    def to_dict(self) -> dict:
        residues = [[None if (r := residue_mod_q2(c)) is None else str(r) for c in row]
                    for row in self.entries]
        return {
            "weight": [self.weight.length, self.weight.degree],
            "window": list(self.window),
            "basis": [format_monomial(m) for m in self.basis],
            "entries": [[format_coeff(c) for c in row] for row in self.entries],
            "residues_mod_q2": residues,
        }


def gram(weight: Weight, window: tuple[int, int]) -> GramMatrix:
    """Pairwise form values over the normal monomials of one weight."""
    basis = enumerate_basis(weight.length, window, weight.degree)
    n = len(basis)
    entries = [[Coeff.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = _pair_monos(basis[i], basis[j])
            entries[i][j] = v
            entries[j][i] = v
    return GramMatrix(weight, window, basis, entries)


def orthonormality_report(g: GramMatrix) -> Check:
    """Check each Gram entry against the Kronecker delta modulo q^2."""
    w = g.weight

    def off_delta(case: tuple[int, int, Coeff]) -> str | None:
        i, j, c = case
        delta = 1 if i == j else 0
        if not congruent_mod_q2(c, delta):
            return f"entry ({i},{j}) = {format_coeff(c)} not congruent to {delta} mod q^2"

    return Check(f"orthonormality ({w.length},{w.degree})").run(
        ((i, j, c) for i, row in enumerate(g.entries) for j, c in enumerate(row)), off_delta
    )


# ---------------------------------------------------------------------------
# lattice membership probe


def lattice_membership_probe(u: Element, window: tuple[int, int]) -> str | None:
    """Probe lattice membership of a homogeneous element: every pairing
    against a same-weight normal monomial in the window must be regular at
    0.  None when all are, else the text of the first pairing with a pole.
    A finite probe, not a decision procedure."""
    if u.is_zero:
        return None
    w = u.weight()  # raises on inhomogeneous input
    for mono in enumerate_basis(w.length, window, w.degree):
        c = pair(u, Element({mono: Coeff.one()}))
        if not c.is_regular_at_zero():
            return f"pairing against {format_monomial(mono)} is {format_coeff(c)} (pole at 0)"
    return None
