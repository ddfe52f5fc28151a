"""Crystal lattices, mod-q reduction, and the crystal-basis axioms.

For a direct sum of reduced highest-weight modules the lattice is spanned,
over rational functions regular at 0, by the normal monomial vectors of
each component; the basis consists of their classes modulo q.  The checker
verifies, over an explicit finite probe (maximum length, index window,
operator range):

* stability: tilde operators keep lattice coordinates regular at 0;
* grading: every basis class is a K and D eigenvector of the expected
  weight, and classes are pairwise distinct;
* images: each tilde operator sends a class to a single signed class or
  to zero;
* commutation: whenever both the annihilation image and the lowering
  image of a class are nonzero, the two composites agree in L/qL.

Each tilde image is computed once per process, through `qalgebra.memo`.
Its table is keyed by (operator, index, sign, monomial, scales of the
class's own component) and holds only the component-free part of the image:
its coordinates with a pole at 0 and its class in L/qL, each by monomial.
The weight is not in the key, as the tilde operators act on the element of
a component and never read its weight; witnesses and classes are built with
the component of the class asked about.  So a direct sum, its summands, the
blocks of its split and every later run on the same scales read the same
entries, and the stability, image and commutation checks read from them.

All probed conditions quantify over infinite sets in general, so every
result holds only within the bounds of its probe.  A lattice may carry
per-monomial scale factors (coordinates divide by them); scaling one
generator by a negative power of q is the documented corrupted fixture that
stability must reject.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .check import Check, closed_range
from .qcoeff import Coeff, _Value, _set
from .qalgebra import Element, Monomial, enumerate_all, enumerate_basis, format_monomial, memo
from .verma import (
    HighestWeight,
    VermaVector,
    act_D,
    act_K,
    act_xminus,
    format_vector,
    tilde_omega,
)

ClassKey = tuple[int, Monomial]  # (component id, normal monomial)


class CrystalClass(_Value):
    """Signed normal monomial class in L/qL; zero is represented by None.
    An immutable value of (sign, mono, component)."""

    __slots__ = ("sign", "mono", "component")

    def __init__(self, sign: int, mono: Monomial, component: int):
        _set(self, "sign", sign)
        _set(self, "mono", mono)
        _set(self, "component", component)

    def describe(self) -> str:
        return f"{'+' if self.sign > 0 else '-'}[{self.component}]{format_monomial(self.mono)}"

    __str__ = describe


class LatticeDesc:
    """Finite probe of a crystal lattice for a direct sum of components."""

    __slots__ = ("weights", "max_length", "window", "scales")

    def __init__(self, weights: tuple[HighestWeight, ...], max_length: int,
                 window: tuple[int, int], scales: dict[ClassKey, Coeff] | None = None):
        self.weights, self.max_length, self.window = weights, max_length, window
        self.scales = {} if scales is None else scales

    def scale(self, component: int, mono: Monomial) -> Coeff:
        return self.scales.get((component, mono), Coeff.one())

    def class_keys(self) -> list[ClassKey]:
        return [
            (i, mono)
            for i in range(len(self.weights))
            for mono in enumerate_all(self.max_length, self.window)
        ]

    def classes(self) -> list[CrystalClass]:
        return [CrystalClass(1, mono, i) for i, mono in self.class_keys()]

    def block(self, j: int) -> LatticeDesc:
        """The one-component lattice of component j: its weight, the same
        probe, and the scales of component j moved to component 0.  It is
        the block of j in a split, and its scales are the part of an
        image-table key that the lattice decides."""
        return LatticeDesc((self.weights[j],), self.max_length, self.window,
                           {(0, mono): c for (i, mono), c in self.scales.items() if i == j})

    def lift(self, b: CrystalClass) -> VermaVector:
        """Lattice generator representing the class: sign * scale * mono . v."""
        elem = Element({b.mono: self.scale(b.component, b.mono) * b.sign})
        return VermaVector(self.weights, {b.component: elem})


def _key_text(key: ClassKey) -> str:
    comp, mono = key
    return f"[{comp}]{format_monomial(mono)}"


def _pole_text(key: ClassKey) -> str:
    return f"coordinate of {_key_text(key)} has a pole at 0"


class NotInLatticeError(ValueError):
    def __init__(self, witness: ClassKey):
        super().__init__(f"not in the lattice: {_pole_text(witness)}")
        self.witness = witness


def _reduce(
    v: VermaVector, scales: dict[ClassKey, Coeff]
) -> tuple[list[ClassKey], dict[ClassKey, Fraction]]:
    """One walk over the lattice coordinates of v (coefficients divided by
    the generator scales, left as they are where none is given): the
    coordinates with a pole at 0, and the image of the others in L/qL as a
    rational combination of monomial classes."""
    poles: list[ClassKey] = []
    out: dict[ClassKey, Fraction] = {}
    for i, e in v.components.items():
        for mono, c in e.items():
            if (i, mono) in scales:
                c = c / scales[i, mono]
            if not c.is_regular_at_zero():
                poles.append((i, mono))
            elif r := c.constant_at_zero():
                out[(i, mono)] = r
    return poles, out


def reduce_mod_q(v: VermaVector, lat: LatticeDesc) -> dict[ClassKey, Fraction]:
    """Image of a lattice vector in L/qL as a signed rational combination of
    monomial classes; raises NotInLatticeError with a witness on poles."""
    poles, out = _reduce(v, lat.scales)
    if poles:
        raise NotInLatticeError(poles[0])
    return out


# a class in L/qL, None for zero, or the text of why the image is not a class
TildeImage = CrystalClass | None | str
ImageReader = Callable[[str, int, CrystalClass], tuple[list[str], TildeImage]]
# (operator, index, sign, monomial, scales of the class's component as
# items of its block) ->
# (the monomials of the coordinates with a pole at 0; the image in L/qL
# without its component: None for zero, (sign, monomial), or why it is not
# a class)
_IMAGES: dict[tuple, tuple] = {}
# the module of the one-component lift an image is computed on; the tilde
# operators never read its weight
_LIFT_AMBIENT = (HighestWeight(1),)


def _signed_monomial(reduced: dict[ClassKey, Fraction]) -> tuple[int, Monomial] | str | None:
    """An image in L/qL as None for zero, (sign, monomial) for a signed
    class, or the reason it is not one."""
    if not reduced:
        return None
    if len(reduced) > 1:
        return "image is a multi-term combination"
    ((_, mono), value), = reduced.items()
    if abs(value) != 1:
        return f"image coefficient {value} is not a sign"
    return (1 if value > 0 else -1), mono


@memo(_IMAGES)
def _tilde_image(op: str, m: int, sign: int, mono: Monomial, scales: frozenset) -> tuple:
    """The component-free part of one tilde image ("xminus" or "omega-psi")
    of the class sign * mono under the given generator scales, an entry of
    `_IMAGES`: the list of lattice monomials with a pole at 0, and, when
    there is none, the image in L/qL as `_signed_monomial` reads it.  The
    operator acts on a one-component lift whose weight it never reads."""
    table = dict(scales)
    scale = table.get((0, mono), Coeff.one())
    lift = VermaVector(_LIFT_AMBIENT, {0: Element({mono: scale * sign})})
    apply = act_xminus if op == "xminus" else tilde_omega
    poles, reduced = _reduce(apply(m, lift), table)
    return [w for _, w in poles], None if poles else _signed_monomial(reduced)


def _image_reader(lat: LatticeDesc) -> ImageReader:
    """The tilde images of lat's classes through the memo.  Every read
    returns the stability witnesses (one per lattice coordinate with a pole
    at 0) and the class of the image in L/qL (a signed class, None for
    zero, or the text of the violation found), named with b's own
    component."""
    scale_keys = [frozenset(lat.block(i).scales.items()) for i in range(len(lat.weights))]

    def image(op: str, m: int, b: CrystalClass) -> tuple[list[str], TildeImage]:
        poles, img = _tilde_image(op, m, b.sign, b.mono, scale_keys[b.component])
        comp = b.component
        if not (poles or isinstance(img, str)):
            return [], None if img is None else CrystalClass(*img, comp)
        source = f"{op}[{m}] on {b}"
        texts = [_pole_text((comp, mono)) for mono in poles]
        why = f"not in the lattice: {texts[0]}" if poles else img
        return [f"{source}: {text}" for text in texts], f"{source}: {why}"

    return image


def crystal_image_x(m: int, b: CrystalClass, lat: LatticeDesc) -> TildeImage:
    """Class of the lowering operator image in L/qL."""
    return _image_reader(lat)("xminus", m, b)[1]


# ---------------------------------------------------------------------------
# axiom verification


def verify_crystal_axioms(lat: LatticeDesc, m_range: tuple[int, int]) -> list[Check]:
    """Run the crystal-basis axiom checks over the lattice's finite probe:
    lattice-stability, weight-grading, image-xminus, image-omega and
    commutation, in that order.

    Every check reads the tilde images through the memo of this module.
    Its key is (operator, index, sign, monomial, scales of the class's
    component) and leaves out the weight, which the tilde operators never
    read, so the components of a sum with equal scales share their
    images, and so do later runs."""
    ms = closed_range(m_range)
    classes = lat.classes()
    ops = ("xminus", "omega-psi")
    image = _image_reader(lat)

    def off_weight(b: CrystalClass) -> str | None:
        # a K and D eigenvector of the expected weight
        lift, lam = lat.lift(b), lat.weights[b.component]
        if act_K(lift) != lift * Coeff.q_power(2 * (lam.h - 2 * len(b.mono))) or (
            act_D(lift) != lift * Coeff.q_power(2 * (lam.d + sum(b.mono)))
        ):
            return f"{b} is not in a single weight space"

    def duplicated(keys: list[ClassKey]) -> str | None:
        # distinctness of class keys is structural; check for collisions anyway
        if len(set(keys)) != len(keys):
            return "duplicate classes in the basis enumeration"

    def not_signed_class(case: tuple[str, int, CrystalClass]) -> str | None:
        img = image(*case)[1]
        return img if isinstance(img, str) else None

    def noncommuting(case: tuple[int, CrystalClass, CrystalClass, CrystalClass]) -> str | None:
        # x[m] after omega(-m) against omega(-m) after x[m]
        m, b, omega_b, x_b = case
        left, right = image("xminus", m, omega_b)[1], image("omega-psi", -m, x_b)[1]
        if left != right:
            return f"m={m}, b={b}: x-after-omega gives {left}, omega-after-x gives {right}"

    stability = Check("lattice-stability").run(
        ((op, m, b) for b in classes for m in ms for op in ops), lambda case: image(*case)[0]
    )
    grading = Check("weight-grading").run(classes, off_weight).run([lat.class_keys()], duplicated)
    images_x = Check("image-xminus").run(
        (("xminus", m, b) for b in classes for m in ms), not_signed_class
    )
    images_omega = Check("image-omega").run(
        (("omega-psi", m, b) for b in classes for m in ms), not_signed_class
    )
    commutation = Check("commutation").run(
        ((m, b, omega_b, x_b) for b in classes for m in ms
         if isinstance(omega_b := image("omega-psi", -m, b)[1], CrystalClass)
         and isinstance(x_b := image("xminus", m, b)[1], CrystalClass)),
        noncommuting,
    )
    return [stability, grading, images_x, images_omega, commutation]


def corrupted_lattice(lat: LatticeDesc) -> LatticeDesc:
    """Control fixture: scale one lattice generator by q^-1."""
    monos = enumerate_basis(min(1, lat.max_length), lat.window)
    scales = dict(lat.scales)
    scales[(0, monos[0])] = Coeff.q_power(-2)
    return LatticeDesc(lat.weights, lat.max_length, lat.window, scales)


# ---------------------------------------------------------------------------
# splitting a crystal basis along a block decomposition


# candidate sublattices: the generators of each part as vectors, part j for
# component j
Split = tuple[list[VermaVector], ...]


def canonical_split(lat: LatticeDesc) -> Split:
    """The component split: part j is spanned by component-j generators."""
    parts: Split = tuple([] for _ in lat.weights)
    for b in lat.classes():
        parts[b.component].append(lat.lift(b))
    return parts


def diagonal_control_split(lat: LatticeDesc) -> Split:
    """Control fixture: a diagonal sublattice that mixes the components, so
    it is not contained in either summand."""
    if len(lat.weights) != 2:
        raise ValueError("diagonal control needs exactly two components")
    diag, anti = [], []
    for mono in enumerate_all(lat.max_length, lat.window):
        e = Element({mono: Coeff.one()})
        diag.append(VermaVector(lat.weights, {0: e, 1: e}))
        anti.append(VermaVector(lat.weights, {0: e, 1: -e}) * Coeff.q_power(2))
    return diag, anti


def _split_generator(lat: LatticeDesc, j: int, gen: VermaVector) -> ClassKey | str | None:
    """The class key that a generator of part j stands for, None for the
    zero vector, or, when it breaks a hypothesis of the split, the rest of
    its witness after the generator's text: it must lie in summand j alone
    and be a scaled monomial vector whose lattice coordinate is a unit at 0."""
    support = sorted(gen.components)
    if len(support) > 1:
        return " mixes components; it does not split inside L"
    if not support:
        return None
    comp = support[0]
    if comp != j:
        return f" lies in component {comp}, outside its summand"
    if len(gen.element(comp)) != 1:
        return " is not a scaled monomial vector; probe cannot certify the split"
    poles, reduced = _reduce(gen, lat.scales)
    if poles or not reduced:
        return ": lattice coordinate is not a unit at 0, so the parts do not sum to L"
    (key, _), = reduced.items()
    return key


def split_converse_check(
    lat: LatticeDesc, split: Split, m_range: tuple[int, int]
) -> tuple[list[str], list[list[Check]]]:
    """Verify that a split of the lattice and basis into one block per
    component restricts to a crystal basis on each block.

    The hypotheses are checked on the finite probe first: each part must lie
    in its own summand (no mixed-component generators), every generator must
    be a scaled monomial vector whose lattice coordinate is a unit at 0, and
    together the parts must cover every probe generator exactly once (this
    is the decomposition L = L_1 + ... + L_n and, with the unit condition,
    L_j = L with M_j intersected).  Returns (witnesses, blocks): one witness
    per offending generator, and, when there is none, the axiom results of
    each block in turn; an incompatible split has no blocks.

    The blocks read their tilde images through the memo, keyed as in
    `verify_crystal_axioms`: block j keeps the scales of component j, so it
    reads the entries a run on the whole sum made.
    """
    witnesses: list[str] = []
    cover: dict[ClassKey, int] = {}
    for j, gens in enumerate(split):
        for gen in gens:
            key = _split_generator(lat, j, gen)
            if isinstance(key, str):
                witnesses.append(f"part {j + 1} generator {format_vector(gen)}{key}")
            elif key is not None:
                if key in cover:
                    witnesses.append(f"generator for {_key_text(key)} covered twice")
                cover[key] = j
    for key in lat.class_keys():
        if key not in cover:
            witnesses.append(f"lattice generator {_key_text(key)} not covered by the split")
    if witnesses:
        return witnesses, []
    return [], [verify_crystal_axioms(lat.block(j), m_range) for j in range(len(lat.weights))]
