"""Exact computation in the lower half of quantum affine sl2.

Submodules:

* qcoeff    -- rational functions in q^(1/2) with a formal central gamma
* qalgebra  -- monomials in the lowering generators, Serre normal ordering
* kashiwara -- annihilation operators and the operator-relation checker
* pairing   -- the bilinear form, Gram matrices, lattice membership probes
* verma     -- reduced imaginary highest-weight modules and their actions
* crystal   -- crystal lattices, mod-q reduction, axiom verification
* check     -- the result record every verifier returns
* cli       -- command-line surface and verification suites
"""

from .qcoeff import Coeff, QRat, congruent_mod_q2, g_coeff, g_coeff_bar, quantum_int
from .qalgebra import (
    Element,
    Weight,
    enumerate_basis,
    format_element,
    normalize,
    parse_element,
    weight_of,
)

__all__ = [
    "Coeff",
    "QRat",
    "Element",
    "Weight",
    "congruent_mod_q2",
    "enumerate_basis",
    "format_element",
    "g_coeff",
    "g_coeff_bar",
    "normalize",
    "parse_element",
    "quantum_int",
    "weight_of",
]
