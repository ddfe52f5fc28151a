"""Acceptance suite: every criterion at its stated bounds, exact arithmetic.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
on success).  All tolerances are zero: every comparison is exact equality
in the coefficient field.
"""

import functools
import hashlib
import json

import pytest

from imcrystal.qcoeff import Coeff
from imcrystal.qalgebra import Element, enumerate_all, normalize_word
from imcrystal.kashiwara import RELATIONS, check_kashiwara_relation
from imcrystal.pairing import pair
from imcrystal.verma import (
    HighestWeight,
    VermaVector,
    component_swap_map,
    verify_intertwining,
)
from imcrystal.crystal import (
    CrystalClass,
    LatticeDesc,
    canonical_split,
    corrupted_lattice,
    crystal_image_x,
    diagonal_control_split,
    split_converse_check,
    verify_crystal_axioms,
)
from imcrystal import pairing as pairing_mod
from imcrystal.cli import (
    run_suite,
    suite_confluence,
    suite_crystal,
    suite_form,
    suite_module,
)


def _line(n: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n}: {desc}"


def test_criterion_1_serre_rewriting_and_confluence():
    exact = normalize_word((0, 1)) == Element({(1, 0): Coeff.q_power(4)})
    rep = suite_confluence(seed=1729, samples=200, max_length=5, window=(-3, 3))
    _line(
        1,
        exact and rep.passed,
        "Serre instance exact; 200-word confluence probe, two strategies, "
        "zero tolerance",
    )


def test_criterion_2_kashiwara_relations_formal_gamma():
    ok = True
    detail = []
    for rel in RELATIONS:
        rep = check_kashiwara_relation(rel, (-2, 2), max_length=2, window=(-2, 2))
        ok = ok and rep.passed
        detail.append(f"{rel}:{rep.checked}")
        if not rep.passed:
            detail.append(rep.witnesses[0])
    _line(
        2,
        ok,
        "operator identities with formal gamma, components [-2,2], "
        "monomials length <= 2 window [-2,2] (" + ", ".join(detail) + ")",
    )


def test_criterion_3_closed_formula_oracle():
    from imcrystal.kashiwara import PSI, omega_mono, omega_psi_closed

    ok = True
    checked = 0
    for mono in enumerate_all(3, (-2, 2)):
        for p in range(-5, 6):
            checked += 1
            if omega_psi_closed(p, mono) != omega_mono(PSI, p, mono):
                ok = False
    _line(3, ok, f"deletion-slot formula equals recursion on {checked} cases, exact")


def test_criterion_4_bilinear_form():
    rep = suite_form(seed=1729, samples=200, max_length=3, window=(-2, 2))
    frozen = pair(Element.monomial((1, 1)), Element.monomial((1, 1))) == (
        Coeff.one() + Coeff.q_power(4)
    )
    _line(
        4,
        rep.passed and frozen,
        "symmetry/adjointness on 200 random pairs; Gram congruences for all "
        "weights length <= 3; cross-length zero; (x[1]x[1], x[1]x[1]) = 1+q^2",
    )


@functools.lru_cache(maxsize=1)
def _module_report():
    return suite_module(
        weights=(1, 2, -1), d=0, max_length=3, window=(-2, 2), comp_range=(-2, 2),
    )


def test_criterion_5_module_relations():
    report = _module_report()
    relation_names = {
        "relation-h-h",
        "relation-h-xminus",
        "relation-K-conjugation",
        "relation-D-conjugation",
        "relation-xplus-xminus",
        "weight-decomposition",
    }
    ok = all(r.passed for r in report.results if r.name in relation_names)
    _line(
        5,
        ok,
        "Drinfeld defining relations as operator identities, length <= 3, "
        "window [-2,2], h in {1,2,-1}, exact",
    )


def test_module_report_check_counts():
    # a fast path that silently checks fewer cases changes these counts
    counts = {r.name: r.checked for r in _module_report().results}
    assert counts == {
        "relation-h-h": 2688,
        "relation-h-xminus": 2688,
        "relation-K-conjugation": 840,
        "relation-D-conjugation": 1680,
        "relation-xplus-xminus": 4200,
        "weight-decomposition": 2325,
        "local-nilpotency": 1176,
        "simplicity-probe": 165,
        "intertwining-maps": 2205,
        "swap-control-detected": 1,
    }


# the sha256 of `imcrystal verify <suite> [--corrupt <fixture>] --format json`
# at default bounds
REPORT_DIGESTS = {
    ("module", None): "a5745f94d3908ebbade7bab5bb067342e5b2996767bd0cdbf10480e02e2605cc",
    ("confluence", None): "dc1bff9ad79e530b1e022798c772eaa010ccca3f35f92a994dd8584dde386474",
    ("relations", None): "ad0303068841fa78cc58681838f3c097c54915510c45a46dab9f73239fd57b86",
    ("form", None): "ed93d02fbf23220c151f032fff281d9fe0c6d6e6076a0650b6768713b6e0e6fd",
    ("crystal", None): "5133e637989f94944564c71d193a3c53a773f25e3f83b9dcaafc3d788051041b",
    ("form", "gram"): "e05124e973ca3aab9d678075d47e8c26fbe3cc6b85f6a90433d35dc1c97b03ac",
    ("crystal", "lattice"): "40fafc197fe61ceb2179174c279cf1b745ec1983276e97a196bf9f33183b2aa4",
}


@pytest.mark.parametrize(
    "suite, corrupt",
    list(REPORT_DIGESTS),
    ids=[f"{s}-{c}" if c else s for s, c in REPORT_DIGESTS],
)
def test_module_report_digest(suite, corrupt):
    # the report as the CLI prints it: a change to any check, count or
    # witness changes it
    if suite == "module":
        reports = [_module_report()]
    else:
        reports = run_suite(suite, corrupt=corrupt)
    text = json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[suite, corrupt]


def test_criterion_6_local_nilpotency():
    res = {r.name: r for r in _module_report().results}
    ok = res["local-nilpotency"].passed and res["simplicity-probe"].passed
    _line(
        6,
        ok,
        "(x+_n)^(k+1) annihilates every length-k sample for n in [-3,3]; "
        "raising paths reach the highest weight",
    )


def test_criterion_7_crystal_axioms():
    rep = suite_crystal(
        weights=(1, 3), d=0, max_length=3, window=(-2, 2), m_range=(-3, 3)
    )
    lat = LatticeDesc((HighestWeight(1, 0),), 3, (-2, 2))
    signed = crystal_image_x(0, CrystalClass(1, (2,), 0), lat) == CrystalClass(
        -1, (1, 1), 0
    )
    names = {r.name: r for r in rep.results}
    ok = (
        names["axioms-h1"].passed
        and names["axioms-h3"].passed
        and names["axioms-direct-sum"].passed
        and signed
    )
    _line(
        7,
        ok,
        "crystal axioms for h in {1,3} and the two-component sum, length <= 3, "
        "window [-2,2], m in [-3,3]; signed image x~_0 class(x[2]) -> "
        "-class(x[1]x[1])",
    )


def test_criterion_8_converse_splitting():
    lat = LatticeDesc((HighestWeight(1, 0), HighestWeight(3, 0)), 3, (-2, 2))
    good_witnesses, good_blocks = split_converse_check(lat, canonical_split(lat), (-3, 3))
    good = not good_witnesses and all(r.passed for block in good_blocks for r in block)
    lat_eq = LatticeDesc((HighestWeight(1, 0), HighestWeight(1, 0)), 1, (-2, 2))
    witnesses, blocks = split_converse_check(lat_eq, diagonal_control_split(lat_eq), (-3, 3))
    _line(
        8,
        good and len(good_blocks) == 2 and bool(witnesses) and blocks == [],
        "canonical split passes; diagonal sublattice control rejected with "
        "witness",
    )


def test_crystal_at_length_4():
    # `verify crystal --max-length 4 --window -3:3 --m -4:4`: the axioms and
    # the converse split at a larger bound than criteria 7 and 8
    (report,) = run_suite("crystal", max_length=4, window=(-3, 3), m_range=(-4, 4))
    assert [(r.name, r.passed, r.checked) for r in report.results] == [
        ("axioms-h1", True, 12918),
        ("axioms-h3", True, 12918),
        ("axioms-direct-sum", True, 25835),
        ("direct-sum-coherence", True, 1),
        ("split-canonical", True, 1),
        ("split-diagonal-control", True, 1),
        ("signed-image-example", True, 1),
    ]


def test_criterion_9_negative_controls():
    # scaled lattice
    bad_lat = corrupted_lattice(LatticeDesc((HighestWeight(1, 0),), 2, (-1, 1)))
    crystal_rep = {r.name: r for r in verify_crystal_axioms(bad_lat, (-2, 2))}
    lattice_ok = not all(r.passed for r in crystal_rep.values()) and bool(
        crystal_rep["lattice-stability"].witnesses
    )

    # swapped-component map
    desc = (HighestWeight(1, 0), HighestWeight(3, 0))
    samples = [VermaVector(desc, {i: Element.monomial(m)}) for m in enumerate_all(1, (-1, 1))
               for i in (0, 1)]
    swap_rep = verify_intertwining(component_swap_map(desc), samples, (-1, 1))
    swap_ok = not swap_rep.passed and bool(swap_rep.witnesses)

    # perturbed Gram entry
    from imcrystal.qalgebra import Weight

    g = pairing_mod.gram(Weight(2, 2), (0, 2))
    g.entries[0][0] = g.entries[0][0] + Coeff.q_power(2)
    ortho = pairing_mod.orthonormality_report(g)
    gram_ok = not ortho.passed and bool(ortho.witnesses)

    _line(
        9,
        lattice_ok and swap_ok and gram_ok,
        "corrupted fixtures each fail with a witness: scaled lattice, swapped "
        "map, perturbed Gram entry",
    )
