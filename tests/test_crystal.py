"""Crystal lattices: reduction, signed images, axioms, and splitting."""

import hashlib
import json
import re
from collections import Counter
from fractions import Fraction

import pytest

from imcrystal import cli, crystal
from imcrystal.qcoeff import Coeff
from imcrystal.qalgebra import Element
from imcrystal.verma import HighestWeight, VermaVector
from imcrystal.crystal import (
    CrystalClass,
    LatticeDesc,
    NotInLatticeError,
    canonical_split,
    corrupted_lattice,
    crystal_image_x,
    diagonal_control_split,
    reduce_mod_q,
    split_converse_check,
    verify_crystal_axioms,
)


@pytest.fixture
def lat():
    return LatticeDesc((HighestWeight(1, 0),), 3, (-2, 2))


def vec(lat, mono, coeff=None):
    e = Element.monomial(mono, coeff)
    return VermaVector(lat.weights, {0: e})


def crystal_image_omega(m, b, lat):
    """Class of the annihilation operator image in L/qL."""
    return crystal._image_reader(lat)("omega-psi", m, b)[1]


def assemble_direct_sum_basis(weights, max_length, window):
    """Componentwise lattice and disjoint-union basis for a direct sum."""
    lat = LatticeDesc(tuple(weights), max_length, window)
    return lat, lat.classes()


def by_name(results):
    """The results of an axiom run, keyed by name."""
    return {r.name: r for r in results}


def passed(results):
    return all(r.passed for r in results)


def observed_signs(lat, m_range):
    """Every signed tilde image of a run on the lattice, as text; after a
    run on a cold table, these are the entries that run made."""
    image = crystal._image_reader(lat)
    return [
        f"{op}[{m}] {b.describe()} -> {img.describe()}"
        for b in lat.classes()
        for m in range(m_range[0], m_range[1] + 1)
        for op in ("xminus", "omega-psi")
        if isinstance(img := image(op, m, b)[1], CrystalClass)
    ]


class TestReduce:
    def test_multiple_of_q_dies(self, lat):
        assert reduce_mod_q(vec(lat, (1, 0), Coeff.q_power(4)), lat) == {}

    def test_monomial_survives(self, lat):
        assert reduce_mod_q(vec(lat, (1, 0)), lat) == {(0, (1, 0)): Fraction(1)}

    def test_negative_constant_term(self, lat):
        c = Coeff.q_power(4) - Coeff.one()
        assert reduce_mod_q(vec(lat, (1, 1), c), lat) == {(0, (1, 1)): Fraction(-1)}

    def test_pole_reports_witness(self, lat):
        with pytest.raises(NotInLatticeError) as err:
            reduce_mod_q(vec(lat, (0,), Coeff.q_power(-2)), lat)
        assert err.value.witness == (0, (0,))


class TestImages:
    def test_signed_image(self, lat):
        img = crystal_image_x(0, CrystalClass(1, (2,), 0), lat)
        assert img == CrystalClass(-1, (1, 1), 0)

    def test_plain_image(self, lat):
        img = crystal_image_x(2, CrystalClass(1, (1, 0), 0), lat)
        assert img == CrystalClass(1, (2, 1, 0), 0)

    def test_image_zero(self, lat):
        assert crystal_image_x(0, CrystalClass(1, (1, 0), 0), lat) is None

    def test_omega_images(self, lat):
        b = CrystalClass(1, (1, 0), 0)
        assert crystal_image_omega(-1, b, lat) == CrystalClass(1, (0,), 0)
        assert crystal_image_omega(0, b, lat) is None
        assert crystal_image_omega(7, CrystalClass(1, (), 0), lat) is None

    def test_sign_propagates(self, lat):
        img = crystal_image_x(0, CrystalClass(-1, (2,), 0), lat)
        assert img == CrystalClass(1, (1, 1), 0)

    def test_lattice_is_required(self):
        with pytest.raises(TypeError):
            crystal_image_x(0, CrystalClass(1, (2,), 0))


class TestAxioms:
    def test_single_component_passes(self, cold):
        cold(crystal._IMAGES)
        lat = LatticeDesc((HighestWeight(1, 0),), 2, (-1, 1))
        rep = verify_crystal_axioms(lat, (-2, 2))
        assert passed(rep)
        names = [r.name for r in rep]
        assert names == [
            "lattice-stability",
            "weight-grading",
            "image-xminus",
            "image-omega",
            "commutation",
        ]
        assert all(r.checked > 0 for r in rep)
        assert observed_signs(lat, (-2, 2))

    def test_two_component_passes(self):
        lat = LatticeDesc((HighestWeight(1, 0), HighestWeight(3, 0)), 2, (-1, 1))
        rep = verify_crystal_axioms(lat, (-2, 2))
        assert passed(rep)

    def test_corrupted_lattice_fails_with_witness(self):
        lat = corrupted_lattice(LatticeDesc((HighestWeight(1, 0),), 2, (-1, 1)))
        rep = verify_crystal_axioms(lat, (-2, 2))
        assert not passed(rep)
        stability = by_name(rep)["lattice-stability"]
        assert stability.witnesses and "pole at 0" in stability.witnesses[0]

    def test_each_image_is_computed_once(self, monkeypatch, cold):
        cold(crystal._IMAGES)
        applied = Counter()

        def counting(name, apply):
            # keyed by the vector's value: its module and its components
            def wrapper(m, v):
                applied[(name, m, v.ambient, repr(sorted(v.components.items())))] += 1
                return apply(m, v)
            return wrapper

        monkeypatch.setattr(crystal, "act_xminus", counting("xminus", crystal.act_xminus))
        monkeypatch.setattr(crystal, "tilde_omega", counting("omega", crystal.tilde_omega))
        lat = LatticeDesc((HighestWeight(1, 0), HighestWeight(3, 0)), 2, (-1, 1))
        verify_crystal_axioms(lat, (-2, 2))
        assert applied
        assert [key for key, n in applied.items() if n > 1] == []

    def test_commutation_witness_describes_a_violation(self, monkeypatch, cold):
        # a lowering operator that doubles its image of the highest-weight
        # vector: x-after-omega then reaches a class with coefficient 2; the
        # cold table keeps its images out of the memo of later tests
        cold(crystal._IMAGES)

        def doubled(m, v):
            image = act_xminus(m, v)
            at_top = any(mono == () for mono, _ in v.element(0).items())
            return image * Coeff.rational(2) if at_top else image

        act_xminus = crystal.act_xminus
        monkeypatch.setattr(crystal, "act_xminus", doubled)
        lat = LatticeDesc((HighestWeight(1, 0),), 2, (-1, 1))
        commutation = by_name(verify_crystal_axioms(lat, (-1, 1)))["commutation"]
        assert commutation.witnesses[0] == (
            "m=1, b=+[0]x[1]: x-after-omega gives xminus[1] on +[0]1: "
            "image coefficient 2 is not a sign, omega-after-x gives +[0]x[1]"
        )

    @pytest.mark.parametrize(
        "weights, window, digest",
        [
            ((1,), (-1, 1), "d0b27059b857726b"),
            ((1, 3), (-2, 2), "f3a6b84295c23984"),
        ],
    )
    def test_uncapped_witness_text(self, cold, weights, window, digest):
        # every witness and observed sign of the corrupted fixture, none capped
        cold(crystal._IMAGES)
        base = LatticeDesc(tuple(HighestWeight(h, 0) for h in weights), 2, window)
        lat = corrupted_lattice(base)
        rep = verify_crystal_axioms(lat, (-2, 2))
        text = json.dumps(
            [[r.name, r.checked, r.witnesses] for r in rep] + [observed_signs(lat, (-2, 2))]
        )
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_report_serialization(self):
        lat = LatticeDesc((HighestWeight(1, 0),), 1, (0, 1))
        rep = verify_crystal_axioms(lat, (-1, 1))
        rows = json.loads(json.dumps([r.to_dict() for r in rep]))
        assert [row["status"] for row in rows] == ["pass"] * 5


# the bounds of `verify crystal --max-length 2 --window -1:1 --m -1:1`
SMALL = {"max_length": 2, "window": (-1, 1), "m_range": (-1, 1)}


def _rows(checks):
    return [(r.name, r.checked, r.witnesses) for r in checks]


def _count_applications(monkeypatch) -> Counter:
    """Count each tilde application by operator, index and the element it
    is applied to, which carries the sign, the monomial and its scale but
    neither the weight nor the component."""
    applied = Counter()

    def counting(name, apply):
        def wrapper(m, v):
            (e,) = v.components.values()
            applied[(name, m, repr(e))] += 1
            return apply(m, v)
        return wrapper

    monkeypatch.setattr(crystal, "act_xminus", counting("xminus", crystal.act_xminus))
    monkeypatch.setattr(crystal, "tilde_omega", counting("omega", crystal.tilde_omega))
    return applied


class TestImageTable:
    @pytest.mark.parametrize(
        "bounds",
        [
            {"weights": (1, 3)},
            {"weights": (1, 3, 5)},
            {"weights": (1, 1)},
            {"weights": (1, 3), "d": 1},
            {"weights": (1, 3), "corrupt": "lattice"},
            {"weights": (1, 1), "corrupt": "lattice"},
        ],
        ids=["h13", "h135", "h11", "d1", "corrupt", "h11-corrupt"],
    )
    def test_shared_table_matches_fresh_tables(self, monkeypatch, bounds):
        # every uncapped result of one suite run through the memo, against
        # the same run that computes each image anew at every read
        memoised = _rows(cli.suite_crystal(**SMALL, **bounds).results)
        monkeypatch.setattr(crystal, "_tilde_image", crystal._tilde_image.__wrapped__)
        assert memoised == _rows(cli.suite_crystal(**SMALL, **bounds).results)

    @pytest.mark.parametrize(
        "bounds, total, most",
        [({}, 69, 1), ({"weights": (1, 3, 5)}, 69, 1), ({"corrupt": "lattice"}, 136, 2)],
        ids=["h13", "h135", "corrupt"],
    )
    def test_each_image_is_applied_once_per_suite_run(
        self, monkeypatch, cold, bounds, total, most
    ):
        # 68 tilde images serve every lattice of the run without scales, and
        # one more is signed-image-example's x[2], outside the window.  With
        # --corrupt lattice, component 0 has the corrupted scales and
        # component 1 of the sum has none, so each element is applied once
        # per scale key.  Per-call tables made 409, 477 and 405 applications.
        # A second run reads every image from the memo.
        cold(crystal._IMAGES)
        applied = _count_applications(monkeypatch)
        cli.suite_crystal(**SMALL, **bounds)
        assert sum(applied.values()) == total
        assert max(applied.values()) == most
        applied.clear()
        cli.suite_crystal(**SMALL, **bounds)
        assert sum(applied.values()) == 0

    def test_weight_is_not_in_the_key(self, monkeypatch, cold):
        # the tilde operators never read the weight: after M(1) on a cold
        # table, M(3) and M(-2, 1) find every image of length <= 2 there
        cold(crystal._IMAGES)
        verify_crystal_axioms(LatticeDesc((HighestWeight(1, 0),), 2, (-2, 2)), (-2, 2))
        assert len(crystal._IMAGES) > 100
        applied = _count_applications(monkeypatch)
        for h, d in ((3, 0), (-2, 1)):
            verify_crystal_axioms(LatticeDesc((HighestWeight(h, d),), 2, (-2, 2)), (-2, 2))
        assert not applied


class TestAssemble:
    def test_single(self):
        lat, basis = assemble_direct_sum_basis([HighestWeight(1, 0)], 1, (0, 1))
        assert {b.component for b in basis} == {0}
        assert len(basis) == 3  # (), (1,), (0,)

    def test_two_components_tagged(self):
        lat, basis = assemble_direct_sum_basis(
            [HighestWeight(1, 0), HighestWeight(3, 0)], 1, (0, 1)
        )
        assert {b.component for b in basis} == {0, 1}

    def test_empty(self):
        lat, basis = assemble_direct_sum_basis([], 2, (0, 1))
        assert basis == []


class TestSplit:
    def test_canonical_split_passes(self):
        lat = LatticeDesc((HighestWeight(1, 0), HighestWeight(3, 0)), 1, (-1, 1))
        witnesses, blocks = split_converse_check(lat, canonical_split(lat), (-1, 1))
        assert witnesses == [] and all(passed(block) for block in blocks)
        assert len(blocks) == 2

    def test_diagonal_control_rejected(self):
        lat = LatticeDesc((HighestWeight(1, 0), HighestWeight(1, 0)), 1, (-1, 1))
        witnesses, blocks = split_converse_check(lat, diagonal_control_split(lat), (-1, 1))
        assert witnesses and blocks == []
        assert any("mixes components" in w for w in witnesses)

    def test_degenerate_single_component(self):
        lat = LatticeDesc((HighestWeight(1, 0),), 1, (-1, 1))
        witnesses, blocks = split_converse_check(lat, canonical_split(lat), (-1, 1))
        assert witnesses == [] and all(passed(block) for block in blocks)
        assert len(blocks) == 1

    @pytest.mark.parametrize(
        "weights",
        [((1, 0), (3, 0), (-2, 0)), ((1, 1), (1, 1), (3, 1))],
        ids=["distinct", "repeated-d1"],
    )
    def test_canonical_split_of_three_components(self, weights):
        # one block per component, a repeated weight and d = 1 included
        lat = LatticeDesc(tuple(HighestWeight(h, d) for h, d in weights), 2, (-1, 1))
        assert passed(verify_crystal_axioms(lat, (-1, 1)))
        witnesses, blocks = split_converse_check(lat, canonical_split(lat), (-1, 1))
        assert witnesses == []
        assert len(blocks) == 3 and all(passed(block) for block in blocks)
        # block j is the axiom run on component j alone, with its own weight
        assert [_rows(block) for block in blocks] == [
            _rows(verify_crystal_axioms(LatticeDesc((HighestWeight(h, d),), 2, (-1, 1)), (-1, 1)))
            for h, d in weights
        ]

    def test_three_components_with_a_repeated_weight_at_default_bounds(self, cold):
        cold(crystal._IMAGES)
        m_range = (-3, 3)
        weights = (HighestWeight(1, 0), HighestWeight(3, 0), HighestWeight(1, 0))
        lat = LatticeDesc(weights, 3, (-2, 2))
        assert passed(verify_crystal_axioms(lat, m_range))
        witnesses, blocks = split_converse_check(lat, canonical_split(lat), m_range)
        assert witnesses == []
        assert len(blocks) == 3 and all(passed(block) for block in blocks)

    def test_corrupted_three_components(self, cold):
        # the corrupted generator lies in component 0: only its classes fail
        # stability, and the component split itself stays compatible
        cold(crystal._IMAGES)
        m_range = (-1, 1)
        weights = (HighestWeight(1, 0), HighestWeight(3, 0), HighestWeight(-2, 0))
        lat = corrupted_lattice(LatticeDesc(weights, 2, (-1, 1)))
        stability = by_name(verify_crystal_axioms(lat, m_range))["lattice-stability"]
        assert stability.witnesses
        for w in stability.witnesses:
            assert re.findall(r"(?:[+-]|of )\[(\d+)\]", w) == ["0", "0"], w
        witnesses, blocks = split_converse_check(lat, canonical_split(lat), m_range)
        assert witnesses == []
        assert [passed(block) for block in blocks] == [False, True, True]
        assert by_name(blocks[0])["lattice-stability"].witnesses == stability.witnesses

    def test_direct_sum_coherence(self):
        window, mrange = (-1, 1), (-2, 2)
        both = LatticeDesc((HighestWeight(1, 0), HighestWeight(3, 0)), 2, window)
        parts = [
            LatticeDesc((HighestWeight(1, 0),), 2, window),
            LatticeDesc((HighestWeight(3, 0),), 2, window),
        ]
        combined = passed(verify_crystal_axioms(both, mrange))
        separate = all(passed(verify_crystal_axioms(p, mrange)) for p in parts)
        assert combined == separate
