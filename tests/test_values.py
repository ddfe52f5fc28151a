"""The value classes: what their callers rely on of equality, hashing,
order, printed form and immutability, each record's own fresh containers,
and an import of the command line that loads neither `dataclasses` nor
`inspect`.  `HighestWeight` is covered further in test_verma.py."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import imcrystal
from imcrystal.check import Check
from imcrystal.crystal import CrystalClass, LatticeDesc
from imcrystal.qalgebra import Element, Weight
from imcrystal.qcoeff import Coeff, QRat
from imcrystal.verma import HighestWeight, VermaVector

SRC = Path(imcrystal.__file__).parents[1]


def test_the_cli_imports_without_dataclasses_or_inspect():
    # a fresh interpreter, so that nothing an earlier test imported counts
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import imcrystal.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert not {"dataclasses", "inspect"} & set(out), f"newly loaded: {out}"


# each immutable value class: two builds of one value, and a build of
# another value of the same class
VALUES = {
    "Weight": (lambda: Weight(1, 2), lambda: Weight(2, 1)),
    "QRat": (lambda: QRat(Fraction(2, 3), -1, (1, 1), (1,)),
             lambda: QRat(Fraction(2, 3), -1, (1, 1), (1, 2))),
    "HighestWeight": (lambda: HighestWeight(3, -2), lambda: HighestWeight(3, 2)),
    "CrystalClass": (lambda: CrystalClass(-1, (1, 0), 2), lambda: CrystalClass(1, (1, 0), 2)),
}


@pytest.mark.parametrize("build, other", VALUES.values(), ids=VALUES)
class TestValueClass:
    def test_assignment_and_deletion_raise(self, build, other):
        v = build()
        for field in v.__slots__:
            with pytest.raises(AttributeError):
                setattr(v, field, 0)
            with pytest.raises(AttributeError):
                delattr(v, field)
        with pytest.raises(AttributeError):
            v.extra = 0
        assert v == build()

    def test_equal_and_hashed_by_value(self, build, other):
        a, b = build(), build()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != other() and len({a, b, other()}) == 2

    def test_never_equal_to_the_tuple_of_its_fields(self, build, other):
        v = build()
        fields = tuple(getattr(v, field) for field in v.__slots__)
        assert v != fields and fields != v
        assert fields not in {v} and v not in {fields}


class TestWeight:
    def test_equal_and_hashed_by_value(self):
        assert Weight(1, 2) == Weight(1, 2) and Weight(1, 2) != Weight(2, 1)
        assert hash(Weight(1, 2)) == hash(Weight(1, 2))
        assert {Weight(1, 2): "a"}[Weight(1, 2)] == "a"

    def test_not_equal_to_a_tuple(self):
        assert Weight(1, 2) != (1, 2)
        assert (1, 2) != Weight(1, 2)

    def test_ordered_as_the_pair(self):
        ws = [Weight(2, 0), Weight(1, 5), Weight(1, -1), Weight(0, 3)]
        assert sorted(ws) == [Weight(0, 3), Weight(1, -1), Weight(1, 5), Weight(2, 0)]
        assert Weight(1, 2) <= Weight(1, 2) < Weight(1, 3)
        assert Weight(2, 0) >= Weight(1, 9) > Weight(1, 8)
        with pytest.raises(TypeError):
            Weight(1, 2) < (1, 3)

    def test_repr(self):
        assert repr(Weight(1, 2)) == "Weight(length=1, degree=2)"
        assert f"{Weight(0, -3)}" == "Weight(length=0, degree=-3)"

    def test_keywords(self):
        assert Weight(length=1, degree=2) == Weight(1, 2)

    def test_frozen(self):
        w = Weight(1, 2)
        with pytest.raises(AttributeError):
            w.length = 3
        with pytest.raises(AttributeError):
            del w.degree
        assert w == Weight(1, 2)


class TestQRat:
    def test_equal_and_hashed_by_value(self):
        a = QRat.q_power(2) + QRat.one()
        b = QRat.one() + QRat.q_power(2)
        assert a == b and hash(a) == hash(b)
        assert a != QRat.one() and QRat.zero() == QRat.rational(0)
        assert len({a, b, QRat.one()}) == 2

    def test_repr(self):
        assert repr(QRat.one()) == "QRat(scale=Fraction(1, 1), shift=0, num=(1,), den=(1,))"
        assert repr(QRat.rational(Fraction(-2, 3)) * QRat.q_power(-1)) == (
            "QRat(scale=Fraction(-2, 3), shift=-1, num=(1,), den=(1,))"
        )

    def test_frozen(self):
        r = QRat.q_power(2)
        with pytest.raises(AttributeError):
            r.shift = 0
        with pytest.raises(AttributeError):
            del r.num
        assert r == QRat.q_power(2)


def test_crystal_class_is_a_dict_key():
    table = {CrystalClass(1, (0,), 0): "a", CrystalClass(-1, (0,), 0): "b"}
    assert table[CrystalClass(1, (0,), 0)] == "a"
    assert table[CrystalClass(-1, (0,), 0)] == "b"
    assert CrystalClass(1, (0,), 1) not in table
    assert str(CrystalClass(-1, (1, 0), 2)) == "-[2]x[1]x[0]"


class TestVermaVector:
    def test_drops_zero_components_and_compares_by_value(self):
        ambient = (HighestWeight(1), HighestWeight(3))
        v = VermaVector(ambient, {0: Element.one(), 1: Element.zero()})
        assert v.components == {0: Element.one()}
        assert v == VermaVector(ambient, {0: Element.one()})
        assert v != VermaVector(ambient, {1: Element.one()})
        assert VermaVector(ambient, {1: Element.zero()}).is_zero

    def test_rejects_a_component_outside_the_sum(self):
        with pytest.raises(ValueError):
            VermaVector((HighestWeight(1),), {1: Element.one()})


def test_each_record_has_its_own_containers():
    # a default container shared between instances would carry one
    # record's entries into the next
    a, b = Check("a"), Check("a")
    a.run([1], lambda n: "bad")
    assert a.witnesses == ["bad"] and b.witnesses == [] and a.witnesses is not b.witnesses
    first = LatticeDesc((HighestWeight(1),), 1, (0, 1))
    second = LatticeDesc((HighestWeight(1),), 1, (0, 1))
    first.scales[(0, ())] = Coeff.q_power(2)
    assert second.scales == {} and first.scales is not second.scales
