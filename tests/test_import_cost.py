"""What importing the package costs, and the value types that keep it cheap.

Every ``hodge`` run and every benchmark repetition starts by importing the
package.  ``dataclasses`` pulls in ``inspect`` (and with it ``ast``, ``dis``
and ``tokenize``) and builds each decorated class's methods by ``exec``, so
the records are plain slotted classes and no module imports it.  The value
types inherit ``record.Record`` and keep exactly what the dataclasses gave
them: equality by value, the hash of the tuple of their fields, and the
``Name(field=value, ...)`` repr.  Every other class keeps identity
equality.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quatprym import config
from quatprym import lie_engine as le
from quatprym import qalg
from quatprym import surface_homs as sh
from quatprym.record import Record

SRC = Path(__file__).resolve().parent.parent / "src"

# -S: no site hooks, so the modules loaded are those the package asks for
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
heavy = ("dataclasses", "inspect")
import quatprym
print(*(name in sys.modules for name in heavy))
import quatprym.cli
print(*(name in sys.modules for name in heavy))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out.split("\n") == ["False False", "False False", ""]


# each hashed value type: two equal values built apart, the value with one
# field changed, the tuple of its fields, and the repr the dataclass gave it
HAM = qalg.HAMILTON
VALUES = {
    "AlgebraParams": (
        qalg.AlgebraParams.make(-1, -3), qalg.AlgebraParams(Fraction(-1), Fraction(-3)),
        qalg.AlgebraParams.make(-3, -1), (Fraction(-1), Fraction(-3)),
        "AlgebraParams(r=Fraction(-1, 1), s=Fraction(-3, 1))",
    ),
    "QuatElem": (
        qalg.QuatElem.make(HAM, 1, Fraction(1, 2), 0, -2),
        qalg.QuatElem(qalg.AlgebraParams.make(-1, -1), Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-2)),
        qalg.QuatElem.make(qalg.AlgebraParams.make(-1, -3), 1, Fraction(1, 2), 0, -2),
        (HAM, Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-2)),
        "QuatElem(params=AlgebraParams(r=Fraction(-1, 1), s=Fraction(-1, 1)), a=Fraction(1, 1),"
        " b=Fraction(1, 2), c=Fraction(0, 1), d=Fraction(-2, 1))",
    ),
    "KNum": (
        qalg.KNum.make(-1, 2, Fraction(1, 2)), qalg.KNum(Fraction(-1), Fraction(2), Fraction(1, 2)),
        qalg.KNum.make(-1, 2, Fraction(-1, 2)), (-1, 2, Fraction(1, 2)),
        "KNum(r=-1, u=2, v=Fraction(1, 2))",
    ),
    "SimpleFactor": (
        le.SimpleFactor("B", 3), le.AlgebraType.parse("B3").factors[0],
        le.SimpleFactor("D", 3), ("B", 3),
        "SimpleFactor(family='B', rank=3)",
    ),
    "AlgebraType": (
        le.AlgebraType.parse("B3+A1"), le.AlgebraType((le.SimpleFactor("B", 3), le.SimpleFactor("A", 1))),
        le.AlgebraType.parse("A1+B3"), ((le.SimpleFactor("B", 3), le.SimpleFactor("A", 1)),),
        "AlgebraType(factors=(SimpleFactor(family='B', rank=3), SimpleFactor(family='A', rank=1)))",
    ),
    "HomTuple": (
        sh.standard_hom(2), sh.parse_hom(2, "i,j,1,1"),
        sh.parse_hom(2, "j,i,1,1"), (2, ((1, 1), (1, 2), (1, 0), (1, 0))),
        "HomTuple(g=2, images=((1, 1), (1, 2), (1, 0), (1, 0)))",
    ),
    "Move": (
        sh.beta_slide(2, 1), sh.Move("BETA_SLIDE(1)", 2, ((1,), (2,), (3, 1), (4,))),
        sh.alpha_slide(2, 1), ("BETA_SLIDE(1)", 2, ((1,), (2,), (3, 1), (4,))),
        "Move(kind='BETA_SLIDE(1)', g=2, images=((1,), (2,), (3, 1), (4,)))",
    ),
    "EnumReport": (
        sh.enumerate_surjections(2), sh.EnumReport(2, 4096, 2176, 1440, (1440,), 1440),
        sh.EnumReport(2, 4096, 2176, 1440, (1440,), 1), (2, 4096, 2176, 1440, (1440,), 1440),
        "EnumReport(genus=2, total=4096, valid=2176, surjective=1440, orbit_sizes=(1440,),"
        " standard_orbit_size=1440)",
    ),
    # Budgets has no field to change, so None stands in for the other value
    "Budgets": (config.Budgets(), config.load_budgets(), None, (), "Budgets()"),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_types_keep_their_dataclass_semantics(name):
    x, same, other, fields, text = VALUES[name]
    assert type(x).__name__ == name and x is not same
    assert x == same and not x != same and x != other
    assert x != fields  # a record is never its plain tuple
    assert hash(x) == hash(same) == hash(fields)
    assert {x: 1}[same] == 1 and len({x, same, other}) == 2
    assert repr(x) == text


def _descendants(cls):
    return {d for c in cls.__subclasses__() for d in {c} | _descendants(c)}


def test_only_the_value_types_are_records():
    # importing the package loads every module that defines a class.
    # report._Run keys its memo on its arguments, among them identity-equal
    # values such as a SpinRep, whose dict field cannot be hashed: a class
    # like that must not inherit the record hash
    assert {c.__name__ for c in _descendants(Record)} == set(VALUES)
