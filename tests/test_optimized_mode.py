"""Correctness checks that must hold under ``python -O``.

``-O`` strips every ``assert``, so a check that guards a result has to be a
raise.  The cases run in one fresh ``python -O`` interpreter, which prints
one line per case.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
from fractions import Fraction
from quatprym import lie_engine as le, qalg

print("debug", __debug__)
third = qalg.QuatElem.make(qalg.HAMILTON, Fraction(1, 3))
cases = [
    ("hurwitz_index_identity", lambda: qalg.hurwitz_index_identity(third)),
    ("weyl_dim", lambda: le.weyl_dim(le.B3, (Fraction(1, 2), 0, 0))),
    ("dominant_table", lambda: le.dominant_table(le.B3, (Fraction(1, 2), 0, 0))),
    ("irrep_weights", lambda: le.irrep_weights(le.B3, (Fraction(1, 2), 0, 0))),
]
for name, call in cases:
    try:
        print(name, "returned", call())
    except ValueError as exc:
        print(name, "ValueError", exc)
"""


def test_checks_raise_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.splitlines() == [
        "debug False",
        "hurwitz_index_identity ValueError element is not in the order",
        "weyl_dim ValueError weight is not integral for B3",
        "dominant_table ValueError weight is not integral for B3",
        "irrep_weights ValueError weight is not integral for B3",
    ]
