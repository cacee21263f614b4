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
from quatprym import lie_engine as le, linalg, qalg, report, spin_explicit as sp

print("debug", __debug__)
third = qalg.QuatElem.make(qalg.HAMILTON, Fraction(1, 3))
rep = sp.build_spin_rep()


def spin_with(name, fake):
    real = getattr(sp, name)
    setattr(sp, name, fake)
    try:
        return sp.so7_invariant(rep)
    finally:
        setattr(sp, name, real)


def duplicate_claims(budgets):
    return [report._record("x.same", "statement", "1", "1")]


def suite_with_duplicate_ids():
    report.MODULE_BUILDERS = (("qalg", duplicate_claims), ("homs", duplicate_claims))
    return report.run_suite()


cases = [
    ("hurwitz_index_identity", lambda: qalg.hurwitz_index_identity(third)),
    ("weyl_dim", lambda: le.weyl_dim(le.B3, (Fraction(1, 2), 0, 0))),
    ("dominant_table", lambda: le.dominant_table(le.B3, (Fraction(1, 2), 0, 0))),
    ("irrep_weights", lambda: le.irrep_weights(le.B3, (Fraction(1, 2), 0, 0))),
    ("parse A0", lambda: le.AlgebraType.parse("A0")),
    ("parse D1", lambda: le.AlgebraType.parse("D1")),
    ("factor C2", lambda: le.SimpleFactor("C", 2)),
    ("matrix_to_pair_coeffs", lambda: sp.matrix_to_pair_coeffs(linalg.identity(7))),
    ("so7_invariant 7 monomials",
     lambda: spin_with("weight_zero_monomials", lambda r: sp.MONOMIALS[:7])),
    ("so7_invariant lead 0",
     lambda: spin_with("nullspace", lambda m: [[Fraction(0)] * 7 + [Fraction(1)]])),
    ("run_suite", suite_with_duplicate_ids),
]
for name, call in cases:
    try:
        print(name, "returned", call())
    except (ValueError, RuntimeError) as exc:
        print(name, type(exc).__name__, exc)
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
        "parse A0 ValueError rank 0 is too small for family A",
        "parse D1 ValueError rank 1 is too small for family D",
        "factor C2 ValueError unknown family 'C'; know A, B, D",
        "matrix_to_pair_coeffs ValueError matrix is outside the span of the basis actions",
        "so7_invariant 7 monomials SpinConstructionError "
        "weight-zero subspace has dimension 7, expected 8",
        "so7_invariant lead 0 SpinConstructionError "
        "invariant line has no all-even coefficient",
        "run_suite RuntimeError claim ids must be unique",
    ]
