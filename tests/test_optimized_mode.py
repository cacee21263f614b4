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
from quatprym import curve_model as cm, lie_engine as le, linalg, qalg, report, spin_explicit as sp
from quatprym import surface_homs as sh, weil_classes as wc

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


def wedderburn_with(name, fake):
    real = getattr(qalg, name)
    setattr(qalg, name, fake)
    try:
        return qalg.group_ring_wedderburn()
    finally:
        setattr(qalg, name, real)


def duplicate_claims(budgets):
    return [report._record("x.same", "statement", "1", "1")]


def suite_with_duplicate_ids():
    report.MODULE_BUILDERS = (("qalg", duplicate_claims), ("homs", duplicate_claims))
    return report.run_suite()


def freudenthal_with(candidates):
    real = le._candidates
    le._candidates = lambda f, lam: candidates(real(f, lam))
    le._FREUD_CACHE.clear()
    try:
        return le._factor_dominant_table(le.B3.factors[0], (Fraction(2), Fraction(0), Fraction(0)))
    finally:
        le._candidates = real


def phase1_without_flips():
    real = sh._flip_moves
    sh._flip_moves = lambda g, m: []
    try:
        return sh.normalize_hom(sh.parse_hom(3, "-1,i,j,1,1,1"))
    finally:
        sh._flip_moves = real


i_field = qalg.KNum.make(-1, 1, 1)
w_field = qalg.KNum.make(-3, 1, 1)
other_algebra = qalg.QuatElem.make(qalg.AlgebraParams.make(-1, -3), 1)


cases = [
    ("hurwitz_index_identity", lambda: qalg.hurwitz_index_identity(third)),
    ("wedderburn character value",
     lambda: wedderburn_with("Fraction", lambda n, d=1: Fraction(n, 3 * d))),
    ("wedderburn character", lambda: wedderburn_with("Fraction", lambda n, d=1: Fraction(n, 2 * d))),
    ("wedderburn indicator",
     lambda: wedderburn_with("qmul", lambda g, h: (1, 0) if g == (1, 0) else (1, 1))),
    ("weyl_dim", lambda: le.weyl_dim(le.B3, (Fraction(1, 2), 0, 0))),
    ("weyl_dim short", lambda: le.weyl_dim(le.B3, (1, 0))),
    ("weyl_dim long", lambda: le.weyl_dim(le.B3, (1, 0, 0, 5))),
    ("factor weyl_dim", lambda: le._factor_weyl_dim(le.B3.factors[0], (Fraction(-5, 2), 0, 0))),
    ("freudenthal weight above", lambda: freudenthal_with(lambda c: c + [(Fraction(3), 0, 0)])),
    ("freudenthal weight missing",
     lambda: freudenthal_with(lambda c: [mu for mu in c if mu != (1, 1, 0)])),
    ("restrict_d4_to_b3", lambda: le.restrict_d4_to_b3({(0, 0, 0): 1})),
    ("KNum +", lambda: i_field + w_field),
    ("KNum -", lambda: i_field - w_field),
    ("KNum *", lambda: i_field * w_field),
    ("QuatElem +", lambda: third + other_algebra),
    ("QuatElem -", lambda: third - other_algebra),
    ("QuatElem *", lambda: third * other_algebra),
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
    ("HomTuple", lambda: sh.HomTuple(2, ((1, 0),) * 3)),
    ("standard_hom", lambda: sh.standard_hom(1)),
    ("apply_move", lambda: sh.apply_move(sh.standard_hom(2), sh.move_set(3)[0])),
    ("normalize_hom phase 1", phase1_without_flips),
    ("mat_of", lambda: wc.HModel.make(1, qalg.HAMILTON).mat_of(other_algebra)),
    ("intersect", lambda: wc.SubspaceQ.from_vectors([[1, 0]], 2).intersect(
        wc.SubspaceQ.from_vectors([[1, 0, 0]], 3))),
    ("substitute", lambda: cm.PolyGauss.const(2, cm.G1).substitute([cm.X])),
    ("reduce_mod_curve", lambda: cm.reduce_mod_curve(cm.PolyGauss.const(3, cm.G1))),
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
        "wedderburn character value RuntimeError 2-dim character value 2/3 on class 0 "
        "is not an integer",
        "wedderburn character RuntimeError 2-dim character [1, -1, 0, 0, 0], "
        "expected [2, -2, 0, 0, 0]",
        "wedderburn indicator RuntimeError Frobenius-Schur sum -6 is not divisible by 8",
        "weyl_dim ValueError weight is not integral for B3",
        "weyl_dim short ValueError weight has 2 coordinates, B3 needs 3",
        "weyl_dim long ValueError weight has 4 coordinates, B3 needs 3",
        "factor weyl_dim RuntimeError Weyl dimension 0 of (-5/2,0,0) for B3",
        "freudenthal weight above RuntimeError Freudenthal denominator -10 at (3,0,0) for B3",
        "freudenthal weight missing RuntimeError Freudenthal multiplicity 1/2 at (1,0,0) for B3",
        "restrict_d4_to_b3 ValueError weight (0,0,0) is not a D4 weight",
        "KNum + ValueError mixed fields Q(sqrt(-1)) and Q(sqrt(-3))",
        "KNum - ValueError mixed fields Q(sqrt(-1)) and Q(sqrt(-3))",
        "KNum * ValueError mixed fields Q(sqrt(-1)) and Q(sqrt(-3))",
        "QuatElem + ValueError mixed algebras B(-1, -1) and B(-1, -3)",
        "QuatElem - ValueError mixed algebras B(-1, -1) and B(-1, -3)",
        "QuatElem * ValueError mixed algebras B(-1, -1) and B(-1, -3)",
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
        "HomTuple ValueError genus 2 needs 4 images, got 3",
        "standard_hom ValueError genus must be at least 2",
        "apply_move ValueError move of genus 3 applied to a genus-2 tuple",
        "normalize_hom phase 1 RuntimeError "
        "phase-1 program left -1,i,j,1,1,1, not the standard tuple",
        "mat_of ValueError mixed algebras B(-1, -1) and B(-1, -3)",
        "intersect ValueError ambient dimensions 2 and 3 differ",
        "substitute ValueError substitute needs 2 polynomials, got 1",
        "reduce_mod_curve ValueError polynomial in 3 variables, the curve needs 2",
    ]


def test_negative_power_raises_under_python_O():
    """``k >>= 1`` keeps k = -1 forever, so without the check the loop
    never ends: the constant 1 keeps memory flat while the timeout ends it."""
    script = (
        "from quatprym import curve_model as cm\n"
        "try:\n"
        "    cm.PolyGauss.const(2, cm.G1).pow(-1)\n"
        "except ValueError as exc:\n"
        "    print('pow', type(exc).__name__, exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=20, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.splitlines() == ["pow ValueError negative exponent -1"]
