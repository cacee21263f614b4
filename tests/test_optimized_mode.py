"""Correctness checks that must hold under ``python -O``.

``-O`` strips every ``assert``, so a check that guards a result has to be a
raise, and no ``assert`` statement may appear in the package.  The cases run
in one fresh ``python -O`` interpreter, which prints one line per case.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
from fractions import Fraction
from math import prod
from quatprym import cover_homology as ch, curve_model as cm, lie_engine as le, linalg, qalg
from quatprym import report, spin_explicit as sp, surface_homs as sh, weil_classes as wc

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


def wedderburn_with(entries):  # on Q8_MUL with the given entries replaced
    real = qalg.Q8_MUL
    qalg.Q8_MUL = tuple(entries.get(e, x) for e, x in enumerate(real))
    try:
        return qalg.group_ring_wedderburn()
    finally:
        qalg.Q8_MUL = real


def weyl_dim(alg, lam):  # the Weyl product, as the lie_engine tests define it
    return prod(le._factor_weyl_dim(f, part) for f, part in le._highest_weight_parts(alg, lam))


# call() with owner.name replaced by fake(the real one)
def patched(owner, name, fake, call):
    real = getattr(owner, name)
    setattr(owner, name, fake(real))
    try:
        return call()
    finally:
        setattr(owner, name, real)


def racah(lam):  # lam in the engine's doubled coordinates
    le._factor_irrep.cache_clear()
    return le._factor_irrep(le.B3.factors[0], lam)


g2 = ch.build_cover_graph(sh.standard_hom(2))
all_loops = ch.build_cover_graph(sh.HomTuple(2, ((1, 0),) * 4))
eye4 = [[int(i == j) for j in range(4)] for i in range(4)]


def h1_without_cycles():
    h1 = ch.H1Data(g2)
    h1.cycles = tuple((0,) * g2.n_edges for _ in h1.cycles)
    return h1.coords_of_cycle(ch.chain_c_edge_vector(g2))


class RankShortH1(ch.H1Data):
    def __init__(self, graph):
        super().__init__(graph)
        self.rank -= 1


def minus_one_first_handle(real):
    def fake(g):
        h = real(g)
        return sh.HomTuple(g, ((-1, 0),) + h.images[1:]) if g == 3 else h
    return fake


def half_index_actions():
    h1 = ch.H1Data(g2)
    b0, *rest = ch.minus_part(h1).basis
    return ch._actions_in_basis(h1, [[2 * x for x in b0]] + rest, [(1, 1)])


def phase1_without_flips():
    real = sh._flip_moves
    sh._flip_moves = lambda g, m: []
    try:
        return sh.normalize_hom(sh.parse_hom(3, "-1,i,j,1,1,1"))
    finally:
        sh._flip_moves = real


def plant_last(real):  # 1 ^ i in each copy of F added to the last vector real returns
    def fake(*args):
        vecs = real(*args)
        n = len(next(iter(vecs[-1]))) // 2
        vecs[-1] = {**vecs[-1], tuple(p for b in range(n) for p in (4 * b, 4 * b + 1)): 1}
        return vecs
    return fake


def weil_dim(n):
    h = wc.HModel.make(n, qalg.HAMILTON)
    return wc.quaternion_span(h, wc.weil_kernel(h)).dim


i_field = qalg.KNum.make(-1, 1, 1)
w_field = qalg.KNum.make(-3, 1, 1)
other_algebra = qalg.QuatElem.make(qalg.AlgebraParams.make(-1, -3), 1)
one, i, j, k = qalg.basis_elems(qalg.HAMILTON)
two_i_lattice = qalg.OrderLattice(qalg.HAMILTON, (one, i.scale(2), j, k))  # i * 1 is not in it


cases = [
    ("hurwitz_index_identity", lambda: qalg.hurwitz_index_identity(third)),
    ("index_mismatches", lambda: qalg.index_mismatches(
        qalg.hurwitz_order(), [(1, 0, 0, 0), (Fraction(1, 2), 0, 0, 0)])),
    ("coords_in_basis", lambda: qalg.coords_in_basis(third, (third,) * 4)),
    ("OrderLattice", lambda: qalg.OrderLattice(qalg.HAMILTON, (third,) * 4)),
    ("OrderLattice.left_mult", lambda: two_i_lattice.left_mult((1, 1))),
    # every product 1; 1 * 1 = i; (-1) * (-1) = -1
    ("wedderburn character value", lambda: wedderburn_with(dict.fromkeys(range(64), 0))),
    ("wedderburn character", lambda: wedderburn_with({0: 2})),
    ("wedderburn indicator", lambda: wedderburn_with({9: 1})),
    ("weyl_dim", lambda: weyl_dim(le.B3, (1, 0, 0))),
    ("weyl_dim short", lambda: weyl_dim(le.B3, (1, 0))),
    ("weyl_dim long", lambda: weyl_dim(le.B3, (1, 0, 0, 5))),
    ("factor weyl_dim", lambda: le._factor_weyl_dim(le.B3.factors[0], (-5, 0, 0))),
    ("racah sign", lambda: patched(
        le, "_factor_shifts", lambda real: lambda f: tuple((s, -e) for s, e in real(f)),
        lambda: racah((2, 0, 0)))),
    ("racah weight missing", lambda: patched(
        le, "_candidates", lambda real: lambda f, lam: [mu for mu in real(f, lam) if any(mu)],
        lambda: racah((2, 2, 0)))),
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
    ("so7_invariant 7 monomials",
     lambda: spin_with("weight_zero_monomials", lambda r: sp.MONOMIALS[:7])),
    ("so7_invariant lead 0",
     lambda: spin_with("nullspace", lambda m: [[Fraction(0)] * 7 + [Fraction(1)]])),
    ("so7_invariant non-integral",
     lambda: spin_with("nullspace", lambda m: [[Fraction(t + 1) for t in range(8)]])),
    ("run_suite rows", lambda: patched(
        report, "CLAIMS", lambda real: real + real[:1], lambda: report.run_suite("qalg"))),
    ("HomTuple", lambda: sh.HomTuple(2, ((1, 0),) * 3)),
    ("HomTuple image", lambda: sh.HomTuple(2, ((1, 5), (1, 1), (1, 2), (1, 0)))),
    ("standard_hom", lambda: sh.standard_hom(1)),
    ("apply_move", lambda: sh.apply_move(sh.standard_hom(2), sh.move_set(3)[0])),
    ("eval_word", lambda: sh.eval_word(sh.standard_hom(2), (1, 5))),
    ("_compile_move", lambda: sh._compile_move(sh.Move("WIDE", 2, ((1, 2, 3, 4), (2,), (3,), (4,))))),
    ("normalize_hom phase 1", phase1_without_flips),
    ("substitute", lambda: cm.PolyGauss.const(2, cm.G1).substitute([cm.X])),
    ("reduce_mod_curve", lambda: cm.reduce_mod_curve(cm.PolyGauss.const(3, cm.G1))),
    ("inv", lambda: (cm.X + cm.Y).inv()),
    ("_transport_matrix", lambda: patched(
        cm, "_SECTION", lambda real: {e: t for e, t in real.items() if t != 4},
        lambda: cm._transport_matrix(cm.AUTO_I))),
    ("proj_canon", lambda: cm.proj_canon(((cm.G0,) * 5,) * 5)),
    ("scroll_numerology", lambda: cm.scroll_numerology(1)),
    ("locus composite", lambda: cm.finite_field_locus(15)),
    ("locus 3 mod 4", lambda: cm.finite_field_locus(7)),
    ("locus cap", lambda: cm.finite_field_locus(53)),
    ("build_cover_graph", lambda: ch.build_cover_graph(sh.parse_hom(2, "i,1,j,1"))),
    ("H1Data tree", lambda: ch.H1Data(all_loops)),
    ("coords_of_cycle boundary", lambda: ch.H1Data(g2).coords_of_cycle([1] + [0] * 15)),
    ("coords_of_cycle", h1_without_cycles),
    ("minus_part", lambda: patched(
        linalg, "integer_kernel", lambda real: lambda a: [[1] + [0] * (len(a) - 1)],
        lambda: ch.minus_part(ch.H1Data(g2)))),
    ("chain_c_edge_vector", lambda: ch.chain_c_edge_vector(all_loops)),
    ("_actions_in_basis", half_index_actions),
    ("check_cycle_c_and_basis", lambda: ch.check_cycle_c_and_basis(sh.standard_hom(3))),
    ("model genus", lambda: ch.prym_lattice_model(4)),
    ("model genus mismatch", lambda: ch.prym_lattice_model(2, sh.standard_hom(3))),
    ("model budget", lambda: patched(
        ch, "normalize_hom", lambda real: lambda h: {"reached": False, "moves": []},
        lambda: ch.prym_lattice_model(2, sh.parse_hom(2, "j,i,1,-1")))),
    ("model H1 rank", lambda: patched(
        ch, "H1Data", lambda real: RankShortH1, lambda: ch.prym_lattice_model(2))),
    ("model minus rank", lambda: patched(
        ch, "minus_part", lambda real: lambda h1: ch.IntLattice(h1.rank, real(h1).basis[1:]),
        lambda: ch.prym_lattice_model(2))),
    ("model handle", lambda: patched(
        ch, "standard_hom", minus_one_first_handle, lambda: ch.prym_lattice_model(3))),
    ("model half-sum", lambda: patched(
        ch, "chain_c_edge_vector", lambda real: lambda graph: list(ch.H1Data(graph).cycles[1]),
        lambda: ch.prym_lattice_model(2))),
    ("model coords", lambda: patched(
        ch.IntLattice, "coords", lambda real: lambda self, vec: None,
        lambda: ch.prym_lattice_model(2))),
    ("model basis", lambda: patched(
        linalg, "int_det", lambda real: lambda m: 2, lambda: ch.prym_lattice_model(2))),
    ("model structure", lambda: patched(
        ch.OrderLattice, "left_mult", lambda real: lambda self, q: eye4,
        lambda: ch.prym_lattice_model(2))),
    ("_self_loop_vec", lambda: ch._self_loop_vec(g2, 0, 1)),
    ("weil_kernel", lambda: patched(wc, "_wedge_parts", plant_last, lambda: weil_dim(2))),
    ("quaternion_span stable", lambda: patched(wc, "_krylov", plant_last, lambda: weil_dim(2))),
    # at n = 1 the planted row leaves a span that D_i and D_j keep
    ("quaternion_span kernel", lambda: patched(wc, "_krylov", plant_last, lambda: weil_dim(1))),
    ("det", lambda: linalg.det([[1, 2, 3], [4, 5, 6]])),
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
        "index_mismatches ValueError element is not in the order",
        "coords_in_basis ValueError basis is linearly dependent",
        "OrderLattice ValueError basis is linearly dependent",
        "OrderLattice.left_mult ValueError lattice is not stable under left multiplication by i, j, k",
        "wedderburn character value RuntimeError 2-dim character value 7/2 on class 0 "
        "is not an integer",
        "wedderburn character RuntimeError 2-dim character [3, -1, -1, 0, 0] "
        "has <chi, chi> = 3/2, not 1",
        "wedderburn indicator RuntimeError Frobenius-Schur sum -12 is not divisible by 8",
        "weyl_dim ValueError weight is not integral for B3",
        "weyl_dim short ValueError weight has 2 coordinates, B3 needs 3",
        "weyl_dim long ValueError weight has 4 coordinates, B3 needs 3",
        "factor weyl_dim RuntimeError Weyl dimension 0 of (-5/2,0,0) for B3",
        "racah sign RuntimeError Racah multiplicity -1 at (0,0,0) for B3",
        "racah weight missing RuntimeError Racah/Weyl mismatch for B3 at (1,1,0)",
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
        "so7_invariant 7 monomials SpinConstructionError "
        "weight-zero subspace has dimension 7, expected 8",
        "so7_invariant lead 0 SpinConstructionError "
        "invariant line has no all-even coefficient",
        "so7_invariant non-integral SpinConstructionError "
        "normalized invariant line is not integral",
        "run_suite rows RuntimeError claim ids must be unique",
        "HomTuple ValueError genus 2 needs 4 images, got 3",
        "HomTuple image ValueError image (1, 5) is not an element of Q8",
        "standard_hom ValueError genus must be at least 2",
        "apply_move ValueError move of genus 3 applied to a genus-2 tuple",
        "eval_word ValueError generator index 5 out of range for genus 2",
        "_compile_move ValueError WIDE: image word (1, 2, 3, 4) names more than three generators",
        "normalize_hom phase 1 RuntimeError "
        "phase-1 program left -1,i,j,1,1,1, not the standard tuple",
        "substitute ValueError substitute needs 2 polynomials, got 1",
        "reduce_mod_curve ValueError polynomial in 3 variables, the curve needs 2",
        "inv ValueError (1)*(0, 1) + (1)*(1, 0) is not a monomial",
        "_transport_matrix ValueError transported section leaves the basis span: (0, 1)",
        "proj_canon ValueError zero matrix",
        "scroll_numerology ValueError n must be at least 2",
        "locus composite ValueError p must be prime",
        "locus 3 mod 4 ValueError p must be 1 mod 4 so that -1 is a square",
        "locus cap ValueError prime exceeds the enumeration budget 41",
        "build_cover_graph ValueError tuple does not satisfy the surface relation",
        "H1Data tree ValueError cover graph is disconnected",
        "coords_of_cycle boundary ValueError chain is not a cycle",
        "coords_of_cycle ValueError cycle outside the fundamental span",
        "minus_part ValueError minus-part basis vector is not negated by -1",
        "chain_c_edge_vector ValueError segment 1 -> i is not an edge",
        "_actions_in_basis ValueError action of i on the explicit basis is not integral",
        "check_cycle_c_and_basis ValueError cycle check is a genus-2 computation",
        "model genus ValueError lattice model implemented for genus 2 and 3 only",
        "model genus mismatch ValueError genus mismatch",
        "model budget ValueError could not normalize the tuple within budget",
        "model H1 rank ValueError H_1 has rank 8, expected 9",
        "model minus rank ValueError minus part has rank 3, expected 4",
        "model handle ValueError handle 1 of the standard tuple does not map to 1",
        "model half-sum ValueError the half-sum of the cycle translates is not integral",
        "model coords ValueError explicit basis left the minus part",
        "model basis ValueError explicit vectors do not form a basis of the minus part",
        "model structure ValueError module structure constants do not match",
        "_self_loop_vec ValueError edge 0 is not a self-loop at vertex 0 of handle 1",
        "weil_kernel RuntimeError D_i^2 is not 4 n^2 r on the wedge of V_sigma",
        "quaternion_span stable RuntimeError "
        "the D_j-Krylov space of W_K is not stable under D_i and D_j",
        "quaternion_span kernel RuntimeError "
        "ker D_i does not meet the D_j-Krylov space of W_K in a line",
        "det ValueError matrix is not square",
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


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "quatprym").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
