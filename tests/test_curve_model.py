"""Symbolic curve checks: automorphisms, quadrics, the projective
action, and the point-count loci over small prime fields.

The substitution homomorphism property is the main structural oracle:
evaluating polynomials along the parametrization must commute with
ring operations.  Locus membership is additionally recomputed inside
the test with plain integer arithmetic mod p.
"""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quatprym import curve_model as cm, linalg
from quatprym.qalg import KNum


# ------------------------------------------------------- coefficient field


def gauss(re, im=0):
    """re + im*i in Q(i), the curve's coefficient field."""
    return KNum.make(-1, re, im)


def test_gauss_rational_field_ops():
    a = gauss(1, 2)
    b = gauss(3, -1)
    assert str((a * b)) == str(gauss(5, 5))
    assert (a * a.inv()).u == 1 and (a * a.inv()).v == 0
    assert a / b * b == a
    assert str(gauss(0, -1)) == "-1*i"
    assert str(gauss(Fraction(1, 2), 3)) == "1/2+3*i"
    assert str(gauss(-2)) == "-2" and str(gauss(0)) == "0"
    assert not gauss(0) and gauss(0, 1)
    with pytest.raises(ZeroDivisionError):
        gauss(0, 0).inv()


def rand_poly(rng, nvars, max_terms=3):
    p = cm.PolyGauss.const(nvars, gauss(0, 0))
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        coeff = gauss(rng.randint(-3, 3), rng.randint(-2, 2))
        if coeff:
            p = p + cm.PolyGauss(nvars, {exps: coeff})
    return p


def test_poly_ring_axioms():
    rng = random.Random(9)
    for _ in range(8):
        f, g, h = (rand_poly(rng, 2) for _ in range(3))
        assert (f * g) == (g * f)
        assert (f * (g * h)) == ((f * g) * h)
        assert (f * (g + h)) == (f * g + f * h)


def test_substitution_is_a_ring_map():
    rng = random.Random(10)
    targets = list(cm.PARAM)
    for _ in range(8):
        f = rand_poly(rng, 5)
        g = rand_poly(rng, 5)
        lhs = (f * g).substitute(targets)
        rhs = f.substitute(targets) * g.substitute(targets)
        assert lhs == rhs


def test_laurent_units_are_the_monomials():
    x, y = cm.X, cm.Y
    one = cm.PolyGauss.const(2, gauss(1))
    assert (x * y) * x.inv() == y
    assert x.inv().inv() == x
    mono = cm.PolyGauss(2, {(2, -3): gauss(2, 1)})
    assert mono * mono.inv() == one
    for not_a_unit in (x + y, cm.PolyGauss(2, {})):
        with pytest.raises(ValueError, match="is not a monomial"):
            not_a_unit.inv()


# ---------------------------------------------------------- automorphisms


def test_automorphism_report_frozen():
    assert cm.verify_curve_autos() == {
        "ideal_factor_i": ("-1", 0),
        "ideal_factor_j": ("-1", 6),
        "i_squared_is_hyp": True,
        "j_squared_is_hyp": True,
        "hyp_squared_is_id": True,
        "ij_vs_hyp_ji": True,
        "group_order": 8,
        "ok": True,
    }


BROKEN_INVERSE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from quatprym import curve_model as cm, report


def substitute(self, polys):
    # x^-e becomes p^e, not (1/p)^e: j then has infinite order
    nv = polys[0].nvars
    out = cm.PolyGauss(nv, {})
    for exp, c in self.terms.items():
        term = cm.PolyGauss.const(nv, c)
        for idx, e in enumerate(exp):
            term = term * polys[idx].pow(abs(e))
        out = out + term
    return out


cm.PolyGauss.substitute = substitute
rec = next(r for r in report.run_suite("curve") if r.claim_id == "curve.automorphism_group")
print(json.dumps([rec.status, cm.verify_curve_autos()["group_order"]]))
"""


def test_an_infinite_closure_stops_at_the_cap():
    # in a fresh interpreter, so that an unbounded closure is a timeout,
    # not a hung test run
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", BROKEN_INVERSE, str(src)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["FAIL", f"closure cap {cm.CLOSURE_CAP} hit"]


INFINITE_PROJECTIVE_J = """
import json, sys
sys.path.insert(0, sys.argv[1])
from quatprym import curve_model as cm, report

# diag(1, 1, 1, 1, 1+i): 1+i is no root of unity, so j has infinite
# projective order
g = cm.G1 + cm.GI
cm.MAT_J = cm._gmat([[g if p == q == 4 else (cm.G1 if p == q else cm.G0)
                      for q in range(5)] for p in range(5)])
act = cm.verify_p4_action()
rec = next(r for r in report.run_suite("curve") if r.claim_id == "curve.projective_action")
print(json.dumps([act["projective_group_order"], act["ok"], rec.status]))
"""


def test_an_infinite_projective_closure_stops_at_the_cap():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", INFINITE_PROJECTIVE_J, str(src)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [f"closure cap {cm.CLOSURE_CAP} hit", False, "FAIL"]


def evaluate(poly, point):
    """Value of a Laurent polynomial at a point of (Q(i)^*)^2, term by term."""
    total = gauss(0)
    for exp, c in poly.terms.items():
        for v, e in zip(point, exp):
            for _ in range(abs(e)):
                c = c * v if e > 0 else c / v
        total = total + c
    return total


def apply(auto, point):
    return evaluate(auto.fx, point), evaluate(auto.fy, point)


def test_composition_agrees_with_evaluation_at_points():
    base = (cm.AUTO_ID, cm.AUTO_I, cm.AUTO_J, cm.AUTO_I.compose(cm.AUTO_J))
    q8 = [h.compose(g) for h in (cm.AUTO_ID, cm.AUTO_HYP) for g in base]
    points = [
        (gauss(2, 1), gauss(-1, 3)),
        (gauss(1), gauss(0, 2)),
        (gauss(Fraction(1, 2), -1), gauss(3)),
    ]
    for pt in points:
        # the eight maps are distinct already at one point
        assert len({tuple(map(str, apply(a, pt))) for a in q8}) == 8
        for a, b in itertools.product(q8, repeat=2):
            assert apply(a.compose(b), pt) == apply(a, apply(b, pt)), (a.name, b.name)


def test_automorphism_composition_table():
    i, j, hyp = cm.AUTO_I, cm.AUTO_J, cm.AUTO_HYP
    assert i.compose(i).same_map(hyp)
    assert j.compose(j).same_map(hyp)
    assert i.compose(j).same_map(hyp.compose(j.compose(i)))
    assert hyp.compose(hyp).same_map(cm.AUTO_ID)


def test_automorphisms_preserve_the_curve_equation():
    # y^2 - (x^5 - x) composed with each map must vanish modulo itself:
    # substitute, and reduce y^2 -> x^5 - x in the Laurent ring
    for auto in (cm.AUTO_I, cm.AUTO_J, cm.AUTO_HYP):
        diff = auto.fy * auto.fy - (auto.fx.pow(5) - auto.fx)
        assert cm.reduce_mod_curve(diff).is_zero(), auto.name


# --------------------------------------------------------------- quadrics


def test_quadrics_vanish_on_parametrization():
    assert cm.verify_quadrics() == {
        "q0_vanishes": True,
        "q1_vanishes": True,
        "q2_vanishes": True,
        "q3_vanishes": True,
        "ok": True,
    }


def test_quadrics_vanish_pointwise():
    # rational points (1, t, t^2, t^3, y) with y^2 = t^5 - t
    for t_num in (0, 1, 2, 3):
        t = Fraction(t_num)
        x0, x1, x2, x3 = Fraction(1), t, t**2, t**3
        y2 = t**5 - t
        assert y2 + x0 * x1 - x2 * x3 == 0  # first quadric with x4^2 = y^2
        assert x0 * x2 - x1 * x1 == 0
        assert x0 * x3 - x1 * x2 == 0
        assert x1 * x3 - x2 * x2 == 0


def test_reduce_mod_curve_kills_y_squared():
    y2 = cm.Y * cm.Y
    assert cm.reduce_mod_curve(y2) == cm.X.pow(5) - cm.X
    # higher powers reduce as well
    y4 = y2 * y2
    x5x = cm.X.pow(5) - cm.X
    assert cm.reduce_mod_curve(y4) == x5x * x5x


# ------------------------------------------------------- projective action


def test_projective_action_report_frozen():
    rep = cm.verify_p4_action()
    assert rep["ok"] is True
    assert rep["i_fourth_power_projectively_trivial"] is True
    assert rep["i2_projectively_equals_j2"] is True
    assert rep["commutator_projectively_equals_i2"] is True
    assert rep["projective_group_order"] == 8
    assert rep["quadric_span_stable"] is True
    assert rep["pullback_coefficients"] == {
        "i": [
            ("-1", "0", "0", "0"),
            ("0", "1", "0", "0"),
            ("0", "0", "-1", "0"),
            ("0", "0", "0", "1"),
        ],
        "j": [
            ("-1", "0", "0", "0"),
            ("0", "0", "0", "1"),
            ("0", "0", "1", "0"),
            ("0", "1", "0", "0"),
        ],
    }
    assert rep["section_transport"] == {
        "i": {"scalar": "-1*i", "matches": True},
        "j": {"scalar": "-1*i", "matches": True},
    }


def test_action_matrices_respect_relations():
    mi, mj = cm.MAT_I, cm.MAT_J
    ident = [[cm.G1 if r == c else cm.G0 for c in range(5)] for r in range(5)]
    m2 = linalg.mat_mul(mi, mi)
    m4 = linalg.mat_mul(m2, m2)
    assert cm.proj_eq(m4, ident)
    assert cm.proj_eq(m2, linalg.mat_mul(mj, mj))
    # the matrices themselves are not projectively trivial
    assert not cm.proj_eq(mi, ident)
    assert not cm.proj_eq(m2, ident)


def test_action_matrix_inverses():
    ident = [[cm.G1 if r == c else cm.G0 for c in range(5)] for r in range(5)]
    for m in (cm.MAT_I, cm.MAT_J):
        assert linalg.mat_mul(m, linalg.inverse(m)) == ident


# ------------------------------------------------------ invariant quartics


def test_invariant_quartics_frozen():
    assert cm.verify_invariant_quartics() == {
        "eigen_scalars": {"i": ["1", "1", "1", "1"], "j": ["1", "1", "1", "1"]},
        "span_rank": 4,
        "ok": True,
    }


# -------------------------------------------------------------- the loci


def quadric_val_mod(p, pt, which):
    x0, x1, x2, x3, x4 = pt
    if which == 0:
        return (x4 * x4 + x0 * x1 - x2 * x3) % p
    if which == 1:
        return (x0 * x2 - x1 * x1) % p
    if which == 2:
        return (x0 * x3 - x1 * x2) % p
    return (x1 * x3 - x2 * x2) % p


@pytest.mark.parametrize(
    "p,points,locus",
    [(13, 30941, 14), (17, 88741, 30)],
)
def test_locus_reports(p, points, locus):
    rep = cm.finite_field_locus(p)
    assert rep["p"] == p
    assert rep["degenerate"] is False
    assert rep["projective_points"] == points
    assert rep["quadric_locus_size"] == locus
    assert rep["quartic_locus_size"] == locus
    assert rep["parametrized_points"] == locus
    assert rep["loci_equal"] is True
    assert rep["parametrized_contained"] is True
    assert rep["locus_equals_parametrized"] is True
    assert rep["ok"] is True
    # the count of projective points of the ambient space, from scratch
    assert points == (p**5 - 1) // (p - 1)
    assert rep["i_mod_p"] ** 2 % p == p - 1


def per_point_locus_scan(p):
    """Every point of P^4(F_p), each with all eight conjuncts evaluated:
    the oracle for the prefix-hoisted scan."""
    quad_zero, quart_zero = set(), set()
    npoints = 0
    for lead in range(5):
        for rest in itertools.product(range(p), repeat=4 - lead):
            pt = (0,) * lead + (1,) + rest
            npoints += 1
            x0, x1, x2, x3, x4 = pt
            q0 = (x4 * x4 + x0 * x1 - x2 * x3) % p
            q1 = (x0 * x2 - x1 * x1) % p
            q2 = (x0 * x3 - x1 * x2) % p
            q3 = (x1 * x3 - x2 * x2) % p
            if q0 == 0 and q1 == 0 and q2 == 0 and q3 == 0:
                quad_zero.add(pt)
            f0 = (q0 * q0) % p
            f1 = (q2 * q2) % p
            f2 = (q1 * q3) % p
            f3 = (q1 * q1 + q3 * q3) % p
            if f0 == 0 and f1 == 0 and f2 == 0 and f3 == 0:
                quart_zero.add(pt)
    return quad_zero, quart_zero, npoints


@pytest.mark.parametrize("p", [13, 17, 29])
def test_locus_scan_matches_the_per_point_oracle(p):
    quad_zero, quart_zero, npoints = cm._locus_scan(p)
    want_quad, want_quart, want_points = per_point_locus_scan(p)
    assert npoints == want_points == (p**5 - 1) // (p - 1)
    assert quad_zero == want_quad
    assert quart_zero == want_quart
    assert quad_zero  # the comparison is not between empty sets


def test_locus_membership_mod_13():
    p = 13
    for t in range(p):
        y2 = (pow(t, 5, p) - t) % p
        for y in range(p):
            if (y * y) % p != y2:
                continue
            pt = (1, t, pow(t, 2, p), pow(t, 3, p), y)
            assert all(quadric_val_mod(p, pt, q) == 0 for q in range(4))
    # the point at infinity of the parametrization
    assert all(quadric_val_mod(p, (0, 0, 0, 1, 0), q) == 0 for q in range(4))


def test_locus_rejects_bad_primes():
    with pytest.raises(ValueError):
        cm.finite_field_locus(7)  # 7 = 3 mod 4
    with pytest.raises(ValueError):
        cm.finite_field_locus(15)  # composite
    with pytest.raises(ValueError):
        cm.finite_field_locus(53)  # beyond the default cap


def test_locus_degenerate_smallest_prime():
    rep = cm.finite_field_locus(5)
    assert rep["degenerate"] is True


# ------------------------------------------------------------- numerology


def test_scroll_numerology_frozen():
    assert cm.scroll_numerology(4) == {
        "genus": 9,
        "h0_H": 8,
        "h0_H2": 24,
        "sym2_dim": 36,
        "quadric_gap": 12,
        "scroll_dim": 4,
        "scroll_deg": 4,
    }


def test_scroll_numerology_smallest_case():
    rep = cm.scroll_numerology(2)
    assert rep["genus"] == 1
    assert rep["quadric_gap"] == 2
    assert rep["sym2_dim"] - rep["h0_H2"] == rep["quadric_gap"]


def test_scroll_numerology_internal_consistency():
    for n in (2, 3, 4, 6):
        rep = cm.scroll_numerology(n)
        assert rep["sym2_dim"] == rep["h0_H"] * (rep["h0_H"] + 1) // 2
        assert rep["quadric_gap"] == rep["sym2_dim"] - rep["h0_H2"]


def test_scroll_numerology_rejects_n1():
    with pytest.raises(ValueError):
        cm.scroll_numerology(1)
