"""Symbolic curve checks: automorphisms, quadrics, the projective
action, and the point-count loci over small prime fields.

The substitution homomorphism property is the main structural oracle:
evaluating polynomials along the parametrization must commute with
ring operations.  Locus membership is additionally recomputed inside
the test with plain integer arithmetic mod p.
"""

import random
from fractions import Fraction

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


def test_rational_function_normalization():
    x, y = cm.X, cm.Y
    f = cm.RatFunc.make(x * y, x)
    g = cm.RatFunc.make(y, cm.PolyGauss.const(2, gauss(1, 0)))
    assert f.eq(g)
    with pytest.raises(ZeroDivisionError):
        cm.RatFunc.make(x, cm.PolyGauss.const(2, gauss(0, 0)))


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


def test_automorphism_composition_table():
    i, j, hyp = cm.AUTO_I, cm.AUTO_J, cm.AUTO_HYP
    assert i.compose(i).same_map(hyp)
    assert j.compose(j).same_map(hyp)
    assert i.compose(j).same_map(hyp.compose(j.compose(i)))
    assert hyp.compose(hyp).same_map(cm.AUTO_ID)


def test_automorphisms_preserve_the_curve_equation():
    # y^2 - (x^5 - x) composed with each map must vanish modulo itself:
    # substitute, clear denominators, and reduce y^2 -> x^5 - x
    x5x = cm.X.pow(5) - cm.X
    for auto in (cm.AUTO_I, cm.AUTO_J, cm.AUTO_HYP):
        fy2 = auto.fy * auto.fy
        fx = auto.fx
        rhs = (
            fx.pow(5) - fx
        )
        diff = fy2 - rhs
        num = cm.reduce_mod_curve(diff.num)
        assert num.is_zero(), auto.name


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
