"""Quaternion arithmetic, orders, and the matrix embedding.

The index identity is checked exhaustively on a coefficient box; the
expected index comes straight from the reduced-norm formula evaluated
in the test, not from the implementation under test.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from quatprym import linalg, qalg
from quatprym.qalg import (
    HAMILTON,
    AlgebraParams,
    KNum,
    QuatElem,
    embed_in_m2,
    group_ring_wedderburn,
    hurwitz_index_identity,
    hurwitz_order,
    hz_order,
    qinv,
    qmul,
    q8_elements,
)

MINUS13 = AlgebraParams.make(-1, -3)

coeff = st.integers(min_value=-5, max_value=5)
params_st = st.sampled_from([HAMILTON, MINUS13])


def quat(params, a, b, c, d):
    return QuatElem.make(params, a, b, c, d)


# ---------------------------------------------------------------- group Q8


def test_q8_multiplication_table():
    i, j, k = (1, 1), (1, 2), (1, 3)
    assert qmul(i, j) == k
    assert qmul(j, i) == (-1, 3)
    assert qmul(j, k) == (1, 1)
    assert qmul(k, i) == (1, 2)
    assert qmul(i, i) == (-1, 0)
    assert qmul(j, j) == (-1, 0)
    assert qmul(k, k) == (-1, 0)


def test_q8_group_axioms_exhaustive():
    elems = q8_elements()
    assert len(set(elems)) == 8
    e = (1, 0)
    for a in elems:
        assert qmul(a, e) == a and qmul(e, a) == a
        assert qmul(a, qinv(a)) == e
        for b in elems:
            assert qmul(a, b) in elems
            for c in elems:
                assert qmul(qmul(a, b), c) == qmul(a, qmul(b, c))


# ------------------------------------------------------- algebra arithmetic


@given(params_st, coeff, coeff, coeff, coeff, coeff, coeff, coeff, coeff)
def test_norm_multiplicative(params, a, b, c, d, e, f, g, h):
    x = quat(params, a, b, c, d)
    y = quat(params, e, f, g, h)
    assert (x * y).norm() == x.norm() * y.norm()


@given(params_st, coeff, coeff, coeff, coeff)
def test_conjugation_gives_norm_and_trace(params, a, b, c, d):
    x = quat(params, a, b, c, d)
    n = x * x.conj()
    assert n.b == 0 and n.c == 0 and n.d == 0
    assert n.a == x.norm()
    t = x + x.conj()
    assert t.b == 0 and t.c == 0 and t.d == 0
    assert t.a == x.trace()


def test_generator_relations():
    for params in (HAMILTON, MINUS13):
        i = quat(params, 0, 1, 0, 0)
        j = quat(params, 0, 0, 1, 0)
        k = i * j
        assert (i * i).a == params.r
        assert (j * j).a == params.s
        assert (i * j + j * i).is_zero()
        assert (k * k).a == -params.r * params.s


def test_inverse_of_unit():
    x = quat(MINUS13, 1, 1, 0, 1)
    assert not x.norm() == 0
    y = x.inv()
    assert (x * y - quat(MINUS13, 1, 0, 0, 0)).is_zero()
    with pytest.raises(ZeroDivisionError):
        quat(HAMILTON, 0, 0, 0, 0).inv()


# ----------------------------------------------------------------- orders


def test_hurwitz_and_group_ring_orders():
    m = hurwitz_order()
    hz = hz_order()
    assert m.is_order()
    assert hz.is_order()
    assert hz.index_in(m) == 2


def test_left_ideal_index_identity_box():
    """Index of the left ideal (m, im, jm, km) inside the Hurwitz order
    equals twice the squared reduced norm, over the full coefficient box."""
    order = hurwitz_order()
    checked = 0
    for a, b, c, d in product(range(-2, 3), repeat=4):
        if (a, b, c, d) == (0, 0, 0, 0):
            continue
        m = quat(HAMILTON, a, b, c, d)
        got, expected = hurwitz_index_identity(m, order)
        # the oracle side: 2 N(m)^2 recomputed here from the norm form
        norm = (
            Fraction(a) ** 2 + Fraction(b) ** 2 + Fraction(c) ** 2 + Fraction(d) ** 2
        )
        assert expected == 2 * norm**2
        assert got == expected
        checked += 1
    assert checked == 5**4 - 1


def test_index_identity_on_half_integer_points():
    order = hurwitz_order()
    zeta = quat(HAMILTON, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    got, expected = hurwitz_index_identity(zeta, order)
    assert got == expected == 2 * zeta.norm() ** 2


# -------------------------------------------------------- group ring shape


def test_group_ring_wedderburn_components():
    components = group_ring_wedderburn()
    assert sorted(components) == [(1, 1), (1, 1), (1, 1), (1, 1), (2, -1)]
    assert sum(d * d for d, _ in components) == 8


# ------------------------------------------------------- splitting embed


@given(coeff, coeff, coeff, coeff, coeff, coeff, coeff, coeff)
def test_embedding_is_a_ring_map(a, b, c, d, e, f, g, h):
    x = quat(MINUS13, a, b, c, d)
    y = quat(MINUS13, e, f, g, h)
    assert linalg.mat_eq(
        embed_in_m2(x * y), linalg.mat_mul(embed_in_m2(x), embed_in_m2(y))
    )


@given(params_st, coeff, coeff, coeff, coeff)
def test_embedding_determinant_is_norm(params, a, b, c, d):
    x = quat(params, a, b, c, d)
    det = linalg.det(embed_in_m2(x))
    assert det.v == 0
    assert det.u == x.norm()


def test_knum_field_ops():
    x = KNum.make(-3, 1, 2)
    y = KNum.make(-3, 2, -1)
    assert (x * y).u == 2 + 2 * 3  # (1+2w)(2-w) = 2 - w + 4w - 2w^2, w^2 = -3
    assert (x + y).u == 3 and (x + y).v == 1
    assert x.conj().v == -2
    field_norm = x * x.conj()
    assert field_norm.v == 0 and field_norm.u == 1 - (-3) * 4
