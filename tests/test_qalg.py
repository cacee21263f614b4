"""Quaternion arithmetic, orders, and the matrix embedding.

The index identity is checked exhaustively on a coefficient box; the
expected index comes straight from the reduced-norm formula evaluated
in the test, not from the implementation under test.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from quatprym import linalg, qalg
from quatprym.qalg import (
    HAMILTON,
    QUAT_GROUP,
    AlgebraParams,
    KNum,
    QuatElem,
    embed_in_m2,
    group_ring_wedderburn,
    hurwitz_index_identity,
    hurwitz_order,
    qinv,
    qmul,
)

MINUS13 = AlgebraParams.make(-1, -3)

coeff = st.integers(min_value=-5, max_value=5)
params_st = st.sampled_from([HAMILTON, MINUS13])


def quat(params, a, b, c, d):
    return QuatElem.make(params, a, b, c, d)


def hz_order(params=HAMILTON):
    """The Lipschitz order Z<1, i, j, k>."""
    return qalg.OrderLattice(params, qalg.basis_elems(params))


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
    elems = QUAT_GROUP
    assert len(set(elems)) == 8
    e = (1, 0)
    for a in elems:
        assert qmul(a, e) == a and qmul(e, a) == a
        assert qmul(a, qinv(a)) == e
        for b in elems:
            assert qmul(a, b) in elems
            for c in elems:
                assert qmul(qmul(a, b), c) == qmul(a, qmul(b, c))


def test_q8_tables_are_the_lipschitz_units():
    """Position n of QUAT_GROUP is the unit sign * (1, i, j, k)[axis] of
    B(-1, -1); the tables multiply and invert as QuatElem does, with no
    qmul or qinv call."""
    basis = qalg.basis_elems(HAMILTON)
    units = [basis[a].scale(s) for s, a in QUAT_GROUP]
    assert qalg.Q8_INDEX == {x: n for n, x in enumerate(QUAT_GROUP)}
    assert [units[n] for n in qalg.Q8_MUL] == [x * y for x in units for y in units]
    assert [units[n] for n in qalg.Q8_INV] == [x.inv() for x in units]


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
    assert t.a == 2 * x.a


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


def contains(lat, x) -> bool:
    return all(v.denominator == 1 for v in lat.coords(x))


def is_order(lat) -> bool:
    """Ring check: 1 in the lattice and the lattice closed under multiplication."""
    if not contains(lat, QuatElem.make(lat.params, 1)):
        return False
    return all(contains(lat, x * y) for x in lat.basis for y in lat.basis)


def index_in(lat, other) -> Fraction:
    """[other : lat] as a positive rational (1/n when lat is bigger)."""
    return abs(linalg.det(linalg.frac_mat([other.coords(b) for b in lat.basis])))


def test_hurwitz_and_group_ring_orders():
    m = hurwitz_order()
    hz = hz_order()
    assert is_order(m)
    assert is_order(hz)
    assert index_in(hz, m) == 2


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


def index_box_elements():
    """The 2,400 nonzero elements of the [-3, 3]^4 coordinate box of the
    Hurwitz order, built as the registry's qalg.left_ideal_index claim
    builds them."""
    zeta, i, j, k = hurwitz_order().basis
    return [
        zeta.scale(c0) + i.scale(c1) + j.scale(c2) + k.scale(c3)
        for c0, c1, c2, c3 in product(range(-3, 4), repeat=4)
        if (c0, c1, c2, c3) != (0, 0, 0, 0)
    ]


def test_order_coords_match_a_fresh_solve():
    """One inverse per order gives the coordinates a solve per query gave."""
    box = index_box_elements()
    assert len(box) == 2400
    extra = [
        quat(HAMILTON, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2), Fraction(1, 2)),
        quat(HAMILTON, Fraction(2, 3), 0, Fraction(-1, 7), 4),
        quat(HAMILTON, 0, 0, 0, 0),
    ]
    for order in (hz_order(), hurwitz_order()):
        basis_matrix = linalg.frac_mat(
            [[b.coords()[t] for b in order.basis] for t in range(4)]
        )
        for x in box + extra:
            got = order.coords(x)
            assert got == linalg.solve(basis_matrix, list(x.coords()))
            assert all(type(v) is Fraction for v in got)


def test_order_rejects_a_dependent_basis():
    one, i, j, _ = qalg.basis_elems(HAMILTON)
    with pytest.raises(ValueError, match="linearly dependent"):
        qalg.OrderLattice(HAMILTON, (one, i, j, one + i))
    with pytest.raises(ValueError, match="linearly dependent"):
        qalg.OrderLattice(HAMILTON, (one, i, j, quat(HAMILTON, 0, 0, 0, 0)))
    with pytest.raises(ValueError):
        qalg.OrderLattice(HAMILTON, (one, i, j))
    for dependent in ((one, i, j, one + i), (one, i, j, quat(HAMILTON, 0, 0, 0, 0))):
        with pytest.raises(ValueError, match="linearly dependent"):
            qalg.coords_in_basis(i, dependent)
    with pytest.raises(ValueError, match="needs 4 elements"):
        qalg.coords_in_basis(i, (one, i, j))


def solve_per_column(x, basis):
    """Left multiplication by x in ``basis`` the slow way: one rational
    solve for the coordinates of each product x * b."""
    basis_matrix = linalg.frac_mat([[b.coords()[t] for b in basis] for t in range(4)])
    cols = [linalg.solve(basis_matrix, list((x * b).coords())) for b in basis]
    return [list(row) for row in zip(*cols)]


def random_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_elements(params, rng, count):
    return [quat(params, *(random_rational(rng) for _ in range(4))) for _ in range(count)]


def test_left_mult_matrix_matches_a_solve_per_column():
    # on 1, i, j, k of both algebras: +-1, +-i, +-j, +-k and seeded
    # rational elements
    rng = random.Random(25)
    checked = 0
    for params in (HAMILTON, MINUS13):
        units = qalg.basis_elems(params)
        for x in [u.scale(t) for u in units for t in (1, -1)] + random_elements(params, rng, 20):
            got = qalg.left_mult_matrix(x)
            assert got == solve_per_column(x, units)
            for b, col in zip(units, zip(*got)):
                assert list(col) == qalg.coords_in_basis(x * b, units)
            checked += 1
    assert checked == 2 * 28


def test_left_mult_matrix_on_one_i_j_k_is_int_for_integral_input():
    for params in (HAMILTON, MINUS13):
        units = qalg.basis_elems(params)
        for x in units + (quat(params, 2, -1, 3, 5),):
            assert all(type(v) is int for row in qalg.left_mult_matrix(x) for v in row)
        half = qalg.left_mult_matrix(quat(params, Fraction(1, 2), 1, 0, 0))
        assert half[0][0] == Fraction(1, 2) and type(half[0][1]) is int


def order_bases():
    """The Hurwitz basis in the orders (1, i, j, zeta) of the cover blocks
    and (zeta, i, j, k) of ``hurwitz_order``, and the Lipschitz basis."""
    one, i, j, k = qalg.basis_elems(HAMILTON)
    zeta = (one + i + j + k).scale(Fraction(1, 2))
    return [(one, i, j, zeta), hurwitz_order().basis, (one, i, j, k)]


@pytest.mark.parametrize("basis", order_bases(), ids=["hurwitz-1ijz", "hurwitz-zijk", "lipschitz"])
def test_order_left_mult_matches_the_coordinates_per_column(basis):
    order = qalg.OrderLattice(HAMILTON, basis)
    units = qalg.basis_elems(HAMILTON)
    for s, a in QUAT_GROUP:
        x = units[a].scale(s)
        got = order.left_mult((s, a))
        assert got == [list(col) for col in zip(*(qalg.coords_in_basis(x * b, basis) for b in basis))]
        assert got == solve_per_column(x, basis)
        assert all(type(v) is int for row in got for v in row)


def index_oracle(m, order):
    """The per-element computation that ``left_ideal_index`` replaced: the
    products u * m for u = 1, i, j, k, their coordinates in the order, and
    a determinant over Q."""
    cols = []
    for u in qalg.basis_elems(m.params):
        c = order.coords(u * m)
        if any(v.denominator != 1 for v in c):
            raise ValueError("element is not in the order")
        cols.append(c)
    return abs(linalg.det(linalg.frac_mat(cols))), 2 * m.norm() ** 2


def lipschitz_box_elements():
    """The 2,400 nonzero points of the [-3, 3]^4 box in 1, i, j, k coordinates."""
    return [quat(HAMILTON, *c) for c in product(range(-3, 4), repeat=4) if any(c)]


def half_integer_elements():
    """The 256 points with every 1, i, j, k coordinate in +-1/2, +-3/2."""
    halves = [Fraction(t, 2) for t in (-3, -1, 1, 3)]
    return [quat(HAMILTON, *c) for c in product(halves, repeat=4)]


def assert_same(got, want):
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


@pytest.mark.parametrize(
    "order, points, inside",
    [
        pytest.param(hurwitz_order(), ("hurwitz", "lipschitz", "half"), 5056, id="hurwitz"),
        pytest.param(hz_order(), ("lipschitz", "half"), 2400, id="lipschitz"),
        pytest.param(
            qalg.OrderLattice(HAMILTON, [b.scale(Fraction(1, 2)) for b in qalg.basis_elems(HAMILTON)]),
            ("half",), 256, id="half-lipschitz",
        ),
    ],
)
def test_left_ideal_index_matches_the_per_element_oracle(order, points, inside):
    """Structure constants give the oracle's value and types, per order.

    The half-Lipschitz lattice is stable under i, j, k but not an order;
    its norm form has denominators."""
    sets = {
        "hurwitz": index_box_elements(),
        "lipschitz": lipschitz_box_elements(),
        "half": half_integer_elements(),
    }
    checked = 0
    for m in [m for name in points for m in sets[name]]:
        coords = order.coords(m)
        try:
            want = index_oracle(m, order)
        except ValueError:
            with pytest.raises(ValueError, match="not in the order"):
                qalg.left_ideal_index(order, coords)
            with pytest.raises(ValueError, match="not in the order"):
                hurwitz_index_identity(m, order)
            continue
        assert_same(qalg.left_ideal_index(order, tuple(map(int, coords))), want)
        assert_same(hurwitz_index_identity(m, order), want)
        checked += 1
    assert checked == inside


def test_index_identity_on_half_integer_points():
    order = hurwitz_order()
    for m in half_integer_elements():
        got, expected = hurwitz_index_identity(m, order)
        assert got == expected == 2 * m.norm() ** 2


def test_index_identity_rejects_elements_outside_the_order():
    with pytest.raises(ValueError, match="not in the order"):
        hurwitz_index_identity(quat(HAMILTON, Fraction(1, 3), 0, 0, 0))
    with pytest.raises(ValueError, match="not in the order"):
        qalg.left_ideal_index(hurwitz_order(), (Fraction(1, 2), 0, 0, 0))


def test_index_identity_rejects_a_lattice_not_stable_under_i_j_k():
    """Z<1, 2i, j, k> holds 1 but not i * 1, so it has no constants."""
    one, i, j, k = qalg.basis_elems(HAMILTON)
    lattice = qalg.OrderLattice(HAMILTON, (one, i.scale(2), j, k))
    with pytest.raises(ValueError, match="not stable under left multiplication"):
        qalg.left_ideal_index(lattice, (1, 0, 0, 0))
    with pytest.raises(ValueError, match="not stable under left multiplication"):
        hurwitz_index_identity(one, lattice)
    with pytest.raises(ValueError, match="not stable under left multiplication"):
        lattice.left_mult((1, 0))


def leibniz_det(m):
    """Signed sum over the 24 permutations, the sign read off the inversions."""
    total = 0
    for p in permutations(range(4)):
        inversions = sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4))
        term = (-1) ** inversions
        for row, col in enumerate(p):
            term *= m[row][col]
        total += term
    return total


def box_matrices():
    """The 2,400 integer matrices of the registry sweep, built per element:
    row u holds the Hurwitz-order coordinates of u * m."""
    order = hurwitz_order()
    units = qalg.basis_elems(HAMILTON)
    return [[list(map(int, order.coords(u * m))) for u in units] for m in index_box_elements()]


def random_int_matrices(count=300, seed=24):
    """Seeded 4x4 int matrices with negative entries; every third has a zero
    leading entry and every fourth is singular (row 3 = row 1 - 2 row 2)."""
    rng = random.Random(seed)
    mats = []
    for n in range(count):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        if n % 3 == 0:
            m[0][0] = 0
        if n % 4 == 0:
            m[3] = [x - 2 * y for x, y in zip(m[1], m[2])]
        mats.append(m)
    return mats


def test_closed_form_det_matches_bareiss_and_leibniz():
    box = box_matrices()
    assert len(box) == 2400
    rand = random_int_matrices()
    assert sum(m[0][0] == 0 for m in rand) >= 100
    assert sum(leibniz_det(m) == 0 for m in rand) >= 75
    assert all(any(x < 0 for row in m for x in row) for m in rand)
    for m in box + rand:
        got = qalg._det4(m)
        assert type(got) is int
        assert got == linalg.int_det(m) == leibniz_det(m)


def box_points():
    """The registry's 2,400 nonzero points of [-3, 3]^4, as a stream."""
    return (c for c in product(range(-3, 4), repeat=4) if any(c))


def planted_gram_order():
    """A fresh Hurwitz order with its Gram entry g_00 raised by 2, the
    order ``PLANTED_GRAM`` plants in the registry's."""
    order = qalg.OrderLattice(HAMILTON, hurwitz_order().basis)
    forms = order._left_ideal_constants()
    order._index_constants = forms[:16] + ((forms[16][0] + 2,) + forms[16][1:],) + forms[17:]
    return order


def box_sweep(order):
    """The oracle: the identity of ``left_ideal_index`` evaluated at every
    box point, one element at a time."""
    return sum(index != want for index, want in (qalg.left_ideal_index(order, c) for c in box_points()))


def test_the_simplex_is_unisolvent_in_degree_4():
    """The certificate's premise, checked apart from its proof: the 70
    monomials of total degree <= 4 in four variables, evaluated at the 70
    points of the simplex, form an invertible matrix, so the only
    polynomial of that degree vanishing there is zero."""
    exponents = [e for e in product(range(5), repeat=4) if sum(e) <= 4]
    assert len(exponents) == math.comb(8, 4) == 70
    assert sorted(qalg._SIMPLEX) == exponents
    values = [[math.prod(x**e for x, e in zip(point, monomial)) for monomial in exponents]
              for point in qalg._SIMPLEX]
    assert linalg.int_det(values) != 0


@pytest.mark.parametrize(
    "make_order, mismatches",
    [(hurwitz_order, 0), (hz_order, 2400), (planted_gram_order, 2058)],
    ids=["hurwitz", "lipschitz", "planted-gram"],
)
def test_index_mismatches_matches_the_box_sweep(make_order, mismatches):
    order = make_order()
    assert qalg.index_mismatches(order, box_points()) == box_sweep(order) == mismatches


def test_index_mismatches_evaluates_no_box_point_on_the_hurwitz_order(monkeypatch):
    """The 70 simplex points certify the Hurwitz order, so the sweep's
    kernel runs at none of the 2,400 box points; on the Lipschitz order
    the certificate fails and every point is swept."""
    swept, signed = [], []
    real_index, real_signed = qalg._index_kernel, qalg._signed_kernel

    def index_kernel(forms, coords):
        swept.append(coords)
        return real_index(forms, coords)

    def signed_kernel(forms, *coords):
        signed.append(coords)
        return real_signed(forms, *coords)

    monkeypatch.setattr(qalg, "_index_kernel", index_kernel)
    monkeypatch.setattr(qalg, "_signed_kernel", signed_kernel)
    assert qalg.index_mismatches(hurwitz_order(), box_points()) == 0
    assert swept == []
    assert signed == list(qalg._SIMPLEX)
    assert qalg.index_mismatches(hz_order(), box_points()) == 2400
    assert len(swept) == 2400


@pytest.mark.parametrize("make_order", [hurwitz_order, hz_order], ids=["certified", "swept"])
def test_index_mismatches_rejects_a_point_outside_the_order_on_both_branches(make_order):
    points = ((1, 0, 0, 0), (Fraction(1, 2), 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError, match="element is not in the order"):
        qalg.index_mismatches(make_order(), iter(points))


def test_index_mismatches_certifies_the_box_in_ints(monkeypatch):
    order = hurwitz_order()
    planted = planted_gram_order()
    box = [c for c in product(range(-3, 4), repeat=4) if any(c)]
    assert qalg.index_mismatches(order, box) == 0  # the constants, built once
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 2)
    assert made == [(1, 2)]
    made.clear()
    assert qalg.index_mismatches(order, box) == 0
    assert qalg.index_mismatches(planted, box) == 2058  # the sweep, also in ints
    assert made == []


PLANTED_GRAM = """
from quatprym import qalg, report
order = qalg.hurwitz_order()
forms = order._left_ideal_constants()  # forms[16] is row 0 of the Gram matrix
order._index_constants = forms[:16] + ((forms[16][0] + 2,) + forms[16][1:],) + forms[17:]
[rec] = [r for r in report.run_suite("qalg") if r.claim_id == "qalg.left_ideal_index"]
print(rec.status, rec.computed)
"""


def test_a_planted_gram_entry_fails_the_registry_claim():
    """g_00 + 2 makes the norm form 2 N(c) + 2 c_0^2: the identity breaks at
    exactly the 6 * 7^3 box points with c_0 != 0."""
    proc = subprocess.run(
        [sys.executable, "-c", PLANTED_GRAM], capture_output=True, text=True, check=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(Path(qalg.__file__).parents[1])},
    )
    assert proc.stdout.split("\n")[0] == "FAIL 2058 mismatches"


# -------------------------------------------------------- group ring shape


def test_group_ring_wedderburn_components():
    components = group_ring_wedderburn()
    assert sorted(components) == [(1, 1), (1, 1), (1, 1), (1, 1), (2, -1)]
    assert sum(d * d for d, _ in components) == 8


def wedderburn_by_hand():
    """The character table written out: the classes {1}, {-1}, {+-i},
    {+-j}, {+-k}, the linear characters by their signs on i and j, the
    2-dimensional character [2, -2, 0, 0, 0], and each indicator as the
    mean of chi(g^2) through qmul.  The oracle for group_ring_wedderburn."""
    classes = [[(1, 0)], [(-1, 0)], [(1, 1), (-1, 1)], [(1, 2), (-1, 2)], [(1, 3), (-1, 3)]]
    characters = [(1, [1, 1, ei, ej, ei * ej]) for ei in (1, -1) for ej in (1, -1)]
    characters.append((2, [2, -2, 0, 0, 0]))

    def indicator(values):
        squares = [qmul(g, g) for g in QUAT_GROUP]
        total = sum(values[c] for x in squares for c, cls in enumerate(classes) if x in cls)
        assert total % 8 == 0
        return total // 8

    return [(dim, indicator(values)) for dim, values in characters]


def test_group_ring_wedderburn_matches_the_hand_written_table():
    assert group_ring_wedderburn() == wedderburn_by_hand()


# ------------------------------------------------------- splitting embed


@given(coeff, coeff, coeff, coeff, coeff, coeff, coeff, coeff)
def test_embedding_is_a_ring_map(a, b, c, d, e, f, g, h):
    x = quat(MINUS13, a, b, c, d)
    y = quat(MINUS13, e, f, g, h)
    assert embed_in_m2(x * y) == linalg.mat_mul(embed_in_m2(x), embed_in_m2(y))


@given(params_st, coeff, coeff, coeff, coeff)
def test_embedding_determinant_is_norm(params, a, b, c, d):
    x = quat(params, a, b, c, d)
    det = linalg.det(embed_in_m2(x))
    assert det.v == 0
    assert det.u == x.norm()


def test_knum_parts_are_ints_or_fractions_never_floats():
    x = KNum.make(-1, 1, 1)
    inv = x.inv()
    assert (inv.u, inv.v) == (Fraction(1, 2), Fraction(-1, 2))
    assert type(inv.u) is Fraction and type(inv.v) is Fraction
    ints = (x, KNum.make(-1, 2), KNum.make(-1, 0, 3), KNum.make(-1, 5, -2))
    for a in ints:
        assert all(type(p) is int for p in (a.r, a.u, a.v))
        for b in ints:
            for got in (a / b, a * b, a + b, a - b):
                assert all(type(p) in (int, Fraction) for p in (got.r, got.u, got.v))
        for got in (a.inv(), a.scale(Fraction(1, 3)), a.scale(3)):
            assert all(type(p) in (int, Fraction) for p in (got.r, got.u, got.v))
    # the same element from Fraction parts: equal, same hash, same text
    y = KNum(Fraction(-1), Fraction(2), Fraction(0))
    assert KNum.make(-1, 2) == y
    assert hash(KNum.make(-1, 2)) == hash(y)
    assert str(KNum.make(-1, 2)) == str(y) == "2"
    assert str(KNum.make(-1, 0, 3)) == str(KNum(Fraction(-1), Fraction(0), Fraction(3))) == "3*i"


def test_knum_field_ops():
    x = KNum.make(-3, 1, 2)
    y = KNum.make(-3, 2, -1)
    assert (x * y).u == 2 + 2 * 3  # (1+2w)(2-w) = 2 - w + 4w - 2w^2, w^2 = -3
    assert (x + y).u == 3 and (x + y).v == 1
    assert x.conj().v == -2
    field_norm = x * x.conj()
    assert field_norm.v == 0 and field_norm.u == 1 - (-3) * 4
