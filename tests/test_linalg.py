"""Exact linear algebra: oracles are permutation-expansion determinants
and the defining transform identities of the Smith normal form.  The
field routines are also checked over Q(i) and Q(sqrt(-3)) against
oracles built only from the Leibniz expansion."""

from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from quatprym import linalg
from quatprym.qalg import KNum


def perm_sign(p):
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_oracle(m):
    """Leibniz expansion, independent of the library's elimination."""
    n = len(m)
    total = Fraction(0)
    for p in permutations(range(n)):
        term = Fraction(perm_sign(p))
        for i in range(n):
            term *= Fraction(m[i][p[i]])
        total += term
    return total


small_entry = st.integers(min_value=-6, max_value=6)


def square(n):
    return st.lists(st.lists(small_entry, min_size=n, max_size=n), min_size=n, max_size=n)


@given(square(3))
def test_det_matches_leibniz_3x3(m):
    assert linalg.det(linalg.frac_mat(m)) == det_oracle(m)


@given(square(4))
@settings(max_examples=60)
def test_det_matches_leibniz_4x4(m):
    assert linalg.det(linalg.frac_mat(m)) == det_oracle(m)


@given(square(3), square(3))
def test_det_multiplicative(a, b):
    fa, fb = linalg.frac_mat(a), linalg.frac_mat(b)
    assert linalg.det(linalg.mat_mul(fa, fb)) == linalg.det(fa) * linalg.det(fb)


def int_matrix(rows, cols):
    return st.lists(
        st.lists(small_entry, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@given(int_matrix(3, 4))
def test_smith_transform_identity(a):
    s, u, v = linalg.smith_normal_form(a)
    ua = linalg.mat_mul(linalg.frac_mat(u), linalg.frac_mat(a))
    uav = linalg.mat_mul(ua, linalg.frac_mat(v))
    assert linalg.mat_eq(uav, linalg.frac_mat(s))
    assert abs(linalg.det(linalg.frac_mat(u))) == 1
    assert abs(linalg.det(linalg.frac_mat(v))) == 1


@given(int_matrix(3, 4))
def test_smith_diagonal_divisibility(a):
    s, _, _ = linalg.smith_normal_form(a)
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    for i in range(len(diag)):
        assert diag[i] >= 0
        for j in range(i + 1, len(s[i])):
            assert s[i][j] == 0
        if i > 0 and diag[i - 1] != 0:
            assert diag[i] % diag[i - 1] == 0


@given(int_matrix(3, 5))
def test_integer_kernel_is_saturated(a):
    ker = linalg.integer_kernel(a)
    for v in ker:
        assert all(isinstance(c, int) for c in v)
        prod = linalg.mat_vec(linalg.frac_mat(a), [Fraction(c) for c in v])
        assert all(x == 0 for x in prod)
    # rank of kernel + rank of matrix = number of columns
    assert len(ker) + linalg.rank(linalg.frac_mat(a)) == 5
    # saturation: the basis extends to a basis of Z^5, so every
    # elementary divisor of the stacked basis is 1
    if ker:
        assert linalg.elementary_divisors(ker) == [1] * len(ker)


@given(int_matrix(4, 4))
def test_nullspace_vectors_annihilate(a):
    fa = linalg.frac_mat(a)
    ns = linalg.nullspace(fa)
    for v in ns:
        assert all(x == 0 for x in linalg.mat_vec(fa, v))
    assert len(ns) == 4 - linalg.rank(fa)


def test_rref_idempotent_and_pivots():
    m = linalg.frac_mat([[2, 4, 1], [1, 2, 0], [0, 0, 3]])
    r, pivots = linalg.rref(m)
    r2, pivots2 = linalg.rref(r)
    assert linalg.mat_eq(r2, r) and pivots2 == pivots
    assert pivots == [0, 2]
    for i, c in enumerate(pivots):
        assert r[i][c] == 1
        assert all(r[k][c] == 0 for k in range(len(r)) if k != i)


@given(square(3), st.lists(small_entry, min_size=3, max_size=3))
def test_solve_or_report_singular(a, b):
    fa = linalg.frac_mat(a)
    fb = [Fraction(x) for x in b]
    if linalg.det(fa) == 0:
        return
    x = linalg.solve(fa, fb)
    assert linalg.mat_vec(fa, x) == fb


def test_inverse_round_trip():
    m = linalg.frac_mat([[1, 2, 0], [0, 1, 4], [1, 0, 1]])
    inv = linalg.inverse(m)
    assert linalg.mat_eq(linalg.mat_mul(m, inv), linalg.identity(3))
    with pytest.raises(ValueError):
        linalg.inverse(linalg.frac_mat([[1, 1], [1, 1]]))


def test_int_det_matches_rational_det():
    m = [[3, 1, 0], [2, -1, 5], [0, 4, 2]]
    assert linalg.int_det(m) == det_oracle(m)


def test_intersect_row_spaces():
    a = linalg.frac_mat([[1, 0, 0], [0, 1, 0]])
    b = linalg.frac_mat([[0, 1, 0], [0, 0, 1]])
    inter = linalg.intersect_row_spaces(a, b)
    assert len(inter) == 1
    v = inter[0]
    assert v[0] == 0 and v[2] == 0 and v[1] != 0


def test_row_space_basis_dedupes():
    rows = linalg.frac_mat([[1, 2], [2, 4], [0, 1]])
    basis = linalg.row_space_basis(rows)
    assert len(basis) == 2


def test_elementary_divisors_known_case():
    # diag(2, 6) stretched by a unimodular change of basis
    m = [[2, 2], [0, 6]]
    assert linalg.elementary_divisors(m) == [2, 6]


def test_mat_sub_is_add_of_negation():
    a = linalg.frac_mat([[1, 2], [3, 4]])
    b = linalg.frac_mat([[5, -1], [0, 7]])
    assert linalg.mat_sub(a, b) == linalg.mat_add(a, linalg.mat_scale(b, -1))


def test_library_perm_sign_matches_cycle_oracle():
    for n in range(7):
        for p in permutations(range(n)):
            assert linalg.perm_sign(p) == perm_sign(p)
    # the sign of the permutation that sorts arbitrary distinct items
    assert linalg.perm_sign((5, 2, 9)) == perm_sign((1, 0, 2)) == -1


def test_block_diag_keeps_the_entry_type():
    ints = linalg.block_diag([[[1, 2], [3, 4]], [[5]]])
    assert ints == [[1, 2, 0], [3, 4, 0], [0, 0, 5]]
    assert all(type(x) is int for row in ints for x in row)
    fracs = linalg.block_diag([linalg.frac_mat([[1]])] * 2)
    assert fracs == [[1, 0], [0, 1]]
    assert all(type(x) is Fraction for row in fracs for x in row)


def test_integer_input_comes_back_as_fraction():
    a = [[2, 1], [1, 1]]
    assert linalg.det(a) == 1 and type(linalg.det(a)) is Fraction
    singular = linalg.det([[0, 1], [0, 2]])
    assert singular == 0 and type(singular) is Fraction
    inv = linalg.inverse(a)
    assert inv == [[1, -1], [-1, 2]]
    assert all(type(x) is Fraction for row in inv for x in row)
    x = linalg.solve(a, [1, 0])
    assert x == [1, -1] and all(type(v) is Fraction for v in x)
    ns = linalg.nullspace([[1, 2]])
    assert ns == [[-2, 1]] and all(type(v) is Fraction for v in ns[0])
    r, pivots = linalg.rref([[2, 4]])
    assert r == [[1, 2]] and pivots == [0] and all(type(v) is Fraction for v in r[0])


def test_mat_mul_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.mat_mul([[1, 2, 3]], [[1], [1]])


def test_int_det_rejects_non_integral_determinant():
    with pytest.raises(ValueError):
        linalg.int_det([[Fraction(1, 2)]])


# ------------------------------------------------- over a quadratic field


def leibniz(m):
    """Determinant by permutation expansion over any field: a signed sum of
    products of entries, with no constant of the field needed."""
    n = len(m)
    terms = []
    for p in permutations(range(n)):
        term = reduce(mul, (m[i][p[i]] for i in range(n)))
        terms.append(term if perm_sign(p) > 0 else -term)
    return reduce(add, terms)


def minor(m, rows, cols):
    return [[m[i][j] for j in cols] for i in rows]


def rank_oracle(m):
    """Size of the largest square submatrix with a nonzero determinant."""
    n = len(m)
    for k in range(n, 0, -1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                if leibniz(minor(m, rows, cols)):
                    return k
    return 0


QUADRATIC_FIELDS = (-1, -3)  # Q(i) and Q(sqrt(-3))


@st.composite
def k_system(draw, n=3):
    """A square matrix and a right-hand side over Q(sqrt(r)); half of the
    matrices get a last row dependent on the first two."""
    r = draw(st.sampled_from(QUADRATIC_FIELDS))
    entry = st.builds(KNum.make, st.just(r), st.integers(-2, 2), st.integers(-2, 2))
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        c = draw(entry)
        m[-1] = [c * x + y for x, y in zip(m[0], m[1])]
    b = draw(st.lists(entry, min_size=n, max_size=n))
    return m, b


@given(k_system())
@settings(max_examples=60)
def test_quadratic_field_det_and_rank_match_leibniz(system):
    m, _ = system
    assert linalg.det(m) == leibniz(m)
    assert linalg.rank(m) == rank_oracle(m)


@given(k_system())
@settings(max_examples=60)
def test_quadratic_field_inverse_and_solve_match_cramer(system):
    m, b = system
    n = len(m)
    d = leibniz(m)
    if not d:
        with pytest.raises(ValueError):
            linalg.inverse(m)
        x = linalg.solve(m, b)
        assert x is None or linalg.mat_vec(m, x) == b
        return
    others = [[t for t in range(n) if t != s] for s in range(n)]
    adjugate = [
        [leibniz(minor(m, others[j], others[i])) for j in range(n)] for i in range(n)
    ]
    expected = [
        [x / d if (i + j) % 2 == 0 else -x / d for j, x in enumerate(row)]
        for i, row in enumerate(adjugate)
    ]
    assert linalg.inverse(m) == expected
    cramer = [
        leibniz([row[:j] + [bv] + row[j + 1 :] for row, bv in zip(m, b)]) / d
        for j in range(n)
    ]
    assert linalg.solve(m, b) == cramer
