"""Exact linear algebra: oracles are permutation-expansion determinants
and the defining transform identities of the Smith normal form.  The
field routines are also checked over Q(i) and Q(sqrt(-3)) against
oracles built only from the Leibniz expansion.  The zero-skipping
products and eliminations are checked against the dense textbook
algorithms, kept here as oracles, on random sparse matrices and on a
70x70 Weil-kernel matrix of the group-action oracle.  The fraction-free determinant of
int matrices is checked against the Fraction elimination and Leibniz, and
the fraction-free rational elimination (``int_echelon`` and what runs on
it) against the dense elimination, Leibniz and Cramer on mixed
int/Fraction matrices."""

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from quatprym import linalg
from quatprym import weil_classes as wc
from quatprym.qalg import HAMILTON, KNum, QuatElem
from test_weil_classes import annihilator_coefficients, mat_of


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


@st.composite
def int_square_any(draw):
    """A small int matrix, 0x0 to 5x5; a third are made singular (the last
    row a multiple of the first) and a third need a row swap at the first
    pivot (a zero corner)."""
    n = draw(st.integers(min_value=0, max_value=5))
    m = draw(square(n))
    shape = draw(st.sampled_from(("plain", "singular", "swap")))
    if shape == "singular" and n >= 2:
        k = draw(small_entry)
        m[-1] = [k * x for x in m[0]]
    elif shape == "swap" and n >= 2:
        m[0][0] = 0
    return m


@given(int_square_any())
@settings(max_examples=300)
def test_int_det_matches_fraction_elimination_and_leibniz(m):
    got = linalg.det(m)
    assert type(got) is Fraction
    assert got == linalg.det(linalg.frac_mat(m)) == det_oracle(m)


@pytest.mark.parametrize("m,expected", [
    ([], 1),
    ([[0]], 0),
    ([[0, 1], [1, 0]], -1),                      # swap at the first pivot
    ([[1, 2, 3], [2, 4, 5], [1, 1, 1]], -1),     # swap at the second pivot
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),     # one swap, then none
    ([[2, 4, 6], [1, 5, 9], [3, 9, 15]], 0),     # singular only after a step
    ([[1, 2], [0, 0]], 0),                       # zero column at the last pivot
])
def test_int_det_swaps_and_singular_cases(m, expected):
    got = linalg.det(m)
    assert got == expected == det_oracle(m) == linalg.det(linalg.frac_mat(m))
    assert type(got) is Fraction


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
    assert uav == linalg.frac_mat(s)
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
    assert r2 == r and pivots2 == pivots
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
    assert linalg.mat_mul(m, inv) == linalg.identity(3)
    with pytest.raises(ValueError):
        linalg.inverse(linalg.frac_mat([[1, 1], [1, 1]]))


def test_int_det_matches_rational_det():
    m = [[3, 1, 0], [2, -1, 5], [0, 4, 2]]
    assert linalg.int_det(m) == det_oracle(m)


def test_int_det_eliminates_an_int_matrix_without_det(monkeypatch):
    def no_det(a):
        raise AssertionError("det called on an all-int matrix")

    monkeypatch.setattr(linalg, "det", no_det)
    for m in ([[3, 1, 0], [2, -1, 5], [0, 4, 2]], [[0, 1], [1, 0]], [[2, 4], [1, 2]], []):
        got = linalg.int_det(m)
        assert type(got) is int and got == det_oracle(m)


def test_int_det_of_fraction_entries_goes_through_det():
    got = linalg.int_det([[Fraction(3, 2), Fraction(1, 2)], [1, 1]])
    assert type(got) is int and got == 1


def test_intersect_row_spaces():
    a = linalg.frac_mat([[1, 0, 0], [0, 1, 0]])
    b = linalg.frac_mat([[0, 1, 0], [0, 0, 1]])
    inter = linalg.intersect_row_spaces(a, b)
    assert len(inter) == 1
    v = inter[0]
    assert v[0] == 0 and v[2] == 0 and v[1] != 0


def test_row_space_basis_dedupes():
    # a row space met with itself comes back as its canonical basis: the
    # repeated row goes, the rest is in reduced echelon form
    rows = linalg.frac_mat([[1, 2, 0], [2, 4, 0], [0, 1, 0]])
    basis = linalg.intersect_row_spaces(rows, rows)
    assert len(basis) == 2
    assert basis == linalg.frac_mat([[1, 0, 0], [0, 1, 0]])


def test_elementary_divisors_known_case():
    # diag(2, 6) stretched by a unimodular change of basis
    m = [[2, 2], [0, 6]]
    assert linalg.elementary_divisors(m) == [2, 6]


def test_library_perm_sign_matches_cycle_oracle():
    # the library reads a permutation's sign off its sorting step: the
    # wedge of the basis vectors in the permuted order, sorted
    def wedge_of_units(seq):
        units = ([int(q == p) for q in range(10)] for p in seq)
        return reduce(linalg.wedge_vector, units, {(): 1})

    for n in range(7):
        for p in permutations(range(n)):
            assert wedge_of_units(p) == {tuple(range(n)): perm_sign(p)}
    # the sign of the permutation that sorts arbitrary distinct items
    assert wedge_of_units((5, 2, 9)) == {(2, 5, 9): perm_sign((1, 0, 2))} == {(2, 5, 9): -1}


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


NON_SQUARE = ([[1, 2, 3], [4, 5, 6]], [[1, 2, 3]], [[1, 0, 0], [0, 1, 0]], [[1], [2]], [[1, 2], [3]])
ENTRY_OF_INT = {
    "int": int,
    "Fraction": lambda x: Fraction(x, 3),
    "KNum": lambda x: KNum.make(-3, x, 1),
}


@pytest.mark.parametrize("kind", sorted(ENTRY_OF_INT))
@pytest.mark.parametrize("routine", ["det", "int_det", "inverse"])
def test_non_square_matrix_is_rejected(routine, kind):
    for shape in NON_SQUARE:
        m = [[ENTRY_OF_INT[kind](x) for x in row] for row in shape]
        with pytest.raises(ValueError, match="matrix is not square"):
            getattr(linalg, routine)(m)


def test_int_det_rejects_non_integral_determinant():
    with pytest.raises(ValueError):
        linalg.int_det([[Fraction(1, 2)]])


def test_nullspace_of_rational_zeros_is_the_standard_basis():
    for zero in (0, Fraction(0)):
        ns = linalg.nullspace([[zero] * 3, [zero] * 3])
        assert ns == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert all(type(v) is Fraction for row in ns for v in row)


def test_nullspace_of_quadratic_field_zeros_is_rejected():
    # no nonzero entry to read the field's 1 off, as in inverse
    zero = KNum.make(-1, 0)
    with pytest.raises(ValueError, match="no nonzero entry"):
        linalg.nullspace([[zero, zero]])
    one = KNum.make(-1, 1)
    assert linalg.nullspace([[zero, one]]) == [[one, zero]]


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


# ------------------------------------------ zero skipping against dense oracles


def dense_mat_mul(a, b):
    """The dense product: every row times every column, zeros included."""
    return [[reduce(add, map(mul, row, col)) for col in zip(*b)] for row in a]


def dense_mat_vec(a, v):
    return [reduce(add, map(mul, row, v)) for row in a]


def dense_rref(a):
    """Textbook Gauss-Jordan elimination over whole rows."""
    m = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in a]
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def assert_same_entries(got, expected):
    """Equal values and equal types, entry by entry."""
    assert got == expected
    assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in expected]


ENTRY_MAKERS = {
    "int": lambda rng: rng.randint(-4, 4),
    "Fraction": lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    "KNum": lambda rng: KNum.make(-3, rng.randint(-3, 3), rng.randint(-3, 3)),
}


def sparse_matrix(rng, rows, cols, density, entry):
    """A random matrix whose entries are nonzero with probability about
    ``density``; its zeros have the type of its entries."""
    x = entry(rng)
    zero = x - x
    return [
        [entry(rng) if rng.random() < density else zero for _ in range(cols)]
        for _ in range(rows)
    ]


def zeroed(m, rows=(), cols=()):
    """m with the given rows and columns replaced by zeros of its type."""
    zero = m[0][0] - m[0][0]
    return [
        [zero if i in rows or j in cols else x for j, x in enumerate(row)]
        for i, row in enumerate(m)
    ]


@pytest.mark.parametrize("kind", sorted(ENTRY_MAKERS))
def test_sparse_mat_mul_matches_dense_oracle(kind):
    entry = ENTRY_MAKERS[kind]
    rng = random.Random(f"mat_mul-{kind}")
    for trial in range(60):
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.0, 0.1, 0.3, 0.7, 1.0))
        a = sparse_matrix(rng, m, k, density, entry)
        b = sparse_matrix(rng, k, n, density, entry)
        if trial % 3 == 1:
            # an all-zero row of a and an all-zero column of b
            a = zeroed(a, rows=(rng.randrange(m),))
            b = zeroed(b, cols=(rng.randrange(n),))
        assert_same_entries(linalg.mat_mul(a, b), dense_mat_mul(a, b))
        v = [row[0] for row in b]
        assert_same_entries([linalg.mat_vec(a, v)], [dense_mat_vec(a, v)])
    # all-zero matrices: the product is still made of zeros of the entry type
    x = entry(rng)
    zero = x - x
    full = sparse_matrix(rng, 3, 3, 1.0, entry)
    z = [[zero] * 3 for _ in range(3)]
    for a, b in ((z, full), (full, z), (z, z)):
        got = linalg.mat_mul(a, b)
        assert_same_entries(got, dense_mat_mul(a, b))
        assert all(type(x) is type(zero) and not x for row in got for x in row)


@pytest.mark.parametrize("kind", sorted(ENTRY_MAKERS))
def test_sparse_mul_matches_dense_oracle(kind):
    entry = ENTRY_MAKERS[kind]
    rng = random.Random(f"sparse_mul-{kind}")
    for trial in range(60):
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.0, 0.1, 0.3, 0.7, 1.0))
        a = sparse_matrix(rng, m, k, density, entry)
        b = sparse_matrix(rng, k, n, density, entry)
        if trial % 2:
            # all-zero rows in both operands
            a = zeroed(a, rows=(rng.randrange(m),))
            b = zeroed(b, rows=(rng.randrange(k),))
        zero = a[0][0] - a[0][0]
        # columns past the last nonzero one are zeros of the given type
        extra = rng.randint(0, 3)
        got = linalg.sparse_mul(linalg.sparse_rows(a), linalg.sparse_rows(b), n + extra, zero)
        assert_same_entries(got, [row + [zero] * extra for row in dense_mat_mul(a, b)])
    # the default zero is int 0: int operands give an int product
    a = sparse_matrix(rng, 4, 5, 0.4, ENTRY_MAKERS["int"])
    b = sparse_matrix(rng, 5, 3, 0.4, ENTRY_MAKERS["int"])
    got = linalg.sparse_mul(linalg.sparse_rows(a), linalg.sparse_rows(b), 3)
    assert_same_entries(got, dense_mat_mul(a, b))


@pytest.mark.parametrize("kind", ["Fraction", "KNum"])
def test_sparse_elimination_matches_dense_oracle(kind):
    entry = ENTRY_MAKERS[kind]
    rng = random.Random(f"rref-{kind}")
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = sparse_matrix(rng, m, n, rng.choice((0.0, 0.2, 0.5, 1.0)), entry)
        r, pivots = linalg.rref(a)
        expected_r, expected_pivots = dense_rref(a)
        assert pivots == expected_pivots
        assert_same_entries(r, expected_r)
        square = sparse_matrix(rng, 4, 4, rng.choice((0.2, 0.5, 1.0)), entry)
        assert linalg.det(square) == leibniz(square)


# ------------------------------------ the fraction-free rational elimination


def mixed_entry(rng):
    """An int or a Fraction with denominator up to 6; a third are zeros."""
    if rng.random() < 0.3:
        return rng.choice((0, Fraction(0)))
    n = rng.randint(-5, 5)
    return n if rng.random() < 0.5 else Fraction(n, rng.randint(1, 6))


def mixed_matrix(rng, rows, cols):
    """A random int/Fraction matrix; about half get a last row dependent on
    the first two, and some a zero row or a zero column."""
    a = [[mixed_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.5:
        c, d = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)
        a[-1] = [c * x + d * y for x, y in zip(a[0], a[1])]
    if rng.random() < 0.3:
        a[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in a:
            row[j] = Fraction(0)
    return a


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def test_rational_elimination_matches_dense_oracles():
    rng = random.Random("int_echelon")
    for trial in range(300):
        # square, tall and wide shapes in turn
        n = rng.randint(1, 5)
        rows, cols = ((n, n), (n + rng.randint(1, 3), n), (n, n + rng.randint(1, 3)))[trial % 3]
        a = mixed_matrix(rng, rows, cols)
        expected_r, expected_pivots = dense_rref(a)
        r, pivots = linalg.rref(a)
        assert pivots == expected_pivots
        assert_same_entries(r, expected_r)
        assert linalg.rank(a) == len(pivots)

        echelon, echelon_pivots = linalg.int_echelon(a)
        assert echelon_pivots == pivots
        for row, c, expected in zip(echelon, pivots, expected_r):
            assert all(type(x) is int for x in row)
            assert math.gcd(*row) == 1 and row[c] > 0
            # the row is its reduced echelon row scaled, so the rows span
            # the row space of a
            assert [Fraction(x, row[c]) for x in row] == expected
        assert linalg.rank(echelon + a) == len(echelon)

        ns = linalg.nullspace(a)
        free = [c for c in range(cols) if c not in pivots]
        assert len(ns) == len(free) and all_fractions(ns)
        for v, fc in zip(ns, free):
            assert v[fc] == 1 and all(v[c] == 0 for c in free if c != fc)
            assert all(v[c] == -row[fc] for c, row in zip(pivots, expected_r))
            assert all(x == 0 for x in linalg.mat_vec(a, v))

        b = [mixed_entry(rng) for _ in range(rows)]
        aug_r, aug_pivots = dense_rref([row + [bv] for row, bv in zip(a, b)])
        x = linalg.solve(a, b)
        if cols in aug_pivots:
            assert x is None
        else:
            assert len(x) == cols and all_fractions([x])
            assert linalg.mat_vec(a, x) == b
            assert all(x[c] == row[cols] for c, row in zip(aug_pivots, aug_r))

        if rows == cols:
            d = det_oracle(a)
            got = linalg.det(a)
            assert got == d and type(got) is Fraction
            if not d:
                with pytest.raises(ValueError):
                    linalg.inverse(a)
                continue
            others = [[t for t in range(n) if t != s] for s in range(n)]
            adjugate = [
                [det_oracle(minor(a, others[j], others[i])) for j in range(n)] for i in range(n)
            ]
            inv = linalg.inverse(a)
            assert all_fractions(inv)
            assert inv == [
                [c / d if (i + j) % 2 == 0 else -c / d for j, c in enumerate(row)]
                for i, row in enumerate(adjugate)
            ]
            cramer = [
                det_oracle([row[:j] + [bv] + row[j + 1 :] for row, bv in zip(a, b)]) / d
                for j in range(n)
            ]
            assert x == cramer


def test_int_echelon_of_no_rows_and_zero_rows():
    assert linalg.int_echelon([]) == ([], [])
    assert linalg.int_echelon([[0, Fraction(0)], [0, 0]]) == ([], [])
    assert linalg.int_echelon([[Fraction(-2, 3), Fraction(4, 9)], [0, 0]]) == ([[3, -2]], [0])


def weil_matrix():
    """X^2 + aX + b for X the wedge^4 group action of 1 + sqrt(-1) on the
    n = 2 model of B(-1, -1), (a, b) from the oracle's annihilator: the
    70x70 matrix whose nullspace the group-action oracle of
    test_weil_classes takes first for the registry's Weil computation."""
    model = wc.HModel.make(2, HAMILTON)
    xm = wc.exterior_action(mat_of(model, QuatElem.make(HAMILTON, 1, 1)), 4)
    a, b = annihilator_coefficients(KNum.make(-1, 1, 1), 4)
    p = linalg.mat_mul(xm, xm)
    for i, (prow, xrow) in enumerate(zip(p, xm)):
        for j, x in enumerate(xrow):
            prow[j] += a * x
        prow[i] += b
    return p


# the nullspace computed before zero skipping, as {index: value}
WEIL_NULLSPACE = (
    {21: -1, 22: -1, 26: -1, 29: 1, 40: -1, 43: 1, 47: 1, 48: 1},
    {20: 1, 23: -1, 27: -1, 28: -1, 41: -1, 42: -1, 46: -1, 49: 1},
)


def test_weil_kernel_matrix_elimination_unchanged():
    p = weil_matrix()
    assert len(p) == 70 and sum(1 for row in p for x in row if x) == 454
    r, pivots = linalg.rref(p)
    assert pivots == [c for c in range(70) if c not in (48, 49)]
    expected_r, expected_pivots = dense_rref(p)
    assert pivots == expected_pivots
    assert_same_entries(r, expected_r)
    ns = linalg.nullspace(p)
    assert [{i: x for i, x in enumerate(v) if x} for v in ns] == list(WEIL_NULLSPACE)
    assert all(type(x) is Fraction for v in ns for x in v)
    assert linalg.det(p) == 0
    # det of the wedge^4 action itself: det(X)^C(7,3) with det(X) = N(1+i)^4
    model = wc.HModel.make(2, HAMILTON)
    xm = wc.exterior_action(mat_of(model, QuatElem.make(HAMILTON, 1, 1)), 4)
    assert linalg.det(xm) == 2**140
