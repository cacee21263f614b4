"""Exterior actions, annihilator kernels, and the two span computations.

The exterior-square oracle below expands 2x2 minors directly from the
definition, independent of the implementation's column recursion.  The
annihilator coefficients are rechecked against quadratic-field powers
computed with the field arithmetic from the algebra module.
"""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest

from quatprym import linalg
from quatprym import weil_classes as wc
from quatprym.qalg import AlgebraParams, KNum, QuatElem

M11 = AlgebraParams.make(-1, -1)
M13 = AlgebraParams.make(-1, -3)


def model(n=1, params=M11):
    return wc.HModel.make(n, params)


# ----------------------------------------------------- exterior actions


def oracle_ext2(m):
    """Second exterior power via 2x2 minors, straight from the definition."""
    n = len(m)
    pairs = list(combinations(range(n), 2))
    out = []
    for (i, j) in pairs:
        row = []
        for (k, l) in pairs:
            minor = m[i][k] * m[j][l] - m[i][l] * m[j][k]
            row.append(minor)
        out.append(row)
    return out


def rand_mat(rng, n):
    return [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]


def test_exterior_square_matches_minor_expansion():
    rng = random.Random(3)
    for n in (3, 4, 5):
        for _ in range(5):
            m = rand_mat(rng, n)
            assert wc.exterior_action(m, 2) == oracle_ext2(m)


def test_exterior_action_is_multiplicative():
    rng = random.Random(4)
    for _ in range(5):
        a = rand_mat(rng, 4)
        b = rand_mat(rng, 4)
        lhs = wc.exterior_action(linalg.mat_mul(a, b), 2)
        rhs = linalg.mat_mul(wc.exterior_action(a, 2), wc.exterior_action(b, 2))
        assert lhs == rhs


def test_exterior_top_power_is_determinant():
    rng = random.Random(5)
    m = rand_mat(rng, 4)
    top = wc.exterior_action(m, 4)
    assert len(top) == 1 and top[0][0] == linalg.det(m)


def test_exterior_identity_and_scaling():
    ident = linalg.identity(4)
    assert wc.exterior_action(ident, 2) == linalg.identity(6)
    doubled = linalg.mat_scale(ident, Fraction(2))
    assert wc.exterior_action(doubled, 3) == linalg.mat_scale(linalg.identity(4), Fraction(8))


def test_exterior_size_guard():
    with pytest.raises(ValueError):
        wc.exterior_action(linalg.identity(18), 9)  # C(18,9) = 48620


# ------------------------------------------------------------ the model


@pytest.mark.parametrize("n,params", [(1, M11), (1, M13), (2, M11), (2, M13)])
def test_model_satisfies_quaternion_relations(n, params):
    h = model(n, params)
    assert h.dim == 4 * n
    r, s = params.r, params.s
    mi = linalg.frac_mat(h.mat_i)
    mj = linalg.frac_mat(h.mat_j)
    assert linalg.mat_eq(linalg.mat_mul(mi, mi), linalg.mat_scale(linalg.identity(h.dim), r))
    assert linalg.mat_eq(linalg.mat_mul(mj, mj), linalg.mat_scale(linalg.identity(h.dim), s))
    anti = linalg.mat_add(linalg.mat_mul(mi, mj), linalg.mat_mul(mj, mi))
    assert all(x == 0 for row in anti for x in row)


@pytest.mark.parametrize(
    "field,replacement,message",
    [
        ("mat_i", "mat_one", "i-action squares to r"),
        ("mat_j", "mat_one", "j-action squares to s"),
        # i squares to r = s, so only the anticommutation fails
        ("mat_j", "mat_i", "i and j anticommute"),
    ],
)
def test_model_check_raises_on_a_wrong_action(field, replacement, message):
    good = model(1, M11)
    bad = dataclasses.replace(good, **{field: getattr(good, replacement)})
    with pytest.raises(ValueError, match=message):
        bad._check()


# ---------------------------------------------------------- annihilators


def knum_annihilator_oracle(x, m):
    """Coefficients of the degree-2 annihilator of the action induced on
    the m-th exterior power: the two eigenvalues are x^m and conj(x)^m,
    so the polynomial is X^2 - trace(x^m) X + norm(x)^m."""
    xm = KNum.make(x.r, 1, 0)
    for _ in range(m):
        xm = xm * x
    trace = 2 * xm.u
    norm = (x * x.conj()).u ** m
    return (-trace, norm)


@pytest.mark.parametrize(
    "r,u,v,n,expected",
    [
        (-1, 0, 1, 1, (2, 1)),
        (-1, 1, 1, 1, (0, 4)),
        (-1, 1, 1, 2, (8, 16)),
        (-3, 1, 1, 1, (4, 16)),
    ],
)
def test_annihilator_coefficients_frozen_and_oracle(r, u, v, n, expected):
    x = KNum.make(r, u, v)
    got = wc.annihilator_coefficients(x, 2 * n)
    assert got == expected
    assert got == knum_annihilator_oracle(x, 2 * n)


# -------------------------------------------------------------- kernels


def test_weil_kernel_dims_frozen():
    h1 = model(1, M11)
    assert wc.weil_kernel(h1, KNum.make(-1, 0, 1)).dim == 2
    assert wc.weil_kernel(h1, KNum.make(-1, 1, 1)).dim == 2
    h2 = model(2, M11)
    assert wc.weil_kernel(h2, KNum.make(-1, 1, 1)).dim == 2


def test_weil_kernel_rejects_rational_elements():
    with pytest.raises(ValueError):
        wc.weil_kernel(model(), KNum.make(-1, 3, 0))


def test_weil_kernel_rejects_an_element_of_another_field():
    with pytest.raises(ValueError, match="disagree on r"):
        wc.weil_kernel(model(), KNum.make(-3, 1, 1))


def test_weil_kernel_is_stable_under_the_field():
    h = model(1, M11)
    x = KNum.make(-1, 1, 1)
    ker = wc.weil_kernel(h, x)
    k = h.dim // 2
    # x = 1 + sqrt(-1) acts as u + v * (matrix of i)
    x_mat = linalg.mat_add(
        linalg.mat_scale(linalg.identity(h.dim), x.u),
        linalg.mat_scale(linalg.frac_mat(h.mat_i), x.v),
    )
    gen_action = wc.exterior_action(x_mat, k)
    moved = ker.apply(gen_action)
    assert ker.contains_space(moved)


def test_conjugate_element_has_same_kernel():
    h = model(1, M11)
    a = wc.weil_kernel(h, KNum.make(-1, 2, 1))
    b = wc.weil_kernel(h, KNum.make(-1, 2, -1))
    assert a.rows == b.rows


# ---------------------------------------------------------------- spans


@pytest.mark.parametrize(
    "n,params,dim_wk,dim_wf",
    [(1, M11, 2, 3), (1, M13, 2, 3), (2, M11, 2, 5), (2, M13, 2, 5)],
)
def test_span_dimensions_frozen(n, params, dim_wk, dim_wf):
    h = model(n, params)
    wk, used = wc.weil_space(h)
    assert wk.dim == dim_wk
    assert used == [KNum.make(-1, 1, 1), KNum.make(-1, 2, 1), KNum.make(-1, 3, 1)]
    wf = wc.quaternion_span(h, wk)
    assert wf.dim == dim_wf
    assert wf.contains_space(wk)


def test_full_span_is_stable_under_generators():
    h = model(1, M11)
    wk, _ = wc.weil_space(h)
    wf = wc.quaternion_span(h, wk)
    k = h.dim // 2
    for mat in (h.mat_i, h.mat_j, h.mat_k):
        moved = wf.apply(wc.exterior_action(linalg.frac_mat(mat), k))
        assert wf.contains_space(moved)


def test_span_dimensions_survive_conjugation():
    h = model(1, M11)
    base = wc.weil_report(1, M11)
    # conjugate the model by 1 + j and recompute both spans
    u = QuatElem.make(M11, 1, 0, 1, 0)
    hc = h.conjugated(h.mat_of(u))
    wk, _ = wc.weil_space(hc)
    wf = wc.quaternion_span(hc, wk)
    assert wk.dim == base["dim_WK"]
    assert wf.dim == base["dim_WF"]


def test_weil_report_shape():
    rep = wc.weil_report(2, M13)
    assert rep == {
        "n": 2,
        "params": [-1, -3],
        "dim_WK": 2,
        "dim_WF": 5,
        "generators_used": ["1+1*sqrt(-1)", "2+1*sqrt(-1)", "3+1*sqrt(-1)"],
    }


def test_subspace_operations():
    amb = 4
    a = wc.SubspaceQ.from_vectors([[1, 0, 0, 0], [0, 1, 0, 0]], amb)
    b = wc.SubspaceQ.from_vectors([[0, 1, 0, 0], [0, 0, 1, 0]], amb)
    assert a.intersect(b).dim == 1
    assert a.union_span(b).dim == 3
    assert a.contains_space(a.intersect(b))


def test_subspace_comparisons_need_one_ambient_space():
    line3 = wc.SubspaceQ.from_vectors([[0, 0, 1]], 3)
    line2 = wc.SubspaceQ.from_vectors([[1, 0]], 2)
    zero2 = wc.SubspaceQ.from_vectors([], 2)
    with pytest.raises(ValueError, match="ambient dimensions 3 and 2 differ"):
        line3.contains_space(line2)
    with pytest.raises(ValueError, match="ambient dimensions 2 and 3 differ"):
        line2.contains_space(line3)
    with pytest.raises(ValueError, match="ambient dimensions 3 and 2 differ"):
        line3.contains_space(zero2)
    with pytest.raises(ValueError, match="ambient dimensions 3 and 2 differ"):
        line3.intersect(line2)
    assert line2.contains_space(zero2)
