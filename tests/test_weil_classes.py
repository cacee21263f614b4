"""Exterior actions, wedge derivations, and the two Weil spaces.

The exterior-square oracle below expands 2x2 minors directly from the
definition, independent of the implementation's column recursion.  The
derivation is checked as the differential of the group action and as a
Lie map.  W_K, spanned by the parts of a wedge of eigenvectors, and W_F,
its D_j-Krylov space, are gated against four oracles kept here: the
nullspace of the dense D_i^2 - 4 n^2 r, the closure under D_i, D_j and
D_k by whole rounds, the span of the translates of the wedge by 1 + tj,
t = 0..2n, and the group-action path: the per-element Weil kernels
ker(X^2 + aX + b), intersected along the ladder 1 + sqrt(r),
2 + sqrt(r), ..., and the span of a fixed list of algebra translates.
The translates are spanned as the module spans; the other oracles keep
dense rows over all C(4n, 2n) monomials (``DenseSpace``), and their rows
are compared with the module's sparse rows once the zero entries are
dropped.
The oracle's annihilator coefficients are rechecked against
quadratic-field powers computed with the field arithmetic of the
algebra module.
"""

import math
import random
import re
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations

import pytest

from quatprym import linalg, report
from quatprym import weil_classes as wc
from quatprym.qalg import HAMILTON, AlgebraParams, KNum, QuatElem

M11 = AlgebraParams.make(-1, -1)
M13 = AlgebraParams.make(-1, -3)
M25 = AlgebraParams.make(-2, -5)
M37 = AlgebraParams.make(-3, -7)


def model(n=1, params=M11):
    return wc.HModel.make(n, params)


def wedge_monomials(h):
    """The monomial basis of wedge^{2n} of the model, in lexicographic order."""
    return list(combinations(range(h.dim), 2 * h.n))


class DenseSpace:
    """The oracles' subspace of Q^ambient: the canonical rows of
    ``linalg.int_echelon`` over all ``ambient`` columns, zeros included."""

    def __init__(self, ambient, rows):
        self.ambient = ambient
        self.rows = rows

    @staticmethod
    def from_vectors(vecs, ambient):
        rows, _ = linalg.int_echelon(vecs)
        return DenseSpace(ambient, tuple(map(tuple, rows)))

    @staticmethod
    def of(space, h):
        """The module's subspace ``space`` of wedge^{2n}, as dense rows."""
        basis = wedge_monomials(h)
        return DenseSpace.from_vectors([[row.get(m, 0) for m in basis] for row in space.rows],
                                       len(basis))

    def sparse_rows(self, h):
        """The rows as the module keeps them: {monomial: x} for x != 0."""
        return tuple({m: x for m, x in zip(wedge_monomials(h), row) if x} for row in self.rows)

    @property
    def dim(self):
        return len(self.rows)

    def union_span(self, other):
        same_ambient(self, other)
        return DenseSpace.from_vectors(list(self.rows) + list(other.rows), self.ambient)


def same_ambient(a, b):
    if a.ambient != b.ambient:
        raise ValueError(f"ambient dimensions {a.ambient} and {b.ambient} differ")


def contains_space(a, b) -> bool:
    """Whether the subspace a contains the subspace b."""
    same_ambient(a, b)
    if b.dim == 0:
        return True
    return a.union_span(b).dim == a.dim


def image(space, cols) -> DenseSpace:
    """Image of a subspace under the map with sparse columns ``cols``: its
    rows times the map's transpose, whose rows are ``cols``."""
    img = linalg.sparse_mul(linalg.sparse_rows(space.rows), cols, space.ambient)
    return DenseSpace.from_vectors(img, space.ambient)


def intersect(a, b) -> DenseSpace:
    """The intersection of two subspaces of one ambient space."""
    same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return DenseSpace(a.ambient, ())
    got = linalg.intersect_row_spaces([list(r) for r in a.rows], [list(r) for r in b.rows])
    return DenseSpace.from_vectors(got, a.ambient)


def action_of(h, name):
    """The model's matrix ``name``; "mat_one", left multiplication by 1,
    is the identity, and "mat_k", left multiplication by k = ij, is
    mat_i mat_j."""
    if name == "mat_one":
        return tuple(tuple(int(p == q) for q in range(h.dim)) for p in range(h.dim))
    if name == "mat_k":
        return linalg.mat_mul(h.mat_i, h.mat_j)
    return getattr(h, name)


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def mat_of(h, x: QuatElem):
    """Matrix of left multiplication by an algebra element on the model h."""
    coeffs = (x.a, x.b, x.c, x.d)
    mats = [action_of(h, name) for name in ("mat_one", "mat_i", "mat_j", "mat_k")]
    out = [[linalg.F0] * h.dim for _ in range(h.dim)]
    for c, m in zip(coeffs, mats):
        for p in range(h.dim):
            for q in range(h.dim):
                out[p][q] += c * m[p][q]
    return out


def conjugated(h, g) -> wc.HModel:
    """The same algebra action transported by an invertible matrix g;
    every dimension output must be blind to this change of basis."""
    ginv = linalg.inverse(g)

    def conj(m):
        return tuple(map(tuple, linalg.mat_mul(linalg.mat_mul(g, [list(r) for r in m]), ginv)))

    return wc.HModel(params=h.params, n=h.n, mat_i=conj(h.mat_i), mat_j=conj(h.mat_j))


# ------------------------------------------------ dense derivation oracle


def columns(mat):
    """The (row, entry) pairs of the nonzero entries of each column of mat."""
    return [[(p, x) for p, x in enumerate(col) if x] for col in zip(*mat)]


def derivation_action(mat, k: int):
    """Dense matrix of the induced derivation on wedge^k, lexicographic
    subset basis."""
    subsets = list(combinations(range(len(mat)), k))
    index = {s: t for t, s in enumerate(subsets)}
    out = [[0] * len(subsets) for _ in subsets]
    for srcpos, src in enumerate(subsets):
        for tgt, c in linalg.wedge_derivation(mat, src).items():
            out[index[tgt]][srcpos] = c
    return out


def dense_weil_kernel(h) -> DenseSpace:
    """ker(D_i^2 - 4 n^2 r) from the dense D_i and one matrix product."""
    di = derivation_action(h.mat_i, 2 * h.n)
    m = linalg.mat_mul(di, di)
    for t, row in enumerate(m):
        row[t] -= 4 * h.n**2 * h.params.r
    return DenseSpace.from_vectors(linalg.nullspace(m), len(m))


# ------------------------------------------- the group-action oracle path


def annihilator_coefficients(x: KNum, power: int):
    """Coefficients (a, b) of T^2 + aT + b killing the induced action.

    p_m = sigma^m + sigmabar^m satisfies the trace/norm recursion
    p_m = t p_{m-1} - nrm p_{m-2}; then a = -p_{2n} and b = nrm^{2n}."""
    t = 2 * x.u
    nrm = x.u * x.u - x.r * x.v * x.v
    p_prev, p_cur = Fraction(2), t
    for _ in range(power - 1):
        p_prev, p_cur = p_cur, t * p_cur - nrm * p_prev
    p_power = p_cur if power >= 1 else Fraction(2)
    return -p_power, nrm**power


def oracle_weil_kernel(h, x: KNum) -> DenseSpace:
    """ker(X^2 + aX + b) on wedge^{2n}, X the group action of x = u + v i."""
    if not x.v:
        raise ValueError("rational field elements give a degenerate kernel")
    if x.r != h.params.r:
        raise ValueError("field element and model disagree on r")
    k = 2 * h.n
    a, b = annihilator_coefficients(x, k)
    xm = wc.exterior_action(mat_of(h, QuatElem.make(h.params, x.u, x.v)), k)
    p = linalg.mat_mul(xm, xm)
    for row in range(len(xm)):
        for col in range(len(xm)):
            p[row][col] += a * xm[row][col]
        p[row][row] += b
    return DenseSpace.from_vectors(linalg.nullspace(p), len(xm))


def oracle_weil_space(h, ladder_max=20):
    """Intersection of the Weil kernels along the ladder 1 + sqrt(r),
    2 + sqrt(r), ..., stopped when two consecutive additions leave the
    dimension unchanged.  Returns (subspace, generators used)."""
    r = h.params.r
    used = []
    space = None
    stable = 0
    for u in range(1, ladder_max + 1):
        x = KNum.make(r, u, 1)
        ker = oracle_weil_kernel(h, x)
        used.append(x)
        if space is None:
            space = ker
            continue
        nxt = intersect(space, ker)
        stable = stable + 1 if nxt.dim == space.dim else 0
        space = nxt
        if stable == 2:
            return space, used
    raise ValueError("kernel intersection did not stabilize within the ladder")


# the eight base translates, then twelve more for the stabilization margin
TRANSLATE_COORDS = (
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0),
    (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 0), (1, 1, 0, 1),
    (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1), (2, 1, 0, 0),
    (2, 0, 1, 0), (1, -1, 0, 0), (1, 0, -1, 0), (1, 2, 0, 0),
)


def oracle_quaternion_span(h, wk):
    """Span of the group-action translates of W_K: the eight base
    translates always, then until two further additions hold the
    dimension."""
    k = 2 * h.n
    span = wk
    stable = 0
    for count, coords in enumerate(TRANSLATE_COORDS, start=1):
        y = QuatElem.make(h.params, *coords)
        nxt = span.union_span(image(wk, columns(wc.exterior_action(mat_of(h, y), k))))
        if count > 8:
            stable = stable + 1 if nxt.dim == span.dim else 0
        span = nxt
        if stable >= 2:
            return span
    raise ValueError("translate span did not stabilize")


def round_quaternion_span(h, wk):
    """W_F by whole rounds: each round adds the images of the current
    span under D_i, D_j and D_k, until a round adds no dimension."""
    ders = [columns(derivation_action(action_of(h, name), 2 * h.n))
            for name in ("mat_i", "mat_j", "mat_k")]
    span = wk
    while True:
        grown = span
        for d in ders:
            grown = grown.union_span(image(span, d))
        if grown.dim == span.dim:
            return span
        span = grown


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
    doubled = mat_scale(ident, Fraction(2))
    assert wc.exterior_action(doubled, 3) == mat_scale(linalg.identity(4), Fraction(8))


def test_exterior_size_guard():
    for k in (-1, 5):
        with pytest.raises(ValueError, match="exterior power out of range"):
            wc.exterior_action(linalg.identity(4), k)


# ---------------------------------------------------- wedge derivations


def commutator(a, b):
    return mat_add(linalg.mat_mul(a, b), mat_scale(linalg.mat_mul(b, a), -1))


def lagrange_slope_weights(k):
    """w_t with P'(0) = sum of w_t P(t) over t = 0..k, for every
    polynomial P of degree at most k."""
    weights = [-sum(Fraction(1, m) for m in range(1, k + 1))]
    for t in range(1, k + 1):
        w = Fraction(1, t)
        for m in range(1, k + 1):
            if m != t:
                w *= Fraction(-m, t - m)
        weights.append(w)
    return weights


def zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def test_derivation_is_the_differential_of_the_group_action():
    # t -> wedge^k(1 + tA) is a polynomial of degree k in t, and its
    # derivative at 0 is the derivation of A
    rng = random.Random(6)
    for d, k in ((4, 2), (5, 2), (5, 3)):
        a = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        slope = zeros(math.comb(d, k), math.comb(d, k))
        for t, w in enumerate(lagrange_slope_weights(k)):
            one_plus_ta = [[int(p == q) + t * a[p][q] for q in range(d)] for p in range(d)]
            term = mat_scale(wc.exterior_action(one_plus_ta, k), w)
            slope = mat_add(slope, term)
        assert slope == derivation_action(a, k)


def test_wedge_derivation_is_a_lie_map():
    h = model(2, M13)
    mi, mj, mk = (action_of(h, name) for name in ("mat_i", "mat_j", "mat_k"))
    for k in (2, 4):
        di, dj, dk = (derivation_action(m, k) for m in (mi, mj, mk))
        for (x, dx), (y, dy) in (((mi, di), (mj, dj)), ((mj, dj), (mk, dk)),
                                 ((mk, dk), (mi, di))):
            assert commutator(dx, dy) == derivation_action(commutator(x, y), k)
    rng = random.Random(7)
    for k in (2, 3):
        a = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)]
        b = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)]
        lhs = commutator(derivation_action(a, k), derivation_action(b, k))
        assert lhs == derivation_action(commutator(a, b), k)


def test_wedge_derivation_keeps_the_entry_type():
    h = model(1, M13)
    ints = linalg.wedge_derivation(h.mat_j, (0, 1))
    assert ints and all(type(c) is int for c in ints.values())
    fracs = linalg.wedge_derivation(linalg.frac_mat(h.mat_j), (0, 1))
    assert fracs == ints and all(type(c) is Fraction for c in fracs.values())


def sort_sign(seq):
    """Sign of the permutation that sorts ``seq`` (distinct items), from
    the number of inversions."""
    return (-1) ** sum(a > b for t, a in enumerate(seq) for b in seq[t + 1 :])


def sorted_derivation(mat, mono):
    """The derivation as ``wedge_derivation`` computed it before the sign
    was read in closed form: each rebuilt monomial sorted, its sign from
    ``sort_sign``.  Also returns how many terms each monomial received."""
    present = set(mono)
    out, terms = {}, {}
    for pos, b in enumerate(mono):
        for p, row in enumerate(mat):
            coef = row[b]
            if not coef or (p != b and p in present):
                continue
            rest = mono[:pos] + (p,) + mono[pos + 1 :]
            key = tuple(sorted(rest))
            term = coef if sort_sign(rest) > 0 else -coef
            out[key] = out[key] + term if key in out else term
            terms[key] = terms.get(key, 0) + 1
    return {k: v for k, v in out.items() if v}, terms


def test_wedge_derivation_matches_the_sorting_oracle():
    rng = random.Random(25)
    entries = {
        "int": lambda: rng.choice((0, 0, 1, -1, 2, -3)),
        "Fraction": lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        "KNum": lambda: KNum.make(-3, rng.randint(-2, 2), rng.choice((0, 0, 1, Fraction(-1, 2)))),
    }
    for kind, entry in entries.items():
        repeated = diagonal = 0
        for d in (1, 3, 5, 6):
            mat = [[entry() for _ in range(d)] for _ in range(d)]
            for k in range(d + 1):
                for mono in combinations(range(d), k):
                    want, terms = sorted_derivation(mat, mono)
                    assert linalg.wedge_derivation(mat, mono) == want, (kind, mono)
                    repeated += any(n > 1 for n in terms.values())
                    diagonal += any(mat[b][b] for b in mono)
        # monomials hit by several terms, and factors replaced by themselves
        assert repeated > 20 and diagonal > 20, kind


def test_wedge_vector_matches_the_sorting_oracle():
    rng = random.Random(31)
    entries = {
        "int": lambda: rng.choice((0, 1, -1, 2, -3)),
        "Fraction": lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        "KNum": lambda: KNum.make(-3, rng.randint(-2, 2), rng.choice((0, 1, Fraction(-1, 2)))),
    }
    for kind, entry in entries.items():
        for d in (3, 5, 6):
            for k in range(d):
                monos = list(combinations(range(d), k))
                w = {m: entry() for m in rng.sample(monos, min(4, len(monos)))}
                w = {m: c for m, c in w.items() if c}
                v = [entry() for _ in range(d)]
                want = {}
                for mono, c in w.items():
                    for p, x in enumerate(v):
                        if x and p not in mono:
                            key = tuple(sorted(mono + (p,)))
                            term = c * x if sort_sign(mono + (p,)) > 0 else -(c * x)
                            want[key] = want[key] + term if key in want else term
                want = {m: c for m, c in want.items() if c}
                assert linalg.wedge_vector(w, v) == want, (kind, w, v)


def test_wedge_vector_vanishes_exactly_on_dependent_vectors():
    vecs = [[1, 2, 0, -1], [0, 1, 3, 1], [2, 0, 1, 0]]
    w = {(): 1}
    for v in vecs:
        w = linalg.wedge_vector(w, v)
    assert w
    combo = [3 * a - b + 2 * c for a, b, c in zip(*vecs)]
    assert linalg.wedge_vector(w, combo) == {}
    assert linalg.wedge_vector(w, [0, 0, 0, 1]) != {}


REGISTRY_MODELS = [(1, M11), (1, M13), (2, M11), (2, M13)]


def derivation_columns(mat, k):
    """The columns of the derivation on wedge^k as the module takes them:
    ``wc._images`` of each basis monomial, as (row, entry) pairs."""
    subsets = list(combinations(range(len(mat)), k))
    index = {s: t for t, s in enumerate(subsets)}
    images = wc._images(partial(linalg.wedge_derivation, mat), [{src: 1} for src in subsets])
    return [sorted((index[m], c) for m, c in img.items()) for img in images]


@pytest.mark.parametrize("n,params", REGISTRY_MODELS)
def test_derivation_columns_are_the_columns_of_the_dense_derivation(n, params):
    h = model(n, params)
    for name in ("mat_i", "mat_j", "mat_k"):
        mat = action_of(h, name)
        got = derivation_columns(mat, 2 * n)
        assert got == columns(derivation_action(mat, 2 * n))
        assert all(type(c) is int for col in got for _, c in col)


def test_derivation_columns_match_the_dense_derivation_on_a_seeded_matrix():
    rng = random.Random(28)
    a = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(6)] for _ in range(6)]
    for k in range(7):
        assert derivation_columns(a, k) == columns(derivation_action(a, k)), k
    # a sum of monomials is imaged as the sum of their columns
    dense = derivation_action(a, 3)
    subsets = list(combinations(range(6), 3))
    vec = {subsets[t]: c for t, c in ((0, 2), (7, -1), (19, 3))}
    want = {m: x for m, x in zip(subsets, linalg.mat_vec(dense, [vec.get(m, 0) for m in subsets])) if x}
    assert wc._images(partial(linalg.wedge_derivation, a), [vec]) == [want]


@pytest.mark.parametrize("n,params", REGISTRY_MODELS + [(2, M25), (3, M13)])
def test_weil_kernel_equals_the_dense_nullspace(n, params):
    h = model(n, params)
    assert wc.weil_kernel(h).rows == dense_weil_kernel(h).sparse_rows(h)


def test_weil_kernel_equals_the_dense_nullspace_on_a_conjugated_model():
    h = model(1, M13)
    hc = conjugated(h, mat_of(h, QuatElem.make(M13, 1, 0, 1, 0)))
    assert wc.weil_kernel(hc).rows == dense_weil_kernel(hc).sparse_rows(hc)


# ------------------------------------------------------------ the model


@pytest.mark.parametrize("n,params", [(1, M11), (1, M13), (2, M11), (2, M13)])
def test_model_satisfies_quaternion_relations(n, params):
    h = model(n, params)
    assert h.dim == 4 * n
    r, s = params.r, params.s
    mi = linalg.frac_mat(h.mat_i)
    mj = linalg.frac_mat(h.mat_j)
    assert linalg.mat_mul(mi, mi) == mat_scale(linalg.identity(h.dim), r)
    assert linalg.mat_mul(mj, mj) == mat_scale(linalg.identity(h.dim), s)
    anti = mat_add(linalg.mat_mul(mi, mj), linalg.mat_mul(mj, mi))
    assert all(x == 0 for row in anti for x in row)
    assert all(type(x) is int for name in ("mat_i", "mat_j", "mat_k")
               for row in action_of(h, name) for x in row)


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
    fields = {"params": good.params, "n": good.n, "mat_i": good.mat_i, "mat_j": good.mat_j}
    bad = wc.HModel(**{**fields, field: action_of(good, replacement)})
    with pytest.raises(ValueError, match=message):
        bad._check()


# ---------------------------------------------- the oracle's annihilators


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
    got = annihilator_coefficients(x, 2 * n)
    assert got == expected
    assert got == knum_annihilator_oracle(x, 2 * n)


# ------------------------------------------------------------- kernels


def test_weil_kernel_dims_frozen():
    h1 = model(1, M11)
    assert oracle_weil_kernel(h1, KNum.make(-1, 0, 1)).dim == 2
    assert oracle_weil_kernel(h1, KNum.make(-1, 1, 1)).dim == 2
    h2 = model(2, M11)
    assert oracle_weil_kernel(h2, KNum.make(-1, 1, 1)).dim == 2
    assert wc.weil_kernel(h1).dim == 2
    assert wc.weil_kernel(h2).dim == 2


def test_weil_kernel_rejects_rational_elements():
    with pytest.raises(ValueError, match="degenerate kernel"):
        oracle_weil_kernel(model(), KNum.make(-1, 3, 0))


def test_weil_kernel_rejects_an_element_of_another_field():
    with pytest.raises(ValueError, match="disagree on r"):
        oracle_weil_kernel(model(), KNum.make(-3, 1, 1))


def test_weil_kernel_is_stable_under_the_field():
    h = model(1, M11)
    x = KNum.make(-1, 1, 1)
    k = h.dim // 2
    # x = 1 + sqrt(-1) acts as u + v * (matrix of i)
    x_mat = mat_add(
        mat_scale(linalg.identity(h.dim), x.u),
        mat_scale(linalg.frac_mat(h.mat_i), x.v),
    )
    gen_action = wc.exterior_action(x_mat, k)
    for ker in (oracle_weil_kernel(h, x), DenseSpace.of(wc.weil_kernel(h), h)):
        assert contains_space(ker, image(ker, columns(gen_action)))


def test_conjugate_element_has_same_kernel():
    h = model(1, M11)
    a = oracle_weil_kernel(h, KNum.make(-1, 2, 1))
    b = oracle_weil_kernel(h, KNum.make(-1, 2, -1))
    assert a.rows == b.rows


# ------------------------------------------- derivations against the oracle


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("params", [M11, M13, M25, M37])
def test_derivation_spaces_equal_the_oracle(n, params):
    h = model(n, params)
    oracle_wk, _ = oracle_weil_space(h)
    wk = wc.weil_kernel(h)
    assert wk.rows == oracle_wk.sparse_rows(h)
    assert wc.quaternion_span(h, wk).rows == oracle_quaternion_span(h, oracle_wk).sparse_rows(h)


def test_derivation_spaces_equal_the_oracle_on_a_conjugated_model():
    h = model(2, M13)
    # conjugate by 1 + j: the model's matrices become Fractions
    hc = conjugated(h, mat_of(h, QuatElem.make(M13, 1, 0, 1, 0)))
    assert any(type(x) is Fraction for row in hc.mat_i for x in row)
    oracle_wk, _ = oracle_weil_space(hc)
    wk = wc.weil_kernel(hc)
    assert wk.rows == oracle_wk.sparse_rows(hc)
    assert wc.quaternion_span(hc, wk).rows == oracle_quaternion_span(hc, oracle_wk).sparse_rows(hc)
    assert wk.rows != wc.weil_kernel(h).rows


# ---------------------------------------------------------------- spans


@pytest.mark.parametrize(
    "n,params,dim_wk,dim_wf",
    [(1, M11, 2, 3), (1, M13, 2, 3), (2, M11, 2, 5), (2, M13, 2, 5)],
)
def test_span_dimensions_frozen(n, params, dim_wk, dim_wf):
    h = model(n, params)
    wk = wc.weil_kernel(h)
    assert wk.dim == dim_wk
    wf = wc.quaternion_span(h, wk)
    assert wf.dim == dim_wf
    assert contains_space(DenseSpace.of(wf, h), DenseSpace.of(wk, h))


@pytest.mark.parametrize("n,params", REGISTRY_MODELS)
def test_the_bracket_of_d_i_and_d_j_is_twice_d_k(n, params):
    # on the transposes, whose rows are the sparse columns:
    # [D_i, D_j]^T = D_j^T D_i^T - D_i^T D_j^T
    h = model(n, params)
    di, dj = (columns(derivation_action(action_of(h, name), 2 * n)) for name in ("mat_i", "mat_j"))
    ji, ij = linalg.sparse_mul(dj, di, len(di)), linalg.sparse_mul(di, dj, len(di))
    bracket = [[x - y for x, y in zip(r, q)] for r, q in zip(ji, ij)]
    dk = derivation_action(action_of(h, "mat_k"), 2 * n)
    assert bracket == mat_scale(linalg.transpose(dk), 2)
    assert any(map(any, bracket))


@pytest.mark.parametrize(
    "n,params,conjugate",
    [(n, p, False) for n, p in REGISTRY_MODELS] + [(2, M25, False), (2, M13, True), (3, M13, False)],
)
def test_pending_list_span_equals_the_round_closure(n, params, conjugate):
    h = model(n, params)
    if conjugate:
        h = conjugated(h, mat_of(h, QuatElem.make(params, 1, 0, 1, 0)))
    wk = wc.weil_kernel(h)
    assert wc.quaternion_span(h, wk).rows == round_quaternion_span(h, DenseSpace.of(wk, h)).sparse_rows(h)


def planted(real, x):
    """``real`` with 1 ^ x in each copy of F added to the last vector it
    returns."""
    def corrupted(*args):
        vecs = real(*args)
        n = len(next(iter(vecs[-1]))) // 2
        vecs[-1] = {**vecs[-1], tuple(p for b in range(n) for p in (4 * b, 4 * b + x)): 1}
        return vecs
    return corrupted


# the corrupting monomial takes 1 ^ x in each copy of F; D_x kills it, so for
# x = i only the D_i^2 and D_j certificates can reject a bad w(0), and for
# x = j only the D_i one.  Planted into the last row of the D_j-Krylov space,
# it leaves at n = 1 a span that D_i and D_j keep (the complement of W_F in
# wedge^2 V is killed by both), which only the kernel of D_i rejects
@pytest.mark.parametrize("corrupt,x,message", [
    (lambda name: name == "_wedge_parts", 1, "D_i\\^2 is not 4 n\\^2 r"),
    (lambda name: name == "_krylov", 1, "not stable under D_i and D_j"),
    (lambda name: name == "_krylov", 2, "not stable under D_i and D_j"),
])
def test_a_corrupted_wedge_fails_its_certificate(corrupt, x, message, monkeypatch):
    for name in ("_wedge_parts", "_krylov"):
        if corrupt(name):
            monkeypatch.setattr(wc, name, planted(getattr(wc, name), x))
    h = model(2, M13)
    with pytest.raises(RuntimeError, match=message):
        wc.quaternion_span(h, wc.weil_kernel(h))
    records = report.run_suite("weil")
    # every row fails by a raise of its own model's certificate, and none
    # reports a dimension; the n = 2 rows name the error seen above
    assert len(records) == 4
    assert all(r.status == report.FAIL for r in records)
    assert all(r.computed.startswith("raised RuntimeError: ") for r in records)
    n2 = [r.computed for r in records if r.claim_id.startswith("weil.dims_n2_")]
    assert len(n2) == 2
    assert all(re.match(f"raised RuntimeError: .*{message}", c) for c in n2)


def test_quaternion_span_rejects_a_kernel_it_does_not_contain():
    h = model(2, M13)
    with pytest.raises(RuntimeError, match="not stable under D_i and D_j"):
        wc.quaternion_span(h, wc.weil_kernel(model(2, M25)))


# ----------------------------------------- the translate construction of W_F


def translate_parts(h, t):
    """The rational and sqrt(r) parts of w(t) = ^_k (1 + t j) v_k, for
    v_1..v_2n the columns of i + sqrt(r) whose wedge with those kept before
    is nonzero: the translate of w(0) by 1 + tj, built over K."""
    r = h.params.r

    def over_k(mat, a, u, v):
        """a * mat + (u + v sqrt(r)) * 1 as a matrix over K."""
        return [[KNum.make(r, a * x + u * (p == q), v * (p == q)) for q, x in enumerate(row)]
                for p, row in enumerate(mat)]

    one = {(): KNum.make(r, 1)}
    w, basis = one, []
    for col in zip(*over_k(h.mat_i, 1, 0, 1)):
        grown = linalg.wedge_vector(w, col)
        if grown:
            w, basis = grown, basis + [col]
    one_tj = over_k(h.mat_j, t, 1, 0)
    wt = reduce(linalg.wedge_vector, (linalg.mat_vec(one_tj, v) for v in basis), one)
    return [{m: c.u for m, c in wt.items() if c.u}, {m: c.v for m, c in wt.items() if c.v}]


def translate_span(h):
    """W_F as the span of the parts of w(0), ..., w(2n): w(t) is a
    polynomial of degree 2n in t, so by Vandermonde these span the parts of
    its coefficients, each a polynomial in D_j applied to w(0)."""
    return wc.SubspaceQ.from_vectors(
        [part for t in range(2 * h.n + 1) for part in translate_parts(h, t)])


@pytest.mark.parametrize("n,params,conjugate", [
    *((n, p, False) for n in (1, 2, 3) for p in (M11, M13, M25, M37)),
    (2, M13, True), (3, M13, True), (4, M11, False)])
def test_krylov_span_equals_the_span_of_the_translates(n, params, conjugate):
    h = model(n, params)
    if conjugate:
        h = conjugated(h, mat_of(h, QuatElem.make(params, 1, 0, 1, 0)))
    assert wc._wedge_parts(h) == translate_parts(h, 0)
    wf = wc.quaternion_span(h, wc.weil_kernel(h))
    assert wf.dim == 2 * n + 1
    assert wf.rows == translate_span(h).rows


@pytest.mark.parametrize("n,params,dims", [
    (3, M11, (2, 7)), (3, M25, (2, 7)), (4, HAMILTON, (2, 9)), (4, M13, (2, 9))])
def test_weil_dimensions_at_n_3_and_4(n, params, dims):
    rep = wc.weil_report(n, params)
    assert (rep["dim_WK"], rep["dim_WF"]) == dims


@pytest.mark.parametrize("n,params,calls", [(2, HAMILTON, 72), (2, M13, 72), (4, HAMILTON, 2592)])
def test_weil_report_derives_each_monomial_once_per_matrix(n, params, calls, monkeypatch):
    """The model keeps one derivation cache per matrix, shared by
    ``weil_kernel``'s two images and ``quaternion_span``'s: no (matrix,
    monomial) pair is derived twice (a cache per image made 104 calls at
    n = 2 and 3,104 at n = 4)."""
    real, derived = linalg.wedge_derivation, []

    def counting(mat, mono):
        derived.append((mat, mono))
        return real(mat, mono)

    monkeypatch.setattr(wc, "wedge_derivation", counting)
    wc.weil_report(n, params)
    assert len(derived) == len(set(derived)) == calls


def test_full_span_is_stable_under_generators():
    h = model(1, M11)
    wf = DenseSpace.of(wc.quaternion_span(h, wc.weil_kernel(h)), h)
    k = h.dim // 2
    for name in ("mat_i", "mat_j", "mat_k"):
        moved = image(wf, columns(wc.exterior_action(linalg.frac_mat(action_of(h, name)), k)))
        assert contains_space(wf, moved)


def test_span_dimensions_survive_conjugation():
    h = model(1, M11)
    base = wc.weil_report(1, M11)
    # conjugate the model by 1 + j and recompute both spans
    u = QuatElem.make(M11, 1, 0, 1, 0)
    hc = conjugated(h, mat_of(h, u))
    wk = wc.weil_kernel(hc)
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
    }


def test_sparse_rows_are_the_dense_echelon_rows_without_zeros():
    rng = random.Random(34)
    monos = list(combinations(range(8), 4))

    def coef():
        return rng.choice((1, -1, 2, -3, 6, Fraction(1, 2), Fraction(-2, 3)))

    def vec(size):
        return {m: coef() for m in rng.sample(monos, size)}

    cases = [[]]
    for count in (1, 2, 4, 7):
        cases.append([vec(rng.randint(1, 6)) for _ in range(count)])
    a, b = vec(5), vec(4)
    combo = {m: a.get(m, 0) - 2 * b.get(m, 0) for m in {*a, *b}}
    cases += [[a, {}, b], [a, b, a], [a, b, combo], [{monos[3]: 0}, a], [{}], [vec(70), a]]
    for vecs in cases:
        dense, _ = linalg.int_echelon([[v.get(m, 0) for m in monos] for v in vecs])
        want = tuple({m: x for m, x in zip(monos, row) if x} for row in dense)
        got = wc.SubspaceQ.from_vectors(vecs).rows
        assert got == want, vecs
        assert all(type(x) is int for row in got for x in row.values())
    assert wc.SubspaceQ.from_vectors([a, b, a]).dim == wc.SubspaceQ.from_vectors([a, b, combo]).dim == 2


def test_subspace_operations():
    amb = 4
    a = DenseSpace.from_vectors([[1, 0, 0, 0], [0, 1, 0, 0]], amb)
    b = DenseSpace.from_vectors([[0, 1, 0, 0], [0, 0, 1, 0]], amb)
    assert intersect(a, b).dim == 1
    assert a.union_span(b).dim == 3
    assert contains_space(a, intersect(a, b))


def test_subspace_comparisons_need_one_ambient_space():
    line3 = DenseSpace.from_vectors([[0, 0, 1]], 3)
    line2 = DenseSpace.from_vectors([[1, 0]], 2)
    zero2 = DenseSpace.from_vectors([], 2)
    with pytest.raises(ValueError, match="ambient dimensions 3 and 2 differ"):
        contains_space(line3, line2)
    with pytest.raises(ValueError, match="ambient dimensions 2 and 3 differ"):
        contains_space(line2, line3)
    with pytest.raises(ValueError, match="ambient dimensions 3 and 2 differ"):
        contains_space(line3, zero2)
    with pytest.raises(ValueError, match="ambient dimensions 3 and 2 differ"):
        intersect(line3, line2)
    assert contains_space(line2, zero2)
