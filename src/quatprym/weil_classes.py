"""Weil classes on quaternion-module models, as spans of wedge products.

V = F^n is viewed as a 4n-dimensional rational vector space, with the
definite quaternion algebra F = (r, s | Q) acting by left
multiplication in each coordinate; integer r and s give int matrices.
An element b of F induces a derivation D_b of the exterior algebra
(``linalg.wedge_derivation``): the differential of the group action of
F* on wedge^{2n} V (``exterior_action``).

Over K = Q(sqrt(r)), V splits into the eigenspaces V_sigma and
V_sigmabar of i for sqrt(r) and -sqrt(r), each of dimension 2n, and
wedge^{2n} V into the (p, q) summands wedge^p V_sigma (x) wedge^q
V_sigmabar, p + q = 2n, on which D_i acts by (p - q) sqrt(r).  So
W_K = ker(D_i^2 - 4 n^2 r), the Weil classes of K, is wedge^{2n} V_sigma
plus its conjugate, of dimension 2 (van Geemen, *An introduction to the
Hodge conjecture for abelian varieties*, LNM 1594).  As i^2 = r, the
columns of i + sqrt(r) span V_sigma; a column is kept in the basis
v_1..v_2n when the wedge with those kept (``linalg.wedge_vector``)
stays nonzero.  W_K is spanned by the rational and sqrt(r) parts of
w(0), the wedge of the v_k.

W_F is the span of the translates of W_K by F*.  F*(Q) is Zariski-dense
in the connected group F* (Borel, *Linear Algebraic Groups*, 18.3), so
W_F is the smallest subspace that contains W_K and is stable under the
Lie algebra F, and so under D_i and D_j, as D_k = [D_i, D_j] / 2.  It is
taken as the D_j-Krylov space of W_K: the rows of W_K and their images
under D_j^a, a = 1..2n, eliminated once.  That span lies in W_F, which
contains W_K and is D_j-stable.  It is also the span of the parts of
w(t) = ^_k (v_k + t j v_k), t = 0..2n, the translates of w(0) by 1 + tj
that the tests keep as an oracle: the coefficient of t^m in w(t) is
e_m(j_1, ..., j_2n) w(0), with j_k acting on the k-th factor, which
Newton's identities and j_k^2 = s make a polynomial in
D_j = j_1 + ... + j_2n applied to w(0).  Over a splitting field F* is
GL_2, V is 2n copies of its standard representation, and each
irreducible summand of wedge^{2n} V is some Sym^{2n-2m} (x) det^m, whose
zero weight space, the kernel of D_i there, is a line.

Certificates check all this exactly: D_i^2 = 4 n^2 r on both parts of
w(0); the Krylov space is mapped into itself by D_i and D_j, so it
contains W_F; and it meets ker D_i in a line, so it is irreducible and
no more than W_F.  The second is one elimination of the Krylov space's
rows and their images, which must span no more than the rows, and the
third is the rank of the images under D_i.  Each image is taken by
``wedge_derivation`` on the rows' own support, cached per model
(``HModel.derive_i`` and ``derive_j``), so a monomial is derived once
per matrix, and a failed certificate raises RuntimeError.  A subspace
(``SubspaceQ``) keeps its echelon rows as {monomial: coefficient}, so
neither a matrix on wedge^{2n} nor a row over all C(4n, 2n) monomials is
formed.
"""

from __future__ import annotations

from functools import cache, partial, reduce
from itertools import combinations

from .linalg import (
    F0,
    F1,
    block_diag,
    int_echelon,
    mat_mul,
    wedge_derivation,
    wedge_vector,
)
from .qalg import AlgebraParams, KNum, basis_elems, left_mult_matrix


class HModel:
    """F^n with left multiplication by i and j, as rational matrices.

    ``derive_i`` and ``derive_j`` are their derivations on wedge
    monomials (``wedge_derivation``), cached per model, so each monomial
    is derived once however many certificates image it."""

    __slots__ = ("params", "n", "mat_i", "mat_j", "derive_i", "derive_j")

    def __init__(self, params: AlgebraParams, n: int, mat_i: tuple, mat_j: tuple):
        self.params = params
        self.n = n
        self.mat_i = mat_i
        self.mat_j = mat_j
        self.derive_i = cache(partial(wedge_derivation, mat_i))
        self.derive_j = cache(partial(wedge_derivation, mat_j))

    @staticmethod
    def make(n: int, params: AlgebraParams) -> "HModel":
        if n < 1:
            raise ValueError("n must be a positive integer")
        mi, mj = (tuple(map(tuple, block_diag([left_mult_matrix(x)] * n)))
                  for x in basis_elems(params)[1:3])
        model = HModel(params=params, n=n, mat_i=mi, mat_j=mj)
        model._check()
        return model

    @property
    def dim(self) -> int:
        return 4 * self.n

    def _check(self):
        r, s = self.params.r, self.params.s
        mi, mj = self.mat_i, self.mat_j
        rid = [[r if p == q else 0 for q in range(self.dim)] for p in range(self.dim)]
        sid = [[s if p == q else 0 for q in range(self.dim)] for p in range(self.dim)]
        if mat_mul(mi, mi) != rid:
            raise ValueError("i-action squares to r")
        if mat_mul(mj, mj) != sid:
            raise ValueError("j-action squares to s")
        ij = mat_mul(mi, mj)
        ji = mat_mul(mj, mi)
        if ij != [[-x for x in row] for row in ji]:
            raise ValueError("i and j anticommute")


class SubspaceQ:
    """Rational subspace of a wedge power, stored as the canonical rows of
    ``linalg.int_echelon`` as {monomial: coefficient}: the reduced-echelon
    rows, each scaled to a primitive int row with a positive pivot entry.
    The elimination runs over the sorted union of the vectors' supports.
    Sorted monomials are in ``_wedge_basis`` order, and a column that is
    zero in every vector is never a pivot and stays zero, so the rows are
    those over all C(d, k) monomials with their zero entries left out."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple):
        self.rows = rows

    @staticmethod
    def from_vectors(vecs) -> "SubspaceQ":
        support = sorted({m for vec in vecs for m in vec})
        rows, _ = int_echelon([[vec.get(m, 0) for m in support] for vec in vecs])
        return SubspaceQ(tuple({m: x for m, x in zip(support, row) if x} for row in rows))

    @property
    def dim(self) -> int:
        return len(self.rows)


def _wedge_basis(d: int, k: int):
    """The k-subsets of range(d) in lexicographic order: the monomial
    basis of wedge^k of a d-dimensional space."""
    if k < 0 or k > d:
        raise ValueError("exterior power out of range")
    return list(combinations(range(d), k))


def exterior_action(mat, k: int):
    """Matrix of the induced group action on wedge^k, lexicographic subset
    basis: column S is the wedge of the columns of mat indexed by S."""
    subsets = _wedge_basis(len(mat), k)
    index = {s: t for t, s in enumerate(subsets)}
    cols = list(zip(*mat))
    out = [[F0] * len(subsets) for _ in subsets]
    for src, sub in enumerate(subsets):
        for tgt, c in reduce(wedge_vector, (cols[q] for q in sub), {(): F1}).items():
            out[index[tgt]][src] = c
    return out


def _wedge_parts(model: HModel):
    """The rational and sqrt(r) parts of w(0), the wedge of v_1..v_2n, as
    {monomial: coefficient}; v_1..v_2n are the columns of i + sqrt(r)
    whose wedge with those kept before is nonzero."""
    unit = KNum.make(model.params.r, 1)
    w = {(): unit}
    for q, col in enumerate(zip(*model.mat_i)):
        w = wedge_vector(w, [KNum(unit.r, x, int(p == q)) for p, x in enumerate(col)]) or w
    return [{m: c.u for m, c in w.items() if c.u}, {m: c.v for m, c in w.items() if c.v}]


def _images(derive, vecs):
    """D of each vector {monomial: coefficient}, for ``derive`` the
    derivation D on wedge monomials (``HModel.derive_i`` or ``derive_j``)."""
    out = []
    for vec in vecs:
        img = {}
        for mono, c in vec.items():
            for key, x in derive(mono).items():
                img[key] = img.get(key, 0) + c * x
        out.append({k: x for k, x in img.items() if x})
    return out


def _krylov(derive, vecs, steps: int):
    """The vectors and their images under D^a, a = 1..steps."""
    out = list(vecs)
    for _ in range(steps):
        vecs = _images(derive, vecs)
        out += vecs
    return out


def weil_kernel(model: HModel) -> SubspaceQ:
    """W_K: the span of the parts of w(0), certified to lie in
    ker(D_i^2 - 4 n^2 r)."""
    parts = _wedge_parts(model)
    ev = 4 * model.n**2 * model.params.r
    if _images(model.derive_i, _images(model.derive_i, parts)) != [
            {m: ev * c for m, c in x.items()} for x in parts]:
        raise RuntimeError("D_i^2 is not 4 n^2 r on the wedge of V_sigma")
    return SubspaceQ.from_vectors(parts)


def quaternion_span(model: HModel, wk: SubspaceQ) -> SubspaceQ:
    """W_F: the span of W_K and its images under D_j^a, a = 1..2n,
    certified to be stable under D_i and D_j and to meet ker D_i in a line."""
    wf = SubspaceQ.from_vectors(_krylov(model.derive_j, wk.rows, 2 * model.n))
    by_i = _images(model.derive_i, wf.rows)
    if SubspaceQ.from_vectors([*wf.rows, *by_i, *_images(model.derive_j, wf.rows)]).dim > wf.dim:
        raise RuntimeError("the D_j-Krylov space of W_K is not stable under D_i and D_j")
    if SubspaceQ.from_vectors(by_i).dim != wf.dim - 1:
        raise RuntimeError("ker D_i does not meet the D_j-Krylov space of W_K in a line")
    return wf


def weil_report(n: int, params: AlgebraParams) -> dict:
    """End-to-end dimensions for one model, as reported by the CLI."""
    if not params.is_definite():
        raise ValueError("the algebra must be definite")
    model = HModel.make(n, params)
    wk = weil_kernel(model)
    wf = quaternion_span(model, wk)
    return {
        "n": n,
        "params": [int(x) if x.denominator == 1 else x for x in (params.r, params.s)],
        "dim_WK": wk.dim,
        "dim_WF": wf.dim,
    }
