"""Weil classes on quaternion-module models, from Lie-algebra derivations.

The ambient space is V = F^n viewed as a 4n-dimensional rational vector
space, with the definite quaternion algebra F = (r, s | Q) acting by
left multiplication in each coordinate; integer r and s give int
matrices.  An element b of F induces a derivation D_b of the exterior
algebra (``linalg.wedge_derivation``): the differential of the group
action of F* on wedge^{2n} V (``exterior_action``), held as the sparse
columns of ``derivation_columns`` with no dense matrix formed.

Over C, V splits into the eigenspaces V_sigma and V_sigmabar of i for
the eigenvalues sqrt(r) and -sqrt(r), each of dimension 2n, and
wedge^{2n} V into the (p, q) summands wedge^p V_sigma (x) wedge^q
V_sigmabar, p + q = 2n.  D_i acts on the (p, q) summand by
(p - q) sqrt(r), so D_i^2 acts by (p - q)^2 r, and

    W_K = ker(D_i^2 - 4 n^2 r)

is exactly the sum of the summands with pq = 0: the Weil classes of
K = Q(sqrt(r)), dimension 2 (van Geemen, *An introduction to the Hodge
conjecture for abelian varieties*, LNM 1594).  It is one rational
nullspace on the C(4n, 2n) monomials, with no choice of field element.

W_F is the span of the translates of W_K by F*.  F* is a connected
algebraic group and F*(Q) is Zariski-dense in it (Borel, *Linear
Algebraic Groups*, 18.3), so a subspace is stable under F*(Q) exactly
when it is stable under F*, and then exactly when it is stable under the
Lie algebra F, spanned by 1 (a scalar on wedge^{2n}) and i, j, k.
Since b -> D_b is a Lie homomorphism and ij - ji = 2k, D_k = [D_i, D_j]
/ 2, so W_F is the smallest subspace that contains W_K and is stable
under D_i and D_j, of dimension 2n + 1.  ``quaternion_span`` images
each pending vector, starting from the rows of W_K, once under D_i and
D_j, and an image outside the span joins it and the pending list.
Every span it builds lies in W_F, and once no vector is pending D_i and
D_j map a basis of the span into it, so the span is W_F: the stopping
rule is exact, and it images 2 dim W_F vectors.  Operator products
(images, D_i^2) are ``linalg.sparse_mul`` of the sparse columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product as iproduct

from .linalg import (
    F0,
    F1,
    block_diag,
    int_echelon,
    mat_mul,
    nullspace,
    perm_sign,
    sparse_mul,
    sparse_rows,
    transpose,
    wedge_derivation,
)
from .qalg import AlgebraParams, basis_elems, left_mult_matrix

EXTERIOR_DIM_CAP = 924  # C(12, 6): weil_kernel's nullspace is dense, 1.66e8 cells at C(16, 8)


@dataclass(frozen=True)
class HModel:
    """F^n with left multiplication by i and j, as rational matrices."""

    params: AlgebraParams
    n: int
    mat_i: tuple
    mat_j: tuple

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


@dataclass(frozen=True)
class SubspaceQ:
    """Rational subspace, stored as the canonical rows of
    ``linalg.int_echelon``: the reduced-echelon rows, each scaled to a
    primitive int row with a positive pivot entry."""

    ambient: int
    rows: tuple

    @staticmethod
    def from_vectors(vecs, ambient) -> "SubspaceQ":
        rows, _ = int_echelon(vecs)
        return SubspaceQ(ambient=ambient, rows=tuple(map(tuple, rows)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def union_span(self, other: "SubspaceQ") -> "SubspaceQ":
        return SubspaceQ.from_vectors(list(self.rows) + list(other.rows), self.ambient)

    def image(self, cols) -> "SubspaceQ":
        """Image under the map with sparse columns ``cols`` (``derivation_columns``):
        the rows times the map's transpose, whose rows are ``cols``."""
        img = sparse_mul(sparse_rows(self.rows), cols, self.ambient)
        return SubspaceQ.from_vectors(img, self.ambient)


def _wedge_basis(d: int, k: int):
    """The k-subsets of range(d) in lexicographic order: the monomial
    basis of wedge^k of a d-dimensional space."""
    if k < 0 or k > d:
        raise ValueError("exterior power out of range")
    cdim = math.comb(d, k)
    if cdim > EXTERIOR_DIM_CAP:
        raise ValueError(
            f"exterior power dimension {cdim} exceeds the supported cap {EXTERIOR_DIM_CAP}"
        )
    return list(combinations(range(d), k))


def exterior_action(mat, k: int):
    """Matrix of the induced group action on wedge^k, lexicographic subset
    basis.

    Columns are expanded through the nonzero entries of the input, so
    sparse inputs stay cheap."""
    d = len(mat)
    subsets = _wedge_basis(d, k)
    index = {s: t for t, s in enumerate(subsets)}
    col_support = []
    for q in range(d):
        col_support.append([(p, mat[p][q]) for p in range(d) if mat[p][q]])
    out = [[F0] * len(subsets) for _ in subsets]
    for srcpos, src in enumerate(subsets):
        for choice in iproduct(*(col_support[q] for q in src)):
            rows = [p for p, _ in choice]
            if len(set(rows)) < k:
                continue
            coef = F1
            for _, c in choice:
                coef *= c
            sign = perm_sign(rows)
            tgt = index[tuple(sorted(rows))]
            out[tgt][srcpos] += sign * coef
    return out


def derivation_columns(mat, k: int):
    """The induced derivation on wedge^k as sparse columns, one per
    k-subset of ``_wedge_basis``: the (row, entry) pairs of its image,
    read off ``wedge_derivation``; an int matrix gives int entries."""
    subsets = _wedge_basis(len(mat), k)
    index = {s: t for t, s in enumerate(subsets)}
    return [[(index[tgt], c) for tgt, c in wedge_derivation(mat, src).items()] for src in subsets]


def weil_kernel(model: HModel) -> SubspaceQ:
    """W_K = ker(D_i^2 - 4 n^2 r) on wedge^{2n}.  The sparse columns of D_i
    are the rows of its transpose T, and T T = (D_i^2)^T, so row t of
    ``sparse_mul(cols, cols)`` is D_i^2 e_t: transposed, it is column t."""
    cols = derivation_columns(model.mat_i, 2 * model.n)
    m = transpose(sparse_mul(cols, cols, len(cols)))
    for t, row in enumerate(m):
        row[t] -= 4 * model.n**2 * model.params.r
    return SubspaceQ.from_vectors(nullspace(m), len(m))


def quaternion_span(model: HModel, wk: SubspaceQ) -> SubspaceQ:
    """W_F: the smallest subspace of wedge^{2n} that contains W_K and is
    stable under D_i and D_j, hence under D_k = [D_i, D_j] / 2.  Each
    pending vector is imaged once under D_i and D_j, and an image that
    grows the span is pending in turn; the span is stable once no vector
    is pending."""
    ders = [derivation_columns(m, 2 * model.n) for m in (model.mat_i, model.mat_j)]
    span, pending = wk, list(wk.rows)
    while pending:
        line = SubspaceQ(wk.ambient, (pending.pop(),))
        for d in ders:
            img = line.image(d)
            grown = span.union_span(img)
            if grown.dim > span.dim:
                span = grown
                pending.extend(img.rows)
    return span


def weil_report(n: int, params: AlgebraParams) -> dict:
    """End-to-end dimensions for one model, as reported by the CLI."""
    if not params.is_definite():
        raise ValueError("the algebra must be definite")
    model = HModel.make(n, params)
    wk = weil_kernel(model)
    wf = quaternion_span(model, wk)
    return {
        "n": n,
        "params": [params.r, params.s],
        "dim_WK": wk.dim,
        "dim_WF": wf.dim,
    }
