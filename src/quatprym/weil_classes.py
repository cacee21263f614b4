"""Weil-class dimension computations on quaternion-module models.

The ambient space is F^n viewed as a 4n-dimensional rational vector
space, with the definite quaternion algebra F = (r, s | Q) acting by
left multiplication in each coordinate.  Inside F sits the imaginary
quadratic field K = Q(sqrt(r)), realized on the model by the matrix of
i.  For a non-rational x in K with trace t and norm m, the polynomial

    f(T) = T^2 + a T + b,   a = -(sigma^{2n} + sigmabar^{2n}),  b = m^{2n}

has rational coefficients (sigma, sigmabar the embeddings of x), and
its kernel on the induced action of x on wedge^{2n}(F^n) is the space
of exterior classes where x acts with eigenvalue sigma^{2n} sigmabar^{2n}
of absolute weight: the Weil kernel W_x.  Intersecting over enough x
gives W_K (dimension 2), and the span of the F-translates of W_K gives
W_F (dimension 2n + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .linalg import (
    F0,
    F1,
    block_diag,
    frac_mat,
    identity,
    intersect_row_spaces,
    inverse,
    mat_mul,
    nullspace,
    perm_sign,
    row_space_basis,
    transpose,
)
from .qalg import AlgebraParams, QuatElem, basis_elems, left_mult_matrix

EXTERIOR_DIM_CAP = 12870  # C(16, 8): ambient dimension at most 16


@dataclass(frozen=True)
class HModel:
    """F^n with the left-multiplication action, as rational matrices."""

    params: AlgebraParams
    n: int
    mat_one: tuple
    mat_i: tuple
    mat_j: tuple
    mat_k: tuple

    @staticmethod
    def make(n: int, params: AlgebraParams) -> "HModel":
        if n < 1:
            raise ValueError("n must be a positive integer")
        basis = basis_elems(params)
        one, qi, qj, qk = basis
        mats = []
        for x in (one, qi, qj, qk):
            block = left_mult_matrix(x, basis)
            mats.append(tuple(map(tuple, block_diag([block] * n))))
        m1, mi, mj, mk = mats
        model = HModel(params=params, n=n, mat_one=m1, mat_i=mi, mat_j=mj, mat_k=mk)
        model._check()
        return model

    @property
    def dim(self) -> int:
        return 4 * self.n

    def _check(self):
        r, s = self.params.r, self.params.s
        mi = [list(row) for row in self.mat_i]
        mj = [list(row) for row in self.mat_j]
        rid = [[Fraction(r) * x for x in row] for row in identity(self.dim)]
        sid = [[Fraction(s) * x for x in row] for row in identity(self.dim)]
        assert mat_mul(mi, mi) == rid, "i-action squares to r"
        assert mat_mul(mj, mj) == sid, "j-action squares to s"
        ij = mat_mul(mi, mj)
        ji = mat_mul(mj, mi)
        assert ij == [[-x for x in row] for row in ji], "i and j anticommute"

    def mat_of(self, x: QuatElem):
        """Matrix of left multiplication by an arbitrary algebra element."""
        assert x.params == self.params
        coeffs = (x.a, x.b, x.c, x.d)
        mats = (self.mat_one, self.mat_i, self.mat_j, self.mat_k)
        d = self.dim
        out = [[F0] * d for _ in range(d)]
        for c, m in zip(coeffs, mats):
            if c == 0:
                continue
            for p in range(d):
                row = m[p]
                op = out[p]
                for q in range(d):
                    if row[q]:
                        op[q] += c * row[q]
        return out

    def conjugated(self, g) -> "HModel":
        """The same algebra action transported by an invertible matrix.

        All dimension outputs must be blind to this change of basis."""
        ginv = inverse([list(row) for row in g])
        def conj(m):
            return tuple(
                map(tuple, mat_mul(mat_mul([list(r) for r in g], [list(r) for r in m]), ginv))
            )
        return HModel(
            params=self.params,
            n=self.n,
            mat_one=conj(self.mat_one),
            mat_i=conj(self.mat_i),
            mat_j=conj(self.mat_j),
            mat_k=conj(self.mat_k),
        )


@dataclass(frozen=True)
class KElement:
    """u + v sqrt(r) in the quadratic subfield, acting via the i-matrix."""

    u: Fraction
    v: Fraction
    r: int

    @staticmethod
    def make(u, v, r) -> "KElement":
        return KElement(u=Fraction(u), v=Fraction(v), r=int(r))

    @property
    def trace(self) -> Fraction:
        return 2 * self.u

    @property
    def norm(self) -> Fraction:
        return self.u * self.u - self.r * self.v * self.v

    def is_rational(self) -> bool:
        return self.v == 0

    def matrix(self, model: HModel):
        if model.params.r != self.r:
            raise ValueError("field element and model disagree on r")
        d = model.dim
        out = [[self.v * model.mat_i[p][q] for q in range(d)] for p in range(d)]
        for p in range(d):
            out[p][p] += self.u
        return out

    def __str__(self):
        return f"{self.u}+{self.v}*sqrt({self.r})"


@dataclass(frozen=True)
class SubspaceQ:
    """Rational subspace, stored as canonical reduced-echelon rows."""

    ambient: int
    rows: tuple

    @staticmethod
    def from_vectors(vecs, ambient) -> "SubspaceQ":
        if not vecs:
            return SubspaceQ(ambient=ambient, rows=())
        basis = row_space_basis(frac_mat(vecs))
        return SubspaceQ(ambient=ambient, rows=tuple(map(tuple, basis)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_space(self, other: "SubspaceQ") -> bool:
        if other.dim == 0:
            return True
        merged = SubspaceQ.from_vectors(list(self.rows) + list(other.rows), self.ambient)
        return merged.dim == self.dim

    def intersect(self, other: "SubspaceQ") -> "SubspaceQ":
        assert self.ambient == other.ambient
        if self.dim == 0 or other.dim == 0:
            return SubspaceQ(ambient=self.ambient, rows=())
        got = intersect_row_spaces([list(r) for r in self.rows], [list(r) for r in other.rows])
        return SubspaceQ.from_vectors(got, self.ambient)

    def union_span(self, other: "SubspaceQ") -> "SubspaceQ":
        return SubspaceQ.from_vectors(list(self.rows) + list(other.rows), self.ambient)

    def apply(self, mat) -> "SubspaceQ":
        """Image of the subspace under a linear map (vectors as columns)."""
        if self.dim == 0:
            return self
        img = mat_mul([list(r) for r in self.rows], transpose(mat))
        return SubspaceQ.from_vectors(img, self.ambient)


def exterior_action(mat, k: int):
    """Matrix of the induced action on wedge^k, lexicographic subset basis.

    Columns are expanded through the nonzero entries of the input, so
    sparse inputs stay cheap."""
    d = len(mat)
    if k < 0 or k > d:
        raise ValueError("exterior power out of range")
    cdim = math.comb(d, k)
    if cdim > EXTERIOR_DIM_CAP:
        raise ValueError(
            f"exterior power dimension {cdim} exceeds the supported cap {EXTERIOR_DIM_CAP}"
        )
    from itertools import combinations

    subsets = list(combinations(range(d), k))
    index = {s: t for t, s in enumerate(subsets)}
    col_support = []
    for q in range(d):
        col_support.append([(p, mat[p][q]) for p in range(d) if mat[p][q]])
    out = [[F0] * cdim for _ in range(cdim)]
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


def annihilator_coefficients(x: KElement, power: int):
    """Coefficients (a, b) of T^2 + aT + b killing the induced action.

    p_m = sigma^m + sigmabar^m satisfies the trace/norm recursion
    p_m = t p_{m-1} - nrm p_{m-2}; then a = -p_{2n} and b = nrm^{2n}."""
    t = x.trace
    nrm = x.norm
    p_prev, p_cur = Fraction(2), t
    for _ in range(power - 1):
        p_prev, p_cur = p_cur, t * p_cur - nrm * p_prev
    p_power = p_cur if power >= 1 else Fraction(2)
    return -p_power, nrm ** power


def weil_kernel(model: HModel, x: KElement) -> SubspaceQ:
    """ker(X^2 + aX + b) on wedge^{2n}, X the induced action of x."""
    if x.is_rational():
        raise ValueError("rational field elements give a degenerate kernel")
    k = 2 * model.n
    a, b = annihilator_coefficients(x, k)
    xm = exterior_action(x.matrix(model), k)
    cdim = len(xm)
    p = mat_mul(xm, xm)
    for row in range(cdim):
        prow = p[row]
        xrow = xm[row]
        for col in range(cdim):
            prow[col] += a * xrow[col]
        prow[row] += b
    vecs = nullspace(p)
    return SubspaceQ.from_vectors(vecs, cdim)


def weil_space(model: HModel, generators=None, ladder_max: int = 20):
    """Intersection of the Weil kernels over the quadratic field.

    Starts from the supplied generators (if any), then walks the ladder
    1 + sqrt(r), 2 + sqrt(r), ... until the dimension is unchanged by
    two consecutive additions.  Returns (subspace, used generators)."""
    r = model.params.r
    used = []
    space = None
    stable = 0
    ladder = (g for g in (KElement.make(u, 1, r) for u in range(1, ladder_max + 1)))
    pending = list(generators or [])
    steps = 0
    while stable < 2:
        if pending:
            x = pending.pop(0)
        else:
            x = next(ladder, None)
            if x is None:
                raise ValueError("kernel intersection did not stabilize within the ladder")
        if x.is_rational():
            raise ValueError("generators must not be rational")
        steps += 1
        if steps > ladder_max + 8:
            raise ValueError("kernel intersection did not stabilize within the ladder")
        ker = weil_kernel(model, x)
        used.append(x)
        if space is None:
            space = ker
            stable = 0
            continue
        nxt = space.intersect(ker)
        stable = stable + 1 if nxt.dim == space.dim else 0
        space = nxt
    if space.dim < 2:
        raise ValueError(f"intersection collapsed to dimension {space.dim}")
    return space, used


# translates used to saturate the span; the first eight suffice in
# every tested model, the rest are the stabilization safety margin
_TRANSLATE_COORDS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 1, 1, 0),
    (0, 1, 0, 1),
    (0, 0, 1, 1),
    (1, 1, 1, 0),
    (1, 1, 0, 1),
    (1, 0, 1, 1),
    (0, 1, 1, 1),
    (1, 1, 1, 1),
    (2, 1, 0, 0),
    (2, 0, 1, 0),
    (1, -1, 0, 0),
    (1, 0, -1, 0),
    (1, 2, 0, 0),
)


def quaternion_span(model: HModel, wk: SubspaceQ, translate_max: int = 20) -> SubspaceQ:
    """Span of the algebra translates of W_K inside wedge^{2n}.

    The induced action is multiplicative, not additive, so translates
    by sums like 1 + i are genuinely new operators; the eight base
    translates are always applied, then the span must hold its
    dimension for two consecutive further additions."""
    k = 2 * model.n
    span = wk
    count = 0
    stable = 0
    for coords in _TRANSLATE_COORDS[:translate_max]:
        y = QuatElem.make(model.params, *coords)
        nxt = span.union_span(wk.apply(exterior_action(model.mat_of(y), k)))
        count += 1
        if count > 8:
            stable = stable + 1 if nxt.dim == span.dim else 0
        span = nxt
        if stable >= 2:
            return span
    raise ValueError(f"translate span did not stabilize within {translate_max} translates")


def weil_report(n: int, params: AlgebraParams, ladder_max: int = 20) -> dict:
    """End-to-end dimensions for one model, as reported by the CLI."""
    if not params.is_definite():
        raise ValueError("the algebra must be definite")
    model = HModel.make(n, params)
    wk, used = weil_space(model, ladder_max=ladder_max)
    wf = quaternion_span(model, wk)
    return {
        "n": n,
        "params": [params.r, params.s],
        "dim_WK": wk.dim,
        "dim_WF": wf.dim,
        "generators_used": [str(x) for x in used],
    }
