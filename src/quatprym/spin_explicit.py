"""Explicit 8x8 matrix model of the spin representation of so(7).

The orthogonal space is C^7 with quadratic form x7^2 + x1 x4 + x2 x5 +
x3 x6, so e1..e3 and e4..e6 span dual isotropic subspaces R and R'.
The spinor space is S = wedge^*(R), dimension 8, and so(7) is
identified with wedge^2 C^7 acting by (a^b) v = 2B(b,v) a - 2B(a,v) b.

The generator actions on S are assembled from three ingredients: wedge
by e_i, contraction against e_{3+i}, and the parity involution.  The
scalar normalizations are not guessed: candidate assignments are
searched and accepted only if (1) the sample action (e_i ^ e7) e_I =
(-1)^{#I} e_i ^ e_I holds verbatim and (2) the full bracket
compatibility [rho(X), rho(Y)] = rho([X, Y]) holds for all 210 pairs of
basis elements of wedge^2 C^7.  Construction fails loudly otherwise.

On top of the model sits the degree-4 computation: the weight-0
subspace of wedge^4 S is 8-dimensional, the joint kernel of the three
operators rho(e_i ^ e7) on it is one line, that line is annihilated by
the whole algebra, and its coefficient on the single monomial from
wedge^4(even part) is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from . import lie_engine
from .linalg import (
    frac_mat,
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    nullspace,
    perm_sign,
)

F0 = Fraction(0)
F1 = Fraction(1)
FH = Fraction(1, 2)

# spinor basis: subsets of {1,2,3}, fixed order
SUBSETS = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))
_SUBSET_INDEX = {s: t for t, s in enumerate(SUBSETS)}

# bilinear form B with Q(v) = v.B.v
BFORM = [[F0] * 7 for _ in range(7)]
for _i in range(3):
    BFORM[_i][_i + 3] = FH
    BFORM[_i + 3][_i] = FH
BFORM[6][6] = F1


def _partner(p):
    if p < 3:
        return p + 3
    if p < 6:
        return p - 3
    return 6


def _zero8():
    return [[F0] * 8 for _ in range(8)]


def _wedge_op(i):
    """Wedge by e_{i+1} (i in 0..2) on the spinor basis."""
    m = _zero8()
    g = i + 1
    for s, sub in enumerate(SUBSETS):
        if g in sub:
            continue
        sign = (-1) ** sum(1 for x in sub if x < g)
        t = _SUBSET_INDEX[tuple(sorted(sub + (g,)))]
        m[t][s] = Fraction(sign)
    return m


def _contract_op(i):
    """Contraction pairing e_{4+i} against e_{i+1} (i in 0..2)."""
    m = _zero8()
    g = i + 1
    for s, sub in enumerate(SUBSETS):
        if g not in sub:
            continue
        sign = (-1) ** sum(1 for x in sub if x < g)
        t = _SUBSET_INDEX[tuple(x for x in sub if x != g)]
        m[t][s] = Fraction(sign)
    return m


def _parity_op():
    m = _zero8()
    for s, sub in enumerate(SUBSETS):
        m[s][s] = Fraction((-1) ** len(sub))
    return m


SO7_PAIRS = tuple((a, b) for a in range(7) for b in range(a + 1, 7))


def so7_action_matrix(a, b):
    """The 7x7 matrix of e_a ^ e_b acting by v -> 2B(b,v)a - 2B(a,v)b."""
    m = [[F0] * 7 for _ in range(7)]
    for q in range(7):
        cb = 2 * BFORM[b][q]
        ca = 2 * BFORM[a][q]
        if cb:
            m[a][q] += cb
        if ca:
            m[b][q] -= ca
    return m


def matrix_to_pair_coeffs(m):
    """Inverse of so7_action_matrix on its image: coefficients c_{ab}
    with m = sum c_{ab} so7_action_matrix(a,b); asserts membership."""
    coeffs = {}
    for a, b in SO7_PAIRS:
        pb = _partner(b)
        scale = 2 * BFORM[b][pb]
        coeffs[(a, b)] = m[a][pb] / scale
    recon = [[F0] * 7 for _ in range(7)]
    for (a, b), c in coeffs.items():
        if c:
            act = so7_action_matrix(a, b)
            for p in range(7):
                for q in range(7):
                    recon[p][q] += c * act[p][q]
    assert recon == m, "matrix is outside the span of the basis actions"
    return coeffs


class SpinConstructionError(RuntimeError):
    pass


@dataclass
class SpinRep:
    rho: dict  # (a,b) -> 8x8 matrix
    scalars: tuple

    def weight_of_spinor(self, s) -> tuple:
        """Cartan weight of the s-th spinor basis vector."""
        return tuple(
            self.rho[(i, i + 3)][s][s] for i in range(3)
        )


def _assemble(s1, s2, s3, s4, c):
    w = [_wedge_op(i) for i in range(3)]
    d = [_contract_op(i) for i in range(3)]
    p = _parity_op()
    eye = identity(8)
    rho = {}
    for a, b in SO7_PAIRS:
        if b < 3:
            rho[(a, b)] = mat_scale(mat_mul(w[a], w[b]), s1)
        elif a < 3 and b < 6:
            m = mat_scale(mat_mul(w[a], d[b - 3]), s3)
            if a == b - 3:
                m = mat_add(m, mat_scale(eye, c))
            rho[(a, b)] = m
        elif a < 3:
            rho[(a, b)] = mat_mul(w[a], p)
        elif b < 6:
            rho[(a, b)] = mat_scale(mat_mul(d[a - 3], d[b - 3]), s2)
        else:
            rho[(a, b)] = mat_scale(mat_mul(d[a - 3], p), s4)
    return rho


def _formula_holds(rho):
    """(e_i ^ e7) e_I = (-1)^{#I} e_i ^ e_I, read as matrices."""
    for i in range(3):
        m = rho[(i, 6)]
        for s, sub in enumerate(SUBSETS):
            expect = [F0] * 8
            g = i + 1
            if g not in sub:
                sign = (-1) ** len(sub) * (-1) ** sum(1 for x in sub if x < g)
                expect[_SUBSET_INDEX[tuple(sorted(sub + (g,)))]] = Fraction(sign)
            if [m[t][s] for t in range(8)] != expect:
                return False
    return True


# the 210 unordered pairs of basis elements whose brackets are checked
BRACKET_PAIRS = tuple(combinations(SO7_PAIRS, 2))


def bracket_holds(rho, x, y) -> bool:
    """[rho(x), rho(y)] = rho([x, y]) for two basis elements x, y of
    wedge^2 C^7, given as index pairs."""
    lhs = mat_sub(mat_mul(rho[x], rho[y]), mat_mul(rho[y], rho[x]))
    mx = so7_action_matrix(*x)
    my = so7_action_matrix(*y)
    comm = mat_sub(mat_mul(mx, my), mat_mul(my, mx))
    rhs = _zero8()
    for pair, c in matrix_to_pair_coeffs(comm).items():
        if c:
            rhs = mat_add(rhs, mat_scale(rho[pair], c))
    return lhs == rhs


def build_spin_rep() -> SpinRep:
    """Fix the scalar normalizations by the two acceptance constraints
    and return the verified representation."""
    candidates = [(F1, F1, F1, F1, -FH)]
    for s1, s2, s3, s4, c in product((F1, -F1), (F1, -F1), (F1, -F1), (F1, -F1), (-FH, FH, F0)):
        if (s1, s2, s3, s4, c) != candidates[0]:
            candidates.append((s1, s2, s3, s4, c))
    for cand in candidates:
        rho = _assemble(*cand)
        if _formula_holds(rho) and all(bracket_holds(rho, x, y) for x, y in BRACKET_PAIRS):
            return SpinRep(rho=rho, scalars=cand)
    raise SpinConstructionError(
        "no scalar assignment satisfies the sample formula and all brackets"
    )


# ---------------------------------------------------------------------------
# the degree-4 computation

MONOMIALS = tuple(combinations(range(8), 4))
_MONO_INDEX = {m: t for t, m in enumerate(MONOMIALS)}


def _derive_wedge(mat, mono):
    """Derivation action of an 8x8 matrix on a wedge monomial (sorted
    tuple of distinct spinor indices).  Returns {monomial: coefficient}."""
    out = {}
    for pos, b in enumerate(mono):
        for p in range(8):
            coef = mat[p][b]
            if not coef:
                continue
            if p in mono and p != b:
                continue
            rest = mono[:pos] + (p,) + mono[pos + 1 :]
            srt = tuple(sorted(rest))
            if len(set(rest)) < len(rest):
                continue
            sign = perm_sign(rest)
            out[srt] = out.get(srt, F0) + coef * sign
    return {k: v for k, v in out.items() if v}


def weight_zero_monomials(rep: SpinRep):
    """The degree-4 monomials of total weight zero, in monomial order."""
    out = []
    for mono in MONOMIALS:
        tot = [F0, F0, F0]
        for s in mono:
            w = rep.weight_of_spinor(s)
            tot = [a + b for a, b in zip(tot, w)]
        if all(x == 0 for x in tot):
            out.append(mono)
    return out


def so7_invariant(rep: SpinRep) -> dict:
    """The invariant line in degree 4, normalized so the coefficient of
    the all-even monomial is 2.  Computed as the joint kernel of the
    three raising operators on the weight-0 subspace, then checked
    against the whole algebra."""
    zmonos = weight_zero_monomials(rep)
    assert len(zmonos) == 8
    rows = {}
    for t, mono in enumerate(zmonos):
        for i in range(3):
            img = _derive_wedge(rep.rho[(i, 6)], mono)
            for target, coef in img.items():
                key = (i, target)
                if key not in rows:
                    rows[key] = [F0] * 8
                rows[key][t] += coef
    system = [rows[k] for k in sorted(rows)]
    kernel = nullspace(frac_mat(system))
    if len(kernel) != 1:
        raise SpinConstructionError(
            f"raising-operator kernel has dimension {len(kernel)}, expected 1"
        )
    vec = kernel[0]
    lead = vec[zmonos.index((0, 4, 5, 6))]
    assert lead != 0
    vec = [x * 2 / lead for x in vec]
    inv = {mono: coef for mono, coef in zip(zmonos, vec) if coef}
    # full invariance: every basis operator annihilates the vector
    for pair in SO7_PAIRS:
        acc = {}
        for mono, coef in inv.items():
            for target, c in _derive_wedge(rep.rho[pair], mono).items():
                acc[target] = acc.get(target, F0) + coef * c
        assert all(v == 0 for v in acc.values()), f"not invariant under {pair}"
    return inv


EVEN_MONOMIAL = (0, 4, 5, 6)  # wedge of the four even-degree spinors


def project_even(vec: dict) -> Fraction:
    """Coefficient on the single monomial lying in wedge^4 of the even
    subspace span(e_(), e_(1,2), e_(1,3), e_(2,3))."""
    return vec.get(EVEN_MONOMIAL, F0)


# transcription of the reference term list for the invariant, in its
# printed order: (monomial, coefficient)
REFERENCE_TERMS = (
    ((0, 4, 5, 6), 2),
    ((0, 3, 4, 7), -1),
    ((0, 2, 5, 7), 1),
    ((0, 1, 6, 7), -1),
    ((2, 3, 4, 5), 1),
    ((1, 3, 4, 5), -1),  # note: this monomial does not have weight zero
    ((1, 2, 5, 6), 1),
    ((1, 2, 3, 7), 2),
)


def reference_comparison(rep: SpinRep = None) -> dict:
    """Term-by-term comparison of the computed invariant against the
    transcribed reference expression.

    Seven of the eight reference terms match exactly.  The sixth names
    a monomial of nonzero weight, which cannot appear in an invariant;
    the computed invariant instead carries the same coefficient on the
    unique weight-0 monomial obtained by replacing its third factor
    (index 4, the (1,2) spinor, stays; the (1,3) spinor duplicated from
    the previous term becomes the (2,3) spinor).  This is reported as a
    flagged discrepancy, not a failure.
    """
    if rep is None:
        rep = build_spin_rep()
    inv = so7_invariant(rep)
    zset = set(weight_zero_monomials(rep))
    terms = []
    mismatches = []
    for pos, (mono, coef) in enumerate(REFERENCE_TERMS, start=1):
        if mono in zset and inv.get(mono, F0) == coef:
            terms.append({"position": pos, "monomial": mono, "match": True})
        else:
            tot = [F0, F0, F0]
            for s in mono:
                tot = [a + b for a, b in zip(tot, rep.weight_of_spinor(s))]
            candidates = [
                m
                for m in zset
                if inv.get(m, F0) == coef and len(set(m) & set(mono)) == 3
            ]
            terms.append(
                {
                    "position": pos,
                    "monomial": mono,
                    "match": False,
                    "weight": tuple(tot),
                    "nearest_computed": candidates[0] if len(candidates) == 1 else None,
                }
            )
            mismatches.append(pos)
    return {
        "terms": terms,
        "mismatch_positions": mismatches,
        "matches": len(REFERENCE_TERMS) - len(mismatches),
        "computed": {m: int(c) for m, c in sorted(so7_invariant(rep).items())},
    }


# ---------------------------------------------------------------------------
# invariant counts in low exterior/symmetric powers, and cross-checks


def _derive_sym(mat, mono):
    out = {}
    for pos, b in enumerate(mono):
        for p in range(8):
            coef = mat[p][b]
            if not coef:
                continue
            rest = tuple(sorted(mono[:pos] + (p,) + mono[pos + 1 :]))
            out[rest] = out.get(rest, F0) + coef
    return {k: v for k, v in out.items() if v}


def invariant_count(rep: SpinRep, k, kind) -> int:
    """Dimension of the invariants in the k-th exterior or symmetric
    power of the spinor space, by intersecting the kernels of all 21
    basis operators on the weight-0 monomial span."""
    if kind == "wedge":
        monos = list(combinations(range(8), k))
        derive = _derive_wedge
    elif kind == "sym":
        monos = list(combinations_with_replacement(range(8), k))
        derive = _derive_sym
    else:
        raise ValueError("kind must be 'wedge' or 'sym'")
    zmonos = []
    for mono in monos:
        tot = [F0, F0, F0]
        for s in mono:
            tot = [a + b for a, b in zip(tot, rep.weight_of_spinor(s))]
        if all(x == 0 for x in tot):
            zmonos.append(mono)
    if not zmonos:
        return 0
    rows = {}
    for t, mono in enumerate(zmonos):
        for pair in SO7_PAIRS:
            for target, coef in derive(rep.rho[pair], mono).items():
                key = (pair, target)
                if key not in rows:
                    rows[key] = [F0] * len(zmonos)
                rows[key][t] += coef
    system = [rows[key] for key in sorted(rows)]
    return len(nullspace(frac_mat(system)))


def cross_check_weights(rep: SpinRep) -> dict:
    """Tie the matrix model to the abstract weight calculus."""
    alg = lie_engine.B3
    spin = lie_engine.irrep_weights(alg, (FH, FH, FH))
    model = {}
    for s in range(8):
        w = rep.weight_of_spinor(s)
        model[w] = model.get(w, 0) + 1
    spin_match = model == spin
    wedge4_engine = lie_engine.wedge_power(alg, spin, 4)
    model4 = {}
    for mono in MONOMIALS:
        tot = [F0, F0, F0]
        for s in mono:
            tot = [a + b for a, b in zip(tot, rep.weight_of_spinor(s))]
        key = tuple(tot)
        model4[key] = model4.get(key, 0) + 1
    wedge4_match = model4 == wedge4_engine
    return {
        "spin_weights_match": spin_match,
        "wedge4_weights_match": wedge4_match,
        "wedge4_zero_dim": len(weight_zero_monomials(rep)),
        "wedge2_invariants": invariant_count(rep, 2, "wedge"),
        "sym2_invariants": invariant_count(rep, 2, "sym"),
    }
