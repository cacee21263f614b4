"""Explicit 8x8 matrix model of the spin representation of so(7).

The orthogonal space is C^7 with quadratic form x7^2 + x1 x4 + x2 x5 +
x3 x6, so e1..e3 and e4..e6 span dual isotropic subspaces R and R'.
With Q(v) = v.B.v, the module works with the Gram form G = 2B, whose
entries are 1 (pairing e_i with e_{3+i}) and 2 (on e7).  so(7) is
identified with wedge^2 C^7 acting by (a^b) v = G(b,v) a - G(a,v) b,
so its brackets are read off G (``so7_bracket``):

    [a^b, c^d] = G(b,c) a^d - G(a,c) b^d - G(b,d) a^c + G(a,d) b^c,

with p^q = -q^p and p^p = 0, all in ints.  The spinor space is
S = wedge^*(R), dimension 8.

The entries of the spin representation rho lie in (1/2)Z, so the
module carries 2 rho: ``SpinRep.two_rho`` holds int matrices, and the
weight of a spinor or monomial is an int tuple, the Cartan weight
doubled, the one weight format of ``lie_engine``: ``cross_check_weights``
compares the model's weights with the engine's as they are, and the
"weight" entry of ``reference_comparison`` is doubled too.

The generator actions on S are assembled from three ingredients: wedge
by e_i, contraction against e_{3+i}, and the parity involution.  Each
sends a basis spinor e_I to a signed basis spinor or to 0 (``_act``),
and 2 rho(e_a ^ e_b) is a scalar times the product of two of them, so
each column is read off two such steps, with no matrix product.  The
scalar normalizations are not guessed: candidate assignments are
searched and accepted only if (1) the sample action (e_i ^ e7) e_I =
(-1)^{#I} e_i ^ e_I holds verbatim and (2) the full bracket
compatibility [rho(X), rho(Y)] = rho([X, Y]) holds for all 210 pairs of
basis elements of wedge^2 C^7, its two products formed by
``linalg.sparse_mul``.  Construction fails loudly otherwise.

On top of the model sits the degree-4 computation: the weight-0
subspace of wedge^4 S is 8-dimensional, the joint kernel of all 21
operators rho(e_a ^ e_b) on it is one line, the invariants, and its
coefficient on the single monomial from wedge^4(even part) is nonzero.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from . import lie_engine
from .linalg import nullspace, sparse_mul, sparse_rows, wedge_derivation

# spinor basis: subsets of {1,2,3}, fixed order
SUBSETS = ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))
_SUBSET_INDEX = {s: t for t, s in enumerate(SUBSETS)}

# Gram form G = 2B of the quadratic form Q(v) = v.B.v
GRAM = [[0] * 7 for _ in range(7)]
for _i in range(3):
    GRAM[_i][_i + 3] = GRAM[_i + 3][_i] = 1
GRAM[6][6] = 2


def _act(op, g, sub):
    """One operator on the spinor e_sub (``sub`` in ``SUBSETS``): wedge
    by e_g, contraction of e_g (the pairing of e_{3+g} against it), or
    the parity involution (g unused).  Returns (sign, subset) for the
    image sign * e_subset, or None for 0."""
    if op == "parity":
        return (-1) ** len(sub), sub
    if (g in sub) == (op == "wedge"):
        return None
    sign = (-1) ** sum(1 for x in sub if x < g)
    if op == "wedge":
        return sign, tuple(sorted(sub + (g,)))
    return sign, tuple(x for x in sub if x != g)


# the operator (op, g) that each so(7) index contributes to 2 rho
_FACTORS = (("wedge", 1), ("wedge", 2), ("wedge", 3),
            ("contract", 1), ("contract", 2), ("contract", 3), ("parity", 0))


SO7_PAIRS = tuple((a, b) for a in range(7) for b in range(a + 1, 7))


def so7_bracket(x, y) -> dict:
    """[x, y] for basis elements x = e_a ^ e_b and y = e_c ^ e_d, as
    {pair of ``SO7_PAIRS``: int coefficient} without zeros, by the
    formula of the module docstring."""
    (a, b), (c, d) = x, y
    out = {}
    for g, p, q in ((GRAM[b][c], a, d), (-GRAM[a][c], b, d),
                    (-GRAM[b][d], a, c), (GRAM[a][d], b, c)):
        if g and p != q:
            if p > q:
                p, q, g = q, p, -g
            out[p, q] = out.get((p, q), 0) + g
    return {pair: coef for pair, coef in out.items() if coef}


class SpinConstructionError(RuntimeError):
    pass


class SpinRep:
    __slots__ = ("two_rho", "scalars")

    def __init__(self, two_rho: dict, scalars: tuple):
        self.two_rho = two_rho  # (a,b) -> 8x8 int matrix of 2 rho(e_a ^ e_b)
        self.scalars = scalars  # the signs s1..s4 and the doubled Cartan shift 2c

    def weight_of_spinor(self, s) -> tuple:
        """Doubled Cartan weight of the s-th spinor basis vector."""
        return self.weight_of_monomial((s,))

    def weight_of_monomial(self, mono) -> tuple:
        """Doubled Cartan weight of a product of spinor basis vectors."""
        return tuple(
            sum(self.two_rho[(i, i + 3)][s][s] for s in mono) for i in range(3)
        )


def _assemble(s1, s2, s3, s4, c):
    """2 rho for the signs s1..s4 and the doubled Cartan shift c.
    2 rho(e_a ^ e_b) is a scalar times the product of the factors of a
    and b, so column s is the signed spinor that the two ``_act`` steps
    send e_s to; e_i ^ e_{3+i} adds c on the diagonal."""
    scale = {("wedge", "wedge"): 2 * s1, ("contract", "contract"): 2 * s2,
             ("wedge", "contract"): 2 * s3, ("wedge", "parity"): 2,
             ("contract", "parity"): 2 * s4}
    two_rho = {}
    for a, b in SO7_PAIRS:
        (op_a, g_a), (op_b, g_b) = _FACTORS[a], _FACTORS[b]
        m = [[0] * 8 for _ in range(8)]
        for s, sub in enumerate(SUBSETS):
            inner = _act(op_b, g_b, sub)
            outer = inner and _act(op_a, g_a, inner[1])
            if outer:
                m[_SUBSET_INDEX[outer[1]]][s] = scale[op_a, op_b] * inner[0] * outer[0]
        if a < 3 and b == a + 3:
            for t in range(8):
                m[t][t] += c
        two_rho[(a, b)] = m
    return two_rho


def _formula_holds(two_rho):
    """(e_i ^ e7) e_I = (-1)^{#I} e_i ^ e_I, read as matrices: column I
    of 2 rho(e_i ^ e7) is 2 (-1)^{#I} times the wedge of e_I by e_i."""
    for i, (s, sub) in product(range(3), enumerate(SUBSETS)):
        col = [0] * 8
        image = _act("wedge", i + 1, sub)
        if image:
            col[_SUBSET_INDEX[image[1]]] = 2 * (-1) ** len(sub) * image[0]
        if [row[s] for row in two_rho[(i, 6)]] != col:
            return False
    return True


# the 210 unordered pairs of basis elements whose brackets are checked
BRACKET_PAIRS = tuple(combinations(SO7_PAIRS, 2))


def bracket_failures(two_rho) -> list:
    """The pairs (x, y) of ``BRACKET_PAIRS``, in order, where [rho(x),
    rho(y)] = rho([x, y]) fails.  On the doubled matrices, with [x, y] =
    sum c pair from ``so7_bracket``, it reads 2rho(x) 2rho(y) = 2rho(y)
    2rho(x) + 2 sum c 2rho(pair), both sides from ``sparse_mul``."""
    rho = {pair: sparse_rows(m) for pair, m in two_rho.items()}
    failures = []
    for x, y in BRACKET_PAIRS:
        rhs = sparse_mul(rho[y], rho[x], 8)
        for pair, c in so7_bracket(x, y).items():
            for rhs_row, row in zip(rhs, rho[pair]):
                for j, z in row:
                    rhs_row[j] += 2 * c * z
        if sparse_mul(rho[x], rho[y], 8) != rhs:
            failures.append((x, y))
    return failures


def build_spin_rep() -> SpinRep:
    """Fix the scalar normalizations by the two acceptance constraints
    and return the verified representation."""
    first = (1, 1, 1, 1, -1)
    candidates = [first] + [
        cand
        for cand in product((1, -1), (1, -1), (1, -1), (1, -1), (-1, 1, 0))
        if cand != first
    ]
    for cand in candidates:
        two_rho = _assemble(*cand)
        if _formula_holds(two_rho) and not bracket_failures(two_rho):
            return SpinRep(two_rho=two_rho, scalars=cand)
    raise SpinConstructionError(
        "no scalar assignment satisfies the sample formula and all brackets"
    )


# ---------------------------------------------------------------------------
# the degree-4 computation

MONOMIALS = tuple(combinations(range(8), 4))


def weight_zero_monomials(rep: SpinRep):
    """The degree-4 monomials of total weight zero, in monomial order."""
    return [mono for mono in MONOMIALS if not any(rep.weight_of_monomial(mono))]


def _operator_system(rep: SpinRep, pairs, monos, derive) -> list:
    """The int rows of the joint kernel of the operators 2 rho(pair), for
    pair in ``pairs``, acting by ``derive`` on the span of ``monos``: one
    row per (operator, target monomial), in sorted order."""
    rows = {}
    for t, mono in enumerate(monos):
        for pair in pairs:
            for target, coef in derive(rep.two_rho[pair], mono).items():
                rows.setdefault((pair, target), [0] * len(monos))[t] += coef
    return [rows[key] for key in sorted(rows)]


def so7_invariant(rep: SpinRep) -> dict:
    """The invariant line in degree 4, normalized so the coefficient of
    the all-even monomial is 2, with int coefficients.  Computed as the
    joint kernel of all 21 basis operators on the weight-0 subspace, the
    system of ``invariant_count``."""
    zmonos = weight_zero_monomials(rep)
    if len(zmonos) != 8:
        raise SpinConstructionError(
            f"weight-zero subspace has dimension {len(zmonos)}, expected 8"
        )
    kernel = nullspace(_operator_system(rep, SO7_PAIRS, zmonos, wedge_derivation))
    if len(kernel) != 1:
        raise SpinConstructionError(
            f"invariant subspace has dimension {len(kernel)}, expected 1"
        )
    vec = kernel[0]
    lead = vec[zmonos.index(EVEN_MONOMIAL)]
    if not lead:
        raise SpinConstructionError("invariant line has no all-even coefficient")
    vec = [Fraction(2 * x, lead) for x in vec]
    if any(x.denominator != 1 for x in vec):
        raise SpinConstructionError("normalized invariant line is not integral")
    vec = [x.numerator for x in vec]
    return {mono: coef for mono, coef in zip(zmonos, vec) if coef}


EVEN_MONOMIAL = (0, 4, 5, 6)  # wedge of the four even-degree spinors


def project_even(vec: dict) -> int:
    """Coefficient on the single monomial lying in wedge^4 of the even
    subspace span(e_(), e_(1,2), e_(1,3), e_(2,3))."""
    return vec.get(EVEN_MONOMIAL, 0)


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


def reference_comparison(rep: SpinRep, inv: dict) -> dict:
    """Term-by-term comparison of the invariant ``inv`` computed on ``rep``
    (``so7_invariant``) against the transcribed reference expression.

    Seven of the eight reference terms match exactly.  The sixth names
    a monomial of nonzero weight, which cannot appear in an invariant;
    the computed invariant instead carries the same coefficient on the
    unique weight-0 monomial obtained by replacing its third factor
    (index 4, the (1,2) spinor, stays; the (1,3) spinor duplicated from
    the previous term becomes the (2,3) spinor).  This is reported as a
    flagged discrepancy, not a failure.
    """
    zset = set(weight_zero_monomials(rep))
    terms = []
    mismatches = []
    for pos, (mono, coef) in enumerate(REFERENCE_TERMS, start=1):
        if mono in zset and inv.get(mono, 0) == coef:
            terms.append({"position": pos, "monomial": mono, "match": True})
        else:
            candidates = [
                m
                for m in zset
                if inv.get(m, 0) == coef and len(set(m) & set(mono)) == 3
            ]
            terms.append(
                {
                    "position": pos,
                    "monomial": mono,
                    "match": False,
                    "weight": rep.weight_of_monomial(mono),
                    "nearest_computed": candidates[0] if len(candidates) == 1 else None,
                }
            )
            mismatches.append(pos)
    return {
        "terms": terms,
        "mismatch_positions": mismatches,
        "matches": len(REFERENCE_TERMS) - len(mismatches),
        "computed": dict(sorted(inv.items())),
    }


# ---------------------------------------------------------------------------
# invariant counts in low exterior/symmetric powers, and cross-checks


def _derive_sym(mat, mono):
    """The derivation a square matrix induces on the symmetric algebra,
    applied to one monomial (a sorted tuple of basis indices, repeats
    allowed).  Returns {monomial: coefficient} without zero coefficients,
    in the type of the entries."""
    out = {}
    for pos, b in enumerate(mono):
        for p, row in enumerate(mat):
            coef = row[b]
            if coef:
                rest = tuple(sorted(mono[:pos] + (p,) + mono[pos + 1 :]))
                out[rest] = out.get(rest, 0) + coef
    return {k: v for k, v in out.items() if v}


def invariant_count(rep: SpinRep, k, kind) -> int:
    """Dimension of the invariants in the k-th exterior or symmetric
    power of the spinor space, by intersecting the kernels of all 21
    basis operators on the weight-0 monomial span."""
    if kind == "wedge":
        monos = combinations(range(8), k)
        derive = wedge_derivation
    elif kind == "sym":
        monos = combinations_with_replacement(range(8), k)
        derive = _derive_sym
    else:
        raise ValueError("kind must be 'wedge' or 'sym'")
    zmonos = [mono for mono in monos if not any(rep.weight_of_monomial(mono))]
    system = _operator_system(rep, SO7_PAIRS, zmonos, derive)
    if not system:  # every operator kills every weight-0 monomial, if any
        return len(zmonos)
    return len(nullspace(system))


def cross_check_weights(rep: SpinRep) -> dict:
    """Tie the matrix model to the abstract weight calculus."""
    alg = lie_engine.B3
    spin = lie_engine.irrep_weights(alg, (1, 1, 1))
    model = Counter(rep.weight_of_spinor(s) for s in range(8))
    model4 = Counter(rep.weight_of_monomial(mono) for mono in MONOMIALS)
    return {
        "spin_weights_match": model == spin,
        "wedge4_weights_match": model4 == lie_engine.wedge_power(alg, spin, 4),
        "wedge4_zero_dim": len(weight_zero_monomials(rep)),
        "wedge2_invariants": invariant_count(rep, 2, "wedge"),
        "sym2_invariants": invariant_count(rep, 2, "sym"),
    }
