"""Explicit eight-dimensional spin representation and its invariant.

The oracle here is a from-scratch reconstruction of the wedging and
contraction operators inside the test, using frozenset states instead
of sorted tuples, so any indexing or sign slip in the implementation
shows up as a mismatch.  Bracket values for a handful of operator
pairs are derived by hand and frozen.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from quatprym import lie_engine as le
from quatprym import spin_explicit as sp
from quatprym.linalg import identity, mat_mul, nullspace


@pytest.fixture(scope="module")
def rep():
    return sp.build_spin_rep()


def int_identity(n):
    return [[int(r == c) for c in range(n)] for r in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


# ------------------------------------------------- independent operators


def oracle_wedge(i):
    """Matrix of v -> e_i ^ v in the subset basis, built via frozensets."""
    m = [[0] * 8 for _ in range(8)]
    for col, subset in enumerate(sp.SUBSETS):
        s = frozenset(subset)
        if i in s:
            continue
        t = s | {i}
        sign = (-1) ** sum(1 for x in s if x < i)
        row = sp.SUBSETS.index(tuple(sorted(t)))
        m[row][col] = sign
    return m


def oracle_contract(i):
    """Matrix of contraction by e_i, same convention."""
    m = [[0] * 8 for _ in range(8)]
    for col, subset in enumerate(sp.SUBSETS):
        s = frozenset(subset)
        if i not in s:
            continue
        t = s - {i}
        sign = (-1) ** sum(1 for x in t if x < i)
        row = sp.SUBSETS.index(tuple(sorted(t)))
        m[row][col] = sign
    return m


def oracle_parity():
    """Matrix of the parity involution: (-1)^#S on e_S."""
    return [[(-1) ** len(subset) if row == col else 0 for col, subset in enumerate(sp.SUBSETS)]
            for row in range(8)]


def act_matrix(op, g):
    """The matrix whose column s is the image of e_s under ``sp._act``."""
    m = [[0] * 8 for _ in range(8)]
    for col, subset in enumerate(sp.SUBSETS):
        image = sp._act(op, g, subset)
        if image:
            sign, target = image
            m[sp.SUBSETS.index(target)][col] = sign
    return m


def test_wedge_and_contract_match_oracle():
    # the exterior generators are e_1..e_3, as the subsets store them
    for i in (1, 2, 3):
        assert act_matrix("wedge", i) == oracle_wedge(i)
        assert act_matrix("contract", i) == oracle_contract(i)
    assert act_matrix("parity", 0) == oracle_parity()


def test_wedge_contract_anticommutator_is_identity():
    # w_i d_i + d_i w_i = 1 on the exterior algebra
    for i in (1, 2, 3):
        w = oracle_wedge(i)
        d = oracle_contract(i)
        assert mat_add(mat_mul(w, d), mat_mul(d, w)) == int_identity(8)


# --------------------------------------------------------- the Gram form


def partner(p):
    """The index whose basis vector G pairs with e_p."""
    return p + 3 if p < 3 else p - 3 if p < 6 else 6


def so7_action_matrix(a, b):
    """The 7x7 int matrix of e_a ^ e_b acting by v -> G(b,v)a - G(a,v)b."""
    m = [[0] * 7 for _ in range(7)]
    m[a] = list(sp.GRAM[b])
    m[b] = [-x for x in sp.GRAM[a]]
    return m


def matrix_to_pair_coeffs(m):
    """Inverse of so7_action_matrix on its image: coefficients c_{ab}
    with m = sum c_{ab} so7_action_matrix(a,b); raises ValueError if m
    is outside that image.  Each c_{ab} is read off an entry that no
    other basis action touches: the 1 of e_a ^ e_b at row a, column
    partner(b) for b < 6, and its -1 at row 6, column partner(a) for
    b = 6.  This matrix route is the oracle of ``sp.so7_bracket``."""
    coeffs = {
        (a, b): m[a][partner(b)] if b < 6 else -m[6][partner(a)]
        for a, b in sp.SO7_PAIRS
    }
    recon = [[0] * 7 for _ in range(7)]
    for pair, c in coeffs.items():
        recon = mat_add(recon, mat_scale(so7_action_matrix(*pair), c))
    if recon != m:
        raise ValueError("matrix is outside the span of the basis actions")
    return coeffs


def test_bilinear_form_pairs_opposite_indices():
    # G = 2B: coordinates 0..5 pair across a shift by three with G = 1,
    # and the fixed axis 6 has G = 2
    for i in range(6):
        partner = (i + 3) % 6
        assert sp.GRAM[i][partner] == 1
        assert sum(1 for x in sp.GRAM[i] if x != 0) == 1
    assert sp.GRAM[6] == [0] * 6 + [2]
    assert all(sp.GRAM[p][q] == sp.GRAM[q][p] for p in range(7) for q in range(7))


def test_the_model_is_integer_throughout(rep):
    # every entry of 2 rho, every basis action, every bracket coefficient
    # and every doubled weight is an int, not an integral Fraction
    assert all(type(x) is int for m in rep.two_rho.values() for row in m for x in row)
    assert all(type(c) is int for c in rep.scalars)
    for x, y in sp.BRACKET_PAIRS:
        mx, my = so7_action_matrix(*x), so7_action_matrix(*y)
        assert all(type(v) is int for row in mx for v in row)
        assert all(type(c) is int for c in matrix_to_pair_coeffs(commutator(mx, my)).values())
        assert all(type(c) is int for c in sp.so7_bracket(x, y).values())
    for mono in sp.MONOMIALS:
        assert all(type(w) is int for w in rep.weight_of_monomial(mono))
    for pair in sp.SO7_PAIRS:
        for mono in ((0, 0), (1, 6), (2, 7, 7)):
            assert all(type(c) is int for c in sp._derive_sym(rep.two_rho[pair], mono).values())


def test_no_fraction_is_made_before_the_kernels(monkeypatch):
    # building and checking the model, the weight-zero tests and the
    # operator systems stay in ints; only nullspace and the normalization
    # of the invariant line make Fractions
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 2)
    assert made == [(1, 2)]
    made.clear()
    rep = sp.build_spin_rep()
    zmonos = sp.weight_zero_monomials(rep)
    sp._operator_system(rep, sp.SO7_PAIRS, zmonos, sp.wedge_derivation)
    sym2 = [m for m in combinations_with_replacement(range(8), 2) if not any(rep.weight_of_monomial(m))]
    sp._operator_system(rep, sp.SO7_PAIRS, sym2, sp._derive_sym)
    assert made == []


def test_matrix_to_pair_coeffs_rejects_a_matrix_outside_the_span():
    with pytest.raises(ValueError, match="outside the span"):
        matrix_to_pair_coeffs(identity(7))
    with pytest.raises(ValueError, match="outside the span"):
        matrix_to_pair_coeffs(int_identity(7))


def test_matrix_to_pair_coeffs_inverts_every_basis_action():
    for pair in sp.SO7_PAIRS:
        coeffs = matrix_to_pair_coeffs(so7_action_matrix(*pair))
        assert coeffs == {p: int(p == pair) for p in sp.SO7_PAIRS}


def test_so7_bracket_equals_the_matrix_route_on_every_pair():
    # the 210 brackets read off G, against the commutator of the 7x7
    # actions taken apart by matrix_to_pair_coeffs
    for x, y in sp.BRACKET_PAIRS:
        coeffs = matrix_to_pair_coeffs(commutator(so7_action_matrix(*x), so7_action_matrix(*y)))
        bracket = sp.so7_bracket(x, y)
        assert bracket == {pair: c for pair, c in coeffs.items() if c}, (x, y)
        assert sp.so7_bracket(y, x) == {pair: -c for pair, c in bracket.items()}
    assert all(sp.so7_bracket(x, x) == {} for x in sp.SO7_PAIRS)


# -------------------------------------------------------------- brackets


def commutator(a, b):
    ab = mat_mul(a, b)
    ba = mat_mul(b, a)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def two_rho_of(rep, coeff_by_pair):
    """2 rho of the element sum c pair of so(7)."""
    out = [[0] * 8 for _ in range(8)]
    for pair, c in coeff_by_pair.items():
        out = mat_add(out, mat_scale(rep.two_rho[pair], c))
    return out


def test_hand_computed_bracket_values(rep):
    # indices are 0-based: coordinate t pairs with t+3, axis is 6.
    # [2rho x, 2rho y] = 4 rho([x, y]) = 2 * 2rho([x, y]).
    # [e0^e6, e1^e6] = -2 e0^e1 with this normalization of the form
    m = commutator(rep.two_rho[(0, 6)], rep.two_rho[(1, 6)])
    assert m == mat_scale(two_rho_of(rep, {(0, 1): -2}), 2)
    # the Cartan element e0^e3 scales e0^e6 by its weight, +1
    m2 = commutator(rep.two_rho[(0, 3)], rep.two_rho[(0, 6)])
    assert m2 == mat_scale(rep.two_rho[(0, 6)], 2)
    # orthogonal pairs commute
    m3 = commutator(rep.two_rho[(0, 3)], rep.two_rho[(1, 4)])
    assert all(x == 0 for row in m3 for x in row)


def test_all_brackets_close(rep):
    pairs = sp.SO7_PAIRS
    for idx_a in range(len(pairs)):
        for idx_b in range(idx_a + 1, len(pairs)):
            a, b = pairs[idx_a], pairs[idx_b]
            lhs = commutator(rep.two_rho[a], rep.two_rho[b])
            # structure constants read off from the vector representation
            vec = commutator(so7_action_matrix(*a), so7_action_matrix(*b))
            target = matrix_to_pair_coeffs(vec)
            assert lhs == mat_scale(two_rho_of(rep, target), 2), (a, b)


def test_scalar_normalization_frozen(rep):
    # the signs s1..s4, then the Cartan shift c = -1/2 doubled
    assert rep.scalars == (1, 1, 1, 1, -1)


CANDIDATES = tuple(product((1, -1), (1, -1), (1, -1), (1, -1), (-1, 1, 0)))


def test_every_candidate_satisfies_the_sample_formula():
    # the bracket check alone picks the scalars: the sample formula holds
    # for all 48 candidates, but not at the wrong scale or sign
    assert len(CANDIDATES) == 48
    assert all(sp._formula_holds(sp._assemble(*cand)) for cand in CANDIDATES)
    two_rho = sp._assemble(1, 1, 1, 1, -1)
    for i in range(3):
        undoubled = {**two_rho, (i, 6): mat_scale(two_rho[(i, 6)], Fraction(1, 2))}
        assert not sp._formula_holds(undoubled)
        flipped = {**two_rho, (i, 6): mat_scale(two_rho[(i, 6)], -1)}
        assert not sp._formula_holds(flipped)


def oracle_factor(p):
    """The oracle operator of the so(7) index p: wedge by e_{p+1} for
    p < 3, contraction of e_{p-2} for p < 6, parity on the axis p = 6."""
    return oracle_wedge(p + 1) if p < 3 else oracle_contract(p - 2) if p < 6 else oracle_parity()


def oracle_scalar(cand, a, b):
    """The scalar of 2 rho(e_a ^ e_b) = scalar * factor(a) factor(b):
    2 s1 on wedge-wedge, 2 s2 on contraction-contraction, 2 s3 on
    wedge-contraction, 2 on wedge-parity and 2 s4 on contraction-parity."""
    s1, s2, s3, s4, _ = cand
    if b < 3:
        return 2 * s1
    if b < 6:
        return 2 * s3 if a < 3 else 2 * s2
    return 2 if a < 3 else 2 * s4


def test_assemble_equals_the_oracle_products_on_every_candidate():
    # the dense products of the frozenset operators, scaled, with the
    # doubled Cartan shift c on the diagonal of each e_i ^ e_{3+i}
    for cand in CANDIDATES:
        two_rho = sp._assemble(*cand)
        assert list(two_rho) == list(sp.SO7_PAIRS)
        for a, b in sp.SO7_PAIRS:
            want = mat_scale(mat_mul(oracle_factor(a), oracle_factor(b)), oracle_scalar(cand, a, b))
            if a < 3 and b == a + 3:
                want = mat_add(want, mat_scale(int_identity(8), cand[4]))
            assert two_rho[(a, b)] == want, (cand, a, b)


def dense_bracket_holds(two_rho, x, y) -> bool:
    """The dense bracket check the sparse kernel replaced: full 8x8 and
    7x7 products, [2rho(x), 2rho(y)] against 2 sum c 2rho(pair)."""
    lhs = commutator(two_rho[x], two_rho[y])
    coeffs = matrix_to_pair_coeffs(commutator(so7_action_matrix(*x), so7_action_matrix(*y)))
    rhs = [[0] * 8 for _ in range(8)]
    for pair, c in coeffs.items():
        if c:
            rhs = mat_add(rhs, mat_scale(two_rho[pair], 2 * c))
    return lhs == rhs


def dense_failures(two_rho):
    return [(x, y) for x, y in sp.BRACKET_PAIRS if not dense_bracket_holds(two_rho, x, y)]


def test_bracket_kernel_matches_the_dense_check_on_every_candidate():
    for cand in CANDIDATES:
        two_rho = sp._assemble(*cand)
        assert sp.bracket_failures(two_rho) == dense_failures(two_rho), cand


@pytest.mark.parametrize(
    "cand,passes",
    [
        ((1, 1, 1, 1, -1), 210),
        ((1, 1, 1, 1, 1), 204),
        ((1, 1, 1, 1, 0), 204),
        ((-1, -1, -1, 1, -1), 111),
    ],
    ids=["c=-1/2", "c=+1/2", "c=0", "signs-c=-1/2"],
)
def test_bracket_pass_counts_per_candidate(cand, passes):
    two_rho = sp._assemble(*cand)
    assert len(sp.BRACKET_PAIRS) - len(sp.bracket_failures(two_rho)) == passes


def test_a_planted_one_entry_fault_is_caught(rep):
    # one entry of one 2 rho matrix moved by one, for each of the 21
    # matrices at a seeded position, zero or not
    rng = random.Random(25)
    for pair in sp.SO7_PAIRS:
        t, u = rng.randrange(8), rng.randrange(8)
        planted = {**rep.two_rho, pair: [list(row) for row in rep.two_rho[pair]]}
        planted[pair][t][u] += 1
        failures = sp.bracket_failures(planted)
        assert failures, (pair, t, u)
        assert failures == dense_failures(planted)


def test_build_raises_when_no_candidate_passes(monkeypatch):
    monkeypatch.setattr(sp, "bracket_failures", lambda two_rho: [sp.BRACKET_PAIRS[0]])
    with pytest.raises(sp.SpinConstructionError, match="no scalar assignment"):
        sp.build_spin_rep()


# ------------------------------------------------------------- weights


def test_spinor_weights_follow_subset_membership(rep):
    for idx, subset in enumerate(sp.SUBSETS):
        w = rep.weight_of_spinor(idx)
        # doubled: +1/2 and -1/2 read 1 and -1
        expected = tuple(1 if t in subset else -1 for t in (1, 2, 3))
        assert w == expected


def test_weight_multiset_matches_weight_engine(rep):
    checks = sp.cross_check_weights(rep)
    assert checks == {
        "spin_weights_match": True,
        "wedge4_weights_match": True,
        "wedge4_zero_dim": 8,
        "wedge2_invariants": 0,
        "sym2_invariants": 1,
    }


# ------------------------------------------------------------ invariant


def test_weight_zero_monomials_frozen(rep):
    zeros = sp.weight_zero_monomials(rep)
    assert len(zeros) == 8
    assert (0, 4, 5, 6) in zeros
    for mono in zeros:
        total = [0] * 3
        for idx in mono:
            w = rep.weight_of_spinor(idx)
            total = [a + b for a, b in zip(total, w)]
        assert all(x == 0 for x in total)


def test_invariant_line_frozen(rep):
    inv = sp.so7_invariant(rep)
    assert inv == {
        (0, 1, 6, 7): Fraction(-1),
        (0, 2, 5, 7): Fraction(1),
        (0, 3, 4, 7): Fraction(-1),
        (0, 4, 5, 6): Fraction(2),
        (1, 2, 3, 7): Fraction(2),
        (1, 2, 5, 6): Fraction(1),
        (1, 3, 4, 6): Fraction(-1),
        (2, 3, 4, 5): Fraction(1),
    }
    assert all(type(c) is int for c in inv.values())


def test_a_non_integral_normalized_line_raises(rep, monkeypatch):
    # a kernel vector whose all-even coefficient does not divide twice
    # every other coefficient: 2 * 1 / 4 is not an int
    lead = sp.weight_zero_monomials(rep).index(sp.EVEN_MONOMIAL)
    assert lead == 3
    monkeypatch.setattr(sp, "nullspace", lambda m: [[Fraction(t + 1) for t in range(8)]])
    with pytest.raises(sp.SpinConstructionError, match="normalized invariant line is not integral"):
        sp.so7_invariant(rep)


def raising_kernel_invariant(rep):
    """The invariant line by the raising operators: the joint kernel of
    rho(e_i ^ e7), i = 1, 2, 3, on the weight-0 span, normalized as
    ``so7_invariant`` does, then checked against all 21 operators."""
    zmonos = sp.weight_zero_monomials(rep)
    raising = ((0, 6), (1, 6), (2, 6))
    (vec,) = nullspace(sp._operator_system(rep, raising, zmonos, sp.wedge_derivation))
    lead = vec[zmonos.index(sp.EVEN_MONOMIAL)]
    vec = [2 * x / lead for x in vec]
    for row in sp._operator_system(rep, sp.SO7_PAIRS, zmonos, sp.wedge_derivation):
        assert sum(r * x for r, x in zip(row, vec)) == 0
    return {mono: coef for mono, coef in zip(zmonos, vec) if coef}


def test_invariant_equals_the_raising_kernel_route(rep):
    assert sp.so7_invariant(rep) == raising_kernel_invariant(rep)


def test_invariance_check_raises_on_a_broken_rho(rep):
    # the raising operators and the Cartan part are kept, so the raising
    # kernel is still one line, but e1 ^ e2 now acts as the identity, and
    # no nonzero weight-0 vector of wedge^4 is killed by it
    broken_two_rho = {**rep.two_rho, (0, 1): mat_scale(int_identity(8), 2)}
    broken = sp.SpinRep(two_rho=broken_two_rho, scalars=rep.scalars)
    zmonos = sp.weight_zero_monomials(broken)
    raising = ((0, 6), (1, 6), (2, 6))
    assert len(nullspace(sp._operator_system(broken, raising, zmonos, sp.wedge_derivation))) == 1
    with pytest.raises(sp.SpinConstructionError, match="invariant subspace has dimension 0"):
        sp.so7_invariant(broken)


def test_monomial_weight_is_the_sum_of_spinor_weights(rep):
    for mono in ((), (3,), (0, 4, 5, 6), (1, 3, 4, 5), (0, 0, 7)):
        total = [0] * 3
        for idx in mono:
            total = [a + b for a, b in zip(total, rep.weight_of_spinor(idx))]
        assert rep.weight_of_monomial(mono) == tuple(total)


def test_even_projection_value(rep):
    inv = sp.so7_invariant(rep)
    assert sp.EVEN_MONOMIAL == (0, 4, 5, 6)
    assert sp.project_even(inv) == 2


def test_invariant_counts_match_weight_engine(rep):
    assert sp.invariant_count(rep, 2, "wedge") == 0
    assert sp.invariant_count(rep, 2, "sym") == 1
    assert sp.invariant_count(rep, 4, "wedge") == 1
    _, gamma = le.atom("Gamma")
    assert le.invariant_dim(le.B3, le.wedge_power(le.B3, gamma, 4)) == 1


@pytest.mark.parametrize(
    "kind,k", [("wedge", k) for k in range(9)] + [("sym", k) for k in range(4)]
)
def test_invariant_count_equals_the_weight_engine_in_every_degree(rep, kind, k):
    # at k = 0 and wedge k = 8 every operator kills the one weight-0
    # monomial, so the kernel system has no rows and the count is 1
    _, gamma = le.atom("Gamma")
    power = le.wedge_power if kind == "wedge" else le.sym_power
    assert sp.invariant_count(rep, k, kind) == le.invariant_dim(le.B3, power(le.B3, gamma, k))


# ---------------------------------------------------- printed reference


def test_reference_terms_differ_in_exactly_one_monomial(rep):
    cmp = sp.reference_comparison(rep, sp.so7_invariant(rep))
    assert cmp["matches"] == 7
    assert cmp["mismatch_positions"] == [6]
    printed = dict(sp.REFERENCE_TERMS)
    assert printed[(1, 3, 4, 5)] == Fraction(-1)
    # that monomial is not weight zero, so it cannot occur in an invariant
    total = [0] * 3
    for idx in (1, 3, 4, 5):
        total = [a + b for a, b in zip(total, rep.weight_of_spinor(idx))]
    assert total == [2, -2, 0]
    # the reported weight is that sum, doubled like every weight here
    weight = cmp["terms"][5]["weight"]
    assert weight == (2, -2, 0) and all(type(x) is int for x in weight)
    # the computed invariant instead carries (1,3,4,6), same coefficient
    assert cmp["computed"][(1, 3, 4, 6)] == Fraction(-1)
    assert (1, 3, 4, 6) not in printed


def test_build_is_deterministic():
    a = sp.build_spin_rep()
    b = sp.build_spin_rep()
    assert a.two_rho == b.two_rho and a.scalars == b.scalars
