"""Explicit eight-dimensional spin representation and its invariant.

The oracle here is a from-scratch reconstruction of the wedging and
contraction operators inside the test, using frozenset states instead
of sorted tuples, so any indexing or sign slip in the implementation
shows up as a mismatch.  Bracket values for a handful of operator
pairs are derived by hand and frozen.
"""

from fractions import Fraction

import pytest

from quatprym import lie_engine as le
from quatprym.linalg import identity
from quatprym import spin_explicit as sp

H = Fraction(1, 2)


@pytest.fixture(scope="module")
def rep():
    return sp.build_spin_rep()


# ------------------------------------------------- independent operators


def oracle_wedge(i):
    """Matrix of v -> e_i ^ v in the subset basis, built via frozensets."""
    m = [[Fraction(0)] * 8 for _ in range(8)]
    for col, subset in enumerate(sp.SUBSETS):
        s = frozenset(subset)
        if i in s:
            continue
        t = s | {i}
        sign = (-1) ** sum(1 for x in s if x < i)
        row = sp.SUBSETS.index(tuple(sorted(t)))
        m[row][col] = Fraction(sign)
    return m


def oracle_contract(i):
    """Matrix of contraction by e_i, same convention."""
    m = [[Fraction(0)] * 8 for _ in range(8)]
    for col, subset in enumerate(sp.SUBSETS):
        s = frozenset(subset)
        if i not in s:
            continue
        t = s - {i}
        sign = (-1) ** sum(1 for x in t if x < i)
        row = sp.SUBSETS.index(tuple(sorted(t)))
        m[row][col] = Fraction(sign)
    return m


def test_wedge_and_contract_match_oracle():
    # the module indexes exterior generators 0..2; subsets store 1..3
    for i in (0, 1, 2):
        assert sp._wedge_op(i) == oracle_wedge(i + 1)
        assert sp._contract_op(i) == oracle_contract(i + 1)


def test_wedge_contract_anticommutator_is_identity():
    # w_i d_i + d_i w_i = 1 on the exterior algebra
    ident = [[Fraction(1 if r == c else 0) for c in range(8)] for r in range(8)]
    for i in (1, 2, 3):
        w = sp.frac_mat(oracle_wedge(i))
        d = sp.frac_mat(oracle_contract(i))
        summed = [
            [x + y for x, y in zip(ra, rb)]
            for ra, rb in zip(sp.mat_mul(w, d), sp.mat_mul(d, w))
        ]
        assert summed == ident


# ------------------------------------------------------- the bilinear form


def test_bilinear_form_pairs_opposite_indices():
    # coordinates 0..5 pair across a shift by three; 6 is the fixed axis
    for i in range(6):
        partner = (i + 3) % 6
        assert sp.BFORM[i][partner] == H
        assert sum(1 for x in sp.BFORM[i] if x != 0) == 1
    assert sp.BFORM[6][6] == 1


# -------------------------------------------------------------- brackets


def commutator(a, b):
    ab = sp.mat_mul(a, b)
    ba = sp.mat_mul(b, a)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def rho_combination(rep, coeff_by_pair):
    out = [[Fraction(0)] * 8 for _ in range(8)]
    for pair, c in coeff_by_pair.items():
        block = rep.rho[pair]
        for r in range(8):
            for s in range(8):
                out[r][s] += c * Fraction(block[r][s])
    return out


def test_hand_computed_bracket_values(rep):
    # indices are 0-based: coordinate t pairs with t+3, axis is 6.
    # [e0^e6, e1^e6] = -2 e0^e1 with this normalization of the form
    m = commutator(rep.rho[(0, 6)], rep.rho[(1, 6)])
    assert m == rho_combination(rep, {(0, 1): Fraction(-2)})
    # the Cartan element e0^e3 scales e0^e6 by its weight, +1
    m2 = commutator(rep.rho[(0, 3)], rep.rho[(0, 6)])
    assert m2 == rep.rho[(0, 6)]
    # orthogonal pairs commute
    m3 = commutator(rep.rho[(0, 3)], rep.rho[(1, 4)])
    assert all(x == 0 for row in m3 for x in row)


def test_all_brackets_close(rep):
    pairs = sp.SO7_PAIRS
    for idx_a in range(len(pairs)):
        for idx_b in range(idx_a + 1, len(pairs)):
            a, b = pairs[idx_a], pairs[idx_b]
            lhs = commutator(rep.rho[a], rep.rho[b])
            # structure constants read off from the vector representation
            vec = commutator(
                sp.frac_mat(sp.so7_action_matrix(*a)),
                sp.frac_mat(sp.so7_action_matrix(*b)),
            )
            target = sp.matrix_to_pair_coeffs(vec)
            assert lhs == rho_combination(rep, target), (a, b)


def test_scalar_normalization_frozen(rep):
    assert rep.scalars == (1, 1, 1, 1, Fraction(-1, 2))


# ------------------------------------------------------------- weights


def test_spinor_weights_follow_subset_membership(rep):
    for idx, subset in enumerate(sp.SUBSETS):
        w = rep.weight_of_spinor(idx)
        expected = tuple(H if t in subset else -H for t in (1, 2, 3))
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
        total = [Fraction(0)] * 3
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


def test_invariance_check_raises_on_a_broken_rho(rep):
    # the raising operators and the Cartan part are kept, so the raising
    # kernel is still one line, but e1 ^ e2 now acts as the identity
    broken = sp.SpinRep(rho={**rep.rho, (0, 1): identity(8)}, scalars=rep.scalars)
    with pytest.raises(sp.SpinConstructionError, match=r"not invariant under \(0, 1\)"):
        sp.so7_invariant(broken)


def test_monomial_weight_is_the_sum_of_spinor_weights(rep):
    for mono in ((), (3,), (0, 4, 5, 6), (1, 3, 4, 5), (0, 0, 7)):
        total = [Fraction(0)] * 3
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
    cmp = sp.reference_comparison(rep)
    assert cmp["matches"] == 7
    assert cmp["mismatch_positions"] == [6]
    printed = dict(sp.REFERENCE_TERMS)
    assert printed[(1, 3, 4, 5)] == Fraction(-1)
    # that monomial is not weight zero, so it cannot occur in an invariant
    total = [Fraction(0)] * 3
    for idx in (1, 3, 4, 5):
        total = [a + b for a, b in zip(total, rep.weight_of_spinor(idx))]
    assert any(x != 0 for x in total)
    # the computed invariant instead carries (1,3,4,6), same coefficient
    assert cmp["computed"][(1, 3, 4, 6)] == Fraction(-1)
    assert (1, 3, 4, 6) not in printed


def test_build_is_deterministic():
    a = sp.build_spin_rep()
    b = sp.build_spin_rep()
    assert a.rho == b.rho and a.scalars == b.scalars
