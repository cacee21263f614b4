"""Weight-multiset engine for the A/B/D families.

Oracles: closed-form weight systems (sign vectors for spin
representations, root systems for adjoints, single strings for rank
one) are written out in the tests and compared to the engine's Racah
recursion, which is also gated weight for weight against the
Freudenthal recursion it replaced, kept here as the oracle; decompose
is exercised on randomly assembled sums whose content is known by
construction.  The root-driven search for the dominant weights below a
highest weight is gated against the three family-specific enumerators
it replaced, kept here as the oracle, and half the sum of the positive
roots against the closed forms of rho.  The generating-function powers
and the Brauer-Klimyk decomposition are gated against the subset walks
and the greedy stripping of dominant tables they replaced, also kept
here as oracles.  Decompose's one-pass symmetry check (dominant
conjugates and closed-form orbit sizes) is gated against the orbit walk
and against the simple-reflection check it replaced, kept here as the
oracle, on perturbed sums of irreps.  The engine takes and returns
doubled-int weights; the tests write weights in true coordinates and
convert them with ``twice``, and the oracles keep Fraction coordinates
(sum-zero for A) and convert with ``internal`` and ``doubled``.  The
packed-int weights inside the power loops are checked for round trips
and additivity against tuple sums, and tensor against a tuple loop.
"""

import random
import re
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, prod

import pytest

from quatprym import lie_engine as le
from quatprym import report

H = Fraction(1, 2)


def ms_eq(a, b):
    return dict(a) == dict(b)


def twice(w):
    """True coordinates -> the engine's doubled ints."""
    assert all((2 * Fraction(x)).denominator == 1 for x in w), w
    return tuple(int(2 * x) for x in w)


def twice_ms(d):
    return {twice(w): m for w, m in d.items()}


def weyl_dim(alg, lam):
    """Dimension of the irreducible of highest weight lam (doubled ints)
    by the Weyl product over the factors.  Raises ValueError unless lam
    is dominant and integral."""
    return prod(le._factor_weyl_dim(f, part) for f, part in le._highest_weight_parts(alg, lam))


ATOM_NAMES = sorted(le._ATOM_DEFS)


def halves(w):
    return tuple(Fraction(x, 2) for x in w)


def a_zero(w):
    mean = sum(w) / len(w)
    return tuple(x - mean for x in w)


def internal(f, w):
    """Doubled engine coordinates -> Fraction coordinates, sum-zero for A."""
    w = halves(w)
    return a_zero(w) if f.family == "A" else w


def doubled(f, w):
    """Fraction coordinates, sum-zero for A -> doubled engine coordinates."""
    return twice(le._a_canon(w) if f.family == "A" else w)


# ---------------------------------------------------- closed-form oracles


def signs(n):
    out = [()]
    for _ in range(n):
        out = [s + (e,) for s in out for e in (H, -H)]
    return out


@pytest.mark.parametrize("n,alg", [(2, le.AlgebraType.parse("B2")), (3, le.B3)])
def test_b_spin_weights_are_sign_vectors(n, alg):
    got = le.irrep_weights(alg, twice((H,) * n))
    assert ms_eq(got, {twice(w): 1 for w in signs(n)})


def test_d4_half_spin_weights_have_even_sign_count():
    got = le.irrep_weights(le.D4, twice((H, H, H, H)))
    expected = {twice(w): 1 for w in signs(4) if sum(1 for c in w if c < 0) % 2 == 0}
    assert ms_eq(got, expected)


def test_b3_vector_weights():
    got = le.irrep_weights(le.B3, twice((1, 0, 0)))
    expected = {}
    for i in range(3):
        for s in (1, -1):
            w = [Fraction(0)] * 3
            w[i] = Fraction(s)
            expected[tuple(w)] = 1
    expected[(Fraction(0),) * 3] = 1
    assert ms_eq(got, twice_ms(expected))


def test_b3_adjoint_weights_match_root_system():
    got = le.irrep_weights(le.B3, twice((1, 1, 0)))
    expected = {}
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for si in (1, -1):
                for sj in (1, -1):
                    w = [Fraction(0)] * 3
                    w[i] += si
                    w[j] += sj
                    if any(w):
                        key = tuple(w)
                        expected[key] = 1
    for i in range(3):
        for s in (1, -1):
            w = [Fraction(0)] * 3
            w[i] = Fraction(s)
            expected[tuple(w)] = 1
    expected[(Fraction(0),) * 3] = 3  # zero-weight multiplicity = rank
    assert ms_eq(got, twice_ms(expected))


def test_a1_string_weights():
    for m in range(7):
        got = le.irrep_weights(le.A1, twice((m, 0)))
        expected = {(Fraction(m - 2 * t), Fraction(0)): 1 for t in range(m + 1)}
        assert ms_eq(got, twice_ms(expected))


def test_a3_third_wedge_matches_highest_weight():
    std = le.irrep_weights(le.A3, twice((1, 0, 0, 0)))
    assert ms_eq(le.irrep_weights(le.A3, twice((1, 1, 1, 0))), le.wedge_power(le.A3, std, 3))


# ------------------------------------- dominant weights below lambda


def in_chamber(f, w):
    """Whether the factor-local weight w, of any coordinate type, lies in
    the dominant chamber of f, by the chamber's inequalities: the oracle
    for the dominant-conjugate sorts of ``le._CONJUGATE``."""
    if f.family == "A":
        return all(w[t] >= w[t + 1] for t in range(len(w) - 1))
    if f.family == "B":
        return all(w[t] >= w[t + 1] for t in range(len(w) - 1)) and w[-1] >= 0
    return all(w[t] >= w[t + 1] for t in range(len(w) - 2)) and w[-2] >= abs(w[-1])


def value_range(top, frac):
    """0-anchored ladder frac, frac+1, ..., up to top."""
    out = []
    v = frac
    while v <= top:
        out.append(v)
        v += 1
    return out


def family_candidates(f, lam):
    """The per-family enumeration of the dominant weights below lam (same
    coset of the root lattice, below lam in the dominance order), in
    internal coordinates: B and D by coordinate values and partial sums,
    A in canonical coordinates."""
    n = f.ncoords
    if f.family == "B":
        top = lam[0]
        frac = top - int(top)
        vals = sorted(value_range(top, frac), reverse=True)
        out = []
        for mu in combinations_with_replacement(vals, n):
            t = Fraction(0)
            ok = True
            for lt, mt in zip(lam, mu):
                t += lt - mt
                if t < 0 or t.denominator != 1:
                    ok = False
                    break
            if ok:
                out.append(tuple(mu))
        return out
    if f.family == "D":
        top = lam[0]
        frac = top - int(top)
        pos = value_range(top, frac)
        vals = sorted(set(pos + [-v for v in pos]), reverse=True)
        out = []
        for mu0 in combinations_with_replacement(vals, n):
            variants = {mu0}
            if mu0[-1] > 0:
                variants.add(mu0[:-1] + (-mu0[-1],))
            for mu in variants:
                if not in_chamber(f, mu):
                    continue
                t = Fraction(0)
                ok = True
                for idx in range(n - 1):
                    t += lam[idx] - mu[idx]
                    if idx <= n - 3 and (t < 0 or t.denominator != 1):
                        ok = False
                        break
                if not ok:
                    continue
                dn = lam[-1] - mu[-1]
                c_n = (t + dn) / 2
                c_n1 = (t - dn) / 2
                if c_n.denominator == 1 and c_n1.denominator == 1 and c_n >= 0 and c_n1 >= 0:
                    out.append(tuple(mu))
        return out
    lam_c = le._a_canon(lam)
    top = int(lam_c[0])
    total = sum(lam_c)
    out = []
    for head in combinations_with_replacement(range(top, -1, -1), n - 1):
        mu_c = tuple(Fraction(x) for x in head) + (Fraction(0),)
        if (sum(mu_c) - total) % n != 0:
            continue
        mu0 = a_zero(mu_c)
        t = Fraction(0)
        ok = True
        for idx in range(n - 1):
            t += lam[idx] - mu0[idx]
            if t < 0 or t.denominator != 1:
                ok = False
                break
        if ok:
            out.append(mu0)
    return out


BOX_ALGEBRAS = ("A1", "A2", "A3", "B2", "B3", "B4", "D3", "D4")
BOX_VALUES = [Fraction(k, 2) for k in range(-7, 8)]


@cache
def box_weights(f):
    """Every dominant integral highest weight of f with stored
    coordinates in {-7/2, -3, ..., 7/2}, in doubled coordinates."""
    alg = le.AlgebraType((f,))
    out = []
    for w in product(BOX_VALUES, repeat=f.ncoords):
        if f.family == "A" and w[-1] != 0:
            continue
        try:
            (part,) = le._highest_weight_parts(alg, twice(w))
        except ValueError:
            continue
        out.append(part[1])
    return tuple(out)


def assert_same_candidates(f, lam):
    got = le._candidates(f, lam)
    assert got[0] == lam
    assert len(set(got)) == len(got)
    expected = {doubled(f, mu) for mu in family_candidates(f, internal(f, lam))}
    assert set(got) == expected, (f, lam)


def test_candidates_match_family_enumerators_on_box():
    count = 0
    for name in BOX_ALGEBRAS:
        (f,) = le.AlgebraType.parse(name).factors
        for lam in box_weights(f):
            assert_same_candidates(f, lam)
            count += 1
    assert count == 354


def test_candidates_match_family_enumerators_on_registry_tables(monkeypatch):
    # (factor, doubled highest weight) of every factor table the registry asks for
    keys = set()
    build = le._factor_irrep

    def spy(f, lam):
        keys.add((f, lam))
        return build(f, lam)

    build.cache_clear()
    monkeypatch.setattr(le, "_factor_irrep", spy)
    report.run_suite("lie")
    assert {str(f) for f, _ in keys} >= {"A1", "A3", "B3", "D4"}
    for f, lam in keys:
        assert_same_candidates(f, lam)


# ------------------------------------- Racah against Freudenthal


def oracle_dominant_conjugate(f, w):
    """The dominant weight in the Weyl orbit of w, sum-zero for A."""
    if f.family == "A":
        return tuple(sorted(w, reverse=True))
    if f.family == "B":
        return tuple(sorted((abs(x) for x in w), reverse=True))
    mags = sorted((abs(x) for x in w), reverse=True)
    negs = sum(1 for x in w if x < 0)
    if negs % 2 == 1 and mags[-1] != 0:
        mags[-1] = -mags[-1]
    return tuple(mags)


def freudenthal_table(f, lam):
    """Freudenthal's recursion: dominant weight -> multiplicity in the
    irrep of f with doubled highest weight lam, in Fraction coordinates,
    sum-zero for A, where the norms below are Weyl-invariant,
    m(mu) = 2 sum_{a > 0} sum_{k >= 1} <mu + k a, a> m(mu + k a)
    / (|lam + rho|^2 - |mu + rho|^2)."""
    rho = closed_form_rho(f)
    roots = le._factor_roots(f)
    order = sorted(
        (internal(f, mu) for mu in le._candidates(f, lam)[1:]),
        key=lambda mu: le._dot(mu, rho),
        reverse=True,
    )
    lam = internal(f, lam)
    lr = le._vadd(lam, rho)
    lam_norm = le._dot(lr, lr)
    mult = {lam: 1}
    for mu in order:
        acc = Fraction(0)
        for a in roots:
            k = 1
            while True:
                nu = le._vadd(mu, a, k)
                m = mult.get(oracle_dominant_conjugate(f, nu), 0)
                if m == 0:
                    break
                acc += le._dot(nu, a) * m
                k += 1
        mr = le._vadd(mu, rho)
        denom = lam_norm - le._dot(mr, mr)
        assert denom > 0, mu
        val = 2 * acc / denom
        assert val.denominator == 1 and val >= 0, mu
        if val:
            mult[mu] = val.numerator
    return mult


def freudenthal_weights(f, lam):
    """The full weight multiset from the Freudenthal table, doubled
    coordinates, orbit by orbit in the order of the table."""
    full = {}
    for mu, m in freudenthal_table(f, lam).items():
        for w in le._factor_orbit(f, doubled(f, mu)):
            full[w] = m
    return full


def test_racah_matches_freudenthal_on_box():
    count = 0
    for name in BOX_ALGEBRAS:
        (f,) = le.AlgebraType.parse(name).factors
        for lam in box_weights(f):
            if le._factor_weyl_dim(f, lam) <= 200:
                assert le._factor_irrep(f, lam) == freudenthal_weights(f, lam), (f, lam)
                count += 1
    assert count == 142


@pytest.mark.parametrize("name", ATOM_NAMES)
def test_atoms_match_freudenthal_in_order(name):
    alg, lam = le._ATOM_DEFS[name]
    (f, part), = le._highest_weight_parts(alg, lam)
    # same weights, multiplicities and insertion order
    expected = list(freudenthal_weights(f, part).items())
    assert list(le.atom(name)[1].items()) == expected


def closed_form_rho(f):
    n = f.rank
    if f.family == "A":
        return tuple(Fraction(n - 2 * t, 2) for t in range(n + 1))
    if f.family == "B":
        return tuple(Fraction(2 * (n - t) - 1, 2) for t in range(n))
    return tuple(Fraction(n - 1 - t) for t in range(n))


@pytest.mark.parametrize("name", BOX_ALGEBRAS + ("A5", "B6", "D2", "D6"))
def test_rho_is_the_closed_form(name):
    (f,) = le.AlgebraType.parse(name).factors
    assert le._factor_two_rho(f) == tuple(2 * x for x in closed_form_rho(f))


@pytest.mark.parametrize(
    "alg,lam",
    [
        (le.A1, (H, 0)),
        (le.A3, (H, 0, 0, 0)),
        (le.B3, (H, 0, 0)),
        (le.D4, (H, H, H, 0)),
        (le.B3A1, (1, 0, 0, H, 0)),
    ],
)
def test_non_integral_highest_weights_are_rejected(alg, lam):
    for fn in (weyl_dim, le.irrep_weights):
        with pytest.raises(ValueError, match="not integral"):
            fn(alg, twice(lam))


@pytest.mark.parametrize("x", [H, Fraction(1, 3)])
def test_decompose_rejects_a_non_integral_highest_weight(x):
    # reflection-symmetric and of the right size; 1/2 doubles to the int
    # 1, so only the root test rejects it, and 1/3 doubles to 2/3, not an int
    d = 2 * x
    d = d.numerator if d.denominator == 1 else d
    with pytest.raises(ValueError, match="not integral"):
        le.decompose(le.A1, {(d, 0): 1, (-d, 0): 1})


def test_powers_and_tensor_reject_a_coordinate_outside_half_integers():
    # a true coordinate of 1/3 doubles to 2/3, not an int
    third = {(Fraction(2, 3), 0, 0): 1, (Fraction(-2, 3), 0, 0): 1}
    _, gamma = le.atom("Gamma")
    for op in (le.wedge_power, le.sym_power):
        with pytest.raises(ValueError, match="not integral for B3"):
            op(le.B3, third, 2)
    for a, b in ((third, gamma), (gamma, third)):
        with pytest.raises(ValueError, match="not integral for B3"):
            le.tensor(le.B3, a, b)


def test_multiset_operations_reject_a_weight_of_the_wrong_length():
    short = {(1, 0): 1, (-1, 0): 1}
    _, gamma = le.atom("Gamma")
    calls = [
        lambda: le.wedge_power(le.B3, short, 1),
        lambda: le.sym_power(le.B3, short, 1),
        lambda: le.tensor(le.B3, gamma, short),
        lambda: le.decompose(le.B3, short),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="weight has 2 coordinates, B3 needs 3"):
            call()


@pytest.mark.parametrize("x", [Fraction(1, 2), 0.5])
def test_multiset_operations_reject_a_coordinate_that_is_not_an_int(x):
    bad = {(x, 0, 0): 1, (-x, 0, 0): 1}
    _, gamma = le.atom("Gamma")
    calls = [
        lambda: le.wedge_power(le.B3, bad, 1),
        lambda: le.sym_power(le.B3, bad, 1),
        lambda: le.tensor(le.B3, gamma, bad),
        lambda: le.tensor(le.B3, bad, gamma),
        lambda: le.decompose(le.B3, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="weight is not integral for B3"):
            call()


def test_non_dominant_highest_weights_are_rejected():
    for fn in (weyl_dim, le.irrep_weights):
        with pytest.raises(ValueError, match="not dominant"):
            fn(le.B3, twice((0, 1, 0)))


def test_missing_dominant_weight_fails_the_weyl_check(monkeypatch):
    # drop the zero weight, the lowest dominant weight of the adjoint
    search = le._candidates
    monkeypatch.setattr(le, "_candidates", lambda f, lam: [mu for mu in search(f, lam) if any(mu)])
    le._factor_irrep.cache_clear()
    with pytest.raises(RuntimeError, match=r"Racah/Weyl mismatch for B3 at \(1,1,0\)"):
        le.irrep_weights(le.B3, twice((1, 1, 0)))


# ----------------------------------------------------------- dimensions


@pytest.mark.parametrize(
    "alg,lam,dim",
    [
        (le.B3, (H, H, H), 8),
        (le.B3, (1, 0, 0), 7),
        (le.B3, (1, 1, 0), 21),
        (le.B3, (1, 1, 1), 35),
        (le.B3, (2, 0, 0), 27),
        (le.D4, (H, H, H, H), 8),
        (le.D4, (1, 0, 0, 0), 8),
        (le.D4, (1, 1, 0, 0), 28),
        (le.A3, (1, 0, 0, 0), 4),
        (le.A3, (1, 1, 1, 0), 4),
        (le.A3, (1, 1, 0, 0), 6),
        (le.A1, (3, 0), 4),
    ],
)
def test_weyl_dimension_formula(alg, lam, dim):
    assert weyl_dim(alg, twice(lam)) == dim
    assert le.multiset_size(le.irrep_weights(alg, twice(lam))) == dim


# ----------------------------------------------------- Weyl invariance


def reflections(alg):
    """All simple reflections, lifted to full concatenated weights."""
    out = []
    for f, lo, hi in alg.slices:
        for r in le._factor_reflections(f):
            def lifted(w, lo=lo, hi=hi, r=r):
                return w[:lo] + r(w[lo:hi]) + w[hi:]

            out.append(lifted)
    return out


def reflection_decompose(alg, ms):
    """decompose with the symmetry check it replaced: every simple
    reflection must map the canonicalized multiset to itself; then
    Brauer-Klimyk on tuples, with the same negativity and coverage checks."""
    if any(m < 0 for m in ms.values()):
        raise le.NotARepresentation("negative input multiplicity")
    weights = {}
    for w, m in ms.items():
        if m:
            w = le.canonicalize(alg, w)
            weights[w] = weights.get(w, 0) + m
    for r in reflections(alg):
        for w, m in weights.items():
            if weights.get(r(w)) != m:
                raise le.NotARepresentation(f"a reflection moves {w}")
    shifts = [((), 1)]
    for f in alg.factors:
        shifts = [(s0 + s1, e0 * e1) for s0, e0 in shifts for s1, e1 in le._factor_shifts(f)]
    out = []
    for lam in sorted((w for w in weights if le.is_dominant(alg, w)), reverse=True):
        mult = sum(e * weights.get(le._vadd(lam, s), 0) for s, e in shifts)
        if mult < 0:
            raise le.NotARepresentation(f"negative multiplicity at {lam}")
        if mult:
            out.append((lam, mult))
    if sum(m * weyl_dim(alg, lam) for lam, m in out) != le.multiset_size(ms):
        raise le.NotARepresentation("the decomposition does not cover the weights")
    return out


def test_weight_multisets_are_reflection_invariant():
    rng = random.Random(5)
    cases = [(le.B3, (1, 1, 0)), (le.B3, (H, H, H)), (le.D4, (1, 1, 0, 0)), (le.A3, (2, 1, 0, 0))]
    for alg, lam in cases:
        ms = le.irrep_weights(alg, twice(lam))
        for _ in range(4):
            refl = rng.choice(reflections(alg))
            reflected = {}
            for w, m in ms.items():
                reflected[refl(w)] = reflected.get(refl(w), 0) + m
            assert ms_eq(reflected, ms)


ORBIT_ALGEBRAS = ("A1", "A2", "A3", "B2", "B3", "B4", "D4", "D5")


def test_orbit_sizes_and_dominant_conjugates_match_the_orbit_walk():
    # every weight with stored coordinates in -4..4 (the A-block canonical)
    # is dominant, by the sort, iff the chamber's inequalities hold; for
    # each dominant one the closed-form size is the length of the orbit,
    # and every weight of the orbit conjugates back to it
    count = 0
    for name in ORBIT_ALGEBRAS:
        alg = le.AlgebraType.parse(name)
        (f,) = alg.factors
        conjugate = le._CONJUGATE[f.family]
        for lam in product(range(-4, 5), repeat=f.ncoords):
            if f.family == "A" and lam[-1]:
                continue
            dominant = in_chamber(f, lam)
            assert le.is_dominant(alg, lam) == (conjugate(lam) == lam) == dominant, (f, lam)
            if not dominant:
                continue
            orbit = le._factor_orbit(f, lam)
            assert le._factor_orbit_size(f, lam) == len(orbit), (f, lam)
            assert all(conjugate(w) == lam for w in orbit), (f, lam)
            count += 1
    assert count == 462


def orbit(alg, w):
    """The Weyl orbit of w: the products of the factor orbits."""
    out = [()]
    for f, lo, hi in alg.slices:
        out = [v + u for v in out for u in le._factor_orbit(f, w[lo:hi])]
    return set(out)


def perturbations(rng, alg, ms):
    """ms with one orbit member dropped, with one count of a weight moved to
    a weight not conjugate to it, and with a lone dominant weight added."""
    for w in ms:
        yield {v: m for v, m in ms.items() if v != w}
    for w in ms:
        away = [v for v in [*ms, (0,) * alg.ncoords] if v not in orbit(alg, w)]
        if away:
            v = rng.choice(away)
            moved = dict(ms)
            moved[w] -= 1
            moved[v] = moved.get(v, 0) + 1
            yield moved
    highest = max(w for w in ms if le.is_dominant(alg, w))
    for lam in [w for w in ms if le.is_dominant(alg, w)] + [tuple(2 * x for x in highest)]:
        yield le.dsum(ms, {lam: 1})


def verdict(decompose, alg, ms):
    """The decomposition, or how it was refused: a failed symmetry check
    names a reflection."""
    try:
        return decompose(alg, ms)
    except le.NotARepresentation as e:
        return "reflection" in str(e)


def irrep_sum(alg, *lams):
    ms = {}
    for lam in lams:
        ms = le.dsum(ms, le.irrep_weights(alg, twice(lam)))
    return ms


SYMMETRY_CASES = {
    "B3 spin": (le.B3, irrep_sum(le.B3, (H, H, H))),
    "B3 adjoint + vector": (le.B3, irrep_sum(le.B3, (1, 1, 0), (1, 0, 0))),
    "D4 half-spin + vector": (le.D4, irrep_sum(le.D4, (H, H, H, H), (1, 0, 0, 0))),
    "D4 adjoint": (le.D4, irrep_sum(le.D4, (1, 1, 0, 0))),
    "A3 W + wedge2 W": (le.A3, irrep_sum(le.A3, (1, 0, 0, 0), (1, 1, 0, 0))),
    "A3 adjoint": (le.A3, irrep_sum(le.A3, (1, 0, 0, -1))),
    "B3+A1 spin x V2": (le.B3A1, irrep_sum(le.B3A1, (H, H, H, 1, 0))),
    "B3+A1 + vector": (le.B3A1, irrep_sum(le.B3A1, (H, H, H, 1, 0), (1, 0, 0, 0, 0))),
}


@pytest.mark.parametrize("name", SYMMETRY_CASES)
def test_symmetry_check_agrees_with_the_reflection_oracle(name):
    alg, ms = SYMMETRY_CASES[name]
    rng = random.Random(name)
    assert le.decompose(alg, ms) == reflection_decompose(alg, ms)
    verdicts = []
    for bad in perturbations(rng, alg, ms):
        got = verdict(le.decompose, alg, bad)
        assert got == verdict(reflection_decompose, alg, bad), bad
        verdicts.append(got)
    assert True in verdicts  # some perturbation failed the symmetry check


@pytest.mark.parametrize(
    "alg,ms",
    [
        (le.B3, {twice((1, 0, 0)): 1}),  # the lone dominant weight e1
        # the D4 half-spin weights, an even number of signs negative, and
        # one weight with an odd number
        (le.D4, le.dsum(le.atom("Gamma+")[1], {twice((H, H, H, -H)): 1})),
        # a regular weight of B8, whose orbit has 8! 2^8 = 10321920 weights
        (le.AlgebraType.parse("B8"), {tuple(range(16, 0, -2)): 1}),
    ],
)
def test_decompose_rejects_an_incomplete_orbit(alg, ms):
    with pytest.raises(le.NotARepresentation, match="reflection"):
        le.decompose(alg, ms)
    with pytest.raises(le.NotARepresentation, match="reflection"):
        reflection_decompose(alg, ms)


# ------------------------------------------------------------ decompose


def random_decomposition_case(rng, alg, lams):
    chosen = []
    ms = {}
    for lam in lams:
        mult = rng.randint(0, 2)
        if mult == 0:
            continue
        chosen.append((twice(lam), mult))
        for w, m in le.irrep_weights(alg, twice(lam)).items():
            ms[w] = ms.get(w, 0) + mult * m
    return chosen, ms


@pytest.mark.parametrize(
    "alg,lams",
    [
        (le.B3, [(H, H, H), (1, 0, 0), (1, 1, 0), (0, 0, 0), (1, 1, 1)]),
        (le.A3, [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (0, 0, 0, 0)]),
        (le.D4, [(H, H, H, H), (1, 0, 0, 0), (0, 0, 0, 0)]),
        (le.A1, [(0, 0), (1, 0), (2, 0), (4, 0)]),
    ],
)
def test_decompose_recovers_random_sums(alg, lams):
    rng = random.Random(42)
    for _ in range(6):
        chosen, ms = random_decomposition_case(rng, alg, lams)
        if not ms:
            continue
        got = le.decompose(alg, ms)
        assert sorted(got) == sorted(chosen)
        assert got == oracle_decompose(alg, ms)
        assert ms_eq(reconstruct(alg, got), ms)


def reconstruct(alg, decomposition):
    """mult copies of the weight system of each (lam, mult), summed."""
    ms = {}
    for lam, mult in decomposition:
        for w, m in le.irrep_weights(alg, lam).items():
            ms[w] = ms.get(w, 0) + mult * m
    return ms


def test_decompose_rejects_non_representation():
    ms = dict(le.irrep_weights(le.B3, twice((1, 1, 0))))
    key = next(iter(ms))
    del ms[key]
    with pytest.raises(le.NotARepresentation):
        le.decompose(le.B3, ms)


def test_decompose_rejects_negative_virtual_content():
    ms = dict(le.irrep_weights(le.B3, twice((1, 0, 0))))
    ms[twice((2, 0, 0))] = 1  # stray high weight
    with pytest.raises(le.NotARepresentation):
        le.decompose(le.B3, ms)


def test_decompose_rejects_a_multiset_a_reflection_does_not_preserve():
    # the B3 vector weights with -e1 moved to -e2: the right size, and
    # Brauer-Klimyk alone (like the greedy oracle) reads it as (1,0,0)
    ms = dict(le.irrep_weights(le.B3, twice((1, 0, 0))))
    del ms[twice((-1, 0, 0))]
    ms[twice((0, -1, 0))] += 1
    with pytest.raises(le.NotARepresentation, match="reflection"):
        le.decompose(le.B3, ms)
    # an A-block: sym^2 of V2 with (-2,0) moved to (-1,0)
    ms = twice_ms({(2, 0): 1, (0, 0): 1, (-1, 0): 1})
    with pytest.raises(le.NotARepresentation, match="reflection"):
        le.decompose(le.A1, ms)
    # a zero multiplicity is no weight, so it needs no reflected partner
    ms = dict(le.irrep_weights(le.B3, twice((1, 0, 0))))
    ms[twice((5, 0, 0))] = 0
    assert le.decompose(le.B3, ms) == [(twice((1, 0, 0)), 1)]


def test_decompose_canonicalizes_a_block_weights():
    # V2 written in sum-zero coordinates: the weights canonicalize to
    # (2,0) and (-2,0), so it is the standard rep, not a failed reflection
    assert le.decompose(le.A1, {(1, -1): 1, (-1, 1): 1}) == [((2, 0), 1)]
    # two spellings of one weight merge their multiplicities
    assert le.decompose(le.A1, {(2, 0): 1, (1, -1): 1, (-1, 1): 2}) == [((2, 0), 2)]


def test_decompose_canonicalizes_only_a_blocks_and_sizes_each_orbit_once(monkeypatch):
    alg, ms = le.parse_expr("wedge(4, Gamma (+) Gamma)")
    canon = []
    monkeypatch.setattr(le, "_canon", lambda *args: canon.append(args))
    le._factor_orbit_size.cache_clear()
    got = le.decompose(alg, ms)
    dominant = {w for w in ms if le._b_conjugate(w) == w}
    assert le._factor_orbit_size.cache_info().misses == len(dominant)
    assert le.decompose(alg, ms) == got
    # the second call computed no orbit size again
    assert le._factor_orbit_size.cache_info().misses == len(dominant)
    assert canon == []


def test_decompose_rejects_a_symmetric_virtual_character():
    # adjoint + (2,0,0) - vector: Weyl-symmetric with non-negative
    # multiplicities, but the vector irrep occurs -1 times
    ms = le.dsum(
        le.irrep_weights(le.B3, twice((1, 1, 0))), le.irrep_weights(le.B3, twice((2, 0, 0)))
    )
    for w, m in le.irrep_weights(le.B3, twice((1, 0, 0))).items():
        ms[w] -= m
    assert min(ms.values()) >= 0
    with pytest.raises(le.NotARepresentation, match=r"negative multiplicity at \(1,0,0\)"):
        le.decompose(le.B3, ms)


# ------------------------------------- subset walks and greedy stripping


def oracle_sum(alg, ws):
    total = [0] * alg.ncoords
    for w in ws:
        for t, x in enumerate(w):
            total[t] += x
    return le.canonicalize(alg, total)


def oracle_power(alg, ms, k, walk):
    """Every k-subset (combinations) or k-multiset (combinations_with_
    replacement) of the weights of ms, listed with multiplicity."""
    items = [w for w, m in sorted(ms.items()) for _ in range(m)]
    out = {}
    for combo in walk(items, k):
        w = oracle_sum(alg, combo)
        out[w] = out.get(w, 0) + 1
    return out


def oracle_dominant_table(alg, lam):
    """dominant weight -> multiplicity of the irrep of highest weight lam,
    from the weight systems of the factors."""
    table = {(): 1}
    for f, part in le._highest_weight_parts(alg, lam):
        mult = {w: m for w, m in le._factor_irrep(f, part).items() if in_chamber(f, w)}
        table = {w + mu: m0 * m for w, m0 in table.items() for mu, m in mult.items()}
    return table


def oracle_decompose(alg, ms):
    """Strip the lexicographically largest dominant weight with its full
    dominant table until nothing is left."""
    dom = {w: m for w, m in ms.items() if m and le.is_dominant(alg, w)}
    out = []
    while dom:
        lam = max(dom)
        mult = dom[lam]
        assert mult > 0, lam
        out.append((lam, mult))
        for mu, m in oracle_dominant_table(alg, lam).items():
            left = dom.get(mu, 0) - mult * m
            assert left >= 0, mu
            if left:
                dom[mu] = left
            else:
                dom.pop(mu, None)
    assert sum(m * weyl_dim(alg, lam) for lam, m in out) == le.multiset_size(ms)
    return out


def assert_power_matches_oracle(alg, ms, k, sym):
    if sym:
        op, walk = le.sym_power, combinations_with_replacement
    else:
        op, walk = le.wedge_power, combinations
    got = op(alg, ms, k)
    assert got == oracle_power(alg, ms, k, walk)
    assert le.decompose(alg, got) == oracle_decompose(alg, got)


@pytest.mark.parametrize("name", ATOM_NAMES)
def test_powers_of_doubled_atoms_match_oracles(name):
    alg, a = le.atom(name)
    two = le.dsum(a, a)
    for k in range(5):
        assert_power_matches_oracle(alg, two, k, sym=False)
        assert_power_matches_oracle(alg, two, k, sym=True)


@pytest.mark.parametrize("k", range(9))
def test_wedge_of_doubled_spin_matches_oracles(k):
    alg, gamma = le.atom("Gamma")
    assert_power_matches_oracle(alg, le.dsum(gamma, gamma), k, sym=False)


def test_sym_of_spin_matches_oracles():
    alg, gamma = le.atom("Gamma")
    for k in range(4):
        assert_power_matches_oracle(alg, gamma, k, sym=True)


def test_lemma68_wedge_matches_oracles():
    alg, big = le.box_tensor(le.B3, le.atom("Gamma")[1], le.A1, le.atom("V2")[1])
    assert_power_matches_oracle(alg, big, 4, sym=False)


def test_powers_reject_bad_exponents():
    _, gamma = le.atom("Gamma")
    for op in (le.wedge_power, le.sym_power):
        with pytest.raises(ValueError, match="negative"):
            op(le.B3, gamma, -1)
    with pytest.raises(ValueError, match="exceeds dimension 8"):
        le.wedge_power(le.B3, gamma, 9)


def test_powers_reject_a_negative_multiplicity():
    # a negative count is no weight of a representation: the power loop
    # would skip it, and the complement would fold it into sigma
    mixed = {twice((1, 0, 0)): -1, (0, 0, 0): 3}
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="negative input multiplicity"):
            le.wedge_power(le.B3, mixed, k)
    for k in (0, 2):
        with pytest.raises(ValueError, match="negative input multiplicity"):
            le.sym_power(le.B3, {twice((1, 0, 0)): -1}, k)
    # a zero count is no weight either, and adds nothing to sigma
    zero = {twice((1, 0, 0)): 0, (0, 0, 0): 3}
    assert le.wedge_power(le.B3, zero, 3) == {(0, 0, 0): 1}
    assert le.sym_power(le.B3, zero, 2) == {(0, 0, 0): 6}


def weight_sum(alg, ms):
    """sigma, the sum of the weights of ms with multiplicity."""
    return tuple(sum(m * w[t] for w, m in ms.items()) for t in range(alg.ncoords))


COMPLEMENT_CASES = {
    "Gamma (+) Gamma": le.parse_expr("Gamma (+) Gamma"),
    "Gamma (+) Gamma (+) Gamma": le.parse_expr("Gamma (+) Gamma (+) Gamma"),
    "W (+) W*": le.parse_expr("W (+) W*"),
    # a Weyl-symmetric multiset has a W-invariant sigma, 0 on A3; one
    # more e1 makes sigma the nonzero canonical weight e1
    "W (+) W* + e1": (le.A3, le.dsum(le.parse_expr("W (+) W*")[1], {twice((1, 0, 0, 0)): 1})),
    "lemma68 box": le.box_tensor(le.B3, le.atom("Gamma")[1], le.A1, le.atom("V2")[1]),
    # no reflection preserves it, and a zero count rides along
    "planted": (
        le.B3,
        {(3, -1, 2): 2, (0, 2, 0): 1, (1, 1, 1): 1, (-4, 0, 1): 3, (5, 5, 5): 0},
    ),
}


@pytest.mark.parametrize("name", COMPLEMENT_CASES)
def test_wedge_power_past_half_the_size_is_the_direct_level(name):
    """Every degree against the generating function run straight to it:
    levels[k] of one pass to degree n is what a pass to degree k ends in."""
    alg, ms = COMPLEMENT_CASES[name]
    n = le.multiset_size(ms)
    levels, unpack = le._powers(alg, ms, n, sym=False)
    for k in range(n + 1):
        assert le.wedge_power(alg, ms, k) == {unpack(w): c for w, c in levels[k].items()}, k
    sigma = weight_sum(alg, ms)
    assert le.wedge_power(alg, ms, n) == {sigma: 1}
    if name == "W (+) W* + e1":
        assert sigma == twice((1, 0, 0, 0))


def test_wedge_power_never_runs_the_powers_past_half_the_size(monkeypatch):
    alg, ms = COMPLEMENT_CASES["Gamma (+) Gamma"]
    degrees = []
    real = le._powers

    def powers(alg, ms, k, sym):
        degrees.append(k)
        return real(alg, ms, k, sym)

    monkeypatch.setattr(le, "_powers", powers)
    for k in range(17):
        le.wedge_power(alg, ms, k)
    assert degrees == [*range(9), *range(7, -1, -1)]


@pytest.mark.parametrize("k", range(17))
def test_complementary_wedges_of_doubled_spin_decompose_alike(k):
    # the representations of so(7) are self-dual, so wedge^(16-k) =
    # (wedge^k)* (x) det is wedge^k; det is trivial, sigma being 0
    alg, ms = COMPLEMENT_CASES["Gamma (+) Gamma"]
    assert le.decompose(alg, le.wedge_power(alg, ms, 16 - k)) == le.decompose(
        alg, le.wedge_power(alg, ms, k)
    )


@pytest.mark.parametrize(
    "name,order", [("A1", 2), ("A3", 24), ("A4", 120), ("B2", 8), ("B3", 48), ("D4", 192), ("D5", 1920)]
)
def test_weyl_shifts_list_the_group_once_with_its_signs(name, order):
    (f,) = le.AlgebraType.parse(name).factors
    shifts = le._factor_shifts(f)
    assert len(shifts) == len({s for s, _ in shifts}) == order
    assert sorted(e for _, e in shifts) == [-1] * (order // 2) + [1] * (order // 2)
    # the identity, and each simple reflection (shift a simple root, sign -1)
    assert ((0,) * f.ncoords, 1) in shifts
    rho = le._factor_two_rho(f)
    if f.family == "A":
        rho = le._a_canon(rho)
    for r in le._factor_reflections(f):
        assert (le._vadd(rho, r(rho), -1), -1) in shifts
    # the oracle: sign w = (-1)^#{a > 0 : <w rho, a> < 0}, counted on the
    # roots, and the orbit of rho in _factor_orbit's order
    orbit = [le._vadd(rho, s, -1) for s, _ in shifts]
    assert orbit == le._factor_orbit(f, rho)
    for w, (_, e) in zip(orbit, shifts):
        neg = sum(1 for a in le._factor_roots(f) if le._dot(w, a) < 0)
        assert e == (-1) ** neg, w


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "A5", "B1", "B2", "B3", "B4", "D2", "D3", "D4", "D5"]
)
def test_weyl_shifts_match_signed_permutations_with_their_determinants(name):
    # W is the permutations of the coordinates for A, with all sign changes
    # for B and the even ones for D; w maps v to (eps_i v_perm(i))_i, whose
    # matrix has determinant sign(perm) * prod(eps)
    (f,) = le.AlgebraType.parse(name).factors
    n = f.ncoords
    rho = le._factor_two_rho(f)
    if f.family == "A":
        rho = le._a_canon(rho)
    brute = []
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        for eps in [(1,) * n] if f.family == "A" else product((1, -1), repeat=n):
            if f.family == "D" and prod(eps) < 0:
                continue
            w_rho = tuple(e * rho[p] for e, p in zip(eps, perm))
            if f.family == "A":
                w_rho = le._a_canon(w_rho)
            brute.append((le._vadd(rho, w_rho, -1), (-1) ** inversions * prod(eps)))
    assert sorted(le._factor_shifts(f)) == sorted(brute)


def spin_row(m):
    """invariant dims and sizes of wedge^k(Gamma^m), k = 0..8m, from one
    generating-function pass."""
    alg, gamma = le.atom("Gamma")
    ms = {}
    for _ in range(m):
        ms = le.dsum(ms, gamma)
    levels, unpack = le._powers(alg, ms, 8 * m, sym=False)
    levels = [{unpack(w): c for w, c in p.items()} for p in levels]
    return [le.invariant_dim(alg, p) for p in levels], [le.multiset_size(p) for p in levels]


def test_doubled_spin_row_is_pinned_in_every_degree():
    inv, sizes = spin_row(2)
    assert inv == [1, 0, 1, 0, 6, 0, 6, 0, 16, 0, 6, 0, 6, 0, 1, 0, 1]
    assert sizes == [comb(16, k) for k in range(17)]
    assert sum(sizes) == 2**16


def test_tripled_spin_row_is_pinned_in_every_degree():
    inv, sizes = spin_row(3)
    assert inv[:13] == [1, 0, 3, 0, 21, 0, 55, 0, 165, 0, 231, 0, 309]
    assert inv == inv[::-1]
    assert sizes == [comb(24, k) for k in range(25)]
    assert sum(sizes) == 2**24


# ------------------------------------------------------- the weight format


def all_ints(weights):
    return all(type(x) is int for w in weights for x in w)


@pytest.mark.parametrize("name", ATOM_NAMES)
def test_every_returned_coordinate_is_an_int(name):
    alg, lam = le._ATOM_DEFS[name]
    ms = le.irrep_weights(alg, lam)
    assert all_ints(ms)
    for k in range(3):
        assert all_ints(le.wedge_power(alg, ms, k))
        assert all_ints(le.sym_power(alg, ms, k))
    t = le.tensor(alg, ms, ms)
    assert all_ints(t)
    assert all_ints(lam for lam, _ in le.decompose(alg, t))
    assert all_ints(lam for lam, _ in le.decompose(alg, le.wedge_power(alg, le.dsum(ms, ms), 2)))


def test_no_fraction_is_made_by_a_decomposition(monkeypatch):
    # from the atoms through the power to the constituents, ints only;
    # the Racah tables are built again, not read from the cache
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 2)
    assert made == [(1, 2)]
    made.clear()
    le._factor_irrep.cache_clear()
    got = le.decompose(*le.parse_expr("wedge(4, Gamma (+) Gamma)"))
    assert made == []
    assert dict(got)[(0, 0, 0)] == 6


def test_weight_text_renders_true_coordinates():
    assert le.weight_text((3, 1, 1)) == ("3/2", "1/2", "1/2")
    assert le.weight_text((-5, 0, 4, -2)) == ("-5/2", "0", "2", "-1")
    assert le.weight_text(()) == ()


# ---------------------------------------------------------- packed weights


PACK_CASES = {
    "negative": (le.B3, [twice(w) for w in [(-3, 1, -2), (2, -2, 0), (0, 0, -1)]]),
    "half-integer": (le.B3, list(le.atom("Gamma")[1])),
    "A-block": (le.A3, list(le.atom("W")[1]) + list(le.atom("W*")[1])),
    "B3+A1": (le.B3A1, list(le.box_tensor(le.B3, le.atom("Gamma")[1], le.A1, le.atom("V2")[1])[1])),
}


@pytest.mark.parametrize("reach", [1, 2, 3])
@pytest.mark.parametrize("name", PACK_CASES)
def test_packer_round_trips_and_adds_up_to_its_reach(name, reach):
    alg, ws = PACK_CASES[name]
    ws = [le.canonicalize(alg, w) for w in ws]
    pack, unpack = le._packer(ws, reach)
    seen = {}
    for j in range(reach + 1):
        for combo in combinations_with_replacement(ws, j):
            total = oracle_sum(alg, combo)
            p = sum(pack(w) for w in combo)
            assert p == pack(total)
            got = unpack(p)
            assert got == total and all(type(x) is int for x in got)
            assert seen.setdefault(p, total) == total  # no two sums share an int


def test_sym_power_of_v2_at_a_large_degree_is_the_closed_form():
    alg, v2 = le.atom("V2")
    got = le.sym_power(alg, v2, 10)
    assert list(got.items()) == [(twice((10 - 2 * i, 0)), 1) for i in range(11)]


@pytest.mark.parametrize("alg", [le.B3, le.A3, le.B3A1])
def test_trivial_multiset_passes_through_every_operation(alg):
    zero = (0,) * alg.ncoords
    triv = {zero: 3}
    assert le.wedge_power(alg, triv, 0) == {zero: 1}
    assert le.wedge_power(alg, triv, 2) == {zero: 3}
    assert le.wedge_power(alg, triv, 3) == {zero: 1}
    assert le.sym_power(alg, triv, 4) == {zero: comb(6, 4)}
    assert le.tensor(alg, triv, triv) == {zero: 9}
    assert le.decompose(alg, triv) == [(zero, 3)]
    assert le.invariant_dim(alg, triv) == 3


def oracle_tensor(alg, a, b):
    out = {}
    for w0, m0 in a.items():
        for w1, m1 in b.items():
            w = oracle_sum(alg, (w0, w1))
            out[w] = out.get(w, 0) + m0 * m1
    return out


_GAMMA = le.atom("Gamma")[1]
_W2 = le.wedge_power(le.B3, _GAMMA, 2)
_BIG = le.box_tensor(le.B3, _GAMMA, le.A1, le.atom("V2")[1])[1]
TENSOR_CASES = {
    "Gamma x Gamma": (le.B3, _GAMMA, _GAMMA),
    "wedge2 x wedge2": (le.B3, _W2, _W2),
    "V x Gamma": (le.B3, le.atom("V")[1], _GAMMA),
    "Gamma+ x Gamma+": (le.D4, le.atom("Gamma+")[1], le.atom("Gamma+")[1]),
    "W x W*": (le.A3, le.atom("W")[1], le.atom("W*")[1]),
    "sym3 V2 x V2": (le.A1, le.sym_power(le.A1, le.atom("V2")[1], 3), le.atom("V2")[1]),
    "B3+A1 square": (le.B3A1, _BIG, _BIG),
    "empty x Gamma": (le.B3, {}, _GAMMA),
}


@pytest.mark.parametrize("name", TENSOR_CASES)
def test_tensor_matches_the_tuple_loop_oracle(name):
    alg, a, b = TENSOR_CASES[name]
    got = le.tensor(alg, a, b)
    # same weights, counts and insertion order
    assert list(got.items()) == list(oracle_tensor(alg, a, b).items())


# --------------------------------------------------- product operations


def test_tensor_size_and_schur_invariant():
    _, gamma = le.atom("Gamma")
    t = le.tensor(le.B3, gamma, gamma)
    assert le.multiset_size(t) == 64
    assert le.invariant_dim(le.B3, t) == 1  # self-dual irreducible


def dual(alg, ms):
    """The weight multiset of the dual representation: every weight negated."""
    out = {}
    for w, m in ms.items():
        neg = le.canonicalize(alg, tuple(-x for x in w))
        out[neg] = out.get(neg, 0) + m
    return out


def test_dual_pairing_has_one_invariant():
    _, w = le.atom("W")
    ws = dual(le.A3, w)
    assert le.invariant_dim(le.A3, le.tensor(le.A3, w, ws)) == 1
    assert le.invariant_dim(le.A3, le.tensor(le.A3, w, w)) == 0


def test_wedge_and_sym_sizes():
    _, gamma = le.atom("Gamma")
    assert le.multiset_size(le.wedge_power(le.B3, gamma, 2)) == 28
    assert le.multiset_size(le.sym_power(le.B3, gamma, 2)) == 36
    assert le.multiset_size(le.wedge_power(le.B3, gamma, 8)) == 1
    with pytest.raises(ValueError):
        le.wedge_power(le.B3, gamma, 9)


def test_wedge_sym_square_partition_tensor():
    _, gamma = le.atom("Gamma")
    t = le.tensor(le.B3, gamma, gamma)
    w2 = le.wedge_power(le.B3, gamma, 2)
    s2 = le.sym_power(le.B3, gamma, 2)
    assert ms_eq(t, le.dsum(w2, s2))


def test_box_tensor_concatenates_weights():
    _, gamma = le.atom("Gamma")
    _, v2 = le.atom("V2")
    alg, bt = le.box_tensor(le.B3, gamma, le.A1, v2)
    assert le.multiset_size(bt) == 16
    assert all(len(w) == 5 for w in bt)
    assert alg.factors == le.B3A1.factors


def test_restriction_d4_to_b3_of_half_spin_is_spin():
    _, gp = le.atom("Gamma+")
    # B3 inside D4 fixes the last coordinate: drop it
    res = {}
    for w, m in gp.items():
        res[w[:3]] = res.get(w[:3], 0) + m
    assert le.decompose(le.B3, res) == [(twice((H, H, H)), 1)]


def test_restriction_b3_to_d3_of_spin():
    _, gamma = le.atom("Gamma")
    d3 = le.AlgebraType.parse("D3")
    # D3 inside B3 keeps the coordinates: the same multiset
    parts = le.decompose(d3, gamma)
    dims = []
    for lam, mult in parts:
        dims.extend([weyl_dim(d3, lam)] * mult)
    assert sorted(dims) == [4, 4]


# ------------------------------------------------------ frozen content


def decomp_str(alg, ms):
    parts = le.decompose(alg, ms)
    return " + ".join(
        "(" + ",".join(le.weight_text(lam)) + ")" + (f"*{m}" if m > 1 else "")
        for lam, m in parts
    )


def test_spin8_wedge_square_content():
    _, gamma = le.atom("Gamma")
    assert decomp_str(le.B3, le.wedge_power(le.B3, gamma, 2)) == "(1,1,0) + (1,0,0)"


def test_spin8_sym_square_content():
    _, gamma = le.atom("Gamma")
    assert decomp_str(le.B3, le.sym_power(le.B3, gamma, 2)) == "(1,1,1) + (0,0,0)"


def test_spin8_fourth_wedge_content():
    _, gamma = le.atom("Gamma")
    assert (
        decomp_str(le.B3, le.wedge_power(le.B3, gamma, 4))
        == "(2,0,0) + (1,1,1) + (1,0,0) + (0,0,0)"
    )


def test_atom_names_frozen():
    assert ATOM_NAMES == ["Gamma", "Gamma+", "V", "V2", "W", "W*"]
    with pytest.raises(ValueError, match=re.escape(f"have {ATOM_NAMES}")):
        le.atom("nope")


@pytest.mark.parametrize("name", report.SCENARIOS)
def test_all_scenarios_pass(name):
    rep = report.scenario_report(name)
    assert rep["ok"], rep
    assert all(row["ok"] for row in rep["rows"])
    readout, rows = report.SCENARIOS[name]
    assert [(r["claim"], r["computed"]) for r in rep["rows"]] == [
        (claim, getattr(le, readout)(*le.parse_expr(expr), *args))
        for claim, expr, _, *args in rows
    ]


def test_scenario_report_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown scenario 'nope'"):
        report.scenario_report("nope")


def test_gl2_row_reads_the_weight_it_names(monkeypatch):
    # two copies of V2 in the degree-4 row: the middle power is the
    # trivial line, so the named 5-dim constituent is absent and the row fails
    readout, rows = report.SCENARIOS["gl2_summand"]
    claim, _, want, lam = rows[1]
    assert lam == twice((4, 0))
    broken = [*rows[:1], (claim, "wedge(4, V2 (+) V2)", want, lam), *rows[2:]]
    monkeypatch.setitem(report.SCENARIOS, "gl2_summand", (readout, broken))
    rep = report.scenario_report("gl2_summand")
    assert [(r["computed"], r["ok"]) for r in rep["rows"]] == [
        (1, True), (0, False), (1, True), (1, True)
    ]
    assert rep["ok"] is False


def test_scenario_expected_values_have_one_home(monkeypatch):
    # report.SCENARIOS becomes the claim rows at import, and the scenario
    # report reads it when it runs
    for name, (_, rows) in report.SCENARIOS.items():
        claim = next(c for c in report.CLAIMS if c.claim_id == f"lie.scenario_{name}")
        values = tuple(row[2] for row in rows)
        assert claim.expected == (values if len(values) > 1 else values[0])
    want = (1, 1, 1, 9)
    monkeypatch.setattr(report, "CLAIMS", tuple(
        report.Claim(c.claim_id, c.statement, want, c.compute, status=c.status, typo=c.typo)
        if c.claim_id == "lie.scenario_so8_hodge" else c
        for c in report.CLAIMS
    ))
    rec = next(r for r in report.run_suite("lie") if r.claim_id == "lie.scenario_so8_hodge")
    assert (rec.expected, rec.computed, rec.status) == (str(want), "(1, 1, 1, 10)", report.FAIL)
    readout, rows = report.SCENARIOS["so8_hodge"]
    monkeypatch.setitem(report.SCENARIOS, "so8_hodge", (readout, [
        (claim, expr, w, *args) for (claim, expr, _, *args), w in zip(rows, want)
    ]))
    rep = report.scenario_report("so8_hodge")
    assert [(r["expected"], r["ok"]) for r in rep["rows"]] == [
        (1, True), (1, True), (1, True), (9, False)
    ]
    assert rep["ok"] is False


def test_parse_expr_shapes():
    alg, ms = le.parse_expr("wedge(4, Gamma (+) Gamma)")
    assert le.multiset_size(ms) == 1820
    alg2, ms2 = le.parse_expr("sym(2, V2)")
    assert le.multiset_size(ms2) == 3
    with pytest.raises(ValueError):
        le.parse_expr("wedge(2, Nope)")
    with pytest.raises(ValueError):
        le.parse_expr("Gamma (+")
