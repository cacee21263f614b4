"""Word calculus, twist moves, and the homomorphism census.

Census oracles are computed in this file from first principles: the
count of relator-satisfying tuples comes from the character-degree
formula for the 8-element quaternion group (four degree-1 characters
and one degree-2), and the non-surjective count from inclusion and
exclusion over the three maximal cyclic subgroups.  The same counts in
closed form (Mednykh; Hall's Moebius inversion) gate the packed census.

``eval_word`` multiplies through the position tables; it is gated
against the fold of qmul and qinv kept here as the oracle.  The census's
closed-form counts are gated against the character formula and the
surjections listed here through qmul, and the seeds it streams against
that list.

The packed move tables and the packed normalization search are gated
against the tuple-level path: ``apply_move`` on HomTuples, and a
breadth-first search over HomTuples kept here as the oracle.  The
normalization's distance table is gated by the Bellman equation over the
genus-2 orbit and against the packed forward search.  The census
orbits, searched over Aut(Q)-classes and rebuilt from their labels, are
gated against the packed breadth-first search over every move; the
automorphism tables against a brute-force search for Aut(Q) through qmul.
"""

import random
import re
import tracemalloc
from collections import deque
from fractions import Fraction
from functools import cache
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from quatprym import surface_homs as sh
from quatprym.qalg import Q8_INDEX, QUAT_GROUP, qinv, qmul


# ------------------------------------------------------------ word calculus


def cyclic_reduce(w):
    w = sh.reduce_word(w)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def words_conjugate(u, v) -> bool:
    """Conjugacy test in a free group: equal cyclic reductions up to rotation."""
    u = cyclic_reduce(u)
    v = cyclic_reduce(v)
    if len(u) != len(v):
        return False
    if not u:
        return True
    return any(v[i:] + v[:i] == u for i in range(len(v)))


letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
words = st.lists(letters, min_size=0, max_size=8).map(tuple)


@given(words)
def test_reduce_strips_all_cancellations(w):
    r = sh.reduce_word(w)
    assert all(r[i] != -r[i + 1] for i in range(len(r) - 1))
    # reducing again changes nothing
    assert sh.reduce_word(r) == r


@given(words)
def test_inverse_concatenation_reduces_to_empty(w):
    assert sh.reduce_word(sh.concat_words(w, sh.inv_word(w))) == ()


@given(words, words)
def test_inverse_reverses_products(u, v):
    lhs = sh.inv_word(sh.concat_words(u, v))
    rhs = sh.concat_words(sh.inv_word(v), sh.inv_word(u))
    assert sh.reduce_word(lhs) == sh.reduce_word(rhs)


@given(words, words)
def test_conjugates_are_recognized(w, c):
    assert words_conjugate(sh.conj_word(w, c), w)


def test_non_conjugate_pair_rejected():
    assert not words_conjugate((1,), (2,))
    assert not words_conjugate((1, 1), (1,))


def test_surface_relator_shape():
    r = sh.surface_relator(2)
    assert r == (1, 3, -1, -3, 2, 4, -2, -4)
    assert len(sh.surface_relator(5)) == 20


# ----------------------------------------------------- evaluation of words

group_elem = st.sampled_from(QUAT_GROUP)


@given(st.lists(group_elem, min_size=4, max_size=4), words, words)
def test_eval_word_is_a_homomorphism(imgs, u, v):
    h = sh.HomTuple(2, tuple(imgs))
    uv = sh.concat_words(u, v)
    assert sh.eval_word(h, uv) == qmul(sh.eval_word(h, u), sh.eval_word(h, v))


@given(st.lists(group_elem, min_size=4, max_size=4), words)
def test_eval_word_respects_inverses(imgs, w):
    h = sh.HomTuple(2, tuple(imgs))
    assert sh.eval_word(h, sh.inv_word(w)) == qinv(sh.eval_word(h, w))


def eval_word_oracle(h, w):
    """eval_word as a fold of qmul and qinv over the images."""
    acc = (1, 0)
    for x in w:
        img = h.images[abs(x) - 1]
        acc = qmul(acc, img if x > 0 else qinv(img))
    return acc


def test_eval_word_matches_the_qmul_fold_on_every_genus2_tuple():
    rng = random.Random(43)
    letters = [-4, -3, -2, -1, 1, 2, 3, 4]
    ws = [(), (-1,), (2, -2), sh.surface_relator(2)]
    ws += [tuple(rng.choice(letters) for _ in range(rng.randrange(1, 9))) for _ in range(20)]
    assert sum(x < 0 for w in ws for x in w) > 20
    for imgs in product(QUAT_GROUP, repeat=4):
        h = sh.HomTuple(2, imgs)
        assert [sh.eval_word(h, w) for w in ws] == [eval_word_oracle(h, w) for w in ws], imgs


@pytest.mark.parametrize("x", [0, 5, -5])
def test_eval_word_rejects_letters_out_of_range(x):
    with pytest.raises(ValueError, match=f"generator index {x} out of range for genus 2"):
        sh.eval_word(sh.standard_hom(2), (1, x))


# ----------------------------------------------------------------- moves


def move_fixes_relator_class(mv):
    r = sh.surface_relator(mv.g)
    return words_conjugate(mv.substitute(r), r)


@pytest.mark.parametrize("g", [2, 3])
def test_every_move_fixes_the_relator_class(g):
    for mv in sh.move_set(g):
        assert move_fixes_relator_class(mv), mv.kind


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_move_set_is_handle_moves_then_conjugations(g):
    conjugations = [sh.conj_move(g, (t,)) for t in range(1, 2 * g + 1)]
    assert sh.move_set(g) == sh.handle_moves(g) + conjugations
    assert len(sh.handle_moves(g)) == 4 * g - 1


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_psi_moves_valid_for_all_indices(g):
    for k in range(1, g):
        assert sh.verify_psi_in_Ag(g, k)


@given(st.lists(group_elem, min_size=4, max_size=4), st.data())
def test_moves_preserve_validity_and_surjectivity(imgs, data):
    h = sh.HomTuple(2, tuple(imgs))
    before = sh.classify_hom(h)
    moves = sh.move_set(2)
    for _ in range(3):
        h = sh.apply_move(h, data.draw(st.sampled_from(moves)))
    after = sh.classify_hom(h)
    assert after == before


# ------------------------------------------------- packed tuples and tables


def unpack_images(p, g):
    """The inverse of sh.pack_images for a genus-g tuple."""
    return tuple(QUAT_GROUP[p >> 3 * t & 7] for t in range(2 * g))


def compiled_images(h):
    """The images of h under move_set(h.g), through the compiled tables."""
    _, compiled = sh._compiled_moves(h.g)
    return [unpack_images(q, h.g) for q in sh._successors(sh.pack_images(h.images), compiled)]


def moved_images(h):
    return [sh.apply_move(h, mv).images for mv in sh.move_set(h.g)]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_compiled_moves_follow_move_set_order(g):
    moves, compiled = sh._compiled_moves(g)
    assert moves == tuple(sh.move_set(g))
    assert len(compiled) == len(moves)


def test_pack_round_trip():
    for imgs in product(QUAT_GROUP, repeat=2):
        p = sh.pack_images(imgs)
        assert 0 <= p < 8**2
        assert unpack_images(p, 1) == imgs
    assert sh.pack_images(sh.standard_hom(2).images) == 2 | 4 << 3


def test_compiled_moves_match_apply_move_on_every_genus2_tuple():
    for imgs in product(QUAT_GROUP, repeat=4):
        h = sh.HomTuple(2, imgs)
        assert compiled_images(h) == moved_images(h), imgs


def test_compiled_moves_match_apply_move_on_genus3_sample():
    rng = random.Random(31)
    for _ in range(3000):
        h = sh.HomTuple(3, tuple(rng.choice(QUAT_GROUP) for _ in range(6)))
        assert compiled_images(h) == moved_images(h), h.images


def test_compile_rejects_words_on_four_generators():
    mv = sh.Move("WIDE", 2, ((1, 2, 3, 4), (2,), (3,), (4,)))
    with pytest.raises(ValueError, match="names more than three generators"):
        sh._compile_move(mv)


@pytest.mark.parametrize("x", [0, 5, -5])
def test_compile_rejects_letters_out_of_range(x):
    mv = sh.Move("OUT", 2, ((1, x), (2,), (3,), (4,)))
    with pytest.raises(ValueError, match=f"generator index {x} out of range for genus 2"):
        sh._compile_move(mv)


# ----------------------------------------------------------------- census


def character_count(g):
    """Number of relator-satisfying tuples, from character degrees."""
    degrees = [1, 1, 1, 1, 2]
    total = sum(Fraction(8) ** (2 * g - 1) / Fraction(d) ** (2 * g - 2) for d in degrees)
    assert total.denominator == 1
    return int(total)


def non_surjective_count(g):
    """Inclusion-exclusion over the three maximal (cyclic, order 4)
    subgroups; all pairwise and triple intersections are the center."""
    return 3 * 4 ** (2 * g) - 3 * 2 ** (2 * g) + 2 ** (2 * g)


def mednykh_count(g):
    """|Hom(pi_1, Q8)| in closed form: 8 (4 8^(2g-2) + 4^(2g-2))."""
    return 8 * (4 * 8 ** (2 * g - 2) + 4 ** (2 * g - 2))


def hall_surjective_count(g):
    """Surjections by Hall's Moebius inversion over the subgroups of Q8."""
    return mednykh_count(g) - 3 * 4 ** (2 * g) + 2 * 2 ** (2 * g)


def test_census_formulas_have_expected_values():
    assert character_count(2) == 2176
    assert character_count(3) == 133120
    assert non_surjective_count(2) == 736
    assert non_surjective_count(3) == 12160
    for g in (1, 2, 3, 4):
        assert mednykh_count(g) == character_count(g)
        assert hall_surjective_count(g) == character_count(g) - non_surjective_count(g)
    assert [hall_surjective_count(g) for g in (1, 2, 3)] == [0, 1440, 120960]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_census_matches_closed_forms(g):
    rep = sh.enumerate_surjections(g)
    assert rep.genus == g
    assert rep.total == 8 ** (2 * g)
    assert rep.valid == mednykh_count(g)
    assert rep.surjective == hall_surjective_count(g)
    assert sum(rep.orbit_sizes) == rep.surjective
    if g == 3:
        assert rep.orbit_sizes == (120960,)
        assert rep.standard_orbit_size == 120960


def test_census_genus0_is_the_trivial_hom():
    assert sh.enumerate_surjections(0) == sh.EnumReport(0, 1, 1, 0, (), 0)


@pytest.mark.parametrize("g", [-1, 4])
def test_census_rejects_unsupported_genus(g):
    with pytest.raises(ValueError):
        sh.enumerate_surjections(g)


def test_genus1_has_no_surjections():
    surj = 0
    for imgs in product(QUAT_GROUP, repeat=2):
        c = sh.classify_hom(sh.HomTuple(1, imgs))
        if c["valid"] and c["surjective"]:
            surj += 1
    assert surj == 0


def test_genus2_enumeration_matches_oracles():
    rep = sh.enumerate_surjections(2)
    assert rep.total == 8**4
    assert rep.valid == character_count(2)
    assert rep.surjective == character_count(2) - non_surjective_count(2) == 1440
    assert rep.orbit_sizes == (1440,)
    assert rep.standard_orbit_size == 1440


def test_genus3_census_matches_oracles():
    valid = surj = 0
    for imgs in product(QUAT_GROUP, repeat=6):
        c = sh.classify_hom(sh.HomTuple(3, imgs))
        if c["valid"]:
            valid += 1
            if c["surjective"]:
                surj += 1
    assert valid == character_count(3)
    assert surj == character_count(3) - non_surjective_count(3) == 120960


# ------------------------------------------ census orbits over Aut(Q)-classes


@cache
def surjective_packed(g):
    """The packed surjective genus-g tuples, found handle by handle through qmul."""
    comm = {(a, b): qmul(qmul(a, b), qmul(qinv(a), qinv(b))) for a in QUAT_GROUP for b in QUAT_GROUP}
    out = []
    for handles in product(comm, repeat=g):
        r = (1, 0)
        for pair in handles:
            r = qmul(r, comm[pair])
        alphas, betas = zip(*handles) if handles else ((), ())
        if r == (1, 0) and len({a for _, a in alphas + betas if a}) >= 2:
            out.append(sh.pack_images(alphas + betas))
    return tuple(out)


def full_orbits(tuples, compiled):
    """The census search before the quotient: packed breadth-first search
    over every compiled move, conjugations included."""
    remaining = set(tuples)
    while remaining:
        seed = remaining.pop()
        orbit = {seed}
        queue = deque([seed])
        while queue:
            for q in sh._successors(queue.popleft(), compiled):
                if q not in orbit:
                    orbit.add(q)
                    queue.append(q)
        remaining -= orbit
        yield orbit


def full_orbit_sizes(tuples, compiled):
    return tuple(sorted((len(o) for o in full_orbits(tuples, compiled)), reverse=True))


def handle_subset(g, kinds):
    """The compiled handle moves of the named kinds, in move_set order, and
    the compiled conjugations."""
    builders = {
        "psi": [sh.psi_move(g, k) for k in range(1, g)],
        "twists": [sh.beta_twist(g, m) for m in range(1, g + 1)],
        "slides": [f(g, m) for m in range(1, g + 1) for f in (sh.alpha_slide, sh.beta_slide)],
    }
    chosen = [mv for kind in kinds for mv in builders[kind]]
    moves, compiled = sh._compiled_moves(g)
    n = len(sh.handle_moves(g))
    handle = tuple(c for mv, c in zip(moves[:n], compiled) if mv in chosen)
    assert len(handle) == len(chosen)
    return handle, compiled[n:]


def conjugates(p, g):
    """{pack(c_a . x) : a in Q}, x the packed tuple p, through qmul and qinv."""
    x = unpack_images(p, g)
    return {sh.pack_images([qmul(qmul(a, y), qinv(a)) for y in x]) for a in QUAT_GROUP}


@cache
def automorphisms():
    """Aut(Q) by brute force, as dicts: the bijections of Q that fix 1 and
    -1, its only element of order 2, and preserve qmul."""
    out = []
    for imgs in permutations(QUAT_GROUP[2:]):
        sigma = dict(zip(QUAT_GROUP, QUAT_GROUP[:2] + imgs))
        if all(sigma[qmul(x, y)] == qmul(sigma[x], sigma[y]) for x in QUAT_GROUP for y in QUAT_GROUP):
            out.append(sigma)
    return out


def aut_perms():
    return [perm for perm, _ in sh._aut_tables()]


def aut_maps():
    """The permutations of sh._aut_tables() as dicts on Q, in order."""
    return [{x: QUAT_GROUP[perm[n]] for n, x in enumerate(QUAT_GROUP)} for perm in aut_perms()]


def aut_images(p, g):
    """The images of the packed tuple p under sh._aut_tables(), in order,
    through its three-slot tables."""
    shifts = range(0, 6 * g, 9)
    return [sum(table[p >> s & 511] << s for s in shifts) for _, table in sh._aut_tables()]


def composed_images(p, g):
    """{pack(sigma . x) : sigma in Aut(Q)}, x the packed tuple p, through qmul."""
    x = unpack_images(p, g)
    return {sh.pack_images([sigma[y] for y in x]) for sigma in automorphisms()}


def label_orbits(tuples, handle, g):
    """The orbits found by sh._orbits, rebuilt from its labels and each
    pass's stabilizer H: y lies in rho O iff l(y) lies in rho H, i.e. iff
    l(y) H = rho H.  Also returns the orbit sizes the passes count and the
    orders of their stabilizers."""
    perms = aut_perms()
    index = {perm: n for n, perm in enumerate(perms)}
    labels = bytearray(8 ** (2 * g))
    orbits, sizes, orders = set(), [], set()
    for reps, stab in sh._orbits(tuples, handle, labels):
        coset = [frozenset(index[tuple(rho[y] for y in perms[h])] for h in stab) for rho in perms]
        by_coset = {}
        for y in {q for r in reps for q in aut_images(r, g)}:
            by_coset.setdefault(coset[labels[y] - 1], set()).add(y)
        orbits.update(map(frozenset, by_coset.values()))
        sizes += [len(reps) * len(stab)] * (24 // len(stab))
        orders.add(len(stab))
    return orbits, sorted(sizes), orders


def test_census_is_the_full_search_at_genus2():
    _, compiled = sh._compiled_moves(2)
    rep = sh.enumerate_surjections(2)
    assert rep.surjective == len(surjective_packed(2))
    assert rep.orbit_sizes == full_orbit_sizes(surjective_packed(2), compiled) == (1440,)


def test_census_is_the_full_search_at_genus3():
    _, compiled = sh._compiled_moves(3)
    rep = sh.enumerate_surjections(3)
    assert rep.surjective == len(surjective_packed(3))
    assert rep.orbit_sizes == full_orbit_sizes(surjective_packed(3), compiled) == (120960,)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_beta_twist_is_the_beta_slide_squared(g):
    for m in range(1, g + 1):
        slide = sh.beta_slide(g, m)
        assert tuple(slide.substitute(w) for w in slide.images) == sh.beta_twist(g, m).images


@pytest.mark.parametrize("g", [2, 3])
def test_census_searches_without_the_twists_and_finds_the_same_orbits(g, monkeypatch):
    real, handles = sh._orbits, []

    def spy(tuples, handle, labels):
        handles.append(handle)
        return real(tuples, handle, labels)

    monkeypatch.setattr(sh, "_orbits", spy)
    rep = sh.enumerate_surjections(g)
    [handle] = handles
    assert handle == handle_subset(g, ("psi", "slides"))[0] and len(handle) == 3 * g - 1
    every = handle_subset(g, ("psi", "twists", "slides"))[0]
    monkeypatch.setattr(sh, "_orbits", lambda tuples, handle, labels: real(tuples, every, labels))
    assert sh.enumerate_surjections(g) == rep


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_census_counts_are_the_closed_forms(g):
    rep = sh.enumerate_surjections(g)
    assert rep.valid == 8 * sum(Fraction(8, d) ** (2 * g - 2) for d in (1, 1, 1, 1, 2))
    assert rep.surjective == len(surjective_packed(g))


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_census_streams_each_surjection_once_and_stops_when_all_are_labelled(g, monkeypatch):
    real, streams, drawn = sh._orbits, [], []

    def spy(tuples, handle, labels):
        streams.append(tuples)
        return real((drawn.append(q) or q for q in tuples), handle, labels)

    monkeypatch.setattr(sh, "_orbits", spy)
    sh.enumerate_surjections(g)
    [stream] = streams
    seeds = drawn + list(stream)  # what the search drew, then the rest
    assert len(seeds) == len(set(seeds))
    assert set(seeds) == set(surjective_packed(g))
    # genus 2 and 3 have one orbit, so its pass labels every surjection
    assert len(drawn) == (1 if g >= 2 else 0)


def test_census_peak_memory_stays_under_2_mb():
    """The census lists no tuples: its peak is the labels bytearray (8^6
    bytes), the handle prefixes and the class representatives."""
    sh._aut_tables()
    sh._compiled_moves(3)
    tracemalloc.start()
    try:
        sh.enumerate_surjections(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_census_peak_memory_stays_under_1_3_mb_with_cold_caches():
    """The same census with its caches cleared, so the 24 Aut(Q) tables and
    the compiled handle moves count towards the peak too."""
    for cached in (sh._aut_tables, sh._compile_move, sh._compiled_moves):
        cached.cache_clear()
    tracemalloc.start()
    try:
        sh.enumerate_surjections(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_300_000


def test_census_compiles_only_the_moves_it_reads(monkeypatch):
    """From cold caches the genus-3 census compiles its 8 PSI and slide
    moves, no twist and no conjugation, and _compiled_moves(3) then reuses
    those compiled objects."""
    real, handles = sh._orbits, []

    def spy(tuples, handle, labels):
        handles.append(handle)
        return real(tuples, handle, labels)

    monkeypatch.setattr(sh, "_orbits", spy)
    sh._compile_move.cache_clear()
    sh._compiled_moves.cache_clear()
    sh.enumerate_surjections(3)
    read = [mv for mv in sh.handle_moves(3) if mv.kind.startswith(("PSI", "ALPHA_SLIDE", "BETA_SLIDE"))]
    assert len(read) == 8
    assert sh._compile_move.cache_info().misses == sh._compile_move.cache_info().currsize == 8
    [handle] = handles
    # hits only: the census compiled exactly these moves
    assert all(c is sh._compile_move(mv) for c, mv in zip(handle, read, strict=True))
    moves, compiled = sh._compiled_moves(3)
    assert sh._compile_move.cache_info().currsize == len(moves) == 17
    assert all(compiled[moves.index(mv)] is c for mv, c in zip(read, handle))


# the orders of the passes' stabilizers, which include non-normal ones (8)
STABILIZER_ORDERS = {
    (2, ()): {4},
    (2, ("twists",)): {4},
    (2, ("slides",)): {4, 24},
    (2, ("psi", "twists", "slides")): {24},
    (3, ()): {4},
    (3, ("twists", "slides")): {4, 8, 24},
    (2, ("psi",)): {4, 8},
    (2, ("psi", "twists")): {4, 8},
}


@pytest.mark.parametrize("g,kinds,count", [
    (2, (), 360),
    (2, ("twists",), 144),
    (2, ("slides",), 7),
    (2, ("psi", "twists", "slides"), 1),
    (3, (), 30240),
    (3, ("twists", "slides"), 75),
    (2, ("psi",), 192),
    (2, ("psi", "twists"), 78),
])
def test_quotient_orbits_match_the_full_search(g, kinds, count):
    handle, conjugations = handle_subset(g, kinds)
    tuples = surjective_packed(g)
    quotient, sizes, orders = label_orbits(tuples, handle, g)
    full = {frozenset(o) for o in full_orbits(tuples, handle + conjugations)}
    assert quotient == full
    assert len(quotient) == count
    assert all(len(o) % 4 == 0 for o in quotient)
    assert sizes == sorted(len(o) for o in full)
    assert orders == STABILIZER_ORDERS[g, kinds]


def test_aut_tables_are_the_automorphisms():
    perms = aut_perms()
    assert len(set(perms)) == len(perms) == 24
    assert perms[0] == tuple(range(8))
    maps = aut_maps()
    for sigma in maps:
        for x, y in product(QUAT_GROUP, repeat=2):
            assert sigma[qmul(x, y)] == qmul(sigma[x], sigma[y]), sigma
    assert sorted(perms) == sorted(tuple(Q8_INDEX[s[x]] for x in QUAT_GROUP) for s in automorphisms())
    inner = [{x: qmul(qmul(a, x), qinv(a)) for x in QUAT_GROUP} for a in QUAT_GROUP[::2]]
    assert maps[:4] == inner


def check_aut_images(p, g):
    images = aut_images(p, g)
    x = unpack_images(p, g)
    assert images == [sh.pack_images([sigma[y] for y in x]) for sigma in aut_maps()], x
    assert set(images) == composed_images(p, g), x
    assert set(images[:4]) == conjugates(p, g), x


def test_aut_images_of_every_genus2_tuple():
    for p in range(8**4):
        check_aut_images(p, 2)


def test_aut_images_of_genus3_sample():
    rng = random.Random(37)
    for _ in range(3000):
        check_aut_images(rng.randrange(8**6), 3)


def test_aut_action_is_free_on_surjections():
    for g in (2, 3):
        assert all(len(set(aut_images(p, g))) == 24 for p in surjective_packed(g))


# ------------------------------------------------------------- normalize


def surjective_samples(g, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        imgs = tuple(rng.choice(QUAT_GROUP) for _ in range(2 * g))
        h = sh.HomTuple(g, imgs)
        c = sh.classify_hom(h)
        if c["valid"] and c["surjective"]:
            out.append(h)
    return out


@pytest.mark.parametrize("g,seed,count", [(2, 11, 12), (3, 12, 3)])
def test_normalize_reaches_standard_and_replays(g, seed, count):
    target = sh.standard_hom(g)
    for h in surjective_samples(g, count, seed):
        result = sh.normalize_hom(h)
        assert result["reached"]
        cur = h
        for mv in result["moves"]:
            cur = sh.apply_move(cur, mv)
        assert cur == target


def bfs_oracle(h, node_budget):
    """The breadth-first search of normalize_hom's phase 2 on HomTuples."""
    moves = sh.move_set(h.g)
    target = sh.standard_hom(h.g).images
    seen = {h.images: None}
    queue = deque([h.images])
    while queue and len(seen) <= node_budget:
        cur = sh.HomTuple(h.g, queue.popleft())
        for mv in moves:
            nxt = sh.apply_move(cur, mv).images
            if nxt in seen:
                continue
            seen[nxt] = (cur.images, mv)
            if nxt == target:
                queue.clear()
                break
            queue.append(nxt)
    if target not in seen:
        return {"reached": False, "moves": []}
    path = []
    node = target
    while seen[node] is not None:
        node, mv = seen[node]
        path.append(mv)
    return {"reached": True, "moves": path[::-1]}


def test_normalize_search_matches_homtuple_oracle():
    target = sh.standard_hom(2)
    batch = [h for h in surjective_samples(2, 60, 23) if not sh._phase1_shape(h) and h != target]
    assert len(batch) >= 40
    for h in batch:
        assert sh.normalize_hom(h) == bfs_oracle(h, 200000), h.images


def test_normalize_search_budget_matches_homtuple_oracle():
    reached = set()
    batch = [h for h in surjective_samples(2, 8, 29) if not sh._phase1_shape(h)]
    for budget in (1, 40, 500, 1000):
        for h in batch:
            out = sh.normalize_hom(h, node_budget=budget)
            assert out == bfs_oracle(h, budget), (budget, h.images)
            reached.add(out["reached"])
    assert reached == {True, False}


def test_goal_distances_satisfy_bellman_over_the_genus2_orbit():
    """The table's keys are the 1,440 surjections, each distance one more
    than its nearest successor's, counted here with no reverse edges."""
    _, compiled = sh._compiled_moves(2)
    goal = sh.pack_images(sh.standard_hom(2).images)
    dist = sh._goal_distances(2)
    assert set(dist) == set(surjective_packed(2))
    assert len(dist) == sh.enumerate_surjections(2).surjective == 1440
    assert dist[goal] == 0
    for x, d in dist.items():
        if x != goal:
            assert d == 1 + min(dist[y] for y in sh._successors(x, compiled)), x
    assert max(dist.values()) == 10


def test_normalize_table_walk_names_the_tuple_no_move_descends_from(monkeypatch):
    """Planted distance tables in which the walk gets stuck: it raises a
    RuntimeError naming the tuple where no move leads down, not a bare
    StopIteration."""
    h = sh.parse_hom(2, "j,i,1,-1")
    assert not sh._phase1_shape(h)
    planted = dict.fromkeys(surjective_packed(2), 1)
    monkeypatch.setattr(sh, "_goal_distances", lambda g: planted)
    planted[sh.pack_images(h.images)] = 0  # stuck at the start
    with pytest.raises(RuntimeError, match=re.escape("no move descends from j,i,1,-1")):
        sh.normalize_hom(h)
    planted[sh.pack_images(h.images)] = 2  # one step down, then stuck
    first = sh.format_hom(sh.apply_move(h, sh.move_set(2)[0]))
    assert first != "j,i,1,-1"
    with pytest.raises(RuntimeError, match=re.escape(f"no move descends from {first}")):
        sh.normalize_hom(h)


def test_normalize_table_matches_unbounded_search():
    """The table walk against the forward search at a budget one short of
    8^4, which the orbit of 1,440 still fits in."""
    for p in random.Random(41).sample(surjective_packed(2), 300):
        h = sh.HomTuple(2, unpack_images(p, 2))
        assert sh.normalize_hom(h) == sh.normalize_hom(h, node_budget=8**4 - 1), h.images


@pytest.mark.parametrize("images", [
    ((1, 5), (1, 1), (1, 2), (1, 0)),
    ((2, 1), (1, 2), (1, 0), (1, 0)),
])
def test_homtuple_rejects_images_outside_q8(images):
    with pytest.raises(ValueError, match=re.escape(f"image {images[0]} is not an element of Q8")):
        sh.normalize_hom(sh.HomTuple(2, images))


def test_normalize_rejects_bad_input():
    h = sh.HomTuple(2, ((1, 1), (1, 1), (1, 0), (1, 0)))  # not surjective
    with pytest.raises(ValueError):
        sh.normalize_hom(h)


def test_parse_format_round_trip():
    h = sh.parse_hom(2, "j,i,1,-1")
    assert sh.format_hom(h) == "j,i,1,-1"
    assert h.images == ((1, 2), (1, 1), (1, 0), (-1, 0))
    with pytest.raises(ValueError):
        sh.parse_hom(2, "j,i,1")  # wrong arity
    with pytest.raises(ValueError):
        sh.parse_hom(2, "j,i,1,x")  # unknown element


# ----------------------------------------------------------- numerology


def test_cover_numerology_values():
    n = sh.genus_numerology(3)
    assert n["genus_tilde"] == 17
    assert n["genus_hat"] == 9
    assert n["prym_dim"] == 8
    assert n["moduli_dim"] == 6


@pytest.mark.parametrize("g", [2, 3, 4, 7])
def test_cover_numerology_formulas(g):
    n = sh.genus_numerology(g)
    assert n["genus_tilde"] == 8 * g - 7
    assert n["genus_hat"] == 4 * g - 3
    assert n["prym_dim"] == 4 * (g - 1)


def test_numerology_rejects_genus_below_two():
    with pytest.raises(ValueError):
        sh.genus_numerology(1)
