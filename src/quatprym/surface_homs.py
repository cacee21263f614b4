"""Surface-group homomorphisms to the quaternion group and their moves.

The fundamental group of a closed genus-g surface has generators
alpha_1..alpha_g, beta_1..beta_g subject to one relation

    R = [alpha_1, beta_1] [alpha_2, beta_2] ... [alpha_g, beta_g].

A homomorphism to the quaternion group Q is recorded by the tuple of
generator images; it is well defined iff R evaluates to +1.  A fixed
finite set of free-group automorphisms (each sending R to a conjugate of
itself) acts on such tuples by precomposition.  This module provides the
word calculus, the move set, a two-phase normalization to the standard
surjection, exhaustive enumeration in low genus, and the genus counts
for the associated covers.  Words multiply QUAT_GROUP positions through
the ``qalg`` tables ``Q8_MUL`` and ``Q8_INV``; the census and the
normalization search run on tuples packed into one int, with each move
compiled to lookup tables.

The census searches orbits over Aut(Q)-classes: moves commute with
composing by an automorphism of Q, Aut(Q) acts freely on surjections,
and by Schreier's lemma the labels of a class's tuples by automorphisms
tell its orbits apart (proof at ``enumerate_surjections``).

Free words are tuples of nonzero ints: letter m in 1..g is alpha_m,
g+m is beta_m, and a negative letter is the inverse.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cache
from itertools import chain

from .config import Budgets
from .qalg import Q8_INDEX, Q8_INV, Q8_MUL, QUAT_GROUP, qinv, qmul, qparse, qstr
from .record import Record


# ---------------------------------------------------------------------------
# free words


def reduce_word(w):
    out = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inv_word(w):
    return tuple(-x for x in reversed(w))


def concat_words(*ws):
    return reduce_word(chain.from_iterable(ws))


def conj_word(w, by):
    return concat_words(by, w, inv_word(by))


def surface_relator(g):
    return concat_words(*((m, g + m, -m, -(g + m)) for m in range(1, g + 1)))


# ---------------------------------------------------------------------------
# homomorphism tuples


class HomTuple(Record):
    """Images of alpha_1..alpha_g, beta_1..beta_g in Q, as (sign, axis)."""

    __slots__ = ("g", "images")

    def __init__(self, g: int, images: tuple):
        if len(images) != 2 * g:
            raise ValueError(f"genus {g} needs {2 * g} images, got {len(images)}")
        for x in images:
            if x not in QUAT_GROUP:
                raise ValueError(f"image {x!r} is not an element of Q8")
        self.g = g
        self.images = images

    def alpha(self, m):
        return self.images[m - 1]

    def beta(self, m):
        return self.images[self.g + m - 1]


def eval_word(h: HomTuple, w) -> tuple:
    acc = 0  # the position of the product so far
    for x in w:
        if not 1 <= abs(x) <= 2 * h.g:
            raise ValueError(f"generator index {x} out of range for genus {h.g}")
        v = Q8_INDEX[h.images[abs(x) - 1]]
        acc = Q8_MUL[8 * acc + (v if x > 0 else Q8_INV[v])]
    return QUAT_GROUP[acc]


def classify_hom(h: HomTuple) -> dict:
    valid = eval_word(h, surface_relator(h.g)) == (1, 0)
    axes = {a for (_, a) in h.images if a != 0}
    return {"valid": valid, "surjective": len(axes) >= 2}


def standard_hom(g) -> HomTuple:
    """alpha_{g-1} -> i, alpha_g -> j, every other generator -> +1."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    images = [(1, 0)] * (2 * g)
    images[g - 2] = (1, 1)
    images[g - 1] = (1, 2)
    return HomTuple(g, tuple(images))


def parse_hom(g, text) -> HomTuple:
    syms = text.replace(",", " ").split()
    if len(syms) != 2 * g:
        raise ValueError(f"expected {2 * g} symbols, got {len(syms)}")
    return HomTuple(g, tuple(qparse(s) for s in syms))


def format_hom(h: HomTuple) -> str:
    return ",".join(qstr(x) for x in h.images)


# ---------------------------------------------------------------------------
# the move calculus


class Move(Record):
    """A free-group endomorphism given by generator images, acting on
    HomTuples by precomposition."""

    __slots__ = ("kind", "g", "images")

    def __init__(self, kind: str, g: int, images: tuple):
        self.kind = kind
        self.g = g
        self.images = images  # 2g free words

    def substitute(self, w):
        parts = []
        for x in w:
            img = self.images[abs(x) - 1]
            parts.append(img if x > 0 else inv_word(img))
        return concat_words(*parts)


def _identity_images(g):
    return [(t,) for t in range(1, 2 * g + 1)]


def psi_move(g, k) -> Move:
    """The handle-mixing automorphism indexed by k, 1 <= k <= g-1:

        alpha_k   -> alpha_{k+1} alpha_k
        beta_k    -> beta_k
        alpha_{k+1} -> beta_k alpha_{k+1} beta_k^{-1}
        beta_{k+1}  -> alpha_{k+1} beta_{k+1} alpha_{k+1}^{-1} beta_k^{-1}
        others    -> conjugated by alpha_{k+1}

    It sends R to alpha_{k+1} R alpha_{k+1}^{-1}.
    """
    if not 1 <= k <= g - 1:
        raise ValueError(f"psi index {k} out of range for genus {g}")
    a, b = k, g + k          # alpha_k, beta_k
    a1, b1 = k + 1, g + k + 1  # alpha_{k+1}, beta_{k+1}
    imgs = _identity_images(g)
    for t in range(1, 2 * g + 1):
        if t in (a, b, a1, b1):
            continue
        imgs[t - 1] = (a1, t, -a1)
    imgs[a - 1] = (a1, a)
    imgs[b - 1] = (b,)
    imgs[a1 - 1] = (b, a1, -b)
    imgs[b1 - 1] = (a1, b1, -a1, -b)
    return Move(f"PSI({k})", g, tuple(imgs))


def beta_twist(g, m) -> Move:
    """beta_m -> beta_m alpha_m^2."""
    imgs = _identity_images(g)
    imgs[g + m - 1] = (g + m, m, m)
    return Move(f"BETA_TWIST({m})", g, tuple(imgs))


def alpha_slide(g, m) -> Move:
    """alpha_m -> alpha_m beta_m."""
    imgs = _identity_images(g)
    imgs[m - 1] = (m, g + m)
    return Move(f"ALPHA_SLIDE({m})", g, tuple(imgs))


def beta_slide(g, m) -> Move:
    """beta_m -> beta_m alpha_m."""
    imgs = _identity_images(g)
    imgs[g + m - 1] = (g + m, m)
    return Move(f"BETA_SLIDE({m})", g, tuple(imgs))


def conj_move(g, w) -> Move:
    """Every generator conjugated by the word w."""
    w = reduce_word(w)
    imgs = [conj_word(im, w) for im in _identity_images(g)]
    label = ".".join(str(x) for x in w) or "e"
    return Move(f"CONJ({label})", g, tuple(imgs))


def handle_moves(g):
    """The moves of move_set(g) before its conjugations, in the same order."""
    moves = [psi_move(g, k) for k in range(1, g)]
    for m in range(1, g + 1):
        moves.append(beta_twist(g, m))
        moves.append(alpha_slide(g, m))
        moves.append(beta_slide(g, m))
    return moves


def move_set(g):
    """handle_moves(g), then conjugation by each generator."""
    return handle_moves(g) + [conj_move(g, (t,)) for t in range(1, 2 * g + 1)]


def apply_move(h: HomTuple, mv: Move) -> HomTuple:
    if mv.g != h.g:
        raise ValueError(f"move of genus {mv.g} applied to a genus-{h.g} tuple")
    return HomTuple(h.g, tuple(eval_word(h, w) for w in mv.images))


def verify_psi_in_Ag(g, k) -> bool:
    """Symbolic check that psi_k sends R exactly to alpha_{k+1} R alpha_{k+1}^{-1}."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    r = surface_relator(g)
    image = psi_move(g, k).substitute(r)
    return image == conj_word(r, (k + 1,))


# ---------------------------------------------------------------------------
# packed tuples and compiled moves
#
# The census and the normalization search work on tuples packed into one
# int: bits 3t..3t+2 hold the QUAT_GROUP position of images[t].  Each move is
# compiled once, cached by the move, into lookup tables: output slot s reads
# only the (at most three) input slots its image word names.


# [8a + b] = a b a^-1 b^-1, the relator of one handle
_COMM = tuple(Q8_MUL[8 * Q8_MUL[8 * a + b] + Q8_MUL[8 * Q8_INV[a] + Q8_INV[b]]]
              for a in range(8) for b in range(8))
_AXIS_BIT = tuple(0 if a == 0 else 1 << (a - 1) for _, a in QUAT_GROUP)
_AXIS_COUNT = tuple(bin(x).count("1") for x in range(8))


def pack_images(images) -> int:
    return sum(Q8_INDEX[x] << 3 * t for t, x in enumerate(images))


@cache
def _aut_tables() -> tuple:
    """The 24 automorphisms of Q as (perm, table), Inn(Q) first (conjugation
    by 1, i, j, k): perm maps QUAT_GROUP positions to positions, and table
    applies it to three packed slots at once, indexed by v1 | v2 << 3 | v3 << 6."""
    def powers(a):
        return [(1, 0), a, qmul(a, a), qinv(a)]
    # x = i^e j^f for one e < 4, f < 2; i, j -> a, b (b not in <a>) sends x to a^e b^f
    exps = {qmul(y, z): (e, f) for e, y in enumerate(powers((1, 1)))
            for f, z in enumerate(powers((1, 2))[:2])}
    perms = [tuple(Q8_INDEX[qmul(pa[e], pb[f])] for e, f in map(exps.get, QUAT_GROUP))
             for pa in map(powers, QUAT_GROUP[2:]) for pb in map(powers, QUAT_GROUP[2:]) if pb[1] not in pa]
    inner = [tuple(Q8_INDEX[qmul(qmul(a, x), qinv(a))] for x in QUAT_GROUP) for a in QUAT_GROUP[::2]]
    ints = tuple(range(512))  # the 24 tables share one int object per value
    return tuple((p, tuple(ints[a | b | c] for c in [x << 6 for x in p]
                           for b in [x << 3 for x in p] for a in p))
                 for p in inner + [p for p in perms if p not in inner])


@cache
def _compile_move(mv: Move) -> tuple:
    """(keep, slots) for mv: the bits of the slots it fixes, and for every
    other output slot (shift1, shift2, shift3, table).  The table maps
    v1 | v2 << 3 | v3 << 6, vk the positions at the input shifts, to the
    output position already shifted into place; missing inputs read the
    zero bits above the tuple, i.e. +1.  A table is the word's product over
    all its indices, multiplied through Q8_MUL one letter at a time."""
    g = mv.g
    keep = 0
    slots = []
    for s, word in enumerate(mv.images):
        if word == (s + 1,):
            keep |= 7 << 3 * s
            continue
        srcs = sorted({abs(x) - 1 for x in word})
        if len(srcs) > 3:
            raise ValueError(f"{mv.kind}: image word {word} names more than three generators")
        table = [0] * 8 ** len(srcs)
        for x in word:
            if not 1 <= abs(x) <= 2 * g:
                raise ValueError(f"generator index {x} out of range for genus {g}")
            k = 3 * srcs.index(abs(x) - 1)
            signed = range(8) if x > 0 else Q8_INV
            table = [Q8_MUL[8 * acc + signed[i >> k & 7]] for i, acc in enumerate(table)]
        shifts = [3 * t for t in srcs] + [6 * g] * (3 - len(srcs))
        slots.append((*shifts, tuple(v << 3 * s for v in table)))
    return keep, tuple(slots)


@cache
def _compiled_moves(g) -> tuple:
    """move_set(g) as a tuple, and its compiled form in the same order."""
    moves = tuple(move_set(g))
    return moves, tuple(map(_compile_move, moves))


def _successors(p, compiled):
    """Yield the packed images of the packed tuple p under the compiled
    moves, in order, each only when asked for."""
    for keep, slots in compiled:
        q = p & keep
        for s1, s2, s3, table in slots:
            q |= table[(p >> s1 & 7) | (p >> s2 & 7) << 3 | (p >> s3 & 7) << 6]
        yield q


# ---------------------------------------------------------------------------
# normalization


def _phase1_shape(h: HomTuple) -> bool:
    g = h.g
    if g < 2:
        return False
    if h.alpha(g - 1) != (1, 1) or h.alpha(g) != (1, 2):
        return False
    for m in range(1, g - 1):
        if h.alpha(m)[1] != 0:
            return False
    return all(h.beta(m)[1] == 0 for m in range(1, g + 1))


def _flip_moves(g, m):
    """Move sequence negating the image of alpha_m (m <= g-2) and fixing
    every other image, valid on tuples where the images of alpha_{m+1..g-2}
    and all beta's are +1.
    """
    if m == g - 2:
        return [psi_move(g, m), psi_move(g, m)]
    inner = _flip_moves(g, m + 1)
    return inner + [psi_move(g, m)] + inner


@cache
def _goal_distances(g) -> dict:
    """Packed tuple -> number of moves from it to the standard tuple, over
    the standard tuple's orbit.

    Every move is a free-group automorphism, so it permutes the 8^(2g)
    tuples: the tuples reachable from the goal are its orbit, and each of
    them reaches the goal.  Enumerating them forward records every edge
    into the orbit, and a breadth-first search from the goal along those
    edges reversed gives the distances."""
    _, compiled = _compiled_moves(g)
    goal = pack_images(standard_hom(g).images)
    preds = {goal: []}
    stack = [goal]
    while stack:
        cur = stack.pop()
        for q in _successors(cur, compiled):
            if q not in preds:
                preds[q] = []
                stack.append(q)
            preds[q].append(cur)
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        cur = queue.popleft()
        for p in preds[cur]:
            if p not in dist:
                dist[p] = dist[cur] + 1
                queue.append(p)
    return dist


def normalize_hom(h: HomTuple, node_budget=Budgets.bfs_node_cap) -> dict:
    """Drive h to the standard surjection by moves, if possible.

    Phase 1 handles tuples already in the shape reached by the
    constructive part of the normalization argument (beta images and the
    first g-2 alpha images central, then alpha_{g-1} = i, alpha_g = j)
    with an explicit move program.  Phase 2 runs over the full move set
    on packed tuples: a cached distance table when every genus-g tuple
    fits in the cap (``8 ** (2 * g) <= node_budget``), else the
    breadth-first search, in ``move_set`` order, bounded by
    ``node_budget`` visited tuples.  Under that condition the search
    cannot hit its cap, and both give the same path: a breadth-first
    search expanding successors in ``move_set`` order keeps each level's
    queue sorted by the move indices of its paths, so it returns the
    lexicographically smallest shortest path, and a walk taking at each
    step the smallest move index one step closer to the goal spells out
    exactly that path.

    Returns {"reached": bool, "moves": [Move]}; replaying the moves on h
    reproduces the standard tuple whenever reached is True.
    """
    cls = classify_hom(h)
    if not cls["valid"]:
        raise ValueError("tuple does not satisfy the surface relation")
    if not cls["surjective"]:
        raise ValueError("tuple is not surjective")
    g = h.g
    target = standard_hom(g)
    if h == target:
        return {"reached": True, "moves": []}

    if _phase1_shape(h):
        moves = []
        work = h

        def push(mv):
            nonlocal work
            moves.append(mv)
            work = apply_move(work, mv)

        # clear the two non-central handles first: their alpha images
        # square to -1, so one twist absorbs a -1 on the beta side
        for m in (g - 1, g):
            if work.beta(m) == (-1, 0):
                push(beta_twist(g, m))
        # central handles: slides put the -1 onto the alpha side
        for m in range(1, g - 1):
            if work.beta(m) == (-1, 0):
                if work.alpha(m) == (1, 0):
                    push(alpha_slide(g, m))
                push(beta_slide(g, m))
        # flip any remaining -1 alpha images, innermost handle last
        for m in range(g - 2, 0, -1):
            if work.alpha(m) == (-1, 0):
                for mv in _flip_moves(g, m):
                    push(mv)
        if work != target:
            raise RuntimeError(f"phase-1 program left {format_hom(work)}, not the standard tuple")
        return {"reached": True, "moves": moves}

    moves, compiled = _compiled_moves(g)
    start, goal = pack_images(h.images), pack_images(target.images)
    # phase 2 by the distance table, which gives the search's path
    if 8 ** (2 * g) <= node_budget:
        dist = _goal_distances(g)
        if start not in dist:
            return {"reached": False, "moves": []}
        path, cur = [], start
        while cur != goal:
            i, cur = next(((i, q) for i, q in enumerate(_successors(cur, compiled))
                           if dist[q] < dist[cur]), (None, cur))
            if i is None:
                bad = HomTuple(g, tuple(QUAT_GROUP[cur >> 3 * t & 7] for t in range(2 * g)))
                raise RuntimeError(f"no move descends from {format_hom(bad)}")
            path.append(moves[i])
        return {"reached": True, "moves": path}

    # phase 2 otherwise: bounded breadth-first search
    seen = {start: None}  # packed tuple -> (packed parent, move index)
    queue = deque([start])
    while queue and len(seen) <= node_budget:
        cur = queue.popleft()
        for i, nxt in enumerate(_successors(cur, compiled)):
            if nxt in seen:
                continue
            seen[nxt] = (cur, i)
            if nxt == goal:
                queue.clear()
                break
            queue.append(nxt)
    if goal not in seen:
        return {"reached": False, "moves": []}
    path = []
    node = goal
    while seen[node] is not None:
        node, i = seen[node]
        path.append(moves[i])
    path.reverse()
    return {"reached": True, "moves": path}


# ---------------------------------------------------------------------------
# enumeration


class EnumReport(Record):
    __slots__ = ("genus", "total", "valid", "surjective", "orbit_sizes", "standard_orbit_size")

    def __init__(self, genus: int, total: int, valid: int, surjective: int,
                 orbit_sizes: tuple, standard_orbit_size: int):
        self.genus = genus
        self.total = total
        self.valid = valid
        self.surjective = surjective
        self.orbit_sizes = orbit_sizes
        self.standard_orbit_size = standard_orbit_size


def _generated(gens) -> frozenset:
    """The subgroup of Aut(Q) generated by gens, as indices into _aut_tables()."""
    perms = [p for p, _ in _aut_tables()]
    group = [perms[0]]
    for a in group:
        group += {tuple(a[y] for y in perms[b]) for b in gens} - set(group)
    return frozenset(map(perms.index, group))


def _orbits(tuples, handle, labels):
    """Search the orbits of the packed surjective tuples (genus <= 3) under
    the compiled moves ``handle`` and the conjugations, one Aut(Q)-class at a
    time, writing into the zeroed bytearray ``labels``: labels[rho q] is 1 +
    the index of rho in _aut_tables(), q the first tuple reached in a class.
    A pass goes breadth first from an unlabelled seed through the images of
    each class's first tuple, and yields those and its orbit's stabilizer."""
    auts = tuple(enumerate((table for _, table in _aut_tables()), 1))
    for seed in tuples:
        if labels[seed]:
            continue
        reps, gens = [seed], set(range(4))  # Inn(Q) lies in every stabilizer
        for n, table in auts:
            labels[table[seed & 511] | table[seed >> 9] << 9] = n
        for r in reps:
            for q in _successors(r, handle):
                if labels[q]:
                    gens.add(labels[q] - 1)
                    continue
                lo, hi = q & 511, q >> 9
                for n, table in auts:
                    labels[table[lo] | table[hi] << 9] = n
                reps.append(q)
        yield reps, _generated(gens)


def enumerate_surjections(g) -> EnumReport:
    """Exhaustive census of valid tuples at genus g <= 3, with the orbit
    partition of the surjective ones under the move set.

    Tuples are built handle by handle on packed ints: the relator is the
    product of the handle commutators, read from ``_COMM``, and a tuple is
    surjective when its images meet at least two of the axes i, j, k.  The
    counts multiply the sizes of the inner prefixes and outer pairs grouped
    by (relator, axes met); the surjections stream to the orbit search,
    which stops once its passes have labelled them all (24 |reps| each).

    The orbits are searched over Aut(Q)-classes.  (1) A move acts by
    precomposition, so it commutes with composing by any automorphism s;
    the images of a surjective x generate Q, so the conjugations (CONJ(t)
    sends x to c_{x_t} x) reach exactly Inn(Q) x.  (2) s x = x makes s fix
    a generating set, so s = 1: Aut(Q) acts freely on surjections, and each
    y in a class is l(y) r for one label l(y), r the class's first tuple.
    (3) A move sends rho r to rho tau r', tau the label of its image of r,
    and tau = 1 on the search tree's edges.  By Schreier's lemma the labels
    that the seed's orbit O meets in any class form the group H generated by
    Inn(Q) and the other edges' tau, so y lies in rho O iff l(y) lies in
    rho H: a pass holds 24/|H| orbits of |H| times its class count tuples.
    """
    if g > 3:
        raise ValueError("enumeration only supported for genus <= 3")
    if g < 0:
        raise ValueError("genus must be non-negative")
    # the (alpha_m, beta_m) image pairs of handle m: packed, commutator, axes met;
    # genus 0 has one empty pair
    *inner, outer = [
        [(a << 3 * m | b << 3 * (g + m), _COMM[8 * a + b], _AXIS_BIT[a] | _AXIS_BIT[b])
         for a in range(8) for b in range(8)]
        for m in range(g)
    ] or [[(0, 0, 0)]]
    prefixes = [(0, 0, 0)]  # the inner handles: packed, relator so far, axes met
    for pairs in inner:
        prefixes = [(p | q, Q8_MUL[8 * r + c], x | y) for p, r, x in prefixes for q, c, y in pairs]
    last = {}  # the outer handle's pairs grouped by (commutator, axes met)
    for q, c, y in outer:
        last.setdefault((c, y), []).append(q)
    valid = surjective = 0
    for (r, x), n in Counter((r, x) for _, r, x in prefixes).items():
        for (c, y), qs in last.items():
            if Q8_MUL[8 * r + c] == 0:
                valid += n * len(qs)
                surjective += n * len(qs) * (_AXIS_COUNT[x | y] >= 2)
    seeds = (p | q for p, r, x in prefixes for (c, y), qs in last.items()
             if Q8_MUL[8 * r + c] == 0 and _AXIS_COUNT[x | y] >= 2 for q in qs)
    # the handle moves but the twists: BETA_TWIST(m) is BETA_SLIDE(m) squared,
    # so PSI and the slides generate the same group
    handle = tuple(_compile_move(mv) for mv in handle_moves(g) if not mv.kind.startswith("BETA_TWIST"))
    orbit_sizes, standard_orbit, labelled = [], 0, 0
    std = pack_images(standard_hom(g).images) if g >= 2 else 0  # 0 is not surjective
    labels = bytearray(8 ** (2 * g))
    for reps, stab in _orbits(seeds, handle, labels):
        orbit_sizes += [len(reps) * len(stab)] * (24 // len(stab))
        if labels[std] and not standard_orbit:
            standard_orbit = len(reps) * len(stab)
        labelled += 24 * len(reps)
        if labelled == surjective:
            break
    return EnumReport(
        genus=g,
        total=8 ** (2 * g),
        valid=valid,
        surjective=surjective,
        orbit_sizes=tuple(sorted(orbit_sizes, reverse=True)),
        standard_orbit_size=standard_orbit,
    )


# ---------------------------------------------------------------------------
# numerology


def genus_numerology(g) -> dict:
    """Genus of the two covers, the dimension of the associated abelian
    quotient, and the dimension count n(n-1)/2 for the relevant period
    domain, n half the abelian-variety dimension 4(g-1)."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    prym_dim = 4 * (g - 1)
    n = prym_dim // 2
    return {
        "genus_tilde": 8 * g - 7,
        "genus_hat": 4 * g - 3,
        "prym_dim": prym_dim,
        "moduli_dim": n * (n - 1) // 2,
    }
