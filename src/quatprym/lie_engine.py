"""Exact weight-multiset calculus for the classical Lie algebra families
A, B and D and their direct sums.

Representations are handled purely through their weight multisets.  One
Weyl-group alternating sum does the representation theory: the irrep of
highest weight lam occurs sum_w sign(w) ms[lam + rho - w rho] times in a
Weyl-symmetric multiset ms (Brauer-Klimyk), which decomposes a multiset,
and the same sum over the irrep itself, equal to 1 at lam and 0 at every
other dominant weight, builds its weight system (Racah's recursion; each
total is checked against the Weyl dimension formula).  Decompose first
checks, in one pass and without reflecting, that ms is Weyl-symmetric:
exactly when every weight has the multiplicity of its dominant conjugate
(one sort per factor block) and, for each dominant lam, |W lam| weights
are conjugate to lam, |W lam| read off lam's coordinates in closed form.
Otherwise a factor is seen only through its positive roots and simple
reflections: 2 rho is the sum of the roots, the (rho - w rho, sign w)
pairs come from the orbit of rho (sign w = det w flips with each simple
reflection of the walk), and the dominant weights below a highest
weight, which must be dominant and integral (else ValueError), are
reached from it by subtracting positive roots.  Exterior and symmetric
powers are the coefficients of prod (1 + t e^mu) and prod 1/(1 - t e^mu)
over the weights mu, in integer counts, with negative multiplicities
refused (ValueError).  Past half the size n of ms, wedge^k is read off
degree n - k by the complement identity wedge^k = (wedge^(n-k))* (x) det:
a k-subset of the weights sums to sigma - w, sigma the weight sum of ms
and w the sum of the complementary (n - k)-subset, which holds for any
multiset, so the power loop never runs past degree n/2.  Tensor
products, direct sums and concatenation across commuting factors
complete the calculus.  Sizes:
wedge^12 of three 8-dim spin representations has C(24,12) = 2704156
weights, 553 distinct.

Weight coordinates: a weight of a direct sum is the concatenation of
factor coordinate blocks.  B_n and D_n use n orthogonal coordinates.
A_n uses n+1 coordinates modulo the all-ones vector, canonicalized so
the last coordinate of the block is zero; sums of canonical weights are
canonical, and as the roots of A sum to zero, pairings with them,
dominance and the Weyl product read canonical coordinates as they would
sum-zero ones.

Every integral weight lies in (1/2)Z^n, so a weight is a tuple of ints,
its coordinates doubled, in and out of every function here: the spin
representation of B3 has highest weight (1, 1, 1).  A weight of the
wrong length, or with a coordinate that is not an int, raises
ValueError.  ``weight_text`` renders the true coordinates as strings;
it is the only place a weight is halved.  The roots, 2 rho, the shifts,
Racah and the Weyl product run on these ints.  In the power, tensor and
decompose loops a doubled weight is one int, its coordinates read as
signed digits in an odd base wide enough for every sum the loop forms
(``_packer``), so adding weights is adding ints.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, combinations, repeat
from math import factorial, prod
from operator import mul, sub

from .record import Record


class NotARepresentation(ValueError):
    """The multiset is not the weight system of any finite-dim rep."""


class SimpleFactor(Record):
    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in ("A", "B", "D"):
            raise ValueError(f"unknown family {family!r}; know A, B, D")
        if rank < (2 if family == "D" else 1):
            raise ValueError(f"rank {rank} is too small for family {family}")
        self.family = family
        self.rank = rank

    @property
    def ncoords(self):
        return self.rank + 1 if self.family == "A" else self.rank

    def __str__(self):
        return f"{self.family}{self.rank}"


class AlgebraType(Record):
    __slots__ = ("factors", "__dict__")  # __dict__ holds the cached tables

    def __init__(self, factors: tuple):
        self.factors = factors

    @staticmethod
    def parse(text) -> "AlgebraType":
        factors = []
        for part in text.replace(" ", "").split("+"):
            m = re.fullmatch(r"([ABD])(\d+)", part)
            if not m:
                raise ValueError(f"cannot parse algebra factor {part!r}")
            factors.append(SimpleFactor(m.group(1), int(m.group(2))))
        return AlgebraType(tuple(factors))

    @property
    def ncoords(self):
        return sum(f.ncoords for f in self.factors)

    # the tables below depend on the factors alone, so each algebra
    # builds them once

    @cached_property
    def slices(self) -> tuple:
        """(factor, lo, hi) for each factor: its block of coordinates."""
        out = []
        off = 0
        for f in self.factors:
            out.append((f, off, off + f.ncoords))
            off += f.ncoords
        return tuple(out)

    @cached_property
    def _a_blocks(self) -> tuple:
        return tuple((lo, hi) for f, lo, hi in self.slices if f.family == "A")

    @cached_property
    def _shifts(self) -> tuple:
        """(rho - w rho, sign w) for every w in the Weyl group: the
        products of the factors' ``_factor_shifts``."""
        shifts = [((), 1)]
        for f in self.factors:
            shifts = [(s0 + s1, e0 * e1) for s0, e0 in shifts for s1, e1 in _factor_shifts(f)]
        return tuple(shifts)

    @cached_property
    def _conjugate(self):
        """The function taking a canonical weight to its dominant
        conjugate, factor block by factor block."""
        parts = [(_CONJUGATE[f.family], lo, hi) for f, lo, hi in self.slices]
        if len(parts) == 1:  # one block: the whole weight, no slicing
            return parts[0][0]

        def conjugate(w):
            return tuple(chain.from_iterable(c(w[lo:hi]) for c, lo, hi in parts))

        return conjugate

    def __str__(self):
        return "+".join(str(f) for f in self.factors)


B3 = AlgebraType.parse("B3")
D4 = AlgebraType.parse("D4")
A3 = AlgebraType.parse("A3")
A1 = AlgebraType.parse("A1")
B3A1 = AlgebraType.parse("B3+A1")


# ---------------------------------------------------------------------------
# weight helpers: the format, then dominance, reflections and orbits
# (which take any coordinate type)


def weight_text(w) -> tuple:
    """The true coordinates of the doubled weight w, as strings:
    weight_text((3, 1, 1)) == ('3/2', '1/2', '1/2')."""
    return tuple(str(Fraction(x, 2)) for x in w)


def _fmt_weight(w):
    return "(" + ",".join(weight_text(w)) + ")"


def _checked(alg: AlgebraType, weights) -> list:
    """The weights as tuples, after a ValueError unless each has alg's
    number of coordinates and each coordinate is an int, as the doubled
    coordinates of an integral weight are."""
    weights = list(map(tuple, weights))
    n = alg.ncoords
    for w in weights:
        if len(w) != n:
            raise ValueError(f"weight has {len(w)} coordinates, {alg} needs {n}")
    if not all(map(isinstance, chain.from_iterable(weights), repeat(int))):
        raise ValueError(f"weight is not integral for {alg}")
    return weights


def _a_canon(w):
    last = w[-1]
    return tuple(x - last for x in w)


def _canon(w: tuple, a_blocks) -> tuple:
    """w with each A-block (lo, hi) of ``a_blocks`` shifted to end in 0."""
    for lo, hi in a_blocks:
        if w[hi - 1]:
            w = w[:lo] + _a_canon(w[lo:hi]) + w[hi:]
    return w


def canonicalize(alg: AlgebraType, w) -> tuple:
    """w, checked by ``_checked``, with each A-block shifted to end in 0."""
    return _canon(_checked(alg, [w])[0], alg._a_blocks)


def is_dominant(alg: AlgebraType, w) -> bool:
    """Whether w, with its A-blocks canonicalized, is its own dominant
    conjugate (``_CONJUGATE``)."""
    w = _canon(tuple(w), alg._a_blocks)
    return alg._conjugate(w) == w


def _factor_reflections(f: SimpleFactor):
    """Simple reflections as functions on factor-local tuples."""
    n = f.ncoords
    refl = []

    def swap(t):
        def r(w, t=t):
            v = list(w)
            v[t], v[t + 1] = v[t + 1], v[t]
            return tuple(v)

        return r

    for t in range(n - 1):
        refl.append(swap(t))
    if f.family == "A":
        refl = [lambda w, r=r: _a_canon(r(w)) for r in refl]
    elif f.family == "B":

        def neg_last(w):
            return w[:-1] + (-w[-1],)

        refl.append(neg_last)
    else:

        def flip_pair(w):
            return w[:-2] + (-w[-1], -w[-2])

        refl.append(flip_pair)
    return refl


def _factor_orbit(f: SimpleFactor, w):
    """The Weyl orbit of w as a list in discovery order, w first, so the
    order does not depend on how the weights hash."""
    refl = _factor_reflections(f)
    orbit = [tuple(w)]
    seen = set(orbit)
    for cur in orbit:
        for r in refl:
            nxt = r(cur)
            if nxt not in seen:
                seen.add(nxt)
                orbit.append(nxt)
    return orbit


# The dominant conjugate of a factor-local weight, canonical for A: W is
# the permutations of the coordinates for A, with all sign changes for B
# and the even ones for D, so sorting (the absolute values, for B and D)
# reaches it.  A D-weight with no zero coordinate keeps the parity of its
# negative signs, on the last coordinate.


def _a_conjugate(w):
    return _a_canon(sorted(w, reverse=True))


def _b_conjugate(w):
    return tuple(sorted(map(abs, w), reverse=True))


def _d_conjugate(w):
    v = sorted(map(abs, w), reverse=True)
    if v[-1] and len([x for x in w if x < 0]) % 2:
        v[-1] = -v[-1]
    return tuple(v)


_CONJUGATE = {"A": _a_conjugate, "B": _b_conjugate, "D": _d_conjugate}


@cache
def _factor_orbit_size(f: SimpleFactor, lam) -> int:
    """|W lam| for a dominant lam, without walking the orbit: the distinct
    arrangements of its coordinates (of their absolute values, for B and
    D), times, for B and D, the signs of the nonzero ones; half of those
    for D when no coordinate is 0, as its sign changes come in pairs."""
    values = lam if f.family == "A" else tuple(map(abs, lam))
    size = factorial(len(values)) // prod(map(factorial, Counter(values).values()))
    if f.family == "A":
        return size
    zeros = values.count(0)
    size <<= len(values) - zeros
    return size if zeros or f.family == "B" else size // 2


# ---------------------------------------------------------------------------
# roots, rho, Weyl dimension (doubled-int coordinates)


@cache
def _factor_roots(f: SimpleFactor):
    """Positive roots as int vectors: e_i - e_j and, for B and D,
    e_i + e_j (i < j); for B also e_i."""
    unit = [tuple(int(t == i) for t in range(f.ncoords)) for i in range(f.ncoords)]
    pairs = list(combinations(unit, 2))
    roots = [_vadd(u, v, -1) for u, v in pairs]
    if f.family != "A":
        roots += [_vadd(u, v) for u, v in pairs]
    if f.family == "B":
        roots += unit
    return tuple(roots)


@cache
def _factor_two_rho(f: SimpleFactor):
    """The sum of the positive roots: rho in doubled coordinates (sum-zero
    for A, so heights <mu, 2 rho> read canonical coordinates too)."""
    return tuple(sum(col) for col in zip(*_factor_roots(f)))


def _dot(u, v):
    return sum(map(mul, u, v))


def _vadd(u, v, k=1):
    return tuple(x + k * y for x, y in zip(u, v))


@cache
def _integral(f: SimpleFactor, lam):
    """lam, after a ValueError unless 2<lam, a>/<a, a> is an integer for
    every positive root a; in doubled coordinates, <a, a> divides <lam, a>."""
    if any(_dot(lam, a) % _dot(a, a) for a in _factor_roots(f)):
        raise ValueError(f"weight is not integral for {f}")
    return lam


@cache
def _factor_weyl_dim(f: SimpleFactor, lam) -> int:
    """prod <lam + rho, a> / <rho, a> over the positive roots; the doubling
    of lam and rho cancels."""
    rho = _factor_two_rho(f)
    lr = _vadd(lam, rho)
    roots = _factor_roots(f)
    num = prod(_dot(lr, a) for a in roots)
    den = prod(_dot(rho, a) for a in roots)
    d, r = divmod(num, den)
    if r or d <= 0:
        raise RuntimeError(
            f"Weyl dimension {Fraction(num, den)} of {_fmt_weight(lam)} for {f}"
        )
    return d


@cache
def _factor_shifts(f: SimpleFactor):
    """(rho - w rho, sign w) for every w in the Weyl group of f, in doubled
    coordinates, in _factor_orbit's order.  rho is regular, so its orbit
    lists each w once, and sign w = (-1)^(length of w), the length being
    the number of positive roots a with <w rho, a> < 0."""
    rho = _factor_two_rho(f)
    if f.family == "A":
        rho = _a_canon(rho)
    roots = _factor_roots(f)
    return tuple(
        (_vadd(rho, w, -1), (-1) ** sum(_dot(w, a) < 0 for a in roots))
        for w in _factor_orbit(f, rho)
    )


def _highest_weight_parts(alg: AlgebraType, lam):
    """(factor, block of lam) for each factor.

    Raises ValueError unless lam is dominant and integral."""
    lam = canonicalize(alg, lam)
    if not is_dominant(alg, lam):
        raise ValueError("weight is not dominant")
    return [(f, _integral(f, lam[lo:hi])) for f, lo, hi in alg.slices]


# ---------------------------------------------------------------------------
# irreducible weight systems


def _candidates(f: SimpleFactor, lam):
    """All dominant weights below lam in the dominance order, lam first,
    in doubled coordinates.  Among dominant weights every covering step
    mu < nu has nu - mu a positive root (Stembridge, The partial order of
    dominant weights, 1998), so subtracting positive roots and keeping
    the dominant results reaches all of them."""
    roots = _factor_roots(f)
    conjugate = _CONJUGATE[f.family]
    out = [lam]
    seen = {lam}
    for mu in out:
        for a in roots:
            nu = _vadd(mu, a, -2)
            if f.family == "A":
                nu = _a_canon(nu)
            if nu not in seen and conjugate(nu) == nu:
                seen.add(nu)
                out.append(nu)
    return out


@cache
def _factor_irrep(f: SimpleFactor, lam):
    """Weight multiset of the irrep of f with highest weight lam, in
    doubled coordinates, by Racah's recursion: on the irrep itself the
    Brauer-Klimyk sum that decompose evaluates is 1 at lam and 0 at every
    other dominant mu, so m(mu) = -sum_{w != 1} sign(w) m(mu + rho - w rho)
    over the shifts of _factor_shifts.  Each such weight is conjugate to a
    dominant weight higher than mu, so walking the dominant weights in
    decreasing height finds every term already set.  The total is checked
    against the Weyl dimension formula."""
    two_rho = _factor_two_rho(f)
    shifts = _factor_shifts(f)
    # _candidates puts lam first; the rest go in decreasing height
    rest = sorted(_candidates(f, lam)[1:], key=lambda mu: _dot(mu, two_rho), reverse=True)
    full = dict.fromkeys(_factor_orbit(f, lam), 1)
    for mu in rest:
        # the identity's term is m(mu) itself, not yet set, so it adds 0
        m = -sum(e * full.get(_vadd(mu, s), 0) for s, e in shifts)
        if m < 0:
            raise RuntimeError(f"Racah multiplicity {m} at {_fmt_weight(mu)} for {f}")
        if m:
            full.update(dict.fromkeys(_factor_orbit(f, mu), m))
    if sum(full.values()) != _factor_weyl_dim(f, lam):
        raise RuntimeError(f"Racah/Weyl mismatch for {f} at {_fmt_weight(lam)}")
    return full


def irrep_weights(alg: AlgebraType, lam) -> dict:
    """Full weight multiset of the irrep with highest weight lam."""
    ms = {(): 1}
    for f, part in _highest_weight_parts(alg, lam):
        full = _factor_irrep(f, part)
        ms = {w0 + w1: m0 * m1 for w0, m0 in ms.items() for w1, m1 in full.items()}
    return ms


# ---------------------------------------------------------------------------
# multiset operations


def multiset_size(ms) -> int:
    return sum(ms.values())


def _packer(weights, reach):
    """(pack, unpack) between doubled weights and ints for sums of up to
    ``reach`` of the given weights.  A weight is read as signed base-B
    digits, coordinate 0 lowest, with B odd and above twice the largest
    |coordinate| such a sum can reach.  pack is linear, so pack(u) +
    pack(v) == pack(u + v), and it is one-to-one on the vectors those sums
    reach."""
    top = max(map(abs, chain.from_iterable(weights)), default=0)
    base = 2 * reach * top + 1
    half = base // 2
    ncoords = len(weights[0]) if weights else 0

    def pack(w):
        n = 0
        for x in reversed(w):
            n = n * base + x
        return n

    def unpack(n):
        out = []
        for _ in range(ncoords):
            n, r = divmod(n + half, base)
            out.append(r - half)
        return tuple(out)

    return pack, unpack


def _power_size(ms, k, sym) -> int:
    """multiset_size(ms), after a ValueError unless k and every
    multiplicity of ms are non-negative and, for wedge, k <= the size."""
    if k < 0:
        raise ValueError(f"power exponent {k} is negative")
    if any(m < 0 for m in ms.values()):
        raise ValueError("negative input multiplicity")
    n = multiset_size(ms)
    if not sym and k > n:
        raise ValueError(f"wedge exponent {k} exceeds dimension {n}")
    return n


def _powers(alg: AlgebraType, ms, k, sym):
    """(levels, unpack): levels[j] is S^j (sym) or wedge^j of ms for
    j = 0..k, keyed by packed doubled weight, the t^j coefficient of
    prod 1/(1 - t e^mu) or prod (1 + t e^mu) over the weights mu of ms.
    Each factor updates the degrees in place, ascending for S so a weight
    may repeat, descending for wedge so it may not.  The caller checks k
    and the multiplicities (``_power_size``)."""
    zero = (0,) * alg.ncoords
    weights = list(zip(_checked(alg, ms), ms.values()))
    pack, unpack = _packer([zero, *(mu for mu, _ in weights)], k)
    levels = [{pack(zero): 1}] + [{} for _ in range(k)]
    degrees = range(1, k + 1) if sym else range(k, 0, -1)
    for mu, m in weights:
        pm = pack(mu)
        for _ in range(m):
            for j in degrees:
                dst = levels[j]
                get = dst.get
                for w, c in levels[j - 1].items():
                    v = w + pm
                    dst[v] = get(v, 0) + c
    return levels, unpack


def wedge_power(alg: AlgebraType, ms, k) -> dict:
    """wedge^k of ms.  Past half the size n of ms it is read off degree
    n - k: each k-subset of the weights is the complement of an
    (n - k)-subset, so its sum is sigma - w for the weight sum sigma of
    ms and the sum w of the complement, for any multiset (wedge^k is
    (wedge^(n-k))* times det).  So the power loop never runs past n/2."""
    n = _power_size(ms, k, sym=False)
    j = min(k, n - k)
    levels, unpack = _powers(alg, ms, j, sym=False)
    if j == k:
        return {unpack(w): m for w, m in levels[k].items()}
    sigma = [sum(m * mu[t] for mu, m in ms.items()) for t in range(alg.ncoords)]
    return {tuple(map(sub, sigma, unpack(w))): m for w, m in levels[j].items()}


def sym_power(alg: AlgebraType, ms, k) -> dict:
    _power_size(ms, k, sym=True)
    levels, unpack = _powers(alg, ms, k, sym=True)
    return {unpack(w): m for w, m in levels[k].items()}


def tensor(alg: AlgebraType, a, b) -> dict:
    a = list(zip(_checked(alg, a), a.values()))
    b = list(zip(_checked(alg, b), b.values()))
    pack, unpack = _packer([w for w, _ in a + b], 2)
    packed_b = [(pack(w), m) for w, m in b]
    out = {}
    get = out.get
    for w0, m0 in a:
        p0 = pack(w0)
        for p1, m1 in packed_b:
            v = p0 + p1
            out[v] = get(v, 0) + m0 * m1
    return {unpack(w): m for w, m in out.items()}


def dsum(a, b) -> dict:
    out = dict(a)
    for w, m in b.items():
        out[w] = out.get(w, 0) + m
    return out


def box_tensor(alg_a: AlgebraType, a, alg_b: AlgebraType, b):
    """External tensor product across commuting factors: the new algebra
    is the concatenation, weights are concatenated pairs."""
    alg = AlgebraType(alg_a.factors + alg_b.factors)
    out = {}
    for w0, m0 in a.items():
        for w1, m1 in b.items():
            out[w0 + w1] = out.get(w0 + w1, 0) + m0 * m1
    return alg, out


# ---------------------------------------------------------------------------
# decomposition


def decompose(alg: AlgebraType, ms) -> list:
    """[(highest weight, multiplicity)] in decreasing lexicographic order,
    by Brauer-Klimyk at each dominant weight of ms.  Raises
    NotARepresentation when a multiplicity is negative, the multiset is
    not Weyl-symmetric (some simple reflection does not preserve it), or
    the counted dimensions do not exhaust the input, and ValueError when
    a highest weight is not integral.

    Symmetry is checked in one pass, without reflecting: the multiset is
    Weyl-symmetric exactly when every weight has the multiplicity of its
    dominant conjugate and, for each dominant lam, |W lam| weights are
    conjugate to lam, |W lam| read off lam's coordinates."""
    # one pass over ms: drop zero multiplicities, check the rest, and
    # canonicalize A-blocks (when alg has any), adding the multiplicities
    # of weights that canonicalize alike
    n = alg.ncoords
    a_blocks = alg._a_blocks
    weights = {}
    for w, m in ms.items():
        if m <= 0:
            if m:
                raise NotARepresentation("negative input multiplicity")
            continue
        w = tuple(w)
        if len(w) != n:
            raise ValueError(f"weight has {len(w)} coordinates, {alg} needs {n}")
        if a_blocks:
            w = _canon(w, a_blocks)
            m += weights.get(w, 0)
        weights[w] = m
    # _canon keeps a coordinate that is not an int one, so one scan of
    # the kept weights finds it
    if not all(map(isinstance, chain.from_iterable(weights), repeat(int))):
        raise ValueError(f"weight is not integral for {alg}")
    conjugate = alg._conjugate
    orbits = {}  # dominant lam -> the number of weights conjugate to it
    for w, m in weights.items():
        lam = conjugate(w)
        if weights.get(lam) != m:
            raise NotARepresentation(
                f"weight {_fmt_weight(w)} and its dominant conjugate {_fmt_weight(lam)} "
                "have different multiplicities, so a reflection does not preserve them"
            )
        orbits[lam] = orbits.get(lam, 0) + 1
    for lam, count in orbits.items():
        size = prod(_factor_orbit_size(f, lam[lo:hi]) for f, lo, hi in alg.slices)
        if count != size:
            raise NotARepresentation(
                f"{count} of the {size} conjugates of {_fmt_weight(lam)} are weights, "
                "so a reflection does not preserve the multiset"
            )
    # a weight plus a shift is a sum of two of the packed vectors, so
    # reach 2 keeps every lookup below exact
    shifts = alg._shifts
    pack, _ = _packer([*weights, *(s for s, _ in shifts)], 2)
    packed = {pack(w): m for w, m in weights.items()}
    get = packed.get
    packed_shifts = [(pack(s), e) for s, e in shifts]
    out = []
    for lam in sorted(orbits, reverse=True):
        p = pack(lam)
        mult = sum(e * get(p + s, 0) for s, e in packed_shifts)
        if mult < 0:
            raise NotARepresentation(f"negative multiplicity at {_fmt_weight(lam)}")
        if mult:
            out.append((lam, mult))
    counted = sum(
        m * prod(_factor_weyl_dim(f, _integral(f, lam[lo:hi])) for f, lo, hi in alg.slices)
        for lam, m in out
    )
    if counted != multiset_size(ms):
        raise NotARepresentation(
            f"decomposition covers {counted} of {multiset_size(ms)} weights"
        )
    return out


def invariant_dim(alg: AlgebraType, ms) -> int:
    return dict(decompose(alg, ms)).get((0,) * alg.ncoords, 0)


# ---------------------------------------------------------------------------
# the representations used by the verification scenarios


_ATOM_DEFS = {
    "Gamma": (B3, (1, 1, 1)),        # 8-dim spin rep of so(7)
    "V": (B3, (2, 0, 0)),            # 7-dim standard rep of so(7)
    "Gamma+": (D4, (1, 1, 1, 1)),    # 8-dim half-spin rep of so(8)
    "W": (A3, (2, 0, 0, 0)),         # 4-dim standard rep of sl(4)
    "W*": (A3, (2, 2, 2, 0)),        # its dual
    "V2": (A1, (2, 0)),              # 2-dim standard rep of sl(2)
}


def atom(name):
    """(algebra, weight multiset) for a named building-block rep."""
    if name not in _ATOM_DEFS:
        raise ValueError(f"unknown atom {name!r}; have {sorted(_ATOM_DEFS)}")
    alg, lam = _ATOM_DEFS[name]
    return alg, irrep_weights(alg, lam)


# ---------------------------------------------------------------------------
# expression grammar:  wedge(k, X) | sym(k, X) | X (+) Y | X (x) Y | (X)


_TOKEN_RE = re.compile(
    r"\s*(wedge\(|sym\(|\(\+\)|\(x\)|\(|\)|,|\d+|[A-Za-z][A-Za-z0-9+*]*)"
)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad expression near {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ValueError("expression ended early"
                             + (f", expected {expected!r}" if expected is not None else ""))
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def expr(self):
        left = self.term()
        while self.peek() in ("(+)", "(x)"):
            op = self.take()
            right = self.term()
            la, ms_a = left
            lb, ms_b = right
            if op == "(+)":
                if la != lb:
                    raise ValueError("direct sum requires matching algebras")
                left = (la, dsum(ms_a, ms_b))
            else:
                if la == lb:
                    left = (la, tensor(la, ms_a, ms_b))
                else:
                    left = box_tensor(la, ms_a, lb, ms_b)
        return left

    def term(self):
        tok = self.peek()
        if tok in ("wedge(", "sym("):
            self.take()
            k = self.take()
            if not k.isdecimal():
                raise ValueError(f"expected an integer exponent after {tok!r}, got {k!r}")
            k = int(k)
            self.take(",")
            alg, ms = self.expr()
            self.take(")")
            op = wedge_power if tok == "wedge(" else sym_power
            return (alg, op(alg, ms, k))
        if tok == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        name = self.take()
        return atom(name)


def parse_expr(text):
    """Evaluate an expression over the named atoms; returns (algebra,
    weight multiset)."""
    p = _Parser(_tokenize(text))
    result = p.expr()
    if p.peek() is not None:
        raise ValueError(f"trailing tokens at {p.toks[p.pos:]!r}")
    return result


# ---------------------------------------------------------------------------
# readouts of the canned scenarios (report.SCENARIOS), beside invariant_dim


def multiplicity(alg: AlgebraType, ms, lam) -> int:
    """Multiplicity in ms of the irrep with highest weight lam; 0 when ms
    lacks it."""
    return dict(decompose(alg, ms)).get(tuple(lam), 0)


def first_factor_trivial(alg: AlgebraType, ms) -> str:
    """Constituents trivial on the first factor, sorted, as 'weight:mult',
    the weight on the other factors in true coordinates."""
    hi = alg.factors[0].ncoords
    parts = sorted((lam[hi:], m) for lam, m in decompose(alg, ms) if not any(lam[:hi]))
    return ", ".join(f"{_fmt_weight(lam)}:{m}" for lam, m in parts)
