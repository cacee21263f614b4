"""Exact weight-multiset calculus for the classical Lie algebra families
A, B and D and their direct sums.

Representations are handled purely through their weight multisets, with
exact rational coordinates.  One Weyl-group alternating sum does the
representation theory: the irrep of highest weight lam occurs
sum_w sign(w) ms[lam + rho - w rho] times in a Weyl-symmetric multiset
ms (Brauer-Klimyk), which decomposes a multiset, and the same sum over
the irrep itself, equal to 1 at lam and 0 at every other dominant
weight, builds its weight system (Racah's recursion; each total is
checked against the Weyl dimension formula).  A factor is seen only
through its positive roots and simple reflections: rho is half the sum
of the roots, the (rho - w rho, sign w) pairs come from the orbit of
rho, and the dominant weights below a highest weight, which must be
dominant and integral (else ValueError), are reached from it by
subtracting positive roots.  Exterior and symmetric powers are the
coefficients of prod (1 + t e^mu) and prod 1/(1 - t e^mu) over the
weights mu, in integer counts; tensor products, direct sums and
concatenation across commuting factors complete the calculus.  Sizes:
wedge^12 of three 8-dim spin representations has C(24,12) = 2704156
weights, 553 distinct.

Weight coordinates: a weight of a direct sum is the concatenation of
factor coordinate blocks.  B_n and D_n use n orthogonal coordinates.
A_n uses n+1 coordinates modulo the all-ones vector; stored weights are
canonicalized so the last coordinate of the block is zero, so sums of
stored weights are stored weights.

Inside the power, tensor and decompose loops a weight is one int: its
coordinates times their common denominator, read as signed digits in an
odd base wide enough for every sum the loop forms (``_packer``), so
adding weights is adding ints and dict keys hash as ints.  Weights are
packed on entry and unpacked on exit; the API takes and returns tuples
of Fraction throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm, prod

F0 = Fraction(0)
F1 = Fraction(1)
FH = Fraction(1, 2)


class NotARepresentation(ValueError):
    """The multiset is not the weight system of any finite-dim rep."""


@dataclass(frozen=True)
class SimpleFactor:
    family: str  # 'A', 'B' or 'D'
    rank: int

    def __post_init__(self):
        if self.family not in ("A", "B", "D"):
            raise ValueError(f"unknown family {self.family!r}; know A, B, D")
        if self.rank < (2 if self.family == "D" else 1):
            raise ValueError(f"rank {self.rank} is too small for family {self.family}")

    @property
    def ncoords(self):
        return self.rank + 1 if self.family == "A" else self.rank

    def __str__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class AlgebraType:
    factors: tuple

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

    def slices(self):
        out = []
        off = 0
        for f in self.factors:
            out.append((f, off, off + f.ncoords))
            off += f.ncoords
        return out

    def __str__(self):
        return "+".join(str(f) for f in self.factors)


B3 = AlgebraType.parse("B3")
D4 = AlgebraType.parse("D4")
A3 = AlgebraType.parse("A3")
A1 = AlgebraType.parse("A1")
B3A1 = AlgebraType.parse("B3+A1")


# ---------------------------------------------------------------------------
# per-factor weight helpers (weights as tuples of Fractions)


def _a_canon(w):
    last = w[-1]
    return tuple(x - last for x in w)


def _a_zero(w):
    mean = sum(w) / len(w)
    return tuple(x - mean for x in w)


def canonicalize(alg: AlgebraType, w) -> tuple:
    w = tuple(Fraction(x) for x in w)
    if len(w) != alg.ncoords:
        raise ValueError(f"weight has {len(w)} coordinates, {alg} needs {alg.ncoords}")
    out = []
    for f, lo, hi in alg.slices():
        part = w[lo:hi]
        out.extend(_a_canon(part) if f.family == "A" else part)
    return tuple(out)


def _factor_dominant(f: SimpleFactor, w) -> bool:
    if f.family == "A":
        return all(w[t] >= w[t + 1] for t in range(len(w) - 1))
    if f.family == "B":
        return all(w[t] >= w[t + 1] for t in range(len(w) - 1)) and w[-1] >= 0
    return all(w[t] >= w[t + 1] for t in range(len(w) - 2)) and w[-2] >= abs(w[-1])


def is_dominant(alg: AlgebraType, w) -> bool:
    return all(
        _factor_dominant(f, w[lo:hi]) for f, lo, hi in alg.slices()
    )


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


def reflections(alg: AlgebraType):
    """All simple reflections, lifted to full concatenated weights."""
    out = []
    for f, lo, hi in alg.slices():
        for r in _factor_reflections(f):
            def lifted(w, lo=lo, hi=hi, r=r):
                return w[:lo] + r(w[lo:hi]) + w[hi:]

            out.append(lifted)
    return out


def _factor_orbit(f: SimpleFactor, w):
    refl = _factor_reflections(f)
    seen = {tuple(w)}
    stack = [tuple(w)]
    while stack:
        cur = stack.pop()
        for r in refl:
            nxt = r(cur)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# roots, rho, Weyl dimension


@cache
def _factor_roots(f: SimpleFactor):
    """Positive roots, in the internal coordinates (sum-zero for A):
    e_i - e_j and, for B and D, e_i + e_j (i < j); for B also e_i."""
    unit = [tuple(F1 if t == i else F0 for t in range(f.ncoords)) for i in range(f.ncoords)]
    pairs = list(combinations(unit, 2))
    roots = [_vadd(u, v, -1) for u, v in pairs]
    if f.family != "A":
        roots += [_vadd(u, v) for u, v in pairs]
    if f.family == "B":
        roots += unit
    return tuple(roots)


@cache
def _factor_rho(f: SimpleFactor):
    """Half the sum of the positive roots."""
    return tuple(sum(col) / 2 for col in zip(*_factor_roots(f)))


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _vadd(u, v, k=1):
    return tuple(x + k * y for x, y in zip(u, v))


def _fmt_weight(w):
    return "(" + ",".join(str(x) for x in w) + ")"


def _factor_weyl_dim(f: SimpleFactor, lam_internal) -> int:
    rho = _factor_rho(f)
    num = F1
    den = F1
    lr = _vadd(lam_internal, rho)
    for a in _factor_roots(f):
        num *= _dot(lr, a)
        den *= _dot(rho, a)
    d = num / den
    if d.denominator != 1 or d <= 0:
        raise RuntimeError(f"Weyl dimension {d} of {_fmt_weight(lam_internal)} for {f}")
    return d.numerator


def _to_internal(f: SimpleFactor, w):
    return _a_zero(w) if f.family == "A" else tuple(w)


def _from_internal(f: SimpleFactor, w):
    return _a_canon(w) if f.family == "A" else tuple(w)


@cache
def _factor_shifts(f: SimpleFactor):
    """(rho - w rho, sign w) for every w in the Weyl group of f, in stored
    coordinates.  rho is regular, so its orbit lists each w once, and
    sign w = (-1)^#{a > 0 : <w rho, a> < 0}."""
    rho = _from_internal(f, _factor_rho(f))
    roots = _factor_roots(f)
    out = []
    for w in _factor_orbit(f, rho):
        w_int = _to_internal(f, w)
        neg = sum(1 for a in roots if _dot(w_int, a) < 0)
        out.append((_vadd(rho, w, -1), -1 if neg % 2 else 1))
    return tuple(out)


def _highest_weight_parts(alg: AlgebraType, lam):
    """(factor, block of lam in internal coordinates) for each factor.

    Raises ValueError unless lam is dominant and integral, that is,
    2<lam, a>/<a, a> is an integer for every positive root a."""
    lam = canonicalize(alg, lam)
    if not is_dominant(alg, lam):
        raise ValueError("weight is not dominant")
    parts = []
    for f, lo, hi in alg.slices():
        part = _to_internal(f, lam[lo:hi])
        if any((2 * _dot(part, a) / _dot(a, a)).denominator != 1 for a in _factor_roots(f)):
            raise ValueError(f"weight is not integral for {f}")
        parts.append((f, part))
    return parts


def weyl_dim(alg: AlgebraType, lam) -> int:
    return prod(_factor_weyl_dim(f, part) for f, part in _highest_weight_parts(alg, lam))


# ---------------------------------------------------------------------------
# irreducible weight systems


def _candidates(f: SimpleFactor, lam_internal):
    """All dominant weights below lam in the dominance order, lam first,
    in internal coordinates.  Among dominant weights every covering step
    mu < nu has nu - mu a positive root (Stembridge, The partial order of
    dominant weights, 1998), so subtracting positive roots and keeping
    the dominant results reaches all of them."""
    roots = _factor_roots(f)
    out = [lam_internal]
    seen = {lam_internal}
    for mu in out:
        for a in roots:
            nu = _vadd(mu, a, -1)
            if nu not in seen and _factor_dominant(f, nu):
                seen.add(nu)
                out.append(nu)
    return out


@cache
def _factor_irrep(f: SimpleFactor, lam_internal):
    """Weight multiset of the irrep of f with highest weight lam, in
    stored coordinates, by Racah's recursion: on the irrep itself the
    Brauer-Klimyk sum that decompose evaluates is 1 at lam and 0 at every
    other dominant mu, so m(mu) = -sum_{w != 1} sign(w) m(mu + rho - w rho)
    over the shifts of _factor_shifts.  Each such weight is conjugate to a
    dominant weight higher than mu, so walking the dominant weights in
    decreasing height finds every term already set.  The total is checked
    against the Weyl dimension formula."""
    rho = _factor_rho(f)
    shifts = _factor_shifts(f)
    # _candidates puts lam first; the rest go in decreasing height
    rest = sorted(_candidates(f, lam_internal)[1:], key=lambda mu: _dot(mu, rho), reverse=True)
    full = dict.fromkeys(_factor_orbit(f, _from_internal(f, lam_internal)), 1)
    for mu in (_from_internal(f, nu) for nu in rest):
        # the identity's term is m(mu) itself, not yet set, so it adds 0
        m = -sum(e * full.get(_vadd(mu, s), 0) for s, e in shifts)
        if m < 0:
            raise RuntimeError(f"Racah multiplicity {m} at {_fmt_weight(mu)} for {f}")
        if m:
            full.update(dict.fromkeys(_factor_orbit(f, mu), m))
    if sum(full.values()) != _factor_weyl_dim(f, lam_internal):
        raise RuntimeError(f"Racah/Weyl mismatch for {f} at {_fmt_weight(lam_internal)}")
    return full


_IRREP_CACHE = {}


def irrep_weights(alg: AlgebraType, lam) -> dict:
    """Full weight multiset of the irrep with highest weight lam."""
    lam = canonicalize(alg, lam)
    key = (alg, lam)
    if key in _IRREP_CACHE:
        return dict(_IRREP_CACHE[key])
    ms = {(): 1}
    for f, part in _highest_weight_parts(alg, lam):
        full = _factor_irrep(f, part)
        ms = {w0 + w1: m0 * m1 for w0, m0 in ms.items() for w1, m1 in full.items()}
    _IRREP_CACHE[key] = dict(ms)
    return ms


# ---------------------------------------------------------------------------
# multiset operations


def multiset_size(ms) -> int:
    return sum(ms.values())


def _packer(weights, reach):
    """(pack, unpack) between weights and ints for sums of up to ``reach``
    of the given weights.  A weight is scaled by the common denominator D
    of the coordinates of ``weights`` and read as signed base-B digits,
    coordinate 0 lowest, with B odd and above twice the largest |scaled
    coordinate| such a sum can reach.  pack is linear, so pack(u) + pack(v)
    == pack(u + v), and it is one-to-one on the vectors those sums reach."""
    den = lcm(*(x.denominator for w in weights for x in w))
    top = max((abs(x.numerator) * (den // x.denominator) for w in weights for x in w), default=0)
    base = 2 * reach * top + 1
    half = base // 2
    ncoords = len(weights[0]) if weights else 0
    digits = {}  # digit -> its Fraction, built once and reused by every unpack

    def pack(w):
        n = 0
        for x in reversed(w):
            n = n * base + x.numerator * (den // x.denominator)
        return n

    def unpack(n):
        out = []
        for _ in range(ncoords):
            n, r = divmod(n + half, base)
            x = digits.get(r)
            if x is None:
                x = digits[r] = Fraction(r - half, den)
            out.append(x)
        return tuple(out)

    return pack, unpack


def _unpack_multiset(packed, unpack) -> dict:
    return {unpack(w): m for w, m in packed.items()}


def _powers(alg: AlgebraType, ms, k, sym):
    """(levels, unpack): levels[j] is S^j (sym) or wedge^j of ms for
    j = 0..k, keyed by packed weight, the t^j coefficient of
    prod 1/(1 - t e^mu) or prod (1 + t e^mu) over the weights mu of ms.
    Each factor updates the degrees in place, ascending for S so a weight
    may repeat, descending for wedge so it may not."""
    n = multiset_size(ms)
    if k < 0:
        raise ValueError(f"power exponent {k} is negative")
    if not sym and k > n:
        raise ValueError(f"wedge exponent {k} exceeds dimension {n}")
    zero = tuple([F0] * alg.ncoords)
    pack, unpack = _packer([zero, *ms], k)
    levels = [{pack(zero): 1}] + [{} for _ in range(k)]
    degrees = range(1, k + 1) if sym else range(k, 0, -1)
    for mu, m in ms.items():
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
    levels, unpack = _powers(alg, ms, k, sym=False)
    return _unpack_multiset(levels[k], unpack)


def sym_power(alg: AlgebraType, ms, k) -> dict:
    levels, unpack = _powers(alg, ms, k, sym=True)
    return _unpack_multiset(levels[k], unpack)


def tensor(alg: AlgebraType, a, b) -> dict:
    pack, unpack = _packer([*a, *b], 2)
    packed_b = [(pack(w), m) for w, m in b.items()]
    out = {}
    get = out.get
    for w0, m0 in a.items():
        p0 = pack(w0)
        for p1, m1 in packed_b:
            v = p0 + p1
            out[v] = get(v, 0) + m0 * m1
    return _unpack_multiset(out, unpack)


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


def dual(alg: AlgebraType, ms) -> dict:
    out = {}
    for w, m in ms.items():
        neg = canonicalize(alg, tuple(-x for x in w))
        out[neg] = out.get(neg, 0) + m
    return out


def restrict_d4_to_b3(ms) -> dict:
    """Restriction along B3 inside D4: drop the last coordinate."""
    out = {}
    for w, m in ms.items():
        if len(w) != 4:
            raise ValueError(f"weight {_fmt_weight(w)} is not a D4 weight")
        out[w[:3]] = out.get(w[:3], 0) + m
    return out


def restrict_b3_to_d3(ms) -> dict:
    """B3 weights read as D3 weights (identity on coordinates)."""
    return dict(ms)


# ---------------------------------------------------------------------------
# decomposition


def decompose(alg: AlgebraType, ms) -> list:
    """[(highest weight, multiplicity)] in decreasing lexicographic order,
    by Brauer-Klimyk at each dominant weight of ms.  Raises
    NotARepresentation when a multiplicity is negative, a simple
    reflection does not preserve the multiset, or the counted dimensions
    do not exhaust the input."""
    if any(m < 0 for m in ms.values()):
        raise NotARepresentation("negative input multiplicity")
    shifts = [((), 1)]
    for f, _, _ in alg.slices():
        shifts = [(s0 + s1, e0 * e1) for s0, e0 in shifts for s1, e1 in _factor_shifts(f)]
    # a reflected stored weight, and a weight plus a shift, are sums of
    # at most two of the packed vectors (an A-block reflection subtracts
    # a coordinate), so reach 2 keeps every lookup below exact
    pack, _ = _packer([*ms, *(s for s, _ in shifts)], 2)
    support = [(w, m) for w, m in ms.items() if m]
    packed = {pack(w): m for w, m in support}
    get = packed.get
    for r in reflections(alg):
        for w, m in support:
            if get(pack(r(w))) != m:
                raise NotARepresentation(
                    f"weight {_fmt_weight(w)} and its reflection {_fmt_weight(r(w))} "
                    "have different multiplicities"
                )
    packed_shifts = [(pack(s), e) for s, e in shifts]
    out = []
    for lam in sorted((w for w, _ in support if is_dominant(alg, w)), reverse=True):
        p = pack(lam)
        mult = sum(e * get(p + s, 0) for s, e in packed_shifts)
        if mult < 0:
            raise NotARepresentation(f"negative multiplicity at {lam}")
        if mult:
            out.append((lam, mult))
    counted = sum(m * weyl_dim(alg, lam) for lam, m in out)
    if counted != multiset_size(ms):
        raise NotARepresentation(
            f"decomposition covers {counted} of {multiset_size(ms)} weights"
        )
    return out


def reconstruct(alg: AlgebraType, decomposition) -> dict:
    ms = {}
    for lam, mult in decomposition:
        for w, m in irrep_weights(alg, lam).items():
            ms[w] = ms.get(w, 0) + mult * m
    return ms


def invariant_dim(alg: AlgebraType, ms) -> int:
    return dict(decompose(alg, ms)).get(tuple([F0] * alg.ncoords), 0)


# ---------------------------------------------------------------------------
# the representations used by the verification scenarios


_ATOM_DEFS = {
    "Gamma": (B3, (FH, FH, FH)),       # 8-dim spin rep of so(7)
    "V": (B3, (F1, F0, F0)),           # 7-dim standard rep of so(7)
    "Gamma+": (D4, (FH, FH, FH, FH)),  # 8-dim half-spin rep of so(8)
    "W": (A3, (F1, F0, F0, F0)),       # 4-dim standard rep of sl(4)
    "W*": (A3, (F1, F1, F1, F0)),      # its dual
    "V2": (A1, (F1, F0)),              # 2-dim standard rep of sl(2)
}


def atom(name):
    """(algebra, weight multiset) for a named building-block rep."""
    if name not in _ATOM_DEFS:
        raise ValueError(f"unknown atom {name!r}; have {sorted(_ATOM_DEFS)}")
    alg, lam = _ATOM_DEFS[name]
    return alg, irrep_weights(alg, lam)


def atom_names():
    return sorted(_ATOM_DEFS)


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
        if tok is None or (expected is not None and tok != expected):
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
            k = int(self.take())
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
# canned verification scenarios


SCENARIOS = (
    "so7_hodge",
    "so8_hodge",
    "weil_4fold",
    "selfproduct_weil",
    "gl2_summand",
    "lemma68",
)


def scenario_report(name) -> dict:
    """Run one canned invariant-count scenario; returns a dict with a
    row per claim: {claim, expected, computed, ok}."""
    rows = []

    def row(claim, expected, computed):
        rows.append(
            {
                "claim": claim,
                "expected": expected,
                "computed": computed,
                "ok": expected == computed,
            }
        )

    if name == "so7_hodge":
        alg, gamma = atom("Gamma")
        two = dsum(gamma, gamma)
        expected = {1: 1, 2: 6, 3: 6, 4: 16}
        for p in range(1, 5):
            inv = invariant_dim(alg, wedge_power(alg, two, 2 * p))
            row(f"invariants in degree {2 * p} of the doubled spin rep", expected[p], inv)
    elif name == "so8_hodge":
        alg, gp = atom("Gamma+")
        two = dsum(gp, gp)
        expected = {1: 1, 2: 1, 3: 1, 4: 10}
        for p in range(1, 5):
            inv = invariant_dim(alg, wedge_power(alg, two, 2 * p))
            row(
                f"invariants in degree {2 * p} of the doubled half-spin rep",
                expected[p],
                inv,
            )
    elif name == "weil_4fold":
        alg, w = atom("W")
        _, ws = atom("W*")
        both = dsum(w, ws)
        inv = invariant_dim(alg, wedge_power(alg, both, 4))
        row("invariants in degree 4 of standard plus dual", 3, inv)
    elif name == "selfproduct_weil":
        alg, w = atom("W")
        _, ws = atom("W*")
        both = dsum(w, ws)
        four = dsum(both, both)
        inv = invariant_dim(alg, wedge_power(alg, four, 2))
        row("invariants in degree 2 of the doubled standard-plus-dual", 4, inv)
    elif name == "gl2_summand":
        alg, v2 = atom("V2")
        for n in range(1, 5):
            ms = {}
            for _ in range(2 * n):
                ms = dsum(ms, v2)
            dec = dict(decompose(alg, wedge_power(alg, ms, 2 * n)))
            lam = (Fraction(2 * n), F0)
            row(
                f"multiplicity of the {2 * n + 1}-dim constituent in the "
                f"middle power of {2 * n} doubled lines",
                1,
                dec.get(lam, 0),
            )
    elif name == "lemma68":
        alg_g, gamma = atom("Gamma")
        alg_2, v2 = atom("V2")
        alg, big = box_tensor(alg_g, gamma, alg_2, v2)
        dec = decompose(alg, wedge_power(alg, big, 4))
        trivial_part = {
            lam[3:]: m for lam, m in dec if lam[:3] == (F0, F0, F0)
        }
        got = ", ".join(
            f"{_fmt_weight(lam)}:{m}" for lam, m in sorted(trivial_part.items())
        )
        row(
            "first-factor-trivial constituents of the degree-4 power",
            "(0,0):1, (4,0):1",
            got,
        )
    else:
        raise ValueError(f"unknown scenario {name!r}; have {SCENARIOS}")
    return {"scenario": name, "rows": rows, "ok": all(r["ok"] for r in rows)}
