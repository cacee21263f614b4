"""Exact weight-multiset calculus for the classical Lie algebra families
A, B and D and their direct sums.

Representations are handled purely through their weight multisets, with
exact rational coordinates.  Irreducible multisets come from the
Freudenthal recursion (cross-checked against the Weyl dimension
formula), multisets are combined by exterior/symmetric powers, tensor
products, direct sums and concatenation across commuting factors, and
any Weyl-symmetric multiset can be decomposed back into irreducibles by
greedy highest-weight stripping.  The point of the module is counting
invariants in powers of small spin and standard representations, so
everything is sized for spaces of dimension up to a few thousand
(the largest exterior power used has C(16,8) = 12870 monomials).

Weight coordinates: a weight of a direct sum is the concatenation of
factor coordinate blocks.  B_n and D_n use n orthogonal coordinates.
A_n uses n+1 coordinates modulo the all-ones vector; stored weights are
canonicalized so the last coordinate of the block is zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

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
        assert self.family in ("A", "B", "D")
        assert self.rank >= 1
        if self.family == "D":
            assert self.rank >= 2

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
    assert len(w) == alg.ncoords
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


def _factor_dominant_conjugate(f: SimpleFactor, w):
    if f.family == "A":
        return _a_canon(tuple(sorted(w, reverse=True)))
    if f.family == "B":
        return tuple(sorted((abs(x) for x in w), reverse=True))
    mags = sorted((abs(x) for x in w), reverse=True)
    negs = sum(1 for x in w if x < 0)
    if negs % 2 == 1 and mags[-1] != 0:
        mags[-1] = -mags[-1]
    return tuple(mags)


def dominant_conjugate(alg: AlgebraType, w) -> tuple:
    out = []
    for f, lo, hi in alg.slices():
        out.extend(_factor_dominant_conjugate(f, w[lo:hi]))
    return tuple(out)


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


def _factor_roots(f: SimpleFactor):
    """Positive roots, in the internal coordinates (sum-zero for A)."""
    n = f.rank
    roots = []
    if f.family == "A":
        d = n + 1
        for i in range(d):
            for j in range(i + 1, d):
                v = [F0] * d
                v[i], v[j] = F1, -F1
                roots.append(tuple(v))
        return roots
    for i in range(n):
        for j in range(i + 1, n):
            for s in (F1, -F1):
                v = [F0] * n
                v[i], v[j] = F1, s
                roots.append(tuple(v))
    if f.family == "B":
        for i in range(n):
            v = [F0] * n
            v[i] = F1
            roots.append(tuple(v))
    return roots


def _factor_rho(f: SimpleFactor):
    n = f.rank
    if f.family == "A":
        d = n + 1
        return tuple(Fraction(d - 1 - 2 * t, 2) for t in range(d))
    if f.family == "B":
        return tuple(Fraction(2 * (n - t) - 1, 2) for t in range(n))
    return tuple(Fraction(n - 1 - t) for t in range(n))


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _vadd(u, v, k=1):
    return tuple(x + k * y for x, y in zip(u, v))


def _factor_weyl_dim(f: SimpleFactor, lam_internal) -> int:
    rho = _factor_rho(f)
    num = F1
    den = F1
    lr = _vadd(lam_internal, rho)
    for a in _factor_roots(f):
        num *= _dot(lr, a)
        den *= _dot(rho, a)
    d = num / den
    assert d.denominator == 1 and d > 0
    return d.numerator


def _to_internal(f: SimpleFactor, w):
    return _a_zero(w) if f.family == "A" else tuple(w)


def _from_internal(f: SimpleFactor, w):
    return _a_canon(w) if f.family == "A" else tuple(w)


def weyl_dim(alg: AlgebraType, lam) -> int:
    lam = canonicalize(alg, lam)
    if not is_dominant(alg, lam):
        raise ValueError("weight is not dominant")
    d = 1
    for f, lo, hi in alg.slices():
        d *= _factor_weyl_dim(f, _to_internal(f, lam[lo:hi]))
    return d


# ---------------------------------------------------------------------------
# Freudenthal multiplicities


def _value_range(top, frac):
    """0-anchored ladder frac, frac+1, ..., up to top."""
    out = []
    v = frac
    while v <= top:
        out.append(v)
        v += 1
    return out


def _candidates(f: SimpleFactor, lam_internal):
    """All dominant weights that can occur in the irrep with highest
    weight lam: same coset of the root lattice and below lam in the
    dominance order.  Returned in internal coordinates."""
    n = f.ncoords
    lam = lam_internal
    if f.family == "B":
        top = lam[0]
        frac = top - int(top)
        vals = sorted(_value_range(top, frac), reverse=True)
        out = []
        for mu in combinations_with_replacement(vals, n):
            t = F0
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
        pos = _value_range(top, frac)
        vals = sorted(set(pos + [-v for v in pos]), reverse=True)
        out = []
        for mu0 in combinations_with_replacement(vals, n):
            variants = {mu0}
            if mu0[-1] > 0:
                variants.add(mu0[:-1] + (-mu0[-1],))
            for mu in variants:
                if not _factor_dominant(f, mu):
                    continue
                t = F0
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
                if (
                    c_n.denominator == 1
                    and c_n1.denominator == 1
                    and c_n >= 0
                    and c_n1 >= 0
                ):
                    out.append(tuple(mu))
        return out
    # A family: enumerate in canonical coordinates, convert to sum-zero
    lam_c = _a_canon(lam)
    if any(x.denominator != 1 for x in lam_c):
        raise ValueError("A-type weights must have integer canonical coordinates")
    top = int(lam_c[0])
    total = sum(lam_c)
    d = n
    out = []
    for head in combinations_with_replacement(range(top, -1, -1), d - 1):
        mu_c = tuple(Fraction(x) for x in head) + (F0,)
        if (sum(mu_c) - total) % d != 0:
            continue
        mu0 = _a_zero(mu_c)
        t = F0
        ok = True
        for idx in range(d - 1):
            t += lam[idx] - mu0[idx]
            if t < 0 or t.denominator != 1:
                ok = False
                break
        if ok:
            out.append(mu0)
    return out


_FREUD_CACHE = {}


def _factor_dominant_table(f: SimpleFactor, lam_internal):
    """Freudenthal: dominant weight -> multiplicity, internal coords."""
    key = (f, lam_internal)
    if key in _FREUD_CACHE:
        return _FREUD_CACHE[key]
    rho = _factor_rho(f)
    roots = _factor_roots(f)
    cands = _candidates(f, lam_internal)
    assert lam_internal in cands
    order = sorted(cands, key=lambda mu: _dot(mu, rho), reverse=True)
    lr = _vadd(lam_internal, rho)
    lam_norm = _dot(lr, lr)
    mult = {lam_internal: 1}
    for mu in order:
        if mu == lam_internal:
            continue
        acc = F0
        for a in roots:
            k = 1
            while True:
                nu = _vadd(mu, a, k)
                nu_dom = _factor_dominant_conjugate(f, _from_internal(f, nu))
                m = mult.get(_to_internal(f, nu_dom), 0)
                if m == 0:
                    break
                acc += _dot(nu, a) * m
                k += 1
        mr = _vadd(mu, rho)
        denom = lam_norm - _dot(mr, mr)
        assert denom > 0
        val = 2 * acc / denom
        assert val.denominator == 1 and val >= 0
        if val:
            mult[mu] = val.numerator
    mult = {mu: m for mu, m in mult.items() if m}
    total = sum(len(_factor_orbit(f, _from_internal(f, mu))) * m for mu, m in mult.items())
    assert total == _factor_weyl_dim(f, lam_internal), "Freudenthal/Weyl mismatch"
    _FREUD_CACHE[key] = mult
    return mult


def dominant_table(alg: AlgebraType, lam) -> dict:
    """dominant weight -> multiplicity for the irrep with highest weight
    lam, in stored (canonical) coordinates."""
    lam = canonicalize(alg, lam)
    if not is_dominant(alg, lam):
        raise ValueError("weight is not dominant")
    table = {(): 1}
    for f, lo, hi in alg.slices():
        part = _factor_dominant_table(f, _to_internal(f, lam[lo:hi]))
        table = {
            w + _from_internal(f, mu): m0 * m
            for w, m0 in table.items()
            for mu, m in part.items()
        }
    return table


_IRREP_CACHE = {}


def irrep_weights(alg: AlgebraType, lam) -> dict:
    """Full weight multiset of the irrep with highest weight lam."""
    lam = canonicalize(alg, lam)
    key = (alg, lam)
    if key in _IRREP_CACHE:
        return dict(_IRREP_CACHE[key])
    ms = {(): 1}
    for f, lo, hi in alg.slices():
        part = _factor_dominant_table(f, _to_internal(f, lam[lo:hi]))
        full = {}
        for mu, m in part.items():
            for w in _factor_orbit(f, _from_internal(f, mu)):
                full[w] = full.get(w, 0) + m
        ms = {
            w0 + w1: m0 * m1 for w0, m0 in ms.items() for w1, m1 in full.items()
        }
    assert sum(ms.values()) == weyl_dim(alg, lam)
    _IRREP_CACHE[key] = dict(ms)
    return ms


# ---------------------------------------------------------------------------
# multiset operations


def multiset_size(ms) -> int:
    return sum(ms.values())


def _expand(ms):
    out = []
    for w, m in sorted(ms.items()):
        out.extend([w] * m)
    return out


def _sum_weights(alg, ws):
    total = [F0] * alg.ncoords
    for w in ws:
        for t, x in enumerate(w):
            total[t] += x
    return canonicalize(alg, total)


def wedge_power(alg: AlgebraType, ms, k) -> dict:
    items = _expand(ms)
    if k > len(items):
        raise ValueError(f"wedge exponent {k} exceeds dimension {len(items)}")
    out = {}
    for combo in combinations(items, k):
        w = _sum_weights(alg, combo)
        out[w] = out.get(w, 0) + 1
    return out


def sym_power(alg: AlgebraType, ms, k) -> dict:
    items = _expand(ms)
    out = {}
    for combo in combinations_with_replacement(items, k):
        w = _sum_weights(alg, combo)
        out[w] = out.get(w, 0) + 1
    return out


def tensor(alg: AlgebraType, a, b) -> dict:
    out = {}
    for w0, m0 in a.items():
        for w1, m1 in b.items():
            w = _sum_weights(alg, (w0, w1))
            out[w] = out.get(w, 0) + m0 * m1
    return out


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
        assert len(w) == 4
        out[w[:3]] = out.get(w[:3], 0) + m
    return out


def restrict_b3_to_d3(ms) -> dict:
    """B3 weights read as D3 weights (identity on coordinates)."""
    return dict(ms)


# ---------------------------------------------------------------------------
# decomposition


def decompose(alg: AlgebraType, ms) -> list:
    """Greedy decomposition into irreducibles.

    Strips the lexicographically largest dominant weight (lex refines
    the dominance order in these coordinates) with its full Freudenthal
    table, so only the dominant-restricted multiset is tracked.  Raises
    NotARepresentation when a multiplicity goes negative or the counted
    dimensions do not exhaust the input.
    """
    dom = {w: m for w, m in ms.items() if m and is_dominant(alg, w)}
    if any(m < 0 for m in ms.values()):
        raise NotARepresentation("negative input multiplicity")
    out = []
    while dom:
        lam = max(dom)
        mult = dom[lam]
        if mult < 0:
            raise NotARepresentation(f"negative multiplicity at {lam}")
        out.append((lam, mult))
        for mu, m in dominant_table(alg, lam).items():
            left = dom.get(mu, 0) - mult * m
            if left < 0:
                raise NotARepresentation(f"negative multiplicity at {mu}")
            if left:
                dom[mu] = left
            else:
                dom.pop(mu, None)
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
    zero = tuple([F0] * alg.ncoords)
    for lam, mult in decompose(alg, ms):
        if lam == zero:
            return mult
    return 0


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


def _fmt_weight(w):
    return "(" + ",".join(str(x) for x in w) + ")"


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
