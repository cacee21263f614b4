"""Symbolic checks for the genus-2 curve y^2 = x^5 - x and its
quaternion symmetry.

The curve carries the order-4 automorphisms

    phi_i: (x, y) -> (-x, iy)        phi_j: (x, y) -> (1/x, iy/x^3)

which generate a quaternion group of order 8 whose central involution
is the hyperelliptic one.  Under the tricanonical embedding by
(1 : x : x^2 : x^3 : y) the image is cut out by four quadrics, the
group acts on P^4 by explicit matrices, and four quartics in the
quadrics are invariant.  Everything here is exact arithmetic over the
Gaussian rationals Q(i), as ``qalg.KNum`` with r = -1, and the matrix
algebra over them is the ``linalg`` kernel; the only non-symbolic check
is a finite-field enumeration comparing zero loci pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

from .linalg import inverse, mat_mul, rank, solve
from .qalg import KNum


G0 = KNum.make(-1, 0)
G1 = KNum.make(-1, 1)
GI = KNum.make(-1, 0, 1)
UNITS = (G1, -G1, GI, -GI)


class PolyGauss:
    """Multivariate polynomial with Gaussian rational (KNum) coefficients.

    Terms live in a dict keyed by exponent tuples; zero coefficients
    are never stored, so equality is dict equality."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exp, c in terms.items():
                if c:
                    self.terms[exp] = c

    @staticmethod
    def const(nvars, c) -> "PolyGauss":
        if not isinstance(c, KNum):
            c = G1.scale(c)
        return PolyGauss(nvars, {(0,) * nvars: c})

    @staticmethod
    def var(idx, nvars) -> "PolyGauss":
        exp = tuple(1 if t == idx else 0 for t in range(nvars))
        return PolyGauss(nvars, {exp: G1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, PolyGauss) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, G0) + c
        return PolyGauss(self.nvars, out)

    def __neg__(self):
        return PolyGauss(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if exp in out:
                    out[exp] = out[exp] + prod
                else:
                    out[exp] = prod
        return PolyGauss(self.nvars, out)

    def scale(self, c: KNum) -> "PolyGauss":
        return PolyGauss(self.nvars, {e: c * v for e, v in self.terms.items()})

    def pow(self, k: int) -> "PolyGauss":
        assert k >= 0
        out = PolyGauss.const(self.nvars, G1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def max_deg(self, idx) -> int:
        return max((e[idx] for e in self.terms), default=0)

    def derivative(self, idx) -> "PolyGauss":
        out = {}
        for exp, c in self.terms.items():
            if exp[idx] == 0:
                continue
            nexp = exp[:idx] + (exp[idx] - 1,) + exp[idx + 1 :]
            out[nexp] = out.get(nexp, G0) + c.scale(exp[idx])
        return PolyGauss(self.nvars, out)

    def monomial_gcd(self):
        if not self.terms:
            return (0,) * self.nvars
        return tuple(min(e[t] for e in self.terms) for t in range(self.nvars))

    def shift_down(self, mono) -> "PolyGauss":
        return PolyGauss(
            self.nvars,
            {tuple(a - b for a, b in zip(e, mono)): c for e, c in self.terms.items()},
        )

    def substitute(self, polys) -> "PolyGauss":
        """Plug polynomials (in some common ring) in for the variables."""
        assert len(polys) == self.nvars
        nv = polys[0].nvars
        out = PolyGauss(nv, {})
        for exp, c in self.terms.items():
            term = PolyGauss.const(nv, c)
            for idx, e in enumerate(exp):
                if e:
                    term = term * polys[idx].pow(e)
            out = out + term
        return out

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{e}" for e, c in self.sorted_terms())


# the two rings in play
XY = 2
P4 = 5
X = PolyGauss.var(0, XY)
Y = PolyGauss.var(1, XY)
CURVE_POLY = Y * Y - X.pow(5) + X  # y^2 - x^5 + x


@dataclass(frozen=True)
class RatFunc:
    """Quotient of polynomials; common monomial factors are cancelled
    on construction and constant denominators folded away."""

    num: PolyGauss
    den: PolyGauss

    @staticmethod
    def make(num: PolyGauss, den: PolyGauss = None) -> "RatFunc":
        if den is None:
            den = PolyGauss.const(num.nvars, G1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        gn = num.monomial_gcd()
        gd = den.monomial_gcd()
        common = tuple(min(a, b) for a, b in zip(gn, gd))
        if any(common):
            num = num.shift_down(common)
            den = den.shift_down(common)
        if len(den.terms) == 1:
            (exp, c), = den.terms.items()
            if not any(exp):
                num = num.scale(c.inv())
                den = PolyGauss.const(num.nvars, G1)
        return RatFunc(num, den)

    def __add__(self, other):
        return RatFunc.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return RatFunc.make(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return RatFunc.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc.make(self.num * other.den, self.den * other.num)

    def __neg__(self):
        return RatFunc.make(-self.num, self.den)

    def pow(self, k: int) -> "RatFunc":
        return RatFunc.make(self.num.pow(k), self.den.pow(k))

    def eq(self, other) -> bool:
        return (self.num * other.den) == (other.num * self.den)

    def is_polynomial(self) -> bool:
        t = self.den.terms
        return len(t) == 1 and not any(next(iter(t)))

    def as_polynomial(self) -> PolyGauss:
        if not self.is_polynomial():
            raise ValueError("denominator did not cancel")
        (exp, c), = self.den.terms.items()
        return self.num.scale(c.inv())


def poly_at_rats(poly: PolyGauss, rats) -> RatFunc:
    """Substitute rational functions for the variables, clearing to a
    single quotient with denominator prod den_i^(max deg_i)."""
    degs = [poly.max_deg(t) for t in range(poly.nvars)]
    nv = rats[0].num.nvars
    den = PolyGauss.const(nv, G1)
    for d, rf in zip(degs, rats):
        den = den * rf.den.pow(d)
    num = PolyGauss(nv, {})
    for exp, c in poly.terms.items():
        term = PolyGauss.const(nv, c)
        for idx, e in enumerate(exp):
            term = term * rats[idx].num.pow(e) * rats[idx].den.pow(degs[idx] - e)
        num = num + term
    return RatFunc.make(num, den)


def rat_at_rats(rf: RatFunc, rats) -> RatFunc:
    return poly_at_rats(rf.num, rats) / poly_at_rats(rf.den, rats)


@dataclass(frozen=True)
class CurveAuto:
    """Automorphism of the affine curve, as substitutions for x and y."""

    name: str
    fx: RatFunc
    fy: RatFunc

    def compose(self, other: "CurveAuto") -> "CurveAuto":
        """self after other."""
        rats = (other.fx, other.fy)
        return CurveAuto(
            name=f"{self.name}*{other.name}",
            fx=rat_at_rats(self.fx, rats),
            fy=rat_at_rats(self.fy, rats),
        )

    def same_map(self, other: "CurveAuto") -> bool:
        return self.fx.eq(other.fx) and self.fy.eq(other.fy)


def _rf(num, den=None):
    return RatFunc.make(num, den)


AUTO_ID = CurveAuto("id", _rf(X), _rf(Y))
AUTO_I = CurveAuto("i", _rf(-X), _rf(Y.scale(GI)))
AUTO_J = CurveAuto("j", _rf(PolyGauss.const(XY, G1), X), _rf(Y.scale(GI), X.pow(3)))
AUTO_HYP = CurveAuto("hyp", _rf(X), _rf(-Y))


def _ideal_factor(auto: CurveAuto):
    """Find a unit u and power k with num * x^k = u * F * den for the
    transported curve polynomial; None if the map does not preserve
    the curve's ideal."""
    g = poly_at_rats(CURVE_POLY, (auto.fx, auto.fy))
    for k in range(13):
        xk = X.pow(k)
        lhs = g.num * xk
        for u in UNITS:
            if lhs == CURVE_POLY.scale(u) * g.den:
                return u, k
    return None


def verify_curve_autos() -> dict:
    """The two substitutions preserve the curve and generate an
    order-8 quaternion group with the hyperelliptic central element."""
    fact_i = _ideal_factor(AUTO_I)
    fact_j = _ideal_factor(AUTO_J)
    ii = AUTO_I.compose(AUTO_I)
    jj = AUTO_J.compose(AUTO_J)
    ij = AUTO_I.compose(AUTO_J)
    ji = AUTO_J.compose(AUTO_I)
    hyp_ji = AUTO_HYP.compose(ji)
    # closure under composition, with equality of rational maps
    elems = [AUTO_ID]
    frontier = [AUTO_ID]
    while frontier:
        cur = frontier.pop()
        for gen in (AUTO_I, AUTO_J):
            nxt = gen.compose(cur)
            if not any(nxt.same_map(e) for e in elems):
                elems.append(nxt)
                frontier.append(nxt)
    report = {
        "ideal_factor_i": None if fact_i is None else (str(fact_i[0]), fact_i[1]),
        "ideal_factor_j": None if fact_j is None else (str(fact_j[0]), fact_j[1]),
        "i_squared_is_hyp": ii.same_map(AUTO_HYP),
        "j_squared_is_hyp": jj.same_map(AUTO_HYP),
        "hyp_squared_is_id": AUTO_HYP.compose(AUTO_HYP).same_map(AUTO_ID),
        "ij_vs_hyp_ji": ij.same_map(hyp_ji),
        "group_order": len(elems),
    }
    report["ok"] = (
        fact_i is not None
        and fact_j is not None
        and report["i_squared_is_hyp"]
        and report["j_squared_is_hyp"]
        and report["hyp_squared_is_id"]
        and report["ij_vs_hyp_ji"]
        and report["group_order"] == 8
    )
    return report


# quadrics cutting out the tricanonical image
X0, X1, X2, X3, X4 = (PolyGauss.var(t, P4) for t in range(5))
QUADRICS = (
    X4 * X4 + X0 * X1 - X2 * X3,
    X0 * X2 - X1 * X1,
    X0 * X3 - X1 * X2,
    X1 * X3 - X2 * X2,
)
# coordinates restricted to the curve
PARAM = (
    PolyGauss.const(XY, G1),
    X,
    X.pow(2),
    X.pow(3),
    Y,
)


def reduce_mod_curve(poly: PolyGauss) -> PolyGauss:
    """Rewrite y^2 -> x^5 - x until the y-degree is at most 1."""
    assert poly.nvars == XY
    rhs = X.pow(5) - X
    out = PolyGauss(XY, {})
    for (ex, ey), c in poly.terms.items():
        q, rem = divmod(ey, 2)
        term = PolyGauss(XY, {(ex, rem): c})
        if q:
            term = term * rhs.pow(q)
        out = out + term
    if any(e[1] >= 2 for e in out.terms):
        return reduce_mod_curve(out)
    return out


def verify_quadrics() -> dict:
    """Each quadric vanishes on the parametrized curve."""
    residues = []
    for q in QUADRICS:
        pulled = q.substitute(PARAM)
        residues.append(reduce_mod_curve(pulled))
    report = {f"q{t}_vanishes": r.is_zero() for t, r in enumerate(residues)}
    report["ok"] = all(report.values())
    return report


# the projective action
def _gmat(rows):
    return tuple(tuple(rows[p][q] for q in range(5)) for p in range(5))


MAT_I = _gmat(
    [
        [G1, G0, G0, G0, G0],
        [G0, -G1, G0, G0, G0],
        [G0, G0, G1, G0, G0],
        [G0, G0, G0, -G1, G0],
        [G0, G0, G0, G0, GI],
    ]
)
MAT_J = _gmat(
    [
        [G0, G0, G0, G1, G0],
        [G0, G0, G1, G0, G0],
        [G0, G1, G0, G0, G0],
        [G1, G0, G0, G0, G0],
        [G0, G0, G0, G0, GI],
    ]
)


def proj_canon(m):
    """Scale so the first nonzero entry (row-major) is 1."""
    for row in m:
        for entry in row:
            if entry:
                inv = entry.inv()
                return tuple(tuple(x * inv for x in r) for r in m)
    raise ValueError("zero matrix")


def proj_eq(a, b) -> bool:
    return proj_canon(a) == proj_canon(b)


def matrix_pullback(poly: PolyGauss, m) -> PolyGauss:
    """Substitute x_p -> sum_q m[p][q] x_q."""
    rows = []
    for p in range(5):
        acc = PolyGauss(P4, {})
        for q in range(5):
            if m[p][q]:
                acc = acc + PolyGauss.var(q, P4).scale(m[p][q])
        rows.append(acc)
    return poly.substitute(rows)


def _in_quadric_span(poly: PolyGauss):
    """Coefficients of poly in the quadric basis, or None."""
    monos = sorted({e for q in QUADRICS for e in q.terms} | set(poly.terms))
    rows = [[q.terms.get(e, G0) for q in QUADRICS] for e in monos]
    sol = solve(rows, [poly.terms.get(e, G0) for e in monos])
    if sol is None:
        return None
    recon = PolyGauss(P4, {})
    for c, q in zip(sol, QUADRICS):
        recon = recon + q.scale(c)
    if recon == poly:
        return tuple(sol)
    return None


def _transport_matrix(auto: CurveAuto):
    """Matrix of the automorphism on the 5 coordinate sections.

    A section f transports to (f o phi) * ((x o phi)')^3 * (y / (y o phi))^3;
    each transported basis section is again in the basis span, and the
    matrix of the transport is proportional to the stated projective
    matrix by one global unit."""
    dx = RatFunc.make(
        auto.fx.num.derivative(0) * auto.fx.den - auto.fx.num * auto.fx.den.derivative(0),
        auto.fx.den * auto.fx.den,
    )
    yratio = RatFunc.make(Y) / auto.fy
    factor = dx.pow(3) * yratio.pow(3)
    basis = [RatFunc.make(p) for p in PARAM]
    rows = []
    for f in basis:
        moved = rat_at_rats(f, (auto.fx, auto.fy)) * factor
        pol = moved.as_polynomial()
        row = [G0] * 5
        for exp, c in pol.terms.items():
            if exp == (0, 0):
                row[0] = c
            elif exp == (1, 0):
                row[1] = c
            elif exp == (2, 0):
                row[2] = c
            elif exp == (3, 0):
                row[3] = c
            elif exp == (0, 1):
                row[4] = c
            else:
                raise ValueError(f"transported section leaves the basis span: {exp}")
        rows.append(row)
    return tuple(tuple(r) for r in rows)


def verify_p4_action() -> dict:
    """Projective relations, quadric-span stability, and agreement of
    the stated matrices with the transported section action."""
    mi_inv = inverse(MAT_I)
    mj_inv = inverse(MAT_J)
    eye = _gmat([[G1 if p == q else G0 for q in range(5)] for p in range(5)])
    mi2 = mat_mul(MAT_I, MAT_I)
    mj2 = mat_mul(MAT_J, MAT_J)
    comm = mat_mul(mat_mul(MAT_I, MAT_J), mat_mul(mi_inv, mj_inv))
    # group generated modulo scalars
    seen = {proj_canon(eye)}
    frontier = [eye]
    while frontier:
        cur = frontier.pop()
        for gen in (MAT_I, MAT_J):
            nxt = proj_canon(mat_mul(gen, cur))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    pullbacks = {}
    span_ok = True
    for name, m in (("i", MAT_I), ("j", MAT_J)):
        coeffs = []
        for q in QUADRICS:
            c = _in_quadric_span(matrix_pullback(q, m))
            if c is None:
                span_ok = False
            coeffs.append(None if c is None else tuple(str(x) for x in c))
        pullbacks[name] = coeffs
    transports = {}
    transport_ok = True
    for name, auto, m in (("i", AUTO_I, MAT_I), ("j", AUTO_J, MAT_J)):
        t = _transport_matrix(auto)
        scal = None
        for p in range(5):
            for q in range(5):
                if m[p][q]:
                    scal = t[p][q] / m[p][q]
                    break
            if scal is not None:
                break
        match = all(
            t[p][q] == scal * m[p][q] for p in range(5) for q in range(5)
        )
        transports[name] = {"scalar": str(scal), "matches": match}
        transport_ok = transport_ok and match
    report = {
        "i_fourth_power_projectively_trivial": proj_eq(mat_mul(mi2, mi2), eye),
        "i2_projectively_equals_j2": proj_eq(mi2, mj2),
        "commutator_projectively_equals_i2": proj_eq(comm, mi2),
        "projective_group_order": len(seen),
        "quadric_span_stable": span_ok,
        "pullback_coefficients": pullbacks,
        "section_transport": transports,
    }
    report["ok"] = (
        report["i_fourth_power_projectively_trivial"]
        and report["i2_projectively_equals_j2"]
        and report["commutator_projectively_equals_i2"]
        and report["projective_group_order"] == 8
        and span_ok
        and transport_ok
    )
    return report


QUARTIC_NAMES = ("q0^2", "q2^2", "q1*q3", "q1^2+q3^2")


def invariant_quartics():
    q0, q1, q2, q3 = QUADRICS
    return (q0 * q0, q2 * q2, q1 * q3, q1 * q1 + q3 * q3)


def verify_invariant_quartics() -> dict:
    """Each quartic is an exact eigenvector of both pullbacks; the
    four of them span a 4-dimensional space."""
    quartics = invariant_quartics()
    scalars = {}
    ok = True
    for name, m in (("i", MAT_I), ("j", MAT_J)):
        row = []
        for q in quartics:
            pulled = matrix_pullback(q, m)
            exp, c = next(iter(q.sorted_terms()))
            lam = pulled.terms.get(exp, G0) / c
            if pulled == q.scale(lam):
                row.append(str(lam))
            else:
                row.append(None)
                ok = False
        scalars[name] = row
    monos = sorted({e for q in quartics for e in q.terms})
    span_rank = rank([[q.terms.get(e, G0) for e in monos] for q in quartics])
    report = {
        "eigen_scalars": scalars,
        "span_rank": span_rank,
        "ok": ok and span_rank == 4,
    }
    return report


def finite_field_locus(p: int, prime_cap: int = 41) -> dict:
    """Compare, point by point over F_p, the zero locus of the four
    quartics with the zero locus of the four quadrics and with the
    parametrized curve points.  Exhaustive over P^4(F_p); this is
    evidence at one prime, not a proof."""
    if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
        raise ValueError("p must be prime")
    if p % 4 != 1:
        raise ValueError("p must be 1 mod 4 so that -1 is a square")
    if p > prime_cap:
        raise ValueError(f"prime exceeds the enumeration budget {prime_cap}")
    if p == 5:
        return {
            "p": 5,
            "degenerate": True,
            "note": "x^5 - x vanishes identically on F_5; the reduction is skipped",
        }
    i_val = next(w for w in range(2, p) if (w * w) % p == p - 1)
    quad_zero = set()
    quart_zero = set()
    npoints = 0
    for lead in range(5):
        for rest in iproduct(range(p), repeat=4 - lead):
            pt = (0,) * lead + (1,) + rest
            npoints += 1
            x0, x1, x2, x3, x4 = pt
            q0 = (x4 * x4 + x0 * x1 - x2 * x3) % p
            q1 = (x0 * x2 - x1 * x1) % p
            q2 = (x0 * x3 - x1 * x2) % p
            q3 = (x1 * x3 - x2 * x2) % p
            if q0 == 0 and q1 == 0 and q2 == 0 and q3 == 0:
                quad_zero.add(pt)
            f0 = (q0 * q0) % p
            f1 = (q2 * q2) % p
            f2 = (q1 * q3) % p
            f3 = (q1 * q1 + q3 * q3) % p
            if f0 == 0 and f1 == 0 and f2 == 0 and f3 == 0:
                quart_zero.add(pt)
    roots = {}
    for y in range(p):
        roots.setdefault((y * y) % p, []).append(y)
    param = {(0, 0, 0, 1, 0)}
    for x in range(p):
        rhs = (pow(x, 5, p) - x) % p
        for y in roots.get(rhs, ()):
            param.add((1, x, (x * x) % p, (x * x * x) % p, y))
    report = {
        "p": p,
        "degenerate": False,
        "i_mod_p": i_val,
        "projective_points": npoints,
        "quadric_locus_size": len(quad_zero),
        "quartic_locus_size": len(quart_zero),
        "parametrized_points": len(param),
        "loci_equal": quad_zero == quart_zero,
        "parametrized_contained": param <= quad_zero and param <= quart_zero,
        "locus_equals_parametrized": quad_zero == param,
    }
    report["ok"] = report["loci_equal"] and report["parametrized_contained"]
    return report


def scroll_numerology(n: int) -> dict:
    """Dimension counts for a degree-2n cyclic-cover curve sitting on a
    rational normal scroll: the quadric count gap and the scroll data."""
    if n < 2:
        raise ValueError("n must be at least 2")
    genus = (n - 1) ** 2
    h0_h = 2 * n
    sym2 = n * (2 * n + 1)
    h0_h2 = n * n + 2 * n
    return {
        "genus": genus,
        "h0_H": h0_h,
        "h0_H2": h0_h2,
        "sym2_dim": sym2,
        "quadric_gap": sym2 - h0_h2,
        "scroll_dim": n,
        "scroll_deg": n,
    }
