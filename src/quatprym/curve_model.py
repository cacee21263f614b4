"""Symbolic checks for the genus-2 curve y^2 = x^5 - x and its
quaternion symmetry.

The curve carries the order-4 automorphisms

    phi_i: (x, y) -> (-x, iy)        phi_j: (x, y) -> (1/x, iy/x^3)

which generate a quaternion group of order 8 whose central involution
is the hyperelliptic one.  Both maps, their composites and the section
transport are Laurent polynomials in x and y over Q(i): every
denominator is a monomial, so no rational-function type is needed.
Under the tricanonical embedding by
(1 : x : x^2 : x^3 : y) the image is cut out by four quadrics, the
group acts on P^4 by explicit matrices, and four quartics in the
quadrics are invariant.  Everything here is exact arithmetic over the
Gaussian rationals Q(i), as ``qalg.KNum`` with r = -1, and the matrix
algebra over them is the ``linalg`` kernel; the only non-symbolic check
is a finite-field enumeration comparing zero loci pointwise.
"""

from __future__ import annotations

import math
from itertools import product as iproduct

from .linalg import inverse, mat_mul, rank, solve
from .qalg import KNum


G0 = KNum.make(-1, 0)
G1 = KNum.make(-1, 1)
GI = KNum.make(-1, 0, 1)
UNITS = (G1, -G1, GI, -GI)


class PolyGauss:
    """Multivariate Laurent polynomial with Gaussian rational (KNum)
    coefficients: exponents may be negative.

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
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        out = PolyGauss.const(self.nvars, G1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inv(self) -> "PolyGauss":
        """Inverse of a monomial, the only units of the Laurent ring."""
        if len(self.terms) != 1:
            raise ValueError(f"{self} is not a monomial")
        ((exp, c),) = self.terms.items()
        return PolyGauss(self.nvars, {tuple(-e for e in exp): c.inv()})

    def derivative(self, idx) -> "PolyGauss":
        out = {}
        for exp, c in self.terms.items():
            if exp[idx] == 0:
                continue
            nexp = exp[:idx] + (exp[idx] - 1,) + exp[idx + 1 :]
            out[nexp] = out.get(nexp, G0) + c.scale(exp[idx])
        return PolyGauss(self.nvars, out)

    def substitute(self, polys) -> "PolyGauss":
        """Plug Laurent polynomials (in some common ring) in for the
        variables; a variable with a negative exponent needs a monomial."""
        if len(polys) != self.nvars:
            raise ValueError(f"substitute needs {self.nvars} polynomials, got {len(polys)}")
        nv = polys[0].nvars
        out = PolyGauss(nv, {})
        for exp, c in self.terms.items():
            term = PolyGauss.const(nv, c)
            for idx, e in enumerate(exp):
                if e > 0:
                    term = term * polys[idx].pow(e)
                elif e < 0:
                    term = term * polys[idx].inv().pow(-e)
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


class CurveAuto:
    """Automorphism of the affine curve, as Laurent polynomials
    substituted for x and y."""

    __slots__ = ("name", "fx", "fy")

    def __init__(self, name: str, fx: PolyGauss, fy: PolyGauss):
        self.name = name
        self.fx = fx
        self.fy = fy

    def compose(self, other: "CurveAuto") -> "CurveAuto":
        """self after other."""
        subs = (other.fx, other.fy)
        fx, fy = (f.substitute(subs) for f in (self.fx, self.fy))
        return CurveAuto(f"{self.name}*{other.name}", fx, fy)

    def same_map(self, other: "CurveAuto") -> bool:
        return self.fx == other.fx and self.fy == other.fy


AUTO_ID = CurveAuto("id", X, Y)
AUTO_I = CurveAuto("i", -X, Y.scale(GI))
AUTO_J = CurveAuto("j", X.inv(), Y.scale(GI) * X.pow(3).inv())
AUTO_HYP = CurveAuto("hyp", X, -Y)


def _ideal_factor(auto: CurveAuto):
    """Find the unit u and power k with (F o phi) * x^k = u * F for the
    curve polynomial F; None if the map does not preserve the curve's
    ideal."""
    moved = CURVE_POLY.substitute((auto.fx, auto.fy))
    for k in range(13):
        lhs = moved * X.pow(k)
        for u in UNITS:
            if lhs == CURVE_POLY.scale(u):
                return u, k
    return None


# largest group the closures below enumerate: the quaternion group has 8
CLOSURE_CAP = 64


def _group_order(identity, gens, mul, key):
    """The number of elements that gens generate from identity by
    mul(gen, element), told apart by key; past CLOSURE_CAP elements the
    closure stops and returns "closure cap N hit", so a wrong generator
    gives a wrong answer, not an endless loop."""
    seen = {key(identity)}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for gen in gens:
            nxt = mul(gen, cur)
            k = key(nxt)
            if k not in seen:
                if len(seen) == CLOSURE_CAP:
                    return f"closure cap {CLOSURE_CAP} hit"
                seen.add(k)
                frontier.append(nxt)
    return len(seen)


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
    # closure under composition, with equality of Laurent maps
    order = _group_order(AUTO_ID, (AUTO_I, AUTO_J), CurveAuto.compose, lambda a: (a.fx, a.fy))
    report = {
        "ideal_factor_i": None if fact_i is None else (str(fact_i[0]), fact_i[1]),
        "ideal_factor_j": None if fact_j is None else (str(fact_j[0]), fact_j[1]),
        "i_squared_is_hyp": ii.same_map(AUTO_HYP),
        "j_squared_is_hyp": jj.same_map(AUTO_HYP),
        "hyp_squared_is_id": AUTO_HYP.compose(AUTO_HYP).same_map(AUTO_ID),
        "ij_vs_hyp_ji": ij.same_map(hyp_ji),
        "group_order": order,
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
# the exponent of each coordinate section -> its index in PARAM
_SECTION = {next(iter(p.terms)): t for t, p in enumerate(PARAM)}


def reduce_mod_curve(poly: PolyGauss) -> PolyGauss:
    """Rewrite y^2 -> x^5 - x: y^(2q + e) becomes (x^5 - x)^q y^e, of
    y-degree e at most 1, since x^5 - x has no y."""
    if poly.nvars != XY:
        raise ValueError(f"polynomial in {poly.nvars} variables, the curve needs {XY}")
    rhs = X.pow(5) - X
    out = PolyGauss(XY, {})
    for (ex, ey), c in poly.terms.items():
        q, rem = divmod(ey, 2)
        term = PolyGauss(XY, {(ex, rem): c})
        if q:
            term = term * rhs.pow(q)
        out = out + term
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
    factor = (auto.fx.derivative(0) * Y * auto.fy.inv()).pow(3)
    rows = []
    for f in PARAM:
        row = [G0] * 5
        for exp, c in (f.substitute((auto.fx, auto.fy)) * factor).terms.items():
            if exp not in _SECTION:
                raise ValueError(f"transported section leaves the basis span: {exp}")
            row[_SECTION[exp]] = c
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
    order = _group_order(eye, (MAT_I, MAT_J), mat_mul, proj_canon)
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
        "projective_group_order": order,
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


def _locus_scan(p: int):
    """(quadric zero set, quartic zero set, points scanned) in P^4(F_p).
    Only q0 and f0 = q0^2 involve x4, so the other conjuncts are taken once
    per prefix (x0 : x1 : x2 : x3), whose x4 values are run only where one
    of the two conjunct sets vanishes."""
    quad_zero, quart_zero = set(), set()
    npoints = 0
    for lead in range(5):
        # a point is (0, ..., 0, 1, *rest); x4 is free unless the 1 sits there
        x4s = range(p) if lead < 4 else (1,)
        for rest in iproduct(range(p), repeat=max(3 - lead, 0)):
            head = ((0,) * lead + (1,) + rest)[:4]
            npoints += len(x4s)
            x0, x1, x2, x3 = head
            q1 = (x0 * x2 - x1 * x1) % p
            q2 = (x0 * x3 - x1 * x2) % p
            q3 = (x1 * x3 - x2 * x2) % p
            quad = q1 == 0 and q2 == 0 and q3 == 0
            quart = (q2 * q2) % p == 0 and (q1 * q3) % p == 0 and (q1 * q1 + q3 * q3) % p == 0
            if not (quad or quart):
                continue
            c = x0 * x1 - x2 * x3
            for x4 in x4s:
                q0 = (x4 * x4 + c) % p
                if quad and q0 == 0:
                    quad_zero.add(head + (x4,))
                if quart and (q0 * q0) % p == 0:
                    quart_zero.add(head + (x4,))
    return quad_zero, quart_zero, npoints


# largest prime for finite-field loci: the registry's primes need no more
LOCUS_PRIME_CAP = 41


def finite_field_locus(p: int) -> dict:
    """Compare, point by point over F_p, the zero locus of the four
    quartics with the zero locus of the four quadrics and with the
    parametrized curve points.  Exhaustive over P^4(F_p): a prefix's x4
    values are skipped only where x4-free conjuncts of both predicates
    already fail, so every point is decided as stated.  This is evidence
    at one prime, not a proof."""
    if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
        raise ValueError("p must be prime")
    if p % 4 != 1:
        raise ValueError("p must be 1 mod 4 so that -1 is a square")
    if p > LOCUS_PRIME_CAP:
        raise ValueError(f"prime exceeds the enumeration budget {LOCUS_PRIME_CAP}")
    if p == 5:
        return {
            "p": 5,
            "degenerate": True,
            "note": "x^5 - x vanishes identically on F_5; the reduction is skipped",
        }
    i_val = next(w for w in range(2, p) if (w * w) % p == p - 1)
    quad_zero, quart_zero, npoints = _locus_scan(p)
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
