"""Rational quaternion algebras, the order M, and the quaternion group.

The algebra B(r, s) over Q has basis 1, i, j, k with i^2 = r, j^2 = s,
ij = -ji = k.  Everything downstream uses definite algebras (r, s < 0);
the two parameter pairs exercised by the test suite are (-1, -1) and
(-1, -3).

For (r, s) = (-1, -1) the maximal order is the Hurwitz order
M = Z<zeta, i, j, k> with zeta = (1 + i + j + k) / 2, and the group of
Lipschitz units is the quaternion group of order 8, modelled here as
(sign, axis) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import det, frac_mat, solve

Q0 = Fraction(0)
Q1 = Fraction(1)


@dataclass(frozen=True)
class AlgebraParams:
    """Structure constants (r, s) of a rational quaternion algebra."""

    r: Fraction
    s: Fraction

    @staticmethod
    def make(r, s) -> "AlgebraParams":
        return AlgebraParams(Fraction(r), Fraction(s))

    def is_definite(self) -> bool:
        return self.r < 0 and self.s < 0


HAMILTON = AlgebraParams.make(-1, -1)


@dataclass(frozen=True)
class QuatElem:
    """Element a + b i + c j + d k of B(r, s)."""

    params: AlgebraParams
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @staticmethod
    def make(params, a, b=0, c=0, d=0) -> "QuatElem":
        return QuatElem(params, Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def coords(self):
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other):
        assert self.params == other.params
        return QuatElem(self.params, self.a + other.a, self.b + other.b,
                        self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        assert self.params == other.params
        return QuatElem(self.params, self.a - other.a, self.b - other.b,
                        self.c - other.c, self.d - other.d)

    def __neg__(self):
        return QuatElem(self.params, -self.a, -self.b, -self.c, -self.d)

    def scale(self, t):
        t = Fraction(t)
        return QuatElem(self.params, t * self.a, t * self.b, t * self.c, t * self.d)

    def __mul__(self, other):
        assert self.params == other.params
        r, s = self.params.r, self.params.s
        a1, b1, c1, d1 = self.coords()
        a2, b2, c2, d2 = other.coords()
        return QuatElem(
            self.params,
            a1 * a2 + r * b1 * b2 + s * c1 * c2 - r * s * d1 * d2,
            a1 * b2 + b1 * a2 - s * c1 * d2 + s * d1 * c2,
            a1 * c2 + c1 * a2 + r * b1 * d2 - r * d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 - c1 * b2,
        )

    def conj(self):
        return QuatElem(self.params, self.a, -self.b, -self.c, -self.d)

    def norm(self) -> Fraction:
        r, s = self.params.r, self.params.s
        a, b, c, d = self.coords()
        return a * a - r * b * b - s * c * c + r * s * d * d

    def trace(self) -> Fraction:
        return 2 * self.a

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def inv(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("element of norm zero")
        return self.conj().scale(Q1 / n)


def basis_elems(params):
    """The elements 1, i, j, k of B(params)."""
    one = QuatElem.make(params, 1)
    i = QuatElem.make(params, 0, 1)
    j = QuatElem.make(params, 0, 0, 1)
    k = QuatElem.make(params, 0, 0, 0, 1)
    return one, i, j, k


def left_mult_matrix(x, basis):
    """Matrix of y -> x * y on the span of ``basis``, columns in that basis.

    Raises ValueError if the span is not stable under left multiplication
    by x.
    """
    cols = [coords_in_basis(x * b, basis) for b in basis]
    if any(c is None for c in cols):
        raise ValueError("span not stable under left multiplication")
    return [list(row) for row in zip(*cols)]


def coords_in_basis(x, basis):
    """Coordinates of x in a 4-element basis of B, or None."""
    a = [[b.coords()[t] for b in basis] for t in range(4)]
    return solve(frac_mat(a), list(x.coords()))


# ---------------------------------------------------------------------------
# the quaternion group of order 8, as (sign, axis) with axis 0 = 1,
# 1 = i, 2 = j, 3 = k

Q8_AXES = ("1", "i", "j", "k")

_POS_CYCLE = {(1, 2): 3, (2, 3): 1, (3, 1): 2}


def qmul(g, h):
    sg, ag = g
    sh, ah = h
    s = sg * sh
    if ag == 0:
        return (s, ah)
    if ah == 0:
        return (s, ag)
    if ag == ah:
        return (-s, 0)
    if (ag, ah) in _POS_CYCLE:
        return (s, _POS_CYCLE[(ag, ah)])
    return (-s, _POS_CYCLE[(ah, ag)])


def qinv(g):
    s, a = g
    if a == 0:
        return g
    return (-s, a)


def qstr(g):
    s, a = g
    return Q8_AXES[a] if s > 0 else "-" + Q8_AXES[a]


def qparse(text):
    t = text.strip()
    s = 1
    if t.startswith("-"):
        s = -1
        t = t[1:]
    elif t.startswith("+"):
        t = t[1:]
    if t not in Q8_AXES:
        raise ValueError(f"unknown group element {text!r}")
    return (s, Q8_AXES.index(t))


QUAT_GROUP = tuple((s, a) for a in range(4) for s in (1, -1))


def q8_elements():
    """All 8 group elements, in the fixed vertex order used everywhere:
    1, -1, i, -i, j, -j, k, -k."""
    return QUAT_GROUP


# ---------------------------------------------------------------------------
# orders


class OrderLattice:
    """A rank-4 lattice in B(params), given by a basis."""

    __slots__ = ("params", "basis")

    def __init__(self, params, basis):
        assert len(basis) == 4
        self.params = params
        self.basis = tuple(basis)

    def coords(self, x):
        return coords_in_basis(x, self.basis)

    def contains(self, x) -> bool:
        c = self.coords(x)
        return c is not None and all(v.denominator == 1 for v in c)

    def is_order(self) -> bool:
        """Ring check: 1 in L and L closed under multiplication."""
        one = QuatElem.make(self.params, 1)
        if not self.contains(one):
            return False
        return all(self.contains(x * y) for x in self.basis for y in self.basis)

    def index_in(self, other) -> Fraction:
        """[other : self] as a positive rational (1/n when self is bigger)."""
        a = frac_mat([other.coords(b) for b in self.basis])
        return abs(det(a))


def hz_order(params=HAMILTON):
    """The Lipschitz order Z<1, i, j, k>."""
    return OrderLattice(params, basis_elems(params))


def hurwitz_order(params=HAMILTON):
    """The Hurwitz order, basis (zeta, i, j, k) with zeta = (1+i+j+k)/2."""
    one, i, j, k = basis_elems(params)
    zeta = (one + i + j + k).scale(Fraction(1, 2))
    return OrderLattice(params, (zeta, i, j, k))


def hurwitz_index_identity(m, order=None):
    """For m in the Hurwitz order M, compare the index of the left ideal
    M m in M with twice the squared norm.

    Returns (index, 2 * norm(m)^2).  The two agree for every m in M.
    """
    if order is None:
        order = hurwitz_order(m.params)
    cols = []
    one, i, j, k = basis_elems(m.params)
    for u in (one, i, j, k):
        c = order.coords(u * m)
        assert c is not None and all(v.denominator == 1 for v in c)
        cols.append(c)
    d = abs(det(frac_mat(cols)))
    return d, 2 * m.norm() ** 2


# ---------------------------------------------------------------------------
# the rational group ring of the quaternion group


def group_ring_wedderburn():
    """Character-theoretic shape of Q[G] for the quaternion group G.

    Returns a list of (dimension, frobenius_schur) pairs, one per
    irreducible complex character: four linear characters and one
    2-dimensional character with indicator -1, which is why the 4-dim
    simple factor of Q[G] is a definite quaternion algebra rather than a
    matrix algebra.
    """
    # conjugacy classes: {1}, {-1}, {+-i}, {+-j}, {+-k}
    classes = [
        [(1, 0)],
        [(-1, 0)],
        [(1, 1), (-1, 1)],
        [(1, 2), (-1, 2)],
        [(1, 3), (-1, 3)],
    ]
    linears = []
    for ei in (1, -1):
        for ej in (1, -1):
            # determined by values on i and j; value on -1 is ei^2 = 1
            def chi(g, ei=ei, ej=ej):
                s, a = g
                if a == 0:
                    return 1
                if a == 1:
                    return ei
                if a == 2:
                    return ej
                return ei * ej

            linears.append(chi)
    # the regular character minus the linear ones, halved
    reg = {0: 8}  # value 8 on identity, 0 elsewhere (indexed by class)
    two_dim = []
    for ci, cls in enumerate(classes):
        g = cls[0]
        val = Fraction(reg.get(ci, 0) - sum(chi(g) for chi in linears), 2)
        assert val.denominator == 1
        two_dim.append(int(val))
    assert two_dim == [2, -2, 0, 0, 0]

    def fs_indicator(chi_vals):
        # (1/8) * sum over g of chi(g^2)
        total = 0
        for g in QUAT_GROUP:
            g2 = qmul(g, g)
            ci = next(i for i, cls in enumerate(classes) if g2 in cls)
            total += chi_vals[ci]
        assert total % 8 == 0
        return total // 8

    out = []
    for chi in linears:
        vals = [chi(cls[0]) for cls in classes]
        out.append((1, fs_indicator(vals)))
    out.append((2, fs_indicator(two_dim)))
    return out


# ---------------------------------------------------------------------------
# splitting over K = Q(sqrt(r))


@dataclass(frozen=True)
class KNum:
    """Element u + v*sqrt(r) of the quadratic field K = Q(sqrt(r)).

    The one Q(sqrt(r)) type of the package; at r = -1 it is the field of
    Gaussian rationals Q(i), written ``a+b*i``.  ``bool`` is the zero
    test, so matrices of KNum go through the ``linalg`` kernel."""

    r: Fraction
    u: Fraction
    v: Fraction

    @staticmethod
    def make(r, u, v=0):
        return KNum(Fraction(r), Fraction(u), Fraction(v))

    def __add__(self, other):
        assert self.r == other.r
        return KNum(self.r, self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        assert self.r == other.r
        return KNum(self.r, self.u - other.u, self.v - other.v)

    def __neg__(self):
        return KNum(self.r, -self.u, -self.v)

    def __mul__(self, other):
        assert self.r == other.r
        return KNum(self.r,
                    self.u * other.u + self.r * self.v * other.v,
                    self.u * other.v + self.v * other.u)

    def __truediv__(self, other):
        return self * other.inv()

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def conj(self):
        return KNum(self.r, self.u, -self.v)

    def scale(self, t):
        t = Fraction(t)
        return KNum(self.r, t * self.u, t * self.v)

    def inv(self):
        n = self.u * self.u - self.r * self.v * self.v
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return KNum(self.r, self.u / n, -self.v / n)

    def __str__(self):
        unit = "i" if self.r == -1 else f"sqrt({self.r})"
        if self.v == 0:
            return str(self.u)
        if self.u == 0:
            return f"{self.v}*{unit}"
        return f"{self.u}+{self.v}*{unit}"


def embed_in_m2(x):
    """Split B(r, s) over K = Q(sqrt(r)) as 2x2 matrices over K.

    Writing x = (a + b i) + (c + d i) j = z + w j with z, w in K (the
    copy of K inside B spanned by 1 and i), the image is

        [[z, w], [s * conj(w), conj(z)]].

    Multiplicativity and det = norm are checked by the test suite, with
    ``linalg.mat_mul`` and ``linalg.det`` over K.
    """
    r, s = x.params.r, x.params.s
    z = KNum.make(r, x.a, x.b)
    w = KNum.make(r, x.c, x.d)
    return [
        [z, w],
        [w.conj().scale(s), z.conj()],
    ]
