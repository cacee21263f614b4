"""Rational quaternion algebras, the order M, and the quaternion group.

The algebra B(r, s) over Q has basis 1, i, j, k with i^2 = r, j^2 = s,
ij = -ji = k.  Everything downstream uses definite algebras (r, s < 0);
the two parameter pairs exercised by the test suite are (-1, -1) and
(-1, -3).

For (r, s) = (-1, -1) the maximal order is the Hurwitz order
M = Z<zeta, i, j, k> with zeta = (1 + i + j + k) / 2, and the group of
Lipschitz units is the quaternion group of order 8, modelled here as
(sign, axis) pairs.  ``Q8_INDEX``, ``Q8_MUL`` and ``Q8_INV`` table it by
position in ``QUAT_GROUP``, once for the whole package.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain, product

from .linalg import frac_mat, inverse, mat_vec
from .record import Record

Q1 = Fraction(1)


class AlgebraParams(Record):
    """Structure constants (r, s) of a rational quaternion algebra."""

    __slots__ = ("r", "s")

    def __init__(self, r: Fraction, s: Fraction):
        self.r = r
        self.s = s

    @staticmethod
    def make(r, s) -> "AlgebraParams":
        return AlgebraParams(Fraction(r), Fraction(s))

    def is_definite(self) -> bool:
        return self.r < 0 and self.s < 0


HAMILTON = AlgebraParams.make(-1, -1)


class QuatElem(Record):
    """Element a + b i + c j + d k of B(r, s)."""

    __slots__ = ("params", "a", "b", "c", "d")

    def __init__(self, params: AlgebraParams, a: Fraction, b: Fraction, c: Fraction, d: Fraction):
        self.params = params
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @staticmethod
    def make(params, a, b=0, c=0, d=0) -> "QuatElem":
        return QuatElem(params, Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def coords(self):
        return (self.a, self.b, self.c, self.d)

    def _same_algebra(self, other):
        if self.params != other.params:
            raise ValueError(f"mixed algebras B({self.params.r}, {self.params.s})"
                             f" and B({other.params.r}, {other.params.s})")

    def __add__(self, other):
        self._same_algebra(other)
        return QuatElem(self.params, self.a + other.a, self.b + other.b,
                        self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        self._same_algebra(other)
        return QuatElem(self.params, self.a - other.a, self.b - other.b,
                        self.c - other.c, self.d - other.d)

    def __neg__(self):
        return QuatElem(self.params, -self.a, -self.b, -self.c, -self.d)

    def scale(self, t):
        t = Fraction(t)
        return QuatElem(self.params, t * self.a, t * self.b, t * self.c, t * self.d)

    def __mul__(self, other):
        self._same_algebra(other)
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


def left_mult_matrix(x):
    """Matrix of y -> x * y on B in the basis 1, i, j, k, read off r, s
    and the coordinates of x: an int matrix when all six are integral."""
    r, s = _int_if_integral(x.params.r), _int_if_integral(x.params.s)
    a, b, c, d = map(_int_if_integral, x.coords())
    return [[a, r * b, s * c, -r * s * d],
            [b, a, s * d, -s * c],
            [c, -r * d, a, r * b],
            [d, -c, b, a]]


def _basis_matrix(basis):
    """The 4x4 rational matrix whose columns are the coordinates of ``basis``."""
    return frac_mat([[b.coords()[t] for b in basis] for t in range(4)])


@functools.lru_cache(maxsize=64)
def _basis_inverse(basis):
    """The inverse of ``_basis_matrix(basis)`` as a tuple of rows, from 1,
    i, j, k coordinates to coordinates in ``basis``.  Raises ValueError
    unless ``basis`` is a tuple of four linearly independent elements."""
    if len(basis) != 4:
        raise ValueError("a basis of B needs 4 elements")
    try:
        return tuple(map(tuple, inverse(_basis_matrix(basis))))
    except ValueError:
        raise ValueError("basis is linearly dependent") from None


def coords_in_basis(x, basis):
    """Coordinates of x in a 4-element basis of B.  Raises ValueError if
    the basis is linearly dependent."""
    return mat_vec(_basis_inverse(tuple(basis)), list(x.coords()))


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


# the 8 group elements, in the one order used everywhere (cover-graph
# vertices, packed tuples): 1, -1, i, -i, j, -j, k, -k
QUAT_GROUP = tuple((s, a) for a in range(4) for s in (1, -1))

# Q8 by QUAT_GROUP position, the one product table of the package
Q8_INDEX = {x: n for n, x in enumerate(QUAT_GROUP)}
Q8_MUL = tuple(Q8_INDEX[qmul(x, y)] for x in QUAT_GROUP for y in QUAT_GROUP)  # [8a + b] = ab
Q8_INV = tuple(Q8_INDEX[qinv(x)] for x in QUAT_GROUP)


# ---------------------------------------------------------------------------
# orders


class OrderLattice:
    """A rank-4 lattice in B(params), given by a basis.

    The basis matrix is inverted once per basis (``_basis_inverse``), so
    each coordinate query is one matrix-vector product.  Raises ValueError
    unless the basis has four linearly independent elements."""

    __slots__ = ("params", "basis", "_to_coords", "_index_constants")

    def __init__(self, params, basis):
        self.params = params
        self.basis = tuple(basis)
        self._to_coords = _basis_inverse(self.basis)
        self._index_constants = None

    def coords(self, x):
        """Rational coordinates of x in the basis."""
        return mat_vec(self._to_coords, list(x.coords()))

    def _left_ideal_constants(self):
        """Structure constants of ``left_ideal_index``, computed at first use.

        Returns 20 linear forms in the coordinates c of m = sum_t c_t b_t,
        each a 4-tuple of coefficients.  Form 4u + s is coordinate s of
        u * m, for u = 1, i, j, k: entry t is coordinate s of u * b_t.
        Form 16 + s is row s of the Gram matrix, whose entry (s, t) is
        N(b_s + b_t) - N(b_s) - N(b_t), so 2 N(m) = c^T gram c; it is an
        int matrix for every order.  Raises ValueError if some u * b_t is
        not in the lattice."""
        if self._index_constants is None:
            prods = [[self.coords(u * b) for b in self.basis] for u in basis_elems(self.params)]
            if any(v.denominator != 1 for row in prods for col in row for v in col):
                raise ValueError("lattice is not stable under left multiplication by i, j, k")
            units = tuple(tuple(int(col[s]) for col in row) for row in prods for s in range(4))
            gram = tuple(
                tuple(_int_if_integral((x + y).norm() - x.norm() - y.norm()) for y in self.basis)
                for x in self.basis
            )
            self._index_constants = units + gram
        return self._index_constants

    def left_mult(self, q):
        """Int matrix of left multiplication by q = (sign, axis) of Q8 in
        the basis: sign times forms 4 axis .. 4 axis + 3 of
        ``_left_ideal_constants``, whose column t is the coordinates of
        axis * b_t.  Raises ValueError as they do."""
        s, a = q
        return [[s * v for v in row] for row in self._left_ideal_constants()[4 * a : 4 * a + 4]]


def _int_if_integral(x):
    return int(x) if x.denominator == 1 else x


@functools.cache
def hurwitz_order(params=HAMILTON):
    """The Hurwitz order, basis (zeta, i, j, k) with zeta = (1+i+j+k)/2.

    One instance per algebra, so its ``left_ideal_index`` constants are
    computed once."""
    one, i, j, k = basis_elems(params)
    zeta = (one + i + j + k).scale(Fraction(1, 2))
    return OrderLattice(params, (zeta, i, j, k))


def _det4(m):
    """Determinant of a 4x4 matrix by Laplace expansion in the 2x2 minors
    of its first two and last two rows: 12 products for the minors, 6 to
    pair them, no division."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))


def _check_integral(values):
    """Raise ValueError unless every one of the coordinates ``values`` is
    an integer: one set of denominators, so a long stream costs one pass."""
    if {x.denominator for x in values} - {1}:
        raise ValueError("element is not in the order")


def _signed_kernel(forms, c0, c1, c2, c3):
    """(det M(c), 2 N(c)) for m with int basis coordinates c, from the
    order's 20 linear forms: row u of M(c) holds the coordinates of
    u * m, and 2 N(c) = c . (gram c).  The determinant keeps its sign."""
    v = [c0 * a0 + c1 * a1 + c2 * a2 + c3 * a3 for a0, a1, a2, a3 in forms]
    det = _det4((v[0:4], v[4:8], v[8:12], v[12:16]))
    return det, c0 * v[16] + c1 * v[17] + c2 * v[18] + c3 * v[19]


def _index_kernel(forms, coords):
    """(|det M(c)|, 2 N(c)) for m with basis coordinates c, in ints, by
    ``_signed_kernel``.  Raises ValueError if a coordinate is not an
    integer."""
    _check_integral(coords)
    c0, c1, c2, c3 = map(int, coords)
    det, twice_norm = _signed_kernel(forms, c0, c1, c2, c3)
    return abs(det), twice_norm


# the 70 = C(8, 4) points alpha of N^4 with alpha_0 + ... + alpha_3 <= 4:
# a polynomial of total degree <= 4 in four variables that vanishes on
# them is zero (see ``index_mismatches``)
_SIMPLEX = tuple(c for c in product(range(5), repeat=4) if sum(c) <= 4)


def left_ideal_index(order, coords):
    """For m in ``order`` with basis coordinates ``coords``, compare the
    index of the left ideal spanned by m, i m, j m, k m in the order with
    twice the squared norm of m.

    Returns (index, 2 * norm(m)^2), both Fraction; the two agree for
    every m in the Hurwitz order.  That is a polynomial identity: the
    signed det M(c) and (2 N(c))^2 / 2 are polynomials of total degree
    <= 4 in the coordinates c, and a polynomial of total degree <= d in
    n variables that vanishes on the simplex {alpha in N^n : |alpha| <=
    d} is zero (restricted to c_0 = 0 it vanishes on the simplex in n - 1
    variables, so c_0 divides it, and the quotient has degree <= d - 1
    and vanishes on the simplex shifted by e_0).  So the 70 points of
    ``_SIMPLEX`` prove it for all m; ``index_mismatches`` checks them.

    Both values are computed in ints by ``_index_kernel`` (the index is a
    closed-form ``_det4``) and made Fractions only here.  Raises
    ValueError if a coordinate is not an integer (m is not in the order)
    or if the order is not stable under left multiplication by i, j, k.
    """
    index, twice_norm = _index_kernel(order._left_ideal_constants(), coords)
    return Fraction(index), Fraction(twice_norm * twice_norm, 2)


def index_mismatches(order, points):
    """How many coordinate tuples in ``points`` break the identity of
    ``left_ideal_index``: 2 * index != (2 N(m))^2, compared in ints with
    no Fraction made.

    The identity is certified first: P(c) = 2 det M(c) - (2 N(c))^2, with
    the signed determinant, has total degree <= 4 in c, so if it vanishes
    at the 70 points of ``_SIMPLEX`` it is the zero polynomial (the
    unisolvence argument of ``left_ideal_index``).  Then det M(c) =
    (2 N(c))^2 / 2 >= 0 for every c, so 2 |det| = (2 N)^2 at every point
    and the count is 0: ``points`` is only checked to be integral.  Only
    when some point of the simplex fails is each of ``points`` evaluated
    by ``_index_kernel``, so the count stays exact.  ``points`` is read
    once, as a stream.  Raises ValueError as ``left_ideal_index`` does.
    """
    forms = order._left_ideal_constants()
    certified = all(2 * det == twice_norm * twice_norm
                    for det, twice_norm in (_signed_kernel(forms, *c) for c in _SIMPLEX))
    if certified:
        _check_integral(chain.from_iterable(points))
        return 0
    pairs = (_index_kernel(forms, coords) for coords in points)
    return sum(2 * index != twice_norm * twice_norm for index, twice_norm in pairs)


def hurwitz_index_identity(m, order=None):
    """``left_ideal_index`` of an element m of B, in the Hurwitz order of
    its algebra unless ``order`` is given.

    Returns (index, 2 * norm(m)^2).  Raises ValueError if m is not in the
    order.
    """
    if order is None:
        order = hurwitz_order(m.params)
    return left_ideal_index(order, order.coords(m))


# ---------------------------------------------------------------------------
# the rational group ring of the quaternion group


def group_ring_wedderburn():
    """Character-theoretic shape of Q[G] for the quaternion group G.

    Returns a list of (dimension, frobenius_schur) pairs, one per
    irreducible complex character: four linear characters and one
    2-dimensional character with indicator -1, which is why the 4-dim
    simple factor of Q[G] is a definite quaternion algebra rather than a
    matrix algebra.

    Everything is read off ``Q8_MUL`` and ``Q8_INV``: the classes are the
    conjugation orbits, the linear characters the sign vectors on the
    classes that are multiplicative, the 2-dimensional character is the
    regular character minus the linear ones, halved, and each indicator
    is the mean of chi(g^2).  Raises RuntimeError if the 2-dimensional
    character is not integral or not irreducible, or if an indicator is
    not an integer.
    """
    n = len(QUAT_GROUP)
    # position x lies in class cls[x]; a class is named by its least position
    least = [min(Q8_MUL[n * Q8_MUL[n * g + x] + Q8_INV[g]] for g in range(n)) for x in range(n)]
    reps = sorted(set(least))
    cls = [reps.index(r) for r in least]
    linears = [
        signs for signs in product((1, -1), repeat=len(reps))
        if all(signs[cls[a]] * signs[cls[b]] == signs[cls[Q8_MUL[n * a + b]]]
               for a in range(n) for b in range(n))
    ]
    two_dim = []  # the regular character is n at the identity, position 0
    for c, x in enumerate(reps):
        val = Fraction(n * (x == 0) - sum(signs[c] for signs in linears), 2)
        if val.denominator != 1:
            raise RuntimeError(f"2-dim character value {val} on class {c} is not an integer")
        two_dim.append(int(val))
    norm = Fraction(sum(two_dim[c] ** 2 for c in cls), n)
    if norm != 1:
        raise RuntimeError(f"2-dim character {two_dim} has <chi, chi> = {norm}, not 1")

    def fs_indicator(chi_vals):
        total = sum(chi_vals[cls[Q8_MUL[(n + 1) * x]]] for x in range(n))
        if total % n:
            raise RuntimeError(f"Frobenius-Schur sum {total} is not divisible by {n}")
        return total // n

    return [(1, fs_indicator(signs)) for signs in linears] + [(2, fs_indicator(two_dim))]


# ---------------------------------------------------------------------------
# splitting over K = Q(sqrt(r))


class KNum(Record):
    """Element u + v*sqrt(r) of the quadratic field K = Q(sqrt(r)).

    The one Q(sqrt(r)) type of the package; at r = -1 it is the field of
    Gaussian rationals Q(i), written ``a+b*i``.  ``bool`` is the zero
    test, so matrices of KNum go through the ``linalg`` kernel.  ``make``,
    ``scale`` and ``inv`` store an integral part as an int (equal to its
    Fraction, with the same hash and str), so Gaussian integers stay ints."""

    __slots__ = ("r", "u", "v")

    def __init__(self, r: int | Fraction, u: int | Fraction, v: int | Fraction):
        self.r = r
        self.u = u
        self.v = v

    @staticmethod
    def make(r, u, v=0):
        return KNum(*(_int_if_integral(Fraction(x)) for x in (r, u, v)))

    def _same_field(self, other):
        if self.r != other.r:
            raise ValueError(f"mixed fields Q(sqrt({self.r})) and Q(sqrt({other.r}))")

    def __add__(self, other):
        self._same_field(other)
        return KNum(self.r, self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        self._same_field(other)
        return KNum(self.r, self.u - other.u, self.v - other.v)

    def __neg__(self):
        return KNum(self.r, -self.u, -self.v)

    def __mul__(self, other):
        self._same_field(other)
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
        return KNum(self.r, _int_if_integral(t * self.u), _int_if_integral(t * self.v))

    def inv(self):
        n = Fraction(self.u * self.u - self.r * self.v * self.v)
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return KNum(self.r, _int_if_integral(self.u / n), _int_if_integral(-self.v / n))

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
