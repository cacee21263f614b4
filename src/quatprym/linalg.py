"""Exact linear algebra over any exact field, and over Z.

Matrices are plain lists of rows.  The field routines (``mat_mul``
through ``intersect_row_spaces``) work over any exact field whose
elements support ``+ - * /``, with ``bool(x)`` false exactly for zero.
The field is read off the entries: ``fractions.Fraction`` entries give
results over Q, ``qalg.KNum`` entries results over Q(sqrt(r)).  The ring
routines ``mat_mul``, ``mat_vec``, ``block_diag`` and
``wedge_derivation`` and ``wedge_vector`` keep the entry type, so int
matrices give int results.
The eliminations (``rref``, ``nullspace``, ``solve``, ``inverse``,
``det`` and what is built on them) read integer entries as elements of
Q, so their results come back as ``Fraction``, never ``float``.  Over
Q they run fraction-free in ints: ``int_echelon`` and ``det`` (Bareiss)
work on the rows cleared of denominators, and a ``Fraction`` is made
only for an entry a routine returns.  ``_pivot`` serves other fields.
A routine that needs the field's 0 takes x - x for an entry x, and one
that needs its 1 takes x / x for a nonzero entry; ``nullspace`` of a
matrix with no nonzero entry has no such entry: it returns the standard
basis over Q for rational zeros and raises ValueError for zeros of
another field.  ``frac_mat`` and ``identity`` build matrices over Q.
The integer routines (Smith form and what is built on it) take and
return ints.

Zeros are skipped, never multiplied: the matrices met here are sparse,
and an exact product by zero costs as much as any other.  ``sparse_mul`` is
the one matrix product: it takes both operands as ``sparse_rows`` and
forms only products of two nonzero entries.  ``mat_mul`` runs on it
with the zero of its entries, and the spin and Weil operators, kept
sparse, call it directly with int 0.  ``mat_vec`` touches only the
nonzero entries of the vector, and every elimination step updates a
row only at the nonzero columns of the pivot row (an int row is scaled
first when the pivot does not divide its entry).  The values are those
of the dense textbook algorithms, which the tests keep as oracles.  No
floating point is used anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm, prod
from operator import attrgetter

F0 = Fraction(0)
F1 = Fraction(1)


def _one(a):
    """The field's 1, read off the first nonzero entry of a (Q's 1 if a
    has none)."""
    x = next((x for row in a for x in row if x), F1)
    return F1 if isinstance(x, int) else x / x


def _eye(n, one):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def frac_mat(rows):
    """Copy ``rows`` into a list-of-lists matrix with Fraction entries."""
    return [[Fraction(x) for x in row] for row in rows]


def identity(n):
    return _eye(n, F1)


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def _nonzeros(row):
    """The (column, entry) pairs of the nonzero entries of a row."""
    return [(j, y) for j, y in enumerate(row) if y]


def _zero_of_product(x, y):
    """The zero of the ring that x * y lives in."""
    p = x * y
    return p - p


def sparse_rows(m):
    """Per row of a matrix, the (column, entry) pairs of its nonzeros."""
    return [_nonzeros(row) for row in m]


def sparse_mul(a_rows, b_rows, width, zero=0):
    """The product of two matrices given by their ``sparse_rows``, with
    ``width`` columns summed from ``zero``: row i adds x * (row k of b)
    for each nonzero x = a[i][k], and nothing else."""
    out = []
    for a_row in a_rows:
        acc = [zero] * width
        for k, x in a_row:
            for j, y in b_rows[k]:
                acc[j] += x * y
        out.append(acc)
    return out


def mat_mul(a, b):
    if not a or not b:
        return []
    n = len(b)
    if any(len(row) != n for row in a):
        raise ValueError("shape mismatch")
    if not b[0]:
        return [[] for _ in a]
    zero = _zero_of_product(a[0][0], b[0][0])
    return sparse_mul(sparse_rows(a), sparse_rows(b), len(b[0]), zero)


def mat_vec(a, v):
    if not a:
        return []
    zero = _zero_of_product(a[0][0], v[0])
    v_nz = _nonzeros(v)
    out = []
    for row in a:
        acc = zero
        for j, y in v_nz:
            x = row[j]
            if x:
                acc += x * y
        out.append(acc)
    return out


def block_diag(blocks):
    """Square blocks along the diagonal, zero elsewhere.  The zero has the
    type of the entries: int blocks give an int matrix."""
    if not blocks:
        return []
    x = blocks[0][0][0]
    zero = x - x
    n = sum(len(b) for b in blocks)
    out = [[zero] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(row)] = row
        off += len(b)
    return out


def _insert(out, rest, p, pos, coef):
    """Add to out coef times the sorted monomial ``rest`` with e_p put at
    position pos, sorted: e_p moves past |q - pos| factors to its place q."""
    q = bisect_left(rest, p)
    key = rest[:q] + (p,) + rest[q:]
    term = -coef if (q - pos) % 2 else coef
    out[key] = out[key] + term if key in out else term


def wedge_derivation(mat, mono):
    """The derivation a square matrix induces on the exterior algebra,
    applied to one wedge monomial (a sorted tuple of distinct basis
    indices): each factor e_b in turn is replaced by column b of the
    matrix, e_p at the position of e_b, sorted in by ``_insert``.  Returns
    {monomial: coefficient} without zero coefficients; the coefficients
    have the type of the entries, so an int matrix gives int
    coefficients."""
    present = set(mono)
    out = {}
    for pos, b in enumerate(mono):
        rest = mono[:pos] + mono[pos + 1 :]
        for p, row in enumerate(mat):
            coef = row[b]
            if coef and (p == b or p not in present):
                _insert(out, rest, p, pos, coef)
    return {k: v for k, v in out.items() if v}


def wedge_vector(w, v):
    """w ^ v for w an element {monomial: coefficient} of the exterior
    algebra and v a vector: each nonzero v[p] e_p is put last in each
    monomial without e_p and sorted in by ``_insert``.  Returns {monomial:
    coefficient} without zero coefficients."""
    out, nonzeros = {}, _nonzeros(v)
    for mono, c in w.items():
        for p, x in nonzeros:
            if p not in mono:
                _insert(out, mono, p, len(mono), c * x)
    return {k: y for k, y in out.items() if y}


_denominator = attrgetter("denominator")


def _rational(a):
    return all(isinstance(x, (int, Fraction)) for row in a for x in row)


def _cleared(row):
    """(d, the int row d * row) for d the lcm of the row's denominators."""
    d = lcm(*map(_denominator, row))
    return d, list(map(int, row)) if d == 1 else [x.numerator * (d // x.denominator) for x in row]


def _gauss_jordan(m, step):
    """Gauss-Jordan on m in place: ``step(m, r, c)`` clears column c with
    the pivot row r, swapped up from the first usable row.  Returns the
    pivot columns."""
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        step(m, r, c)
        pivots.append(c)
        if r + 1 == len(m):
            break
    return pivots


def _int_step(m, r, c):
    """Make the entry p of row r in column c positive, then replace each
    other row with entry f there by (pp*row - ff*(row r)) / gcd, with pp, ff
    = p, f over their gcd; a row is only scaled when pp is not 1."""
    if m[r][c] < 0:
        m[r] = [-x for x in m[r]]
    p = m[r][c]
    pivot_nz = _nonzeros(m[r])
    for i, row in enumerate(m):
        f = row[c]
        if not f or i == r:
            continue
        g = gcd(p, f)
        pp, ff = p // g, f // g
        if pp != 1:
            row = [pp * x for x in row]
        for j, y in pivot_nz:
            row[j] -= ff * y
        g = gcd(*row)
        m[i] = [x // g for x in row] if g > 1 else row


def int_echelon(a):
    """Fraction-free Gauss-Jordan elimination of a matrix of ints and
    Fractions.  Returns (rows, pivots): for each pivot column, the row of
    the reduced echelon form scaled to the unique primitive int row (gcd
    1) with a positive pivot entry, so the rows are as canonical as the
    reduced form, whose rows are row / row[pivot]."""
    m = []
    for row in a:
        row = _cleared(row)[1]
        g = gcd(*row)
        if g:
            m.append([x // g for x in row] if g > 1 else row)
    pivots = _gauss_jordan(m, _int_step)
    return m[: len(pivots)], pivots


def _frac(x, p):
    """The entry x of an ``int_echelon`` row over the row's pivot entry p."""
    return Fraction(x, p) if x else F0


def _pivot(m, r, c, rows):
    """Divide row r of m by its entry p in column c, then clear column c of
    each row in ``rows`` with it, updating a row only at the nonzero columns
    of the pivot row.  Returns p."""
    p = m[r][c]
    pivot_row = m[r] = [x / p if x else x for x in m[r]]
    pivot_nz = _nonzeros(pivot_row)
    for i in rows:
        row = m[i]
        f = row[c]
        if f:
            for j, y in pivot_nz:
                row[j] -= f * y
    return p


def rref(a):
    """Reduced row echelon form.  Returns (matrix, pivot column list)."""
    if _rational(a):
        rows, pivots = int_echelon(a)
        r = [[_frac(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
        return r + [[F0] * len(a[0]) for _ in range(len(a) - len(r))], pivots
    m = [list(row) for row in a]
    pivots = _gauss_jordan(m, lambda m, r, c: _pivot(m, r, c, (i for i in range(len(m)) if i != r)))
    return m, pivots


def _echelon(a):
    """(rows, pivots, quot): the pivot rows of the reduced form of a, each up
    to a factor, and quot(x, p) = x / p for an entry x and pivot entry p:
    ``int_echelon``'s rows over Q, ``rref``'s (pivots 1) over other fields."""
    if _rational(a):
        return (*int_echelon(a), _frac)
    m, pivots = rref(a)
    return m[: len(pivots)], pivots, lambda x, p: x


def rank(a):
    return len(_echelon(a)[1])


def nullspace(a):
    """Basis of {x : a x = 0} (x as column vectors, returned as lists).

    Deterministic: one basis vector per free column of the rref, with the
    free coordinate set to 1.
    """
    if not a:
        return []
    if not any(map(any, a)) and not _rational(a):
        raise ValueError("no nonzero entry to read the field's 1 off")
    rows, pivots, quot = _echelon(a)
    cols = len(a[0])
    one = _one(a)
    zero = one - one
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        for row, pc in zip(rows, pivots):
            v[pc] = quot(-row[fc], row[pc])
        basis.append(v)
    return basis


def solve(a, b):
    """One solution x of a x = b, or None if inconsistent."""
    if not a:
        return None
    cols = len(a[0])
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    rows, pivots, quot = _echelon(aug)
    if cols in pivots:
        return None
    z = aug[0][0]
    x = [quot(z - z, 1)] * cols  # the field's 0
    for row, pc in zip(rows, pivots):
        x[pc] = quot(row[cols], row[pc])
    return x


def _square(a):
    """a itself, after checking that it has as many columns as rows."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix is not square")
    return a


def _bareiss_det(a):
    """Fraction-free (Bareiss) elimination of an int matrix: each update
    p*x - f*y is divided exactly (//) by the previous pivot, a row swap
    flips the sign, and the last diagonal entry is the determinant."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for c in range(n - 1):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        pivot_row = m[c]
        p = pivot_row[c]
        for row in m[c + 1:]:
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (p * row[j] - f * pivot_row[j]) // prev
        prev = p
    return sign * m[-1][-1] if n else 1


def det(a):
    if _rational(_square(a)):
        # Bareiss on the rows cleared of denominators, over their product
        cleared = [_cleared(row) for row in a]
        return Fraction(_bareiss_det([row for _, row in cleared]), prod(d for d, _ in cleared))
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    d = F1
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return m[c][c]
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        p = _pivot(m, c, c, range(c + 1, n))
        d = p if c == 0 else d * p
    return d if sign > 0 else -d


def inverse(a):
    n = len(_square(a))
    if n and not any(map(any, a)):
        # no nonzero entry to read the field's 1 off for the identity
        raise ValueError("matrix is singular")
    aug = [list(row) + ident_row for row, ident_row in zip(a, _eye(n, _one(a)))]
    rows, pivots, quot = _echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[quot(x, row[i]) for x in row[n:]] for i, row in enumerate(rows)]


def intersect_row_spaces(a, b):
    """Canonical (reduced echelon) basis of rowspace(a) & rowspace(b)."""
    if not a or not b:
        return []
    na = nullspace(a)
    nb = nullspace(b)
    stacked = na + nb
    if not stacked:
        # both row spaces are the full ambient space
        return _eye(len(a[0]), _one(a))
    r, pivots = rref(nullspace(stacked))
    return r[: len(pivots)]


# ---------------------------------------------------------------------------
# integer routines


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(a):
    """Smith normal form of an integer matrix.

    Returns (s, u, v) with u * a * v == s, u and v unimodular, and s
    diagonal with each diagonal entry dividing the next.
    """
    s = [[int(x) for x in row] for row in a]
    m = len(s)
    n = len(s[0]) if s else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t = 0
    while t < min(m, n):
        # locate a nonzero entry of smallest magnitude in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        _swap_rows(s, t, bi)
        _swap_rows(u, t, bi)
        _swap_cols(s, t, bj)
        _swap_cols(v, t, bj)
        dirty = False
        for i in range(t + 1, m):
            if s[i][t] != 0:
                q = s[i][t] // s[t][t]
                if q:
                    s[i] = [x - q * y for x, y in zip(s[i], s[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if s[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if s[t][j] != 0:
                q = s[t][j] // s[t][t]
                if q:
                    for row in s:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if s[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot now divides its row and column; enforce divisibility of the
        # remaining block
        p = s[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            s[t] = [x + y for x, y in zip(s[t], s[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        t += 1
    for i in range(min(m, n)):
        if s[i][i] < 0:
            s[i] = [-x for x in s[i]]
            u[i] = [-x for x in u[i]]
    return s, u, v


def elementary_divisors(a):
    """Nonzero diagonal entries of the Smith normal form."""
    s, _, _ = smith_normal_form(a)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i] != 0]


def integer_kernel(a):
    """Basis of the saturated lattice {x in Z^n : a x = 0}.

    With u a v = s in Smith form, the kernel is spanned by the columns of
    v sitting over the zero diagonal of s.  Such a kernel is automatically
    saturated.
    """
    if not a:
        return []
    n = len(a[0])
    s, _, v = smith_normal_form(a)
    nz = len([i for i in range(min(len(s), n)) if s[i][i] != 0])
    cols = list(zip(*v))
    return [list(cols[j]) for j in range(nz, n)]


def int_det(a):
    """Integer determinant; an all-int matrix skips ``det``'s Fraction."""
    if all(isinstance(x, int) for row in _square(a) for x in row):
        return _bareiss_det(a)
    d = det(a)
    if d.denominator != 1:
        raise ValueError("determinant is not an integer")
    return d.numerator
