"""Exact dense linear algebra over any exact field, and over Z.

Matrices are plain lists of rows.  The field routines (``mat_mul``
through ``intersect_row_spaces``) work over any exact field whose
elements support ``+ - * /``, with ``bool(x)`` false exactly for zero.
The field is read off the entries: ``fractions.Fraction`` entries give
results over Q, ``qalg.KNum`` entries results over Q(sqrt(r)).  Integer
entries are read as elements of Q, so results come back as ``Fraction``,
never ``float``.  A routine that needs the field's 0 takes x - x for an
entry x, and one that needs its 1 takes x / x for a nonzero entry;
``nullspace`` of a matrix with no nonzero entry has no such entry and
returns the standard basis over Q.  ``frac_mat``, ``identity`` and
``zeros`` build matrices over Q.  The integer routines (Smith form and
what is built on it) take and return ints.

Everything in this package is small enough (a few hundred rows at most)
that textbook Gaussian elimination and Smith reduction are entirely
adequate; no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul

F0 = Fraction(0)
F1 = Fraction(1)


def _exact(x):
    """x, with an int read as an element of Q."""
    return Fraction(x) if isinstance(x, int) else x


def _one(a):
    """The field's 1, read off the first nonzero entry of a (Q's 1 if a
    has none)."""
    x = next((_exact(x) for row in a for x in row if x), F1)
    return x / x


def _eye(n, one):
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def frac_mat(rows):
    """Copy ``rows`` into a list-of-lists matrix with Fraction entries."""
    return [[Fraction(x) for x in row] for row in rows]


def identity(n):
    return _eye(n, F1)


def zeros(m, n):
    return [[F0] * n for _ in range(m)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    if not a or not b:
        return []
    n = len(b)
    if any(len(row) != n for row in a):
        raise ValueError("shape mismatch")
    bt = list(zip(*b))
    return [[reduce(add, map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [reduce(add, map(mul, row, v)) for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


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


def perm_sign(seq):
    """Sign of the permutation that sorts ``seq`` (distinct items), by
    counting the swaps of a bubble sort."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def rref(a):
    """Reduced row echelon form.  Returns (matrix, pivot column list)."""
    m = [list(row) for row in a]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = _exact(m[r][c])
        m[r] = [x / p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a):
    return len(rref(a)[1])


def nullspace(a):
    """Basis of {x : a x = 0} (x as column vectors, returned as lists).

    Deterministic: one basis vector per free column of the rref, with the
    free coordinate set to 1.
    """
    if not a:
        return []
    r, pivots = rref(a)
    cols = len(a[0])
    one = _one(a)
    zero = one - one
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """One solution x of a x = b, or None if inconsistent."""
    if not a:
        return None
    cols = len(a[0])
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    z = _exact(r[0][cols])
    x = [z - z] * cols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][cols]
    return x


def det(a):
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    d = F1
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return _exact(m[c][c])
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        p = _exact(m[c][c])
        d = p if c == 0 else d * p
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / p
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d if sign > 0 else -d


def inverse(a):
    n = len(a)
    if n and not any(map(any, a)):
        # no nonzero entry to read the field's 1 off for the identity
        raise ValueError("matrix is singular")
    aug = [list(row) + ident_row for row, ident_row in zip(a, _eye(n, _one(a)))]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def row_space_basis(a):
    """Canonical (reduced echelon) basis of the row space."""
    r, pivots = rref(a)
    return [r[i] for i in range(len(pivots))]


def intersect_row_spaces(a, b):
    """Canonical basis of rowspace(a) & rowspace(b)."""
    if not a or not b:
        return []
    na = nullspace(a)
    nb = nullspace(b)
    stacked = na + nb
    if not stacked:
        # both row spaces are the full ambient space
        return _eye(len(a[0]), _one(a))
    return row_space_basis(nullspace(stacked))


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
    d = det(frac_mat(a))
    if d.denominator != 1:
        raise ValueError("determinant is not an integer")
    return d.numerator
