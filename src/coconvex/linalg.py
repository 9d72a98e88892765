"""Exact linear algebra on plain tuples.

Vectors are tuples of ``int`` or ``fractions.Fraction``; matrices are
sequences of row tuples.  Everything here is pure and allocation-light;
no floating point is used anywhere.

There is one Gaussian elimination, :func:`_gauss_jordan`, and it runs on
integers: each row is scaled once to integer entries, and the
fraction-free Gauss-Jordan pass of Bareiss and Montante keeps every
reduced row integral, holding the last pivot p on its own pivot column
and 0 on the other kept rows' pivot columns.  `rank`, `pivot_columns`,
`det`, `solve` and `integer_dual_basis` only read its result;
right-hand sides and identity blocks ride along as extra columns.  `det`
and `solve` divide by p once, into ``Fraction``.  The
one exception is `det` of a 2x2 or 3x3 matrix, which the covolume sums
take over every simplex: it is expanded by cofactors, with no elimination.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm, prod

def dot(u, v):
    return sum(map(operator.mul, u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def exact_vector(u) -> tuple:
    """u with its integral entries as ``int`` and the others as ``Fraction``."""
    return tuple(a if type(a) is int else _exact(a) for a in u)


def _exact(a):
    q = Fraction(a)
    return q.numerator if q.denominator == 1 else q


def _row_scale(u) -> int:
    """Least common denominator of the entries of u."""
    return lcm(*(a.denominator for a in u))


def scale_to_int(u) -> tuple:
    """Clear denominators: smallest positive multiple with integer entries.

    A row of ``int`` entries is already that multiple and comes back as it
    stands."""
    for a in u:
        if type(a) is not int:
            mult = _row_scale(u)
            return tuple(int(a * mult) for a in u)
    return tuple(u)


def primitive(u) -> tuple:
    """Primitive integer vector on the same ray (gcd 1, direction kept)."""
    w = scale_to_int(u)
    g = gcd(*w)
    if g <= 1:
        return w
    return tuple(a // g for a in w)


def _gauss_jordan(rows):
    """The one elimination: fraction-free Gauss-Jordan (Bareiss-Montante).

    Inserts the rows in order, each scaled to integers once.  With k rows
    kept at pivot p, each kept row holds p on its pivot column and 0 on the
    others', so p r - sum r[c_i] K_i reduces a new row r to minors of order
    k + 1, and every (q a - f b) // p is exact.  A row that does not reduce
    to zero is kept with its pivot column, its first nonzero entry.
    Returns the kept (index, pivot column, row) triples in insertion order
    and the last pivot p, which is the minor on the kept rows and their
    pivot columns.  Once every column has a pivot no later row can be
    kept, so the scan stops there.
    """
    kept, p = [], 1
    for i, r in enumerate(rows):
        r = scale_to_int(r)
        new = [p * a for a in r]
        for _, c, row in kept:
            if r[c]:
                new = [a - r[c] * b for a, b in zip(new, row)]
        col = next((j for j, a in enumerate(new) if a), None)
        if col is not None:
            q = new[col]
            kept = [(k, c, [(q * a - row[col] * b) // p for a, b in zip(row, new)])
                    for k, c, row in kept] + [(i, col, new)]
            p = q
            if len(kept) == len(new):
                break
    return kept, p


def rank(rows) -> int:
    return len(_gauss_jordan(rows)[0])


def pivot_columns(rows) -> list:
    """Ascending pivot columns of the rows, as many as their rank.

    The span of the rows projects injectively onto these coordinates: on
    them the kept rows form a diagonal matrix with nonzero diagonal.
    """
    return sorted(col for _, col, _ in _gauss_jordan(rows)[0])


def det(rows):
    """Determinant of a square matrix, ValueError on any other.  A 2x2 or
    3x3 matrix is expanded by cofactors, exact on ``int`` and ``Fraction``;
    any other size takes the last pivot, with the sign of the pivot-column
    permutation, over the product of the row scales."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    kept, p = _gauss_jordan(rows)
    if len(kept) < len(rows):
        return Fraction(0)
    cols = [col for _, col, _ in kept]
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    return Fraction(-p if inversions % 2 else p, prod(_row_scale(r) for r in rows))


def solve(rows, rhs):
    """Solve A x = b exactly.  Returns a Fraction tuple, with free variables
    set to zero, or None if the system is inconsistent.

    On [A | b] each kept row K_i reads p x_(c_i) = K_i[b] once the free
    variables are zero.  The system is inconsistent when a row that
    reduced to zero in A keeps a nonzero right-hand side, i.e. when the b
    column takes a pivot.
    """
    n = len(rows[0])
    kept, p = _gauss_jordan([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    if any(col == n for _, col, _ in kept):
        return None
    x = [Fraction(0)] * n
    for _, col, row in kept:
        x[col] = Fraction(row[n], p)
    return tuple(x)


def integer_dual_basis(rows, n: int):
    """Integer dual basis of the first n linearly independent integer rows
    A of length n.

    Returns their indices, D = |det A| and the integer y_j with
    A_i . y_j = D [i == j].  One pass picks the rows; a second on [A | I]
    leaves p times row c_i of A^-1 on the identity block of the row with
    pivot column c_i, and p = +-det A.  Raises ValueError when the rows
    have rank below n.
    """
    base = [i for i, _, _ in _gauss_jordan(rows)[0]]
    if len(base) < n:
        raise ValueError("rows do not span the ambient space")
    eye = [(0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)]
    kept, p = _gauss_jordan([tuple(rows[i]) + e for i, e in zip(base, eye)])
    adj = {c: row[n:] for _, c, row in kept}
    sign = 1 if p > 0 else -1
    return (base, abs(p),
            [tuple(sign * adj[c][j] for c in range(n)) for j in range(n)])
