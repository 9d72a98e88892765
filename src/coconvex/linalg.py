"""Exact linear algebra on plain tuples.

Vectors are tuples of ``int`` or ``fractions.Fraction``; matrices are
sequences of row tuples.  Everything here is pure and allocation-light;
no floating point is used anywhere.

There is one Gaussian elimination over ``Fraction`` rows, :func:`_eliminate`:
it inserts the rows in order, reduces each by the pivot rows kept so far,
and records each kept row's input index and pivot column.  `rank`,
`pivot_columns`, `det`, `solve` and `nullspace` only read its result; a
right-hand side rides along as an extra column.  Integer dual bases, for
the double-description pass and lattice cosets, come from one integer
pass instead, the fraction-free :func:`integer_dual_basis`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = tuple
Mat = list


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def is_zero(u) -> bool:
    return all(a == 0 for a in u)


def scale_to_int(u) -> tuple:
    """Clear denominators: smallest positive multiple with integer entries."""
    mult = 1
    for a in u:
        if isinstance(a, Fraction):
            d = a.denominator
            mult = mult * d // gcd(mult, d)
    return tuple(int(a * mult) for a in u)


def primitive(u) -> tuple:
    """Primitive integer vector on the same ray (gcd 1, direction kept)."""
    w = scale_to_int(u)
    g = 0
    for a in w:
        g = gcd(g, abs(a))
    if g == 0:
        return w
    return tuple(a // g for a in w)


def _eliminate(rows):
    """The one elimination: insert rows in order, reducing each by the pivot
    rows kept so far.

    A row that does not reduce to zero is kept with its pivot column, its
    first nonzero entry.  Returns (index, pivot column, reduced row)
    triples in insertion order; each kept row is zero at the pivot columns
    of the rows kept before it.  Once every column has a pivot no later
    row can be kept, so the scan stops there.  Right-hand sides ride along
    as extra columns.
    """
    kept = []
    for i, r in enumerate(rows):
        r = [Fraction(a) for a in r]
        for _, col, p in kept:
            if r[col]:
                c = r[col] / p[col]
                r = [a - c * b for a, b in zip(r, p)]
        col = next((j for j, a in enumerate(r) if a), None)
        if col is not None:
            kept.append((i, col, r))
            if len(kept) == len(r):
                break
    return kept


def _back_substitute(kept, x):
    """Complete x, given on the non-pivot columns and zero on the pivot
    columns, to the kernel vector of the kept rows that agrees with it."""
    for _, col, r in reversed(kept):
        x[col] = -sum(a * b for a, b in zip(r, x)) / r[col]
    return x


def rank(rows) -> int:
    return len(_eliminate(rows))


def pivot_columns(rows) -> list:
    """Ascending pivot columns of the rows, as many as their rank.

    The span of the rows projects injectively onto these coordinates: on
    them the kept rows form a triangular matrix with nonzero diagonal.
    """
    return sorted(col for _, col, _ in _eliminate(rows))


def det(rows) -> Fraction:
    """Determinant of a square matrix: the product of the pivots times the
    sign of the pivot-column permutation."""
    kept = _eliminate(rows)
    if len(kept) < len(rows):
        return Fraction(0)
    result = Fraction(1)
    cols = []
    for _, col, r in kept:
        result *= r[col]
        if sum(c > col for c in cols) % 2:
            result = -result
        cols.append(col)
    return result


def solve(rows, rhs):
    """Solve A x = b exactly.  Returns a Fraction tuple, with free variables
    set to zero, or None if the system is inconsistent.

    x solves A x = b exactly when (x, -1) lies in the kernel of [A | b]; the
    system is inconsistent when a row that reduced to zero in A keeps a
    nonzero right-hand side, i.e. when the last column holds a pivot.
    """
    n = len(rows[0])
    kept = _eliminate([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    if any(col == n for _, col, _ in kept):
        return None
    x = [Fraction(0)] * n + [Fraction(-1)]
    return tuple(_back_substitute(kept, x)[:n])


def nullspace(rows):
    """Basis of the right null space of A, as Fraction tuples: one
    back-substitution per free column, ascending."""
    if not rows:
        return []
    n = len(rows[0])
    kept = _eliminate(rows)
    pivots = {col for _, col, _ in kept}
    basis = []
    for f in range(n):
        if f not in pivots:
            x = [Fraction(0)] * n
            x[f] = Fraction(1)
            basis.append(tuple(_back_substitute(kept, x)))
    return basis


def integer_dual_basis(rows, n: int):
    """Fraction-free Gauss-Jordan (Bareiss-Montante) on [A | I], where A is
    the first n linearly independent integer rows of length n.

    Returns their indices, D = |det A| and the integer y_j with
    A_i . y_j = D [i == j].  With k rows kept at pivot p, each holds p on
    its pivot column and 0 on the others', so p r - sum r[c_i] K_i reduces
    a new row r to minors of order k + 1, and every (q a - f b) // p is
    exact.  Raises ValueError when the rows have rank below n.
    """
    kept, p = [], 1
    for i, r in enumerate(rows):
        new = [p * a for a in r] + [0] * n
        new[n + len(kept)] = p
        for _, c, row in kept:
            if r[c]:
                new = [a - r[c] * b for a, b in zip(new, row)]
        col = next((j for j in range(n) if new[j]), None)
        if col is not None:
            q = new[col]
            kept = [(k, c, [(q * a - row[col] * b) // p for a, b in zip(row, new)])
                    for k, c, row in kept] + [(i, col, new)]
            p = q
            if len(kept) == n:
                break
    else:
        raise ValueError("rows do not span the ambient space")
    adj = {c: row[n:] for _, c, row in kept}
    sign = 1 if p > 0 else -1
    return ([i for i, _, _ in kept], abs(p),
            [tuple(sign * adj[c][j] for c in range(n)) for j in range(n)])
