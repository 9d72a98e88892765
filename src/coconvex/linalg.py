"""Exact linear algebra over the rationals on plain tuples.

Vectors are tuples of ``int`` or ``fractions.Fraction``; matrices are
sequences of row tuples.  Everything here is pure and allocation-light;
no floating point is used anywhere.

There is one Gaussian elimination, :func:`_eliminate`, over ``Fraction``
rows: it inserts the rows in order, reduces each by the pivot rows kept so
far, and records each kept row's input index and pivot column.  `rank`,
`independent_subset`, `det`, `solve`, `nullspace` and `dual_basis` only
read its result; a right-hand side rides along as an extra column, and
several right-hand sides are read off one kernel (A X = B is the kernel
of [A | -B] over the identity), so each matrix is eliminated once.
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


def independent_subset(rows, size: int):
    """Indices of `size` linearly independent rows, or None if rank < size."""
    chosen = [i for i, _, _ in _eliminate(rows)]
    return chosen[:size] if len(chosen) >= size else None


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


def dual_basis(rows):
    """Vectors y_j with rows[i] . y_j = [i == j] for a nonsingular square
    matrix (the columns of its inverse), read off one kernel of [A | -I].
    """
    n = len(rows)
    eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    kernel = nullspace([tuple(r) + tuple(-e for e in u) for r, u in zip(rows, eye)])
    # The kernel is {(y, A y)}: its last n coordinates span only the range of A.
    if [v[n:] for v in kernel] != eye:
        raise ValueError("matrix is singular")
    return [v[:n] for v in kernel]
