"""Exact linear algebra over the rationals on plain tuples.

Vectors are tuples of ``int`` or ``fractions.Fraction``; matrices are
sequences of row tuples.  Everything here is pure and allocation-light;
no floating point is used anywhere.
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


def _echelon(rows):
    """Row echelon form over Q (list of reduced nonzero Fraction rows)."""
    work = [tuple(Fraction(a) for a in r) for r in rows]
    basis = []  # list of (pivot_col, row)
    for r in work:
        for col, b in basis:
            if r[col] != 0:
                c = r[col] / b[col]
                r = tuple(a - c * bb for a, bb in zip(r, b))
        piv = next((j for j, a in enumerate(r) if a != 0), None)
        if piv is not None:
            basis.append((piv, r))
    return basis


def rank(rows) -> int:
    return len(_echelon(rows))


def independent_subset(rows, size: int):
    """Indices of `size` linearly independent rows, or None if rank < size."""
    basis = []
    chosen = []
    for i, r in enumerate(rows):
        r = tuple(Fraction(a) for a in r)
        for col, b in basis:
            if r[col] != 0:
                c = r[col] / b[col]
                r = tuple(a - c * bb for a, bb in zip(r, b))
        piv = next((j for j, a in enumerate(r) if a != 0), None)
        if piv is not None:
            basis.append((piv, r))
            chosen.append(i)
            if len(chosen) == size:
                return chosen
    return None


def det(rows) -> Fraction:
    """Determinant of a square matrix, by fraction-free-ish elimination."""
    n = len(rows)
    m = [list(Fraction(a) for a in r) for r in rows]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        result *= p
        for i in range(col + 1, n):
            if m[i][col] != 0:
                c = m[i][col] / p
                for j in range(col, n):
                    m[i][j] -= c * m[col][j]
    return sign * result


def solve(rows, rhs):
    """Solve A x = b exactly.  Returns a Fraction tuple or None if singular
    or inconsistent.  A must be square for the unique-solution case; for a
    rectangular system the least-index consistent solution is returned with
    free variables set to zero, or None if inconsistent."""
    m = len(rows)
    n = len(rows[0])
    aug = [list(Fraction(a) for a in r) + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = []  # (row, col)
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        p = aug[row][col]
        aug[row] = [a / p for a in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [a - c * b for a, b in zip(aug[i], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, c in pivots:
        x[c] = aug[r][n]
    return tuple(x)


def nullspace(rows):
    """Basis of the right null space of A, as Fraction tuples."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    work = [list(Fraction(a) for a in r) for r in rows]
    pivots = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        p = work[row][col]
        work[row] = [a / p for a in work[row]]
        for i in range(m):
            if i != row and work[i][col] != 0:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -work[r][f]
        basis.append(tuple(v))
    return basis
