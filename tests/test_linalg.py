"""Exact linear algebra basics, checked against the textbook eliminations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coconvex.linalg import (det, dot, dual_basis, independent_subset,
                             nullspace, primitive, rank, scale_to_int, solve)


# Reference oracles: one separate Gaussian elimination per question, kept
# apart from the package's single elimination kernel.

def reference_echelon(rows):
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


def reference_rank(rows) -> int:
    return len(reference_echelon(rows))


def reference_independent_subset(rows, size: int):
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


def reference_det(rows) -> Fraction:
    """Determinant of a square matrix by elimination with row swaps."""
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


def reference_solve(rows, rhs):
    """Gauss-Jordan on [A | b]: free variables zero, None if inconsistent."""
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


def reference_nullspace(rows):
    """Basis of the right null space of A from its reduced row echelon form."""
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


def test_det_known():
    assert det([(1, 0), (0, 1)]) == 1
    assert det([(2, 0), (0, 3)]) == 6
    assert det([(1, 2), (2, 4)]) == 0
    assert det([(0, 1), (1, 0)]) == -1
    assert det([(Fraction(1, 2), 0), (0, Fraction(1, 3))]) == Fraction(1, 6)


def test_rank_and_independent_subset():
    rows = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 2)]
    assert rank(rows) == 3
    idx = independent_subset(rows, 3)
    assert idx == [0, 1, 3]
    assert independent_subset(rows[:3], 3) is None


def test_solve_square_and_inconsistent():
    assert solve([(2, 0), (0, 4)], (1, 1)) == (Fraction(1, 2), Fraction(1, 4))
    assert solve([(1, 1), (2, 2)], (1, 3)) is None
    # consistent rectangular
    assert solve([(1, 1), (2, 2)], (1, 2)) == (Fraction(1), Fraction(0))


def test_nullspace():
    basis = nullspace([(1, 1, 0)])
    assert len(basis) == 2
    for v in basis:
        assert dot((1, 1, 0), v) == 0


def test_primitive_and_scale_to_int():
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert primitive((0, -2)) == (0, -1)
    assert scale_to_int((Fraction(1, 2), 1)) == (1, 2)


@given(st.lists(st.integers(-50, 50), min_size=9, max_size=9))
def test_det_transpose_invariant(flat):
    m = [tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9])]
    mt = [tuple(r[i] for r in m) for i in range(3)]
    assert det(m) == det(mt)


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.lists(st.integers(-9, 9), min_size=2, max_size=2))
def test_solve_round_trip(flat, rhs):
    m = [tuple(flat[0:2]), tuple(flat[2:4])]
    if det(m) == 0:
        return
    x = solve(m, rhs)
    assert [dot(row, x) for row in m] == [Fraction(b) for b in rhs]


def _entry(rng):
    if rng.random() < 0.3:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return rng.choice([0, 0, rng.randint(-4, 4)])


def test_kernel_matches_reference_eliminations():
    rng = random.Random(5)
    seen = {"singular": 0, "inconsistent": 0, "rank_deficient": 0}
    for _ in range(2500):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [tuple(_entry(rng) for _ in range(n)) for _ in range(m)]
        if m >= 3 and rng.random() < 0.4:
            i, j, k = rng.sample(range(m), 3)
            rows[k] = tuple(a + b for a, b in zip(rows[i], rows[j]))
        rhs = [_entry(rng) for _ in range(m)]
        r = rank(rows)
        assert r == reference_rank(rows)
        for size in range(1, m + 1):
            assert independent_subset(rows, size) == \
                reference_independent_subset(rows, size), (rows, size)
        if m == n:
            assert det(rows) == reference_det(rows), rows
            seen["singular"] += r < n
        x = solve(rows, rhs)
        assert x == reference_solve(rows, rhs), (rows, rhs)
        seen["inconsistent"] += x is None
        assert nullspace(rows) == reference_nullspace(rows), rows
        seen["rank_deficient"] += r < min(m, n)
    assert min(seen.values()) >= 100, seen


def test_dual_basis_is_the_inverse():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [tuple(_entry(rng) for _ in range(n)) for _ in range(n)]
        if reference_det(rows) == 0:
            with pytest.raises(ValueError):
                dual_basis(rows)
            continue
        eye = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        assert dual_basis(rows) == [reference_solve(rows, e) for e in eye]
