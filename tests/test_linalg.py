"""Exact linear algebra basics, checked against the textbook eliminations."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coconvex.linalg import (det, dot, exact_vector, integer_dual_basis,
                             pivot_columns, primitive, rank, scale_to_int,
                             solve)


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


def dual_basis(rows):
    """Vectors y_j with rows[i] . y_j = [i == j] for a nonsingular square
    matrix (the columns of its inverse), read off one kernel of [A | -I].
    """
    n = len(rows)
    eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    kernel = reference_nullspace([tuple(r) + tuple(-e for e in u) for r, u in zip(rows, eye)])
    # The kernel is {(y, A y)}: its last n coordinates span only the range of A.
    if [v[n:] for v in kernel] != eye:
        raise ValueError("matrix is singular")
    return [v[:n] for v in kernel]


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
    assert integer_dual_basis(rows, 3) == ([0, 1, 3], 2, [(2, 0, 0), (0, 2, 0),
                                                          (0, 0, 1)])
    with pytest.raises(ValueError):
        integer_dual_basis(rows[:3], 3)


def test_solve_square_and_inconsistent():
    assert solve([(2, 0), (0, 4)], (1, 1)) == (Fraction(1, 2), Fraction(1, 4))
    assert solve([(1, 1), (2, 2)], (1, 3)) is None
    # consistent rectangular
    assert solve([(1, 1), (2, 2)], (1, 2)) == (Fraction(1), Fraction(0))


def test_primitive_and_scale_to_int():
    """`primitive` returns a tuple of ``int`` for a list, the zero vector,
    negative and Fraction entries, and an already primitive tuple."""
    for u, expected in [((2, 4, 6), (1, 2, 3)), ((Fraction(1, 2), Fraction(1, 3)), (3, 2)),
                        ((0, -2), (0, -1)), ([4, -6, 0], (2, -3, 0)), ((0, 0, 0), (0, 0, 0)),
                        ((), ()), ((-3, -9), (-1, -3)),
                        ((Fraction(-2, 3), Fraction(4, 9)), (-3, 2)),
                        ((Fraction(6, 2), 9), (1, 3)), ((3, -5, 7), (3, -5, 7))]:
        got = primitive(u)
        assert type(got) is tuple and got == expected, u
        assert all(type(a) is int for a in got), u
    assert scale_to_int((Fraction(1, 2), 1)) == (1, 2)


def test_det_rejects_non_square():
    for rows in ([(1, 2, 3), (4, 5, 6)], [(1, 2), (3, 4), (5, 6)],
                 [(1, 2), (3,)], [(1, 2, 3), (4, 5, 6), (7, 8)], [(1, 2, 3, 4)] * 3,
                 [(1, 2)]):
        with pytest.raises(ValueError, match="non-square"):
            det(rows)
    assert det([]) == 1
    assert det([(Fraction(-3, 2),)]) == Fraction(-3, 2)


def test_exact_vector_matches_fraction_conversion():
    # reference: every entry through Fraction, integral ones back to int
    def reference(u):
        return tuple(q.numerator if q.denominator == 1 else q
                     for q in map(Fraction, u))

    big = 10 ** 30
    for u in [(3, 0, -7, big), (True, False, 2), (Fraction(4, 2), Fraction(-3)),
              (Fraction(1, 2), 3, Fraction(-5, 3)),
              (True, Fraction(6, 3), 1, Fraction(1, 7))]:
        got = exact_vector(u)
        assert got == reference(u)
        assert list(map(type, got)) == list(map(type, reference(u)))
    ints = (3, 0, -7, big)
    assert all(a is b for a, b in zip(exact_vector(ints), ints))
    assert exact_vector(iter([Fraction(1, 2), 2])) == (Fraction(1, 2), 2)


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


def _entry(rng, big):
    """Small entries, or with `big` large numerators and denominators,
    which drive entry growth in the fraction-free pass and the division
    by the row scales in `det`."""
    if big and rng.random() < 0.5:
        return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 97))
    if rng.random() < 0.3:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return rng.choice([0, 0, rng.randint(-4, 4)])


def _row(rng, n, big):
    """A mixed row, or one of plain ``int`` entries (some negative, some
    all zero), which `scale_to_int` passes through as it stands."""
    kind = rng.random()
    if kind < 0.15:
        return tuple(rng.randint(-9, 9) for _ in range(n))
    if kind < 0.2:
        return (0,) * n
    return tuple(_entry(rng, big) for _ in range(n))


def reference_scale_to_int(row):
    """The row over Fraction times the lcm of its denominators."""
    mult = math.lcm(*(Fraction(a).denominator for a in row))
    return tuple(Fraction(a) * mult for a in row)


def test_kernel_matches_reference_eliminations():
    rng = random.Random(5)
    seen = {"singular": 0, "inconsistent": 0, "rank_deficient": 0, "big": 0,
            "int_rows": 0, "zero_rows": 0, "cofactor_det": 0, "cofactor_singular": 0}
    for _ in range(2500):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.3:
            m = n
        big = rng.random() < 0.2
        seen["big"] += big
        rows = [_row(rng, n, big) for _ in range(m)]
        for row in rows:
            if all(type(a) is int for a in row):
                seen["int_rows"] += 1
                seen["zero_rows"] += not any(row)
            scaled = scale_to_int(row)
            assert scaled == reference_scale_to_int(row), row
            assert all(type(a) is int for a in scaled)
        if m >= 3 and rng.random() < 0.4:
            i, j, k = rng.sample(range(m), 3)
            rows[k] = tuple(a + b for a, b in zip(rows[i], rows[j]))
        rhs = [_entry(rng, big) for _ in range(m)]
        r = rank(rows)
        assert r == reference_rank(rows)
        # The reference echelon's pivots, and the row span projects
        # injectively onto them: the projected rows keep the rank.
        cols = pivot_columns(rows)
        assert cols == sorted(col for col, _ in reference_echelon(rows))
        assert reference_rank([tuple(row[j] for j in cols) for row in rows]) == r
        if m == n:
            assert det(rows) == reference_det(rows), rows
            seen["singular"] += r < n
            if n in (2, 3):
                # Cofactor expansion, exact on Fraction rows and on the
                # same rows scaled to int, where it stays int.
                seen["cofactor_det"] += 1
                seen["cofactor_singular"] += r < n
                scaled = [scale_to_int(row) for row in rows]
                d = det(scaled)
                assert d == reference_det(scaled) and type(d) is int, rows
        x = solve(rows, rhs)
        assert x == reference_solve(rows, rhs), (rows, rhs)
        seen["inconsistent"] += x is None
        seen["rank_deficient"] += r < min(m, n)
    assert min(seen.values()) >= 100, seen


def test_integer_dual_basis_matches_dual_basis():
    """The fraction-free pass picks the reference's independent rows, and
    its D and dual vectors are |det| and D times the reference inverse:
    A y_j = D e_j, and the primitive y_j are the primitive dual vectors."""
    rng = random.Random(6)
    seen = {"singular": 0, "zero_lead": 0, "dropped_row": 0}
    for _ in range(1500):
        n = rng.randint(1, 5)
        rows = [tuple(rng.choice([0, 0, rng.randint(-6, 6)]) for _ in range(n))
                for _ in range(n + rng.choice([0, 0, 1, 2]))]
        base = reference_independent_subset(rows, n)
        if base is None:
            seen["singular"] += 1
            with pytest.raises(ValueError):
                integer_dual_basis(rows, n)
            continue
        chosen, d, duals = integer_dual_basis(rows, n)
        assert chosen == base, rows
        a = [rows[i] for i in chosen]
        seen["zero_lead"] += a[0][0] == 0
        seen["dropped_row"] += chosen != list(range(n))
        assert d == abs(reference_det(a)), rows
        assert all(type(x) is int for y in duals for x in y), rows
        assert [[dot(r, y) for y in duals] for r in a] == \
            [[d * (i == j) for j in range(n)] for i in range(n)], rows
        assert [primitive(y) for y in duals] == \
            [primitive(y) for y in dual_basis(a)], rows
    assert min(seen.values()) >= 100, seen
