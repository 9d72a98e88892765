"""Exact comparison of sums of nth roots of rationals.

Decides a^(1/n) + b^(1/n) versus c^(1/n) with no floating point: an
algebraic pre-test settles exact equality (for n <= 4 equality forces both
ratios a/c, b/c to be rational nth powers), and otherwise dyadic interval
refinement with exact integer nth roots separates the two sides.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolation


def nth_root_floor(x: int, n: int) -> int:
    """Largest r with r**n <= x, for x >= 0, by integer Newton iteration."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or n == 1:
        return x
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def rational_nth_root(q: Fraction, n: int):
    """Exact nth root of q if q is the nth power of a rational, else None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn = nth_root_floor(num, n)
    if rn ** n != num:
        return None
    rd = nth_root_floor(den, n)
    if rd ** n != den:
        return None
    return Fraction(rn, rd)


def _root_bounds(q: Fraction, n: int, prec: int):
    """Rational lo <= q^(1/n) < hi with hi - lo <= 2 / 2**prec."""
    scaled = q * (1 << (n * prec))
    lo_int = nth_root_floor(scaled.numerator // scaled.denominator, n)
    up_rad = -((-scaled.numerator) // scaled.denominator)  # ceil
    hi_int = nth_root_floor(up_rad, n) + 1
    unit = Fraction(1, 1 << prec)
    return lo_int * unit, hi_int * unit


def compare_root_sum(a: Fraction, b: Fraction, c: Fraction, n: int) -> int:
    """Sign of (a^(1/n) + b^(1/n)) - c^(1/n), each argument nonnegative."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if min(a, b, c) < 0:
        raise ValueError("radicands must be nonnegative")
    if c == 0:
        return 1 if (a > 0 or b > 0) else 0
    if a == 0 and b == 0:
        return -1
    if a == 0:
        return (b > c) - (b < c)
    if b == 0:
        return (a > c) - (a < c)
    ra = rational_nth_root(a / c, n)
    rb = rational_nth_root(b / c, n)
    if ra is not None and rb is not None:
        s = ra + rb
        return (s > 1) - (s < 1)
    prec = 8
    while True:
        lo_a, hi_a = _root_bounds(a, n, prec)
        lo_b, hi_b = _root_bounds(b, n, prec)
        lo_c, hi_c = _root_bounds(c, n, prec)
        if lo_a + lo_b > hi_c:
            return 1
        if hi_a + hi_b < lo_c:
            return -1
        prec *= 2
        if prec > 1 << 14:
            raise InvariantViolation("root comparison failed to separate; "
                                     "unexpected near-equality")
