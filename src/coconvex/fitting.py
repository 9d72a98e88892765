"""Exact polynomial fitting used by limit-theorem and polynomiality checks."""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularSystem
from .linalg import solve


def fit_polynomial(ks, values):
    """Coefficients (c_0, ..., c_d) of the unique poly through distinct nodes."""
    d = len(ks) - 1
    rows = [[Fraction(k) ** j for j in range(d + 1)] for k in ks]
    coeffs = solve(rows, [Fraction(v) for v in values])
    if coeffs is None:
        raise SingularSystem(f"nodes {list(ks)} do not determine a "
                             f"polynomial of degree {d}")
    return coeffs


def _poly_eval(coeffs, k):
    return sum(c * Fraction(k) ** j for j, c in enumerate(coeffs))


def stabilized_leading(values_fn, degree: int, max_k: int = 64):
    """Leading coefficient of an eventually-polynomial integer sequence.

    `values_fn(k)` returns the exact sequence value (memoized here).  A
    window fit through k = K..K+degree must predict K+degree+1, do so for
    two consecutive K with the same leading coefficient, and then match
    the sequence exactly at degree+1 far points starting at 2(K+degree+1).
    Once the sequence is truly polynomial the far check always passes;
    before that, a wrong fitted polynomial can agree with the true one in
    at most `degree` points, so the confirmation rejects plateau artifacts
    (quasi-polynomial transients fool the bare two-in-a-row rule).

    Returns (lead, K) or None when max_k is reached without confirmation.
    """
    memo = {}

    def value(k):
        if k not in memo:
            memo[k] = values_fn(k)
        return memo[k]

    lead_prev = None
    for start in range(1, max_k - degree):
        ks = list(range(start, start + degree + 1))
        coeffs = fit_polynomial(ks, [value(k) for k in ks])
        if _poly_eval(coeffs, start + degree + 1) != value(start + degree + 1):
            lead_prev = None
            continue
        lead = coeffs[-1]
        if lead_prev != lead:
            lead_prev = lead
            continue
        far = 2 * (start + degree + 1)
        if far + degree > max_k:
            return None
        if all(_poly_eval(coeffs, f) == value(f)
               for f in range(far, far + degree + 1)):
            return lead, start - 1
    return None


def fit_homogeneous_pair(values: dict, degree: int):
    """Exact homogeneous degree-d fit of a two-parameter grid.

    `values` maps (k1, k2) to exact numbers.  Solves for the d+1
    coefficients of sum(c_i * k1^(d-i) * k2^i) from any full-rank subset
    and returns (coeffs, residual_zero) where residual_zero reports exact
    agreement on every grid point.
    """
    pts = sorted(values)
    rows = [[Fraction(k1) ** (degree - i) * Fraction(k2) ** i
             for i in range(degree + 1)] for k1, k2 in pts]
    rhs = [Fraction(values[p]) for p in pts]
    coeffs = solve(rows, rhs)
    if coeffs is None:
        return None, False
    residual_zero = all(
        sum(c * row_i for c, row_i in zip(coeffs, row)) == b
        for row, b in zip(rows, rhs))
    return coeffs, residual_zero
