"""Exact polynomial fitting."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coconvex.cones import dual_description
from coconvex.errors import SingularSystem
from coconvex.fitting import fit_polynomial, stabilized_leading
from coconvex.localalg import monomial_ideal
from coconvex.semigroups import complement_count, ideal_power


def test_fit_polynomial_repeated_nodes_raise():
    with pytest.raises(SingularSystem):
        fit_polynomial([1, 1], [0, 1])


def windowed_reference(values_fn, degree, max_k=64):
    """Reference stabilised fit: solve for the coefficients of each window
    k = K..K+degree with `fit_polynomial` and evaluate them in `Fraction`,
    under the window, two-in-a-row and far-point rules."""
    def evaluate(coeffs, k):
        return sum(c * Fraction(k) ** j for j, c in enumerate(coeffs))

    lead_prev = None
    for start in range(1, max_k - degree):
        ks = list(range(start, start + degree + 1))
        coeffs = fit_polynomial(ks, [values_fn(k) for k in ks])
        if evaluate(coeffs, start + degree + 1) != values_fn(start + degree + 1):
            lead_prev = None
            continue
        lead = coeffs[-1]
        if lead_prev != lead:
            lead_prev = lead
            continue
        far = 2 * (start + degree + 1)
        if far + degree > max_k:
            return None
        if all(evaluate(coeffs, f) == values_fn(f)
               for f in range(far, far + degree + 1)):
            return lead, start - 1
    return None


def _agree(values_fn, degree, max_k=64):
    """Both fits on one memoized sequence: the same result, and the
    reference asks for no value the fit did not.  Returns the fit and the
    sorted indices it asked for."""
    memo = {}

    def value(k):
        if k not in memo:
            memo[k] = values_fn(k)
        return memo[k]

    fit = stabilized_leading(value, degree, max_k)
    asked = sorted(memo)
    assert fit == windowed_reference(value, degree, max_k)
    assert sorted(memo) == asked
    return fit, asked


def _bench_workloads():
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name, count", [("staircase-fit", 15),
                                         ("skew-staircase", 18)])
def test_stabilized_leading_matches_reference_on_bench_sequences(name, count):
    """H(k) of the benchmark's first seed-1 staircases, 2-D and 3-D."""
    workload = _bench_workloads()[name]
    for index in range(count):
        inp = workload.make(1, index, None)
        cone = dual_description(inp["rays"]) if inp["rays"] else None
        ideal = monomial_ideal(inp["gens"], cone=cone)
        fit, _ = _agree(lambda k: complement_count(ideal_power(ideal.staircase, k)),
                        ideal.n)
        assert fit is not None


def test_stabilized_leading_matches_reference_on_fractions():
    """A Fraction-valued sequence, polynomial only from k = 9 on, whose
    transient is a polynomial with another lead: it passes the two-in-a-row
    rule and fails the far points."""
    def value(k):
        base = Fraction(3 * k * k - k, 4) + Fraction(1, 7)
        return base if k >= 9 else base - Fraction(k * k, 5)
    assert _agree(value, 2)[0] == (Fraction(3, 4), 9)
    assert _agree(lambda k: k * value(k), 3)[0] == (Fraction(3, 4), 9)
    # A spike right after a window whose prediction held: the next window
    # must predict it too, although the far points would pass.
    assert _agree(lambda k: Fraction(k, 3) + (k == 4), 1)[0] == (Fraction(1, 3), 5)


def test_stabilized_leading_matches_reference_to_max_k():
    """A quasi-polynomial of period 2 never stabilises: both give None
    after asking for every value up to max_k."""
    fit, asked = _agree(lambda k: k * k + k % 2, 2, max_k=40)
    assert fit is None and asked[-1] == 40
