"""Lowest-term valuations, truncated echelon, initial ideals, multiplicities."""

import functools
import heapq
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coconvex import localalg
from coconvex.cones import orthant
from coconvex.errors import MonotonicityViolation, NotPrimaryWithinCap, ZeroPolynomial
from coconvex.jsonio import poly_ideal_from_json
from coconvex.linalg import dot
from coconvex.localalg import (Poly, colength, colength_of_power,
                               hilbert_samuel, initial_semigroup_ideal, lech_chain,
                               mixed_multiplicity, monomial, monomial_ideal,
                               mprimary_exponent, multiplicity,
                               multiplicity_report,
                               poly_local_ideal, product_ideal, standard_order,
                               term_order, truncated_echelon, valuation)
from coconvex.semigroups import (complement_count, ideal_power,
                                 iter_points_at_level, lattice_semigroup,
                                 semigroup_ideal, staircase_region, sum_ideals)
from coconvex.localalg import (_MonomialTable, _clear_denominators,
                               _initial_pivots, _product_map,
                               _reduction_multiplicity)
from coconvex.radicals import compare_root_sum
from coconvex.regions import minkowski_sum
from coconvex.suites import _lech_poly_corpus
from test_fitting import _bench_workloads
from test_linalg import reference_echelon

ORD2 = standard_order(2)
X = monomial(2, (1, 0))
Y = monomial(2, (0, 1))
X2 = monomial(2, (2, 0))
Y2 = monomial(2, (0, 2))
Y3 = monomial(2, (0, 3))


def poly2(coeffs):
    return Poly.from_dict(2, coeffs)


def min_total_degree(f):
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial")
    return min(sum(e) for e, _ in f.terms)


def random_poly(rng, n=2, max_terms=4, max_exp=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    p = Poly.from_dict(n, terms)
    return p if not p.is_zero else monomial(n, (1,) * n)


def test_valuation_examples():
    assert valuation(X + Y2, ORD2) == (1, 0)
    assert valuation((X + Y2) * Y3, ORD2) == (1, 3)
    assert valuation(poly2({(2, 1): 3, (1, 3): Fraction(-1, 2)}), ORD2) == (2, 1)
    with pytest.raises(ZeroPolynomial):
        valuation(Poly.from_dict(2, {}), ORD2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_valuation_axioms(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    f, g = random_poly(rng), random_poly(rng)
    assert valuation(f * g, ORD2) == tuple(
        a + b for a, b in zip(valuation(f, ORD2), valuation(g, ORD2)))
    s = f + g
    if not s.is_zero:
        vf, vg = valuation(f, ORD2), valuation(g, ORD2)
        vmin = min(vf, vg, key=ORD2.key)
        vs = valuation(s, ORD2)
        assert ORD2.key(vs) >= ORD2.key(vmin)
        if vf != vg:
            assert vs == vmin


def test_one_dimensional_leaves():
    rng = random.Random(9)
    for _ in range(40):
        f = random_poly(rng)
        g = random_poly(rng)
        if valuation(f, ORD2) != valuation(g, ORD2):
            continue
        cf = dict(f.terms)[valuation(f, ORD2)]
        cg = dict(g.terms)[valuation(g, ORD2)]
        lam = -cg / cf
        shifted = g + Poly.from_dict(2, {e: lam * c for e, c in f.terms})
        if shifted.is_zero:
            continue
        assert ORD2.key(valuation(shifted, ORD2)) > ORD2.key(valuation(g, ORD2))


def test_term_order_requires_positive_full_rank():
    with pytest.raises(ValueError):
        term_order((1, 0))
    with pytest.raises(ValueError):
        term_order((1, 1), [(2, 2)])
    with pytest.raises(ValueError):
        term_order((1, 2), [(1, 0, 0)])
    weighted = term_order((2, 3))
    assert weighted.key((1, 1)) > weighted.key((2, 0))  # 5 > 4


def test_mprimary_exponent_examples():
    assert mprimary_exponent([X, Y], ORD2) == 1
    assert mprimary_exponent([X2, Y2], ORD2) == 3
    assert mprimary_exponent([X + Y2, Y3], ORD2) == 3
    with pytest.raises(NotPrimaryWithinCap,
                       match=r"no power m\^d with d <= 6 lies in the ideal"):
        mprimary_exponent([X], ORD2, cap=6)
    with pytest.raises(ValueError):
        mprimary_exponent([X + monomial(2, (0, 0))], ORD2)
    with pytest.raises(ValueError):
        mprimary_exponent([X, Y, monomial(3, (0, 0, 1))], ORD2)


def test_truncated_echelon_examples():
    assert truncated_echelon([X2, Y2], ORD2, 4) == \
        frozenset({(2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)})
    pivots = truncated_echelon([X + Y2, Y3], ORD2, 4)
    assert {(1, 0), (0, 3), (1, 1), (2, 0)} <= pivots
    assert not {(0, 0), (0, 1), (0, 2)} & pivots
    assert truncated_echelon([X], ORD2, 2) == frozenset({(1, 0)})
    # zip-truncating 3-variable generators to a 2-variable order would put
    # the constant (0, 0) among the pivots
    with pytest.raises(ValueError):
        truncated_echelon([monomial(3, (0, 2, 0)), monomial(3, (0, 0, 3))],
                          term_order((1, 2)), 3)


def test_truncated_echelon_cancellation():
    # f = x + y, g = x: reduction of g against f exposes the pivot y
    f = X + Y
    pivots = truncated_echelon([f, X], ORD2, 2)
    assert (0, 1) in pivots and (1, 0) in pivots


def test_echelon_truncation_regression_guard():
    rng = random.Random(31)
    ideals = [
        [X + Y2, Y3],
        [X2 + Y3, monomial(2, (0, 4))],
        [X2 + monomial(2, (1, 1)), Y2],
    ]
    for gens in ideals:
        a = poly_local_ideal(gens)
        d0 = a.m0 * max(a.order.ell)
        base = truncated_echelon(a.generators, a.order, d0)
        for extra in (1, 2):
            wider = truncated_echelon(a.generators, a.order, d0 + extra)
            assert {p for p in wider if dot(a.order.ell, p) < d0} == base


def test_initial_ideal_examples():
    a = poly_local_ideal([X + Y2, Y3])
    assert a.m0 == 3
    assert initial_semigroup_ideal(a, 1).min_generators == ((0, 3), (1, 0))
    am = poly_local_ideal([X2, Y2])
    assert initial_semigroup_ideal(am, 1).min_generators == ((0, 2), (2, 0))
    assert initial_semigroup_ideal(a, 2).min_generators == ((0, 6), (1, 3), (2, 0))


def test_monomial_consistency_initial_ideals():
    rng = random.Random(41)
    for _ in range(6):
        gens = [(rng.randint(1, 4), 0), (0, rng.randint(1, 4)),
                (rng.randint(0, 4), rng.randint(0, 4))]
        gens = [g for g in gens if any(g)]
        am = monomial_ideal(gens)
        as_polys = poly_local_ideal([monomial(2, g) for g in am.staircase.min_generators])
        for k in range(1, 7):
            assert initial_semigroup_ideal(as_polys, k).min_generators == \
                ideal_power(am.staircase, k).min_generators


def test_colength_examples():
    assert colength(monomial_ideal([(1, 0), (0, 1)])) == 1
    assert colength(monomial_ideal([(2, 0), (0, 2)])) == 4
    assert colength(poly_local_ideal([X + Y2, Y3])) == 3


def test_colength_cross_path_consistency():
    rng = random.Random(47)
    for _ in range(10):
        gens = [(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                (rng.randint(0, 5), rng.randint(0, 5))]
        gens = [g for g in gens if any(g)]
        am = monomial_ideal(gens)
        via_staircase = complement_count(am.staircase)
        as_polys = poly_local_ideal([monomial(2, g) for g in am.staircase.min_generators])
        via_echelon = colength(as_polys)
        assert via_staircase == via_echelon


def test_hilbert_samuel_examples():
    assert hilbert_samuel(monomial_ideal([(1, 0), (0, 1)]), 4) == [1, 3, 6, 10]
    m2 = monomial_ideal([(2, 0), (1, 1), (0, 2)])
    assert hilbert_samuel(m2, 3) == [3, 10, 21]
    assert hilbert_samuel(poly_local_ideal([X + Y2, Y3]), 3) == [3, 9, 18]


def test_multiplicity_examples():
    assert multiplicity(monomial_ideal([(1, 0), (0, 1)])) == 1
    assert multiplicity(monomial_ideal([(2, 0), (0, 2)])) == 4
    assert multiplicity(monomial_ideal([(3, 0), (1, 1), (0, 2)])) == 5


def test_multiplicity_report_poly():
    a = poly_local_ideal([X + Y2, Y3])
    report = multiplicity_report(a, 6)
    assert report.u_values[0] == 3
    assert all(u == 3 for u in report.u_values)
    assert report.e_fit == 3
    assert report.e_upper == 3
    assert report.hilbert_values[0] == 3


def test_multiplicity_report_monomial_constant_u():
    # a monomial ideal is its own initial ideal, so u_k is constant
    am = monomial_ideal([(2, 0), (0, 2)])
    as_polys = poly_local_ideal([X2, Y2])
    report = multiplicity_report(as_polys, 4)
    assert all(u == multiplicity(am) for u in report.u_values)


def test_mixed_multiplicity_examples():
    a = monomial_ideal([(1, 0), (0, 1)])
    b = monomial_ideal([(2, 0), (0, 2)])
    assert mixed_multiplicity([b, b]) == 4
    assert mixed_multiplicity([a, b]) == 2
    assert mixed_multiplicity([a, a]) == 1


def test_lech_chain_examples():
    a = poly_local_ideal([X + Y2, Y3])
    chain = lech_chain(a)
    assert (chain.e_upper, chain.e_in, chain.bound) == (3, 3, 6)
    assert chain.holds
    # e(in(a)) is read off u_1; an int, as a Fraction would print "3/1"
    assert type(chain.e_in) is int
    assert chain.e_in == localalg._staircase_multiplicity(
        initial_semigroup_ideal(a, 1))
    chain = lech_chain(monomial_ideal([(2, 0), (0, 2)]))
    assert (chain.e_upper, chain.e_in, chain.bound) == (4, 4, 8)
    assert chain.holds
    chain = lech_chain(monomial_ideal([(1, 0), (0, 1)]))
    assert (chain.e_upper, chain.e_in, chain.bound) == (1, 1, 2)
    assert chain.holds


def test_multiplicity_report_u_sequence_may_rise():
    """u_k = e(in(a^k))/k^n need only satisfy u_k <= u_j for divisors j of
    k: here u_5 > u_4, no divisor check fails, and every u_k bounds e(a),
    so e_upper is the least of them."""
    a = poly_local_ideal([monomial(2, (2, 0), Fraction(2, 3)) + Y3,
                          monomial(2, (1, 2)) + monomial(2, (0, 4), Fraction(-1, 2))],
                         order=term_order((2, 3)))
    u_values = tuple(localalg._u_values(a, 5))
    assert u_values == (9, 8, 8, Fraction(59, 8), Fraction(186, 25))
    assert min(u_values) == Fraction(59, 8) < u_values[-1]


def test_multiplicity_report_checks_divisors(monkeypatch):
    """u_3 > u_2 is allowed, but u_4 > u_2 breaks the divisor bound."""
    e_in = iter([9, 7 * 4, 8 * 9, Fraction(15, 2) * 16])
    monkeypatch.setattr(localalg, "_plane_multiplicity",
                        lambda points: next(e_in))
    with pytest.raises(MonotonicityViolation, match="divisor 2"):
        multiplicity_report(poly_local_ideal([X + Y2, Y3]), 4)


# (x^2 + y^3/2, xy, y^4): e(a) = 5 below u_k = 6, 11/2, 16/3, 21/4
STRICT = [X2 + monomial(2, (0, 3), Fraction(1, 2)), X * Y, monomial(2, (0, 4))]


POWER_CACHES = (localalg._initial_pivots, localalg._product_map,
                localalg._monomial_table)


def clear_power_caches():
    for cached in POWER_CACHES:
        cached.cache_clear()


def test_lech_chain_checks_first_link(monkeypatch):
    """u_2 = 19/4 below e(a) = 5 breaks e(a) <= e_upper, though
    e(a) <= e_in still holds; the chain stops at u_2."""
    e_in = iter([6, 19])
    monkeypatch.setattr(localalg, "_plane_multiplicity",
                        lambda points: next(e_in))
    chain = lech_chain(poly_local_ideal(STRICT))
    assert (chain.e_upper, chain.e_in, chain.holds) == (Fraction(19, 4), 6, False)


def test_lech_chain_stops_at_the_least_u(monkeypatch):
    """The early stop against every u_k, k <= 4, from cleared caches; and
    the powers it asks for: none past a^1 when e(a) = e(in(a)), all four
    when every u_k stays above e(a)."""
    ideals = reduction_corpus()
    ideals += [poly_local_ideal(gens, term_order((2, 3)))
               for gens in far_power_corpus(random.Random(7))]
    ideals.append(poly_local_ideal(
        [monomial(2, (2, 0), Fraction(2, 3)) + Y3,
         monomial(2, (1, 2)) + monomial(2, (0, 4), Fraction(-1, 2))],
        order=term_order((2, 3))))
    for a in ideals:
        clear_power_caches()
        e_upper = lech_chain(a).e_upper
        clear_power_caches()
        assert e_upper == min(localalg._u_values(a, 4)), a.generators
    asked = []
    real = localalg._initial_pivots

    def counted(a, k):
        asked.append(k)
        return real(a, k)

    monkeypatch.setattr(localalg, "_initial_pivots", counted)
    x, y, z = (monomial(3, (8 * (i == j) for j in range(3))) for i in range(3))
    for gens, powers in (([X + Y2, Y3], {1}), ([x, y, z], {1}),
                         (STRICT, {1, 2, 3, 4})):
        clear_power_caches()
        del asked[:]
        lech_chain(poly_local_ideal(gens))
        assert set(asked) == powers, gens


def test_u_sequence_non_increasing_corpus():
    for gens in ([X + Y2, Y3], [X2 + Y3, monomial(2, (0, 4))],
                 [X + Y, Y2], [X2 + monomial(2, (1, 1), Fraction(1, 3)), Y3]):
        a = poly_local_ideal(gens)
        report = multiplicity_report(a, 6)
        for u1, u2 in zip(report.u_values, report.u_values[1:]):
            assert u2 <= u1


def test_superadditivity_staircase_containment():
    corpus = [
        ([X + Y2, Y3], [X2, Y2]),
        ([X + Y, Y2], [X + Y2, Y3]),
        ([X2 + Y3, monomial(2, (0, 4))], [X, Y]),
    ]
    for gens_a, gens_b in corpus:
        a, b = poly_local_ideal(gens_a), poly_local_ideal(gens_b)
        ia = initial_semigroup_ideal(a, 1)
        ib = initial_semigroup_ideal(b, 1)
        iab = initial_semigroup_ideal(product_ideal(a, b), 1)
        summed = sum_ideals(ia, ib)
        for g in summed.min_generators:
            assert iab.contains(g)


def test_monomial_region_additivity():
    rng = random.Random(59)
    for _ in range(8):
        gens_a = [(rng.randint(1, 4), 0), (0, rng.randint(1, 4)),
                  (rng.randint(0, 4), rng.randint(0, 4))]
        gens_b = [(rng.randint(1, 4), 0), (0, rng.randint(1, 4)),
                  (rng.randint(0, 4), rng.randint(0, 4))]
        a = monomial_ideal([g for g in gens_a if any(g)])
        b = monomial_ideal([g for g in gens_b if any(g)])
        ab = product_ideal(a, b)
        lhs = staircase_region(ab.staircase)
        rhs = minkowski_sum(staircase_region(a.staircase),
                            staircase_region(b.staircase))
        assert lhs.facets == rhs.facets


def test_bm_multiplicity_monomial_pairs():
    rng = random.Random(61)
    for _ in range(15):
        gens_a = [(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                  (rng.randint(0, 5), rng.randint(0, 5))]
        gens_b = [(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                  (rng.randint(0, 5), rng.randint(0, 5))]
        a = monomial_ideal([g for g in gens_a if any(g)])
        b = monomial_ideal([g for g in gens_b if any(g)])
        sign = compare_root_sum(multiplicity(a), multiplicity(b),
                                multiplicity(product_ideal(a, b)), 2)
        assert sign >= 0
    # homothetic pair: equality, e(a^2) = 2^n e(a)
    a = monomial_ideal([(2, 0), (1, 1), (0, 3)])
    a2 = product_ideal(a, a)
    assert multiplicity(a2) == 4 * multiplicity(a)
    sign = compare_root_sum(multiplicity(a), multiplicity(a), multiplicity(a2), 2)
    assert sign == 0  # holds, with equality


def test_graded_subspace_sequence():
    # The graded sequences a^k and a^k b^k, built from ideal powers and
    # products of ideals.
    a = monomial_ideal([(1, 0), (0, 1)])
    b = monomial_ideal([(2, 0), (0, 2)])
    assert ideal_power(a.staircase, 2).min_generators == ((0, 2), (1, 1), (2, 0))
    assert sum_ideals(a.staircase, b.staircase) == product_ideal(a, b).staircase
    ap = poly_local_ideal([X + Y2, Y3])
    sq = product_ideal(ap, ap)
    assert sq.m0 == 2 * ap.m0
    assert colength_of_power(ap, 2) == colength(sq)


def test_three_variable_polynomial_pipeline():
    # a = (x + yz, y^2, z^3): substituting x -> -yz identifies R/a with
    # k[y,z]/(y^2, z^3), so the colength is 6; the initial ideal is the
    # parameter staircase (x, y^2, z^3) with the same multiplicity.
    x = monomial(3, (1, 0, 0))
    yz = monomial(3, (0, 1, 1))
    y2 = monomial(3, (0, 2, 0))
    z3 = monomial(3, (0, 0, 3))
    a = poly_local_ideal([x + yz, y2, z3])
    assert colength(a) == 6
    assert initial_semigroup_ideal(a, 1).min_generators == \
        ((0, 0, 3), (0, 2, 0), (1, 0, 0))
    assert hilbert_samuel(a, 4) == [k * (k + 1) * (k + 2) for k in range(1, 5)]
    chain = lech_chain(a)
    assert (chain.e_upper, chain.e_in, chain.bound) == (6, 6, 36)
    assert chain.holds
    report = multiplicity_report(a, 3)
    assert all(u == 6 for u in report.u_values)
    # the default budget stays responsive in 3 variables: the deep far
    # confirmation is not attempted, so no exactness is claimed
    assert report.e_fit is None or report.e_fit == 6


def test_four_dimensional_monomial_sanity():
    m4 = monomial_ideal([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert multiplicity(m4) == 1
    doubled = monomial_ideal([(2, 0, 0, 0), (0, 2, 0, 0),
                              (0, 0, 2, 0), (0, 0, 0, 2)])
    assert multiplicity(doubled) == 16
    assert colength(doubled) == 16
    # multilinearity: the doubled staircase is the scaled unit staircase
    assert mixed_multiplicity([m4, m4, m4, doubled]) == 2
    assert hilbert_samuel(m4, 3) == [1, 5, 15]


def test_good_valuation_certificate():
    """level(v(f)) >= k r0 with r0 = max(ell) forces every term of f to
    total degree >= k: the truncation level of the echelon rests on it."""
    weighted = term_order((2, 3))
    r0 = max(weighted.ell)
    rng = random.Random(67)
    for _ in range(50):
        f = random_poly(rng)
        v = valuation(f, weighted)
        k = dot(weighted.ell, v) // r0
        if k >= 1:
            assert min_total_degree(f) >= k


def test_weighted_order_initial_ideal():
    # order with ell = (2,3): v(x^3 + y^2) is (0,2) since 6 = 6 ties broken
    # lexicographically by the first refinement row (x first): key(3,0) =
    # (6,3) vs key(0,2) = (6,0), so (0,2) is smaller.
    w = term_order((2, 3))
    f = monomial(2, (3, 0)) + Y2
    assert valuation(f, w) == (0, 2)
    a = poly_local_ideal([f, monomial(2, (4, 0))], order=w)
    st_1 = initial_semigroup_ideal(a, 1)
    assert st_1.contains((0, 2))
    assert colength(a) == complement_count(st_1)


# ---------------------------------------------------------------------------
# Reference: the Fraction echelon the integer kernel replaced
# ---------------------------------------------------------------------------

class FractionEchelon:
    """Sparse Gaussian elimination over Fraction with monic pivot rows."""

    def __init__(self, order):
        self.order = order
        self.pivots = {}

    def reduce(self, row, insert):
        heap = [(self.order.key(e), e) for e in row]
        heapq.heapify(heap)
        while heap:
            _, e = heapq.heappop(heap)
            if e not in row:
                continue
            prow = self.pivots.get(e)
            if prow is None:
                if insert:
                    c = row[e]
                    self.pivots[e] = {k: v / c for k, v in row.items()}
                return e
            c = row[e]
            for k, v in prow.items():
                old = row.get(k)
                new = (old if old is not None else Fraction(0)) - c * v
                if new == 0:
                    if old is not None:
                        del row[k]
                else:
                    if old is None:
                        heapq.heappush(heap, (self.order.key(k), k))
                    row[k] = new
        return None


def _points_below(weights, bound):
    """Exponents alpha with weights . alpha < bound (orthant DFS)."""
    n = len(weights)

    def rec(prefix, idx, budget):
        if idx == n:
            yield prefix
            return
        step = weights[idx]
        for v in range((budget - 1) // step + 1):
            yield from rec(prefix + (v,), idx + 1, budget - v * step)

    if bound > 0:
        yield from rec((), 0, bound)


class ExponentEchelon:
    """Integer elimination keyed by exponent tuples, independent of the
    numbered monomial table: the heap compares `order.key` tuples.

    A row is divided by its content when it becomes a pivot row; reducing r
    by the pivot row p at e sets r to (p[e]/g) r - (r[e]/g) p with
    g = gcd(r[e], p[e]).
    """

    def __init__(self, order):
        self.order = order
        self.pivots = {}

    def reduce(self, row, insert):
        heap = [(self.order.key(e), e) for e in row]
        heapq.heapify(heap)
        while heap:
            _, e = heapq.heappop(heap)
            if e not in row:
                continue
            prow = self.pivots.get(e)
            if prow is None:
                if insert:
                    content = math.gcd(*row.values())
                    if row[e] < 0:
                        content = -content
                    self.pivots[e] = {k: v // content for k, v in row.items()}
                return e
            g = math.gcd(row[e], prow[e])
            scale, c = prow[e] // g, row[e] // g
            if scale != 1:
                for k in row:
                    row[k] *= scale
            for k, v in prow.items():
                old = row.get(k)
                if old is None:
                    heapq.heappush(heap, (self.order.key(k), k))
                    row[k] = -c * v
                else:
                    new = old - c * v
                    if new:
                        row[k] = new
                    else:
                        del row[k]
        return None


def shift_echelon(gens, order, bound):
    """Reference truncated echelon: the exponent-keyed integer elimination
    fed every x^alpha * g whose lowest term lies below `bound`, cut there."""
    ech = ExponentEchelon(order)
    for g in (_clear_denominators(g) for g in gens if not g.is_zero):
        terms = [(e, c, dot(order.ell, e)) for e, c in g.terms]
        base = min(w for _, _, w in terms)
        for alpha in sorted(_points_below(order.ell, bound - base)):
            room = bound - dot(order.ell, alpha)
            ech.reduce({tuple(map(operator.add, e, alpha)): c
                        for e, c, w in terms if w < room}, insert=True)
    return frozenset(ech.pivots)


def fraction_truncated_echelon(gens, order, bound):
    ech = FractionEchelon(order)
    for g in gens:
        if g.is_zero:
            continue
        base = dot(order.ell, valuation(g, order))
        if base >= bound:
            continue
        for alpha in sorted(_points_below(order.ell, bound - base)):
            row = {}
            for e, c in g.terms:
                shifted = tuple(a + b for a, b in zip(e, alpha))
                if dot(order.ell, shifted) < bound:
                    row[shifted] = c
            ech.reduce(row, insert=True)
    return frozenset(ech.pivots)


def fraction_mprimary_exponent(gens, order, cap):
    n = order.n
    for d in range(1, cap + 1):
        ech = FractionEchelon(order)
        for g in gens:
            base = min_total_degree(g)
            if base > d:
                continue
            for alpha in sorted(_points_below((1,) * n, d - base + 1)):
                row = {}
                for e, c in g.terms:
                    shifted = tuple(a + b for a, b in zip(e, alpha))
                    if sum(shifted) <= d:
                        row[shifted] = c
                ech.reduce(row, insert=True)
        if all(ech.reduce({beta: Fraction(1)}, insert=False) is None
               for beta in _points_below((1,) * n, d + 1) if sum(beta) == d):
            return d
    return None


def dense_truncated_echelon(gens, order, bound):
    """Pivots of a dense elimination over every monomial below `bound`."""
    cols = sorted(_points_below(order.ell, bound), key=order.key)
    index = {e: j for j, e in enumerate(cols)}
    rows = []
    for g in gens:
        for alpha in _points_below(order.ell, bound):
            row = [0] * len(cols)
            for e, c in g.terms:
                shifted = tuple(a + b for a, b in zip(e, alpha))
                if shifted in index:
                    row[index[shifted]] = c
            rows.append(row)
    return frozenset(cols[j] for j, _ in reference_echelon(rows))


def same_level_poly(rng, n):
    """2-4 terms, most at one level, leading coefficients other than +-1."""
    level = rng.randint(1, 3)
    terms = {}
    for i in range(rng.randint(2, 4)):
        top = level + (i == 3 or rng.random() < 0.25)
        cut = sorted(rng.randint(0, top) for _ in range(n - 1))
        exp = tuple(b - a for a, b in zip([0] + cut, cut + [top]))
        num = rng.choice([-7, -5, -3, -2, 2, 3, 5, 7])
        terms[exp] = Fraction(num, rng.randint(1, 4))
    return Poly.from_dict(n, terms)


def mprimary_or_none(gens, order, cap):
    try:
        return mprimary_exponent(gens, order, cap)
    except NotPrimaryWithinCap:
        return None


WITNESS = [poly2({(0, 2): -2, (1, 1): 7, (2, 0): Fraction(-3, 2)}),
           poly2({(0, 1): Fraction(2, 3), (1, 2): 2, (2, 1): Fraction(-5, 3)})]
WITNESS_PIVOTS = frozenset({(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 0),
                            (2, 1), (3, 0)})


def test_integer_echelon_witness():
    # Reducing without first scaling the row by p[e]/g leaves a stale
    # pivot term behind; on these generators that changes the pivots.
    pivots = truncated_echelon(WITNESS, ORD2, 4)
    assert pivots == fraction_truncated_echelon(WITNESS, ORD2, 4)
    assert pivots == WITNESS_PIVOTS


def test_integer_echelon_matches_fraction_oracle():
    rng = random.Random(83)
    orders = {2: [ORD2, term_order((2, 3))], 3: [standard_order(3)]}
    for draw in range(240):
        n = 2 if draw % 3 else 3
        order = rng.choice(orders[n])
        gens = [same_level_poly(rng, n) for _ in range(rng.randint(2, 3))]
        bound = rng.randint(3, 6 if n == 2 else 4) * max(order.ell)
        assert truncated_echelon(gens, order, bound) == \
            fraction_truncated_echelon(gens, order, bound), (gens, bound)
        if draw % 4 == 0:
            cap = 6 if n == 2 else 4
            assert mprimary_or_none(gens, order, cap) == \
                fraction_mprimary_exponent(gens, order, cap), gens
    # m0 of the polynomial-lech shapes under two orders and of a 3-variable
    # ideal, and of each ideal's reduction candidates J under the
    # certificate's cap
    x, y, z = (monomial(3, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    ideals = [(gens, order) for gens in far_power_corpus(random.Random(7))
              for order in (ORD2, term_order((2, 3)))]
    ideals.append(([x + y * z, y * y, z * z * z], standard_order(3)))
    for gens, order in ideals:
        a = poly_local_ideal(gens, order)
        assert a.m0 == fraction_mprimary_exponent(gens, order, 24), gens
        cap = (localalg._REDUCTION_DEPTH + 1) * a.m0
        for t in localalg._REDUCTION_SHIFTS:
            hs = [localalg._combination(gens, i + 2 + t) for i in range(a.n)]
            if any(h.is_zero for h in hs):
                continue
            hs = [_clear_denominators(h) for h in hs]
            assert mprimary_or_none(hs, order, cap) == \
                fraction_mprimary_exponent(hs, order, cap), hs


def test_truncated_echelon_matches_dense_elimination():
    rng = random.Random(89)
    for draw in range(60):
        n = 2 if draw % 3 else 3
        order = (term_order((1, 2) + (1,) * (n - 2)) if draw % 5 == 1
                 else standard_order(n))
        gens = [same_level_poly(rng, n) for _ in range(rng.randint(1, 3))]
        bound = rng.randint(2, 6 if n == 2 else 4)
        assert truncated_echelon(gens, order, bound) == \
            dense_truncated_echelon(gens, order, bound), (gens, bound)


def mprimary_corpus(rng, count):
    ideals = [[X + Y2, Y3], [X2 + Y3, monomial(2, (0, 4))],
              [X2 + monomial(2, (1, 1), Fraction(1, 3)), Y3], WITNESS]
    while len(ideals) < count:
        gens = [same_level_poly(rng, 2) for _ in range(3)]
        if mprimary_or_none(gens, ORD2, 6) is not None:
            ideals.append(gens)
    return ideals


def test_power_pivots_match_fraction_products():
    # in(a^k) from the integer generator products against the Fraction
    # echelon of the Poly products
    for gens in mprimary_corpus(random.Random(101), 10):
        a = poly_local_ideal(gens)
        for k in (2, 3):
            products = [functools.reduce(operator.mul, combo) for combo in
                        itertools.combinations_with_replacement(gens, k)]
            pivots, d0 = _initial_pivots(a, k)
            assert pivots == fraction_truncated_echelon(products, a.order, d0)


def far_power_corpus(rng):
    """Two seeded ideals of each polynomial-lech shape: (x^3, y^2, y^2 +
    c x^i y^(2-i)), (x^a + tail, y^b + tail) and (x^2, y^3, y^3 + c x y^2)."""
    def coeff():
        return Fraction(rng.choice([-5, -3, -2, 2, 3, 5]), rng.randint(1, 4))

    def term(exp):
        return monomial(2, exp, coeff())

    ideals = []
    for _ in range(2):
        i = rng.choice((1, 2))
        ideals.append([term((3, 0)), term((0, 2)),
                       term((0, 2)) + term((i, 2 - i))])
        a, b = rng.choice([(1, 2), (2, 1)])
        tails = []
        for lead in ((a, 0), (0, b)):
            degree = sum(lead) + rng.randint(1, 2)
            x = rng.randint(0, degree)
            tails.append(term(lead) + term((x, degree - x)))
        ideals.append(tails)
        ideals.append([term((2, 0)), term((0, 3)),
                       term((0, 3)) + term((1, 2))])
    return ideals


def test_far_power_pivots_match_shift_echelon():
    # the closure echelon against every x^alpha-shift of every product, at
    # the far powers the Lech fit asks for and on a 3-variable ideal
    cases = [(gens, (10, 11, 12)) for gens in far_power_corpus(random.Random(7))]
    x, y, z = (monomial(3, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    cases.append(([x + y * z, y * y, z * z * z], (2, 3)))
    for gens, powers in cases:
        a = poly_local_ideal(gens)
        for k in powers:
            pivots, d0 = _initial_pivots(a, k)
            assert pivots == shift_echelon(_product_map(a, k).values(), a.order, d0), \
                (gens, k)


def test_closure_echelon_work_count(monkeypatch):
    # one reduction per product and per (pivot row, variable) pair;
    # shift_echelon makes 3,731 on this ideal
    a = poly_local_ideal([monomial(2, (3, 0)), Y2,
                          poly2({(0, 2): Fraction(-3, 2), (1, 1): Fraction(5, 4)})])
    calls = []
    real = localalg._reduce

    def counted(pivots, row):
        calls.append(row)
        return real(pivots, row)

    monkeypatch.setattr(localalg, "_reduce", counted)
    pivots, _ = _initial_pivots.__wrapped__(a, 12)
    products = _product_map(a, 12)
    assert (len(pivots), len(products)) == (288, 91)
    assert len(calls) <= a.n * len(pivots) + len(products) == 667
    assert colength_of_power(a, 12) == 378


TABLE_ORDERS = [standard_order(2), term_order((2, 3)), term_order((1, 2, 1)),
                term_order((1, 1, 1), ((0, 0, 1), (1, -1, 0)))]


def table_state(table):
    return table.exps, table.index, table.shifts


@pytest.mark.parametrize("order", TABLE_ORDERS,
                         ids=["11", "23", "121", "111-nonlex"])
def test_monomial_table_prefixes_and_shifts(order):
    table = _MonomialTable(order)
    for bound in range(-1, 31):
        width = table.width(bound)
        assert table.exps[:width] == sorted(_points_below(order.ell, bound),
                                            key=order.key), bound
    assert table.index == {e: v for v, e in enumerate(table.exps)}
    for i, w in enumerate(order.ell):
        shift = table.shifts[i]
        assert len(shift) >= table.width(30 - w)
        for v, s in enumerate(shift):
            e = table.exps[v]
            assert table.exps[s] == e[:i] + (e[i] + 1,) + e[i + 1:]
    # grown in scrambled bound order, the table is the same
    bounds = list(range(31))
    random.Random(len(order.ell) + sum(order.ell)).shuffle(bounds)
    scrambled = _MonomialTable(order)
    for bound in bounds:
        scrambled.width(bound)
    assert table_state(scrambled) == table_state(table)


def test_monomial_table_caps():
    # each cap raises before the table grows: the levels under the weights
    # (10^30, 10^30), whose simplex below 10^30 is small, and the width of
    # the 3-variable table below level 200 (200^3 / 3! > 2^19)
    for order, bound in ((term_order((10 ** 30, 10 ** 30)), 10 ** 30),
                         (standard_order(3), 200)):
        table = _MonomialTable(order)
        with pytest.raises(ValueError, match="passes its cap"):
            table.width(bound)
        assert table.exps == [(0,) * order.n]


def test_colength_matches_level_walk():
    # the table's width below D0 against the orthant level walk it replaced
    for gens in far_power_corpus(random.Random(7)):
        a = poly_local_ideal(gens)
        sg = lattice_semigroup(orthant(a.n), a.order.ell)
        for k in (1, 2, 12):
            pivots, d0 = _initial_pivots(a, k)
            window = sum(1 for level in range(d0)
                         for _ in iter_points_at_level(sg, level))
            assert colength_of_power(a, k) == window - len(pivots), (gens, k)


def test_echelon_scale_invariance():
    factor = Fraction(-7, 997)
    rng = random.Random(97)
    for gens in mprimary_corpus(rng, 12):
        i = rng.randrange(len(gens))
        scaled = list(gens)
        scaled[i] = Poly.from_dict(2, {e: factor * c for e, c in gens[i].terms})
        for bound in (3, 5):
            assert truncated_echelon(scaled, ORD2, bound) == \
                truncated_echelon(gens, ORD2, bound)
        a, b = poly_local_ideal(gens), poly_local_ideal(scaled)
        assert a.m0 == b.m0
        assert colength_of_power(a, 2) == colength_of_power(b, 2)
        assert colength(a) == colength(b)


def reduction_corpus():
    """Seeded ideals of the polynomial-lech shapes and the lech suite's
    polynomial corpus."""
    ideals = [poly_local_ideal(gens) for seed in (7, 11, 13)
              for gens in far_power_corpus(random.Random(seed))]
    return ideals + _lech_poly_corpus()


def test_reduction_multiplicity_matches_fit():
    # every ideal here is certified; a parameter ideal by its own colength
    for a in reduction_corpus():
        e = _reduction_multiplicity(a)
        assert e is not None, a.generators
        e_fit = multiplicity_report(a, 4).e_fit
        if e_fit is not None:
            assert e == e_fit, a.generators


def test_reduction_multiplicity_three_variables():
    x, y, z = (monomial(3, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    # the fit's default depth does not stabilise here; (x^2, y^2, z^2) is
    # a reduction, so e(a) = 8
    a = poly_local_ideal([x * x, y * y, z * z, x * y * z])
    assert multiplicity_report(a, 4).e_fit is None
    assert _reduction_multiplicity(a) == 8
    assert lech_chain(a) == localalg.LechChain(
        e_upper=Fraction(8), e_in=8, bound=42, holds=True)


def test_reduction_fallback_keeps_lech_chain():
    # no candidate closes by r = 2, so lech_chain falls back to the fit,
    # which does not stabilise either; the chain is unchanged
    x, y, z = (monomial(3, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    a = poly_local_ideal([x * x + y * z, y * y, z * z, x * y])
    assert _reduction_multiplicity(a) is None
    assert lech_chain(a) == localalg.LechChain(
        e_upper=Fraction(261, 32), e_in=10, bound=36, holds=True)


def test_reduction_skips_candidate_not_primary(monkeypatch):
    # t = -2 gives h_0 = x^2 and h_1 = x^2 + y^3 + (xy - y^3) = x(x + y),
    # both in (x): J is not m-primary, and the certificate skips it
    a = poly_local_ideal([X2, Y3, X * Y + monomial(2, (0, 3), -1)])
    bad = [localalg._combination(a.generators, base) for base in (0, 1)]
    assert bad == [X2, X2 + X * Y]
    with pytest.raises(NotPrimaryWithinCap):
        mprimary_exponent(bad, a.order, 3 * a.m0)
    monkeypatch.setattr(localalg, "_REDUCTION_SHIFTS", (-2,))
    assert _reduction_multiplicity(a) is None
    monkeypatch.setattr(localalg, "_REDUCTION_SHIFTS", (-2, 0))
    assert _reduction_multiplicity(a) == multiplicity_report(a, 4).e_fit == 5


def test_echelon_matches_dense_on_lech_inputs(monkeypatch):
    # the echelons a lech call builds: powers k <= 2 of the polynomial-lech
    # shapes, and the products J a^r of the reduction certificate
    products = []
    real = localalg.product_ideal

    def recorded(a, b):
        products.append(real(a, b))
        return products[-1]

    monkeypatch.setattr(localalg, "product_ideal", recorded)
    for gens in far_power_corpus(random.Random(7)):
        a = poly_local_ideal(gens)
        for k in (1, 2):
            pivots, d0 = _initial_pivots(a, k)
            assert pivots == dense_truncated_echelon(
                _product_map(a, k).values(), a.order, d0), (gens, k)
        _reduction_multiplicity(a)
    assert products
    for p in products:
        pivots, d0 = _initial_pivots(p, 1)
        assert pivots == dense_truncated_echelon(p.generators, p.order, d0)


def validated_staircase(a, k):
    """in(a^k) along the validating path: every pivot below D0 and the band
    of max(ell) levels above it through `semigroup_ideal`."""
    pivots, d0 = _initial_pivots(a, k)
    table = localalg._monomial_table(a.order)
    band = table.exps[table.width(d0):table.width(d0 + max(a.order.ell))]
    return semigroup_ideal(lattice_semigroup(orthant(a.n), a.order.ell),
                           pivots.union(band))


def test_trusted_staircase_matches_validated_path():
    # the table's exponents go straight to the prune, with the one level
    # D0 above the pivots; under (2, 1) and (1, 3) the oracle's band spans
    # several levels
    ideals = reduction_corpus()
    for ell in ((2, 1), (1, 3)):
        ideals += [poly_local_ideal(gens, term_order(ell))
                   for gens in far_power_corpus(random.Random(17))]
    x, y, z = (monomial(3, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    ideals.append(poly_local_ideal([x + y * z, y * y, z * z * z]))
    for a in ideals:
        for k in range(1, 5):
            assert initial_semigroup_ideal(a, k) == validated_staircase(a, k), \
                (a.generators, a.order.ell, k)


# polynomial-lech indices per seed in the plane differential test; the
# shared-lead shape is every third, so each seed covers all shapes.
PLANE_LECH_INDICES = 96


def test_plane_multiplicity_matches_region_path(tmp_path):
    """e(in(a^k)) off the monotone chain of the pivots and band against
    2 covol of the Newton region of the pruned staircase, k <= 4, under
    weighted and tiebreak orders and on polynomial-lech seeds 1-5 and 977."""
    ideals = reduction_corpus()
    for ell, tiebreak in (((2, 1), None), ((1, 3), None), ((3, 2), None),
                          ((1, 1), [(0, 1)])):
        ideals += [poly_local_ideal(gens, term_order(ell, tiebreak))
                   for gens in far_power_corpus(random.Random(17))]
    workload = _bench_workloads()["polynomial-lech"]
    for seed in (1, 2, 3, 4, 5, 977):
        for index in range(PLANE_LECH_INDICES):
            path = workload.make(seed, index, str(tmp_path))[-1]
            with open(path, encoding="utf-8") as fh:
                ideals.append(poly_ideal_from_json(json.load(fh)))
    for a in ideals:
        for k in range(1, 5):
            assert localalg._plane_multiplicity(localalg._initial_points(a, k)) \
                == localalg._staircase_multiplicity(initial_semigroup_ideal(a, k)), \
                (a.generators, a.order, k)


def test_reduction_certificate_rows_are_integers(monkeypatch):
    # J and every J a^r of the certificate carry int coefficients, and the
    # scaled candidates span the ideal the unscaled ones span
    certified, products, every_j = [], [], []
    real_ideal, real_product = localalg.poly_local_ideal, localalg.product_ideal

    def recorded_ideal(gens, order=None, cap=24):
        certified.append((real_ideal(gens, order, cap), cap))
        return certified[-1][0]

    def recorded_product(a, b):
        products.append(real_product(a, b))
        return products[-1]

    monkeypatch.setattr(localalg, "poly_local_ideal", recorded_ideal)
    monkeypatch.setattr(localalg, "product_ideal", recorded_product)
    for a in reduction_corpus():
        del certified[:]
        _reduction_multiplicity(a)
        for j, cap in certified:
            for t in localalg._REDUCTION_SHIFTS:
                raw = [localalg._combination(a.generators, i + 2 + t)
                       for i in range(a.n)]
                if list(map(_clear_denominators, raw)) == list(j.generators):
                    break
            else:
                pytest.fail(f"no candidate scales to {j.generators}")
            assert colength(real_ideal(raw, a.order, cap)) == colength(j)
        every_j += [j for j, _ in certified]
    assert every_j and products
    for ideal in every_j + products:
        assert all(type(c) is int for g in ideal.generators for _, c in g.terms)


def test_poly_keeps_integral_coefficients_as_int():
    p = Poly.from_dict(2, {(1, 0): Fraction(6, 3), (0, 1): Fraction(1, 3),
                           (2, 0): -4, (0, 2): Fraction(0)})
    assert [(e, type(c)) for e, c in p.terms] == \
        [((0, 1), Fraction), ((1, 0), int), ((2, 0), int)]
    assert p.terms == (((0, 1), Fraction(1, 3)), ((1, 0), 2), ((2, 0), -4))
    two, frac_two = monomial(2, (1, 1), 2), monomial(2, (1, 1), Fraction(2))
    assert two == frac_two and hash(two) == hash(frac_two)
    assert type(frac_two.terms[0][1]) is int
    assert type((X + monomial(2, (1, 0), Fraction(1, 2))).terms[0][1]) is Fraction
