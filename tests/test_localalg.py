"""Lowest-term valuations, truncated echelon, initial ideals, multiplicities."""

import functools
import heapq
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coconvex.errors import NotPrimaryWithinCap, ZeroPolynomial
from coconvex.localalg import (Poly, colength, colength_of_power, bk_report,
                               good_valuation_certificate, hilbert_samuel,
                               initial_semigroup_ideal, lech_chain,
                               mixed_multiplicity, monomial, monomial_ideal,
                               mprimary_exponent, multiplicity,
                               multiplicity_bm_check, multiplicity_report,
                               poly_local_ideal, product_ideal, standard_order,
                               term_order, truncated_echelon, valuation)
from coconvex.semigroups import (complement_count, ideal_power, power_sequence,
                                 product_sequence, staircase_region, sum_ideals)
from coconvex.localalg import _initial_pivots, _points_below
from coconvex.regions import minkowski_sum
from test_linalg import reference_echelon

ORD2 = standard_order(2)
X = monomial(2, (1, 0))
Y = monomial(2, (0, 1))
X2 = monomial(2, (2, 0))
Y2 = monomial(2, (0, 2))
Y3 = monomial(2, (0, 3))


def poly2(coeffs):
    return Poly.from_dict(2, coeffs)


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
    weighted = term_order((2, 3))
    assert weighted.key((1, 1)) > weighted.key((2, 0))  # 5 > 4


def test_mprimary_exponent_examples():
    assert mprimary_exponent([X, Y], ORD2) == 1
    assert mprimary_exponent([X2, Y2], ORD2) == 3
    assert mprimary_exponent([X + Y2, Y3], ORD2) == 3
    with pytest.raises(NotPrimaryWithinCap):
        mprimary_exponent([X], ORD2, cap=6)
    with pytest.raises(ValueError):
        mprimary_exponent([X + monomial(2, (0, 0))], ORD2)


def test_truncated_echelon_examples():
    assert truncated_echelon([X2, Y2], ORD2, 4) == \
        frozenset({(2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)})
    pivots = truncated_echelon([X + Y2, Y3], ORD2, 4)
    assert {(1, 0), (0, 3), (1, 1), (2, 0)} <= pivots
    assert not {(0, 0), (0, 1), (0, 2)} & pivots
    assert truncated_echelon([X], ORD2, 2) == frozenset({(1, 0)})


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
            assert {p for p in wider if a.order.level(p) < d0} == base


def test_initial_ideal_examples():
    a = poly_local_ideal([X + Y2, Y3])
    assert a.m0 == 3
    assert initial_semigroup_ideal(a, 1).min_generators == ((0, 3), (1, 0))
    am = monomial_ideal([(2, 0), (0, 2)])
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
    assert report.fit_stabilized
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


def test_bk_report_examples():
    a = monomial_ideal([(1, 0), (0, 1)])
    b = monomial_ideal([(2, 0), (0, 2)])
    assert bk_report([a, b]).intersection_multiplicity == 2
    assert bk_report([a, a]).intersection_multiplicity == 1
    assert bk_report([b, b]).intersection_multiplicity == 4
    assert "origin" in bk_report([a, b]).statement


def test_lech_chain_examples():
    chain = lech_chain(poly_local_ideal([X + Y2, Y3]))
    assert (chain.e_upper, chain.e_in, chain.bound) == (3, 3, 6)
    assert chain.holds
    chain = lech_chain(monomial_ideal([(2, 0), (0, 2)]))
    assert (chain.e_upper, chain.e_in, chain.bound) == (4, 4, 8)
    assert chain.holds
    chain = lech_chain(monomial_ideal([(1, 0), (0, 1)]))
    assert (chain.e_upper, chain.e_in, chain.bound) == (1, 1, 2)
    assert chain.holds


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
        holds, _ = multiplicity_bm_check(a, b)
        assert holds
    # homothetic pair: equality, e(a^2) = 2^n e(a)
    a = monomial_ideal([(2, 0), (1, 1), (0, 3)])
    a2 = product_ideal(a, a)
    assert multiplicity(a2) == 4 * multiplicity(a)
    holds, equal = multiplicity_bm_check(a, a)
    assert holds and equal


def test_graded_subspace_sequence():
    # The graded sequences a^k and a^k b^k, built from ideal powers and
    # products of ideals.
    a = monomial_ideal([(1, 0), (0, 1)])
    b = monomial_ideal([(2, 0), (0, 2)])
    assert ideal_power(a.staircase, 2).min_generators == ((0, 2), (1, 1), (2, 0))
    prod = product_sequence(power_sequence(a.staircase), power_sequence(b.staircase))
    assert prod.term(1) == product_ideal(a, b).staircase
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
    chain = lech_chain(a, kmax=3)
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
    cert = good_valuation_certificate(ORD2)
    assert cert.r0 == 1
    weighted = term_order((2, 3))
    cert_w = good_valuation_certificate(weighted)
    assert cert_w.r0 == 3
    rng = random.Random(67)
    for _ in range(50):
        f = random_poly(rng)
        v = valuation(f, weighted)
        lv = weighted.level(v)
        k = int(Fraction(lv) / cert_w.r0)
        if k >= 1:
            assert f.min_total_degree() >= k


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


def fraction_truncated_echelon(gens, order, bound):
    ech = FractionEchelon(order)
    for g in gens:
        if g.is_zero:
            continue
        base = order.level(valuation(g, order))
        if base >= bound:
            continue
        for alpha in sorted(_points_below(order.ell, bound - base)):
            row = {}
            for e, c in g.terms:
                shifted = tuple(a + b for a, b in zip(e, alpha))
                if order.level(shifted) < bound:
                    row[shifted] = c
            ech.reduce(row, insert=True)
    return frozenset(ech.pivots)


def fraction_mprimary_exponent(gens, order, cap):
    n = order.n
    for d in range(1, cap + 1):
        ech = FractionEchelon(order)
        for g in gens:
            base = g.min_total_degree()
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


def test_truncated_echelon_matches_dense_elimination():
    rng = random.Random(89)
    for draw in range(60):
        n = 2 if draw % 3 else 3
        order = term_order((1, 2)) if draw % 5 == 1 else standard_order(n)
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
