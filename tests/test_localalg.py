"""Lowest-term valuations, truncated echelon, initial ideals, multiplicities."""

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
from coconvex.regions import minkowski_sum

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
