"""Acceptance gate: every criterion at its exact tolerance.

All comparisons are exact rational equalities or inequalities (zero
tolerance).  Each test prints one PASS line when it completes; run with
`pytest tests/test_acceptance.py -v -s` to see them.  Runtime budgets are
asserted with wall-clock checks.
"""

import itertools
import time
from fractions import Fraction

import pytest

from coconvex.cones import orthant
from coconvex.fitting import fit_homogeneous_pair, stabilized_leading
from coconvex.localalg import (colength, initial_semigroup_ideal, lech_chain,
                               monomial, monomial_ideal, multiplicity,
                               multiplicity_report, mixed_multiplicity,
                               poly_local_ideal)
from coconvex.radicals import compare_root_sum
from coconvex.randgen import InstanceSpec, XorShift64Star, random_monomial_ideal
from coconvex.regions import covol, minkowski_sum, mixed_covol, newton_region
from coconvex.semigroups import (complement_count, ideal_power,
                                 lattice_semigroup, semigroup_ideal,
                                 staircase_region)
from coconvex.suites import (suite_af_covol, suite_bm_covol, suite_bm_mult,
                             suite_lech)

X = monomial(2, (1, 0))
Y2 = monomial(2, (0, 2))
Y3 = monomial(2, (0, 3))


def scale(region, lam):
    """lam * region, built by `newton_region`."""
    return newton_region(region.cone, [[lam * x for x in g] for g in region.generators],
                         region.ell)


def _shoelace(polygon):
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1]):
        total += Fraction(x1) * y2 - Fraction(x2) * y1
    return abs(total) / 2


def _random_corpus(dim, count, seed, bound):
    rng = XorShift64Star(seed)
    seeds = [rng.next_u64() for _ in range(count)]
    return [random_monomial_ideal(
        InstanceSpec(dimension=dim, seed=s, exponent_bound=bound))
        for s in seeds]


@pytest.fixture(scope="module")
def corpus2():
    return _random_corpus(2, 100, 20250810, 8)


@pytest.fixture(scope="module")
def corpus3():
    return _random_corpus(3, 20, 20250811, 4)


def test_criterion_1_regular_ring_sanity():
    started = time.monotonic()
    assert multiplicity(monomial_ideal([(1, 0), (0, 1)])) == 1
    assert multiplicity(monomial_ideal([(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 1
    m2 = semigroup_ideal(lattice_semigroup(orthant(2)), [(1, 0), (0, 1)])
    m3 = semigroup_ideal(lattice_semigroup(orthant(3)),
                         [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for k in range(1, 21):
        assert complement_count(ideal_power(m2, k)) == k * (k + 1) // 2
        assert complement_count(ideal_power(m3, k)) == \
            k * (k + 1) * (k + 2) // 6
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 regular-ring sanity: PASS ({elapsed:.2f}s)")


def test_criterion_2_monomial_main_theorem(corpus2, corpus3):
    started = time.monotonic()
    for ideal in corpus2 + corpus3:
        n = ideal.n
        target = covol(staircase_region(ideal.staircase))
        fit = stabilized_leading(
            lambda k: complement_count(ideal_power(ideal.staircase, k)),
            n, max_k=64)
        assert fit is not None, ideal.staircase.min_generators
        assert fit[0] == target, ideal.staircase.min_generators
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2 monomial main theorem "
          f"({len(corpus2)}+{len(corpus3)} ideals): PASS ({elapsed:.1f}s)")


def test_criterion_3_worked_values():
    assert multiplicity(monomial_ideal([(2, 0), (0, 2)])) == 4
    assert multiplicity(monomial_ideal([(3, 0), (1, 1), (0, 2)])) == 5
    assert colength(monomial_ideal([(2, 0), (0, 2)])) == 4
    # independent oracles committed here: shoelace areas of the complement
    # polygons and the direct lattice count of the staircase complement
    assert _shoelace([(0, 0), (3, 0), (1, 1), (0, 2)]) == Fraction(5, 2)
    box = [(x, y) for x in range(2) for y in range(2)]
    assert len(box) == 4  # complement of (x^2, y^2)
    r1 = newton_region(orthant(2), [(1, 0), (0, 1)], (1, 1))
    r2 = newton_region(orthant(2), [(2, 0), (0, 2)], (1, 1))
    summed = minkowski_sum(r1, r2)
    assert covol(summed) == Fraction(9, 2)
    assert covol(summed) == _shoelace([(0, 0), (3, 0), (0, 3)])
    assert mixed_covol([r1, r2]) == 1
    assert mixed_multiplicity([monomial_ideal([(1, 0), (0, 1)]),
                               monomial_ideal([(2, 0), (0, 2)])]) == 2
    print("ACCEPTANCE 3 worked values: PASS")


def test_criterion_4_inequality_suites():
    started = time.monotonic()
    for dim, bound, count in ((2, 6, 100), (3, 4, 20)):
        spec = InstanceSpec(dimension=dim, seed=1000 + dim,
                            exponent_bound=bound)
        for fn in (suite_bm_covol, suite_af_covol, suite_bm_mult, suite_lech):
            report = fn(spec, count)
            assert report.passed, (fn.__name__, dim, report.violations[:1])
    # equality on homothetic pairs is detected exactly
    for dim in (2, 3):
        spec = InstanceSpec(dimension=dim, seed=77, exponent_bound=3)
        base = random_monomial_ideal(spec)
        region = staircase_region(base.staircase)
        doubled = scale(region, 2)
        total = minkowski_sum(region, doubled)
        assert compare_root_sum(covol(region), covol(doubled),
                                covol(total), dim) == 0
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 inequality suites: PASS ({elapsed:.1f}s)")


def test_criterion_5_initial_ideal_engine():
    started = time.monotonic()
    a = poly_local_ideal([X + Y2, Y3])
    assert colength(a) == 3
    assert initial_semigroup_ideal(a, 1).min_generators == ((0, 3), (1, 0))
    report = multiplicity_report(a, 6)  # raises MonotonicityViolation on bug
    assert report.u_values[0] == 3
    chain = lech_chain(a)
    assert (chain.e_upper, chain.e_in, chain.bound) == (3, 3, 6)
    assert chain.holds
    for u1, u2 in zip(report.u_values, report.u_values[1:]):
        assert u2 <= u1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 initial-ideal engine: PASS ({elapsed:.1f}s)")


def test_criterion_6_polynomiality():
    started = time.monotonic()
    rng = XorShift64Star(606060)
    pairs_checked = 0
    for _ in range(20):
        seed_a, seed_b = rng.next_u64(), rng.next_u64()
        a = random_monomial_ideal(InstanceSpec(dimension=2, seed=seed_a,
                                               exponent_bound=5))
        b = random_monomial_ideal(InstanceSpec(dimension=2, seed=seed_b,
                                               exponent_bound=5))
        ra = staircase_region(a.staircase)
        rb = staircase_region(b.staircase)
        unit = newton_region(ra.cone, [(0, 0)], ra.ell)
        covol_grid, mult_grid = {}, {}
        sg = a.staircase.semigroup
        origin = semigroup_ideal(sg, [(0, 0)])
        for l1, l2 in itertools.product(range(4), repeat=2):
            left = unit if l1 == 0 else scale(ra, l1)
            right = unit if l2 == 0 else scale(rb, l2)
            covol_grid[(l1, l2)] = covol(minkowski_sum(left, right))
            r1 = staircase_region(ideal_power(a.staircase, l1) if l1 else origin)
            r2 = staircase_region(ideal_power(b.staircase, l2) if l2 else origin)
            mult_grid[(l1, l2)] = covol(minkowski_sum(r1, r2))
        for grid in (covol_grid, mult_grid):
            coeffs, residual_zero = fit_homogeneous_pair(grid, 2)
            assert residual_zero
            assert coeffs is not None
        assert covol_grid == mult_grid
        pairs_checked += 1
    assert pairs_checked == 20
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE 6 polynomiality grids: PASS ({elapsed:.1f}s)")


def test_criterion_7_cross_path_consistency(corpus2, corpus3):
    started = time.monotonic()
    for ideal in corpus2 + corpus3:
        n = ideal.n
        gens = ideal.staircase.min_generators
        as_polys = poly_local_ideal([monomial(n, g) for g in gens])
        assert colength(as_polys) == complement_count(ideal.staircase), gens
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE 7 cross-path colength "
          f"({len(corpus2) + len(corpus3)} ideals): PASS ({elapsed:.1f}s)")


def test_criterion_8_superadditivity_additivity():
    started = time.monotonic()
    rng = XorShift64Star(808080)
    for _ in range(20):
        a = random_monomial_ideal(InstanceSpec(dimension=2,
                                               seed=rng.next_u64(),
                                               exponent_bound=6))
        b = random_monomial_ideal(InstanceSpec(dimension=2,
                                               seed=rng.next_u64(),
                                               exponent_bound=6))
        from coconvex.localalg import product_ideal
        from coconvex.semigroups import sum_ideals
        ab = product_ideal(a, b)
        lhs = staircase_region(ab.staircase)
        rhs = minkowski_sum(staircase_region(a.staircase),
                            staircase_region(b.staircase))
        assert lhs.facets == rhs.facets
    # polynomial corpus: initial staircases satisfy I(a) + I(b) inside I(ab)
    from coconvex.localalg import product_ideal
    from coconvex.semigroups import sum_ideals
    x, y = monomial(2, (1, 0)), monomial(2, (0, 1))
    x2, y4 = monomial(2, (2, 0)), monomial(2, (0, 4))
    corpus = [
        (poly_local_ideal([X + Y2, Y3]), poly_local_ideal([x2, Y2])),
        (poly_local_ideal([x + y, Y2]), poly_local_ideal([X + Y2, Y3])),
        (poly_local_ideal([x2 + Y3, y4]), poly_local_ideal([x, y])),
    ]
    for pa, pb in corpus:
        ia = initial_semigroup_ideal(pa, 1)
        ib = initial_semigroup_ideal(pb, 1)
        iab = initial_semigroup_ideal(product_ideal(pa, pb), 1)
        for g in sum_ideals(ia, ib).min_generators:
            assert iab.contains(g)
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE 8 additivity/superadditivity: PASS ({elapsed:.1f}s)")
