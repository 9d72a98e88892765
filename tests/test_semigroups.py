"""Staircase ideals, Hilbert-Samuel counting, primary sequences."""

import itertools
import random
from fractions import Fraction

import pytest

from coconvex.cones import dual_description, orthant
from coconvex.errors import ConeMismatch, NotPrimary
from coconvex.fitting import stabilized_leading
from coconvex.linalg import vec_sub
from coconvex.regions import covol, minkowski_sum
from coconvex.semigroups import (complement_count, complement_points,
                                 explicit_sequence, gamma_region, hilbert_basis,
                                 hilbert_samuel_sequence, ideal_power,
                                 iter_points_at_level, lattice_semigroup,
                                 level_height, mixed_multiplicity_semigroup,
                                 multiplicity, multiplicity_estimate,
                                 okounkov_data, power_sequence,
                                 primary_certificate, product_sequence,
                                 semigroup_ideal, sequence_t0, staircase_region,
                                 sum_ideals, _complement_scan)

S2 = lattice_semigroup(orthant(2))
S3 = lattice_semigroup(orthant(3))

ORACLE_CONES = [
    orthant(2),
    orthant(3),
    dual_description([(1, 0), (1, 2)]),
    dual_description([(1, 0), (1, 3)]),
    dual_description([(-1, 2), (2, -1)]),
    dual_description([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]),
]


def ideal2(gens):
    return semigroup_ideal(S2, gens)


def all_pairs_prune(cone, points):
    """Reference antichain: drop p when p - q lies in the cone for some q."""
    pts = sorted(set(points))
    return tuple(p for p in pts
                 if not any(q != p and cone.contains(vec_sub(p, q)) for q in pts))


def random_cone_points(rng, cone, count):
    """Nonzero lattice points of the cone drawn from the box [-6, 6]^n."""
    out = []
    while len(out) < count:
        p = tuple(rng.randint(-6, 6) for _ in range(cone.dim))
        if any(p) and cone.contains(p):
            out.append(p)
    return out


def brute_force_power_gens(gens, k):
    """All k-fold sums of generators, pruned by coordinate domination."""
    sums = {tuple(sum(c) for c in zip(*combo))
            for combo in itertools.combinations_with_replacement(gens, k)}
    pruned = set()
    for p in sums:
        if not any(q != p and all(a >= b for a, b in zip(p, q)) for q in sums):
            pruned.add(p)
    return tuple(sorted(pruned))


def brute_force_complement(gens):
    """Direct box enumeration using the pure-power bounds."""
    n = len(gens[0])
    bounds = []
    for i in range(n):
        pures = [g[i] for g in gens if all(g[j] == 0 for j in range(n) if j != i)]
        bounds.append(min(pures))
    out = []
    for p in itertools.product(*(range(b) for b in bounds)):
        if not any(all(x >= g for x, g in zip(p, gen)) for gen in gens):
            out.append(p)
    return sorted(out)


def test_ideal_power_examples():
    assert ideal_power(ideal2([(1, 0), (0, 1)]), 2).min_generators == \
        ((0, 2), (1, 1), (2, 0))
    base = ideal2([(2, 0), (0, 2)])
    assert ideal_power(base, 1) == base
    assert ideal_power(base, 3).min_generators == \
        ((0, 6), (2, 4), (4, 2), (6, 0))


def test_ideal_power_matches_brute_force():
    rng = random.Random(101)
    for _ in range(15):
        gens = [(rng.randint(1, 5), 0), (0, rng.randint(1, 5))]
        gens += [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(3)]
        gens = [g for g in gens if any(g)]
        ideal = ideal2(gens)
        for k in range(1, 5):
            assert ideal_power(ideal, k).min_generators == \
                brute_force_power_gens(ideal.min_generators, k)
    for _ in range(10):
        gens = [(rng.randint(1, 4), 0, 0), (0, rng.randint(1, 4), 0),
                (0, 0, rng.randint(1, 4))]
        gens += [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3)]
        gens = [g for g in gens if any(g)]
        ideal = semigroup_ideal(S3, gens)
        for k in range(1, 4):
            power = ideal_power(ideal, k)
            assert power.min_generators == \
                brute_force_power_gens(ideal.min_generators, k)
            # the orthant slice recursion prunes every slice as well
            assert complement_count(power) == \
                len(brute_force_complement(power.min_generators))


def test_prune_matches_all_pairs_oracle():
    rng = random.Random(2024)
    for cone in ORACLE_CONES:
        sg = lattice_semigroup(cone)
        for _ in range(40):
            gens = random_cone_points(rng, cone, rng.randint(1, 12))
            ideal = semigroup_ideal(sg, gens)
            assert ideal.min_generators == all_pairs_prune(cone, gens)
            for k in range(2, 4):
                sums = {tuple(map(sum, zip(*combo))) for combo in
                        itertools.combinations_with_replacement(gens, k)}
                assert ideal_power(ideal, k).min_generators == \
                    all_pairs_prune(cone, sums)


def test_staircase_membership_consistent_with_sums():
    rng = random.Random(77)
    for _ in range(10):
        gens = [(rng.randint(1, 4), 0), (0, rng.randint(1, 4)),
                (rng.randint(0, 4), rng.randint(0, 4))]
        gens = [g for g in gens if any(g)]
        ideal = ideal2(gens)
        k = rng.randint(1, 4)
        power = ideal_power(ideal, k)
        # brute-force membership: x is a k-sum plus a semigroup element
        for x in itertools.product(range(9), repeat=2):
            direct = power.contains(x)
            brute = any(all(a >= b for a, b in zip(x, s))
                        for s in brute_force_power_gens(ideal.min_generators, k))
            assert direct == brute


def test_complement_count_examples():
    assert complement_count(ideal2([(1, 0), (0, 1)])) == 1
    ideal = ideal2([(3, 0), (1, 1), (0, 2)])
    assert complement_count(ideal) == 4
    assert complement_points(ideal) == ((0, 0), (0, 1), (1, 0), (2, 0))
    doubled = ideal_power(ideal2([(1, 0), (0, 1)]), 2)
    assert complement_count(doubled) == 3
    assert complement_points(doubled) == ((0, 0), (0, 1), (1, 0))


def test_complement_paths_agree():
    rng = random.Random(55)
    for _ in range(20):
        gens = [(rng.randint(1, 6), 0), (0, rng.randint(1, 6)),
                (rng.randint(0, 6), rng.randint(0, 6))]
        gens = [g for g in gens if any(g)]
        ideal = ideal2(gens)
        fast = complement_count(ideal)
        scanned = len(_complement_scan(ideal)[0])
        brute = len(brute_force_complement(ideal.min_generators))
        assert fast == scanned == brute


def test_complement_infinite_raises():
    with pytest.raises(NotPrimary):
        complement_count(ideal2([(2, 1)]))
    with pytest.raises(NotPrimary):
        complement_points(ideal2([(1, 1)]))


def test_hilbert_samuel_closed_forms():
    seq = power_sequence(ideal2([(1, 0), (0, 1)]))
    hs = hilbert_samuel_sequence(seq, 8)
    assert hs == [k * (k + 1) // 2 for k in range(1, 9)]
    assert hs[2] == 6
    seq3 = power_sequence(semigroup_ideal(S3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    hs3 = hilbert_samuel_sequence(seq3, 5)
    assert hs3 == [(k + 2) * (k + 1) * k // 6 for k in range(1, 6)]
    assert hs3[1] == 4
    assert hilbert_samuel_sequence(seq, 1)[0] == complement_count(seq.term(1))


def test_primary_certificate_examples():
    assert primary_certificate(ideal2([(1, 0), (0, 1)])) == 3
    assert primary_certificate(ideal2([(0, 0)])) == 1
    t0 = primary_certificate(ideal2([(2, 0), (0, 2)]))
    assert t0 <= 8


def test_primary_equation_over_window():
    """I_k & {level >= k t0} = S & {level >= k t0} pointwise."""
    rng = random.Random(13)
    for _ in range(6):
        gens = [(rng.randint(1, 3), 0), (0, rng.randint(1, 3)),
                (rng.randint(0, 3), rng.randint(0, 3))]
        gens = [g for g in gens if any(g)]
        ideal = ideal2(gens)
        t0 = primary_certificate(ideal)
        for k in range(1, 9):
            power = ideal_power(ideal, k)
            start = int(k * t0)
            for level in range(start, start + 4):
                for x in iter_points_at_level(S2, level):
                    assert power.contains(x), (gens, k, x)


def test_sequence_t0_product_and_explicit():
    a = power_sequence(ideal2([(1, 0), (0, 1)]))
    b = power_sequence(ideal2([(2, 0), (0, 2)]))
    prod = product_sequence(a, b)
    t0 = sequence_t0(prod)
    for k in (1, 2, 3):
        term = prod.term(k)
        start = int(k * t0)
        for level in range(start, start + 3):
            for x in iter_points_at_level(S2, level):
                assert term.contains(x)
    explicit = explicit_sequence([a.term(1), a.term(2), a.term(3)])
    assert sequence_t0(explicit) >= 1


def test_gamma_region_power_equals_staircase_hull():
    ideal = ideal2([(1, 0), (0, 1)])
    region = gamma_region(power_sequence(ideal))
    assert region.facets == staircase_region(ideal).facets
    assert covol(region) == Fraction(1, 2)


def test_gamma_region_product_is_minkowski_sum():
    a, b = ideal2([(1, 0), (0, 1)]), ideal2([(2, 0), (0, 2)])
    region = gamma_region(product_sequence(power_sequence(a), power_sequence(b)))
    expected = minkowski_sum(staircase_region(a), staircase_region(b))
    assert region.facets == expected.facets
    assert covol(region) == Fraction(9, 2)


def test_gamma_region_additivity_random():
    rng = random.Random(3)
    for _ in range(10):
        gens_a = [(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                  (rng.randint(0, 5), rng.randint(0, 5))]
        gens_b = [(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                  (rng.randint(0, 5), rng.randint(0, 5))]
        a = ideal2([g for g in gens_a if any(g)])
        b = ideal2([g for g in gens_b if any(g)])
        lhs = gamma_region(product_sequence(power_sequence(a), power_sequence(b)))
        rhs = minkowski_sum(gamma_region(power_sequence(a)),
                            gamma_region(power_sequence(b)))
        assert lhs.facets == rhs.facets


def test_gamma_region_powers_of_origin():
    region = gamma_region(power_sequence(ideal2([(0, 0)])))
    assert covol(region) == 0
    assert region.facets == staircase_region(ideal2([(0, 0)])).facets


def test_multiplicity_values():
    assert multiplicity(power_sequence(ideal2([(1, 0), (0, 1)]))) == Fraction(1, 2)
    assert multiplicity(power_sequence(ideal2([(2, 0), (0, 2)]))) == 2
    prod = product_sequence(power_sequence(ideal2([(1, 0), (0, 1)])),
                            power_sequence(ideal2([(2, 0), (0, 2)])))
    assert multiplicity(prod) == Fraction(9, 2)


def test_multiplicity_explicit_estimate():
    a = power_sequence(ideal2([(1, 0), (0, 1)]))
    explicit = explicit_sequence([a.term(1), a.term(2)])
    with pytest.raises(ValueError):
        multiplicity(explicit)
    inner, trend = multiplicity_estimate(explicit)
    assert inner == Fraction(1, 2)
    assert trend == Fraction(3, 4)
    assert not okounkov_data(explicit).exact


def test_mixed_multiplicity_semigroup_examples():
    a = power_sequence(ideal2([(1, 0), (0, 1)]))
    b = power_sequence(ideal2([(2, 0), (0, 2)]))
    assert mixed_multiplicity_semigroup([b, b]) == 2 * covol(gamma_region(b))
    assert mixed_multiplicity_semigroup([a, b]) == 2
    scaled = power_sequence(ideal_power(ideal2([(1, 0), (0, 1)]), 3))
    assert mixed_multiplicity_semigroup([scaled, b]) == \
        3 * mixed_multiplicity_semigroup([a, b])
    with pytest.raises(ConeMismatch):
        seq3 = power_sequence(semigroup_ideal(S3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        mixed_multiplicity_semigroup([a, seq3])


def test_limit_theorem_small():
    rng = random.Random(2024)
    for _ in range(8):
        n = rng.choice([2, 3])
        sg = S2 if n == 2 else S3
        gens = [tuple(rng.randint(1, 3) if i == j else 0 for i in range(n))
                for j in range(n)]
        gens += [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(2)]
        ideal = semigroup_ideal(sg, [g for g in gens if any(g)])
        lead, _ = stabilized_leading(
            lambda k: complement_count(ideal_power(ideal, k)), n, max_k=60)
        assert lead == covol(staircase_region(ideal))


def test_polynomiality_worked_example():
    """Grid values for the pair (m, (x^2,y^2)) and the cross coefficient."""
    a = ideal2([(1, 0), (0, 1)])
    b = ideal2([(2, 0), (0, 2)])
    origin = ideal2([(0, 0)])

    def e_scaled(k1, k2):
        s1 = power_sequence(ideal_power(a, k1) if k1 else origin)
        s2 = power_sequence(ideal_power(b, k2) if k2 else origin)
        return 2 * multiplicity(product_sequence(s1, s2))  # n! = 2

    assert e_scaled(1, 0) == 1
    assert e_scaled(0, 1) == 4
    assert e_scaled(1, 1) == 9
    # cross coefficient of the homogeneous quadratic: 9 - 1 - 4 = 4, which
    # is n! times the mixed multiplicity
    cross = e_scaled(1, 1) - e_scaled(1, 0) - e_scaled(0, 1)
    assert cross == 4
    assert cross == 2 * mixed_multiplicity_semigroup(
        [power_sequence(a), power_sequence(b)])
    # homogeneity along an axis: P(k, 0) = k^n e(I1)
    for k in (2, 3):
        assert e_scaled(k, 0) == k ** 2 * e_scaled(1, 0)


def test_af_bm_for_semigroup_multiplicities():
    from coconvex.radicals import compare_root_sum
    rng = random.Random(2025)
    for _ in range(10):
        gens_a = [(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                  (rng.randint(0, 5), rng.randint(0, 5))]
        gens_b = [(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                  (rng.randint(0, 5), rng.randint(0, 5))]
        a = power_sequence(ideal2([g for g in gens_a if any(g)]))
        b = power_sequence(ideal2([g for g in gens_b if any(g)]))
        # Alexandrov-Fenchel: e(a,a) e(b,b) >= e(a,b)^2
        assert mixed_multiplicity_semigroup([a, a]) * \
            mixed_multiplicity_semigroup([b, b]) >= \
            mixed_multiplicity_semigroup([a, b]) ** 2
        # Brunn-Minkowski for the sum sequence
        s = product_sequence(a, b)
        assert compare_root_sum(multiplicity(a), multiplicity(b),
                                multiplicity(s), 2) >= 0


def test_hilbert_basis_orthant_and_skew():
    assert hilbert_basis(orthant(2)) == ((0, 1), (1, 0))
    assert hilbert_basis(orthant(3)) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    skew = dual_description([(1, 0), (1, 2)])
    assert hilbert_basis(skew) == ((1, 0), (1, 1), (1, 2))
    wide = dual_description([(1, 0), (1, 3)])
    assert hilbert_basis(wide) == ((1, 0), (1, 1), (1, 2), (1, 3))
    # Elements on a face of a simplicial subcone: (1, 1, 0) on a boundary
    # face, (0, 0, 1) on the wall between the two subcones of the square.
    prism = dual_description([(1, 0, 0), (1, 2, 0), (0, 0, 1)])
    assert hilbert_basis(prism) == ((0, 0, 1), (1, 0, 0), (1, 1, 0), (1, 2, 0))
    square = dual_description([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    assert hilbert_basis(square) == \
        ((-1, 0, 1), (0, -1, 1), (0, 0, 1), (0, 1, 1), (1, 0, 1))


def test_custom_cone_counting():
    skew = dual_description([(1, 0), (1, 2)])
    sg = lattice_semigroup(skew)
    assert level_height(sg) == 1
    ideal = semigroup_ideal(sg, [(2, 0), (1, 1), (2, 4)])
    assert complement_points(ideal) == ((0, 0), (1, 0), (1, 2))
    assert complement_count(ideal) == 3
    t0 = primary_certificate(ideal)
    for k in (1, 2, 3):
        power = ideal_power(ideal, k)
        start = int(k * t0)
        for level in range(start, start + 3):
            for x in iter_points_at_level(sg, level):
                assert power.contains(x)


def test_sum_ideals_requires_same_semigroup():
    skew = lattice_semigroup(dual_description([(1, 0), (1, 2)]))
    with pytest.raises(ConeMismatch):
        sum_ideals(ideal2([(1, 0), (0, 1)]),
                   semigroup_ideal(skew, [(1, 0)]))


def test_explicit_sequence_rejects_ungraded():
    a = ideal2([(1, 0), (0, 1)])
    bad = [a, ideal2([(5, 0), (0, 5)])]  # I_1 + I_1 not inside I_2
    with pytest.raises(ValueError):
        explicit_sequence(bad)
