"""Dual descriptions of cones, with the LP route as the independent oracle."""

import random

import pytest

from coconvex.cones import (dual_description, extreme_rays, is_pointed_by_lp,
                            is_positive_on_cone, orthant)
from coconvex.errors import NotFullDimensional, NotStronglyConvex
from coconvex.linalg import dot
from coconvex.lp import in_cone_hull, nonnegative_combination
from test_linalg import reference_nullspace, reference_rank


def test_orthant_self_dual():
    cone = dual_description([(1, 0), (0, 1)])
    assert cone.facets == ((0, 1), (1, 0))
    assert cone.rays == ((0, 1), (1, 0))


def test_skew_cone_facets():
    cone = dual_description([(1, 0), (1, 2)])
    # hand dualization: y >= 0 and 2x - y >= 0
    assert set(cone.facets) == {(0, 1), (2, -1)}


def test_contains_line_raises():
    with pytest.raises(NotStronglyConvex):
        dual_description([(1, 0), (-1, 0)])


def test_flat_cone_raises():
    with pytest.raises(NotFullDimensional):
        dual_description([(1, 0, 0), (0, 1, 0)])


def test_redundant_ray_pruned():
    cone = dual_description([(1, 0), (1, 1), (0, 1)])
    assert cone.rays == ((0, 1), (1, 0))


def test_positive_on_cone_examples():
    o2 = orthant(2)
    assert is_positive_on_cone((1, 1), o2)
    assert not is_positive_on_cone((1, 0), o2)
    skew = dual_description([(1, 0), (1, 2)])
    assert is_positive_on_cone((1, 1), skew)


def test_three_dim_cross_section():
    cone = dual_description([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert cone.rays == tuple(sorted([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def test_non_simplicial_cone():
    # square-based cone in R^3: four rays, four facets
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    cone = dual_description(rays)
    assert len(cone.rays) == 4
    assert len(cone.facets) == 4
    for r in rays:
        assert cone.contains(r)


def _random_pointed_cone(rng, n):
    while True:
        rays = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(n, n + 3))]
        rays = [r for r in rays if any(r)]
        try:
            return dual_description(rays)
        except (NotFullDimensional, NotStronglyConvex, ValueError):
            continue


def test_duality_round_trip_against_lp():
    """Facet membership must agree with LP cone-combination feasibility."""
    rng = random.Random(20240817)
    cones = [_random_pointed_cone(rng, 2) for _ in range(6)]
    cones += [_random_pointed_cone(rng, 3) for _ in range(4)]
    checked = 0
    for cone in cones:
        for _ in range(100):
            p = tuple(rng.randint(-8, 8) for _ in range(cone.dim))
            by_facets = cone.contains(p)
            by_lp = in_cone_hull(cone.rays, p)
            assert by_facets == by_lp, (cone.rays, p)
            checked += 1
    assert checked == 1000


def test_strong_convexity_lp_agrees_with_definition():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([2, 3])
        rays = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(2, 5))]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        # definition: strongly convex iff the only v with v, -v in the cone is 0
        contains_line = any(in_cone_hull(rays, tuple(-x for x in r)) for r in rays)
        assert is_pointed_by_lp(rays) == (not contains_line)


def _brute_force_facets(rays, n):
    """Independent facet enumeration: normals of (n-1)-subsets that keep
    every ray on one side."""
    import itertools
    from fractions import Fraction
    from coconvex.linalg import primitive
    facets = set()
    for subset in itertools.combinations(rays, n - 1):
        kernel = reference_nullspace([tuple(Fraction(x) for x in r) for r in subset]) \
            if subset else [tuple(Fraction(1) if i == j else Fraction(0)
                                  for i in range(n)) for j in range(n)]
        if len(kernel) != 1:
            continue
        normal = primitive(kernel[0])
        dots = [dot(normal, r) for r in rays]
        if all(d >= 0 for d in dots):
            facets.add(normal)
        elif all(d <= 0 for d in dots):
            facets.add(tuple(-x for x in normal))
    # keep only genuine facets: touched by n-1 independent rays
    out = set()
    for f in facets:
        touching = [r for r in rays if dot(f, r) == 0]
        if touching and reference_rank(touching) == n - 1:
            out.add(f)
    return out


def test_dual_description_matches_brute_force():
    rng = random.Random(2026)
    for _ in range(25):
        n = rng.choice([2, 3])
        rays = [tuple(rng.randint(0, 5) for _ in range(n))
                for _ in range(rng.randint(n, n + 3))]
        rays = [r for r in rays if any(r)]
        try:
            cone = dual_description(rays)
        except (NotFullDimensional, NotStronglyConvex, ValueError):
            continue
        assert set(cone.facets) == _brute_force_facets(cone.rays, n)


def test_extreme_rays_rejects_nonspanning():
    with pytest.raises(ValueError):
        extreme_rays([(1, 0, 0)], 3)


def test_nonnegative_combination_certificate():
    x = nonnegative_combination([(1, 0), (1, 2)], (3, 4))
    assert x is not None
    assert all(c >= 0 for c in x)
    combo = tuple(sum(c * r[i] for c, r in zip(x, [(1, 0), (1, 2)]))
                  for i in range(2))
    assert combo == (3, 4)
    assert nonnegative_combination([(1, 0), (0, 1)], (-1, 0)) is None


def test_cone_membership_via_dot():
    cone = dual_description([(1, 0), (1, 2)])
    assert cone.contains((1, 1))
    assert not cone.contains((0, 1))
    assert all(dot(f, (2, 1)) >= 0 for f in cone.facets)
