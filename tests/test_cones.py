"""Dual descriptions of cones, with the LP route as the independent oracle."""

import random

import pytest

from coconvex.cones import (dual_description, extreme_rays, is_positive_on_cone,
                            orthant)
from coconvex.errors import NotFullDimensional, NotStronglyConvex
from coconvex.linalg import dot, pivot_columns, primitive
from lp import in_cone_hull, is_pointed_by_lp, nonnegative_combination
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


def _dual_description_error(rays):
    try:
        dual_description(rays)
    except (NotStronglyConvex, NotFullDimensional) as exc:
        return type(exc)
    return None


def test_strong_convexity_lp_agrees_with_definition():
    """The LP agrees with the definition of strong convexity, and
    `dual_description` raises what the LP and the rank decide: a line
    first, even in a proper subspace, then a proper span."""
    def check(rays):
        # definition: strongly convex iff the only v with v, -v in the cone is 0
        contains_line = any(in_cone_hull(rays, tuple(-x for x in r)) for r in rays)
        pointed = is_pointed_by_lp(rays)
        assert pointed == (not contains_line)
        if not pointed:
            expected = NotStronglyConvex
        elif reference_rank(rays) < len(rays[0]):
            expected = NotFullDimensional
        else:
            expected = None
        assert _dual_description_error(rays) is expected, rays
        return expected

    assert check([(1, 0, 0), (-1, 0, 0), (0, 1, 0)]) is NotStronglyConvex
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([2, 3])
        rays = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(2, 5))]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        check(rays)
    # Dims 1-4 with negated rays (lines) and zeroed coordinates (proper spans).
    rng = random.Random(8)
    seen = {NotStronglyConvex: 0, NotFullDimensional: 0, None: 0}
    for _ in range(600):
        n = rng.randint(1, 4)
        rays = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, n + 2))]
        if rng.random() < 0.4:
            rays.append(tuple(-x for x in rng.choice(rays)))
        zeroed = {j for j in range(n) if rng.random() < 0.2}
        rays = [tuple(0 if j in zeroed else x for j, x in enumerate(r)) for r in rays]
        rays = [r for r in rays if any(r)]
        if rays:
            seen[check(rays)] += 1
    assert min(seen.values()) >= 100, seen


def _brute_force_facets(rays, n):
    """Independent facet enumeration: normals of (n-1)-subsets that keep
    every ray on one side."""
    import itertools
    from fractions import Fraction
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


def _two_pass_description(rays):
    """The double-description route on any dimension: (rays, facets) of the
    cone, or the error class it decides, a line before a proper span."""
    rays = [primitive(r) for r in rays if any(r)]
    n = len(rays[0])
    cols = pivot_columns(rays)
    facets = extreme_rays([tuple(r[j] for j in cols) for r in rays], len(cols))
    if reference_rank(facets) < len(cols):
        return NotStronglyConvex
    if len(cols) < n:
        return NotFullDimensional
    return tuple(extreme_rays(facets, n)), tuple(sorted(facets))


# Acute, obtuse, wide (a half-plane, the whole plane), collinear and
# opposite-ray plane inputs, with repeated and interior rays.
PLANE_CASES = [
    [(1, 0), (1, 2)],
    [(1, 0), (-1, 2)],
    [(1, 0), (-3, 1), (-1, 1), (2, 2)],
    [(2, -1), (-1, 2), (1, 1)],
    [(1, 0), (0, 1), (-1, 0)],
    [(1, 1), (-1, 1), (0, -1)],
    [(1, 2), (2, 4), (3, 6)],
    [(0, -3), (0, -1)],
    [(1, 2), (-1, -2)],
    [(1, 2), (-2, -4), (0, 1)],
    [(-1, 0), (1, 0), (0, 1)],
    [(5, 0), (0, 3), (2, 2), (5, 0)],
]


def test_dual_description_matches_brute_force():
    """Facets against the brute-force enumeration; plane cones, built with
    no double-description pass, also against the two `extreme_rays`
    passes, their errors included."""
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
    planes = list(PLANE_CASES)
    for _ in range(400):
        rays = [tuple(rng.randint(-4, 4) for _ in range(2))
                for _ in range(rng.randint(1, 5))]
        rays = [r for r in rays if any(r)]
        if rays and rng.random() < 0.3:
            rays.append(tuple(-rng.randint(1, 2) * x for x in rng.choice(rays)))
        if rays:
            planes.append(rays)
    seen = {NotStronglyConvex: 0, NotFullDimensional: 0, "cone": 0}
    for rays in planes:
        expected = _two_pass_description(rays)
        try:
            cone = dual_description(rays)
        except (NotStronglyConvex, NotFullDimensional) as exc:
            assert type(exc) is expected, rays
            seen[expected] += 1
            continue
        assert (cone.rays, cone.facets) == expected, rays
        assert set(cone.facets) == _brute_force_facets(cone.rays, 2)
        seen["cone"] += 1
    assert min(seen.values()) >= 20, seen


def test_extreme_rays_lists_each_ray_once():
    """On degenerate systems (dims 2-5, entries in -2..2, with repeated,
    scaled and summed constraints) the rays come out as the brute-force
    enumeration, compared as lists: each new ray cuts a distinct 2-face,
    so no ray may appear twice."""
    rng = random.Random(34)
    degenerate = 0
    for _ in range(150):
        n = rng.randint(2, 5)
        cons = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(n, n + 3))]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(cons), rng.choice(cons)
            cons.append(rng.choice([a, tuple(2 * x for x in a),
                                    tuple(x + y for x, y in zip(a, b))]))
        cons = [c for c in cons if any(c)]
        if not cons or reference_rank(cons) < n:
            continue
        rays = extreme_rays(cons, n)
        assert rays == sorted(_brute_force_facets(cons, n)), cons
        degenerate += any(sum(dot(a, r) == 0 for a in set(map(primitive, cons)))
                          >= n for r in rays)
    assert degenerate >= 20, degenerate


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
