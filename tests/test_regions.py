"""Newton regions, covolume, Minkowski algebra, mixed covolume."""

import random
from fractions import Fraction

import pytest

from coconvex.cones import dual_description, orthant
from coconvex.errors import (ConeMismatch, NonpositiveScalar, NotCobounded,
                             WrongArity)
from coconvex.fitting import fit_homogeneous_pair
from coconvex.linalg import dot
from coconvex.polytopes import (hull_vertices, polytope_volume,
                                vertices_from_halfspaces)
from coconvex.radicals import compare_root_sum
from coconvex.regions import (coconvex_body, cone_region, covol,
                              minkowski_sum, mixed_covol, newton_diagram,
                              newton_region, scale)

from test_polytopes import shoelace

O2 = orthant(2)
O3 = orthant(3)
ELL2 = (1, 1)
ELL3 = (1, 1, 1)
SKEW = dual_description([(1, 0), (1, 2)])
WIDE = dual_description([(-1, 2), (2, -1)])
FOUR_RAY = dual_description([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])


def covol_at(region, t):
    """Reference covolume vol(cone & {ell <= t}) - vol(region & {ell <= t}).

    Valid for any t at or above the region's threshold; an independent
    path from the pyramid sum over the Newton diagram.
    """
    assert t >= region.threshold
    cone, ell, n = region.cone, region.ell, region.dim
    origin = tuple(Fraction(0) for _ in range(n))
    cone_pts = [origin] + [tuple(t * Fraction(x, dot(ell, r)) for x in r)
                           for r in cone.rays]
    vol_cone = polytope_volume(hull_vertices(cone_pts), degenerate_ok=True)
    cap = (tuple(-x for x in ell), -t)
    verts = vertices_from_halfspaces(region.facets + (cap,), n)
    vol_region = polytope_volume(hull_vertices(verts), degenerate_ok=True)
    return vol_cone - vol_region


def region2(gens):
    return newton_region(O2, gens, ELL2)


def random_region(rng, n=2, bound=6, extra=3):
    gens = [tuple(rng.randint(1, bound) if i == j else 0 for i in range(n))
            for j in range(n)]
    gens += [tuple(rng.randint(0, bound) for _ in range(n)) for _ in range(extra)]
    gens = [g for g in gens if any(g)]
    return newton_region(orthant(n), gens, (1,) * n)


def random_cone_region(rng, cone, ell, bound=4, extra=2):
    """A generator on every ray of the cone plus nonnegative combinations."""
    gens = []
    for r in cone.rays:
        lam = rng.randint(1, bound)
        gens.append(tuple(lam * x for x in r))
    for _ in range(extra):
        coeffs = [rng.randint(0, bound) for _ in cone.rays]
        gens.append(tuple(sum(c * r[i] for c, r in zip(coeffs, cone.rays))
                          for i in range(cone.dim)))
    return newton_region(cone, [g for g in gens if any(g)], ell)


def test_region_of_origin_is_cone():
    region = cone_region(O2, ELL2)
    assert covol(region) == 0
    assert region.threshold == 0


def test_unit_staircase_facets():
    region = region2([(1, 0), (0, 1)])
    assert set(region.facets) == {((1, 0), Fraction(0)), ((0, 1), Fraction(0)),
                                  ((1, 1), Fraction(1))}
    assert region.threshold == 1


def test_not_cobounded():
    with pytest.raises(NotCobounded):
        region2([(2, 0)])
    # (1, 1) lies inside the skew cone but on neither ray, so the ray
    # (1, 2) carries no generator.
    with pytest.raises(NotCobounded, match=r"\(1, 2\)"):
        newton_region(SKEW, [(2, 0), (1, 1)], (1, 1))
    # (0, 1, 1) lies on a 2-face through the ray (0, 0, 1), not on the ray.
    with pytest.raises(NotCobounded, match=r"\(0, 0, 1\)"):
        newton_region(O3, [(1, 0, 0), (0, 1, 0), (0, 1, 1)], ELL3)


def test_threshold_examples():
    assert region2([(1, 0), (0, 1)]).threshold == 1
    region = region2([(3, 0), (1, 1), (0, 2)])
    assert region.threshold <= 6
    # The threshold is the largest generator level, non-vertices included;
    # the covolume command reports it.
    assert region2([(1, 0), (0, 1), (5, 5)]).threshold == 10


def test_covol_values():
    assert covol(region2([(1, 0), (0, 1)])) == Fraction(1, 2)
    assert covol(region2([(3, 0), (1, 1), (0, 2)])) == Fraction(5, 2)
    simplex = newton_region(O3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], ELL3)
    assert covol(simplex) == Fraction(1, 6)


def test_covol_matches_shoelace_complement():
    # complement of the staircase region is the polygon
    # (0,0),(3,0),(1,1),(0,2) walked along the diagram
    region = region2([(3, 0), (1, 1), (0, 2)])
    polygon = [(0, 0), (3, 0), (1, 1), (0, 2)]
    assert covol(region) == shoelace(polygon)


def test_covol_matches_triangle_count_growth():
    # H(k) = k(k+1)/2 lattice points are missing below level k; the
    # normalized count tends to 1/2, the covolume of the unit staircase.
    region = region2([(1, 0), (0, 1)])
    for k in (10, 20):
        count = k * (k + 1) // 2
        assert Fraction(count, k * k) - covol(region) == Fraction(1, 2 * k)


def test_covol_threshold_independence_random():
    rng = random.Random(91)
    regions = [random_region(rng, n=rng.choice([1, 2, 3]), bound=5, extra=2)
               for _ in range(200)]
    for cone, ell in ((SKEW, ELL2), (WIDE, ELL2), (FOUR_RAY, ELL3)):
        regions += [random_cone_region(rng, cone, ell) for _ in range(20)]
    for region in regions:
        t = region.threshold
        assert covol(region) == covol_at(region, t) == covol_at(region, 2 * t)


def test_minkowski_identity_element():
    region = region2([(1, 0), (0, 1)])
    unit = cone_region(O2, ELL2)
    assert minkowski_sum(region, unit).facets == region.facets


def test_minkowski_sum_covol():
    s = minkowski_sum(region2([(1, 0), (0, 1)]), region2([(2, 0), (0, 2)]))
    assert covol(s) == Fraction(9, 2)
    assert s.generators == ((Fraction(0), Fraction(3)), (Fraction(3), Fraction(0)))


def test_homothety_structural_equality():
    tripled = scale(region2([(1, 0), (0, 1)]), 3)
    summed = minkowski_sum(region2([(1, 0), (0, 1)]), region2([(2, 0), (0, 2)]))
    assert tripled.facets == summed.facets
    assert tripled.generators == summed.generators


def test_scale_homogeneity():
    region = region2([(1, 0), (0, 1)])
    assert scale(region, 1).facets == region.facets
    assert covol(scale(region, 2)) == 4 * covol(region)
    assert covol(scale(region2([(2, 0), (0, 2)]), Fraction(1, 2))) == Fraction(1, 2)
    with pytest.raises(NonpositiveScalar):
        scale(region, 0)


def test_cone_mismatch_rejected():
    skew = dual_description([(1, 0), (1, 2)])
    r1 = region2([(1, 0), (0, 1)])
    r2 = newton_region(skew, [(1, 0), (1, 2)], (1, 1))
    with pytest.raises(ConeMismatch):
        minkowski_sum(r1, r2)
    r3 = newton_region(O2, [(1, 0), (0, 1)], (2, 1))
    with pytest.raises(ConeMismatch):
        minkowski_sum(r1, r3)


def test_newton_diagram_cases():
    assert [f.vertices for f in newton_diagram(region2([(1, 0), (0, 1)]))] == \
        [((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))]
    assert newton_diagram(cone_region(O2, ELL2)) == []
    faces = newton_diagram(region2([(3, 0), (1, 1), (0, 2)]))
    segments = sorted(tuple(sorted(f.vertices)) for f in faces)
    assert segments == [
        ((Fraction(0), Fraction(2)), (Fraction(1), Fraction(1))),
        ((Fraction(1), Fraction(1)), (Fraction(3), Fraction(0))),
    ]


def test_mixed_covol_examples():
    r1 = region2([(1, 0), (0, 1)])
    r2 = region2([(2, 0), (0, 2)])
    assert mixed_covol([r2, r2]) == covol(r2) == 2
    assert mixed_covol([r1, r2]) == 1
    assert mixed_covol([scale(r1, 2), r2]) == 2 * mixed_covol([r1, r2])


def test_mixed_covol_arity_and_mismatch():
    r1 = region2([(1, 0), (0, 1)])
    with pytest.raises(WrongArity):
        mixed_covol([r1])
    with pytest.raises(WrongArity):
        mixed_covol([r1, r1, r1])
    r3 = newton_region(O3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], ELL3)
    with pytest.raises(ConeMismatch):
        mixed_covol([r1, r3])


def test_mixed_covol_symmetry_multilinearity_diagonal():
    rng = random.Random(5)
    for _ in range(10):
        a, b, c = (random_region(rng, 2, 5, 2) for _ in range(3))
        assert mixed_covol([a, b]) == mixed_covol([b, a])
        assert mixed_covol([a, a]) == covol(a)
        # linearity in the first slot against Minkowski sum
        lhs = mixed_covol([minkowski_sum(a, b), c])
        assert lhs == mixed_covol([a, c]) + mixed_covol([b, c])
    for _ in range(4):
        a, b, c = (random_region(rng, 3, 4, 2) for _ in range(3))
        assert mixed_covol([a, b, c]) == mixed_covol([c, a, b])
        assert mixed_covol([a, a, a]) == covol(a)
        lhs = mixed_covol([minkowski_sum(a, b), c, c])
        assert lhs == mixed_covol([a, c, c]) + mixed_covol([b, c, c])


def test_polynomiality_grid_fit():
    rng = random.Random(17)
    for _ in range(12):
        n = rng.choice([2, 3])
        g1 = random_region(rng, n, 4, 2)
        g2 = random_region(rng, n, 4, 2)
        unit = cone_region(g1.cone, g1.ell)
        values = {}
        for l1 in range(4):
            for l2 in range(4):
                a = unit if l1 == 0 else scale(g1, l1)
                b = unit if l2 == 0 else scale(g2, l2)
                values[(l1, l2)] = covol(minkowski_sum(a, b))
        coeffs, residual_zero = fit_homogeneous_pair(values, n)
        assert residual_zero
        assert coeffs[0] == covol(g1)
        assert coeffs[-1] == covol(g2)


def test_af_inequality_random():
    rng = random.Random(23)
    for _ in range(25):
        a, b = random_region(rng, 2, 6, 3), random_region(rng, 2, 6, 3)
        assert mixed_covol([a, a]) * mixed_covol([b, b]) >= mixed_covol([a, b]) ** 2
    for _ in range(8):
        a, b, c = (random_region(rng, 3, 4, 2) for _ in range(3))
        lhs = mixed_covol([a, a, c]) * mixed_covol([b, b, c])
        assert lhs >= mixed_covol([a, b, c]) ** 2


def test_bm_inequality_random_and_equality_witness():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.choice([2, 3])
        a, b = random_region(rng, n, 5, 2), random_region(rng, n, 5, 2)
        s = minkowski_sum(a, b)
        assert compare_root_sum(covol(a), covol(b), covol(s), n) >= 0
    # homothetic pairs give exact equality
    for lam in (2, 3, Fraction(1, 2)):
        a = random_region(rng, 2, 4, 2)
        b = scale(a, lam)
        s = minkowski_sum(a, b)
        assert compare_root_sum(covol(a), covol(b), covol(s), 2) == 0


def test_coconvex_body_cache_consistent():
    region = region2([(3, 0), (1, 1), (0, 2)])
    body = coconvex_body(region)
    assert body.covolume == covol(region) == Fraction(5, 2)


def test_generators_inside_cone_required():
    with pytest.raises(ValueError):
        newton_region(O2, [(-1, 0)], ELL2)
    with pytest.raises(ValueError):
        newton_region(O2, [(1, 0), (0, 1)], (1, 0))  # not positive on cone


def test_custom_cone_region():
    skew = dual_description([(1, 0), (1, 2)])
    region = newton_region(skew, [(1, 0), (1, 2), (1, 1)], (1, 1))
    # complement is the triangle (0,0),(1,0),(1,2) minus nothing: vertices
    # of the region are the two boundary generators
    assert covol(region) == 1
