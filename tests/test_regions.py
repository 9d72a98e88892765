"""Newton regions, covolume, Minkowski algebra, mixed covolume."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from coconvex import cones as cones_module
from coconvex import regions as regions_module
from coconvex.cones import (RationalCone, dual_description, extreme_rays,
                            is_positive_on_cone, orthant)
from coconvex.errors import ConeMismatch, InvariantViolation, NotCobounded, WrongArity
from coconvex.fitting import fit_homogeneous_pair
from coconvex.jsonio import region_to_json
from coconvex.linalg import det, dot, integer_dual_basis
from coconvex.localalg import monomial_ideal
from coconvex.polytopes import homogenized_hull, hull_vertices, triangulate_points
from coconvex.radicals import compare_root_sum
from coconvex.randgen import InstanceSpec
from coconvex.regions import (_newton_region, covol, minkowski_sum, mixed_covol,
                              newton_diagram, newton_region)
from coconvex.semigroups import lattice_semigroup, semigroup_ideal
from coconvex.suites import suite_af_covol

from test_polytopes import (fraction_homogenized_hull, reference_hull, shoelace, volume,
                            vertices_from_halfspaces)

O2 = orthant(2)
O3 = orthant(3)
ELL2 = (1, 1)
ELL3 = (1, 1, 1)
SKEW = dual_description([(1, 0), (1, 2)])
WIDE = dual_description([(-1, 2), (2, -1)])
OBTUSE = dual_description([(2, -1), (-1, 3)])
FOUR_RAY = dual_description([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
SKEW3 = dual_description([(1, 0, 0), (0, 1, 0), (1, 1, 3)])
TILTED3 = dual_description([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
FIVE_RAY = dual_description([(0, 0, 1), (2, 0, 1), (3, 2, 1), (1, 3, 1), (0, 2, 1)])
SKEW4 = dual_description([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 2, 3)])
OBTUSE3 = dual_description([(3, -1, 1), (-1, 3, 1), (-1, -1, 1)])
PYRAMID4 = dual_description([(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 1),
                             (0, 0, 1, 1)])


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
    vol_cone = volume(cone_pts)
    cap = (tuple(-x for x in ell), -t)
    verts = vertices_from_halfspaces(region.facets + (cap,), n)
    vol_region = volume(verts)
    return vol_cone - vol_region


def scale(region, lam):
    """lam * region, built by `newton_region`."""
    return newton_region(region.cone, [[lam * x for x in g] for g in region.generators],
                         region.ell)


def region2(gens):
    return newton_region(O2, gens, ELL2)


def random_region(rng, n=2, bound=6, extra=3):
    gens = [tuple(rng.randint(1, bound) if i == j else 0 for i in range(n))
            for j in range(n)]
    gens += [tuple(rng.randint(0, bound) for _ in range(n)) for _ in range(extra)]
    gens = [g for g in gens if any(g)]
    return newton_region(orthant(n), gens, (1,) * n)


def random_cone_region(rng, cone, ell, bound=4, extra=2, den=1):
    """A generator on every ray of the cone plus nonnegative combinations,
    with coefficients in (1/den) Z."""
    gens = []
    for r in cone.rays:
        lam = Fraction(rng.randint(1, bound * den), den)
        gens.append(tuple(lam * x for x in r))
    for _ in range(extra):
        coeffs = [Fraction(rng.randint(0, bound * den), den) for _ in cone.rays]
        gens.append(tuple(sum(c * r[i] for c, r in zip(coeffs, cone.rays))
                          for i in range(cone.dim)))
    return newton_region(cone, [g for g in gens if any(g)], ell)


def test_region_of_origin_is_cone():
    region = newton_region(O2, [(0, 0)], ELL2)
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


def test_equal_canonical_inputs_share_one_region():
    """Reordered, duplicated and Fraction-valued generators, and ell as a
    list, are one canonical input, so they share one frozen region."""
    gens = [(2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)]
    base = newton_region(O3, gens, ELL3)
    assert newton_region(O3, gens[::-1], ELL3) is base
    assert newton_region(O3, gens + gens[:2], ELL3) is base
    assert newton_region(O3, [tuple(map(Fraction, g)) for g in gens], ELL3) is base
    assert newton_region(O3, iter(gens), list(ELL3)) is base
    assert newton_region(O3, gens, (2, 2, 2)) == base
    assert covol(base) == reference_covol(base) == Fraction(5, 6)
    s = minkowski_sum(base, base)
    assert minkowski_sum(base, base) is s and covol(s) == reference_covol(s)
    # 2 * base is the same region from another input: equal, not shared.
    assert scale(base, 2) == s and scale(base, 2) is scale(base, 2)


def test_errors_are_not_cached():
    """A bad input runs the checks, and raises, on every call."""
    for call in (lambda: region2([(2, 0)]),
                 lambda: newton_region(SKEW, [(2, 0), (1, 1)], (1, 1))):
        for _ in range(2):
            misses = _newton_region.cache_info().misses
            with pytest.raises(NotCobounded):
                call()
            assert _newton_region.cache_info().misses == misses + 1
    for _ in range(2):
        with pytest.raises(ValueError, match="outside the cone"):
            newton_region(O2, [(1, 0), (0, 1), (-1, 2)], ELL2)


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


def _bounded_facet_vertices(region):
    """The generators on each facet whose normal is strictly positive on
    the cone: the bounded facets of the region."""
    return [[v for v in region.generators if dot(u, v) == c]
            for u, c in region.facets
            if all(dot(u, r) > 0 for r in region.cone.rays)]


def reference_covol(region):
    """Reference covolume: each bounded facet's generators triangulated by
    `triangulate_points`, which hulls the facet again, and the |det| of
    the pyramids from the origin summed."""
    total = Fraction(0)
    for verts in _bounded_facet_vertices(region):
        simplices = [verts] if region.dim == 1 else triangulate_points(verts)
        total += sum(abs(det(simplex)) for simplex in simplices)
    return total / math.factorial(region.dim)


def test_covol_matches_hull_per_facet_reference():
    """Pulling over the region's own facet incidences gives the covolume
    of the hull-per-facet triangulation, on orthants in dims 1-4, skew
    simplicial cones, cones with n + 1 or more rays, half-integral
    generators and Minkowski sums.  Enough bounded facets have more than
    n vertices that the pulling recursion runs below the facet."""
    rng = random.Random(47)
    cones = {2: [SKEW, WIDE], 3: [SKEW3, FOUR_RAY, FIVE_RAY], 4: [SKEW4, PYRAMID4]}

    def draw(n, cone):
        if cone is None:
            return random_region(rng, n, bound=5, extra=rng.randint(0, 4))
        return random_cone_region(rng, cone, (1,) * n, bound=3,
                                  extra=rng.randint(0, 3), den=rng.choice([1, 2]))

    regions = []
    for case in range(420):
        n = 1 + case % 4
        cone = None if case % 3 == 0 or n == 1 else rng.choice(cones[n])
        regions.append(draw(n, cone))
        if case // 4 % 2:
            regions.append(minkowski_sum(regions[-1], draw(n, cone)))
    assert len(regions) >= 600, len(regions)
    wide_facets = 0
    for region in regions:
        assert covol(region) == reference_covol(region), region
        wide_facets += sum(len(verts) > region.dim
                           for verts in _bounded_facet_vertices(region))
    assert wide_facets >= 150, wide_facets


def test_minkowski_identity_element():
    region = region2([(1, 0), (0, 1)])
    unit = newton_region(O2, [(0, 0)], ELL2)
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


def test_cone_mismatch_rejected():
    skew = dual_description([(1, 0), (1, 2)])
    r1 = region2([(1, 0), (0, 1)])
    r2 = newton_region(skew, [(1, 0), (1, 2)], (1, 1))
    with pytest.raises(ConeMismatch):
        minkowski_sum(r1, r2)
    r3 = newton_region(O2, [(1, 0), (0, 1)], (2, 1))
    with pytest.raises(ConeMismatch):
        minkowski_sum(r1, r3)


def hull_diagram(region):
    """Reference diagram: the hull vertices of the generators tight on each
    bounded facet, in facet order."""
    return [reference_hull([g for g in region.generators if dot(u, g) == c]).vertices
            for u, c in region.facets if is_positive_on_cone(u, region.cone)]


def test_newton_diagram_cases():
    assert newton_diagram(region2([(1, 0), (0, 1)])) == \
        [((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))]
    assert newton_diagram(newton_region(O2, [(0, 0)], ELL2)) == []
    faces = newton_diagram(region2([(3, 0), (1, 1), (0, 2)]))
    assert sorted(faces) == [
        ((Fraction(0), Fraction(2)), (Fraction(1), Fraction(1))),
        ((Fraction(1), Fraction(1)), (Fraction(3), Fraction(0))),
    ]
    # Seeded regions, half with fractional generators; small coordinates
    # put several generators on one facet.
    rng = random.Random(29)
    cones = [orthant(1), O2, O3, orthant(4), SKEW, FOUR_RAY, SKEW3]
    wide_faces = 0
    for cone, den, _ in itertools.product(cones, (1, 2), range(8)):
        region = random_cone_region(rng, cone, (1,) * cone.dim, bound=2, extra=3,
                                    den=den)
        diagram = newton_diagram(region)
        assert diagram == hull_diagram(region), region.generators
        wide_faces += sum(len(face) > cone.dim for face in diagram)
    assert wide_faces > 0


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


def inclusion_exclusion_mixed_covol(regions):
    """Reference mixed covolume: (1/n!) times the sum over the nonempty
    subsets S of the regions of (-1)^(n - |S|) covol(sum of S), each
    subset's Minkowski sum built from its prefix's."""
    n = len(regions)
    sums = {}
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if size == 1:
                sums[subset] = regions[subset[0]]
            else:
                sums[subset] = minkowski_sum(sums[subset[:-1]], regions[subset[-1]])
    total = sum((-1) ** (n - len(subset)) * covol(reg) for subset, reg in sums.items())
    return Fraction(total) / math.factorial(n)


def test_mixed_covol_matches_inclusion_exclusion():
    """The facet formula agrees with inclusion-exclusion over the subset
    Minkowski sums: on the orthant, acute, obtuse and skew cones in
    dimensions 2 and 3 and a non-simplicial cone, with half-integral
    generators, rational scalings and a repeated region, and on the 4-D
    orthant."""
    rng = random.Random(53)
    cones = [O2, SKEW, WIDE, OBTUSE, O3, SKEW3, TILTED3, FOUR_RAY]
    cases = []
    for case in range(280):
        cone = cones[case % len(cones)]
        regs = [random_cone_region(rng, cone, (1,) * cone.dim, bound=3,
                                   extra=rng.randint(0, 3), den=rng.choice([1, 2]))
                for _ in range(cone.dim)]
        if case % 4 == 1:
            regs[1] = regs[0]
        if case % 3 == 2:
            i = rng.randrange(cone.dim)
            regs[i] = scale(regs[i], Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        cases.append(regs)
    cases += [[random_region(rng, 4, 3, 2) for _ in range(4)] for _ in range(5)]
    for regs in cases:
        assert mixed_covol(regs) == inclusion_exclusion_mixed_covol(regs), regs


def test_mixed_covol_makes_n_minus_2_sums(monkeypatch):
    """One mixed covolume of n regions builds n - 2 Minkowski sums, none in
    the plane.  A 3-D af-covol instance takes three mixed covolumes, one
    sum each, of which two are distinct: CV(G1, G2, G3) reuses G2 + G3."""
    rng = random.Random(59)
    regs = {n: [random_region(rng, n, 3, 2) for _ in range(n)] for n in (2, 3, 4)}
    real = regions_module.minkowski_sum
    calls = []

    def counting(r1, r2):
        calls.append(real(r1, r2))
        return calls[-1]

    monkeypatch.setattr(regions_module, "minkowski_sum", counting)
    for n in (2, 3, 4):
        calls.clear()
        mixed_covol(regs[n])
        assert len(calls) == n - 2, n
    calls.clear()
    assert suite_af_covol(InstanceSpec(dimension=3, seed=1), 1).passed
    assert len(calls) == 3 and len(set(calls)) == 2, calls


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
        unit = newton_region(g1.cone, [(0,) * n], g1.ell)
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


def test_generators_inside_cone_required():
    with pytest.raises(ValueError):
        newton_region(O2, [(-1, 0)], ELL2)
    with pytest.raises(ValueError):
        newton_region(O2, [(1, 0), (0, 1)], (1, 0))  # not positive on cone
    # staircase generators are lattice points: no coordinate is truncated
    for bad in ((Fraction(5, 2), 0), (2.7, 0)):
        with pytest.raises(ValueError, match="non-integer"):
            semigroup_ideal(lattice_semigroup(O2), [bad, (0, 1)])
        with pytest.raises(ValueError, match="non-integer"):
            monomial_ideal([bad, (0, 1)])
    # a ragged generator is named, not cut short by a dot product
    for bad in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="generator dimension mismatch"):
            semigroup_ideal(lattice_semigroup(O2), [(1, 0), bad])


def test_custom_cone_region():
    skew = dual_description([(1, 0), (1, 2)])
    region = newton_region(skew, [(1, 0), (1, 2), (1, 1)], (1, 1))
    # complement is the triangle (0,0),(1,0),(1,2) minus nothing: vertices
    # of the region are the two boundary generators
    assert covol(region) == 1


def test_integral_coordinates_stay_integers():
    """Integral coordinates are kept as int; 3 == Fraction(3) with equal
    hashes, so the region, its covol cache entry and its JSON do not
    depend on how the generators were given."""
    ints = region2([(3, 0), (0, 2)])
    fracs = region2([(Fraction(3), Fraction(0)), (Fraction(0), Fraction(2))])
    assert ints == fracs and hash(ints) == hash(fracs)
    assert all(type(x) is int for g in fracs.generators for x in g)
    covol(ints)
    hits = covol.cache_info().hits
    assert covol(fracs) == 3
    assert covol.cache_info().hits == hits + 1
    expected = {"cone_rays": [[0, 1], [1, 0]],
                "generators": [["0", "2"], ["3", "0"]], "ell": ["1", "1"]}
    assert region_to_json(ints) == region_to_json(fracs) == expected
    half = region2([(Fraction(3, 2), 0), (0, Fraction(4, 2))])
    assert half.generators == ((0, 2), (Fraction(3, 2), 0))
    assert [[type(x) for x in g] for g in half.generators] == \
        [[int, int], [Fraction, int]]
    assert region_to_json(half)["generators"] == [["0", "2"], ["3/2", "0"]]


def _random_simplicial_cone(rng, n):
    """The cone on n random independent integer vectors of [-3, 3]^n."""
    while True:
        rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        if det(rays) != 0:
            return dual_description(rays)


def test_seeded_pass_matches_the_eliminated_one(monkeypatch):
    """Over a simplicial cone the lifted pass starts from the closed-form
    dual basis of the cone facets and the first point, and finds the
    halfspaces and vertices of the pass seeded by elimination and of the
    ``Fraction`` reference: on the orthants, skew, tilted and obtuse cones
    and random simplicial cones in dims 3 and 4, with ``Fraction`` points,
    repeated points and a first point that is no vertex (the sum of two
    generators).  Building those regions calls no `integer_dual_basis`;
    a bounded hull and a region over the four-ray cone still do."""
    rng = random.Random(35)
    fixed = [O3, SKEW3, TILTED3, OBTUSE3, orthant(4), SKEW4]
    cones = fixed + [_random_simplicial_cone(rng, 3 + i % 2) for i in range(10)]
    assert all(len(cone.rays) == cone.dim for cone in cones)
    cases = []
    for case in range(240):
        cone = cones[case % len(cones)]
        den = rng.choice([1, 2, 3])
        gens = []
        for r in cone.rays:
            lam = Fraction(rng.randint(1, 3 * den), den)
            gens.append(tuple(lam * x for x in r))
        for _ in range(rng.randint(0, 4)):
            coeffs = [Fraction(rng.randint(0, 3 * den), den) for _ in cone.rays]
            gens.append(tuple(sum(c * r[i] for c, r in zip(coeffs, cone.rays))
                              for i in range(cone.dim)))
        gens = [g for g in gens if any(g)]
        rng.shuffle(gens)
        first = tuple(a + b for a, b in zip(gens[0], gens[-1]))
        pts = [first] + gens + rng.sample(gens, rng.randint(1, 2))
        cases.append((cone, pts))

    real = integer_dual_basis
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cones_module, "integer_dual_basis", counted)
    regions_module._newton_region.cache_clear()
    non_vertex_first = 0
    for cone, pts in cases:
        n = cone.dim
        seeded = homogenized_hull(pts, cone.rays, n, cone.facets)
        assert calls == [], (cone, pts)
        assert seeded == homogenized_hull(pts, cone.rays, n), (cone, pts)
        assert len(calls) == 1
        calls.clear()
        halfspaces, vertices = fraction_homogenized_hull(sorted(set(pts)), cone.rays, n)
        assert seeded[0] == halfspaces and set(seeded[1]) == set(vertices), pts
        non_vertex_first += pts[0] not in seeded[1]
        lifted = [tuple(r) + (0,) for r in cone.rays] + [tuple(p) + (1,) for p in pts]
        assert sorted((f[:n], -f[n]) for f in extreme_rays(lifted, n + 1)
                      if any(f[:n])) == list(halfspaces)
        calls.clear()
        # the sum of the facets is positive on every ray
        region = newton_region(cone, pts, tuple(map(sum, zip(*cone.facets))))
        assert (region.facets, set(region.generators)) == (halfspaces, set(vertices))
        assert calls == []
    assert non_vertex_first == len(cases)
    hull_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(calls) == 1
    newton_region(FOUR_RAY, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], ELL3)
    assert len(calls) == 2


def test_seed_errors_are_invariant_violations():
    """A cone whose facet list is positive on no ray, and a seed that is
    not a dual basis of the first constraints, raise InvariantViolation."""
    bogus = RationalCone(dim=3, rays=O3.rays, facets=((-1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(InvariantViolation, match="no cone facet is positive"):
        homogenized_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1)], bogus.rays, 3, bogus.facets)
    cons = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    assert extreme_rays(cons, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == extreme_rays(cons, 3)
    for seed in ([(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 1, 1)],
                 [(1, 0, 0), (0, 1, 0), (0, 0, -1)]):
        with pytest.raises(InvariantViolation, match="not a dual basis"):
            extreme_rays(cons, 3, seed)
