"""Cobounded convex regions inside a cone and their exact covolumes.

A region is conv(generators) + cone; the complement inside the cone is the
coconvex body whose volume is the covolume.  The region is cobounded
exactly when every extreme ray of the cone carries a generator, and then
the body is the union of the pyramids from the origin over the bounded
facets of the region (its Newton diagram), so the covolume is a sum of
simplex determinants over a triangulation of the diagram.

A mixed covolume needs one Minkowski sum, K = R2 + ... + Rn, and none in
the plane: CV(R1, ..., Rn) is (1/n) times the sum of h1(u) V(R2^u, ...,
Rn^u) over the unit inner normals u of the bounded facets of K, the facet
formula for mixed volumes (`mixed_covol`).

`newton_region` builds each region once per canonical input: repeated
calls, such as the Minkowski sums that several mixed covolumes share,
return the same frozen object, which also makes the `covol` cache hit.
Errors are never cached.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cones import RationalCone, is_positive_on_cone
from .errors import ConeMismatch, NotCobounded, WrongArity
from .linalg import det, dot, exact_vector, primitive
from .polytopes import homogenized_hull, hull_volume, pull_simplices, tight_sets


@dataclass(frozen=True)
class NewtonRegion:
    """Region conv(generators) + cone, with facets and certified threshold.

    `generators` is pruned to the vertex set of the region, with integral
    coordinates as ``int`` and the others as ``Fraction``; `facets` are
    (normal, offset) pairs meaning normal.x >= offset, normals primitive
    integer, offsets ``int``; `threshold` T certifies cone & {ell >= T}
    inside the region.
    """

    cone: RationalCone
    ell: tuple
    generators: tuple
    facets: tuple
    threshold: Fraction

    @property
    def dim(self) -> int:
        return self.cone.dim


def newton_region(cone: RationalCone, generators, ell) -> NewtonRegion:
    """Build conv(generators) + cone and certify coboundedness.

    The region is cobounded exactly when every extreme ray of the cone
    carries a generator (the origin lies on every ray); otherwise the
    points t * r of a bare ray r stay outside for every t, and
    NotCobounded names that ray.  The threshold is the largest level of a
    generator: at that level the slice of the cone lies beyond each ray's
    generator, hence in the region.  A generator is a vertex when no other
    generator or ray is tight on every facet tight at it.  Raises
    ValueError on malformed input.

    Calls with the same canonical input (the cone, the sorted set of exact
    generators and ell) share one frozen region from the bounded cache
    `_newton_region`; errors are never cached, so a bad input raises on
    every call.
    """
    return _newton_region(cone, tuple(sorted({exact_vector(g) for g in generators})),
                          tuple(ell))


@functools.lru_cache(maxsize=256)
def _newton_region(cone: RationalCone, gens: tuple, ell: tuple) -> NewtonRegion:
    if not gens:
        raise ValueError("need at least one generator")
    n = cone.dim
    if any(len(g) != n for g in gens):
        raise ValueError("generator dimension mismatch")
    ell = primitive(ell)
    if not is_positive_on_cone(ell, cone):
        raise ValueError("level functional must be strictly positive on the cone")
    for g in gens:
        if not cone.contains(g):
            raise ValueError(f"generator {g} lies outside the cone")
    for r in cone.rays:
        # The ray is cut out of the cone by the cone facets vanishing on it.
        tight = [f for f in cone.facets if dot(f, r) == 0]
        if not any(all(dot(f, g) == 0 for f in tight) for g in gens):
            raise NotCobounded(f"no generator lies on the ray {r}, "
                               "so the complement of the region is unbounded")

    facets, vertices = homogenized_hull(gens, cone.rays, n, cone.facets)
    threshold = Fraction(max(dot(ell, g) for g in gens))
    return NewtonRegion(cone=cone, ell=ell, generators=vertices,
                        facets=facets, threshold=threshold)


@functools.lru_cache(maxsize=256)
def covol(region: NewtonRegion) -> Fraction:
    """Exact volume of the coconvex body cone \\ region.

    The body is the union of the pyramids from the origin over the bounded
    facets of the region, so the covolume is the sum of |det(simplex)| / n!
    over a triangulation of each bounded facet, pulled over the region's
    own facet incidences (`pull_simplices`) with no hull built.  In
    dimension 1 the facet is the single point (g,) and the covolume is g.
    """
    tight, bounded = _facet_incidences(region)
    total = sum(abs(det([region.generators[i] for i in simplex])) for face in bounded
                for simplex in pull_simplices(face, region.dim - 1, tight))
    return Fraction(total) / math.factorial(region.dim)


def _check_compatible(r1: NewtonRegion, r2: NewtonRegion):
    if r1.cone != r2.cone or r1.ell != r2.ell:
        raise ConeMismatch("regions live over different cones or levels")


def minkowski_sum(r1: NewtonRegion, r2: NewtonRegion) -> NewtonRegion:
    """Region with generators {g1 + g2}; redundant points are pruned."""
    _check_compatible(r1, r2)
    sums = {tuple(a + b for a, b in zip(g1, g2))
            for g1 in r1.generators for g2 in r2.generators}
    return newton_region(r1.cone, sums, r1.ell)


def _facet_incidences(region: NewtonRegion):
    """Generator index sets of the facets and of the bounded facets."""
    tight = tight_sets(region.facets, region.generators)
    bounded = [face for (u, _), face in zip(region.facets, tight)
               if is_positive_on_cone(u, region.cone)]
    return tight, bounded


def newton_diagram(region: NewtonRegion):
    """Bounded facets of the region, each as its sorted vertex tuple.

    The vertices of a face of a polyhedron are the polyhedron's vertices
    lying on it, so each facet's vertices are the generators tight on it,
    read off the facet incidences with no hull built.
    """
    return [tuple(sorted(region.generators[i] for i in face))
            for face in _facet_incidences(region)[1]]


def mixed_covol(regions) -> Fraction:
    """Mixed covolume CV(R1, ..., Rn) by the facet formula.

    With K = R2 + ... + Rn (R2 itself for n = 2),

        CV = (1/n) sum over the bounded facets u of K of h1(u) V(R2^u, ..., Rn^u) / |u|,

    where h1(u) is the least u.g over the generators of R1 and Ri^u is the
    face of Ri on which u is least (Schneider, Convex Bodies, 5.1; the
    formula holds for coconvex bodies, Khovanskii-Timorin 2014).  V is the
    (n-1)-dimensional mixed volume: inclusion-exclusion over the sums of
    the faces, each face projected by dropping a coordinate k with
    u_k != 0, which scales volume by |u_k| / |u|.  The cone's own facets
    add nothing: every ray carries a generator of R1, so h1 vanishes on
    each of them, and a cobounded region has no other unbounded facet.
    `hull_volume` gives each face sum as (n-1)! times its volume, an
    integer on integer faces, so a facet adds one Fraction h1(u) mixed /
    |u_k| and the total is divided by n! (n-1)! once.

    Symmetric, multilinear, and equal to the covolume on the diagonal.
    """
    regions = list(regions)
    if not regions:
        raise WrongArity("need n regions")
    n = regions[0].dim
    if len(regions) != n:
        raise WrongArity(f"need exactly {n} regions, got {len(regions)}")
    for r in regions[1:]:
        _check_compatible(regions[0], r)
    if n == 1:
        return covol(regions[0])
    first, rest = regions[0], regions[1:]
    total = Fraction(0)
    for u, _ in functools.reduce(minkowski_sum, rest).facets:
        if not is_positive_on_cone(u, first.cone):
            continue
        k = next(i for i, x in enumerate(u) if x)
        faces = []
        for region in rest:
            low = min(dot(u, g) for g in region.generators)
            faces.append([g[:k] + g[k + 1:] for g in region.generators if dot(u, g) == low])
        mixed = sum((-1) ** (n - 1 - size)
                    * hull_volume({tuple(map(sum, zip(*points)))
                                   for points in itertools.product(*subset)})
                    for size in range(1, n) for subset in itertools.combinations(faces, size))
        total += Fraction(min(dot(u, g) for g in first.generators) * mixed, abs(u[k]))
    return total / (math.factorial(n) * math.factorial(n - 1))
