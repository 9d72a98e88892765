"""Cobounded convex regions inside a cone and their exact covolumes.

A region is conv(generators) + cone; the complement inside the cone is the
coconvex body whose volume is the covolume.  The region is cobounded
exactly when every extreme ray of the cone carries a generator, and then
the body is the union of the pyramids from the origin over the bounded
facets of the region (its Newton diagram), so the covolume is a sum of
simplex determinants over a triangulation of the diagram.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cones import RationalCone, extreme_rays, is_positive_on_cone
from .errors import ConeMismatch, NonpositiveScalar, NotCobounded, WrongArity
from .linalg import det, dot, primitive
from .polytopes import hull_vertices, tight_vertices, triangulate


@dataclass(frozen=True)
class NewtonRegion:
    """Region conv(generators) + cone, with facets and certified threshold.

    `generators` is pruned to the vertex set of the region; `facets` are
    (normal, offset) pairs meaning normal.x >= offset, normals primitive
    integer; `threshold` T certifies cone & {ell >= T} inside the region.
    """

    cone: RationalCone
    ell: tuple
    generators: tuple
    facets: tuple
    threshold: Fraction

    @property
    def dim(self) -> int:
        return self.cone.dim

    def contains(self, point) -> bool:
        return all(dot(u, point) >= c for u, c in self.facets)


@dataclass(frozen=True)
class CoconvexBody:
    region: NewtonRegion
    covolume: Fraction


def newton_region(cone: RationalCone, generators, ell) -> NewtonRegion:
    """Build conv(generators) + cone and certify coboundedness.

    The region is cobounded exactly when every extreme ray of the cone
    carries a generator (the origin lies on every ray); otherwise the
    points t * r of a bare ray r stay outside for every t, and
    NotCobounded names that ray.  The threshold is the largest level of a
    generator: at that level the slice of the cone lies beyond each ray's
    generator, hence in the region.  Vertices are the generators at which
    the tight facets have rank n.  Raises ValueError on malformed input.
    """
    gens = sorted({tuple(Fraction(x) for x in g) for g in generators})
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

    homog = [primitive(g + (Fraction(1),)) for g in gens]
    homog += [r + (0,) for r in cone.rays]
    raw_facets = extreme_rays(homog, n + 1)
    # A zero spatial normal is the lifted cone's facet t >= 0, not a facet
    # of the region; drop it.
    facets = tuple(sorted((tuple(f[:n]), Fraction(-f[n])) for f in raw_facets
                          if any(x != 0 for x in f[:n])))
    vertices = tight_vertices(gens, facets, n)
    threshold = Fraction(max(dot(ell, g) for g in gens))
    return NewtonRegion(cone=cone, ell=ell, generators=vertices,
                        facets=facets, threshold=threshold)


@functools.lru_cache(maxsize=None)
def covol(region: NewtonRegion) -> Fraction:
    """Exact volume of the coconvex body cone \\ region.

    The body is the union of the pyramids from the origin over the bounded
    facets of the region, so the covolume is the sum of |det(simplex)| / n!
    over a triangulation of the Newton diagram.  In dimension 1 the
    diagram is the single point (g,) and the covolume is g.
    """
    total = Fraction(0)
    for face in newton_diagram(region):
        simplices = triangulate(face) if face.affine_dim else [face.vertices]
        total += sum(abs(det(simplex)) for simplex in simplices)
    return total / math.factorial(region.dim)


def coconvex_body(region: NewtonRegion) -> CoconvexBody:
    return CoconvexBody(region=region, covolume=covol(region))


def _check_compatible(r1: NewtonRegion, r2: NewtonRegion):
    if r1.cone != r2.cone or r1.ell != r2.ell:
        raise ConeMismatch("regions live over different cones or levels")


def minkowski_sum(r1: NewtonRegion, r2: NewtonRegion) -> NewtonRegion:
    """Region with generators {g1 + g2}; redundant points are pruned."""
    _check_compatible(r1, r2)
    sums = {tuple(a + b for a, b in zip(g1, g2))
            for g1 in r1.generators for g2 in r2.generators}
    return newton_region(r1.cone, sums, r1.ell)


def scale(region: NewtonRegion, lam) -> NewtonRegion:
    lam = Fraction(lam)
    if lam <= 0:
        raise NonpositiveScalar(f"scaling factor {lam} must be positive")
    gens = [tuple(lam * x for x in g) for g in region.generators]
    return newton_region(region.cone, gens, region.ell)


def cone_region(cone: RationalCone, ell) -> NewtonRegion:
    """The region equal to the whole cone (covolume zero, Minkowski unit)."""
    return newton_region(cone, [tuple(0 for _ in range(cone.dim))], ell)


def newton_diagram(region: NewtonRegion):
    """Bounded faces: facets whose normal is strictly positive on the cone."""
    faces = []
    for u, c in region.facets:
        if all(dot(u, r) > 0 for r in region.cone.rays):
            verts = [v for v in region.generators if dot(u, v) == c]
            faces.append(hull_vertices(verts))
    return faces


def mixed_covol(regions) -> Fraction:
    """Mixed covolume by inclusion-exclusion over subset Minkowski sums.

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
    sums = {}
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if size == 1:
                sums[subset] = regions[subset[0]]
            else:
                sums[subset] = minkowski_sum(sums[subset[:-1]], regions[subset[-1]])
    total = Fraction(0)
    for subset, reg in sums.items():
        sign = -1 if (n - len(subset)) % 2 else 1
        total += sign * covol(reg)
    return total / math.factorial(n)
