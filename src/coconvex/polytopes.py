"""Rational polytopes: hulls, dual descriptions, triangulation, exact volume.

Both representations are obtained by homogenizing to a pointed cone one
dimension up and running the double-description pass from `cones`.
A lower-dimensional point set gets coordinates in one way only: it is
projected onto the pivot coordinates of its affine span
(`linalg.pivot_columns`), where the projection is injective, handled
there as a full-dimensional polytope, and mapped back point by point.
Faces are triangulated by pulling over facet incidences, with no further
hull.  A lower-dimensional polytope has volume zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegeneratePolytope, InvariantViolation
from .cones import extreme_rays
from .linalg import (det, dot, exact_vector, nullspace, pivot_columns, primitive,
                     rank, vec_sub)


@dataclass(frozen=True)
class RationalPolytope:
    """Bounded polytope with matching V- and H-representations.

    `vertices` are sorted `exact_vector` tuples; `halfspaces` are sorted pairs
    (normal, offset) with primitive integer normal, meaning normal.x >= offset.
    Affine-hull equations of degenerate polytopes appear as opposite pairs.
    """

    dim: int
    affine_dim: int
    vertices: tuple
    halfspaces: tuple

    def contains(self, point) -> bool:
        return all(dot(u, point) >= c for u, c in self.halfspaces)


def _exact_points(points):
    pts = sorted({exact_vector(p) for p in points})
    if not pts:
        raise ValueError("need at least one point")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed dimension")
    return pts, n


def _project(pts):
    """Pivot columns of the affine span of the points, and the map from each
    point's projection onto them back to the point."""
    cols = pivot_columns([vec_sub(p, pts[0]) for p in pts])
    return cols, {tuple(p[j] for j in cols): p for p in pts}


def hull_vertices(points) -> RationalPolytope:
    """Convex hull with non-extreme points removed and facets computed.

    A hull of affine dimension d < n is built on the projection onto the d
    pivot coordinates of its affine span; its facet normals are zero-padded
    back to R^n and the equations of the span are added.
    """
    pts, n = _exact_points(points)
    cols, backmap = _project(pts)
    if len(cols) == n:
        return _hull_full_dim(pts, n)
    sub = _hull_full_dim(sorted(backmap), len(cols))
    halfspaces = set()
    for u, c in sub.halfspaces:
        padded = dict(zip(cols, u))
        halfspaces.add((tuple(padded.get(j, 0) for j in range(n)), c))
    for nu in nullspace([vec_sub(p, pts[0]) for p in pts]):
        nu = primitive(nu)
        c = Fraction(dot(nu, pts[0]))
        halfspaces.add((nu, c))
        halfspaces.add((tuple(-x for x in nu), -c))
    return RationalPolytope(dim=n, affine_dim=len(cols),
                            vertices=tuple(sorted(backmap[v] for v in sub.vertices)),
                            halfspaces=tuple(sorted(halfspaces)))


def homogenized_hull(points, rays, n: int):
    """Facets and vertices of conv(points) + cone(rays) in R^n.

    One double-description pass over the points lifted with 1 and the rays
    lifted with 0.  Returns the sorted (normal, offset) pairs, meaning
    normal.x >= offset with primitive integer normals, and, in input order,
    the points at which the tight facets have rank n: for points of the
    polyhedron these are exactly its vertices.  A point lifts once to a
    primitive integer q, at which a facet f is tight when f . q = 0.
    """
    lifted = [primitive(tuple(p) + (1,)) for p in points]
    normals = extreme_rays(lifted + [tuple(r) + (0,) for r in rays], n + 1)
    # A zero spatial normal is the lifted cone's facet t >= 0, not a facet
    # of the polyhedron; drop it.
    facets = [f for f in normals if any(f[:n])]
    halfspaces = tuple(sorted((f[:n], Fraction(-f[n])) for f in facets))
    vertices = tuple(p for p, q in zip(points, lifted)
                     if rank([f[:n] for f in facets if dot(f, q) == 0]) == n)
    return halfspaces, vertices


def _hull_full_dim(pts, n):
    """Hull of sorted points whose affine span is R^n."""
    halfspaces, vertices = homogenized_hull(pts, (), n)
    if len(vertices) <= n:
        raise InvariantViolation(
            f"a full-dimensional hull in dimension {n} has only "
            f"{len(vertices)} vertices")
    return RationalPolytope(dim=n, affine_dim=n, vertices=vertices,
                            halfspaces=halfspaces)


def pull_simplices(face, d, tight):
    """Triangulation by pulling of a d-face of a polyhedron, as index tuples.

    `face` is a frozenset of vertex indices, and `tight` holds one per
    facet of the polyhedron.  The face's facets are the maximal proper
    sets face & t; v0 = min(face) is joined to each simplex of those missing v0.
    """
    if len(face) <= d:
        raise InvariantViolation(f"a {d}-face has only {len(face)} vertices")
    if len(face) == d + 1:
        return [tuple(sorted(face))]
    v0 = min(face)
    cuts = [f for f in dict.fromkeys(face & t for t in tight) if f < face]
    return [(v0,) + simplex for f in cuts
            if v0 not in f and not any(f < g for g in cuts)
            for simplex in pull_simplices(f, d - 1, tight)]


def triangulate(poly: RationalPolytope):
    """Deterministic triangulation into simplices (tuples of vertex points).

    A full-dimensional polytope is pulled over the tight sets of its
    halfspaces, a lower-dimensional one through `triangulate_points`.
    """
    if poly.affine_dim < poly.dim:
        return triangulate_points(poly.vertices)
    tight = [frozenset(i for i, v in enumerate(poly.vertices) if dot(u, v) == c)
             for u, c in poly.halfspaces]
    return [tuple(poly.vertices[i] for i in s) for s in
            pull_simplices(frozenset(range(len(poly.vertices))), poly.dim, tight)]


def triangulate_points(points):
    """Triangulation of conv(points) into simplices of input points.

    The points are projected onto the pivot coordinates of their affine
    span, where the projection is injective, hulled once and triangulated
    there by `triangulate`, and each simplex is mapped back point by point.
    """
    cols, backmap = _project(_exact_points(points)[0])
    if not cols:
        return []
    sub = _hull_full_dim(sorted(backmap), len(cols))
    return [tuple(backmap[v] for v in simplex) for simplex in triangulate(sub)]


def polytope_volume(poly: RationalPolytope, degenerate_ok: bool = False) -> Fraction:
    """Exact Euclidean volume by determinant sums over the triangulation."""
    if poly.affine_dim < poly.dim:
        if degenerate_ok:
            return Fraction(0)
        raise DegeneratePolytope(
            f"polytope has affine dimension {poly.affine_dim} < {poly.dim}")
    total = sum(abs(det([vec_sub(v, s[0]) for v in s[1:]])) for s in triangulate(poly))
    return Fraction(total) / math.factorial(poly.dim)
