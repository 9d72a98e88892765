"""Rational polytopes: hulls, dual descriptions, triangulation, exact volume.

Both representations are obtained by homogenizing to a pointed cone one
dimension up and running the double-description pass from `cones`.
Degenerate (lower-dimensional) inputs are handled by passing to exact
affine coordinates; their volume is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegeneratePolytope, InvariantViolation
from .cones import extreme_rays
from .linalg import det, dot, independent_subset, nullspace, primitive, rank, vec_sub


@dataclass(frozen=True)
class RationalPolytope:
    """Bounded polytope with matching V- and H-representations.

    `vertices` are sorted Fraction tuples; `halfspaces` are sorted pairs
    (normal, offset) with primitive integer normal, meaning normal.x >= offset.
    Affine-hull equations of degenerate polytopes appear as opposite pairs.
    """

    dim: int
    affine_dim: int
    vertices: tuple
    halfspaces: tuple

    def contains(self, point) -> bool:
        return all(dot(u, point) >= c for u, c in self.halfspaces)


def _normalize_halfspace(u, c):
    prim = primitive(u)
    j = next(i for i, x in enumerate(prim) if x != 0)
    scale = Fraction(prim[j]) / Fraction(u[j])
    return prim, Fraction(c) * scale


def _as_fraction_points(points):
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    if not pts:
        raise ValueError("need at least one point")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed dimension")
    return pts, n


def hull_vertices(points) -> RationalPolytope:
    """Convex hull with non-extreme points removed and facets computed."""
    pts, n = _as_fraction_points(points)
    p0 = pts[0]
    diffs = [vec_sub(p, p0) for p in pts[1:]]
    d = rank(diffs) if diffs else 0
    if d == n:
        return _hull_full_dim(pts, n)
    return _hull_degenerate(pts, n, d, p0, diffs)


def tight_vertices(points, halfspaces, n: int) -> tuple:
    """The points at which the tight halfspaces have rank n.

    For points lying in the polyhedron cut out by `halfspaces` (pairs
    normal.x >= offset), these are exactly the points that are vertices.
    """
    return tuple(p for p in points
                 if rank([u for u, c in halfspaces if dot(u, p) == c]) == n)


def _hull_full_dim(pts, n):
    homog = [primitive(p + (Fraction(1),)) for p in pts]
    facets = [f for f in extreme_rays(homog, n + 1) if any(x != 0 for x in f[:n])]
    halfspaces = tuple(sorted((tuple(f[:n]), Fraction(-f[n])) for f in facets))
    vertices = tight_vertices(pts, halfspaces, n)
    if len(vertices) <= n:
        raise InvariantViolation(
            f"a full-dimensional hull in dimension {n} has only "
            f"{len(vertices)} vertices")
    return RationalPolytope(dim=n, affine_dim=n,
                            vertices=tuple(sorted(vertices)),
                            halfspaces=halfspaces)


def _affine_chart(p0, diffs, d):
    """Basis of the affine hull plus an exact left inverse for coordinates."""
    idx = independent_subset(diffs, d)
    basis = [diffs[i] for i in idx]  # d vectors in R^n
    # Left inverse L = G^-1 B with G = B B^T the Gram matrix: G L = B, so
    # the c-th kernel vector of [G | -B] is (column c of L, e_c).
    gram = [tuple(dot(bi, bj) for bj in basis) for bi in basis]
    kernel = nullspace([g + tuple(-x for x in b) for g, b in zip(gram, basis)])
    lmat = [tuple(v[r] for v in kernel) for r in range(d)]
    return basis, lmat


def _hull_degenerate(pts, n, d, p0, diffs):
    if d == 0:
        halfspaces = []
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            ne = tuple(-x for x in e)
            halfspaces.append((e, Fraction(p0[i])))
            halfspaces.append((ne, Fraction(-p0[i])))
        return RationalPolytope(dim=n, affine_dim=0, vertices=(p0,),
                                halfspaces=tuple(sorted(halfspaces)))
    basis, lmat = _affine_chart(p0, diffs, d)
    coords = []
    backmap = {}
    for p in pts:
        lam = tuple(dot(row, vec_sub(p, p0)) for row in lmat)
        coords.append(lam)
        backmap[lam] = p
    sub = _hull_full_dim(sorted(set(coords)), d)
    vertices = tuple(sorted(backmap[v] for v in sub.vertices))
    halfspaces = []
    for u, c in sub.halfspaces:
        # pull back through x -> L (x - p0)
        w = tuple(sum(u[r] * lmat[r][j] for r in range(d)) for j in range(n))
        halfspaces.append(_normalize_halfspace(w, Fraction(c) + dot(w, p0)))
    for nu in nullspace(basis):
        nu = primitive(nu)
        halfspaces.append((nu, Fraction(dot(nu, p0))))
        halfspaces.append((tuple(-x for x in nu), Fraction(-dot(nu, p0))))
    return RationalPolytope(dim=n, affine_dim=d, vertices=vertices,
                            halfspaces=tuple(sorted(set(halfspaces))))


def vertices_from_halfspaces(halfspaces, dim: int):
    """Vertex set of a bounded polyhedron given by normal.x >= offset pairs."""
    cons = [tuple(u) + (-Fraction(c),) for u, c in halfspaces]
    cons.append(tuple(0 for _ in range(dim)) + (1,))
    cons = [primitive(c) for c in cons]
    gens = extreme_rays(cons, dim + 1)
    vertices = []
    for g in gens:
        t = g[dim]
        if t == 0:
            raise ValueError("polyhedron is unbounded")
        vertices.append(tuple(Fraction(x, t) for x in g[:dim]))
    return sorted(vertices)


def triangulate(poly: RationalPolytope):
    """Deterministic triangulation into simplices (tuples of vertex points).

    Pyramids over a boundary triangulation from the lexicographically
    smallest vertex; facet sub-polytopes are projected out along a
    coordinate their normal does not annihilate.
    """
    if poly.affine_dim == 0:
        return []
    if poly.affine_dim < poly.dim:
        return _triangulate_degenerate(poly)
    n = poly.dim
    if n == 1:
        vs = poly.vertices
        return [tuple(vs)] if len(vs) == 2 else []
    v0 = poly.vertices[0]
    simplices = []
    for u, c in poly.halfspaces:
        if dot(u, v0) == c:
            continue
        fverts = [v for v in poly.vertices if dot(u, v) == c]
        j = next(i for i, x in enumerate(u) if x != 0)
        backmap = {}
        for v in fverts:
            proj = v[:j] + v[j + 1:]
            backmap[proj] = v
        sub = hull_vertices(backmap.keys())
        for simplex in triangulate(sub):
            simplices.append((v0,) + tuple(backmap[s] for s in simplex))
    return simplices


def _triangulate_degenerate(poly):
    pts = poly.vertices
    p0 = pts[0]
    diffs = [vec_sub(p, p0) for p in pts[1:]]
    basis, lmat = _affine_chart(p0, diffs, poly.affine_dim)
    backmap = {}
    coords = []
    for p in pts:
        lam = tuple(dot(row, vec_sub(p, p0)) for row in lmat)
        coords.append(lam)
        backmap[lam] = p
    sub = _hull_full_dim(sorted(set(coords)), poly.affine_dim)
    return [tuple(backmap[s] for s in simplex) for simplex in triangulate(sub)]


def polytope_volume(poly: RationalPolytope, degenerate_ok: bool = False) -> Fraction:
    """Exact Euclidean volume by determinant sums over the triangulation."""
    if poly.affine_dim < poly.dim:
        if degenerate_ok:
            return Fraction(0)
        raise DegeneratePolytope(
            f"polytope has affine dimension {poly.affine_dim} < {poly.dim}")
    total = Fraction(0)
    for simplex in triangulate(poly):
        base = simplex[0]
        mat = [vec_sub(v, base) for v in simplex[1:]]
        total += abs(det(mat))
    return total / math.factorial(poly.dim)
