"""Rational polytopes: one hull, one triangulation, exact volume.

Facets and vertices come from `homogenized_hull`: it homogenizes to a
pointed cone one dimension up and runs the double-description pass from
`cones`, except for a plane region conv(points) + cone(r1, r2) over two
independent rays (every Newton region in dimension 2), whose facets and
vertices come from Andrew's monotone chain in the coordinates that map the
cone onto the orthant (`staircase_chain`, which also gives `localalg` its
plane multiplicities).  Over a simplicial cone the pass starts from a dual
basis written down from the cone's facets and the first point
(`_lifted_seed`), with no elimination.
A lower-dimensional point set gets coordinates in one way only: it is
projected onto the pivot coordinates of its affine span
(`linalg.pivot_columns`), where the projection is injective, hulled
there, and mapped back point by point.  Vertices are read off the facet
incidences (`tight_sets`), with no rank computed, and faces are pulled
over them, with no further hull.  A volume sums |det| over the simplices,
as `regions.covol` does; a lower-dimensional polytope has volume zero.
The area of a polygon (`hull_volume`) comes from a monotone chain too.
Both volume functions return d! times the volume, an integer on integer
points, and leave the one division to the caller (`regions.mixed_covol`).
"""

from __future__ import annotations

from .errors import InvariantViolation
from .cones import extreme_rays
from .linalg import det, dot, exact_vector, pivot_columns, primitive, vec_sub


def _project(points):
    """Pivot columns of the affine span of the points, and the map from each
    point's projection onto them back to the point.  The points are taken
    as `exact_vector` tuples, repeats dropped; ValueError when there are
    none or their dimensions differ."""
    pts = sorted({exact_vector(p) for p in points})
    if not pts:
        raise ValueError("need at least one point")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed dimension")
    cols = pivot_columns([vec_sub(p, pts[0]) for p in pts])
    return cols, {tuple(p[j] for j in cols): p for p in pts}


def hull_vertices(points):
    """Facets and vertices of a bounded hull whose affine span is R^n, as
    `homogenized_hull` returns them with no rays."""
    n = len(points[0])
    halfspaces, vertices = homogenized_hull(points, (), n)
    if len(vertices) <= n:
        raise InvariantViolation(
            f"a full-dimensional hull in dimension {n} has only "
            f"{len(vertices)} vertices")
    return halfspaces, vertices


def homogenized_hull(points, rays, n: int, facets=()):
    """Facets and vertices of conv(points) + cone(rays) in R^n.

    Returns the sorted (normal, offset) pairs, meaning normal.x >= offset
    with primitive integer normals and ``int`` offsets, and the vertices
    among the points, in input order, duplicates included.  A plane region
    over two independent rays comes from `_planar_hull`.  Every other input
    takes one double-description pass over the rays lifted with 0, then
    the points lifted with 1; a point lifts once to a primitive integer q,
    at which a facet f is tight when f . q = 0.  Rays go first because the
    pass then tests fewer adjacent pairs; its sorted output does not depend
    on the order.  When `facets` holds the inner facet normals of a
    simplicial cone on the n rays, the pass starts from the dual basis
    `_lifted_seed` writes down; otherwise it eliminates for one.

    A point is a vertex when no lifted generator other than its own q is
    tight on every facet tight at q: those generators span the least face
    of the lifted cone through q, and only an equal point lifts to a
    vector proportional to q.
    """
    if (points and n == 2 and len(rays) == 2
            and rays[0][0] * rays[1][1] != rays[0][1] * rays[1][0]):
        return _planar_hull(points, rays)
    lifted = [tuple(r) + (0,) for r in rays] + [primitive(tuple(p) + (1,)) for p in points]
    seed = (_lifted_seed(rays, facets, lifted[n])
            if facets and points and len(rays) == n else None)
    normals = extreme_rays(lifted, n + 1, seed)
    # A zero spatial normal is the lifted cone's facet t >= 0, not a facet
    # of the polyhedron; drop it.  No lifted point lies on it.
    facets = [f for f in normals if any(f[:n])]
    halfspaces = tuple(sorted((f[:n], -f[n]) for f in facets))
    # Bit i of a generator's mask: facets[i] is tight on it.
    masks = [sum(1 << i for i, f in enumerate(facets) if dot(f, g) == 0) for g in lifted]
    vertices = tuple(p for p, q, m in zip(points, lifted[len(rays):], masks[len(rays):])
                     if not any(m & ~h == 0 and g != q for g, h in zip(lifted, masks)))
    return halfspaces, vertices


def _lifted_seed(rays, facets, q):
    """Dual basis of the lifted rays (r_j, 0) of a simplicial cone and the
    first lifted point q = (q_x, q_t), q_t > 0, in closed form.

    With f_j the cone facet opposite r_j, the one positive on it, y_j =
    (q_t f_j, -f_j . q_x) is tight on q and on every (r_i, 0) but the j-th,
    and e_(n+1) is tight on the lifted rays and positive on q.
    InvariantViolation when no facet is positive on a ray.
    """
    *qx, qt = q
    seed = []
    for r in rays:
        f = next((f for f in facets if dot(f, r) > 0), None)
        if f is None:
            raise InvariantViolation(f"no cone facet is positive on the ray {r}")
        seed.append(tuple(qt * a for a in f) + (-dot(f, qx),))
    return seed + [(0,) * len(qx) + (1,)]


def _planar_hull(points, rays):
    """`homogenized_hull` in R^2 over two independent rays r1, r2.

    With u1 perpendicular to r1, u1.r2 > 0, and u2 perpendicular to r2,
    u2.r1 > 0, the key p -> (u2.p, u1.p) maps the cone onto the orthant,
    where `staircase_chain` runs over the keys.  The facets are u2 at the
    first chain vertex, each edge normal signed positive on r1, and u1 at
    the last vertex, each normalised as the lifted normal primitive(u,
    -u.v), as the double-description pass returns it.
    Every input point equal to a chain vertex, duplicates included, is a
    vertex.
    """
    (a1, b1), (a2, b2) = rays
    s = 1 if a1 * b2 > b1 * a2 else -1
    u1, u2 = (-s * b1, s * a1), (s * b2, -s * a2)
    by_key = {(dot(u2, p), dot(u1, p)): tuple(p) for p in points}
    vs = [by_key[key] for key in staircase_chain(by_key)]
    kept = set(vs)
    normals = [u2]
    for v, w in zip(vs, vs[1:]):
        u = (v[1] - w[1], w[0] - v[0])
        normals.append(u if dot(u, rays[0]) > 0 else (-u[0], -u[1]))
    normals.append(u1)
    facets = [primitive(u + (-dot(u, v),)) for u, v in zip(normals, vs[:1] + vs)]
    halfspaces = tuple(sorted((f[:2], -f[2]) for f in facets))
    return halfspaces, tuple(p for p in points if tuple(p) in kept)


def staircase_chain(points):
    """Vertices of conv(points) + R^2_+, left to right.

    Andrew's monotone chain (1979, `_chain`) runs over the sorted points
    whose second coordinate drops below that of every earlier point: a
    point that does not drop lies in the region of an earlier one.
    """
    kept = []
    for p in sorted(points):
        if not kept or p[1] < kept[-1][1]:
            kept.append(p)
    return _chain(kept)


def _turn(a, b, c):
    """Twice the signed area of the triangle a, b, c: positive when the turn
    a -> b -> c is counter-clockwise."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _chain(points):
    """Andrew's monotone chain over plane points in the given order: each
    point pops the last kept one while the turn is not strictly
    counter-clockwise, then is kept."""
    chain = []
    for p in points:
        while len(chain) > 1 and _turn(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def hull_volume(points):
    """d! times the exact volume of conv(points) for points in R^d, zero
    when it is flat; an integer on integer points.

    A segment is max - min.  A polygon takes Andrew's monotone chain, lower
    half left to right and upper half back, and the shoelace sum, twice the
    area, over both halves, with no double-description pass.  From d = 3 on
    the volume is `polytope_volume`, which counts a flat hull as 0.
    """
    pts = sorted(set(points))
    d = len(pts[0])
    if d > 2:
        return polytope_volume(pts)
    if d == 1:
        return pts[-1][0] - pts[0][0]
    chains = _chain(pts), _chain(pts[::-1])
    return sum(x0 * y1 - x1 * y0 for chain in chains
               for (x0, y0), (x1, y1) in zip(chain, chain[1:]))


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


def tight_sets(halfspaces, points):
    """Facet incidences: for each (normal, offset) pair, the indices of the
    points on it."""
    return [frozenset(i for i, p in enumerate(points) if dot(u, p) == c)
            for u, c in halfspaces]


def triangulate_points(points):
    """Triangulation of conv(points) into simplices of input points.

    The points are projected onto the pivot coordinates of their affine
    span, where the projection is injective, hulled once there
    (`hull_vertices`) and pulled over the facet incidences, and each
    simplex is mapped back point by point.  A single point gives none.
    """
    return _pulled(*_project(points))


def _pulled(cols, backmap):
    """`triangulate_points` from the projection `_project` returns."""
    if not cols:
        return []
    halfspaces, vertices = hull_vertices(sorted(backmap))
    return [tuple(backmap[vertices[i]] for i in simplex) for simplex in
            pull_simplices(frozenset(range(len(vertices))), len(cols),
                           tight_sets(halfspaces, vertices))]


def polytope_volume(points):
    """d! times the exact volume of conv(points): |det| summed over
    `triangulate_points`; a flat set, short of d pivot columns, measures 0."""
    cols, backmap = _project(points)
    if len(cols) < len(next(iter(backmap.values()))):
        return 0
    return sum(abs(det([vec_sub(v, s[0]) for v in s[1:]]))
               for s in _pulled(cols, backmap))
