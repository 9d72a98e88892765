"""Strongly convex rational polyhedral cones with dual ray/facet descriptions.

The workhorse is :func:`extreme_rays`, an incremental double-description
pass in integer arithmetic with the combinatorial adjacency test, started
from a dual basis of dim independent constraints: the integer dual basis
of the first ones (`linalg.integer_dual_basis`), or one the caller writes
down in closed form and passes as its seed, as `polytopes` does for a
region over a simplicial cone.  It converts between the two descriptions
of a pointed cone in either direction, since facets of a cone are the
extreme rays of its dual.
`dual_description` runs it on the rays projected onto the pivot
coordinates of their span, so one pass decides both strong convexity and
full dimension.  A plane cone needs no pass: its rays are its two extreme
generators and its facets their perpendiculars.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, NotFullDimensional, NotStronglyConvex
from .linalg import dot, integer_dual_basis, pivot_columns, primitive, rank


@dataclass(frozen=True)
class RationalCone:
    """Full-dimensional strongly convex cone; both descriptions canonical.

    `rays` are the primitive integer extreme rays, `facets` the primitive
    integer inner normals (facet f means f.x >= 0 on the cone), each sorted
    lexicographically so that structural equality is meaningful.
    """

    dim: int
    rays: tuple
    facets: tuple

    def contains(self, point) -> bool:
        return all(dot(f, point) >= 0 for f in self.facets)


def extreme_rays(constraints, dim: int, seed=None):
    """Extreme rays of ``{y : a.y >= 0 for a in constraints}``.

    Requires the constraint vectors to span R^dim (so the cone is pointed;
    ValueError otherwise) and returns sorted primitive integer generators.
    Constraints are processed one at a time; new rays come from adjacent
    positive/negative pairs, with adjacency decided by zero-set inclusion.

    The pass starts from a dual basis of dim independent constraints.
    Without `seed` they are the first independent ones, and
    `linalg.integer_dual_basis` gives their duals.  A caller that knows the
    duals of the first dim constraints (zero and repeated ones dropped)
    passes them as `seed`: dim vectors, the j-th tight on each of those
    constraints but the j-th and positive on it.  InvariantViolation when
    the seed is not such a basis.
    """
    cons = []
    seen = set()
    for a in constraints:
        a = primitive(a)
        if any(x != 0 for x in a) and a not in seen:
            seen.add(a)
            cons.append(a)
    if seed is None:
        base, _, duals = integer_dual_basis(cons, dim)
        cons = [cons[i] for i in base] + [a for i, a in enumerate(cons) if i not in base]
    else:
        duals = seed
        if (len(duals) != dim or len(cons) < dim
                or any(len(y) != dim for y in duals)
                or any(dot(a, y) <= 0 if i == j else dot(a, y)
                       for i, a in enumerate(cons[:dim]) for j, y in enumerate(duals))):
            raise InvariantViolation("the seed is not a dual basis of the "
                                     "first constraints")

    # The dual basis y_j of the first dim constraints: y_j is tight on
    # every basis constraint except the j-th, where it is positive.
    full = (1 << dim) - 1
    rays = [(primitive(y), full & ~(1 << j)) for j, y in enumerate(duals)]

    for idx in range(dim, len(cons)):
        a = cons[idx]
        pos, zero, neg = [], [], []
        for vec, mask in rays:
            d = dot(a, vec)
            if d > 0:
                pos.append((vec, mask, d))
            elif d < 0:
                neg.append((vec, mask, d))
            else:
                zero.append((vec, mask | (1 << idx)))
        if not neg:
            rays = [(v, m) for v, m, _ in pos] + zero
            continue
        new = []
        for pvec, pmask, pd in pos:
            for nvec, nmask, nd in neg:
                common = pmask & nmask
                adjacent = True
                for vec, mask in rays:
                    if vec is pvec or vec is nvec:
                        continue
                    if common & ~mask == 0:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = primitive(tuple(pd * nv - nd * pv for pv, nv in zip(pvec, nvec)))
                # A positive combination of two rays that are >= 0 on every
                # earlier constraint is tight exactly where both are.
                new.append((combo, common | 1 << idx))
        rays = [(v, m) for v, m, _ in pos] + zero + new

    return sorted(v for v, _ in rays)


def dual_description(rays) -> RationalCone:
    """Build the cone generated by `rays` with both dual descriptions.

    The rays are projected onto the pivot coordinates of their span, where
    the projection is injective, so the cone contains a line exactly when
    the facets of the projected cone have rank below the span's dimension d:
    then NotStronglyConvex is raised.  Otherwise NotFullDimensional is raised
    if d < n.  When d = n the projection is the identity and its facets are
    the cone's.  Plane cones are built by `_plane_cone`, with the same
    errors in the same order.
    """
    rays = [primitive(r) for r in rays]
    rays = [r for r in rays if any(x != 0 for x in r)]
    if not rays:
        raise ValueError("need at least one nonzero ray")
    n = len(rays[0])
    if any(len(r) != n for r in rays):
        raise ValueError("rays of mixed dimension")
    if n == 2:
        cone = _plane_cone(rays)
    else:
        cols = pivot_columns(rays)
        facets = extreme_rays([tuple(r[j] for j in cols) for r in rays], len(cols))
        if rank(facets) < len(cols):
            raise NotStronglyConvex("cone contains a line")
        if len(cols) < n:
            raise NotFullDimensional("rays span a proper subspace")
        canon = extreme_rays(facets, n)
        cone = RationalCone(dim=n, rays=tuple(canon), facets=tuple(sorted(facets)))
    if not all(cone.contains(r) for r in rays):
        raise InvariantViolation("the facets cut off an input ray")
    return cone


def _plane_cone(rays) -> RationalCone:
    """The cone generated by nonzero primitive vectors of the plane.

    With cross(a, b) = a_1 b_2 - a_2 b_1, one sweep keeps u, replaced by
    any ray clockwise of it (cross(u, r) < 0), and v, replaced by any ray
    counterclockwise of it.  When the rays lie in an angle below pi, u and
    v are its edges, and every ray r has cross(u, r) >= 0 >= cross(v, r),
    so a ray failing that test means a line.  When all pass and
    cross(u, v) > 0, each ray is a nonnegative combination of u and v:
    they are the extreme rays, and (-u_2, u_1) and (v_2, -v_1) the inner
    facet normals.  When all pass and cross(u, v) = 0, v is u or -u: the
    cone is the ray of u when every ray is u (a proper span), and
    otherwise -u is among the rays, so the cone holds a line.
    """
    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    u = v = rays[0]
    for r in rays:
        if cross(u, r) < 0:
            u = r
        if cross(v, r) > 0:
            v = r
    if any(cross(u, r) < 0 or cross(v, r) > 0 for r in rays):
        raise NotStronglyConvex("cone contains a line")
    if cross(u, v) == 0:
        if any(r != u for r in rays):
            raise NotStronglyConvex("cone contains a line")
        raise NotFullDimensional("rays span a proper subspace")
    return RationalCone(dim=2, rays=tuple(sorted((u, v))),
                        facets=tuple(sorted(((-u[1], u[0]), (v[1], -v[0])))))


def orthant(n: int) -> RationalCone:
    axes = tuple(sorted(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))
    return RationalCone(dim=n, rays=axes, facets=axes)


def is_positive_on_cone(functional, cone: RationalCone) -> bool:
    """True iff the functional is strictly positive on every extreme ray."""
    if len(functional) != cone.dim:
        raise ValueError("dimension mismatch")
    return all(dot(functional, r) > 0 for r in cone.rays)
