"""Hulls and exact volumes, checked against shoelace and determinant oracles."""

import hashlib
import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from coconvex import polytopes, regions
from coconvex.errors import (InvariantViolation, NotFullDimensional,
                             NotStronglyConvex)
from coconvex.cones import dual_description, extreme_rays, orthant
from coconvex.linalg import det, dot, primitive, rank, vec_sub
from coconvex.polytopes import (homogenized_hull, hull_vertices, hull_volume,
                                polytope_volume, pull_simplices, triangulate_points)
from coconvex.regions import newton_region
from lp import nonnegative_combination
from test_linalg import (reference_echelon, reference_independent_subset,
                         reference_nullspace)


def sort_ccw(points):
    """Order 2D points counterclockwise around their centroid, exactly."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp_key(p):
        return (half(p),)

    ordered = []
    for h in (0, 1):
        bucket = [p for p in pts if half(p) == h]
        for _ in range(len(bucket)):
            best = bucket[0]
            for q in bucket[1:]:
                cross = ((best[0] - cx) * (q[1] - cy)
                         - (best[1] - cy) * (q[0] - cx))
                if cross < 0:
                    best = q
            bucket.remove(best)
            ordered.append(best)
    # ordered is clockwise within buckets; reverse for ccw consistency
    return ordered


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


def inside(halfspaces, q):
    """q satisfies every halfspace."""
    return all(dot(u, q) >= c for u, c in halfspaces)


def shoelace(ordered):
    """Exact polygon area for vertices in cyclic order (either orientation)."""
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(ordered, ordered[1:] + ordered[:1]):
        total += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(total) / 2


def is_extreme_by_lp(point, others):
    """Independent extremeness test: point not a convex combination."""
    if not others:
        return True
    cols = [tuple(o) + (1,) for o in others]
    target = tuple(point) + (1,)
    return nonnegative_combination(cols, target) is None


def volume(points):
    """The volume of conv(points): `hull_volume` gives d! times it."""
    return Fraction(hull_volume(points), math.factorial(len(next(iter(points)))))


def test_unit_square():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert volume(pts) == 1
    assert len(hull_vertices(pts)[1]) == 4


def test_simplex_half():
    assert volume([(0, 0), (1, 0), (0, 1)]) == Fraction(1, 2)


def test_quadrilateral_matches_shoelace():
    pts = [(0, 0), (3, 0), (1, 1), (0, 2)]
    _, vertices = hull_vertices(pts)
    ordered = sort_ccw(vertices)
    assert volume(pts) == shoelace(ordered)
    # (1,1) sits inside the hull of the other three points, so it is pruned
    assert (Fraction(1), Fraction(1)) not in vertices


def test_hull_single_point():
    assert triangulate_points([(0, 0)]) == []
    assert volume([(0, 0)]) == 0
    assert reference_hull([(0, 0)]).vertices == ((Fraction(0), Fraction(0)),)


def test_hull_collinear_segment():
    """A flat hull is triangulated in its own span, by the vertices only."""
    pts = [(2, 0), (1, 1), (0, 2)]
    assert triangulate_points(pts) == [((0, 2), (2, 0))]
    assert volume(pts) == 0


def test_hull_triangle_all_extreme():
    pts = [(3, 0), (1, 1), (0, 2)]
    assert len(hull_vertices(pts)[1]) == 3
    for p in pts:
        others = [q for q in pts if q != p]
        assert is_extreme_by_lp(p, others)


def test_halfspaces_describe_hull():
    pts = [(0, 0), (4, 0), (0, 3), (2, 2)]
    halfspaces, vertices = hull_vertices(pts)
    rng = random.Random(3)
    for _ in range(200):
        q = (rng.randint(-2, 6), rng.randint(-2, 5))
        inside_h = inside(halfspaces, q)
        inside_v = nonnegative_combination(
            [tuple(v) + (1,) for v in vertices],
            tuple(q) + (1,)) is not None
        assert inside_h == inside_v


def test_three_dim_simplex_and_cube():
    assert volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == Fraction(1, 6)
    cube = list(itertools.product([0, 2], repeat=3))
    assert volume(cube) == 8
    assert len(hull_vertices(cube)[0]) == 6


def test_volume_translation_invariant_and_homogeneous():
    base = [(0, 0), (3, 0), (1, 1), (0, 2)]
    vol = volume(base)
    shifted = [(x + 5, y - 7) for x, y in base]
    assert volume(shifted) == vol
    for lam in (Fraction(1, 2), Fraction(2), Fraction(3)):
        scaled = [(lam * x, lam * y) for x, y in base]
        assert volume(scaled) == lam ** 2 * vol
    base3 = [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 1)]
    vol3 = volume(base3)
    for lam in (Fraction(1, 2), Fraction(2)):
        scaled = [tuple(lam * x for x in p) for p in base3]
        assert volume(scaled) == lam ** 3 * vol3


def test_volume_additive_under_hyperplane_split():
    rng = random.Random(11)
    for _ in range(12):
        pts = [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(6)]
        if rank([vec_sub(p, pts[0]) for p in pts]) < 2:
            continue
        a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(0, 5)
        if a == 0 and b == 0:
            continue
        # split by ax + by = c: vertices plus edge intersections on each side
        left, right = [], []
        verts = list(hull_vertices(pts)[1])
        for v in verts:
            s = a * v[0] + b * v[1] - c
            if s <= 0:
                left.append(v)
            if s >= 0:
                right.append(v)
        for v, w in itertools.combinations(verts, 2):
            sv = a * v[0] + b * v[1] - c
            sw = a * w[0] + b * w[1] - c
            if sv * sw < 0:
                t = Fraction(-sv, sw - sv)
                cut = (v[0] + t * (w[0] - v[0]), v[1] + t * (w[1] - v[1]))
                left.append(cut)
                right.append(cut)
        vol_left = volume(left) if left else 0
        vol_right = volume(right) if right else 0
        # crude split keeps non-hull interior points; hull prunes them
        assert vol_left + vol_right == volume(pts)


def test_volume_additive_under_plane_split_3d():
    rng = random.Random(13)
    for _ in range(6):
        pts = [(rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5))
               for _ in range(7)]
        if rank([vec_sub(p, pts[0]) for p in pts]) < 3:
            continue
        normal = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2))
        if not any(normal):
            continue
        c = rng.randint(0, 6)
        left, right = [], []
        verts = list(hull_vertices(pts)[1])
        for v in verts:
            s = sum(a * b for a, b in zip(normal, v)) - c
            if s <= 0:
                left.append(v)
            if s >= 0:
                right.append(v)
        for v, w in itertools.combinations(verts, 2):
            sv = sum(a * b for a, b in zip(normal, v)) - c
            sw = sum(a * b for a, b in zip(normal, w)) - c
            if sv * sw < 0:
                t = Fraction(-sv, sw - sv)
                cut = tuple(vi + t * (wi - vi) for vi, wi in zip(v, w))
                left.append(cut)
                right.append(cut)
        vol = lambda ps: volume(ps) if ps else Fraction(0)
        assert vol(left) + vol(right) == volume(pts)


def test_vertices_from_halfspaces_square():
    halfspaces = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -2)]
    verts = vertices_from_halfspaces(halfspaces, 2)
    assert verts == sorted([(Fraction(0), Fraction(0)), (Fraction(0), Fraction(2)),
                            (Fraction(2), Fraction(0)), (Fraction(2), Fraction(2))])


def test_vertices_from_halfspaces_unbounded_rejected():
    with pytest.raises(ValueError):
        vertices_from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2)


def test_volume_against_scipy_hull():
    scipy_spatial = pytest.importorskip("scipy.spatial")
    rng = random.Random(2027)
    for _ in range(10):
        n = rng.choice([2, 3])
        pts = [tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(n + 5)]
        if rank([vec_sub(p, pts[0]) for p in pts]) < n:
            continue
        reference = scipy_spatial.ConvexHull([list(map(float, p)) for p in pts])
        assert abs(float(volume(pts)) - reference.volume) < 1e-9


def test_triangulation_covers_volume():
    pts = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 3), (2, 2, 2)]
    tri = triangulate_points(pts)
    total = sum(abs(det([vec_sub(v, s[0]) for v in s[1:]])) for s in tri)
    assert Fraction(total, 6) == volume(pts) == \
        _measure(reference_triangulate(reference_hull(pts)), range(3)) / 6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cube_triangulation_is_n_factorial_unit_simplices(n):
    """Pulling {0,1}^n from the origin gives the staircase triangulation:
    n! simplices, each of normalized volume 1."""
    simplices = triangulate_points(itertools.product([0, 1], repeat=n))
    assert len(simplices) == math.factorial(n)
    assert all(abs(det([vec_sub(v, s[0]) for v in s[1:]])) == 1 for s in simplices)


def test_pull_simplices_rejects_a_face_short_of_vertices():
    """Tight sets that no polyhedron has: the facet {3} of the square
    {0, 1, 2, 3} would be an edge with one vertex."""
    tight = [frozenset({0, 1}), frozenset({1, 2}), frozenset({3})]
    assert pull_simplices(frozenset({1, 2, 3}), 2, tight) == [(1, 2, 3)]
    with pytest.raises(InvariantViolation, match="1-face has only 1 vertices"):
        pull_simplices(frozenset(range(4)), 2, tight)


def test_integral_points_stay_integers():
    """Simplex vertices keep integral coordinates as int and the others as
    Fraction; 3 == Fraction(3) with equal hashes, so the triangulation does
    not depend on how its points were given."""
    pts = [(0, 0), (3, 0), (1, 1), (0, 2)]
    ints = tuple(triangulate_points(pts))
    fracs = tuple(triangulate_points([tuple(map(Fraction, p)) for p in pts]))
    assert ints == fracs and hash(ints) == hash(fracs)
    assert all(type(x) is int for s in fracs for v in s for x in v)
    [half] = triangulate_points([(Fraction(3, 2), 0), (0, Fraction(4, 2)), (0, 0)])
    assert half == ((0, 0), (0, 2), (Fraction(3, 2), 0))
    assert [[type(x) for x in v] for v in half] == \
        [[int, int], [int, int], [Fraction, int]]


# Reference oracle: the affine chart that gave lower-dimensional hulls and
# triangulations their coordinates before the pivot-coordinate projection.
# A Gram-matrix left inverse maps the affine hull onto R^d; facets of a
# full-dimensional polytope drop the first coordinate their normal uses.

class Hull(NamedTuple):
    """Reference hull: sorted vertices and sorted (normal, offset) pairs,
    normal.x >= offset; a hull of affine dimension below `dim` adds the
    equations of its span as opposite pairs with ``Fraction`` offsets."""

    dim: int
    affine_dim: int
    vertices: tuple
    halfspaces: tuple


def _reference_full_dim(pts, n):
    halfspaces, vertices = hull_vertices(pts)
    return Hull(dim=n, affine_dim=n, vertices=vertices, halfspaces=halfspaces)


def _normalize_halfspace(u, c):
    prim = primitive(u)
    j = next(i for i, x in enumerate(prim) if x != 0)
    scale = Fraction(prim[j]) / Fraction(u[j])
    return prim, Fraction(c) * scale


def _affine_chart(p0, diffs, d):
    """Basis of the affine hull plus an exact left inverse for coordinates."""
    idx = reference_independent_subset(diffs, d)
    basis = [diffs[i] for i in idx]  # d vectors in R^n
    # Left inverse L = G^-1 B with G = B B^T the Gram matrix: G L = B, so
    # the c-th kernel vector of [G | -B] is (column c of L, e_c).
    gram = [tuple(dot(bi, bj) for bj in basis) for bi in basis]
    kernel = reference_nullspace([g + tuple(-x for x in b) for g, b in zip(gram, basis)])
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
        return Hull(dim=n, affine_dim=0, vertices=(p0,),
                    halfspaces=tuple(sorted(halfspaces)))
    basis, lmat = _affine_chart(p0, diffs, d)
    coords = []
    backmap = {}
    for p in pts:
        lam = tuple(dot(row, vec_sub(p, p0)) for row in lmat)
        coords.append(lam)
        backmap[lam] = p
    sub = _reference_full_dim(sorted(set(coords)), d)
    vertices = tuple(sorted(backmap[v] for v in sub.vertices))
    halfspaces = []
    for u, c in sub.halfspaces:
        # pull back through x -> L (x - p0)
        w = tuple(sum(u[r] * lmat[r][j] for r in range(d)) for j in range(n))
        halfspaces.append(_normalize_halfspace(w, Fraction(c) + dot(w, p0)))
    for nu in reference_nullspace(basis):
        nu = primitive(nu)
        halfspaces.append((nu, Fraction(dot(nu, p0))))
        halfspaces.append((tuple(-x for x in nu), Fraction(-dot(nu, p0))))
    return Hull(dim=n, affine_dim=d, vertices=vertices,
                halfspaces=tuple(sorted(set(halfspaces))))


def reference_hull(points):
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    n = len(pts[0])
    p0 = pts[0]
    diffs = [vec_sub(p, p0) for p in pts[1:]]
    d = rank(diffs) if diffs else 0
    if d == n:
        return _reference_full_dim(pts, n)
    return _hull_degenerate(pts, n, d, p0, diffs)


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
    sub = _reference_full_dim(sorted(set(coords)), poly.affine_dim)
    return [tuple(backmap[s] for s in simplex)
            for simplex in reference_triangulate(sub)]


def reference_triangulate(poly):
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
        sub = reference_hull(backmap.keys())
        for simplex in reference_triangulate(sub):
            simplices.append((v0,) + tuple(backmap[s] for s in simplex))
    return simplices


def _random_fraction(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 2))


def _measure(simplices, cols):
    """Sum of |det| of the simplices' edge vectors projected onto `cols`,
    coordinates on which the polytope's affine span projects injectively."""
    return sum(abs(det([tuple(x[j] for j in cols) for x in
                        (vec_sub(v, s[0]) for v in s[1:])]))
               for s in simplices)


def test_projection_matches_affine_chart():
    """Triangulations through the pivot-coordinate projection agree with
    the affine-chart reference: their vertices are the reference vertices,
    their simplices have its affine dimension, their hull holds the probes,
    on and off the affine hull, that its halfspaces hold, and their measure
    is its triangulation's.  A full-dimensional hull has the reference
    facets, and `hull_volume`, which takes its own path in dimensions 1 and
    2, is d! times the reference volume, and 0 when the points are flat.  The
    simplices themselves are not unique, so they are not compared."""
    rng = random.Random(29)
    degenerate = 0
    for case in range(1500):
        n = rng.randint(1, 4)
        d = rng.randint(0, n - 1) if case % 3 == 0 else n
        p0 = tuple(_random_fraction(rng, 4) for _ in range(n))
        basis = [tuple(_random_fraction(rng, 3) for _ in range(n)) for _ in range(d)]

        def on_span(bound):
            lam = [_random_fraction(rng, bound) for _ in basis]
            return tuple(x + sum(l * b[j] for l, b in zip(lam, basis))
                         for j, x in enumerate(p0))

        pts = [on_span(2) for _ in range(rng.randint(1, d + 2))]
        ref, simplices = reference_hull(pts), triangulate_points(pts)
        vertices = sorted({v for s in simplices for v in s}) or [pts[0]]
        assert vertices == list(ref.vertices), pts
        assert (len(simplices[0]) - 1 if simplices else 0) == ref.affine_dim, pts
        probes = [on_span(3) for _ in range(4)]
        probes += [tuple(_random_fraction(rng, 4) for _ in range(n)) for _ in range(2)]
        for q in probes:
            in_hull = nonnegative_combination([tuple(v) + (1,) for v in vertices],
                                              tuple(q) + (1,)) is not None
            assert in_hull == inside(ref.halfspaces, q), (pts, q)
        ref_simplices = reference_triangulate(ref)
        if ref.affine_dim == n:
            assert hull_vertices(pts)[0] == ref.halfspaces, pts
            expected = _measure(ref_simplices, range(n)) / math.factorial(n)
            assert _measure(simplices, range(n)) / math.factorial(n) == expected, pts
        else:
            degenerate += 1
            expected = 0
            cols = sorted(col for col, _ in reference_echelon(
                [vec_sub(v, vertices[0]) for v in vertices]))
            assert _measure(simplices, cols) == _measure(ref_simplices, cols), pts
        assert volume(pts) == expected, pts
    assert degenerate >= 500, degenerate


def fraction_homogenized_hull(points, rays, n):
    """Reference for `homogenized_hull`: the same double-description pass,
    with each point tested against the offsets by Fraction dot products."""
    lifted = [tuple(p) + (1,) for p in points] + [tuple(r) + (0,) for r in rays]
    halfspaces = tuple(sorted((f[:n], Fraction(-f[n]))
                              for f in extreme_rays(lifted, n + 1) if any(f[:n])))
    vertices = tuple(p for p in points
                     if rank([u for u, c in halfspaces if dot(u, p) == c]) == n)
    return halfspaces, vertices


def test_integer_vertex_test_matches_fraction_offsets():
    """Lifting each point to a primitive integer vector and testing f . q = 0
    finds the same halfspaces and vertices as the Fraction offset test, on
    rational point sets (denominators up to 4) alone, plus the orthant and
    plus a skew cone, in dimensions 2 and 3."""
    rng = random.Random(31)
    ray_sets = {2: [(), ((1, 0), (0, 1)), ((1, 0), (1, 2)), ((-1, 2), (2, -1))],
                3: [(), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                    ((1, 0, 0), (0, 1, 0), (1, 1, 3)),
                    ((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1))]}
    kept = dropped = 0
    for case in range(600):
        n = 2 + case % 2
        rays = ray_sets[n][case // 2 % 4]
        pts = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
               for _ in range(rng.randint(1 if rays else n + 1, 8))]
        try:
            expected = fraction_homogenized_hull(pts, rays, n)
        except ValueError:
            with pytest.raises(ValueError):
                homogenized_hull(pts, rays, n)
            continue
        halfspaces, vertices = homogenized_hull(pts, rays, n)
        assert (halfspaces, vertices) == expected, (pts, rays)
        kept += len(vertices)
        dropped += len(pts) - len(vertices)
    assert kept >= 1000 and dropped >= 500, (kept, dropped)


def test_incidence_vertex_test_matches_rank_test():
    """The facet-incidence vertex test keeps the points the rank test of
    `fraction_homogenized_hull` keeps, on the inputs where containment of
    incidence sets decides: duplicated points, the centroid of the vertices
    on a facet, a vertex moved along a ray, interior points, the
    non-simplicial cone over (1,0,0), (0,1,0), (1,0,1), (0,1,1), bounded
    4-D hulls, and rays spanning a line, where no point is a vertex and
    only the rays' incidences show it.  Every offset is an ``int``."""
    rng = random.Random(41)
    ray_sets = [(2, (), ""), (2, ((1, 1),), ""), (2, ((1, 0), (-1, 0)), "line"),
                (3, (), ""), (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ""),
                (3, ((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)), "non_simplicial"),
                (3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0)), "line"),
                (4, (), "bounded_4d")]
    seen = dict.fromkeys(["duplicate", "face_centroid", "along_ray", "interior",
                          "non_simplicial", "bounded_4d", "line"], 0)
    for case in range(400):
        n, rays, kind = ray_sets[case % len(ray_sets)]
        pts = [tuple(rng.randint(0 if rays else -4, 4) for _ in range(n))
               for _ in range(rng.randint(n + 1, n + 5))]
        try:
            halfspaces, vertices = fraction_homogenized_hull(pts, rays, n)
        except ValueError:
            continue
        base = vertices or pts
        extra = [rng.choice(pts)]
        seen["duplicate"] += 1
        for u, c in halfspaces:
            face = [v for v in base if dot(u, v) == c]
            if len(face) > 1:
                extra.append(tuple(Fraction(sum(xs), len(face)) for xs in zip(*face)))
                seen["face_centroid"] += 1
        for r in rays:
            extra.append(tuple(a + b for a, b in zip(rng.choice(base), r)))
            seen["along_ray"] += 1
        # With the cone full-dimensional, the centroid of the vertices plus
        # every ray lies in the interior.
        inner = [Fraction(sum(xs), len(base)) for xs in zip(*base)]
        for r in rays:
            inner = [a + b for a, b in zip(inner, r)]
        extra.append(tuple(inner))
        seen["interior"] += all(dot(u, inner) > c for u, c in halfspaces)
        if kind in seen:
            seen[kind] += 1
        pts += extra
        rng.shuffle(pts)
        got = homogenized_hull(pts, rays, n)
        assert got == fraction_homogenized_hull(pts, rays, n), (pts, rays)
        assert all(type(c) is int for _, c in got[0]), got
        assert kind != "line" or got[1] == (), (pts, rays)
    assert min(seen.values()) >= 40, seen


def _chain_edges(halfspaces, vertices, rays):
    """Pairs of distinct vertices tight on one bounded facet."""
    return [pair for u, c in halfspaces if all(dot(u, r) > 0 for r in rays)
            for pair in itertools.combinations(
                sorted({v for v in vertices if dot(u, v) == c}), 2)]


def test_planar_chain_matches_double_description():
    """The monotone chain of a plane region over two independent rays finds
    the same halfspaces and vertices as the double-description reference,
    over random acute, obtuse and skew cones: integer cone points, rational
    points (denominators up to 4) inside and outside the cone, duplicated
    points, midpoints of chain edges, and a single point or the origin."""
    rng = random.Random(37)
    shapes = {"acute": 0, "obtuse": 0, "skew": 0}
    midpoints = 0
    for case in range(400):
        rays = None
        while rays is None:
            try:
                rays = dual_description([(rng.randint(-4, 4), rng.randint(-4, 4))
                                         for _ in range(2)]).rays
            except (ValueError, NotFullDimensional, NotStronglyConvex):
                pass
        if dot(*rays):
            shapes["acute" if dot(*rays) > 0 else "obtuse"] += 1
        shapes["skew"] += abs(det(rays)) > 1
        if case % 10 == 0:
            pts = [rng.choice([(0, 0), (Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                                        rng.randint(-3, 3))])]
        else:
            pts = []
            for _ in range(rng.randint(1, 6)):
                a, b = rng.randint(0, 4), rng.randint(0, 4)
                pts.append(tuple(a * x + b * y for x, y in zip(*rays)))
                pts.append(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                 for _ in range(2)))
            pts += rng.sample(pts, 2)
            halfspaces, vertices = fraction_homogenized_hull(pts, rays, 2)
            for v, w in _chain_edges(halfspaces, vertices, rays)[:2]:
                pts.append(tuple(Fraction(x + y, 2) for x, y in zip(v, w)))
                midpoints += 1
            rng.shuffle(pts)
        expected = fraction_homogenized_hull(pts, rays, 2)
        assert homogenized_hull(pts, rays, 2) == expected, (pts, rays)
    assert min(shapes.values()) >= 50 and midpoints >= 200, (shapes, midpoints)


def test_planar_hulls_skip_the_double_description_pass(monkeypatch):
    """Plane regions over two independent rays never reach the
    double-description pass, while a bounded plane hull still does."""
    cases = [(orthant(2), [(0, 3), (1, 1), (Fraction(5, 2), 0), (2, 2), (1, 1)]),
             (dual_description([(1, 0), (1, 2)]),
              [(2, 4), (1, 1), (Fraction(5, 2), 0), (3, 2), (1, 1), (2, 2)])]
    expected = [fraction_homogenized_hull(sorted(set(pts)), cone.rays, 2)
                for cone, pts in cases]

    class PassReached(Exception):
        pass

    def no_pass(constraints, dim, seed=None):
        raise PassReached

    regions._newton_region.cache_clear()
    monkeypatch.setattr(polytopes, "extreme_rays", no_pass)
    for (cone, pts), (halfspaces, vertices) in zip(cases, expected):
        assert homogenized_hull(sorted(set(pts)), cone.rays, 2) == (halfspaces, vertices)
        region = newton_region(cone, pts, (1, 1))
        assert (region.facets, region.generators) == (halfspaces, vertices)
    with pytest.raises(PassReached):
        hull_vertices(cases[0][1])


def _pinned_point_sets(rng, count):
    """Seeded point sets in R^2..R^4: three in ten flat (affine rank below d),
    a fifth with ``Fraction`` coordinates, and duplicated points."""
    for case in range(count):
        d = 2 + case % 3
        rank_ = rng.randint(0, d - 1) if case % 10 < 3 else d
        entry = ((lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                 if case % 5 == 4 else (lambda: rng.randint(-3, 3)))
        if rank_ == d:
            pts = [tuple(entry() for _ in range(d)) for _ in range(rng.randint(d + 1, d + 5))]
        else:
            p0 = tuple(entry() for _ in range(d))
            basis = [tuple(entry() for _ in range(d)) for _ in range(rank_)]
            lams = [[rng.randint(-2, 2) for _ in basis] for _ in range(rng.randint(1, d + 3))]
            pts = [tuple(x + sum(m * b[j] for m, b in zip(lam, basis))
                         for j, x in enumerate(p0)) for lam in lams]
        pts += rng.sample(pts, rng.randint(0, min(2, len(pts))))
        rng.shuffle(pts)
        yield pts


def test_hull_volume_is_d_factorial_times_the_volume():
    """`hull_volume` is d! times the volume, the |det| sum of the reference
    triangulation, in dimensions 1 to 4, and `polytope_volume` gives the
    same from d = 3 on.  On integer points it is an integer, and an
    ``int`` up to d = 3, where `det` expands by cofactors."""
    rng = random.Random(56)
    point_sets = list(_pinned_point_sets(rng, 300))
    point_sets += [[(rng.randint(-5, 5),) for _ in range(rng.randint(1, 4))]
                   for _ in range(20)]
    ints = 0
    for pts in point_sets:
        d = len(pts[0])
        ref = reference_hull(pts)
        expected = (_measure(reference_triangulate(ref), range(d))
                    if ref.affine_dim == d else 0)
        scaled = hull_volume(pts)
        assert scaled == expected, pts
        assert d < 3 or polytope_volume(pts) == scaled, pts
        if all(type(x) is int for p in pts for x in p):
            assert scaled == int(scaled) and (d > 3 or type(scaled) is int), pts
            ints += 1
    assert ints >= 150, ints


def test_flat_volume_builds_no_hull(monkeypatch):
    """From d = 3 on, a flat point set measures 0 from its pivot count,
    before any hull is built; a full-dimensional one is hulled once."""
    calls = []
    real = polytopes.homogenized_hull

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytopes, "homogenized_hull", counted)
    coplanar = [(x, y, 2 * x - y + 1) for x in range(6) for y in range(5)]
    assert volume(coplanar) == polytopes.polytope_volume(coplanar) == 0
    flat = 0
    for pts in _pinned_point_sets(random.Random(54), 300):
        if len(pts[0]) > 2 and rank([vec_sub(p, pts[0]) for p in pts]) < len(pts[0]):
            assert volume(pts) == 0, pts
            flat += 1
    assert flat >= 40 and calls == [], flat
    cube = list(itertools.product((0, 1), repeat=3))
    assert volume(cube) == 1 and len(calls) == 1


PINNED_HULL_DIGEST = "4062a8a46e8e763bce11c1d208e6d613d26c50e8c0a390ab54eb8637248fbcb1"


def test_hull_volume_and_triangulation_are_pinned():
    """`hull_volume` / d! and `triangulate_points` on 1,500 seeded point sets
    (flat ones, duplicates and ``Fraction`` coordinates included) hash to
    a fixed SHA-256, so a change of route cannot change a volume, a
    simplex or the order of the simplices."""
    digest = hashlib.sha256()
    flat = nonzero = 0
    for pts in _pinned_point_sets(random.Random(53), 1500):
        vol = volume(pts)
        simplices = triangulate_points(pts)
        flat += not simplices or len(simplices[0]) <= len(pts[0])
        nonzero += vol != 0
        digest.update(repr((vol, simplices)).encode() + b"\n")
    assert flat >= 400 and nonzero >= 900, (flat, nonzero)
    assert digest.hexdigest() == PINNED_HULL_DIGEST
