"""Lattice semigroups S = cone & Z^n, staircase ideals, and their counting.

A semigroup ideal is stored by its antichain of minimal generators.
Every antichain (generators, sums and powers of ideals, the Hilbert
basis) comes from one prune, handed the point sets whose sums it prunes:
candidates are swept in lexicographic order, so each is compared only
with the points already kept.  On the standard orthant each point is
packed into one int, so a sum of points is one integer addition and the
order an integer sort, and the sweep is a running minimum in the plane
and one query on a staircase of the kept points in 3-D.  On other cones
the candidates are ordered by their facet values, and with at most three
facets the comparison is the same staircase query.  The Hilbert-Samuel
function counts the finite complement S \\ I_k.  Every count splits the
cone into simplicial pieces and each piece into the |det| cosets of the
lattice spanned by its rays, one lattice point b of the half-open
fundamental parallelepiped each.  On a simplicial cone the ideal above b
is an orthant staircase in ray coordinates, counted in closed form in the
plane, in 3-D by one plane staircase and its area grown point by point as
the last coordinate rises, and by slices above that, with no prune.  On
any cone a complement point sits below the least generator multiple of
each ray in some piece, so the complement is read off those coset boxes.
The same coset points are the Hilbert basis candidates.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cones import RationalCone, is_positive_on_cone
from .errors import ConeMismatch, InvariantViolation, NotCobounded, NotPrimary
from .linalg import det, dot, integer_dual_basis, primitive, vec_sub
from .polytopes import triangulate_points
from .regions import NewtonRegion, newton_region

NEVER_DOMINATED = ("staircase complement is infinite: "
                   "some ray of the cone is never dominated")
MAX_COSET_CANDIDATES = 2 ** 16  # the most points `_coset_complement` lists


@dataclass(frozen=True)
class LatticeSemigroup:
    """All lattice points of a strongly convex full-dimensional cone."""

    cone: RationalCone
    ell: tuple  # primitive integer functional, strictly positive on the cone

    @property
    def dim(self) -> int:
        return self.cone.dim


def lattice_semigroup(cone: RationalCone, ell=None) -> LatticeSemigroup:
    """The semigroup cone & Z^n graded by `ell`; by default the sum of the
    facet normals, which is strictly positive on the pointed cone."""
    if ell is None:
        ell = [sum(column) for column in zip(*cone.facets)]
    ell = primitive(ell)
    if not is_positive_on_cone(ell, cone):
        raise ValueError("level functional must be strictly positive on the cone")
    return LatticeSemigroup(cone=cone, ell=ell)


@dataclass(frozen=True)
class SemigroupIdealSet:
    """Ideal I = union of (g + S) over the minimal generator antichain."""

    semigroup: LatticeSemigroup
    min_generators: tuple

    def contains(self, x) -> bool:
        cone = self.semigroup.cone
        return any(cone.contains(vec_sub(x, g)) for g in self.min_generators)


def _prune_to_antichain(cone: RationalCone, *summands) -> tuple:
    """Minimal elements of the sums p_1 + ... + p_m, one p_j from each of
    the m `summands` (the points themselves when m = 1), under q <= p iff
    p - q lies in the cone.  Returned lexicographically sorted.

    On the standard orthant each point is packed into one int: coordinate
    i in the i-th field of w bits from the top, where w is one bit more
    than the largest coordinate sum needs.  No field then carries into the
    next, so sums of points are sums of ints and the lexicographic order is
    the order of the ints, and the sweep reads the coordinates back with
    shifts and masks.  On any other cone each point is mapped once to its
    facet values F p; p - q is in the cone exactly when F p >= F q
    componentwise.
    """
    if not all(summands):
        return ()
    if _is_standard_orthant(cone):
        n = cone.dim
        columns = [list(zip(*points)) for points in summands]
        w = sum(max(map(max, c)) for c in columns).bit_length() + 1
        sums = (0,)
        for packed, *rest in columns:
            for column in rest:
                packed = map(operator.or_,
                             map(operator.lshift, packed, itertools.repeat(w)), column)
            sums = {s + q for q in packed for s in sums}
        kept = _packed_minima(sorted(sums), n, w)
        mask = (1 << w) - 1
        return tuple(zip(*[[v >> s & mask for v in kept]
                           for s in range(w * (n - 1), -1, -w)]))
    points = set(summands[0])
    for more in summands[1:]:
        points = {tuple(map(operator.add, p, q)) for p in points for q in more}
    facets = cone.facets
    return _minima(sorted((tuple(dot(f, p) for f in facets), p) for p in points),
                   len(facets))


def _packed_minima(keys, n: int, w: int) -> list:
    """The minimal ones of the sorted, distinct packed orthant points `keys`
    (n fields of `w` bits, the top bit of each clear), in order.

    A point below p and distinct from it is a smaller int, so p is tested
    only against the points already kept.  For n <= 2 their first fields
    are <= p's, so one lies below p exactly when the least last field kept
    so far is <= p's: a running minimum.  For n = 3 the last two fields
    y 2^w + z of the kept points are held as a staircase, the staircase of
    `_minima` in one sorted list: y ascending and z strictly descending.
    Above that, q lies below p exactly when ((p | H) - q) & H == H, H the
    fields' top bits: each field of p | H minus q's stays in the field and
    keeps its top bit exactly when p's entry is >= q's.
    """
    mask = (1 << w) - 1
    kept = []
    if n < 3:
        low = mask + 1
        for v in keys:
            if v & mask < low:
                low = v & mask
                kept.append(v)
    elif n == 3:
        stair = []
        for v in keys:
            yz, z = v & (mask << w | mask), v & mask
            i = bisect.bisect_right(stair, yz | mask)
            if i and stair[i - 1] & mask <= z:
                continue
            j = k = bisect.bisect_left(stair, yz - z, 0, i)
            while k < len(stair) and stair[k] & mask >= z:
                k += 1
            stair[j:k] = [yz]
            kept.append(v)
    else:
        top = sum(1 << (w * i + w - 1) for i in range(n))
        for v in keys:
            if not any((v | top) - q & top == top for q in kept):
                kept.append(v)
    return kept


def _minima(order, width: int) -> tuple:
    """Points whose values are componentwise minimal, sorted: the sweep of
    `_prune_to_antichain` on facet values, off the standard orthant.

    `order` holds (values, point) pairs with `width` values each, sorted
    lexicographically, with distinct values for distinct points.  If q's
    values lie below p's and differ from them, q comes strictly earlier in
    that order, so p is tested only against the points already kept.  With at most three
    values, padded to (v1, v2, v3), the kept points' (v2, v3) are held as a
    staircase: v2 ascending and v3 strictly descending, so each entry is
    minimal among them.  Every kept point has v1 <= p's v1, so one lies
    below p exactly when the last entry with v2 <= p's v2 has v3 <= p's v3.
    A kept p replaces the entries it lies below, which run from the first
    entry with v2 >= p's v2 while v3 >= p's v3.  Wider values are tested
    against every kept point.
    """
    kept = []
    if width > 3:
        values = []
        for v, p in order:
            if not any(all(map(operator.ge, v, w)) for w in values):
                values.append(v)
                kept.append(p)
        return tuple(sorted(kept))
    pad = (0,) * (3 - width)
    ys, zs = [], []
    for v, p in order:
        _, y, z = v + pad
        i = bisect.bisect_right(ys, y)
        if i and zs[i - 1] <= z:
            continue
        j = k = bisect.bisect_left(ys, y, 0, i)
        while k < len(zs) and zs[k] >= z:
            k += 1
        ys[j:k] = [y]
        zs[j:k] = [z]
        kept.append(p)
    return tuple(sorted(kept))


def semigroup_ideal(semigroup: LatticeSemigroup, generators) -> SemigroupIdealSet:
    gens = []
    for given in map(tuple, generators):
        if len(given) != semigroup.dim:
            raise ValueError(f"generator dimension mismatch: {given} has "
                             f"{len(given)} entries, the semigroup has "
                             f"dimension {semigroup.dim}")
        g = tuple(int(x) for x in given)
        if g != given:
            raise ValueError(f"generator {given} has a non-integer coordinate")
        if not semigroup.cone.contains(g):
            raise ValueError(f"generator {g} is not in the semigroup")
        gens.append(g)
    if not gens:
        raise ValueError("need at least one generator")
    return SemigroupIdealSet(semigroup=semigroup,
                             min_generators=_prune_to_antichain(semigroup.cone, gens))


@functools.lru_cache(maxsize=128)
def ideal_power(ideal: SemigroupIdealSet, k: int) -> SemigroupIdealSet:
    """Minimal generators of the k-fold sum I + ... + I, pruned at each step.

    The cache holds the 64 powers a fit asks for, of two ideals at once.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    if k == 1:
        return ideal
    return sum_ideals(ideal_power(ideal, k - 1), ideal)


def sum_ideals(a: SemigroupIdealSet, b: SemigroupIdealSet) -> SemigroupIdealSet:
    if a.semigroup != b.semigroup:
        raise ConeMismatch("ideals over different semigroups")
    return SemigroupIdealSet(semigroup=a.semigroup, min_generators=_prune_to_antichain(
        a.semigroup.cone, a.min_generators, b.min_generators))


# ---------------------------------------------------------------------------
# Hilbert basis and level enumeration
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _cosets(rays: tuple):
    """The cosets of the lattice spanned by n primitive rays r_i in Z^n.

    With D = |det R| and integer adjugate rows a_j (a_j . r_i = D [i == j],
    from `linalg.integer_dual_basis`), every lattice point x is
    b + sum mu_j r_j with mu_j = floor(a_j . x / D), where b lies in the
    half-open parallelepiped: 0 <= a_j . b < D.  The residues
    c = (a_j . x mod D) form Z^n / R Z^n, a group of order D generated by
    the images of the unit vectors, so it is closed from 0 by adding those,
    one step per coset and unit vector.  Returns D, the adjugate rows and
    the (c, b) pairs; b = sum c_j r_j / D.  The cache holds the simplicial
    pieces of a few cones at once.
    """
    n = len(rays)
    _, d, adj = integer_dual_basis(rays, n)
    steps = [tuple(a[i] % d for a in adj) for i in range(n)]
    seen = {(0,) * n}
    stack = list(seen)
    while stack:
        c = stack.pop()
        for step in steps:
            nxt = tuple((x + y) % d for x, y in zip(c, step))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != d:
        raise InvariantViolation(f"found {len(seen)} cosets of a lattice "
                                 f"of index {d}")
    cosets = [(c, tuple(sum(x * r[i] for x, r in zip(c, rays)) // d
                        for i in range(n)))
              for c in sorted(seen)]
    return d, adj, cosets


def _simplicial_pieces(cone: RationalCone) -> list:
    """Ray tuples of simplicial subcones covering the cone: the cone itself
    when simplicial, else one per simplex of a triangulated cross-section."""
    if len(cone.rays) == cone.dim:
        return [cone.rays]
    ell0 = lattice_semigroup(cone).ell
    section = [tuple(Fraction(x, dot(ell0, r)) for x in r) for r in cone.rays]
    return [tuple(primitive(v) for v in simplex)
            for simplex in triangulate_points(section)]


@functools.lru_cache(maxsize=32)
def hilbert_basis(cone: RationalCone) -> tuple:
    """Minimal generating set of cone & Z^n (Gordan enumeration).

    Candidates are the nonzero coset points of each simplicial piece's
    half-open fundamental parallelepiped plus the primitive rays (a point of
    the closed parallelepiped with a coordinate 1 is a ray or reducible);
    the irreducible ones are the minimal nonzero candidates.
    """
    candidates = set(cone.rays)
    for rays in _simplicial_pieces(cone):
        candidates.update(b for _, b in _cosets(rays)[2] if any(b))
    return _prune_to_antichain(cone, candidates)


def _is_standard_orthant(cone: RationalCone) -> bool:
    """The facets are the n unit vectors: a cone's facets are distinct and
    nonzero, so n of them whose entries are n ones and zeros are those."""
    n = cone.dim
    entries = sum(cone.facets, ())
    return (len(cone.facets) == n and entries.count(1) == n
            and entries.count(0) == n * n - n)


def iter_points_at_level(semigroup: LatticeSemigroup, level: int):
    """Lattice points of the cone at exact level `level`, sorted."""
    cone, ell = semigroup.cone, semigroup.ell
    n = semigroup.dim
    if level < 0:
        return
    # Bounding box of the level slice conv{level * r / ell(r)}.
    verts = [tuple(Fraction(level * x, dot(ell, r)) for x in r) for r in cone.rays]
    lo = [int(min(v[i] for v in verts).__ceil__()) for i in range(n)]
    hi = [int(max(v[i] for v in verts).__floor__()) for i in range(n)]
    for p in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if dot(ell, p) == level and cone.contains(p):
            yield p


def staircase_region(ideal: SemigroupIdealSet) -> NewtonRegion:
    """Newton region conv(min_generators) + cone of the staircase.

    Raises NotPrimary when the complement is infinite, i.e. when the region
    is not cobounded: some extreme ray carries no generator.
    """
    try:
        return newton_region(ideal.semigroup.cone, ideal.min_generators,
                             ideal.semigroup.ell)
    except NotCobounded as exc:
        raise NotPrimary(NEVER_DOMINATED) from exc


def _coset_complement(ideal: SemigroupIdealSet) -> tuple:
    """The finite set S \\ I, sorted; raises NotPrimary when it is infinite.

    A multiple of an extreme ray r lies in I only above a generator on r;
    let c_r be the least such multiple, and raise NotPrimary when a ray has
    none.  In a simplicial piece on rays r_j, x = b + sum mu_j r_j over its
    coset point b (see `_cosets`) lies in c_j r_j + S once mu_j >= c_j, so
    the complement is among the points with every mu_j < c_j.  Those that
    no generator lies below, compared by facet values, are kept.  A piece
    holds |det R| * prod c_j of them: past the cap, ValueError at once.
    """
    sg = ideal.semigroup
    cone = sg.cone
    least = {}
    for g in ideal.min_generators:
        for r in cone.rays:
            c = dot(sg.ell, g) // dot(sg.ell, r)
            if tuple(c * x for x in r) == g:
                least[r] = c
    if len(least) != len(cone.rays):
        raise NotPrimary(NEVER_DOMINATED)
    pieces = _simplicial_pieces(cone)
    count = sum(abs(det(rays)) * math.prod(least[r] for r in rays)
                for rays in pieces)
    if count > MAX_COSET_CANDIDATES:
        raise ValueError(f"the complement has {count} candidate points, "
                         f"more than the cap of {MAX_COSET_CANDIDATES}")
    values = {}
    for rays in pieces:
        for _, b in _cosets(rays)[2]:
            for mu in itertools.product(*(range(least[r]) for r in rays)):
                p = tuple(x + dot(mu, column) for x, column in zip(b, zip(*rays)))
                values[p] = [dot(f, p) for f in cone.facets]
    gen_values = [[dot(f, g) for f in cone.facets] for g in ideal.min_generators]
    return tuple(sorted(p for p, v in values.items() if not any(
        all(map(operator.ge, v, w)) for w in gen_values)))


def _orthant_colength(gens, n: int) -> int:
    """#(N^n minus the union of g + N^n), for any sequence of generators:
    neither an antichain nor distinct points are needed.

    In the plane, sorted by x, the column at x holds the points below the
    least y of the generators with first coordinate <= x, so the count is
    the sum of (x_{i+1} - x_i) m_i over the running minima m_i of y, taken
    where the minimum drops; it is finite exactly when the first x and the
    last running minimum are 0.
    Above that, sorted by the last coordinate, the slice at height h is the
    complement of the generators with last coordinate <= h, constant
    between consecutive last coordinates and grown as the height rises; it
    must be empty from the highest of them on.  In 3-D one plane staircase
    and its area are grown point by point (`_grow_plane`); in higher
    dimensions each slice is counted anew.
    """
    if n == 1:
        if not gens:
            raise NotPrimary(NEVER_DOMINATED)
        return min(g[0] for g in gens)
    if n == 2:
        ordered = sorted(gens)
        if not ordered or ordered[0][0]:
            raise NotPrimary(NEVER_DOMINATED)
        total = 0
        x0, low = ordered[0]
        for x, y in ordered:
            if y < low:
                total += (x - x0) * low
                x0, low = x, y
        if low:
            raise NotPrimary(NEVER_DOMINATED)
        return total
    ordered = sorted(gens, key=operator.itemgetter(-1))
    if n == 3:
        return _grow_plane(ordered, 1 + max(map(max, ordered), default=0))
    total, height, layer = 0, 0, []
    for g in ordered:
        if g[-1] > height:
            total += (g[-1] - height) * _orthant_colength(layer, n - 1)
            height = g[-1]
        layer.append(g[:-1])
    if _orthant_colength(layer, n - 1):
        raise NotPrimary(NEVER_DOMINATED)
    return total


def _grow_plane(ordered, top: int) -> int:
    """The 3-D orthant count of `_orthant_colength` over generators sorted
    by z, each coordinate below `top`.

    The slice is cut to the box [0, top)^2, which holds all of it once it
    is finite: its staircase xs ascending, ys strictly descending, starts
    as the corners (0, top) and (top, 0), and is finite exactly when a
    generator has replaced both.  Its area is sum (xs[t+1] - xs[t]) ys[t].
    With i the first entry right of x, a new (x, y) lies above an entry
    exactly when it lies above entry i - 1.  Otherwise it takes away the
    part of the slice above it: height ys[i-1] - y over [x, xs[i]), then
    ys[t] - y over [xs[t], xs[t+1]) for the entries t from i with
    ys[t] > y, which it replaces together with an entry at x or one at
    height y.
    """
    xs, ys = [0, top], [top, 0]
    area, total, height = top * top, 0, 0
    for x, y, z in ordered:
        if z > height:
            if ys[0] == top or xs[-1] == top:
                raise NotPrimary(NEVER_DOMINATED)
            total += (z - height) * area
            height = z
        i = bisect.bisect_right(xs, x)
        if ys[i - 1] <= y:
            continue
        area -= (xs[i] - x) * (ys[i - 1] - y)
        k = i
        while ys[k] > y:
            area -= (xs[k + 1] - xs[k]) * (ys[k] - y)
            k += 1
        if ys[k] == y:
            k += 1
        j = i - 1 if xs[i - 1] == x else i
        xs[j:k] = [x]
        ys[j:k] = [y]
    if area:
        raise NotPrimary(NEVER_DOMINATED)
    return total


def complement_count(ideal: SemigroupIdealSet) -> int:
    """#(S \\ I), without materializing the complement on simplicial cones.

    Write a lattice point of a simplicial cone as x = b + sum mu_j r_j over
    its coset point b (see `_cosets`).  The cone is {a_j . y >= 0}, so x
    lies in g + cone exactly when mu_j >= ceil(a_j . (g - b) / D) for every
    j: above each b the ideal is the orthant staircase generated by
    ceil(a . (g - b) / D), which is >= 0 since a . g >= 0 and a . b < D,
    and the count is the sum of their `_orthant_colength`.  The orthant is
    the case D = 1, b = 0, with the generators used as they are.

    A non-simplicial cone has no such orthant count: in the coordinates of
    a simplicial piece, x - g may lie in the cone while the coordinate test
    fails.  On the cone over (1,0,0), (0,1,0), (1,0,1), (0,1,1), with the
    piece on its first three rays, x = (2,1,2) and g = (2,0,1) have
    x - g = (0,1,1) in the cone, but in piece coordinates x is (0,1,2) and
    g is (1,0,1).  There the points `_coset_complement` lists from the
    coset boxes are counted.
    """
    sg = ideal.semigroup
    n = sg.dim
    if _is_standard_orthant(sg.cone):
        return _orthant_colength(ideal.min_generators, n)
    if len(sg.cone.rays) != n:
        return len(_coset_complement(ideal))
    d, adj, cosets = _cosets(sg.cone.rays)
    coords = [tuple(dot(a, g) for a in adj) for g in ideal.min_generators]
    total = 0
    for c, _ in cosets:
        # ceil((a . g - c) / d), never negative: a . g >= 0 and c < d
        gens = [tuple(-((x - y) // d) for x, y in zip(c, ag)) for ag in coords]
        total += _orthant_colength(gens, n)
    return total
