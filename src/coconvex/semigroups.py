"""Lattice semigroups S = cone & Z^n, staircase ideals, and their counting.

A semigroup ideal is stored by its antichain of minimal generators.
Every antichain (generators, sums and powers of ideals, the Hilbert
basis) comes from one prune: candidates are swept in lexicographic order
of their facet values, so each is compared only with the points already
kept, and with at most three facets that comparison is one query on a
staircase of the kept points.  The Hilbert-Samuel function counts the
finite complement S \\ I_k.  Every count splits the cone into
simplicial pieces and each piece into the |det| cosets of the lattice
spanned by its rays, one lattice point b of the half-open fundamental
parallelepiped each.  On a simplicial cone the ideal above b is an
orthant staircase in ray coordinates, counted in closed form in the plane
and by slices grown along the last coordinate above it, with no prune.  On
any cone a complement point sits below the least generator multiple of
each ray in some piece, so the complement is read off those coset boxes.
The same coset points are the Hilbert basis candidates.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cones import RationalCone, is_positive_on_cone
from .errors import ConeMismatch, InvariantViolation, NotCobounded, NotPrimary
from .linalg import dot, integer_dual_basis, primitive, vec_sub
from .polytopes import triangulate_points
from .regions import NewtonRegion, newton_region

NEVER_DOMINATED = ("staircase complement is infinite: "
                   "some ray of the cone is never dominated")


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


def _prune_to_antichain(cone: RationalCone, points) -> tuple:
    """Minimal elements of `points` under q <= p iff p - q lies in the cone.

    Each point is mapped once to its facet values F p; p - q is in the cone
    exactly when F p >= F q componentwise.  On the standard orthant F p is
    a permutation of p, so p itself serves.  Returned lexicographically
    sorted.
    """
    if _is_standard_orthant(cone):
        return _minima([(p, p) for p in sorted(set(points))], cone.dim)
    facets = cone.facets
    return _minima(sorted((tuple(dot(f, p) for f in facets), p)
                          for p in set(points)), len(facets))


def _minima(order, width: int) -> tuple:
    """Points whose values are componentwise minimal, sorted.

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


@functools.lru_cache(maxsize=None)
def ideal_power(ideal: SemigroupIdealSet, k: int) -> SemigroupIdealSet:
    """Minimal generators of the k-fold sum I + ... + I, pruned at each step."""
    if k < 1:
        raise ValueError("power must be >= 1")
    if k == 1:
        return ideal
    return sum_ideals(ideal_power(ideal, k - 1), ideal)


def sum_ideals(a: SemigroupIdealSet, b: SemigroupIdealSet) -> SemigroupIdealSet:
    if a.semigroup != b.semigroup:
        raise ConeMismatch("ideals over different semigroups")
    sums = {tuple(map(operator.add, p, q))
            for p in a.min_generators for q in b.min_generators}
    return SemigroupIdealSet(semigroup=a.semigroup,
                             min_generators=_prune_to_antichain(a.semigroup.cone, sums))


# ---------------------------------------------------------------------------
# Hilbert basis and level enumeration
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _cosets(rays: tuple):
    """The cosets of the lattice spanned by n primitive rays r_i in Z^n.

    With D = |det R| and integer adjugate rows a_j (a_j . r_i = D [i == j],
    from `linalg.integer_dual_basis`), every lattice point x is
    b + sum mu_j r_j with mu_j = floor(a_j . x / D), where b lies in the
    half-open parallelepiped: 0 <= a_j . b < D.  The residues
    c = (a_j . x mod D) form Z^n / R Z^n, a group of order D generated by
    the images of the unit vectors, so it is closed from 0 by adding those,
    one step per coset and unit vector.  Returns D, the adjugate rows and
    the (c, b) pairs; b = sum c_j r_j / D.
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


@functools.lru_cache(maxsize=None)
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
    no generator lies below, compared by facet values, are kept.
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
    values = {}
    for rays in _simplicial_pieces(cone):
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
    staircase of the generators with last coordinate <= h, constant between
    consecutive last coordinates and grown as the height rises; it must be
    everything from the highest of them on.
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
    total, height, layer = 0, 0, []
    for g in sorted(gens, key=operator.itemgetter(-1)):
        if g[-1] > height:
            total += (g[-1] - height) * _orthant_colength(layer, n - 1)
            height = g[-1]
        layer.append(g[:-1])
    if _orthant_colength(layer, n - 1):
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
