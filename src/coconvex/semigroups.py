"""Lattice semigroups S = cone & Z^n, staircase ideals, and their counting.

A semigroup ideal is stored by its antichain of minimal generators.  Every
antichain (generators, sums and powers of ideals, orthant slices, the
Hilbert basis) comes from one prune: candidates are ordered by the sum of
their facet values, a level strictly positive on the cone minus the
origin, so each candidate is compared only with the lower points already
kept.  The Hilbert-Samuel function counts the finite complement
S \\ I_k.  Counting walks the integer level sets of the positivity
functional upward and stops once a full window of levels is clean, which
certifies (by peeling Hilbert basis elements) that everything above lies
in the ideal.  Orthant staircases additionally get a fast slice recursion
used by the large random suites.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cones import RationalCone, is_positive_on_cone, orthant
from .errors import ConeMismatch, NotCobounded, NotPrimary, WrongArity
from .linalg import dot, dual_basis, primitive, vec_sub
from .polytopes import hull_vertices, triangulate
from .regions import NewtonRegion, covol, minkowski_sum, mixed_covol, newton_region

SCAN_SAFETY_FACTOR = 1024  # level scan aborts at this multiple of the threshold


@dataclass(frozen=True)
class LatticeSemigroup:
    """All lattice points of a strongly convex full-dimensional cone."""

    cone: RationalCone
    ell: tuple  # primitive integer functional, strictly positive on the cone

    @property
    def dim(self) -> int:
        return self.cone.dim


def lattice_semigroup(cone: RationalCone, ell=None) -> LatticeSemigroup:
    if ell is None:
        acc = [0] * cone.dim
        for f in cone.facets:
            acc = [a + b for a, b in zip(acc, f)]
        ell = acc
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

    @property
    def is_whole_semigroup(self) -> bool:
        return self.min_generators == (tuple(0 for _ in range(self.semigroup.dim)),)


def _prune_to_antichain(cone: RationalCone, points) -> tuple:
    """Minimal elements of `points` under q <= p iff p - q lies in the cone.

    Each point is mapped once to its facet values F p; p - q is in the cone
    exactly when F p >= F q componentwise.  The level sum(F p) is strictly
    positive on the cone minus the origin, so every point below p comes
    strictly earlier in level order and p is tested only against the
    points already kept.  Returned lexicographically sorted.
    """
    values = {p: tuple(dot(f, p) for f in cone.facets) for p in set(points)}
    kept = {}
    for p in sorted(values, key=lambda p: sum(values[p])):
        v = values[p]
        if not any(all(map(operator.ge, v, w)) for w in kept.values()):
            kept[p] = v
    return tuple(sorted(kept))


def semigroup_ideal(semigroup: LatticeSemigroup, generators) -> SemigroupIdealSet:
    gens = [tuple(int(x) for x in g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        if not semigroup.cone.contains(g):
            raise ValueError(f"generator {g} is not in the semigroup")
    return SemigroupIdealSet(semigroup=semigroup,
                             min_generators=_prune_to_antichain(semigroup.cone, gens))


@functools.lru_cache(maxsize=None)
def ideal_power(ideal: SemigroupIdealSet, k: int) -> SemigroupIdealSet:
    """Minimal generators of the k-fold sum I + ... + I, pruned at each step."""
    if k < 1:
        raise ValueError("power must be >= 1")
    if k == 1:
        return ideal
    prev = ideal_power(ideal, k - 1)
    cone = ideal.semigroup.cone
    sums = {tuple(a + b for a, b in zip(p, q))
            for p in prev.min_generators for q in ideal.min_generators}
    return SemigroupIdealSet(semigroup=ideal.semigroup,
                             min_generators=_prune_to_antichain(cone, sums))


def sum_ideals(a: SemigroupIdealSet, b: SemigroupIdealSet) -> SemigroupIdealSet:
    if a.semigroup != b.semigroup:
        raise ConeMismatch("ideals over different semigroups")
    sums = {tuple(x + y for x, y in zip(p, q))
            for p in a.min_generators for q in b.min_generators}
    return SemigroupIdealSet(semigroup=a.semigroup,
                             min_generators=_prune_to_antichain(a.semigroup.cone, sums))


# ---------------------------------------------------------------------------
# Hilbert basis and level enumeration
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def hilbert_basis(cone: RationalCone) -> tuple:
    """Minimal generating set of cone & Z^n (Gordan enumeration).

    The cone is split into simplicial subcones through a triangulated
    cross-section; candidates are the lattice points of each fundamental
    parallelepiped plus the primitive rays; the irreducible ones are the
    minimal nonzero candidates.
    """
    n = cone.dim
    if len(cone.rays) == n:
        subcones = [cone.rays]
    else:
        acc = [0] * n
        for f in cone.facets:
            acc = [a + b for a, b in zip(acc, f)]
        ell0 = primitive(acc)
        section = [tuple(Fraction(x, dot(ell0, r)) for x in r) for r in cone.rays]
        poly = hull_vertices(section)
        subcones = [tuple(primitive(v) for v in simplex)
                    for simplex in triangulate(poly)]
    candidates = set(cone.rays)
    for rays in subcones:
        lo = [sum(min(0, r[i]) for r in rays) for i in range(n)]
        hi = [sum(max(0, r[i]) for r in rays) for i in range(n)]
        # p = sum lam_j r_j has lam_j = y_j . p for the dual basis y_j.
        duals = dual_basis(rays)
        for p in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
            if all(x == 0 for x in p):
                continue
            if all(0 <= dot(y, p) <= 1 for y in duals):
                candidates.add(p)
    return _prune_to_antichain(cone, candidates)


def _is_standard_orthant(cone: RationalCone) -> bool:
    return cone == orthant(cone.dim)


def iter_points_at_level(semigroup: LatticeSemigroup, level: int):
    """Lattice points of the cone at exact level `level`, sorted."""
    cone, ell = semigroup.cone, semigroup.ell
    n = semigroup.dim
    if level < 0:
        return
    if _is_standard_orthant(cone):
        def rec(prefix, idx, budget):
            if idx == n - 1:
                if budget % ell[idx] == 0:
                    yield prefix + (budget // ell[idx],)
                return
            for v in range(budget // ell[idx] + 1):
                yield from rec(prefix + (v,), idx + 1, budget - v * ell[idx])
        yield from rec((), 0, level)
        return
    if level == 0:
        yield tuple(0 for _ in range(n))
        return
    # Bounding box of the level slice conv{level * r / ell(r)}.
    verts = [tuple(Fraction(level * x, dot(ell, r)) for x in r) for r in cone.rays]
    lo = [int(min(v[i] for v in verts).__ceil__()) for i in range(n)]
    hi = [int(max(v[i] for v in verts).__floor__()) for i in range(n)]
    for p in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if dot(ell, p) == level and cone.contains(p):
            yield p


def level_height(semigroup: LatticeSemigroup) -> int:
    """Max level of a Hilbert basis element; the clean-run window width."""
    return max(dot(semigroup.ell, h) for h in hilbert_basis(semigroup.cone))


def staircase_region(ideal: SemigroupIdealSet) -> NewtonRegion:
    """Newton region conv(min_generators) + cone of the staircase."""
    return newton_region(ideal.semigroup.cone, ideal.min_generators,
                         ideal.semigroup.ell)


@functools.lru_cache(maxsize=None)
def _complement_scan(ideal: SemigroupIdealSet):
    """Complement points and the first level t1 with S & {l >= t1} inside I.

    Certifies finiteness through the staircase region's threshold first,
    then scans integer levels upward until `level_height` consecutive
    levels contain no complement point: peeling Hilbert basis elements
    shows every higher point then lies in the ideal.
    """
    try:
        region = staircase_region(ideal)
    except NotCobounded as exc:
        raise NotPrimary("staircase complement is infinite: "
                         "some ray of the cone is never dominated") from exc
    sg = ideal.semigroup
    h = level_height(sg)
    # Generators sorted by level lets membership skip those above the point.
    gens_by_level = sorted(ideal.min_generators, key=lambda g: dot(sg.ell, g))
    gen_levels = [dot(sg.ell, g) for g in gens_by_level]
    cone = sg.cone

    def member(x, level):
        for g, gl in zip(gens_by_level, gen_levels):
            if gl > level:
                return False
            if cone.contains(vec_sub(x, g)):
                return True
        return False

    safety = SCAN_SAFETY_FACTOR * (int(region.threshold) + h + 1)
    points = []
    level = 0
    clean = 0
    while clean < h:
        bad = [x for x in iter_points_at_level(sg, level) if not member(x, level)]
        if bad:
            points.extend(bad)
            clean = 0
        else:
            clean += 1
        level += 1
        if level > safety:
            raise NotPrimary("level scan exceeded the safety cap")
    t1 = level - h
    return tuple(points), t1


def complement_points(ideal: SemigroupIdealSet) -> tuple:
    """The finite set S \\ I, sorted; raises NotPrimary when infinite."""
    return tuple(sorted(_complement_scan(ideal)[0]))


@functools.lru_cache(maxsize=None)
def _orthant_colength(gens: frozenset, n: int) -> int:
    """Complement count of an orthant staircase by last-coordinate slices."""
    if n == 1:
        if not gens:
            raise NotPrimary("missing pure power along an axis")
        return min(g[0] for g in gens)
    cuts = sorted({g[-1] for g in gens})
    if not cuts:
        raise NotPrimary("empty staircase")
    if cuts[0] != 0:
        cuts = [0] + cuts
    slice_cone = orthant(n - 1)
    total = 0
    for j, v in enumerate(cuts):
        active = frozenset(_prune_to_antichain(
            slice_cone, [g[:-1] for g in gens if g[-1] <= v]))
        if j + 1 < len(cuts):
            if not active:
                raise NotPrimary("missing pure power along an axis")
            total += (cuts[j + 1] - v) * _orthant_colength(active, n - 1)
        else:
            if _orthant_colength(active, n - 1) != 0:
                raise NotPrimary("missing pure power along an axis")
    return total


def complement_count(ideal: SemigroupIdealSet) -> int:
    """#(S \\ I); the orthant fast path avoids materializing the complement."""
    if _is_standard_orthant(ideal.semigroup.cone):
        return _orthant_colength(frozenset(ideal.min_generators),
                                 ideal.semigroup.dim)
    return len(_complement_scan(ideal)[0])


# ---------------------------------------------------------------------------
# Primary graded sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimaryGradedSequence:
    """Graded sequence I_k with I_k + I_m inside I_{k+m}.

    kind "powers": I_k = k * base; "product": I_k = I'_k + I''_k;
    "explicit": a finite materialized prefix (inner data only).
    """

    semigroup: LatticeSemigroup
    kind: str
    base: SemigroupIdealSet | None = None
    factors: tuple | None = None
    prefix: tuple | None = None

    def term(self, k: int) -> SemigroupIdealSet:
        if k < 1:
            raise ValueError("index must be >= 1")
        if self.kind == "powers":
            return ideal_power(self.base, k)
        if self.kind == "product":
            a, b = self.factors
            return sum_ideals(a.term(k), b.term(k))
        if k > len(self.prefix):
            raise ValueError(f"term {k} is not materialized")
        return self.prefix[k - 1]

    @property
    def exact_region(self) -> bool:
        return self.kind != "explicit"


def power_sequence(ideal: SemigroupIdealSet) -> PrimaryGradedSequence:
    return PrimaryGradedSequence(semigroup=ideal.semigroup, kind="powers",
                                 base=ideal)


def product_sequence(a: PrimaryGradedSequence,
                     b: PrimaryGradedSequence) -> PrimaryGradedSequence:
    if a.semigroup != b.semigroup:
        raise ConeMismatch("sequences over different semigroups")
    return PrimaryGradedSequence(semigroup=a.semigroup, kind="product",
                                 factors=(a, b))


def explicit_sequence(ideals) -> PrimaryGradedSequence:
    ideals = tuple(ideals)
    if not ideals:
        raise ValueError("need at least one term")
    sg = ideals[0].semigroup
    for ik in ideals:
        if ik.semigroup != sg:
            raise ConeMismatch("terms over different semigroups")
    for k in range(1, len(ideals) + 1):
        for m in range(1, len(ideals) - k + 1):
            summed = sum_ideals(ideals[k - 1], ideals[m - 1])
            target = ideals[k + m - 1]
            if not all(target.contains(g) for g in summed.min_generators):
                raise ValueError(f"gradedness fails: I_{k} + I_{m} is not "
                                 f"inside I_{k + m}")
    return PrimaryGradedSequence(semigroup=sg, kind="explicit", prefix=ideals)


def primary_certificate(ideal: SemigroupIdealSet) -> Fraction:
    """Constructive t0 for the power sequence of the ideal.

    Finds t1 with S & {l >= t1} inside I, takes every semigroup point in
    the window [t1, 2 t1 + h - 1] as a generating set of M1 = S & {l >= t1}
    (peeling shows the window generates), and returns one more than the
    largest generator level.
    """
    if ideal.is_whole_semigroup:
        return Fraction(1)
    _, t1 = _complement_scan(ideal)
    sg = ideal.semigroup
    h = level_height(sg)
    top = 2 * t1 + h - 1
    best = 0
    for level in range(t1, top + 1):
        for _ in iter_points_at_level(sg, level):
            best = max(best, level)
            break
    return Fraction(best + 1)


def sequence_t0(seq: PrimaryGradedSequence) -> Fraction:
    """Certified t0 with I_k & {l >= k t0} = S & {l >= k t0} for all k."""
    if seq.kind == "powers":
        return primary_certificate(seq.base)
    if seq.kind == "product":
        a, b = seq.factors
        return sequence_t0(a) + sequence_t0(b) + level_height(seq.semigroup)
    t0 = Fraction(1)
    for k in range(1, len(seq.prefix) + 1):
        _, t1 = _complement_scan(seq.prefix[k - 1])
        t0 = max(t0, Fraction(t1, k))
    return t0


def hilbert_samuel_sequence(seq: PrimaryGradedSequence, kmax: int):
    """H(k) = #(S \\ I_k) for k = 1..kmax."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return [complement_count(seq.term(k)) for k in range(1, kmax + 1)]


@dataclass(frozen=True)
class OkounkovData:
    """Region attached to a sequence plus the truncation bookkeeping.

    `truncation_level` is the certified threshold T of the region: every
    point of the cone at level >= T lies in the region, so the coconvex
    body sits inside the slice cone & {level <= T}.
    """

    region: NewtonRegion
    exact: bool
    materialized_terms: int
    truncation_level: Fraction


def gamma_region(seq: PrimaryGradedSequence) -> NewtonRegion:
    """Region of the sequence: conv of scaled terms plus the cone.

    Exact for power sequences (conv of the staircase) and products
    (Minkowski sum of the factors); an inner approximation for explicit
    prefixes (see okounkov_data for the flag).
    """
    return okounkov_data(seq).region


def okounkov_data(seq: PrimaryGradedSequence) -> OkounkovData:
    sg = seq.semigroup
    if seq.kind == "powers":
        region = staircase_region(seq.base)
        return OkounkovData(region=region, exact=True, materialized_terms=1,
                            truncation_level=region.threshold)
    if seq.kind == "product":
        a, b = seq.factors
        region = minkowski_sum(gamma_region(a), gamma_region(b))
        exact = okounkov_data(a).exact and okounkov_data(b).exact
        return OkounkovData(region=region, exact=exact, materialized_terms=0,
                            truncation_level=region.threshold)
    pts = set()
    for k in range(1, len(seq.prefix) + 1):
        for g in seq.term(k).min_generators:
            pts.add(tuple(Fraction(x, k) for x in g))
    region = newton_region(sg.cone, pts, sg.ell)
    return OkounkovData(region=region, exact=False,
                        materialized_terms=len(seq.prefix),
                        truncation_level=region.threshold)


def multiplicity(seq: PrimaryGradedSequence) -> Fraction:
    """e(I_k) = lim H(k)/k^n, equal to the covolume of the region.

    Only exact kinds are accepted; use multiplicity_estimate for explicit
    prefixes.
    """
    if not seq.exact_region:
        raise ValueError("explicit prefixes only bound the multiplicity; "
                         "use multiplicity_estimate")
    return covol(gamma_region(seq))


def multiplicity_estimate(seq: PrimaryGradedSequence):
    """(inner covolume, H(kmax)/kmax^n trend) bracket for explicit prefixes."""
    data = okounkov_data(seq)
    kmax = len(seq.prefix)
    n = seq.semigroup.dim
    trend = Fraction(complement_count(seq.term(kmax)), kmax ** n)
    return covol(data.region), trend


def mixed_multiplicity_semigroup(seqs) -> Fraction:
    """n! times the mixed covolume of the sequences' regions."""
    seqs = list(seqs)
    if not seqs:
        raise WrongArity("need n sequences")
    n = seqs[0].semigroup.dim
    if len(seqs) != n:
        raise WrongArity(f"need exactly {n} sequences, got {len(seqs)}")
    for s in seqs[1:]:
        if s.semigroup != seqs[0].semigroup:
            raise ConeMismatch("sequences over different semigroups")
    return math.factorial(n) * mixed_covol([gamma_region(s) for s in seqs])
