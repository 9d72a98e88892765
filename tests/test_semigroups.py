"""Staircase ideals, Hilbert-Samuel counting, staircase-region multiplicities."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from coconvex import semigroups
from coconvex.cones import dual_description, orthant
from coconvex.errors import (ConeMismatch, InvariantViolation, NotFullDimensional,
                             NotPrimary)
from coconvex.fitting import stabilized_leading
from coconvex.linalg import dot, integer_dual_basis, primitive, vec_sub
from coconvex.polytopes import triangulate_points
from coconvex.regions import covol, minkowski_sum, mixed_covol
from coconvex.semigroups import (complement_count, hilbert_basis, ideal_power,
                                 iter_points_at_level, lattice_semigroup,
                                 semigroup_ideal, staircase_region, sum_ideals,
                                 _coset_complement)
from test_linalg import dual_basis

S2 = lattice_semigroup(orthant(2))
S3 = lattice_semigroup(orthant(3))

# One to four facets; the four-ray cone stays last.
ORACLE_CONES = [
    orthant(1),
    orthant(2),
    orthant(3),
    orthant(4),
    dual_description([(1, 0, 0), (0, 1, 0), (1, 1, 3)]),
    dual_description([(1, 0), (1, 2)]),
    dual_description([(1, 0), (1, 3)]),
    dual_description([(-1, 2), (2, -1)]),
    dual_description([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]),
]


# Simplicial cones counted coset by coset, checked against the level scan.
COSET_CONES = [
    dual_description([(1, 0), (1, 2)]),
    dual_description([(1, 0), (1, 3)]),
    dual_description([(-1, 2), (2, -1)]),
    dual_description([(2, 1), (1, 3)]),
    dual_description([(1, 0, 0), (0, 1, 0), (1, 1, 3)]),
    orthant(2),
    orthant(3),
]


def ideal2(gens):
    return semigroup_ideal(S2, gens)


def all_pairs_prune(cone, points):
    """Reference antichain: drop p when p - q lies in the cone for some q."""
    pts = sorted(set(points))
    return tuple(p for p in pts
                 if not any(q != p and cone.contains(vec_sub(p, q)) for q in pts))


def level_order_prune(cone, points):
    """Reference antichain: the level-ordered scan.  The level sum(F p) of
    the facet values is strictly positive on the cone minus the origin, so
    each point is tested only against the lower points already kept."""
    values = {p: tuple(dot(f, p) for f in cone.facets) for p in set(points)}
    kept = {}
    for p in sorted(values, key=lambda p: sum(values[p])):
        v = values[p]
        if not any(all(map(operator.ge, v, w)) for w in kept.values()):
            kept[p] = v
    return tuple(sorted(kept))


def random_cone_points(rng, cone, count):
    """Nonzero lattice points of the cone drawn from the box [-6, 6]^n."""
    out = []
    while len(out) < count:
        p = tuple(rng.randint(-6, 6) for _ in range(cone.dim))
        if any(p) and cone.contains(p):
            out.append(p)
    return out


def brute_force_power_gens(gens, k):
    """All k-fold sums of generators, pruned by coordinate domination."""
    sums = {tuple(sum(c) for c in zip(*combo))
            for combo in itertools.combinations_with_replacement(gens, k)}
    pruned = set()
    for p in sums:
        if not any(q != p and all(a >= b for a, b in zip(p, q)) for q in sums):
            pruned.add(p)
    return tuple(sorted(pruned))


def brute_force_complement(gens):
    """Direct box enumeration using the pure-power bounds."""
    n = len(gens[0])
    bounds = []
    for i in range(n):
        pures = [g[i] for g in gens if all(g[j] == 0 for j in range(n) if j != i)]
        bounds.append(min(pures))
    out = []
    for p in itertools.product(*(range(b) for b in bounds)):
        if not any(all(x >= g for x, g in zip(p, gen)) for gen in gens):
            out.append(p)
    return sorted(out)


def box_hilbert_basis(cone):
    """Reference Hilbert basis: the nonzero points p of the bounding box of
    each closed fundamental parallelepiped with 0 <= y_j . p <= 1 for the
    dual basis y_j of its simplicial subcone, plus the rays, pruned pairwise."""
    n = cone.dim
    if len(cone.rays) == n:
        subcones = [cone.rays]
    else:
        ell0 = lattice_semigroup(cone).ell
        section = [tuple(Fraction(x, dot(ell0, r)) for x in r) for r in cone.rays]
        subcones = [tuple(primitive(v) for v in simplex)
                    for simplex in triangulate_points(section)]
    candidates = set(cone.rays)
    for rays in subcones:
        lo = [sum(min(0, r[i]) for r in rays) for i in range(n)]
        hi = [sum(max(0, r[i]) for r in rays) for i in range(n)]
        duals = dual_basis(rays)
        for p in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
            if any(p) and all(0 <= dot(y, p) <= 1 for y in duals):
                candidates.add(p)
    return all_pairs_prune(cone, candidates)


def mixed_multiplicity_of(ideals):
    """n! times the mixed covolume of the ideals' staircase regions."""
    return math.factorial(len(ideals)) * mixed_covol([staircase_region(i) for i in ideals])


def level_scan(ideal):
    """Reference complement: walk the integer levels upward, after the
    staircase region certifies the complement finite, until h consecutive
    levels hold no complement point, h the top level of a Hilbert basis
    element; peeling those elements shows every higher point then lies in
    the ideal.  Returns the points in level order."""
    region = staircase_region(ideal)
    sg = ideal.semigroup
    h = max(dot(sg.ell, b) for b in hilbert_basis(sg.cone))
    cap = 1024 * (int(region.threshold) + h + 1)
    points = []
    level = clean = 0
    while clean < h:
        bad = [x for x in iter_points_at_level(sg, level) if not ideal.contains(x)]
        points.extend(bad)
        clean = 0 if bad else clean + 1
        level += 1
        if level > cap:
            raise NotPrimary("level scan exceeded the safety cap")
    return tuple(points)


def test_ideal_power_examples():
    assert ideal_power(ideal2([(1, 0), (0, 1)]), 2).min_generators == \
        ((0, 2), (1, 1), (2, 0))
    base = ideal2([(2, 0), (0, 2)])
    assert ideal_power(base, 1) == base
    assert ideal_power(base, 3).min_generators == \
        ((0, 6), (2, 4), (4, 2), (6, 0))


def test_ideal_power_matches_brute_force():
    rng = random.Random(101)
    for _ in range(15):
        gens = [(rng.randint(1, 5), 0), (0, rng.randint(1, 5))]
        gens += [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(3)]
        gens = [g for g in gens if any(g)]
        ideal = ideal2(gens)
        for k in range(1, 5):
            assert ideal_power(ideal, k).min_generators == \
                brute_force_power_gens(ideal.min_generators, k)
    for _ in range(10):
        gens = [(rng.randint(1, 4), 0, 0), (0, rng.randint(1, 4), 0),
                (0, 0, rng.randint(1, 4))]
        gens += [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3)]
        gens = [g for g in gens if any(g)]
        ideal = semigroup_ideal(S3, gens)
        for k in range(1, 4):
            power = ideal_power(ideal, k)
            assert power.min_generators == \
                brute_force_power_gens(ideal.min_generators, k)
            # the orthant slice recursion prunes every slice as well
            assert complement_count(power) == \
                len(brute_force_complement(power.min_generators))


def test_prune_matches_all_pairs_oracle():
    rng = random.Random(2024)
    for cone in ORACLE_CONES:
        sg = lattice_semigroup(cone)
        for _ in range(40):
            gens = random_cone_points(rng, cone, rng.randint(1, 12))
            ideal = semigroup_ideal(sg, gens)
            assert ideal.min_generators == all_pairs_prune(cone, gens)
            for k in range(2, 4):
                sums = {tuple(map(sum, zip(*combo))) for combo in
                        itertools.combinations_with_replacement(gens, k)}
                assert ideal_power(ideal, k).min_generators == \
                    all_pairs_prune(cone, sums)


def test_prune_sweep_edge_cases():
    """The sweep against both oracles on duplicates, ties in the first and
    second sweep values, the zero point and the empty list, which the
    reference slice recursion prunes at its v = 0 cut when no generator has
    last coordinate 0.  Points are drawn with repeats from a small box,
    where ties are common."""
    orthant3 = orthant(3)
    # (1, 1, 1) shares v2 with the staircase entry of (0, 1, 2) and replaces it
    points = [(0, 1, 2), (1, 1, 1), (2, 1, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)]
    assert semigroups._prune_to_antichain(orthant3, points) == \
        ((0, 1, 2), (1, 1, 1), (2, 0, 3), (3, 2, 0))
    rng = random.Random(14)
    ties = [0, 0]
    for cone in ORACLE_CONES:
        zero = (0,) * cone.dim
        assert semigroups._prune_to_antichain(cone, []) == ()
        pool = [p for p in itertools.product(range(-2, 4), repeat=cone.dim)
                if cone.contains(p)]
        for _ in range(30):
            points = rng.choices(pool, k=rng.randint(1, 16))
            expected = all_pairs_prune(cone, points)
            assert semigroups._prune_to_antichain(cone, points) == expected
            assert level_order_prune(cone, points) == expected
            assert semigroups._prune_to_antichain(cone, points + [zero]) == (zero,)
            if semigroups._is_standard_orthant(cone):
                values = set(points)
            else:
                values = {tuple(dot(f, p) for f in cone.facets) for p in points}
            for i in range(min(2, cone.dim)):
                ties[i] += len({v[i] for v in values}) < len(values)
    assert min(ties) > 0


def test_packed_orthant_prune_and_sum_match_all_pairs_oracle():
    """The packed orthant prune of one set and of the sums of two sets, and
    `sum_ideals`, against the all-pairs oracle in dims 1-4, on sets with
    repeats, empty sets, coordinates at 2^j - 1 and 2^j, and sums whose
    largest coordinate has more bits than either set's, so the field width
    must come from the sum."""
    rng = random.Random(30)
    seen = {"empty": 0, "repeated": 0, "crossed": 0}
    for n in (1, 2, 3, 4) * 80:
        cone = orthant(n)
        j = rng.randint(1, 7)
        values = (0, 1, 2 ** j - 1, 2 ** j, rng.randint(0, 2 ** j))

        def draw():
            points = [tuple(rng.choice(values) for _ in range(n))
                      for _ in range(rng.randint(0, 9))]
            return points + rng.choices(points, k=2) if points else points

        a, b = draw(), draw()
        sums = [tuple(map(operator.add, p, q)) for p in a for q in b]
        assert semigroups._prune_to_antichain(cone, a) == all_pairs_prune(cone, a)
        assert semigroups._prune_to_antichain(cone, a, b) == \
            all_pairs_prune(cone, sums)
        if a and b:
            sg = lattice_semigroup(cone)
            assert sum_ideals(semigroup_ideal(sg, a),
                              semigroup_ideal(sg, b)).min_generators == \
                all_pairs_prune(cone, sums)
            seen["crossed"] += max(map(max, sums)).bit_length() > \
                max(max(map(max, a)), max(map(max, b))).bit_length()
        seen["empty"] += not a or not b
        seen["repeated"] += len(set(a)) < len(a)
    assert min(seen.values()) > 20, seen


def _antichains_and_counts(inputs):
    """Antichain and complement count of every power k <= 4 of every
    orthant ideal, from empty caches."""
    semigroups.ideal_power.cache_clear()
    out = []
    for n, gens in inputs:
        ideal = semigroup_ideal(lattice_semigroup(orthant(n)), gens)
        for k in range(1, 5):
            power = ideal_power(ideal, k)
            out.append((power.min_generators, complement_count(power)))
    return out


def test_orthant_fast_paths_match_general_paths(monkeypatch):
    """The orthant branches of `_prune_to_antichain` and `complement_count`
    against the facet-value prune and the coset count they shortcut, on
    ideals shaped like the staircase-fit benchmark's: a pure power on every
    axis plus a few random points."""
    rng = random.Random(301)
    inputs = []
    for n, bound, extra in ((2, 6, 2), (3, 3, 0), (3, 3, 1)):
        for _ in range(10):
            gens = [tuple(rng.randint(1, bound) if i == j else 0 for j in range(n))
                    for i in range(n)]
            gens += [tuple(rng.randint(0, bound) for _ in range(n))
                     for _ in range(rng.randint(extra, 2 * extra))]
            inputs.append((n, [g for g in gens if any(g)]))
    fast = _antichains_and_counts(inputs)
    monkeypatch.setattr(semigroups, "_is_standard_orthant", lambda cone: False)
    assert _antichains_and_counts(inputs) == fast


def slice_recursion_colength(gens, n):
    """Reference orthant count: the slice recursion, each slice rebuilt
    from every generator at each distinct last coordinate and pruned."""
    if n == 1:
        if not gens:
            raise NotPrimary(semigroups.NEVER_DOMINATED)
        return min(g[0] for g in gens)
    cuts = sorted({g[-1] for g in gens})
    if not cuts:
        raise NotPrimary(semigroups.NEVER_DOMINATED)
    if cuts[0] != 0:
        cuts = [0] + cuts
    total = 0
    for j, v in enumerate(cuts):
        active = semigroups._prune_to_antichain(
            orthant(n - 1), [g[:-1] for g in gens if g[-1] <= v])
        if j + 1 < len(cuts):
            if not active:
                raise NotPrimary(semigroups.NEVER_DOMINATED)
            total += (cuts[j + 1] - v) * slice_recursion_colength(active, n - 1)
        elif slice_recursion_colength(active, n - 1) != 0:
            raise NotPrimary(semigroups.NEVER_DOMINATED)
    return total


def test_orthant_count_matches_slice_recursion_and_brute_force():
    """The plane closed form and the grown slices against the slice
    recursion and a box count, on random generator lists with dominated
    points and repeats; without a pure power on some axis all raise.  The
    last set has larger 3-D coordinates, so the grown plane staircase
    replaces runs of entries and meets ties in x and in y."""
    rng = random.Random(20)
    seen = {"dominated": 0, "repeated": 0, "not primary": 0}
    for n, side, power in [(2, 4, 5), (3, 4, 5)] * 300 + [(3, 13, 14)] * 60:
        gens = rng.choices(list(itertools.product(range(side), repeat=n)),
                           k=rng.randint(0, 9))
        for i in range(n):
            if rng.random() < 0.9:
                gens.insert(rng.randint(0, len(gens)),
                            tuple(rng.randint(0, power) if j == i else 0
                                  for j in range(n)))
        primary = all(any(all(g[j] == 0 for j in range(n) if j != i) for g in gens)
                      for i in range(n))
        if primary:
            expected = len(brute_force_complement(gens))
            assert slice_recursion_colength(gens, n) == expected
            assert semigroups._orthant_colength(gens, n) == expected
        else:
            seen["not primary"] += 1
            with pytest.raises(NotPrimary):
                slice_recursion_colength(gens, n)
            with pytest.raises(NotPrimary):
                semigroups._orthant_colength(gens, n)
        seen["dominated"] += len(all_pairs_prune(orthant(n), gens)) < len(set(gens))
        seen["repeated"] += len(set(gens)) < len(gens)
    assert min(seen.values()) > 20


def test_staircase_membership_consistent_with_sums():
    rng = random.Random(77)
    for _ in range(10):
        gens = [(rng.randint(1, 4), 0), (0, rng.randint(1, 4)),
                (rng.randint(0, 4), rng.randint(0, 4))]
        gens = [g for g in gens if any(g)]
        ideal = ideal2(gens)
        k = rng.randint(1, 4)
        power = ideal_power(ideal, k)
        # brute-force membership: x is a k-sum plus a semigroup element
        for x in itertools.product(range(9), repeat=2):
            direct = power.contains(x)
            brute = any(all(a >= b for a, b in zip(x, s))
                        for s in brute_force_power_gens(ideal.min_generators, k))
            assert direct == brute


def test_complement_count_examples():
    assert complement_count(ideal2([(1, 0), (0, 1)])) == 1
    ideal = ideal2([(3, 0), (1, 1), (0, 2)])
    assert complement_count(ideal) == 4
    assert _coset_complement(ideal) == ((0, 0), (0, 1), (1, 0), (2, 0))
    doubled = ideal_power(ideal2([(1, 0), (0, 1)]), 2)
    assert complement_count(doubled) == 3
    assert _coset_complement(doubled) == ((0, 0), (0, 1), (1, 0))


def test_complement_paths_agree():
    rng = random.Random(55)
    for _ in range(20):
        gens = [(rng.randint(1, 6), 0), (0, rng.randint(1, 6)),
                (rng.randint(0, 6), rng.randint(0, 6))]
        gens = [g for g in gens if any(g)]
        ideal = ideal2(gens)
        fast = complement_count(ideal)
        scanned = level_scan(ideal)
        brute = brute_force_complement(ideal.min_generators)
        assert fast == len(scanned) == len(brute)
        assert _coset_complement(ideal) == tuple(sorted(scanned))
        assert _coset_complement(ideal) == tuple(brute)


def test_points_at_level_match_box_filter():
    """One bounding-box scan serves every cone, the orthant included: its
    points at each level are those of a cube around the origin, in
    lexicographic order.  A level-L point is a nonnegative combination of
    rays r with ell(r) >= 1, so no coordinate exceeds L times the largest
    ray entry."""
    sgs = [lattice_semigroup(cone) for cone in ORACLE_CONES + COSET_CONES]
    sgs += [lattice_semigroup(orthant(2), (2, 3)),
            lattice_semigroup(orthant(3), (1, 2, 3))]
    for sg in sgs:
        reach = max(abs(x) for r in sg.cone.rays for x in r)
        for level in range(-1, 21 if sg.dim <= 2 else 6 if sg.dim == 3 else 3):
            box = range(-level * reach, level * reach + 1)
            expected = [p for p in itertools.product(box, repeat=sg.dim)
                        if dot(sg.ell, p) == level and sg.cone.contains(p)]
            assert list(iter_points_at_level(sg, level)) == expected, (sg, level)


def test_coset_count_matches_level_scan():
    """Coset counting and the coset complement against the level scan on
    520 seeded (ideal, k) pairs; about one draw in ten leaves a ray bare,
    and every path must raise."""
    rng = random.Random(4242)
    raised = 0
    for draw in range(260):
        cone = COSET_CONES[draw % len(COSET_CONES)]
        rays = list(cone.rays)
        if rng.random() < 0.1:
            rays.pop(rng.randrange(len(rays)))
        gens = [tuple(m * x for x in r)
                for m, r in zip((rng.randint(1, 3) for _ in rays), rays)]
        gens += random_cone_points(rng, cone, rng.randint(1, 3))
        ideal = semigroup_ideal(lattice_semigroup(cone), gens)
        for k in (1, 2):
            power = ideal_power(ideal, k)
            try:
                scanned = level_scan(power)
            except NotPrimary:
                raised += 1
                with pytest.raises(NotPrimary, match="never dominated"):
                    complement_count(power)
                with pytest.raises(NotPrimary, match="never dominated"):
                    _coset_complement(power)
            else:
                assert complement_count(power) == len(scanned), (cone.rays, gens, k)
                assert _coset_complement(power) == tuple(sorted(scanned))
    assert 30 <= raised <= 80


def test_non_simplicial_count_matches_box_count():
    """The 4-ray cones are no single simplicial piece: in the coordinates of
    the subcone on (1,0,0), (0,1,0), (1,0,1), x = (2,1,2) lies in g + cone
    for g = (2,0,1) though x's coordinates (0,1,2) do not dominate g's
    (1,0,1).  Each draw puts a multiple m <= 3 of every ray among the
    generators, so a complement point is sum lambda_j r_j with
    0 <= lambda_j < 3 over the rays of some simplicial piece, and each
    entry lies within 3 times the sums of the negative and positive ray
    entries."""
    four_ray = ORACLE_CONES[-1]
    assert semigroup_ideal(lattice_semigroup(four_ray), [(2, 0, 1)]).contains((2, 1, 2))
    square = dual_description([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    assert len(square.rays) == 4
    rng = random.Random(5)
    for cone in (four_ray, square):
        sg = lattice_semigroup(cone)
        box = [range(3 * sum(min(0, r[i]) for r in cone.rays),
                     3 * sum(max(0, r[i]) for r in cone.rays) + 1)
               for i in range(cone.dim)]
        for _ in range(10):
            gens = [tuple(m * x for x in r)
                    for m, r in zip((rng.randint(1, 3) for _ in cone.rays), cone.rays)]
            gens += random_cone_points(rng, cone, rng.randint(1, 3)) + [(2, 0, 1)]
            ideal = semigroup_ideal(sg, gens)
            outside = tuple(x for x in itertools.product(*box)
                            if cone.contains(x) and not ideal.contains(x))
            assert _coset_complement(ideal) == outside
            assert complement_count(ideal) == len(outside)
            scanned = level_scan(ideal)
            assert _coset_complement(ideal) == tuple(sorted(scanned))


def test_thin_cone_complement_from_cosets(monkeypatch):
    """On the simplicial cone over (1,0,0), (0,1,0), (1,1,40) the complement
    of (3,0,0), (0,3,0), (3,3,120) is the full 40 * 27 coset box, listed
    without walking a level."""
    sg = lattice_semigroup(dual_description([(1, 0, 0), (0, 1, 0), (1, 1, 40)]))
    ideal = semigroup_ideal(sg, [(3, 0, 0), (0, 3, 0), (3, 3, 120)])
    with monkeypatch.context() as patch:
        def no_level_walk(*args, **kwargs):
            raise AssertionError("complement listed by a level walk")
        patch.setattr(semigroups, "iter_points_at_level", no_level_walk)
        points = _coset_complement(ideal)
        assert len(points) == 1080
        assert max(dot(sg.ell, p) for p in points) == 319


def test_coset_enumeration_checks_the_index(monkeypatch):
    """A wrong determinant finds the cosets of another index and raises."""
    def doubled(rows, n):
        chosen, d, duals = integer_dual_basis(rows, n)
        return chosen, 2 * d, duals

    semigroups._cosets.cache_clear()
    monkeypatch.setattr(semigroups, "integer_dual_basis", doubled)
    ideal = semigroup_ideal(lattice_semigroup(dual_description([(1, 0), (1, 5)])),
                            [(2, 0), (2, 10)])
    try:
        with pytest.raises(InvariantViolation, match="cosets"):
            complement_count(ideal)
    finally:
        semigroups._cosets.cache_clear()


def test_complement_infinite_raises():
    with pytest.raises(NotPrimary):
        complement_count(ideal2([(2, 1)]))
    with pytest.raises(NotPrimary):
        _coset_complement(ideal2([(1, 1)]))


def test_hilbert_samuel_closed_forms():
    ideal = ideal2([(1, 0), (0, 1)])
    hs = [complement_count(ideal_power(ideal, k)) for k in range(1, 9)]
    assert hs == [k * (k + 1) // 2 for k in range(1, 9)]
    assert hs[2] == 6
    ideal3 = semigroup_ideal(S3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    hs3 = [complement_count(ideal_power(ideal3, k)) for k in range(1, 6)]
    assert hs3 == [(k + 2) * (k + 1) * k // 6 for k in range(1, 6)]
    assert hs3[1] == 4


def test_multiplicity_values():
    """Covolumes e/n! of staircase regions and of their Minkowski sums: the
    region of a product of ideals is the sum of their regions."""
    m, m2 = ideal2([(1, 0), (0, 1)]), ideal2([(2, 0), (0, 2)])
    assert covol(staircase_region(m)) == Fraction(1, 2)
    assert covol(staircase_region(m2)) == 2
    assert covol(minkowski_sum(staircase_region(m), staircase_region(m2))) == \
        Fraction(9, 2)
    assert covol(staircase_region(ideal2([(0, 0)]))) == 0


def test_mixed_multiplicity_semigroup_examples():
    a = ideal2([(1, 0), (0, 1)])
    b = ideal2([(2, 0), (0, 2)])
    assert mixed_multiplicity_of([b, b]) == 2 * covol(staircase_region(b))
    assert mixed_multiplicity_of([a, b]) == 2
    scaled = ideal_power(a, 3)
    assert mixed_multiplicity_of([scaled, b]) == \
        3 * mixed_multiplicity_of([a, b])
    with pytest.raises(ConeMismatch):
        a3 = semigroup_ideal(S3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        mixed_multiplicity_of([a, a3])


def test_limit_theorem_small():
    rng = random.Random(2024)
    for _ in range(8):
        n = rng.choice([2, 3])
        sg = S2 if n == 2 else S3
        gens = [tuple(rng.randint(1, 3) if i == j else 0 for i in range(n))
                for j in range(n)]
        gens += [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(2)]
        ideal = semigroup_ideal(sg, [g for g in gens if any(g)])
        lead, _ = stabilized_leading(
            lambda k: complement_count(ideal_power(ideal, k)), n, max_k=60)
        assert lead == covol(staircase_region(ideal))


def test_polynomiality_worked_example():
    """Grid values for the pair (m, (x^2,y^2)) and the cross coefficient."""
    a = ideal2([(1, 0), (0, 1)])
    b = ideal2([(2, 0), (0, 2)])
    origin = ideal2([(0, 0)])

    def e_scaled(k1, k2):
        r1 = staircase_region(ideal_power(a, k1) if k1 else origin)
        r2 = staircase_region(ideal_power(b, k2) if k2 else origin)
        return 2 * covol(minkowski_sum(r1, r2))  # n! = 2

    assert e_scaled(1, 0) == 1
    assert e_scaled(0, 1) == 4
    assert e_scaled(1, 1) == 9
    # cross coefficient of the homogeneous quadratic: 9 - 1 - 4 = 4, which
    # is n! times the mixed multiplicity
    cross = e_scaled(1, 1) - e_scaled(1, 0) - e_scaled(0, 1)
    assert cross == 4
    assert cross == 2 * mixed_multiplicity_of([a, b])
    # homogeneity along an axis: P(k, 0) = k^n e(I1)
    for k in (2, 3):
        assert e_scaled(k, 0) == k ** 2 * e_scaled(1, 0)


def test_af_bm_for_semigroup_multiplicities():
    from coconvex.radicals import compare_root_sum
    rng = random.Random(2025)
    for _ in range(10):
        gens_a = [(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                  (rng.randint(0, 5), rng.randint(0, 5))]
        gens_b = [(rng.randint(1, 5), 0), (0, rng.randint(1, 5)),
                  (rng.randint(0, 5), rng.randint(0, 5))]
        a = ideal2([g for g in gens_a if any(g)])
        b = ideal2([g for g in gens_b if any(g)])
        # Alexandrov-Fenchel: e(a,a) e(b,b) >= e(a,b)^2
        assert mixed_multiplicity_of([a, a]) * \
            mixed_multiplicity_of([b, b]) >= \
            mixed_multiplicity_of([a, b]) ** 2
        # Brunn-Minkowski for the product, whose region is the sum
        ra, rb = staircase_region(a), staircase_region(b)
        assert compare_root_sum(covol(ra), covol(rb),
                                covol(minkowski_sum(ra, rb)), 2) >= 0


def test_hilbert_basis_orthant_and_skew():
    assert hilbert_basis(orthant(2)) == ((0, 1), (1, 0))
    assert hilbert_basis(orthant(3)) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    skew = dual_description([(1, 0), (1, 2)])
    assert hilbert_basis(skew) == ((1, 0), (1, 1), (1, 2))
    wide = dual_description([(1, 0), (1, 3)])
    assert hilbert_basis(wide) == ((1, 0), (1, 1), (1, 2), (1, 3))
    # Elements on a face of a simplicial subcone: (1, 1, 0) on a boundary
    # face, (0, 0, 1) on the wall between the two subcones of the square.
    prism = dual_description([(1, 0, 0), (1, 2, 0), (0, 0, 1)])
    assert hilbert_basis(prism) == ((0, 0, 1), (1, 0, 0), (1, 1, 0), (1, 2, 0))
    square = dual_description([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    assert hilbert_basis(square) == \
        ((-1, 0, 1), (0, -1, 1), (0, 0, 1), (0, 1, 1), (1, 0, 1))


def test_hilbert_basis_matches_box_enumeration():
    rng = random.Random(808)
    checked = non_simplicial = 0
    while checked < 200:
        n = rng.choice([2, 3])
        # last coordinate positive: the cone is pointed, often with > n rays
        rays = [tuple(rng.randint(-3, 3) for _ in range(n - 1)) + (rng.randint(1, 3),)
                for _ in range(rng.randint(n, n + 3))]
        try:
            cone = dual_description(rays)
        except NotFullDimensional:
            continue
        assert hilbert_basis(cone) == box_hilbert_basis(cone), cone.rays
        checked += 1
        non_simplicial += len(cone.rays) > n
    assert non_simplicial >= 40


def test_custom_cone_counting():
    skew = dual_description([(1, 0), (1, 2)])
    sg = lattice_semigroup(skew)
    ideal = semigroup_ideal(sg, [(2, 0), (1, 1), (2, 4)])
    assert _coset_complement(ideal) == ((0, 0), (1, 0), (1, 2))
    assert complement_count(ideal) == 3


def test_sum_ideals_requires_same_semigroup():
    skew = lattice_semigroup(dual_description([(1, 0), (1, 2)]))
    with pytest.raises(ConeMismatch):
        sum_ideals(ideal2([(1, 0), (0, 1)]),
                   semigroup_ideal(skew, [(1, 0)]))

