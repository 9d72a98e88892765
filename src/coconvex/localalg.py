"""m-primary ideals in the localized polynomial ring over Q.

Polynomials carry exact rational coefficients, the integral ones as `int`.
A term order is a strictly positive integer level functional refined
lexicographically to a total order; the lowest-term valuation sends f to
its order-minimal exponent.  Initial ideals of powers a^k are read off
from a truncated Macaulay-style echelon of generator products: truncating
every row at level D only disturbs f above D, so pivots below D are
exactly the valuation values there.  The echelon is the closure of the
products under x_i-shifts, cut at D.  Its columns are the fixed numbering
of one table per term order (the orthant exponents sorted by the order, as
in the symbolic preprocessing of F4), so a pivot is a least index, a shift
is a table lookup, and the monomials below D are a prefix whose length is
the window a colength needs.  It is fraction-free: generators are scaled
once to integer coefficients (same pivots), their products are taken over
the integers, and rows are cross-multiplied.  The same echelon certifies
where to cut: in the degree order and cut at d + 1, its level-d pivots are
all the degree-d monomials exactly when m^d lies in the ideal modulo
m^(d+1), hence in the ideal (Nakayama); the least such d is m0, and a^k is
cut at k * m0 * max(ell).  Everything upstream
(colength, multiplicity, Lech chain) reduces to staircase counting and
covolume; in the plane e(in(a^k)) is twice the area below the monotone
chain of those exponents (`polytopes.staircase_chain`), with no staircase.

The Lech chain e(a) <= e(in(a)) <= n! colength(a) reads e(a) off a
reduction first: n combinations J of the generators with J a^r = a^(r+1),
checked by colengths, give e(a) = colength(J).  Each combination is scaled
once to integer coefficients (the same ideal), so J and its products stay
in `int`.  The Hilbert-Samuel fit is the fallback when no such J is found.
As e(a) <= u_k = e(in(a^k))/k^n, the u_k stop at the first equal to e(a).
"""

from __future__ import annotations

import collections
import functools
import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cones import RationalCone, orthant
from .errors import (InvariantViolation, MonotonicityViolation,
                     NotPrimaryWithinCap, ZeroPolynomial)
from .linalg import _exact, dot, rank, scale_to_int
from .polytopes import staircase_chain
from .regions import covol, mixed_covol
from .semigroups import (SemigroupIdealSet, _prune_to_antichain,
                         complement_count, ideal_power, lattice_semigroup,
                         semigroup_ideal, staircase_region, sum_ideals)
from .fitting import stabilized_leading


# ---------------------------------------------------------------------------
# Polynomials and term orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Poly:
    """Polynomial as a sorted tuple of (exponent, coefficient) pairs; an
    integral coefficient is an `int`, which compares and hashes alike."""

    n: int
    terms: tuple

    @staticmethod
    def from_dict(n: int, coeffs: dict) -> "Poly":
        items = []
        for exp, c in coeffs.items():
            if type(c) is not int:
                c = _exact(c)
            if c == 0:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp}")
            items.append((exp, c))
        return Poly(n=n, terms=tuple(sorted(items)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "Poly") -> "Poly":
        """Product with the coefficients' own arithmetic: `int` stays `int`."""
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} and {other.n}")
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(map(operator.add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        terms = tuple(sorted(t for t in acc.items() if t[1]))
        return Poly(n=self.n, terms=terms)

    def __add__(self, other: "Poly") -> "Poly":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return Poly.from_dict(self.n, acc)


def _clear_denominators(g: Poly) -> Poly:
    """Nonzero g times the lcm of its denominators: integer coefficients.

    A g with `int` coefficients already is that multiple, and comes back as
    it is; the echelon of a power gets such products from `_product_map`,
    the reduction certificate such candidates J from
    `_reduction_multiplicity`, and the m0 certificate such generators from
    `mprimary_exponent`, each scaling them here once.
    """
    if all(type(c) is int for _, c in g.terms):
        return g
    exps, coeffs = zip(*g.terms)
    return Poly(n=g.n, terms=tuple(zip(exps, scale_to_int(coeffs))))


def monomial(n: int, exp, coeff=1) -> Poly:
    return Poly.from_dict(n, {tuple(exp): coeff})


@dataclass(frozen=True)
class TermOrder:
    """Level functional plus lexicographic refinement; compares exponents.

    The level has strictly positive integer coefficients, so higher level
    means strictly larger; the refinement rows complete it to an injective
    (hence total) comparison on Z^n.
    """

    ell: tuple
    tiebreak: tuple

    @property
    def n(self) -> int:
        return len(self.ell)

    def key(self, exp):
        return (dot(self.ell, exp),) + tuple(dot(t, exp) for t in self.tiebreak)


def term_order(ell, tiebreak=None) -> TermOrder:
    ell = tuple(int(x) for x in ell)
    if any(x <= 0 for x in ell):
        raise ValueError("level coefficients must be positive integers")
    n = len(ell)
    if tiebreak is None:
        tiebreak = tuple(tuple(1 if j == i else 0 for j in range(n))
                         for i in range(n - 1))
    else:
        tiebreak = tuple(tuple(int(x) for x in t) for t in tiebreak)
    if any(len(t) != n for t in tiebreak):
        raise ValueError("tiebreak rows must have as many entries as ell")
    if rank((ell,) + tiebreak) != n:
        raise ValueError("order rows must have full rank")
    return TermOrder(ell=ell, tiebreak=tiebreak)


def standard_order(n: int) -> TermOrder:
    """Total-degree level with lex refinement."""
    return term_order((1,) * n)


def valuation(f: Poly, order: TermOrder):
    """Lowest exponent of f: the value of the lowest-term valuation."""
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no valuation")
    return min((e for e, _ in f.terms), key=order.key)


# ---------------------------------------------------------------------------
# Truncated echelon
# ---------------------------------------------------------------------------

# Caps checked before a table grows: its levels, and the volume
# D^n / (n! prod ell) below level D, a lower bound on its width.
_TABLE_LEVELS = 2 ** 16
_TABLE_WIDTH = 2 ** 19


class _MonomialTable:
    """Orthant exponents sorted by `order.key` and numbered, grown by level.

    The key starts with the level, so the exponents of level < D are the
    prefix exps[:width(D)] and a number is below width(D) exactly when its
    exponent lies below D.  `index` maps an exponent back to its number.
    shifts[i][v] is the number of exps[v] + e_i; it is listed for every v
    whose shift is already numbered, which covers every v < width(D - ell[i])
    once width(D) has been asked for.  Growing only appends, so numbers
    never change and one table can serve every bound (`_monomial_table`).
    The key is linear, so each exponent's key is carried along:
    key(e + e_i) = key(e) + key(e_i).
    """

    def __init__(self, order: TermOrder):
        self.order = order
        zero = (0,) * order.n
        self.exps = [zero]
        self.keys = [order.key(zero)]
        self.index = {zero: 0}
        self.shifts = [[] for _ in order.ell]
        # _steps[i]: key(e_i), column i of the order rows
        self._steps = list(zip(order.ell, *order.tiebreak))
        self._starts = [0, 1]  # _starts[L]: how many exponents lie below L

    def width(self, bound: int) -> int:
        """Number of exponents of level < bound; a ValueError past a cap."""
        if len(self._starts) <= bound:
            n = self.order.n
            if bound > _TABLE_LEVELS or bound ** n > _TABLE_WIDTH * \
                    math.factorial(n) * math.prod(self.order.ell):
                raise ValueError(
                    f"the monomial table below level {bound} passes its cap "
                    f"of {_TABLE_LEVELS} levels or {_TABLE_WIDTH} exponents")
            while len(self._starts) <= bound:
                self._grow()
        return self._starts[max(bound, 0)]

    def _grow(self) -> None:
        """Number the next level: every exponent there is x_i times one of
        level `level - ell[i]`, which also gives those exponents' shifts."""
        level = len(self._starts) - 1
        shifted = []
        keys = {}
        for i, (w, step) in enumerate(zip(self.order.ell, self._steps)):
            if level >= w:
                lo, hi = self._starts[level - w], self._starts[level - w + 1]
                es = [e[:i] + (e[i] + 1,) + e[i + 1:] for e in self.exps[lo:hi]]
                for e, k in zip(es, self.keys[lo:hi]):
                    if e not in keys:
                        keys[e] = tuple(map(operator.add, k, step))
                shifted.append((i, es))
        # Keys are injective, so sorting (key, e) pairs never compares e.
        for k, e in sorted((k, e) for e, k in keys.items()):
            self.index[e] = len(self.exps)
            self.exps.append(e)
            self.keys.append(k)
        for i, es in shifted:
            self.shifts[i].extend(map(self.index.__getitem__, es))
        self._starts.append(len(self.exps))


@functools.lru_cache(maxsize=8)
def _monomial_table(order: TermOrder) -> _MonomialTable:
    """The one growing table per order, shared by every power and bound."""
    return _MonomialTable(order)


def _reduce(pivots: dict, row: dict):
    """Reduce `row` by the pivot rows and store what is left as a new one.

    Rows map numbers of an order's `_MonomialTable` to integers, so the
    pivot of a row is its least number.  Reducing r by the pivot row p at e
    sets r to (p[e]/g) r - (r[e]/g) p with g = gcd(r[e], p[e]), so e cancels
    exactly.  A row left nonzero is divided by its content and stored at its
    least number, so pivot rows are primitive; that row is returned, or
    None when r reduces to zero.  A
    lazy-deletion heap tracks the candidate least numbers, so each step
    costs the fill-in it causes, not a rescan of the whole row.
    """
    heap = list(row)
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)
        if e not in row:
            continue
        prow = pivots.get(e)
        if prow is None:
            content = math.gcd(*row.values())
            pivots[e] = prow = {k: v // content for k, v in row.items()}
            return prow
        g = math.gcd(row[e], prow[e])
        scale, c = prow[e] // g, row[e] // g
        if scale != 1:
            for k in row:
                row[k] *= scale
        for k, v in prow.items():
            old = row.get(k)
            if old is None:
                heapq.heappush(heap, k)
                row[k] = -c * v
            else:
                new = old - c * v
                if new:
                    row[k] = new
                else:
                    del row[k]
    return None


def truncated_echelon(gens, order: TermOrder, bound: int) -> frozenset:
    """Pivot exponents of span{x^alpha * g} cut off at level `bound`.

    The span is built as a closure, fraction-free: each nonzero generator
    is scaled to integer coefficients and goes in cut at the bound, and
    whenever a row becomes a pivot row r, x_i * r cut at the bound goes in
    too, for every variable i.  A shift only raises levels, so cutting
    after it gives the same row as cutting once; pivot rows never change
    once stored, so their span is closed under the cut shifts, holds every
    generator, and is the span above.  The shift of a number v stays below
    the bound exactly when v lies below width(bound - ell[i]).  Each pivot
    is the valuation of an actual element, and every valuation value below
    the certified completeness level appears.
    """
    gens = [_clear_denominators(g) for g in gens if not g.is_zero]
    if any(g.n != order.n for g in gens):
        raise ValueError("dimension mismatch")
    table = _monomial_table(order)
    width = table.width(bound)
    cuts = [(table.shifts[i], table.width(bound - w))
            for i, w in enumerate(order.ell)]
    rows = collections.deque(
        {v: c for v, c in ((table.index.get(e, width), c) for e, c in g.terms)
         if v < width} for g in gens)
    pivots = {}
    while rows:
        prow = _reduce(pivots, rows.popleft())
        if prow is not None:
            for shift, cut in cuts:
                rows.append({shift[v]: c for v, c in prow.items() if v < cut})
    return frozenset(map(table.exps.__getitem__, pivots))


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialIdealLocal:
    """m-primary monomial ideal, stored as its staircase."""

    staircase: SemigroupIdealSet

    @property
    def n(self) -> int:
        return self.staircase.semigroup.dim


def monomial_ideal(exponents, cone: RationalCone = None) -> MonomialIdealLocal:
    exponents = [tuple(e) for e in exponents]
    if not exponents:
        raise ValueError("need at least one monomial")
    if cone is None:
        cone = orthant(len(exponents[0]))
    staircase = semigroup_ideal(lattice_semigroup(cone), exponents)
    staircase_region(staircase)  # certifies the complement is finite
    return MonomialIdealLocal(staircase=staircase)


@dataclass(frozen=True)
class PolyLocalIdeal:
    """m-primary ideal given by polynomial generators and a term order.

    `m0` certifies that the m0-th power of the maximal ideal lies inside.
    """

    generators: tuple
    order: TermOrder
    m0: int

    @property
    def n(self) -> int:
        return self.order.n

    # The power caches look an ideal up by its hash: compute the dataclass
    # hash, which walks every generator term, once per ideal.
    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.generators, self.order, self.m0))

    def __hash__(self) -> int:
        return self._hash


def mprimary_exponent(gens, order: TermOrder, cap: int = 24) -> int:
    """Smallest d <= cap with every degree-d monomial in the span cut at d + 1.

    The test at d certifies m^d inside the ideal modulo m^(d+1); Nakayama
    upgrades that to m^d inside the ideal.  Membership does not depend on
    the elimination order, so the echelon runs in the degree order.  Every
    degree-d monomial lies in the cut span exactly when each one is a pivot
    (the level-d pivot rows are then triangular on them), so the test counts
    the level-d pivots of `truncated_echelon` against comb(d + n - 1, n - 1).
    """
    n = order.n
    zero = (0,) * n
    for g in gens:
        if g.is_zero:
            raise ValueError("zero generator")
        if any(e == zero for e, _ in g.terms):
            raise ValueError("generator has a constant term, not in m")
    degree_order = standard_order(n)
    gens = [_clear_denominators(g) for g in gens]
    for d in range(1, cap + 1):
        pivots = truncated_echelon(gens, degree_order, d + 1)
        if sum(sum(e) == d for e in pivots) == math.comb(d + n - 1, n - 1):
            return d
    raise NotPrimaryWithinCap(f"no power m^d with d <= {cap} lies in the ideal")


def poly_local_ideal(gens, order: TermOrder = None, cap: int = 24) -> PolyLocalIdeal:
    """The ideal of the generators, a repeated one kept once (each copy
    would multiply the products of a^k), with its m-primary exponent."""
    gens = tuple(dict.fromkeys(gens))
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if order is None:
        order = standard_order(n)
    if order.n != n or any(g.n != n for g in gens):
        raise ValueError("dimension mismatch")
    m0 = mprimary_exponent(gens, order, cap)
    return PolyLocalIdeal(generators=gens, order=order, m0=m0)


# The most products of generators formed for one power: a^k with m
# generators has C(m + k - 1, k) of them.  Plane `multiplicity` forms up
# to a^12, so nine distinct generators (125,970 products) still pass.
_PRODUCTS = 2 ** 17


# One `multiplicity --kmax 24` call makes 24 entries in each of the two
# caches below.
@functools.lru_cache(maxsize=32)
def _product_map(a: PolyLocalIdeal, k: int):
    """Multiset of generator indices -> product of the integer generators;
    a ValueError past `_PRODUCTS` multisets, before any product is formed."""
    count = math.comb(len(a.generators) + k - 1, k)
    if count > _PRODUCTS:
        raise ValueError(f"a^{k} has {count} products of generators, more than "
                         f"the cap of {_PRODUCTS}")
    if k == 1:
        return {(i,): _clear_denominators(g)
                for i, g in enumerate(a.generators)}
    prev, gens = _product_map(a, k - 1), _product_map(a, 1)
    out = {}
    for combo, p in prev.items():
        for j in range(combo[-1], len(a.generators)):
            out[combo + (j,)] = p * gens[(j,)]
    return out


@functools.lru_cache(maxsize=32)
def _initial_pivots(a: PolyLocalIdeal, k: int):
    """(pivot set, completeness level D0) for in(a^k).  The monomial table
    is cut at D0 first, so a cut past its cap raises before any product of
    a^k is formed."""
    r0 = max(a.order.ell)
    d0 = k * a.m0 * r0
    _monomial_table(a.order).width(d0)
    pivots = truncated_echelon(_product_map(a, k).values(), a.order, d0)
    return pivots, d0


def _initial_points(a: PolyLocalIdeal, k: int) -> frozenset:
    """Exponents that generate in(a^k): the echelon pivots below D0 and the
    exponents of level D0.

    An exponent of level >= D0 = k * m0 * max(ell) has degree >= k*m0, so it
    lies above some c of degree k*m0, in a^k: c is a pivot or of level D0.
    """
    pivots, d0 = _initial_pivots(a, k)
    table = _monomial_table(a.order)
    return pivots.union(table.exps[table.width(d0):table.width(d0 + 1)])


def initial_semigroup_ideal(a: PolyLocalIdeal, k: int) -> SemigroupIdealSet:
    """Staircase of in(a^k), pruned from `_initial_points`.  The table's
    exponents are orthant points by construction, so go to the prune as
    they are."""
    if k < 1:
        raise ValueError("power must be >= 1")
    cone = orthant(a.n)
    return SemigroupIdealSet(lattice_semigroup(cone, a.order.ell),
                             _prune_to_antichain(cone, _initial_points(a, k)))


def colength(a) -> int:
    """dim of R modulo the ideal: standard monomials below the staircase."""
    return colength_of_power(a, 1)


def colength_of_power(a, k: int) -> int:
    """Colength of a^k along the appropriate staircase/echelon path."""
    if isinstance(a, MonomialIdealLocal):
        return complement_count(ideal_power(a.staircase, k))
    pivots, d0 = _initial_pivots(a, k)
    return _monomial_table(a.order).width(d0) - len(pivots)


def hilbert_samuel(a, kmax: int):
    """H(k) = colength of a^k for k = 1..kmax."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return [colength_of_power(a, k) for k in range(1, kmax + 1)]


def _integral(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise InvariantViolation(f"{what} {value} is not an integer")
    return int(value)


def _staircase_multiplicity(staircase: SemigroupIdealSet) -> int:
    value = covol(staircase_region(staircase))
    return _integral(math.factorial(staircase.semigroup.dim) * value,
                     "multiplicity")


def _plane_multiplicity(points) -> int:
    """2 * covol(conv(points) + R^2_+) for points on both axes: the origin
    pyramids x1*y0 - x0*y1 over the edges of `staircase_chain`, as `covol`
    sums them."""
    chain = staircase_chain(points)
    return sum(x1 * y0 - x0 * y1
               for (x0, y0), (x1, y1) in zip(chain, chain[1:]))


def multiplicity(a: MonomialIdealLocal) -> int:
    """e(a) = n! * covolume of the Newton region of the staircase."""
    return _staircase_multiplicity(a.staircase)


@dataclass(frozen=True)
class MultiplicityReport:
    """Certified data about e(a) for a polynomial ideal.

    Each u_values[k-1] = e(in(a^k)) / k^n bounds e(a) from above and
    e_upper is their minimum.  Only u_(jk) <= u_k is certified: as
    in(a^j) in(a^m) lies in in(a^(j+m)), the monomial Brunn-Minkowski
    inequality makes e(in(a^k))^(1/n) subadditive in k.  e_fit is the exact
    value once the Hilbert-Samuel fit stabilizes (None otherwise).
    Stabilization includes far-point confirmation inside the fit's depth
    budget, so in three or more variables it usually reports only the
    certified bounds.  The Lech chain gets e(a) more cheaply from a reduction
    (`_reduction_multiplicity`) and uses this fit only as the fallback.
    """

    u_values: tuple
    hilbert_values: tuple
    e_upper: Fraction
    e_fit: Fraction | None


def _u_values(a: PolyLocalIdeal, kmax: int):
    """Yield u_k = e(in(a^k)) / k^n for k = 1..kmax, lazily, each checked
    against the values at its divisors (see `MultiplicityReport`).  In the
    plane e(in(a^k)) comes straight from `_initial_points`, with no
    staircase or Newton region: the weights ell do not enter the covolume."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    n = a.n
    u_values = []
    for k in range(1, kmax + 1):
        e_in = (_plane_multiplicity(_initial_points(a, k)) if n == 2 else
                _staircase_multiplicity(initial_semigroup_ideal(a, k)))
        u = Fraction(e_in, k ** n)
        for j in range(1, k):
            if k % j == 0 and u > u_values[j - 1]:
                raise MonotonicityViolation(
                    f"e(in(a^{k}))/{k}^{n} = {u} exceeds the value "
                    f"{u_values[j - 1]} at the divisor {j}")
        u_values.append(u)
        yield u


def _fitted_multiplicity(a: PolyLocalIdeal):
    """n! times the stabilised leading coefficient of H(k) = colength(a^k),
    or None when the fit does not stabilise within 24 powers in up to two
    variables and 10 beyond."""
    n = a.n
    fit = stabilized_leading(lambda k: colength_of_power(a, k), n,
                             max_k=24 if n <= 2 else 10)
    return math.factorial(n) * fit[0] if fit else None


def multiplicity_report(a: PolyLocalIdeal, kmax: int) -> MultiplicityReport:
    u_values = tuple(_u_values(a, kmax))
    hs = hilbert_samuel(a, kmax)
    e_fit = _fitted_multiplicity(a)
    return MultiplicityReport(u_values=u_values, hilbert_values=tuple(hs),
                              e_upper=min(u_values), e_fit=e_fit)


def mixed_multiplicity(ideals) -> int:
    """n! times the mixed covolume of the Newton regions; an integer."""
    ideals = list(ideals)
    regions = [staircase_region(a.staircase) for a in ideals]
    n = ideals[0].n
    return _integral(math.factorial(n) * mixed_covol(regions),
                     "mixed multiplicity")


# The reduction candidate for t has h_i = sum_j (i + 2 + t)^j g_j for
# i < n: Vandermonde rows, so the n combinations are independent.  Each
# h_i is then scaled to integer coefficients, which keeps the ideal J.
_REDUCTION_SHIFTS = (0, 1, 2)
# The largest r tried in J a^r = a^(r+1).
_REDUCTION_DEPTH = 2


def _combination(gens, base: int) -> Poly:
    """sum_j base^j g_j."""
    acc = collections.defaultdict(int)
    for j, g in enumerate(gens):
        for e, c in g.terms:
            acc[e] += base ** j * c
    return Poly.from_dict(gens[0].n, acc)


def _reduction_multiplicity(a: PolyLocalIdeal):
    """e(a) = colength(J) for a reduction J of a by n elements, or None.

    An ideal with n generators is a parameter ideal and its own reduction.
    Otherwise each candidate J = (h_0, ..., h_(n-1)) is certified m-primary
    and checked against J a^r = a^(r+1) for r <= _REDUCTION_DEPTH: J a^r
    lies inside a^(r+1) and both are m-primary, so equal colengths mean
    equal ideals.  Then J is a reduction of a, so e(a) = e(J) (Northcott
    and Rees), and e(J) = colength(J) as J is generated by a system of
    parameters of a Cohen-Macaulay ring.  J a^r = a^(r+1) puts
    m^((r+1) m0) inside J, so the m-primary certificate needs no larger
    cap, and a candidate that fails within it is no reduction.
    """
    n, gens = a.n, a.generators
    if len(gens) == n:
        return colength(a)
    for t in _REDUCTION_SHIFTS:
        hs = [_combination(gens, i + 2 + t) for i in range(n)]
        if any(h.is_zero for h in hs):
            continue
        hs = [_clear_denominators(h) for h in hs]
        try:
            j = poly_local_ideal(hs, a.order,
                                 cap=(_REDUCTION_DEPTH + 1) * a.m0)
        except NotPrimaryWithinCap:
            continue
        for r in range(1, _REDUCTION_DEPTH + 1):
            power = PolyLocalIdeal(generators=tuple(_product_map(a, r).values()),
                                   order=a.order, m0=r * a.m0)
            if colength(product_ideal(j, power)) == \
                    colength_of_power(a, r + 1):
                return colength(j)
    return None


@dataclass(frozen=True)
class LechChain:
    """e(a) <= e_upper <= e(in(a)) <= n! dim(R/a), e_upper the best bound."""

    e_upper: Fraction
    e_in: int
    bound: int
    holds: bool


# A polynomial ideal's Lech chain takes e_upper over u_k for k <= 4.
_LECH_KMAX = 4


def lech_chain(a) -> LechChain:
    """The chain for a monomial ideal, or for a polynomial ideal with
    e_upper the least u_k over k <= _LECH_KMAX.  For a polynomial ideal, e(a)
    comes first, from a reduction (`_reduction_multiplicity`), or else from
    the Hilbert-Samuel fit when it stabilises; `holds` then also checks
    e(a) <= e_upper.  As e(a) <= u_k, the u_k stop at the first equal to it."""
    if isinstance(a, MonomialIdealLocal):
        e = multiplicity(a)
        bound = math.factorial(a.n) * colength(a)
        return LechChain(e_upper=Fraction(e), e_in=e, bound=bound,
                         holds=e <= bound)
    u_values = _u_values(a, _LECH_KMAX)
    e_upper = next(u_values)
    e_in = _integral(e_upper, "multiplicity")
    bound = math.factorial(a.n) * colength(a)
    e = _reduction_multiplicity(a)
    if e is None:
        e = _fitted_multiplicity(a)
    while (e is None or e_upper > e) and \
            (u := next(u_values, None)) is not None:
        e_upper = min(e_upper, u)
    holds = (e is None or e <= e_upper) and e_upper <= e_in <= bound
    return LechChain(e_upper=e_upper, e_in=e_in, bound=bound, holds=holds)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def product_ideal(a, b):
    """Product of two ideals of the same kind (generator products)."""
    if isinstance(a, MonomialIdealLocal) and isinstance(b, MonomialIdealLocal):
        return MonomialIdealLocal(staircase=sum_ideals(a.staircase, b.staircase))
    if isinstance(a, PolyLocalIdeal) and isinstance(b, PolyLocalIdeal):
        if a.order != b.order:
            raise ValueError("product requires a common term order")
        gens = tuple(g * h for g in a.generators for h in b.generators)
        return PolyLocalIdeal(generators=gens, order=a.order, m0=a.m0 + b.m0)
    raise ValueError("product of mixed ideal kinds is not supported")
