"""m-primary ideals in the localized polynomial ring over Q.

Polynomials carry exact rational coefficients.  A term order is a strictly
positive integer level functional refined lexicographically to a total
order; the lowest-term valuation sends f to its order-minimal exponent.
Initial ideals of powers a^k are read off from a truncated Macaulay-style
echelon of generator products: truncating every product whose lowest term
sits at level >= D only disturbs f above D, so pivots below D are exactly
the valuation values there.  The echelon is fraction-free: generators are
scaled once to integer coefficients (same pivots), their products are
taken over the integers, and rows are cross-multiplied.  Everything
upstream (colength, multiplicity, Lech chain) reduces to staircase
counting and covolume.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cones import RationalCone, orthant
from .errors import (InvariantViolation, MonotonicityViolation,
                     NotPrimaryWithinCap, ZeroPolynomial)
from .linalg import dot, rank, scale_to_int
from .radicals import compare_root_sum
from .regions import covol, mixed_covol
from .semigroups import (LatticeSemigroup, SemigroupIdealSet, complement_count,
                         ideal_power, iter_points_at_level, lattice_semigroup,
                         semigroup_ideal, staircase_region, sum_ideals)
from .fitting import stabilized_leading


# ---------------------------------------------------------------------------
# Polynomials and term orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Poly:
    """Polynomial as a sorted tuple of (exponent, coefficient) pairs."""

    n: int
    terms: tuple

    @staticmethod
    def from_dict(n: int, coeffs: dict) -> "Poly":
        items = []
        for exp, c in coeffs.items():
            c = Fraction(c)
            if c == 0:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp}")
            items.append((exp, c))
        return Poly(n=n, terms=tuple(sorted(items)))

    def as_dict(self) -> dict:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "Poly") -> "Poly":
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return Poly.from_dict(self.n, acc)

    def __add__(self, other: "Poly") -> "Poly":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return Poly.from_dict(self.n, acc)

    def min_total_degree(self) -> int:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial")
        return min(sum(e) for e, _ in self.terms)


def _clear_denominators(g: Poly) -> Poly:
    """Nonzero g times the lcm of its denominators: integer coefficients."""
    exps, coeffs = zip(*g.terms)
    return Poly(n=g.n, terms=tuple(zip(exps, scale_to_int(coeffs))))


def monomial(n: int, exp, coeff=1) -> Poly:
    return Poly.from_dict(n, {tuple(exp): Fraction(coeff)})


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

    def level(self, exp) -> int:
        return dot(self.ell, exp)


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


@dataclass(frozen=True)
class GoodValuationCertificate:
    """Constants making the lowest-term valuation good: level(v(f)) >= k*r0
    forces f into the k-th power of the maximal ideal."""

    ell: tuple
    r0: Fraction


def good_valuation_certificate(order: TermOrder) -> GoodValuationCertificate:
    # Every exponent of f sits at level >= level(v(f)); level >= k*max(ell)
    # forces total degree >= k on each term.
    return GoodValuationCertificate(ell=order.ell, r0=Fraction(max(order.ell)))


# ---------------------------------------------------------------------------
# Truncated echelon
# ---------------------------------------------------------------------------

def _points_below(weights, bound: int):
    """Exponents alpha with weights . alpha < bound (orthant DFS)."""
    n = len(weights)

    def rec(prefix, idx, budget):
        if idx == n:
            yield prefix
            return
        step = weights[idx]
        for v in range((budget - 1) // step + 1):
            yield from rec(prefix + (v,), idx + 1, budget - v * step)

    if bound > 0:
        yield from rec((), 0, bound)


class _Echelon:
    """Fraction-free sparse elimination with order-minimal pivots.

    Rows map exponents to integers.  A row is divided by its content when it
    becomes a pivot row, so pivot rows are primitive with a positive pivot
    coefficient.  Reducing r by the pivot row p at e sets r to
    (p[e]/g) r - (r[e]/g) p with g = gcd(r[e], p[e]), so e cancels exactly.
    Reduction tracks the candidate minimal exponents in a lazy-deletion heap
    so each step costs the fill-in it causes, not a rescan of the whole row.
    """

    def __init__(self, order: TermOrder):
        self.order = order
        self.pivots = {}
        self._keys = {}

    def _key(self, exp):
        k = self._keys.get(exp)
        if k is None:
            k = self.order.key(exp)
            self._keys[exp] = k
        return k

    def reduce(self, row: dict, insert: bool):
        heap = [(self._key(e), e) for e in row]
        heapq.heapify(heap)
        while heap:
            _, e = heapq.heappop(heap)
            if e not in row:
                continue
            prow = self.pivots.get(e)
            if prow is None:
                if insert:
                    content = math.gcd(*row.values())
                    if row[e] < 0:
                        content = -content
                    self.pivots[e] = {k: v // content for k, v in row.items()}
                return e
            g = math.gcd(row[e], prow[e])
            scale, c = prow[e] // g, row[e] // g
            if scale != 1:
                for k in row:
                    row[k] *= scale
            for k, v in prow.items():
                old = row.get(k)
                if old is None:
                    heapq.heappush(heap, (self._key(k), k))
                    row[k] = -c * v
                else:
                    new = old - c * v
                    if new:
                        row[k] = new
                    else:
                        del row[k]
        return None


def _insert_shifts(ech: _Echelon, gens, weights, bound: int) -> None:
    """Insert each x^alpha * g whose lowest term has weight < bound, cut there.

    A shifted term weighs the term's weight plus the weight of alpha.
    """
    for g in gens:
        terms = [(e, c, dot(weights, e)) for e, c in g.terms]
        base = min(w for _, _, w in terms)
        for alpha in sorted(_points_below(weights, bound - base)):
            room = bound - dot(weights, alpha)
            ech.reduce({tuple(map(operator.add, e, alpha)): c
                        for e, c, w in terms if w < room}, insert=True)


def truncated_echelon(gens, order: TermOrder, bound: int) -> frozenset:
    """Pivot exponents of span{x^alpha * g} cut off at level `bound`.

    Products whose lowest term reaches level >= bound are dropped and every
    row is truncated there; each pivot is the valuation of an actual
    element, and every valuation value below the certified completeness
    level appears.
    """
    ech = _Echelon(order)
    gens = [_clear_denominators(g) for g in gens if not g.is_zero]
    _insert_shifts(ech, gens, order.ell, bound)
    return frozenset(ech.pivots)


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

    @property
    def cone(self) -> RationalCone:
        return self.staircase.semigroup.cone


def monomial_ideal(exponents, cone: RationalCone = None,
                   semigroup: LatticeSemigroup = None) -> MonomialIdealLocal:
    exponents = [tuple(int(x) for x in e) for e in exponents]
    if not exponents:
        raise ValueError("need at least one monomial")
    if semigroup is None:
        if cone is None:
            cone = orthant(len(exponents[0]))
        semigroup = lattice_semigroup(cone)
    staircase = semigroup_ideal(semigroup, exponents)
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


def mprimary_exponent(gens, order: TermOrder, cap: int = 24) -> int:
    """Smallest d <= cap with every degree-d monomial in the truncated span.

    The test at d certifies m^d inside the ideal modulo m^(d+1); Nakayama
    upgrades that to m^d inside the ideal.
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
        ech = _Echelon(order)
        _insert_shifts(ech, gens, degree_order.ell, d + 1)
        ok = True
        for beta in iter_points_at_level(lattice_semigroup(orthant(n),
                                                           degree_order.ell), d):
            if ech.reduce({beta: 1}, insert=False) is not None:
                ok = False
                break
        if ok:
            return d
    raise NotPrimaryWithinCap(f"no power of m below {cap} lies in the ideal")


def poly_local_ideal(gens, order: TermOrder = None, cap: int = 24) -> PolyLocalIdeal:
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if order is None:
        order = standard_order(n)
    if order.n != n or any(g.n != n for g in gens):
        raise ValueError("dimension mismatch")
    m0 = mprimary_exponent(gens, order, cap)
    return PolyLocalIdeal(generators=gens, order=order, m0=m0)


@functools.lru_cache(maxsize=None)
def _product_map(a: PolyLocalIdeal, k: int):
    """Multiset of generator indices -> product of the integer generators."""
    if k == 1:
        return {(i,): _clear_denominators(g)
                for i, g in enumerate(a.generators)}
    prev, gens = _product_map(a, k - 1), _product_map(a, 1)
    out = {}
    for combo, p in prev.items():
        for j in range(combo[-1], len(a.generators)):
            acc = {}
            for e1, c1 in p.terms:
                for e2, c2 in gens[(j,)].terms:
                    e = tuple(map(operator.add, e1, e2))
                    acc[e] = acc.get(e, 0) + c1 * c2
            out[combo + (j,)] = Poly(n=a.n, terms=tuple(
                sorted(t for t in acc.items() if t[1])))
    return out


def _power_products(a: PolyLocalIdeal, k: int):
    """Products of k generators, one per multiset."""
    return tuple(_product_map(a, k).values())


@functools.lru_cache(maxsize=None)
def _initial_pivots(a: PolyLocalIdeal, k: int):
    """(pivot set, completeness level D0) for in(a^k)."""
    r0 = max(a.order.ell)
    d0 = k * a.m0 * r0
    pivots = truncated_echelon(_power_products(a, k), a.order, d0)
    return pivots, d0


def initial_semigroup_ideal(a, k: int = 1) -> SemigroupIdealSet:
    """Staircase of in(a^k): echelon pivots below D0, everything above it.

    Above D0 = k * m0 * max(ell) every exponent has total degree >= k*m0,
    so the corresponding monomial already lies in a^k.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    if isinstance(a, MonomialIdealLocal):
        return ideal_power(a.staircase, k) if k > 1 else a.staircase
    pivots, d0 = _initial_pivots(a, k)
    order = a.order
    sg = lattice_semigroup(orthant(a.n), order.ell)
    pts = set(pivots)
    for level in range(d0, d0 + max(order.ell)):
        pts.update(iter_points_at_level(sg, level))
    return semigroup_ideal(sg, pts)


def colength(a) -> int:
    """dim of R modulo the ideal: standard monomials below the staircase."""
    return colength_of_power(a, 1)


def colength_of_power(a, k: int) -> int:
    """Colength of a^k along the appropriate staircase/echelon path."""
    if isinstance(a, MonomialIdealLocal):
        return complement_count(ideal_power(a.staircase, k))
    pivots, d0 = _initial_pivots(a, k)
    sg = lattice_semigroup(orthant(a.n), a.order.ell)
    window = sum(1 for level in range(d0)
                 for _ in iter_points_at_level(sg, level))
    return window - len(pivots)


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


def multiplicity(a: MonomialIdealLocal) -> int:
    """e(a) = n! * covolume of the Newton region of the staircase."""
    return _staircase_multiplicity(a.staircase)


@dataclass(frozen=True)
class MultiplicityReport:
    """Certified data about e(a) for a polynomial ideal.

    u_values[k-1] = e(in(a^k)) / k^n is non-increasing and bounds e(a)
    from above; e_fit is the exact value once the Hilbert-Samuel fit
    stabilizes (None otherwise).  Stabilization includes far-point
    confirmation inside the fit_depth budget, so in three or more
    variables the default budget usually reports only the certified
    bounds; raise fit_depth to pay for deeper echelons.
    """

    n: int
    kmax: int
    u_values: tuple
    hilbert_values: tuple
    e_upper: Fraction
    e_fit: Fraction | None
    fit_stabilized: bool


def multiplicity_report(a: PolyLocalIdeal, kmax: int,
                        fit_depth: int = None) -> MultiplicityReport:
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    n = a.n
    if fit_depth is None:
        fit_depth = 24 if n <= 2 else 10
    u_values = []
    for k in range(1, kmax + 1):
        e_in = _staircase_multiplicity(initial_semigroup_ideal(a, k))
        u = Fraction(e_in, k ** n)
        if u_values and u > u_values[-1]:
            raise MonotonicityViolation(
                f"e(in(a^{k}))/{k}^{n} = {u} exceeds the previous value "
                f"{u_values[-1]}")
        u_values.append(u)
    hs = hilbert_samuel(a, kmax)
    fit = stabilized_leading(lambda k: colength_of_power(a, k), n,
                             max_k=fit_depth)
    e_fit = math.factorial(n) * fit[0] if fit else None
    return MultiplicityReport(n=n, kmax=kmax, u_values=tuple(u_values),
                              hilbert_values=tuple(hs),
                              e_upper=u_values[-1], e_fit=e_fit,
                              fit_stabilized=fit is not None)


def mixed_multiplicity(ideals) -> int:
    """n! times the mixed covolume of the Newton regions; an integer."""
    ideals = list(ideals)
    regions = [staircase_region(a.staircase) for a in ideals]
    n = ideals[0].n
    return _integral(math.factorial(n) * mixed_covol(regions),
                     "mixed multiplicity")


@dataclass(frozen=True)
class BernsteinKushnirenkoReport:
    intersection_multiplicity: int
    dimension: int
    statement: str


def bk_report(ideals) -> BernsteinKushnirenkoReport:
    """Intersection count at the origin for generic members of the ideals.

    Pure reporting on top of the mixed multiplicity; no system is solved.
    """
    ideals = list(ideals)
    value = mixed_multiplicity(ideals)
    n = ideals[0].n
    statement = (f"Generic members f_1, ..., f_{n} of the {n} given monomial "
                 f"ideals vanish simultaneously at the origin with "
                 f"intersection multiplicity {value}.")
    return BernsteinKushnirenkoReport(intersection_multiplicity=value,
                                      dimension=n, statement=statement)


@dataclass(frozen=True)
class LechChain:
    """e(a) <= e(in(a)) <= n! dim(R/a), with the best available e(a) bound."""

    e_upper: Fraction
    e_in: int
    bound: int
    holds: bool


def lech_chain(a, kmax: int = 4) -> LechChain:
    if isinstance(a, MonomialIdealLocal):
        e = multiplicity(a)
        bound = math.factorial(a.n) * colength(a)
        return LechChain(e_upper=Fraction(e), e_in=e, bound=bound,
                         holds=e <= bound)
    report = multiplicity_report(a, kmax)
    e_in = _staircase_multiplicity(initial_semigroup_ideal(a, 1))
    bound = math.factorial(a.n) * colength(a)
    e_upper = report.e_upper
    holds = e_upper <= e_in <= bound
    if report.e_fit is not None:
        holds = holds and report.e_fit <= Fraction(e_in)
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


def multiplicity_bm_check(a, b) -> tuple:
    """Exact Brunn-Minkowski comparison for two monomial ideals.

    Returns (holds, equality) for e(a)^(1/n) + e(b)^(1/n) >= e(ab)^(1/n).
    """
    n = a.n
    ea, eb = multiplicity(a), multiplicity(b)
    eab = multiplicity(product_ideal(a, b))
    cmp_sign = compare_root_sum(Fraction(ea), Fraction(eb), Fraction(eab), n)
    return cmp_sign >= 0, cmp_sign == 0
