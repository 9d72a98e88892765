"""Seeded verification suites for the inequality and polynomiality theorems.

Each suite turns one instance seed into a record of exact values and two
flags, violated and equal, and the driver `_run` does the rest: it draws
the instance seeds off the master stream first (so evaluation order cannot
matter), numbers the records and reports violations as data rather than
exceptions.  A violation would contradict a theorem, so any entry signals
an implementation bug.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import WrongArity
from .fitting import fit_homogeneous_pair
from .jsonio import frac_str
from .localalg import (colength, lech_chain, monomial, multiplicity,
                       poly_local_ideal, product_ideal)
from .radicals import compare_root_sum
from .randgen import InstanceSpec, XorShift64Star, random_monomial_ideal
from .regions import covol, mixed_covol, minkowski_sum
from .semigroups import ideal_power, semigroup_ideal, staircase_region


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    dimension: int
    seed: int
    count: int
    instances: tuple
    violations: tuple
    equality_cases: int
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        # elapsed_ms is deliberately left out: identical seed and flags must
        # produce byte-identical reports.
        return {
            "suite": self.suite,
            "dimension": self.dimension,
            "seed": self.seed,
            "count": self.count,
            "instances": list(self.instances),
            "violations": list(self.violations),
            "equality_cases": self.equality_cases,
            "passed": self.passed,
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":")).encode()


def _draw_ideals(spec: InstanceSpec, seed: int, how_many: int):
    rng = XorShift64Star(seed)
    return [random_monomial_ideal(spec, rng) for _ in range(how_many)]


def _gens(ideal):
    return [list(g) for g in ideal.staircase.min_generators]


_RELATION = {-1: "lt", 0: "eq", 1: "gt"}


def _run(name: str, spec: InstanceSpec, count: int, instance,
         extra=()) -> VerificationReport:
    """Run `instance(seed) -> (record, violated, equal)` on each instance
    seed, then take the same triples from `extra`, whose records never count
    as equality cases.  Each record is numbered in report order; a seeded
    one also carries its seed."""
    started = time.perf_counter()
    master = XorShift64Star(spec.seed)
    seeds = [master.next_u64() or 1 for _ in range(count)]
    rows = []
    for index, seed in enumerate(seeds):
        record, violated, equal = instance(seed)
        rows.append(({"index": index, "seed": seed, **record}, violated, equal))
    for index, (record, violated, _) in enumerate(extra, start=count):
        rows.append(({"index": index, **record}, violated, False))
    return VerificationReport(
        suite=name, dimension=spec.dimension, seed=spec.seed, count=count,
        instances=tuple(record for record, _, _ in rows),
        violations=tuple(record for record, violated, _ in rows if violated),
        equality_cases=sum(equal for _, _, equal in rows),
        elapsed_ms=(time.perf_counter() - started) * 1000.0)


def suite_bm_covol(spec: InstanceSpec, count: int) -> VerificationReport:
    """covol^(1/n)(G1) + covol^(1/n)(G2) >= covol^(1/n)(G1+G2), exactly."""
    def instance(seed):
        a, b = _draw_ideals(spec, seed, 2)
        ra, rb = staircase_region(a.staircase), staircase_region(b.staircase)
        ca, cb = covol(ra), covol(rb)
        cab = covol(minkowski_sum(ra, rb))
        sign = compare_root_sum(ca, cb, cab, spec.dimension)
        return ({"gens_a": _gens(a), "gens_b": _gens(b),
                 "covol_a": frac_str(ca), "covol_b": frac_str(cb),
                 "covol_sum": frac_str(cab), "relation": _RELATION[sign]},
                sign < 0, sign == 0)
    return _run("bm-covol", spec, count, instance)


def suite_af_covol(spec: InstanceSpec, count: int) -> VerificationReport:
    """CV(G1,G1,rest) * CV(G2,G2,rest) >= CV(G1,G2,rest)^2, exactly."""
    if spec.dimension < 2:
        raise WrongArity(f"af-covol needs dim >= 2, got {spec.dimension}")

    def instance(seed):
        ideals = _draw_ideals(spec, seed, spec.dimension)
        regions = [staircase_region(a.staircase) for a in ideals]
        rest = regions[2:]
        lhs1 = mixed_covol([regions[0], regions[0]] + rest)
        lhs2 = mixed_covol([regions[1], regions[1]] + rest)
        cross = mixed_covol([regions[0], regions[1]] + rest)
        sign = (lhs1 * lhs2 > cross ** 2) - (lhs1 * lhs2 < cross ** 2)
        return ({"gens": [_gens(a) for a in ideals],
                 "cv_11": frac_str(lhs1), "cv_22": frac_str(lhs2),
                 "cv_12": frac_str(cross), "relation": _RELATION[sign]},
                sign < 0, sign == 0)
    return _run("af-covol", spec, count, instance)


def suite_bm_mult(spec: InstanceSpec, count: int) -> VerificationReport:
    """e(a)^(1/n) + e(b)^(1/n) >= e(ab)^(1/n) on random monomial pairs."""
    def instance(seed):
        a, b = _draw_ideals(spec, seed, 2)
        ea, eb = multiplicity(a), multiplicity(b)
        eab = multiplicity(product_ideal(a, b))
        sign = compare_root_sum(ea, eb, eab, spec.dimension)
        return ({"gens_a": _gens(a), "gens_b": _gens(b),
                 "e_a": ea, "e_b": eb, "e_ab": eab,
                 "relation": _RELATION[sign]},
                sign < 0, sign == 0)
    return _run("bm-mult", spec, count, instance)


def _lech_poly_corpus():
    x, y = monomial(2, (1, 0)), monomial(2, (0, 1))
    x2, y2 = monomial(2, (2, 0)), monomial(2, (0, 2))
    y3, y4 = monomial(2, (0, 3)), monomial(2, (0, 4))
    half_y3 = monomial(2, (0, 3), Fraction(1, 2))
    return [
        poly_local_ideal([x + y2, y3]),
        poly_local_ideal([x2 + y3, y4]),
        poly_local_ideal([x2 + half_y3, x * y, y4]),
        poly_local_ideal([x + y, y2]),
    ]


def _lech_record(a, head: dict):
    chain = lech_chain(a)
    return ({**head, "e_upper": frac_str(chain.e_upper), "e_in": chain.e_in,
             "bound": chain.bound, "holds": chain.holds},
            not chain.holds, chain.e_in == chain.bound)


def suite_lech(spec: InstanceSpec, count: int) -> VerificationReport:
    """e(a) <= e(in(a)) <= n! dim(R/a) on random monomial ideals, plus a
    fixed corpus of 2-variable polynomial ideals when the dimension is 2."""
    def instance(seed):
        (a,) = _draw_ideals(spec, seed, 1)
        return _lech_record(a, {"kind": "monomial", "gens": _gens(a)})

    corpus = _lech_poly_corpus() if spec.dimension == 2 else []
    polynomial = (_lech_record(a, {
        "kind": "polynomial",
        "generators": [[[list(e), frac_str(c)] for e, c in g.terms]
                       for g in a.generators],
        "colength": colength(a)}) for a in corpus)
    return _run("lech", spec, count, instance, polynomial)


def suite_polynomiality(spec: InstanceSpec, count: int) -> VerificationReport:
    """The covolume e/n! of the region of I1^k1 I2^k2, the Minkowski sum of
    the staircase regions of I1^k1 and I2^k2 (I^0 the whole semigroup),
    agrees exactly with a homogeneous degree-n polynomial on the integer
    grid [0,3]^2."""
    n = spec.dimension

    def instance(seed):
        a, b = _draw_ideals(spec, seed, 2)
        origin = semigroup_ideal(a.staircase.semigroup, [(0,) * n])
        values = {}
        for k1 in range(4):
            for k2 in range(4):
                r1 = staircase_region(ideal_power(a.staircase, k1) if k1 else origin)
                r2 = staircase_region(ideal_power(b.staircase, k2) if k2 else origin)
                values[(k1, k2)] = covol(minkowski_sum(r1, r2))
        coeffs, residual_zero = fit_homogeneous_pair(values, n)
        return ({"gens_a": _gens(a), "gens_b": _gens(b),
                 "grid": {f"{k1},{k2}": frac_str(v)
                          for (k1, k2), v in values.items()},
                 "coefficients": [frac_str(c) for c in coeffs] if coeffs else None,
                 "residual_zero": residual_zero},
                not residual_zero, False)
    return _run("polynomiality", spec, count, instance)


SUITES = {
    "bm-covol": suite_bm_covol,
    "af-covol": suite_af_covol,
    "bm-mult": suite_bm_mult,
    "lech": suite_lech,
    "polynomiality": suite_polynomiality,
}
