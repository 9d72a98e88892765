"""Seeded verification suites for the inequality and polynomiality theorems.

Each suite draws deterministic instances (per-instance seeds come off the
master stream first, so evaluation order cannot matter), computes every
value exactly, and reports violations as data rather than exceptions.  A
violation would contradict a theorem, so any entry signals an
implementation bug.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from .fitting import fit_homogeneous_pair
from .jsonio import frac_str
from .localalg import (colength, lech_chain, monomial, multiplicity,
                       multiplicity_bm_check, poly_local_ideal, product_ideal)
from .radicals import compare_root_sum
from .randgen import InstanceSpec, XorShift64Star, random_monomial_ideal
from .regions import covol, mixed_covol, minkowski_sum
from .semigroups import (ideal_power, multiplicity as sequence_multiplicity,
                         power_sequence, product_sequence, semigroup_ideal,
                         staircase_region)


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


def _instance_seeds(spec: InstanceSpec, count: int):
    rng = XorShift64Star(spec.seed)
    return [rng.next_u64() or 1 for _ in range(count)]


def _spec_with_seed(spec: InstanceSpec, seed: int) -> InstanceSpec:
    return InstanceSpec(dimension=spec.dimension, seed=seed,
                        exponent_bound=spec.exponent_bound,
                        min_generators=spec.min_generators,
                        max_generators=spec.max_generators,
                        cone_rays=spec.cone_rays)


def _draw_ideals(spec: InstanceSpec, seed: int, how_many: int):
    rng = XorShift64Star(seed)
    sub = _spec_with_seed(spec, seed)
    return [random_monomial_ideal(sub, rng) for _ in range(how_many)]


def _gens(ideal):
    return [list(g) for g in ideal.staircase.min_generators]


def _finish(suite, spec, count, instances, violations, equalities, started):
    return VerificationReport(
        suite=suite, dimension=spec.dimension, seed=spec.seed, count=count,
        instances=tuple(instances), violations=tuple(violations),
        equality_cases=equalities,
        elapsed_ms=(time.perf_counter() - started) * 1000.0)


def suite_bm_covol(spec: InstanceSpec, count: int) -> VerificationReport:
    """covol^(1/n)(G1) + covol^(1/n)(G2) >= covol^(1/n)(G1+G2), exactly."""
    started = time.perf_counter()
    n = spec.dimension
    instances, violations, equalities = [], [], 0
    for idx, seed in enumerate(_instance_seeds(spec, count)):
        a, b = _draw_ideals(spec, seed, 2)
        ra, rb = staircase_region(a.staircase), staircase_region(b.staircase)
        ca, cb = covol(ra), covol(rb)
        cab = covol(minkowski_sum(ra, rb))
        sign = compare_root_sum(ca, cb, cab, n)
        record = {
            "index": idx, "seed": seed,
            "gens_a": _gens(a), "gens_b": _gens(b),
            "covol_a": frac_str(ca), "covol_b": frac_str(cb),
            "covol_sum": frac_str(cab),
            "relation": "eq" if sign == 0 else ("gt" if sign > 0 else "lt"),
        }
        instances.append(record)
        if sign < 0:
            violations.append(record)
        if sign == 0:
            equalities += 1
    return _finish("bm-covol", spec, count, instances, violations,
                   equalities, started)


def suite_af_covol(spec: InstanceSpec, count: int) -> VerificationReport:
    """CV(G1,G1,rest) * CV(G2,G2,rest) >= CV(G1,G2,rest)^2, exactly."""
    started = time.perf_counter()
    n = spec.dimension
    instances, violations, equalities = [], [], 0
    for idx, seed in enumerate(_instance_seeds(spec, count)):
        ideals = _draw_ideals(spec, seed, n)
        regions = [staircase_region(a.staircase) for a in ideals]
        rest = regions[2:]
        lhs1 = mixed_covol([regions[0], regions[0]] + rest)
        lhs2 = mixed_covol([regions[1], regions[1]] + rest)
        cross = mixed_covol([regions[0], regions[1]] + rest)
        record = {
            "index": idx, "seed": seed,
            "gens": [_gens(a) for a in ideals],
            "cv_11": frac_str(lhs1), "cv_22": frac_str(lhs2),
            "cv_12": frac_str(cross),
            "relation": "eq" if lhs1 * lhs2 == cross ** 2 else
                        ("gt" if lhs1 * lhs2 > cross ** 2 else "lt"),
        }
        instances.append(record)
        if lhs1 * lhs2 < cross ** 2:
            violations.append(record)
        if lhs1 * lhs2 == cross ** 2:
            equalities += 1
    return _finish("af-covol", spec, count, instances, violations,
                   equalities, started)


def suite_bm_mult(spec: InstanceSpec, count: int) -> VerificationReport:
    """e(a)^(1/n) + e(b)^(1/n) >= e(ab)^(1/n) on random monomial pairs."""
    started = time.perf_counter()
    instances, violations, equalities = [], [], 0
    for idx, seed in enumerate(_instance_seeds(spec, count)):
        a, b = _draw_ideals(spec, seed, 2)
        ab = product_ideal(a, b)
        holds, equal = multiplicity_bm_check(a, b)
        record = {
            "index": idx, "seed": seed,
            "gens_a": _gens(a), "gens_b": _gens(b),
            "e_a": multiplicity(a), "e_b": multiplicity(b),
            "e_ab": multiplicity(ab),
            "relation": "eq" if equal else ("gt" if holds else "lt"),
        }
        instances.append(record)
        if not holds:
            violations.append(record)
        if equal:
            equalities += 1
    return _finish("bm-mult", spec, count, instances, violations,
                   equalities, started)


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


def suite_lech(spec: InstanceSpec, count: int) -> VerificationReport:
    """e(a) <= e(in(a)) <= n! dim(R/a) on random monomial ideals, plus a
    fixed corpus of 2-variable polynomial ideals when the dimension is 2."""
    started = time.perf_counter()
    instances, violations, equalities = [], [], 0
    for idx, seed in enumerate(_instance_seeds(spec, count)):
        (a,) = _draw_ideals(spec, seed, 1)
        chain = lech_chain(a)
        record = {
            "index": idx, "seed": seed, "kind": "monomial",
            "gens": _gens(a),
            "e_upper": frac_str(chain.e_upper), "e_in": chain.e_in,
            "bound": chain.bound, "holds": chain.holds,
        }
        instances.append(record)
        if not chain.holds:
            violations.append(record)
        if chain.e_in == chain.bound:
            equalities += 1
    corpus = _lech_poly_corpus() if spec.dimension == 2 else []
    for j, a in enumerate(corpus):
        chain = lech_chain(a)
        record = {
            "index": count + j, "kind": "polynomial",
            "generators": [[[list(e), frac_str(c)] for e, c in g.terms]
                           for g in a.generators],
            "colength": colength(a),
            "e_upper": frac_str(chain.e_upper), "e_in": chain.e_in,
            "bound": chain.bound, "holds": chain.holds,
        }
        instances.append(record)
        if not chain.holds:
            violations.append(record)
    return _finish("lech", spec, count, instances, violations,
                   equalities, started)


def suite_polynomiality(spec: InstanceSpec, count: int) -> VerificationReport:
    """e(k1 * I1 + k2 * I2) agrees exactly with a homogeneous degree-n
    polynomial on the integer grid [0,3]^2."""
    started = time.perf_counter()
    n = spec.dimension
    instances, violations, equalities = [], [], 0
    for idx, seed in enumerate(_instance_seeds(spec, count)):
        a, b = _draw_ideals(spec, seed, 2)
        sg = a.staircase.semigroup
        origin = semigroup_ideal(sg, [tuple(0 for _ in range(n))])
        values = {}
        for k1 in range(4):
            for k2 in range(4):
                s1 = power_sequence(ideal_power(a.staircase, k1) if k1 else origin)
                s2 = power_sequence(ideal_power(b.staircase, k2) if k2 else origin)
                values[(k1, k2)] = sequence_multiplicity(product_sequence(s1, s2))
        coeffs, residual_zero = fit_homogeneous_pair(values, n)
        record = {
            "index": idx, "seed": seed,
            "gens_a": _gens(a), "gens_b": _gens(b),
            "grid": {f"{k1},{k2}": frac_str(v) for (k1, k2), v in values.items()},
            "coefficients": [frac_str(c) for c in coeffs] if coeffs else None,
            "residual_zero": residual_zero,
        }
        instances.append(record)
        if not residual_zero:
            violations.append(record)
    return _finish("polynomiality", spec, count, instances, violations,
                   equalities, started)


SUITES = {
    "bm-covol": suite_bm_covol,
    "af-covol": suite_af_covol,
    "bm-mult": suite_bm_mult,
    "lech": suite_lech,
    "polynomiality": suite_polynomiality,
}
