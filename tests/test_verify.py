"""Instance generation determinism and the verification suites."""

import json

from coconvex.cones import dual_description
from coconvex.localalg import multiplicity, product_ideal
from coconvex.randgen import InstanceSpec, XorShift64Star, random_monomial_ideal
from coconvex.semigroups import complement_count
from coconvex.suites import (SUITES, suite_af_covol, suite_bm_covol,
                             suite_bm_mult, suite_lech, suite_polynomiality)


def test_xorshift_reference_values():
    # pinned outputs of the documented xorshift64* recurrence
    rng = XorShift64Star(1)
    assert [rng.next_u64() for _ in range(4)] == [
        5180492295206395165, 12380297144915551517,
        13389498078930870103, 5599127315341312413]
    assert XorShift64Star(0).next_u64() == 973819730272012410
    rng = XorShift64Star(12345)
    assert [rng.next_u64() for _ in range(3)] == [
        10977518812293740004, 13893246733018840292, 1412386850724336324]


def test_randint_bounds():
    rng = XorShift64Star(99)
    draws = [rng.randint(2, 5) for _ in range(200)]
    assert set(draws) <= {2, 3, 4, 5}
    assert len(set(draws)) == 4


def test_random_ideal_deterministic():
    spec = InstanceSpec(dimension=2, seed=424242)
    a = random_monomial_ideal(spec)
    b = random_monomial_ideal(spec)
    assert a.staircase.min_generators == b.staircase.min_generators


def test_random_ideal_always_primary():
    for seed in range(40):
        spec = InstanceSpec(dimension=2, seed=seed, exponent_bound=8)
        a = random_monomial_ideal(spec)
        assert complement_count(a.staircase) >= 1
    for seed in range(10):
        spec = InstanceSpec(dimension=3, seed=seed, exponent_bound=4)
        a = random_monomial_ideal(spec)
        assert complement_count(a.staircase) >= 1


def test_random_ideal_generator_count_range():
    spec = InstanceSpec(dimension=2, seed=5, exponent_bound=9,
                        min_generators=3, max_generators=6)
    a = random_monomial_ideal(spec)
    # pruning can only shrink: pure powers (2) + draws (3..6)
    assert 2 <= len(a.staircase.min_generators) <= 8


def test_random_ideal_custom_cone():
    spec = InstanceSpec(dimension=2, seed=7, exponent_bound=3,
                        cone_rays=((1, 0), (1, 2)))
    a = random_monomial_ideal(spec)
    assert a.cone == dual_description([(1, 0), (1, 2)])
    assert complement_count(a.staircase) >= 0


def test_suites_pass_and_are_deterministic():
    spec = InstanceSpec(dimension=2, seed=31337)
    for name, fn in SUITES.items():
        count = 3 if name == "polynomiality" else 8
        r1 = fn(spec, count)
        r2 = fn(spec, count)
        assert r1.passed, name
        assert r1.canonical_bytes() == r2.canonical_bytes(), name
        payload = json.loads(r1.canonical_bytes())
        assert payload["violations"] == []
        assert "elapsed_ms" not in payload


def test_suite_reports_embed_instances():
    spec = InstanceSpec(dimension=2, seed=11)
    report = suite_bm_covol(spec, 4)
    assert len(report.instances) == 4
    for inst in report.instances:
        assert {"gens_a", "gens_b", "covol_a", "covol_b", "covol_sum"} <= set(inst)


def test_bm_mult_suite_equality_on_homothetic_pair():
    # constructed check: a and a give e(a^2) = 2^n e(a), flagged as equality
    from coconvex.localalg import monomial_ideal, multiplicity_bm_check
    a = monomial_ideal([(2, 0), (0, 3), (1, 1)])
    holds, equal = multiplicity_bm_check(a, a)
    assert holds and equal
    assert multiplicity(product_ideal(a, a)) == 4 * multiplicity(a)


def test_suites_three_dimensional_smoke():
    spec = InstanceSpec(dimension=3, seed=2718, exponent_bound=3)
    assert suite_bm_covol(spec, 3).passed
    assert suite_af_covol(spec, 3).passed
    assert suite_bm_mult(spec, 3).passed
    assert suite_lech(spec, 3).passed


def test_lech_report_matches_its_dimension():
    # The fixed polynomial corpus has 2 variables; it only joins 2-D reports.
    report = suite_lech(InstanceSpec(dimension=3, seed=2), 1)
    assert report.dimension == 3 and report.instances
    for inst in report.instances:
        if inst["kind"] == "monomial":
            exps = inst["gens"]
        else:
            exps = [e for g in inst["generators"] for e, _ in g]
        assert all(len(e) == 3 for e in exps)
    report = suite_lech(InstanceSpec(dimension=2, seed=2), 1)
    kinds = [inst["kind"] for inst in report.instances]
    assert kinds == ["monomial"] + ["polynomial"] * 4


def test_polynomiality_suite_structure():
    spec = InstanceSpec(dimension=2, seed=77)
    report = suite_polynomiality(spec, 2)
    assert report.passed
    for inst in report.instances:
        assert inst["residual_zero"]
        assert inst["grid"]["0,0"] == "0"
