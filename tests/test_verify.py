"""Instance generation determinism and the verification suites."""

import contextlib
import hashlib
import io
import json

from coconvex.cli import main
from coconvex.cones import orthant
from coconvex.localalg import monomial_ideal, multiplicity, product_ideal
from coconvex.radicals import compare_root_sum
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
    """The documented draws: a pure power per ray of `orthant(n)` in its
    order, a count in [2, 5], then that many nonzero exponents in the box,
    each redrawn while zero.  Every count occurs."""
    counts = set()
    for n in (1, 2, 3, 4):
        for seed in range(25):
            rng = XorShift64Star(seed)
            powers = [rng.randint(1, 5) for _ in range(n)]
            gens = [tuple(p * x for x in ray) for p, ray in zip(powers, orthant(n).rays)]
            count = rng.randint(2, 5)
            counts.add(count)
            while len(gens) < n + count:
                pt = tuple(rng.randint(0, 5) for _ in range(n))
                if any(pt):
                    gens.append(pt)
            drawn = random_monomial_ideal(InstanceSpec(dimension=n, seed=seed,
                                                       exponent_bound=5))
            assert drawn.staircase == monomial_ideal(gens).staircase, (n, seed)
    assert counts == {2, 3, 4, 5}
    spec = InstanceSpec(dimension=2, seed=2024, exponent_bound=9)
    assert random_monomial_ideal(spec).staircase.min_generators == \
        ((0, 7), (3, 6), (8, 0))


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
    from coconvex.localalg import monomial_ideal
    a = monomial_ideal([(2, 0), (0, 3), (1, 1)])
    e = multiplicity(a)
    sign = compare_root_sum(e, e, multiplicity(product_ideal(a, a)), 2)
    assert sign == 0  # holds, with equality
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


# SHA-256 of the canonical report bytes of each suite at seed 7, five
# instances, exponent bound 6.  Any change to an exact value, to the
# instance stream or to the report layout changes a digest.
VERIFY_DIGESTS = {
    (2, "bm-covol"):
        "63b5cad9fc0f80df394e0d0bc4ccdeda32bf0d5644f6ba65fb77885a756ad454",
    (2, "af-covol"):
        "40d362f7e1d7c7ee1472abe608c0cbc572d6148afa37d6fdbcf33b2a1fc93431",
    (2, "bm-mult"):
        "d27f789b68ed5a6e0c467f37e57381965c3db62c3a12dfa6a1664e00bcd6ce2f",
    (2, "lech"):
        "7cfc6be870d0dd26a9d521430b89010a341b86faae33b2209a2b9743b61f91d5",
    (2, "polynomiality"):
        "f9d10c6d6245a3122904e5107a107d6739c1477912e691e010ce846492d6850f",
    (3, "bm-covol"):
        "16c78bff77ded3101a66da3678dad81db83fc0b530c1b13fe397d6e8af5046d8",
    (3, "af-covol"):
        "516f553250a171ed8b1aa573f6d31a72f07b62d72fb99177b94603f1308ffb1d",
    (3, "bm-mult"):
        "0f799925f99643436bc009148ff709f5d93b44b92a0e8304d7dff639dbe00241",
    (3, "lech"):
        "22e02ff3f91ba1d6bea3dca3193916d6f27cc2d9786541760b5812a71a83b546",
    (3, "polynomiality"):
        "9b802a78b5f870d3e69a1ec0656ec205a31927e4cb35f2d1a96319acde8791d7",
}


def test_verify_reports_pinned():
    for (dimension, suite), digest in VERIFY_DIGESTS.items():
        spec = InstanceSpec(dimension=dimension, seed=7, exponent_bound=6)
        report = SUITES[suite](spec, 5).canonical_bytes()
        assert hashlib.sha256(report).hexdigest() == digest, (dimension, suite)


# SHA-256 of the stdout of `verify --format table` at dim 2, seed 7, three
# instances.  The table prints each record's keys in insertion order, which
# the sorted canonical bytes above cannot see.
VERIFY_TABLE_DIGESTS = {
    "bm-covol":
        "2edfb6ef06cbd867b34985890bd087aa7da0af674b1a26b50774c65309d4e1da",
    "af-covol":
        "eb00be0ece5ccb46ca29bfb3d4ab02f553f533cf1845380af3194a8982605088",
    "bm-mult":
        "825475e22e177639669a28b8466581f3cc0c571dff771c19f2bb09d25e11d52f",
    "lech":
        "897fa285de4b876e5c87a961461eae8e9f24e12ad44ef01ed66eb7ecf475c445",
    "polynomiality":
        "eb04486c9560aafc11cb34716b702cc1fbb816d97ad036539a0d277a4f2723b5",
}


def test_verify_table_reports_pinned():
    for suite, digest in VERIFY_TABLE_DIGESTS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", "--suite", suite, "--dim", "2", "--seed", "7",
                         "--count", "3", "--format", "table"])
        assert code == 0, suite
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, suite
