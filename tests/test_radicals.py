"""Exact nth-root sum comparisons."""

import random
from fractions import Fraction

import pytest

from coconvex import radicals
from coconvex.cli import main
from coconvex.errors import InvariantViolation
from coconvex.radicals import compare_root_sum, nth_root_floor, rational_nth_root


def test_nth_root_floor():
    assert nth_root_floor(0, 2) == 0
    assert nth_root_floor(1, 5) == 1
    assert nth_root_floor(63, 2) == 7
    assert nth_root_floor(64, 2) == 8
    assert nth_root_floor(124, 3) == 4
    assert nth_root_floor(125, 3) == 5
    assert nth_root_floor(10 ** 30, 3) == 10 ** 10
    big = 123456789
    assert nth_root_floor(big ** 4 - 1, 4) == big - 1


def test_rational_nth_root():
    assert rational_nth_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert rational_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert rational_nth_root(Fraction(2), 2) is None
    assert rational_nth_root(Fraction(4, 8), 2) is None


def test_compare_zero_cases():
    z = Fraction(0)
    assert compare_root_sum(z, z, z, 2) == 0
    assert compare_root_sum(Fraction(1), z, z, 2) == 1
    assert compare_root_sum(z, z, Fraction(1), 3) == -1
    assert compare_root_sum(Fraction(4), z, Fraction(4), 2) == 0
    assert compare_root_sum(z, Fraction(3), Fraction(4), 2) == -1


def test_compare_exact_equality_cases():
    # (1/2)^(1/2) + 2^(1/2) = (9/2)^(1/2): 1/sqrt2 + sqrt2 = 3/sqrt2
    assert compare_root_sum(Fraction(1, 2), Fraction(2), Fraction(9, 2), 2) == 0
    # homothety: a + lambda^n a against (1+lambda)^n a
    for n in (2, 3, 4):
        for lam in (Fraction(2), Fraction(1, 3), Fraction(5, 4)):
            a = Fraction(7, 3)
            assert compare_root_sum(a, lam ** n * a, (1 + lam) ** n * a, n) == 0


def test_compare_strict_cases():
    assert compare_root_sum(Fraction(3), Fraction(3), Fraction(8), 2) == 1
    assert compare_root_sum(Fraction(1, 100), Fraction(1, 100), Fraction(9, 2), 2) == -1
    # near-equality: (sqrt2 + sqrt3)^2 = 5 + 2 sqrt6, and 4801/1960 is a
    # continued-fraction convergent just above sqrt6 (4801^2 = 6*1960^2 + 1),
    # so the sides differ by ~5e-8 and the interval refinement must dig in
    assert compare_root_sum(Fraction(2), Fraction(3),
                            Fraction(5) + Fraction(4801, 980), 2) == -1
    # and 6*1960/4801 sits just below sqrt6, flipping the sign
    assert compare_root_sum(Fraction(2), Fraction(3),
                            Fraction(5) + 2 * Fraction(11760, 4801), 2) == 1


def test_compare_matches_float_on_random_instances():
    rng = random.Random(4242)
    for n in (2, 3, 4):
        for _ in range(200):
            a = Fraction(rng.randint(0, 400), rng.randint(1, 40))
            b = Fraction(rng.randint(0, 400), rng.randint(1, 40))
            c = Fraction(rng.randint(1, 400), rng.randint(1, 40))
            got = compare_root_sum(a, b, c, n)
            approx = (float(a) ** (1 / n) + float(b) ** (1 / n)
                      - float(c) ** (1 / n))
            if abs(approx) > 1e-9:
                assert got == (1 if approx > 0 else -1)


def test_failed_separation_raises_and_exits_2(monkeypatch, capsys):
    # overlapping intervals at every precision: the comparison must give up
    # with a package error, and the CLI must report it as exit 2
    monkeypatch.setattr(radicals, "_root_bounds",
                        lambda q, n, prec: (Fraction(0), Fraction(10)))
    with pytest.raises(InvariantViolation):
        compare_root_sum(Fraction(2), Fraction(3), Fraction(7), 2)
    for suite in ("bm-covol", "bm-mult"):
        code = main(["verify", "--suite", suite, "--count", "1", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "InvariantViolation" in err and "Traceback" not in err
