"""The benchmark's workloads: seeded inputs, one timed call, exact checks.

A workload turns (seed, index) into the plain input of one instance
(`make`), runs that instance through the package's public functions
(`call`, the only timed part) and checks the result (`check`).  The check
applies the theorem the instance exercises and returns the instance's
canonical output bytes, whose digest `reference.json` pins per seed.

The inputs come from `random.Random` seeded with a string, which Python
hashes with SHA-512, so the same seed gives the same inputs on every
platform and under every PYTHONHASHSEED.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from coconvex import cli
from coconvex.cones import dual_description
from coconvex.fitting import stabilized_leading
from coconvex.localalg import monomial_ideal
from coconvex.regions import covol
from coconvex.semigroups import complement_count, ideal_power, staircase_region

# Every DIM3_EVERY-th staircase-fit instance is three-dimensional: the
# ideal of three random axis powers.  Its fit costs about 0.4 s whatever
# the powers, 30 times a 2-D fit, and any further generator can make it
# cost 2 s or more.  At one in five, p90 falls in the middle of the 3-D
# fits rather than on the edge between the two groups.  Index 0 is 3-D,
# so the digest prefix covers both dimensions.
DIM3_EVERY = 5
SKEW_RAYS = ((1, 0), (1, 2))
# The pure powers along the skew rays drive a skew fit's cost.  They cycle
# through every pair by index instead of being drawn, so every run holds
# the same mix; drawn, they moved p90 by up to 9% from seed to seed.
SKEW_POWERS = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3))
SUITE_CYCLE = (("bm-covol", 2, 6), ("af-covol", 2, 6), ("bm-mult", 2, 6),
               ("bm-covol", 3, 3), ("af-covol", 3, 3), ("bm-mult", 3, 3))
LECH_SHARED_EVERY = 3
LECH_POWERS = ((1, 2), (2, 1))  # (a, b) of (x^a + tail, y^b + tail)
LECH_INPUT = "lech-input.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable  # (seed, index, workdir) -> input of one instance
    call: Callable  # input -> raw result; the timed part
    check: Callable  # (input, raw) -> (canonical bytes, passed)


def instance_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _captured(argv):
    """Run the CLI in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# staircase-fit and skew-staircase
# ---------------------------------------------------------------------------

def _pure_powers(powers, rays):
    return [[power * x for x in ray] for power, ray in zip(powers, rays)]


def _cone_points(rng, rays, bound, extra_lo, extra_hi):
    """A few random nonzero cone points with ray coefficients up to bound."""
    n = len(rays[0])
    gens = []
    for _ in range(rng.randint(extra_lo, extra_hi)):
        while True:
            coeffs = [rng.randint(0, bound) for _ in rays]
            pt = [sum(c * r[i] for c, r in zip(coeffs, rays))
                  for i in range(n)]
            if any(pt):
                break
        gens.append(pt)
    return gens


def _axes(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def make_staircase(seed, index, workdir):
    """A random pure power along every axis plus a few random points."""
    rng = instance_rng("staircase-fit", seed, index)
    n, bound, extra = (3, 3, 0) if index % DIM3_EVERY == 0 else (2, 6, 2)
    rays = _axes(n)
    powers = [rng.randint(1, bound) for _ in rays]
    gens = _pure_powers(powers, rays)
    gens += _cone_points(rng, rays, bound, extra, 2 * extra)
    return {"gens": gens, "rays": None}


def make_skew(seed, index, workdir):
    """The index's pure powers along the two rays plus 1-3 random points."""
    rng = instance_rng("skew-staircase", seed, index)
    gens = _pure_powers(SKEW_POWERS[index % len(SKEW_POWERS)], SKEW_RAYS)
    gens += _cone_points(rng, SKEW_RAYS, 3, 1, 3)
    return {"gens": gens, "rays": [list(r) for r in SKEW_RAYS]}


def call_staircase(inp):
    cone = dual_description(inp["rays"]) if inp["rays"] else None
    ideal = monomial_ideal(inp["gens"], cone=cone)
    staircase = ideal.staircase
    target = covol(staircase_region(staircase))
    fit = stabilized_leading(
        lambda k: complement_count(ideal_power(staircase, k)), ideal.n,
        max_k=64)
    return staircase.min_generators, target, fit


def check_staircase(inp, raw):
    min_generators, target, fit = raw
    passed = fit is not None and fit[0] == target
    out = {"min_generators": [list(g) for g in min_generators],
           "covol": str(target),
           "lead": str(fit[0]) if fit else None,
           "start": fit[1] if fit else None}
    return json.dumps(out, sort_keys=True).encode(), passed


# ---------------------------------------------------------------------------
# covolume-suites
# ---------------------------------------------------------------------------

def make_suite(seed, index, workdir):
    rng = instance_rng("covolume-suites", seed, index)
    suite, dim, bound = SUITE_CYCLE[index % len(SUITE_CYCLE)]
    return ["verify", "--suite", suite, "--count", "1",
            "--seed", str(rng.randint(1, 2 ** 62)), "--dim", str(dim),
            "--exponent-bound", str(bound), "--format", "json"]


def check_cli(inp, raw, flag):
    code, text = raw
    try:
        passed = code == 0 and json.loads(text)[flag] is True
    except (ValueError, KeyError, TypeError):
        passed = False
    return text.encode(), passed


# ---------------------------------------------------------------------------
# polynomial-lech
# ---------------------------------------------------------------------------

def _fraction_str(rng):
    num = rng.choice([n for n in range(-5, 6) if n])
    return f"{num}/{rng.randint(1, 4)}"


def _polynomial(*terms):
    return {"terms": [{"coeff": c, "exp": list(e)} for c, e in terms]}


def _shared_lead(rng, a, b, i):
    """(x^a, y^b, y^b + c x^i y^(b-i)): two generators led by y^b."""
    return [_polynomial((_fraction_str(rng), (a, 0))),
            _polynomial((_fraction_str(rng), (0, b))),
            _polynomial((_fraction_str(rng), (0, b)),
                        (_fraction_str(rng), (i, b - i)))]


def _with_tails(rng, a, b):
    """(x^a + tail, y^b + tail), each tail 1 or 2 degrees above its lead."""
    generators = []
    for lead in ((a, 0), (0, b)):
        degree = sum(lead) + rng.randint(1, 2)
        x = rng.randint(0, degree)
        generators.append(_polynomial(
            (_fraction_str(rng), lead),
            (_fraction_str(rng), (x, degree - x))))
    return generators


def lech_ideal_json(seed, index):
    """A 2-variable m-primary ideal: monomial generators with rational tails.

    Every coefficient is a random nonzero rational, the leading ones too.
    The lowest term of each generator under the total-degree order is its
    monomial, so the initial ideal contains the monomial ideal and the
    ideal is m-primary.

    Two shapes put a same-degree tail on a second generator led by y^b:
    (x^a, y^b, y^b + c x^i y^(b-i)).  The tail comes later in the term
    order than y^b, and the two generators led by y^b differ by it, so
    the initial ideal gains x^i y^(b-i) and the colength drops.  In
    (x^3, y^2, ...) that exponent lies below the level where the
    m-primary certificate fills everything in, so an echelon that drops
    tails gets the colength and e(in(a)) wrong.  The other
    shape is (x^a + tail, y^b + tail), whose tails never change the
    initial ideal (x^a, y^b).

    Every LECH_SHARED_EVERY-th instance, index 0 among them, is
    (x^3, y^2, y^2 + c x^i y^(2-i)) with i random in {1, 2}; the others
    are drawn from (x + tail, y^2 + tail), (x^2 + tail, y + tail) and
    (x^2, y^3, y^3 + c x y^2).  The first costs about three times as
    much as the others, so p50 falls inside the cheaper group and p90
    inside the dearer one, not on the edge between them.  The exponents
    stay this small because the lech fit's cost grows steeply with them
    and with tails: tails on every generator of a shared-lead shape, or
    (x^2 + tail, y^2 + tail), cost several times as much, and their cost
    spreads over both groups.
    """
    rng = instance_rng("polynomial-lech", seed, index)
    if index % LECH_SHARED_EVERY == 0:
        generators = _shared_lead(rng, 3, 2, rng.choice((1, 2)))
    else:
        kind = rng.randrange(3)
        generators = (_shared_lead(rng, 2, 3, 1) if kind == 2
                      else _with_tails(rng, *LECH_POWERS[kind]))
    return {"dim": 2, "generators": generators}


def make_lech(seed, index, workdir):
    path = os.path.join(workdir, LECH_INPUT)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lech_ideal_json(seed, index), fh)
    return ["lech", "--input", path]


WORKLOADS = {w.name: w for w in (
    Workload("staircase-fit",
             "orthant staircases in dims 2 and 3: the antichain prune and "
             "orthant slice counting under ideal_power (ROADMAP item 1)",
             make_staircase, call_staircase, check_staircase),
    Workload("covolume-suites",
             "single-instance bm-covol, af-covol and bm-mult verify runs: "
             "double description, hulls, Minkowski sums and covolumes",
             make_suite, _captured,
             lambda inp, raw: check_cli(inp, raw, "passed")),
    Workload("polynomial-lech",
             "m-primary polynomial ideals through the lech command: the "
             "Fraction truncated echelon and the stabilised fit",
             make_lech, _captured,
             lambda inp, raw: check_cli(inp, raw, "holds")),
    Workload("skew-staircase",
             "staircases over a skew 2-D cone: the generic level scan and "
             "Hilbert basis, and the prune with a skew cone test",
             make_skew, call_staircase, check_staircase),
)}
