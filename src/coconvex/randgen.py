"""Deterministic instance generation for the verification suites.

The generator is xorshift64*, fixed here so ports in other languages can
reproduce instances bit for bit:

    state' = state ^ (state >> 12)
    state' = state' ^ (state' << 25)   (mod 2^64)
    state' = state' ^ (state' >> 27)
    output = (state' * 2685821657736338717) mod 2^64

A zero seed is replaced by 0x9E3779B97F4A7C15.  Bounded draws use plain
remainder: value = output mod range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import RationalCone, dual_description, orthant
from .localalg import MonomialIdealLocal, monomial_ideal

MASK64 = (1 << 64) - 1
MULTIPLIER = 2685821657736338717
DEFAULT_SEED = 0x9E3779B97F4A7C15


class XorShift64Star:
    """The fixed 64-bit PRNG behind every random suite."""

    def __init__(self, seed: int):
        self.state = (seed & MASK64) or DEFAULT_SEED

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * MULTIPLIER) & MASK64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish draw in [lo, hi] via remainder (documented, stable)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True)
class InstanceSpec:
    """Shape of the random m-primary monomial ideals a suite draws."""

    dimension: int
    seed: int
    exponent_bound: int = 6
    min_generators: int = 2
    max_generators: int = 5
    cone_rays: tuple | None = None  # None means the standard orthant

    def cone(self) -> RationalCone:
        if self.cone_rays is None:
            return orthant(self.dimension)
        return dual_description(self.cone_rays)


def random_monomial_ideal(spec: InstanceSpec,
                          rng: XorShift64Star = None) -> MonomialIdealLocal:
    """Random m-primary monomial ideal, deterministic per seed.

    A pure power of each variable (a multiple of each extreme ray for a
    custom cone) is always included, so the staircase complement is finite.
    """
    if rng is None:
        rng = XorShift64Star(spec.seed)
    n = spec.dimension
    bound = spec.exponent_bound
    if n < 1 or bound < 1:
        raise ValueError("dimension and exponent bound must be >= 1")
    cone = spec.cone()
    gens = []
    for ray in cone.rays:
        power = rng.randint(1, bound)
        gens.append(tuple(power * x for x in ray))
    count = rng.randint(spec.min_generators, spec.max_generators)
    for _ in range(count):
        while True:
            if spec.cone_rays is None:
                pt = tuple(rng.randint(0, bound) for _ in range(n))
            else:
                coeffs = [rng.randint(0, bound) for _ in cone.rays]
                pt = tuple(sum(c * r[i] for c, r in zip(coeffs, cone.rays))
                           for i in range(n))
            if any(x != 0 for x in pt):
                gens.append(pt)
                break
    return monomial_ideal(gens, cone=cone)
