"""JSON interchange: rationals as "p/q" strings, schemas for every object.

Schemas (all exact; integers may appear as JSON numbers):

  region          {"cone_rays": [[int]], "generators": [[rat]], "ell": [rat]}
  semigroup ideal {"cone_rays": [[int]], "min_generators": [[int]],
                   "ell": [rat] (optional)}
  monomial ideal  {"dim": n, "generators": [[int]],
                   "cone_rays": [[int]] (optional)}
  polynomial      {"terms": [{"coeff": "p/q", "exp": [int]}]}
  poly ideal      {"dim": n, "generators": [polynomial],
                   "order": {"ell": [int], "tiebreak": [[int]]} (optional)}
"""

from __future__ import annotations

from fractions import Fraction

from .cones import dual_description, orthant
from .errors import InputFormatError
from .localalg import (MonomialIdealLocal, Poly, PolyLocalIdeal, monomial_ideal,
                       poly_local_ideal, term_order)
from .regions import NewtonRegion, newton_region
from .semigroups import (SemigroupIdealSet, lattice_semigroup, semigroup_ideal)


def frac_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(value) -> Fraction:
    if isinstance(value, bool):
        raise InputFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad rational {value!r}") from exc
    raise InputFormatError(f"not a rational: {value!r}")


def _parse_vector(data, what: str):
    if not isinstance(data, (list, tuple)) or not data:
        raise InputFormatError(f"{what} must be a nonempty array")
    return tuple(parse_frac(x) for x in data)


def _parse_int_vector(data, what: str):
    vec = _parse_vector(data, what)
    if any(x.denominator != 1 for x in vec):
        raise InputFormatError(f"{what} must have integer entries")
    return tuple(int(x) for x in vec)


def _parse_matrix(data, what: str, integral: bool = False):
    if not isinstance(data, (list, tuple)) or not data:
        raise InputFormatError(f"{what} must be a nonempty array of arrays")
    parse = _parse_int_vector if integral else _parse_vector
    return [parse(row, what) for row in data]


def _parse_dim(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputFormatError("dim must be a positive integer")
    return value


def _cone_from(data, dim_hint=None):
    rays = data.get("cone_rays")
    if rays is None:
        if dim_hint is None:
            raise InputFormatError("missing cone_rays and no dimension given")
        return orthant(dim_hint)
    return dual_description(_parse_matrix(rays, "cone_rays", integral=True))


def region_to_json(region: NewtonRegion) -> dict:
    return {
        "cone_rays": [list(r) for r in region.cone.rays],
        "generators": [[frac_str(x) for x in g] for g in region.generators],
        "ell": [frac_str(x) for x in region.ell],
    }


def region_from_json(data: dict) -> NewtonRegion:
    if not isinstance(data, dict):
        raise InputFormatError("region must be a JSON object")
    for key in ("generators", "ell"):
        if key not in data:
            raise InputFormatError(f"region is missing {key!r}")
    gens = _parse_matrix(data["generators"], "generators")
    cone = _cone_from(data, dim_hint=len(gens[0]))
    ell = _parse_vector(data["ell"], "ell")
    return newton_region(cone, gens, ell)


def semigroup_ideal_to_json(ideal: SemigroupIdealSet) -> dict:
    return {
        "cone_rays": [list(r) for r in ideal.semigroup.cone.rays],
        "min_generators": [list(g) for g in ideal.min_generators],
        "ell": [frac_str(x) for x in ideal.semigroup.ell],
    }


def semigroup_ideal_from_json(data: dict) -> SemigroupIdealSet:
    if not isinstance(data, dict) or "min_generators" not in data:
        raise InputFormatError("semigroup ideal needs min_generators")
    gens = _parse_matrix(data["min_generators"], "min_generators", integral=True)
    cone = _cone_from(data, dim_hint=len(gens[0]))
    ell = data.get("ell")
    sg = lattice_semigroup(cone, _parse_vector(ell, "ell") if ell else None)
    return semigroup_ideal(sg, gens)


def monomial_ideal_to_json(ideal: MonomialIdealLocal) -> dict:
    out = {
        "dim": ideal.n,
        "generators": [list(g) for g in ideal.staircase.min_generators],
    }
    if ideal.cone != orthant(ideal.n):
        out["cone_rays"] = [list(r) for r in ideal.cone.rays]
    return out


def monomial_ideal_from_json(data: dict) -> MonomialIdealLocal:
    if not isinstance(data, dict) or "generators" not in data:
        raise InputFormatError("monomial ideal needs generators")
    gens = _parse_matrix(data["generators"], "generators", integral=True)
    if "dim" in data:
        n = _parse_dim(data["dim"])
        if any(len(g) != n for g in gens):
            raise InputFormatError(f"generators must have dim = {n} entries")
    cone = _cone_from(data, dim_hint=len(gens[0]))
    return monomial_ideal(gens, cone=cone)


def poly_to_json(p: Poly) -> dict:
    return {"terms": [{"coeff": frac_str(c), "exp": list(e)} for e, c in p.terms]}


def poly_from_json(data: dict, n: int) -> Poly:
    if not isinstance(data, dict) or "terms" not in data:
        raise InputFormatError("polynomial needs a terms array")
    coeffs = {}
    for term in data["terms"]:
        if not isinstance(term, dict) or "coeff" not in term or "exp" not in term:
            raise InputFormatError("each term needs coeff and exp")
        exp = _parse_int_vector(term["exp"], "exp")
        if len(exp) != n or any(e < 0 for e in exp):
            raise InputFormatError(f"bad exponent {list(exp)}")
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + parse_frac(term["coeff"])
    poly = Poly.from_dict(n, coeffs)
    if poly.is_zero:
        raise InputFormatError("zero polynomial generator")
    return poly


def poly_ideal_to_json(ideal: PolyLocalIdeal) -> dict:
    return {
        "dim": ideal.n,
        "order": {"ell": list(ideal.order.ell),
                  "tiebreak": [list(t) for t in ideal.order.tiebreak]},
        "generators": [poly_to_json(g) for g in ideal.generators],
    }


def poly_ideal_from_json(data: dict) -> PolyLocalIdeal:
    if not isinstance(data, dict):
        raise InputFormatError("polynomial ideal must be a JSON object")
    for key in ("dim", "generators"):
        if key not in data:
            raise InputFormatError(f"polynomial ideal is missing {key!r}")
    n = _parse_dim(data["dim"])
    order = None
    if "order" in data:
        odata = data["order"]
        if not isinstance(odata, dict) or "ell" not in odata:
            raise InputFormatError("order needs an ell array")
        tiebreak = odata.get("tiebreak")
        order = term_order(_parse_int_vector(odata["ell"], "order ell"),
                           _parse_matrix(tiebreak, "tiebreak", integral=True)
                           if tiebreak else None)
    gens = [poly_from_json(g, n) for g in data["generators"]]
    try:
        return poly_local_ideal(gens, order=order)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def any_ideal_from_json(data: dict):
    """Dispatch: polynomial ideal when terms appear, else monomial ideal."""
    if not isinstance(data, dict):
        raise InputFormatError("ideal must be a JSON object")
    gens = data.get("generators")
    if isinstance(gens, list) and gens and isinstance(gens[0], dict):
        return poly_ideal_from_json(data)
    return monomial_ideal_from_json(data)
