"""JSON round-trips and input validation."""

from fractions import Fraction

import pytest

from coconvex.errors import InputFormatError
from coconvex.jsonio import (any_ideal_from_json, frac_str, monomial_ideal_from_json,
                             monomial_ideal_to_json, parse_frac, poly_from_json,
                             poly_ideal_from_json, poly_ideal_to_json, poly_to_json,
                             region_from_json, region_to_json,
                             semigroup_ideal_from_json, semigroup_ideal_to_json)
from coconvex.localalg import Poly, monomial, monomial_ideal, poly_local_ideal
from coconvex.regions import covol, newton_region
from coconvex.cones import orthant
from coconvex.semigroups import semigroup_ideal, lattice_semigroup


def test_frac_str_and_parse():
    assert frac_str(Fraction(5, 2)) == "5/2"
    assert frac_str(Fraction(4, 2)) == "2"
    assert frac_str(3) == "3"
    assert parse_frac("5/2") == Fraction(5, 2)
    assert parse_frac(7) == 7
    with pytest.raises(InputFormatError):
        parse_frac("a/b")
    with pytest.raises(InputFormatError):
        parse_frac(1.5)
    with pytest.raises(InputFormatError):
        parse_frac("1/0")


def test_region_round_trip():
    region = newton_region(orthant(2), [(3, 0), (1, 1), (0, 2)], (1, 1))
    data = region_to_json(region)
    assert data["cone_rays"] == [[0, 1], [1, 0]]
    back = region_from_json(data)
    assert back.facets == region.facets
    assert covol(back) == covol(region)


def test_region_rational_generators_round_trip():
    region = newton_region(orthant(2),
                           [(Fraction(1, 2), Fraction(1, 2)), (2, 0), (0, 2)],
                           (1, 1))
    data = region_to_json(region)
    assert any("/" in x for g in data["generators"] for x in g)
    back = region_from_json(data)
    assert back.facets == region.facets


def test_poly_ideal_with_weighted_order():
    data = {
        "dim": 2,
        "order": {"ell": [2, 3], "tiebreak": [[1, 0]]},
        "generators": [
            {"terms": [{"coeff": "1", "exp": [3, 0]},
                       {"coeff": "1", "exp": [0, 2]}]},
            {"terms": [{"coeff": "1", "exp": [4, 0]}]},
        ],
    }
    ideal = poly_ideal_from_json(data)
    assert ideal.order.ell == (2, 3)
    back = poly_ideal_from_json(poly_ideal_to_json(ideal))
    assert back.order == ideal.order


def test_region_missing_fields():
    with pytest.raises(InputFormatError):
        region_from_json({"generators": [[1, 0]]})
    with pytest.raises(InputFormatError):
        region_from_json({"ell": [1, 1]})


def test_semigroup_ideal_round_trip():
    sg = lattice_semigroup(orthant(2))
    ideal = semigroup_ideal(sg, [(3, 0), (1, 1), (0, 2)])
    data = semigroup_ideal_to_json(ideal)
    back = semigroup_ideal_from_json(data)
    assert back.min_generators == ideal.min_generators


def test_monomial_ideal_round_trip():
    ideal = monomial_ideal([(2, 0), (0, 2), (1, 1)])
    data = monomial_ideal_to_json(ideal)
    assert "cone_rays" not in data  # orthant is implied
    back = monomial_ideal_from_json(data)
    assert back.staircase.min_generators == ideal.staircase.min_generators


def test_poly_round_trip():
    p = Poly.from_dict(2, {(1, 0): 1, (0, 2): Fraction(-1, 2)})
    back = poly_from_json(poly_to_json(p), 2)
    assert back == p


def test_poly_ideal_round_trip():
    a = poly_local_ideal([monomial(2, (1, 0)) + monomial(2, (0, 2)),
                          monomial(2, (0, 3))])
    data = poly_ideal_to_json(a)
    back = poly_ideal_from_json(data)
    assert back.generators == a.generators
    assert back.m0 == a.m0
    assert back.order == a.order


def test_any_ideal_dispatch():
    mono = any_ideal_from_json({"dim": 2, "generators": [[1, 0], [0, 1]]})
    assert mono.staircase.min_generators == ((0, 1), (1, 0))
    poly = any_ideal_from_json({
        "dim": 2,
        "generators": [{"terms": [{"coeff": "1", "exp": [1, 0]},
                                  {"coeff": "1", "exp": [0, 2]}]},
                       {"terms": [{"coeff": "1", "exp": [0, 3]}]}],
    })
    assert poly.m0 == 3


def test_bad_inputs_raise_format_errors():
    with pytest.raises(InputFormatError):
        monomial_ideal_from_json({"generators": [["x", 0]]})
    with pytest.raises(InputFormatError):
        monomial_ideal_from_json({"generators": []})
    with pytest.raises(InputFormatError):
        poly_from_json({"terms": [{"coeff": "1"}]}, 2)
    with pytest.raises(InputFormatError):
        poly_from_json({"terms": [{"coeff": "1", "exp": [0]}]}, 2)
    with pytest.raises(InputFormatError):
        poly_ideal_from_json({"dim": 0, "generators": []})
    with pytest.raises(InputFormatError):
        poly_ideal_from_json({"dim": True, "generators": []})
    with pytest.raises(InputFormatError):
        monomial_ideal_from_json({"dim": True, "generators": [[2, 0], [0, 3]]})
    with pytest.raises(InputFormatError):
        monomial_ideal_from_json({"dim": 5, "generators": [[2, 0], [0, 3]]})
    with pytest.raises(InputFormatError):
        poly_from_json({"terms": [{"coeff": "0", "exp": [1, 1]}]}, 2)
