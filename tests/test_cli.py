"""End-to-end CLI behavior: subcommands, formats, exit codes."""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coconvex import cli, localalg, semigroups, suites
from coconvex.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


M2 = {"dim": 2, "generators": [[2, 0], [1, 1], [0, 2]]}
POLY_A = {
    "dim": 2,
    "generators": [
        {"terms": [{"coeff": "1", "exp": [1, 0]}, {"coeff": "1", "exp": [0, 2]}]},
        {"terms": [{"coeff": "1", "exp": [0, 3]}]},
    ],
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_rejected(capsys, argv):
    """Exit code and stderr of a command line rejected while parsing."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


def test_multiplicity_monomial(tmp_path, capsys):
    path = write(tmp_path, "m2.json", M2)
    code, out, _ = run(capsys, ["multiplicity", "--input", path])
    assert code == 0
    assert json.loads(out) == {"e": 4}


def test_multiplicity_poly_report(tmp_path, capsys):
    path = write(tmp_path, "a.json", POLY_A)
    code, out, _ = run(capsys, ["multiplicity", "--input", path, "--kmax", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["e_exact"] == "3"
    assert payload["fit_stabilized"] is True
    assert payload["u_sequence"][0] == "3"


def test_covolume_command(tmp_path, capsys):
    path = write(tmp_path, "r.json", {
        "generators": [[3, 0], [1, 1], [0, 2]], "ell": [1, 1]})
    code, out, _ = run(capsys, ["covolume", "--input", path])
    assert code == 0
    assert json.loads(out)["covol"] == "5/2"


def test_covolume_not_cobounded_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"generators": [[2, 0]], "ell": [1, 1]})
    code, _, err = run(capsys, ["covolume", "--input", path])
    assert code == 2
    assert "NotCobounded" in err


# `newton` inputs: orthant staircases in dims 2 and 3 (the second with a
# quadrilateral face), a staircase over the skew cone (1,0),(1,2), a region
# over the four-ray cone (1,0,0),(0,1,0),(1,0,1),(0,1,1), and a region with
# fractional generators.
NEWTON_INPUTS = {
    "orthant2": {"dim": 2, "generators": [[4, 0], [2, 1], [1, 2], [0, 3]]},
    "orthant3": {"dim": 3, "generators": [[2, 0, 0], [0, 2, 0], [1, 0, 1],
                                          [0, 1, 1], [0, 0, 3]]},
    "skew": {"cone_rays": [[1, 0], [1, 2]], "generators": [[3, 0], [1, 1], [2, 4]]},
    "four-ray": {"cone_rays": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]],
                 "generators": [[2, 0, 0], [0, 3, 0], [2, 0, 2], [0, 3, 3],
                                [1, 1, 1]],
                 "ell": [1, 1, 1]},
    "fractional": {"generators": [["5/2", 0], ["1/3", "2/3"], [0, "7/4"],
                                  [1, "1/2"]],
                   "ell": [1, 1]},
}

# SHA-256 of `newton` stdout on each input, in each format.
NEWTON_DIGESTS = {
    ("orthant2", "json"):
        "5229cce1185ef35569d16648f68fd61597ddd91391b8e6f71ee8c81debc4177c",
    ("orthant2", "table"):
        "45473fc2fd177a06095fe720da8a6b1d35fd33605896f4554857b1a78b8b7d58",
    ("orthant3", "json"):
        "521ea46e7a895ba063a50016aeb49e656c44978117c87c715f229d00df5c28a3",
    ("orthant3", "table"):
        "ffa790b1a2a9f53d3cf681b5c78eb8d48876e6a29cbc5ace05c0f50e2a41b118",
    ("skew", "json"):
        "2d54931a6125440c14d7003e6104e6a28146eb6cf5ec30a82a77c99eda4259ec",
    ("skew", "table"):
        "b5c5b934ea371a8ddd5c7811b892fd7e7a7e9fb03b0ef43b82e6675694c09c0d",
    ("four-ray", "json"):
        "371660571f5b1e52197052f422bba0f29c47a5af9e42c0befedd775b56d736b4",
    ("four-ray", "table"):
        "ae0f9d5a73ef3d2cf2b02ab588db3a3c234e3c9e80795f95a5af852aacd58fb0",
    ("fractional", "json"):
        "9123f1536155c31df6795df5a2c02e78d139a1360ba45f647b7827449b2af86b",
    ("fractional", "table"):
        "d52f17e8be7b6b394bf2e73ef260d9d33e02563b1a96576da8e94596e5472a00",
}


def test_newton_command(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"dim": 2, "generators": [[3, 0], [1, 1], [0, 2]]})
    code, out, _ = run(capsys, ["newton", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["diagram"]) == 2
    for (name, fmt), digest in NEWTON_DIGESTS.items():
        path = write(tmp_path, f"{name}.json", NEWTON_INPUTS[name])
        code, out, err = run(capsys, ["newton", "--input", path, "--format", fmt])
        assert (code, err) == (0, ""), name
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, fmt)


def test_newton_table_rows_read_back(tmp_path, capsys):
    """In a 3-D `newton` table each vertex is one "[x, y, z]" row and each
    face of the diagram opens with "- - ", so the generator and diagram rows
    read back as the vertices of the JSON output, face by face."""
    path = write(tmp_path, "o3.json", NEWTON_INPUTS["orthant3"])
    payload = json.loads(run(capsys, ["newton", "--input", path])[1])
    code, out, _ = run(capsys, ["newton", "--input", path, "--format", "table"])
    assert code == 0
    lines = out.splitlines()

    def vertex(row):
        return tuple(map(Fraction, row.strip("[]").split(", ")))

    start = lines.index("  generators:") + 1
    rows = lines[start:start + 5]
    assert all(line.startswith("    - [") for line in rows), rows
    assert lines[start + 5].startswith("  ell ")
    assert [vertex(line[6:]) for line in rows] == \
        [tuple(map(Fraction, g)) for g in payload["region"]["generators"]]
    faces = []
    for line in lines[lines.index("diagram:") + 1:]:
        if line.startswith("  - - "):
            faces.append([])
        assert line[:6] in ("  - - ", "    - "), line
        faces[-1].append(vertex(line[6:]))
    assert faces == [[tuple(map(Fraction, v)) for v in face]
                     for face in payload["diagram"]]
    assert sorted(map(len, faces)) == [3, 4]


def test_mixed_and_bk(tmp_path, capsys):
    path = write(tmp_path, "pair.json", {"ideals": [
        {"dim": 2, "generators": [[1, 0], [0, 1]]},
        {"dim": 2, "generators": [[2, 0], [0, 2]]}]})
    code, out, _ = run(capsys, ["mixed", "--input", path])
    assert code == 0
    assert json.loads(out)["mixed_multiplicity"] == 2
    code, out, _ = run(capsys, ["bk", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["intersection_multiplicity"] == 2
    assert payload["dimension"] == 2
    assert "origin" in payload["statement"]


def test_integrality_guard_exit_2(tmp_path, capsys, monkeypatch):
    # A fractional n! * covolume is an internal fault; it must still reach
    # the user as exit 2, also under python -O.
    monkeypatch.setattr(localalg, "covol", lambda region: Fraction(1, 7))
    monkeypatch.setattr(localalg, "mixed_covol", lambda regions: Fraction(1, 7))
    single = write(tmp_path, "m.json", M2)
    pair = write(tmp_path, "pair.json", {"ideals": [M2, M2]})
    for argv in (["multiplicity", "--input", single], ["mixed", "--input", pair]):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "InvariantViolation" in err
        assert "multiplicity 2/7 is not an integer" in err


def test_hilbert_samuel_command(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"dim": 2, "generators": [[1, 0], [0, 1]]})
    code, out, _ = run(capsys, ["hilbert-samuel", "--input", path, "--kmax", "5"])
    assert code == 0
    assert json.loads(out)["H"] == [1, 3, 6, 10, 15]


def test_hilbert_samuel_thin_skew_cone(tmp_path, capsys, monkeypatch):
    """The simplicial cone on (1,0,0), (0,1,0), (1,1,40) is counted coset by
    coset; the level scan, which enumerates the bounding box of each level
    slice, did not finish --kmax 8 in 30 s here and must not be reached."""
    def no_level_scan(*args, **kwargs):
        raise AssertionError("complement counted by the level scan")
    monkeypatch.setattr(semigroups, "iter_points_at_level", no_level_scan)
    path = write(tmp_path, "thin.json", {
        "cone_rays": [[1, 0, 0], [0, 1, 0], [1, 1, 40]],
        "generators": [[3, 0, 0], [0, 3, 0], [3, 3, 120]]})
    code, out, err = run(capsys, ["hilbert-samuel", "--input", path, "--kmax", "8"])
    assert code == 0, err
    hs = json.loads(out)["H"]
    assert hs == [1080, 4320, 10800, 21600, 37800, 60480, 90720, 129600]
    assert hs == [1080 * math.comb(k + 2, 3) for k in range(1, 9)]


def test_hilbert_samuel_non_simplicial_cone(tmp_path, capsys, monkeypatch):
    """The 4-ray cone on (1,0,0), (0,1,0), (1,0,1), (0,1,1) is counted from
    the coset boxes of its simplicial pieces, without a level walk."""
    def no_level_walk(*args, **kwargs):
        raise AssertionError("complement counted by a level walk")
    monkeypatch.setattr(semigroups, "iter_points_at_level", no_level_walk)
    path = write(tmp_path, "four.json", {
        "cone_rays": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]],
        "generators": [[2, 0, 0], [0, 2, 0], [2, 0, 2], [0, 2, 2], [1, 1, 1]]})
    code, out, err = run(capsys, ["hilbert-samuel", "--input", path, "--kmax", "6"])
    assert code == 0, err
    assert json.loads(out)["H"] == [9, 42, 115, 244, 445, 734]


def test_coset_candidate_cap_exit_2(tmp_path, capsys, monkeypatch):
    """On the 4-ray cone with each generator 60 times its ray, the two
    unimodular pieces hold 2 * 60^3 = 432,000 candidates, past the cap; it
    fires before any coset is listed."""
    def no_cosets(rays):
        raise AssertionError("cosets listed before the cap")
    monkeypatch.setattr(semigroups, "_cosets", no_cosets)
    rays = [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]]
    path = write(tmp_path, "wide.json", {
        "cone_rays": rays, "generators": [[60 * x for x in r] for r in rays]})
    code, out, err = run(capsys, ["hilbert-samuel", "--input", path, "--kmax", "1"])
    assert (code, out) == (2, "")
    assert ("error: the complement has 432000 candidate points, more than "
            "the cap of 65536") in err
    assert "Traceback" not in err


def test_product_cap_exit_2(tmp_path, capsys):
    """a^k with m generators has C(m + k - 1, k) products of generators.
    With the 92 distinct linear forms x + c y (c < 91) and y, a^3 has
    134,044, past the cap, which fires before any product is formed."""
    forms = [{"terms": [{"coeff": "1", "exp": [1, 0]}, {"coeff": str(c), "exp": [0, 1]}]}
             for c in range(1, 91)]
    forms += [{"terms": [{"coeff": "1", "exp": [1, 0]}]},
              {"terms": [{"coeff": "1", "exp": [0, 1]}]}]
    many = write(tmp_path, "many.json", {"dim": 2, "generators": forms})
    before = localalg._product_map.cache_info()
    code, out, err = run(capsys, ["initial-ideal", "--input", many, "--k", "3"])
    assert (code, out) == (2, "")
    assert "error: a^3 has 134044 products of generators, more than the cap of 131072" in err
    # the one refused call, with no lower power formed on the way
    after = localalg._product_map.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)
    assert "Traceback" not in err


def test_repeated_generators_count_once(tmp_path, capsys):
    """POLY_A's two generators listed 16 times each are the same ideal and
    give the same report; the copies would form 376,992 products at a^5."""
    outputs = []
    for copies in (1, 16):
        path = write(tmp_path, f"a{copies}.json",
                     dict(POLY_A, generators=POLY_A["generators"] * copies))
        code, out, err = run(capsys, ["multiplicity", "--input", path, "--kmax", "2"])
        assert (code, err) == (0, ""), err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_hilbert_samuel_not_primary_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bare.json", {
        "cone_rays": [[1, 0], [1, 2]], "generators": [[2, 0], [1, 1]]})
    code, out, err = run(capsys, ["hilbert-samuel", "--input", path])
    assert code == 2
    assert out == ""
    assert "NotPrimary" in err and "never dominated" in err
    assert "Traceback" not in err


def test_initial_ideal_command(tmp_path, capsys):
    path = write(tmp_path, "a.json", POLY_A)
    code, out, _ = run(capsys, ["initial-ideal", "--input", path])
    assert code == 0
    assert json.loads(out)["min_generators"] == [[0, 3], [1, 0]]


def test_not_primary_within_cap_exit_2(tmp_path, capsys):
    """(x, x) contains no power of m; m^24 itself is the last one tried."""
    x = {"terms": [{"coeff": "1", "exp": [1, 0]}]}
    path = write(tmp_path, "xx.json", {"dim": 2, "generators": [x, x]})
    code, out, err = run(capsys, ["lech", "--input", path])
    assert (code, out) == (2, "")
    assert "NotPrimaryWithinCap: no power m^d with d <= 24 lies in the ideal" in err


def test_monomial_table_caps_exit_2(tmp_path, capsys):
    """A weight of 10^30 cuts the table at level 10^30, past the level cap;
    (x, y, z) under (1, 1, 1800) cuts it at level 1800, where the simplex
    below has volume 1800^3 / (3! 1800) > 2^19, past the width cap, and so
    does the 200th power of (x, y, z), cut at level 200.  The cap fires
    before any product of generators is formed."""
    def variables(n):
        return [{"terms": [{"coeff": "1", "exp": [int(i == j) for j in range(n)]}]}
                for i in range(n)]

    weighted = write(tmp_path, "weighted.json", {
        "dim": 2, "order": {"ell": [2, 10 ** 30]}, "generators": variables(2)})
    linear = write(tmp_path, "linear.json", {
        "dim": 3, "order": {"ell": [1, 1, 1800]}, "generators": variables(3)})
    maximal = write(tmp_path, "maximal.json", {"dim": 3, "generators": variables(3)})
    for argv in (["initial-ideal", "--input", weighted],
                 ["lech", "--input", weighted],
                 ["initial-ideal", "--input", linear],
                 ["initial-ideal", "--input", maximal, "--k", "200"]):
        misses = localalg._product_map.cache_info().misses
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "passes its cap of 65536 levels or 524288 exponents" in err
        assert localalg._product_map.cache_info().misses == misses, argv


def _poly(*terms):
    return {"terms": [{"coeff": c, "exp": list(e)} for c, e in terms]}


# Polynomial ideals for `lech` and `multiplicity`: two generators led by
# y^2 with a same-degree tail, the order (2, 1), a tiebreak row, and one
# variable.
POLY_INPUTS = {
    "shared-lead": {"dim": 2, "generators": [
        _poly(("1", (3, 0))), _poly(("1", (0, 2))),
        _poly(("1", (0, 2)), ("3/2", (1, 1)))]},
    "weighted": {"dim": 2, "order": {"ell": [2, 1]}, "generators": [
        _poly(("1", (1, 0)), ("1", (0, 2))), _poly(("1", (0, 3)))]},
    "tiebreak": {"dim": 2, "order": {"ell": [1, 1], "tiebreak": [[0, 1]]},
                 "generators": [_poly(("2", (2, 0)), ("-1/3", (1, 2))),
                                _poly(("1", (0, 2)), ("5", (3, 0)))]},
    "one-variable": {"dim": 1, "generators": [_poly(("1", (2,)), ("-4", (3,)))]},
}

# SHA-256 of each command's stdout on each POLY_INPUTS entry.
POLY_DIGESTS = {
    ("shared-lead", "lech"):
        "e74f5b756244b29abf97c291cf870119ceba501ef2df38bb3bb0a3ea90de7fef",
    ("shared-lead", "multiplicity"):
        "7c19cd3f1f058fe4c2a63f6630ac55ca2a5faee9145af38903e09f93f0ae3b6f",
    ("weighted", "lech"):
        "06a92da9b751e0f1c9270d641ee645a7b529e30737fa01174bab8093edf3a2fe",
    ("weighted", "multiplicity"):
        "65f7f96bc054b8422948a006b2cfb10ff5fe35d5576c67a8c4d253ff2c6507fe",
    ("tiebreak", "lech"):
        "41a1f48daec3c80c598bfcfd44c763e73369e61f8a6bcefb0d85f19929a27cc4",
    ("tiebreak", "multiplicity"):
        "18d13591f7df436edea7d10415baa601292500f1f1135df434ded6b2bdf47b52",
    ("one-variable", "lech"):
        "65812d49421b77afe955551a541b28659c59bdcfd49a99390b8d6969e92cae5f",
    ("one-variable", "multiplicity"):
        "3e01735057b3ecea00b9ae9ccf0f618e8a09253b7281fe6311bae21f375b9a29",
}


def test_lech_and_multiplicity_outputs_pinned(tmp_path, capsys):
    for (name, command), digest in POLY_DIGESTS.items():
        path = write(tmp_path, f"{name}.json", POLY_INPUTS[name])
        argv = [command, "--input", path]
        if command == "multiplicity":
            argv += ["--kmax", "4"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), (name, command)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, command)


def test_lech_command(tmp_path, capsys):
    path = write(tmp_path, "a.json", POLY_A)
    code, out, _ = run(capsys, ["lech", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert (payload["e_upper"], payload["e_in"], payload["bound"]) == ("3", 3, 6)
    assert payload["holds"] is True


def test_verify_command_exit_zero(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "bm-covol",
                                  "--count", "5", "--seed", "7", "--dim", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert "elapsed_ms" in err


def test_verify_report_bytes_deterministic(capsys):
    argv = ["verify", "--suite", "lech", "--count", "4", "--seed", "3", "--dim", "2"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_violation_exits_1(capsys, monkeypatch):
    # theorems never violate, so force the wiring with a stub suite
    import coconvex.cli as cli_mod
    from coconvex.suites import VerificationReport

    def stub(spec, count):
        bad = {"index": 0, "relation": "lt"}
        return VerificationReport(suite="bm-covol", dimension=spec.dimension,
                                  seed=spec.seed, count=count,
                                  instances=(bad,), violations=(bad,),
                                  equality_cases=0, elapsed_ms=0.0)

    monkeypatch.setitem(cli_mod.SUITES, "bm-covol", stub)
    code, out, _ = run(capsys, ["verify", "--suite", "bm-covol",
                                "--count", "1", "--seed", "1", "--dim", "2"])
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_malformed_input_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["multiplicity", "--input", str(path)])
    assert code == 2
    assert "input error" in err
    # zip-truncating a tiebreak row longer than ell would accept it
    path = write(tmp_path, "order.json", dict(
        POLY_A, order={"ell": [1, 2], "tiebreak": [[1, 0, 0]]}))
    code, out, err = run(capsys, ["lech", "--input", path])
    assert code == 2
    assert out == ""
    assert "tiebreak" in err
    # "ideals" must be a nonempty array: a number is not iterable and a
    # string would be walked one character at a time
    for payload in ({"ideals": 3}, {"ideals": "ab"}, {"ideals": []}):
        path = write(tmp_path, "ideals.json", payload)
        for command in ("mixed", "bk"):
            code, out, err = run(capsys, [command, "--input", path])
            assert code == 2, (command, payload)
            assert out == ""
            assert "input error" in err
    # polynomial "generators" and "terms" must be arrays, not numbers
    for command, payload in (
            ("initial-ideal", {"dim": 2, "generators": 5}),
            ("multiplicity", {"dim": 2, "generators": [{"terms": 5}]})):
        path = write(tmp_path, "poly.json", payload)
        code, out, err = run(capsys, [command, "--input", path])
        assert code == 2, (command, payload)
        assert out == ""
        assert "input error" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["multiplicity", "--input", "/nonexistent.json"])
    assert code == 2


def test_table_format(tmp_path, capsys):
    path = write(tmp_path, "m2.json", M2)
    code, out, _ = run(capsys, ["multiplicity", "--input", path,
                                "--format", "table"])
    assert code == 0
    assert "e" in out and "4" in out


def test_output_file_and_env_dir(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "m2.json", M2)
    outdir = tmp_path / "reports"
    outdir.mkdir()
    monkeypatch.setenv("COCONVEX_OUTPUT_DIR", str(outdir))
    code, out, _ = run(capsys, ["multiplicity", "--input", path,
                                "--output", "result.json"])
    assert code == 0
    assert out == ""
    written = json.loads((outdir / "result.json").read_text())
    assert written == {"e": 4}
    # verify writes the same bytes to --output as it prints to stdout
    argv = ["verify", "--suite", "bm-covol", "--count", "2", "--seed", "5"]
    monkeypatch.delenv("COCONVEX_OUTPUT_DIR")
    code, expected, _ = run(capsys, argv)
    assert code == 0
    monkeypatch.setenv("COCONVEX_OUTPUT_DIR", str(outdir))
    code, out, _ = run(capsys, argv + ["--output", "verify.json"])
    assert code == 0
    assert out == ""
    assert (outdir / "verify.json").read_text() == expected


def test_initial_ideal_k_zero_exit_2(tmp_path, capsys):
    path = write(tmp_path, "a.json", POLY_A)
    code, err = run_rejected(capsys, ["initial-ideal", "--input", path,
                                      "--k", "0"])
    assert code == 2
    assert "--k" in err and ">= 1" in err


def test_verify_dim_zero_exit_2_without_running(capsys, monkeypatch):
    import coconvex.cli as cli_mod

    def never(spec, count):
        raise AssertionError("the suite ran on an out-of-range --dim")

    monkeypatch.setitem(cli_mod.SUITES, "bm-covol", never)
    code, err = run_rejected(capsys, ["verify", "--suite", "bm-covol",
                                      "--dim", "0"])
    assert code == 2
    assert "--dim" in err


def test_verify_negative_count_exit_2(capsys):
    code, err = run_rejected(capsys, ["verify", "--suite", "bm-covol",
                                      "--count", "-1"])
    assert code == 2
    assert "--count" in err


@pytest.mark.parametrize("argv", [
    ["hilbert-samuel", "--input", "never-read.json", "--kmax", "0"],
    ["verify", "--suite", "bm-covol", "--exponent-bound", "0"],
], ids=["kmax", "exponent-bound"])
def test_other_ranges_checked(capsys, argv):
    code, err = run_rejected(capsys, argv)
    assert code == 2
    assert argv[-2] in err


@pytest.mark.parametrize("payload", [
    {"dim": True, "generators": [[2, 0], [0, 3]]},
    {"dim": 5, "generators": [[2, 0], [0, 3]]},
])
def test_monomial_dim_checked(tmp_path, capsys, payload):
    path = write(tmp_path, "m.json", payload)
    code, out, err = run(capsys, ["multiplicity", "--input", path])
    assert code == 2
    assert out == ""
    assert "dim" in err


@pytest.mark.parametrize("payload, message", [
    ({"generators": [[2, 0, 0], [0, 3, 0], [0, 0, 4], [1, 1]]},
     "(1, 1) has 2 entries, the semigroup has dimension 3"),
    ({"generators": [[2, 0], [0, 3], [1, 1, 5]]},
     "(1, 1, 5) has 3 entries, the semigroup has dimension 2"),
    ({"generators": [[2, 0], [0, 3]], "cone_rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     "(2, 0) has 2 entries, the semigroup has dimension 3"),
], ids=["short", "long", "cone"])
@pytest.mark.parametrize("command", ["multiplicity", "hilbert-samuel", "newton",
                                     "lech", "mixed"])
def test_ragged_generators_exit_2(tmp_path, capsys, command, payload, message):
    """A generator whose length is not the semigroup's dimension is named,
    not truncated by a dot product into an unpacking error."""
    if command == "mixed":
        payload = {"ideals": [payload, payload]}
    path = write(tmp_path, "ragged.json", payload)
    code, out, err = run(capsys, [command, "--input", path])
    assert code == 2
    assert out == ""
    assert err == f"error: generator dimension mismatch: {message}\n"


def test_cli_runs_as_a_process(tmp_path):
    """One real process per exit path: `python -m coconvex.cli`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def cli_process(*argv):
        return subprocess.run([sys.executable, "-m", "coconvex.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)

    proc = cli_process("verify", "--suite", "bm-covol", "--count", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
    assert re.search(r"^suite=bm-covol count=1 violations=0 elapsed_ms=",
                     proc.stderr, re.MULTILINE)
    proc = cli_process("multiplicity", "--input", "missing.json")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "input error" in proc.stderr
    proc = cli_process()
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: coconvex ")


def test_af_covol_dim_one_exit_2_before_drawing(capsys, monkeypatch):
    # The Alexandrov-Fenchel inequality needs two regions, so n >= 2.
    def never(*args):
        raise AssertionError("instances drawn for --dim 1")

    monkeypatch.setattr(suites, "_draw_ideals", never)
    code, out, err = run(capsys, ["verify", "--suite", "af-covol", "--dim", "1"])
    assert code == 2
    assert out == ""
    assert "WrongArity" in err and "af-covol" in err and "dim >= 2" in err


POSITIVE = cli._positive_int
INPUT = (("--input",), None, None, None, True)
FORMAT = (("--format",), "json", None, ("json", "table"), False)
OUTPUT = (("--output",), None, None, None, False)
# command -> (help, options as (flags, default, type, choices, required))
CLI_SURFACE = {
    "multiplicity": ("Samuel multiplicity of an ideal",
                     [INPUT, FORMAT, OUTPUT,
                      (("--kmax",), 6, POSITIVE, None, False)]),
    "covolume": ("covolume of a region", [INPUT, FORMAT, OUTPUT]),
    "newton": ("Newton region facets and diagram", [INPUT, FORMAT, OUTPUT]),
    "mixed": ("mixed multiplicity of n monomial ideals",
              [INPUT, FORMAT, OUTPUT]),
    "hilbert-samuel": ("H(k) = dim R/a^k",
                       [INPUT, FORMAT, OUTPUT,
                        (("--kmax",), 8, POSITIVE, None, False)]),
    "initial-ideal": ("staircase of in(a^k)",
                      [INPUT, FORMAT, OUTPUT,
                       (("--k",), 1, POSITIVE, None, False)]),
    "lech": ("e(a) <= e(in(a)) <= n! dim(R/a)", [INPUT, FORMAT, OUTPUT]),
    "bk": ("local Bernstein-Kushnirenko report", [INPUT, FORMAT, OUTPUT]),
    "verify": ("run a seeded verification suite",
               [FORMAT, OUTPUT,
                (("--suite",), None, None,
                 ("af-covol", "bm-covol", "bm-mult", "lech", "polynomiality"),
                 True),
                (("--count",), 100, POSITIVE, None, False),
                (("--seed",), 1, int, None, False),
                (("--dim",), 2, POSITIVE, None, False),
                (("--exponent-bound",), 6, POSITIVE, None, False)]),
}


def option_rows(parser):
    """(flags, default, type, choices, required) of each option but -h."""
    return [(tuple(action.option_strings), action.default, action.type,
             None if action.choices is None else tuple(action.choices),
             action.required)
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)]


def test_parser_surface_pinned(capsys, monkeypatch):
    parser = cli.build_parser()
    assert parser.prog == "coconvex"
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    assert sub.dest == "command" and sub.required
    assert list(sub.choices) == list(CLI_SURFACE)
    helps = {action.dest: action.help for action in sub._choices_actions}
    for name, (help_text, options) in CLI_SURFACE.items():
        assert helps[name] == help_text, name
        assert option_rows(sub.choices[name]) == options, name
    # main parses a command line with that command's parser alone; it must
    # offer exactly the subparser's options
    built = []
    add_arguments = cli._add_arguments
    monkeypatch.setattr(cli, "_add_arguments", lambda parser, command: (
        built.append(parser) or add_arguments(parser, command)))
    for name, (_, options) in CLI_SURFACE.items():
        built.clear()
        with pytest.raises(SystemExit):
            main([name, "--help"])
        capsys.readouterr()
        (own,) = built
        assert own.prog == f"coconvex {name}"
        assert option_rows(own) == options, name


WELL_FORMED = {
    "multiplicity": (M2, ["--kmax", "3", "--format", "table"]),
    "covolume": ({"generators": [[3, 0], [1, 1], [0, 2]], "ell": [1, 1]}, []),
    "newton": (M2, ["--format", "json"]),
    "mixed": ({"ideals": [M2, M2]}, []),
    "hilbert-samuel": (M2, ["--kmax", "3"]),
    "initial-ideal": (POLY_A, ["--k", "2"]),
    "lech": (POLY_A, []),
    "bk": ({"ideals": [M2, M2]}, []),
    "verify": (None, ["--suite", "bm-covol", "--count", "1", "--seed", "2"]),
}


def test_well_formed_lines_skip_the_full_tree(tmp_path, capsys, monkeypatch):
    """A well-formed command line is parsed without building the parser of
    all nine commands, which costs several times one command's parser."""
    def no_tree():
        raise AssertionError("main built the full parser tree")

    monkeypatch.setattr(cli, "build_parser", no_tree)
    assert list(WELL_FORMED) == [command.name for command in cli.COMMANDS]
    for name, (payload, options) in WELL_FORMED.items():
        argv = [name, *options]
        if payload is not None:
            argv += ["--input", write(tmp_path, f"{name}.json", payload)]
        code, out, err = run(capsys, argv)
        assert code == 0, (argv, err)
        assert out


def _parse_outcomes(capsys, monkeypatch, argv):
    """(result, stdout, stderr) of parsing argv through main and through the
    full tree; the result is the parsed namespace or the exit code."""
    def record(args):
        seen.append(vars(args))
        return 0

    seen = []
    monkeypatch.setattr(cli, "COMMANDS", tuple(
        command._replace(handler=record) for command in cli.COMMANDS))
    outcomes = []
    for parse in (lambda: main(argv) == 0 and seen.pop(),
                  lambda: vars(cli.build_parser().parse_args(argv))):
        try:
            result = parse()
        except SystemExit as exc:
            result = ("exit", exc.code)
        out = capsys.readouterr()
        outcomes.append((result, out.out, out.err))
    return outcomes


def _edge_lines(command):
    """Help, a missing required option, a bad choice, an unknown flag, a
    stray positional, a dangling option, abbreviations and a good line."""
    name = command.name
    line = ([name, "--input", "in.json"] if command.reads_input
            else [name, "--suite", "bm-covol"])
    return [[name, "--help"], [name, "-h"], [name], [name, "--input"],
            line, line + ["--format", "yaml"], line + ["--bogus"],
            line + ["stray"], line + ["--sui", "lech"], line + ["--form", "table"],
            line + ["--output"], line + ["-h"]]


# The command lines the tests above reject through run_rejected.
RUN_REJECTED = [
    ["initial-ideal", "--input", "a.json", "--k", "0"],
    ["verify", "--suite", "bm-covol", "--dim", "0"],
    ["verify", "--suite", "bm-covol", "--count", "-1"],
    ["hilbert-samuel", "--input", "never-read.json", "--kmax", "0"],
    ["verify", "--suite", "bm-covol", "--exponent-bound", "0"],
]
TOP_LEVEL = [[], ["-h"], ["--help"], ["bogus"], ["--bogus"],
             ["--format", "json", "lech"], ["Lech", "--input", "in.json"],
             ["verify", "--suite", "nope"], ["verify", "--sui", "lech"],
             ["verify", "--suite", "lech", "--seed", "x"]]


@pytest.mark.parametrize("group", [command.name for command in cli.COMMANDS]
                         + ["run-rejected", "top-level"])
def test_main_parses_like_the_full_tree(capsys, monkeypatch, group):
    """main and build_parser().parse_args give the same namespace, or the
    same exit code, stdout and stderr, on help, errors and good lines."""
    monkeypatch.setenv("COLUMNS", "60")  # argparse wraps help to the terminal
    commands = {command.name: command for command in cli.COMMANDS}
    lines = {"run-rejected": RUN_REJECTED, "top-level": TOP_LEVEL}.get(group)
    for argv in lines or _edge_lines(commands[group]):
        via_main, via_tree = _parse_outcomes(capsys, monkeypatch, argv)
        assert via_main == via_tree, argv
