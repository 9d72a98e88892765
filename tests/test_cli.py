"""End-to-end CLI behavior: subcommands, formats, exit codes."""

import json
from fractions import Fraction

import pytest

from coconvex import localalg
from coconvex.cli import main


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


def test_newton_command(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"dim": 2, "generators": [[3, 0], [1, 1], [0, 2]]})
    code, out, _ = run(capsys, ["newton", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["diagram"]) == 2


def test_mixed_and_bk(tmp_path, capsys):
    path = write(tmp_path, "pair.json", {"ideals": [
        {"dim": 2, "generators": [[1, 0], [0, 1]]},
        {"dim": 2, "generators": [[2, 0], [0, 2]]}]})
    code, out, _ = run(capsys, ["mixed", "--input", path])
    assert code == 0
    assert json.loads(out)["mixed_multiplicity"] == 2
    code, out, _ = run(capsys, ["bk", "--input", path])
    assert code == 0
    assert json.loads(out)["intersection_multiplicity"] == 2


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


def test_initial_ideal_command(tmp_path, capsys):
    path = write(tmp_path, "a.json", POLY_A)
    code, out, _ = run(capsys, ["initial-ideal", "--input", path])
    assert code == 0
    assert json.loads(out)["min_generators"] == [[0, 3], [1, 0]]


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
