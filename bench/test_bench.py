"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from coconvex import localalg  # noqa: E402
from coconvex.jsonio import poly_ideal_from_json  # noqa: E402
from coconvex.localalg import Poly, colength, valuation  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 977


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_times_on_nested_span_tree():
    # root [0, 10] -> f [1, 4] -> g [2, 3];  root -> f [5, 9]
    spans = [["root", 0.0, 10.0, -1, 0],
             ["f", 1.0, 4.0, 0, 0],
             ["g", 2.0, 3.0, 1, 0],
             ["f", 5.0, 9.0, 0, 0]]
    assert tracing.self_times(spans) == {"root": 3.0, "f": 6.0, "g": 1.0}


def test_tracer_records_parents_and_recursion():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.enter("p")          # t=0
    inner = tracer.enter("p")          # t=1
    leaf = tracer.enter("q")           # t=2
    tracer.leave(leaf)                 # t=3
    tracer.leave(inner)                # t=4
    tracer.leave(outer)                # t=5
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    # p: (5 - 3) + (3 - 1) = 4 of self time; q: 1
    assert tracing.self_times(tracer.spans) == {"p": 4.0, "q": 1.0}
    assert tracing.call_counts(tracer.spans) == {"p": 2, "q": 1}


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert run.samples_beyond(100, 0.9) == 10
    assert run.p90_reportable(100)
    assert not run.p90_reportable(99)
    assert not run.p90_reportable(20)
    assert run.percentile(list(range(1, 101)), 0.9) == 90
    assert run.percentile(list(range(1, 101)), 0.5) == 50


def test_times_scale_by_the_bracketing_reference_loops():
    ref = speed.REFERENCE_LOOP_S
    # machine at half speed around the first time, at reference speed
    # before the second and twice as fast after it
    loops = [2 * ref, 2 * ref, ref / 2]
    assert speed.scaled([1.0, 2.0], loops) == pytest.approx([0.5, 1.6])
    assert speed.reference_loop() > 0


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path)


def test_staircase_check_rejects_a_perturbed_fit(workdir):
    w = workloads.WORKLOADS["skew-staircase"]
    inp = w.make(DEFAULT_SEED, 0, workdir)
    gens, target, (lead, start) = w.call(inp)
    canonical, passed = w.check(inp, (gens, target, (lead, start)))
    assert passed
    bad_canonical, bad_passed = w.check(inp, (gens, target, (lead + 1, start)))
    assert not bad_passed
    assert worker.digest(bad_canonical) != worker.digest(canonical)


def test_cli_check_rejects_a_failed_report(workdir):
    w = workloads.WORKLOADS["covolume-suites"]
    inp = w.make(DEFAULT_SEED, 0, workdir)
    code, text = w.call(inp)
    assert w.check(inp, (code, text))[1]
    report = json.loads(text)
    report["passed"] = False
    assert not w.check(inp, (code, json.dumps(report)))[1]
    assert not w.check(inp, (1, text))[1]


def test_loop_counts_a_digest_mismatch_as_failed(workdir):
    loop = worker.Loop("staircase-fit", DEFAULT_SEED, workdir)
    assert loop.expected, "reference.json must cover the default seed"
    loop.run(1, loop.prepare(1))
    assert (loop.attempted, loop.failed, loop.digests_checked) == (1, 0, 1)
    loop.expected = ["0" * 16] * len(loop.expected)
    loop.run(1, loop.prepare(1))
    assert (loop.attempted, loop.failed) == (2, 1)
    assert "digest" in loop.errors[0]


def test_loop_counts_an_exception_as_failed(workdir, monkeypatch):
    loop = worker.Loop("skew-staircase", DEFAULT_SEED, workdir)

    def broken(inp):
        raise RuntimeError("boom")
    monkeypatch.setattr(loop, "workload", workloads.Workload(
        loop.workload.name, loop.workload.why, loop.workload.make, broken,
        loop.workload.check))
    loop.run(0, loop.prepare(0))
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "RuntimeError: boom" in loop.errors[0]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
def test_polynomial_generator_yields_mprimary_ideals(seed):
    colengths = set()
    for index in range(12):
        data = workloads.lech_ideal_json(seed, index)
        ideal = poly_ideal_from_json(data)  # runs poly_local_ideal
        leads = [tuple(g["terms"][0]["exp"]) for g in data["generators"]]
        assert [valuation(g, ideal.order) for g in ideal.generators] == leads
        assert ideal.m0 <= 3
        colengths.add(colength(ideal))
    assert len(colengths) > 1


def test_lech_tails_change_the_colength():
    # index 0 has two generators led by y^2 that differ in a tail term
    data = workloads.lech_ideal_json(DEFAULT_SEED, 0)
    leads_only = {"dim": 2, "generators": [
        {"terms": g["terms"][:1]} for g in data["generators"]]}
    assert colength(poly_ideal_from_json(data)) < \
        colength(poly_ideal_from_json(leads_only))


def test_loop_catches_an_echelon_that_drops_tails(workdir, monkeypatch):
    real = localalg.truncated_echelon

    def leads_only(gens, order, bound):
        return real([Poly(n=g.n, terms=tuple(
            t for t in g.terms if t[0] == valuation(g, order))) for g in gens],
            order, bound)
    loop = worker.Loop("polynomial-lech", DEFAULT_SEED, workdir)
    loop.run(0, loop.prepare(0))
    assert loop.failed == 0
    monkeypatch.setattr(localalg, "truncated_echelon", leads_only)
    loop.run(0, loop.prepare(0))
    assert (loop.attempted, loop.failed) == (2, 1)


def _made(w, seed, index, workdir):
    inp = w.make(seed, index, workdir)
    if w.name == "polynomial-lech":  # the input is the file it wrote
        with open(inp[-1], encoding="utf-8") as fh:
            return json.load(fh)
    return inp


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed_and_index(name, workdir):
    w = workloads.WORKLOADS[name]
    first = [_made(w, DEFAULT_SEED, i, workdir) for i in range(4)]
    again = [_made(w, DEFAULT_SEED, i, workdir) for i in range(4)]
    other = [_made(w, HELD_OUT_SEED, i, workdir) for i in range(4)]
    assert first == again
    assert first != other


def test_reference_covers_default_and_held_out_seeds():
    for name in run.WORKLOAD_NAMES:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            assert len(worker.reference_digests(name, seed)) >= 4


# ---------------------------------------------------------------------------
# Tracing and the benchmark contract
# ---------------------------------------------------------------------------

def _worker(mode, workdir, **options):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", "skew-staircase", "--seed", str(DEFAULT_SEED),
           "--mode", mode, "--workdir", workdir]
    for key, value in options.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_install_fails_on_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("cones", "no_such_function", None, None),))
    with pytest.raises(LookupError, match="cones.no_such_function"):
        tracing.install(tracing.Tracer())


def test_traced_work_counts_repeat_exactly(workdir):
    first = _worker("trace", workdir, instances=3)
    second = _worker("trace", workdir, instances=3)
    assert first["failed"] == second["failed"] == 0

    def counts(result):
        return {k: v for k, v in result["layers"].items()
                if not k.endswith("self_s")}
    assert counts(first) == counts(second)
    assert first["layers"]["semigroups.iter_points_at_level.points_out"] > 0
    assert first["layers"]["semigroups.ideal_power.calls"] > 0
    assert first["cache_hit_ratio"] == second["cache_hit_ratio"]


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_run_fails_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "staircase-fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
