"""coconvex benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload staircase-fit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  Each child process is started fresh, one
at a time, so caches start cold and a single core does the work.

--trace 0 measures the end-to-end metrics with tracing off: set-up time
(median over SETUP_SAMPLES fresh processes), instances per second over the
timed calls, per-instance latency p50 and p90, and the child's peak RSS
over the first MIN_INSTANCES instances.  Times are scaled to a reference
machine speed (see speed.py); the info lines give the unscaled p50 and
the measured speed.  --trace 1 runs each of the first
TRACE_INSTANCES[workload] instances twice in one process, untraced and then
traced, and reports per-layer self time, calls, work counts and cache hit
ratios, plus the tracing overhead (traced time minus untraced time).

Every instance is checked: the workload's theorem check, and for seeds
listed in reference.json the digest of its canonical output.  The last
stdout line is a JSON object with keys correct, attempted, failed and
metrics; the exit code is 1 when any instance failed and 2 when the
checkout holds no package sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "coconvex")
WORKDIR = os.path.join(ROOT, ".bench_work")

WORKLOAD_NAMES = ("staircase-fit", "covolume-suites", "polynomial-lech",
                  "skew-staircase")
# Set-up samples: half before the measuring child, half after it, so they
# meet the machine at moments 30 s apart; its speed drifts over seconds.
SETUP_SAMPLES = 9
MIN_INSTANCES = 100  # p90 needs at least 10 samples beyond it
TRACE_INSTANCES = {"staircase-fit": 40, "covolume-suites": 48,
                   "polynomial-lech": 24, "skew-staircase": 48}
DEADLINE_S = 170.0
TAIL_SAMPLES = 10
CACHE_RATIOS = ("semigroups.ideal_power", "regions.covol",
                "semigroups.hilbert_basis")


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(samples, q: float):
    """Nearest-rank percentile: the ceil(q * n)-th smallest sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n))


def p90_reportable(n: int) -> bool:
    return samples_beyond(n, 0.9) >= TAIL_SAMPLES


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "commit": commit(),
            "src_sha256": source_digest(),
            "nproc": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------
# Metric names and units
# ---------------------------------------------------------------------------

END_TO_END = {"setup_s": "s", "instances_per_s": "1/s",
              "instance_ms_p50": "ms", "instance_ms_p90": "ms",
              "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for module, func, count_name, _ in tracing.TARGETS:
        units[f"{module}.{func}.self_s"] = "s"
        units[f"{module}.{func}.calls"] = "count"
        if count_name is not None:
            units[f"{module}.{func}.{count_name}"] = "count"
    for name in CACHE_RATIOS:
        units[f"{name}.cache_hit_ratio"] = "ratio"
    units["bench.trace_overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Children:
    """Starts worker processes one at a time, within one overall deadline."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, mode, **options) -> tuple:
        """Returns (worker result, monotonic time at spawn)."""
        self.count += 1
        workdir = os.path.join(
            WORKDIR, f"{self.workload}-{os.getpid()}-{self.count}")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--workdir", workdir]
        for key, value in options.items():
            cmd += ["--" + key.replace("_", "-"), str(value)]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before starting a child")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child exceeded the deadline") from exc
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} child exited with {proc.returncode}")
        return json.loads(lines[-1]), spawned


def remove_empty_workdir():
    try:
        os.rmdir(WORKDIR)
    except OSError:
        pass


def setup_time(result, spawned) -> float:
    """Spawn-to-first-call time at reference speed."""
    loop_s = statistics.median(result["loop_s"][:3])
    return (result["ready"] - spawned) * speed.REFERENCE_LOOP_S / loop_s


def end_to_end(children, seconds) -> tuple:
    setups = [setup_time(*children.run("setup"))
              for _ in range(SETUP_SAMPLES // 2)]
    result, spawned = children.run("measure", seconds=seconds,
                                   min_instances=MIN_INSTANCES)
    setups.append(setup_time(result, spawned))
    setups += [setup_time(*children.run("setup"))
               for _ in range(SETUP_SAMPLES // 2)]
    raw = result["latencies_s"]
    if not p90_reportable(len(raw)):
        raise BenchError(f"{len(raw)} samples leave fewer than "
                         f"{TAIL_SAMPLES} beyond p90")
    latencies = speed.scaled(raw, result["loop_s"])
    values = {
        "setup_s": statistics.median(setups),
        "instances_per_s": len(latencies) / sum(latencies),
        "instance_ms_p50": statistics.median(latencies) * 1000.0,
        "instance_ms_p90": percentile(latencies, 0.9) * 1000.0,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    info = {"samples": len(raw), "setup_samples": len(setups),
            "unscaled_ms_p50": round(statistics.median(raw) * 1000.0, 3),
            "machine_speed": round(speed.REFERENCE_LOOP_S
                                   / statistics.median(result["loop_s"]), 3)}
    return values, result, info


def traced(children) -> tuple:
    instances = TRACE_INSTANCES[children.workload]
    result, _ = children.run("trace", instances=instances)
    values = dict(result["layers"])
    for name in CACHE_RATIOS:
        if name not in result["cache_hit_ratio"]:
            raise BenchError(f"no cache {name} in the package")
        values[f"{name}.cache_hit_ratio"] = result["cache_hit_ratio"][name]
    values["bench.trace_overhead_s"] = \
        result["traced_s"] - result["untraced_s"]
    info = {"samples": instances,
            "untraced_s": round(result["untraced_s"], 4),
            "traced_s": round(result["traced_s"], 4)}
    return values, result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: no package sources at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    children = Children(args.workload, args.seed)
    try:
        if args.trace:
            values, result, info = traced(children)
            units = per_layer_units()
        else:
            values, result, info = end_to_end(children, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_empty_workdir()

    attempted, failed = result["attempted"], result["failed"]
    for message in result["errors"]:
        print(f"error: {message}", file=sys.stderr)
    env = environment()
    print(f"# coconvex bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:g} "
          f"digests_checked={result['digests_checked']} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"# {name.ljust(width)}  {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
