"""Run every workload over several seeds and summarise, or record, the result.

    python3 bench/trajectory.py --seeds 1-10 [--record LABEL]

For each workload this runs run.py once per seed with tracing off, for
the run_seconds that BENCHMARK.json gives, prints
every end-to-end metric's median, quartiles and spread (the distance
between the first and third quartile as a share of the median), then runs
run.py once with tracing on at the first seed.  With --record, the summary
is appended to trajectory.json as one entry, with the Python version,
commit and nproc it was measured with.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

TRAJECTORY = os.path.join(run.HERE, "trajectory.json")
SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def parse_seeds(text: str) -> list:
    """'0-3,9' -> [0, 1, 2, 3, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> tuple:
    """(median, first quartile, third quartile, IQR as a share of median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=run.DEADLINE_S + 30)
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    return result


def summarise(workload, seeds, seconds) -> dict:
    runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
    end_to_end = {}
    print(f"{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
    for name, unit in run.END_TO_END.items():
        values = [r["metrics"][name]["value"] for r in runs]
        median, q1, q3, share = spread(values)
        end_to_end[name] = {"unit": unit, "median": median, "q1": q1,
                            "q3": q3, "spread": share, "values": values}
        print(f"  {name:16} median {median:10.4f} {unit:5} "
              f"q1 {q1:10.4f}  q3 {q3:10.4f}  spread {share:.3f}")
    layers = run_once(workload, seeds[0], seconds, 1)["metrics"]
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in layers.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)

    with open(SPEC, encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    seeds = parse_seeds(args.seeds)
    workloads = {w: summarise(w, seeds, seconds)
                 for w in run.WORKLOAD_NAMES}
    if args.record:
        entry = {"label": args.record, **run.environment(),
                 "seconds": seconds, "seeds": seeds,
                 "workloads": workloads}
        history = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY, encoding="utf-8") as fh:
                history = json.load(fh)
        history.append(entry)
        with open(TRAJECTORY, "w", encoding="utf-8") as fh:
            json.dump(history, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
