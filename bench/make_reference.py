"""Write reference.json: digests of each workload's first instance outputs.

    PYTHONPATH=src python3 bench/make_reference.py

Run it only at a commit whose outputs are known to be right: every later
benchmark run compares its outputs for these seeds against the digests.
An instance whose theorem check fails here stops the script.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import tracing
import worker
import workloads

INSTANCES = 8  # digests per seed: the first instances of each run
SEEDS = (*range(100), 977)  # 977 is the held-out seed of the tests


def digests_for(workload, seed, instances, workdir) -> list:
    w = workloads.WORKLOADS[workload]
    caches = tracing.CacheStats(tracing.package_caches())
    out = []
    for index in range(instances):
        caches.clear()
        inp = w.make(seed, index, workdir)
        canonical, passed = w.check(inp, w.call(inp))
        if not passed:
            raise SystemExit(f"{workload} seed {seed} instance {index} "
                             "fails its check")
        out.append(worker.digest(canonical))
    return out


def main() -> int:
    workdir = os.path.join(run.WORKDIR, f"reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        digests = {w: {str(seed): digests_for(w, seed, INSTANCES, workdir)
                       for seed in SEEDS}
                   for w in run.WORKLOAD_NAMES}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        run.remove_empty_workdir()
    with open(worker.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"instances": INSTANCES, "digests": digests}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
