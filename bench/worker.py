"""One benchmark child process: runs a workload's instances in a closed loop.

Started by run.py with PYTHONPATH pointing at the package sources, so the
process pays for the interpreter and `import coconvex` as a command-line
user does.  Modes:

  setup     build the first input, report when the first call would start
  measure   run instances until --seconds have passed and at least
            --min-instances are done; report every latency
  trace     run each of the first --instances instances untraced, then
            again with spans around the package's public functions

Every package cache is cleared before each instance, so each instance
starts cold like one command-line invocation and its time does not depend
on what ran before it.  Next to the timed calls, outside them, the worker
times speed.reference_loop so that run.py can scale the times to a
reference machine speed.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
MAX_REPORTED_ERRORS = 3


def digest(canonical: bytes) -> str:
    return hashlib.sha256(canonical).hexdigest()[:16]


def reference_digests(workload: str, seed: int) -> list:
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["digests"].get(workload, {}).get(str(seed), [])


class Loop:
    """Closed loop over one workload's instance stream."""

    def __init__(self, workload, seed, workdir):
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.expected = reference_digests(workload, seed)
        self.caches = tracing.CacheStats(tracing.package_caches())
        self.attempted = 0
        self.failed = 0
        self.digests_checked = 0
        self.errors = []

    def prepare(self, index):
        self.caches.clear()
        return self.workload.make(self.seed, index, self.workdir)

    def _call(self, index, inp, tracer):
        if tracer is None:
            return self.workload.call(inp)
        tracer.instance = index
        span = tracer.enter("instance")
        try:
            return self.workload.call(inp)
        finally:
            tracer.leave(span)

    def run(self, index, inp, tracer=None) -> float:
        """Times one instance and checks its output; returns seconds."""
        self.attempted += 1
        ok = False
        start = time.perf_counter()
        try:
            raw = self._call(index, inp, tracer)
            elapsed = time.perf_counter() - start
            canonical, ok = self.workload.check(inp, raw)
            if not ok:
                self._error(index, "theorem check failed")
            if index < len(self.expected):
                self.digests_checked += 1
                if digest(canonical) != self.expected[index]:
                    ok = False
                    self._error(index, "output digest differs from reference")
        except Exception as exc:  # a failing instance is counted, not fatal
            elapsed = time.perf_counter() - start
            self._error(index, f"{type(exc).__name__}: {exc}")
        if not ok:
            self.failed += 1
        return elapsed

    def _error(self, index, message):
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(f"instance {index}: {message}")

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "digests_checked": self.digests_checked,
                "errors": self.errors}


def measure(loop, seconds, min_instances):
    """Latencies, with the reference loop timed before and after each.

    The loop runs after the caches are cleared, so the heap it allocates
    into is as small as at the start, whatever the last instance left.
    """
    latencies = []
    rss_kb = None
    inp = loop.prepare(0)
    ready = time.monotonic()
    loop_times = [speed.reference_loop()]
    start = time.perf_counter()
    index = 0
    while True:
        latencies.append(loop.run(index, inp))
        index += 1
        if index == min_instances:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if index >= min_instances and time.perf_counter() - start >= seconds:
            break
        inp = loop.prepare(index)
        loop_times.append(speed.reference_loop())
    loop.caches.clear()
    loop_times.append(speed.reference_loop())
    return {"ready": ready, "latencies_s": latencies, "loop_s": loop_times,
            "peak_rss_kb": rss_kb}


def trace(loop, instances):
    """Runs each instance untraced, then traced, alternating.

    Alternating per instance keeps slow drifts in machine speed out of the
    overhead, which is the traced minus the untraced time.
    """
    tracer = tracing.Tracer()
    inp = loop.prepare(0)
    ready = time.monotonic()
    untraced = traced = 0.0
    for index in range(instances):
        if index:
            inp = loop.prepare(index)
        untraced += loop.run(index, inp)
        inp = loop.prepare(index)
        step_names, restore = tracing.install(tracer, (workloads,))
        try:
            traced += loop.run(index, inp, tracer)
        finally:
            restore()
    loop.caches.clear()
    return {"ready": ready, "untraced_s": untraced, "traced_s": traced,
            "layers": tracing.layer_metrics(tracer, step_names),
            "cache_hit_ratio": {name: loop.caches.hit_ratio(name)
                                for name in loop.caches.caches}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--min-instances", type=int, default=1)
    parser.add_argument("--instances", type=int, default=1)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        loop = Loop(args.workload, args.seed, args.workdir)
        if args.mode == "setup":
            loop.prepare(0)
            result = {"ready": time.monotonic(),
                      "loop_s": [speed.reference_loop() for _ in range(3)]}
        elif args.mode == "measure":
            result = measure(loop, args.seconds, args.min_instances)
        else:
            result = trace(loop, args.instances)
        result.update(loop.summary())
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
