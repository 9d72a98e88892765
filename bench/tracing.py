"""Spans around the package's public functions, installed from outside.

`install` replaces a function at every place it was imported to (the
defining module, every module that did `from .x import f`, and the
benchmark's own workloads module) with a wrapper that records one span
per call: (name, start, end, parent span, instance id).  Generator
functions get one span per step, so a span never stays open while the
caller runs.  Spans are kept in memory; `self_times` turns them into
per-function self time, which is span time minus the time of the spans
it caused.

Cache statistics are read from the original `lru_cache` objects, which the
wrappers do not hide from this module.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# (module, function, work count name, work count of one result or None)
TARGETS = (
    ("cones", "extreme_rays", "rays_out", len),
    ("cones", "dual_description", None, None),
    ("polytopes", "hull_vertices", None, None),
    ("polytopes", "polytope_volume", None, None),
    ("regions", "newton_region", None, None),
    ("regions", "covol", None, None),
    ("regions", "minkowski_sum", None, None),
    ("regions", "mixed_covol", None, None),
    ("linalg", "solve", None, None),
    ("semigroups", "ideal_power", "gens_out",
     lambda ideal: len(ideal.min_generators)),
    ("semigroups", "complement_count", "points_out", int),
    ("semigroups", "hilbert_basis", None, None),
    ("semigroups", "iter_points_at_level", "points_out", None),
    ("localalg", "mprimary_exponent", None, None),
    ("localalg", "truncated_echelon", "pivots_out", len),
    ("fitting", "stabilized_leading", None, None),
    ("fitting", "fit_polynomial", None, None),
    ("radicals", "compare_root_sum", None, None),
    ("cli", "main", None, None),
)
PACKAGE = "coconvex"


class Tracer:
    """In-memory span recorder; spans nest because one thread runs them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index, instance id]
        self.stack = []
        self.counts = defaultdict(int)
        self.instance = -1

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.instance])
        self.stack.append(index)
        return index

    def leave(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self.stack.pop()


def self_times(spans) -> dict:
    """Per-name sum of span time minus the time of each span's children."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[index]
    return dict(totals)


def call_counts(spans, step_names=()) -> dict:
    """Calls per name; a generator's steps count once per call instead."""
    counts = defaultdict(int)
    for name, _, _, _, _ in spans:
        if name not in step_names:
            counts[name] += 1
    return dict(counts)


def _wrap(tracer, name, func, count_name, count_of):
    if inspect.isgeneratorfunction(func):
        def steps(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            it = func(*args, **kwargs)
            while True:
                span = tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.leave(span)
                tracer.counts[name + "." + count_name] += 1
                yield item
        return steps

    def traced(*args, **kwargs):
        span = tracer.enter(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.leave(span)
        if count_of is not None:
            tracer.counts[name + "." + count_name] += count_of(result)
        return result
    return traced


def _import_sites(extra_modules):
    mods = [m for key, m in sys.modules.items() if m is not None
            and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    return mods + list(extra_modules)


def missing_targets() -> list:
    """Targets the package does not define, as `<module>.<function>`."""
    missing = []
    for module, func_name, _, _ in TARGETS:
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            mod = None
        if not callable(getattr(mod, func_name, None)):
            missing.append(f"{module}.{func_name}")
    return missing


def install(tracer, extra_modules=()):
    """Wrap every target at every import site.

    Returns (names of the generator targets, a function that puts the
    originals back).  A target the package no longer defines raises
    LookupError: its metrics would otherwise read as zero, which looks
    like an improvement rather than a gap in the benchmark.
    """
    missing = missing_targets()
    if missing:
        raise LookupError("traced functions not found: " + ", ".join(missing))
    sites = _import_sites(extra_modules)
    step_names = set()
    replaced = []
    for module, func_name, count_name, count_of in TARGETS:
        func = getattr(importlib.import_module(f"{PACKAGE}.{module}"),
                       func_name)
        name = f"{module}.{func_name}"
        if inspect.isgeneratorfunction(func):
            step_names.add(name)
        wrapper = _wrap(tracer, name, func, count_name, count_of)
        for site in sites:
            for attr, value in list(vars(site).items()):
                if value is func:
                    setattr(site, attr, wrapper)
                    replaced.append((site, attr, func))

    def restore():
        for site, attr, func in replaced:
            setattr(site, attr, func)
    return step_names, restore


def package_caches():
    """Every lru_cache object defined at module level in the package."""
    found = {}
    for site in _import_sites(()):
        for attr, value in vars(site).items():
            module = getattr(value, "__module__", "") or ""
            if (hasattr(value, "cache_info") and hasattr(value, "cache_clear")
                    and module.startswith(PACKAGE + ".")):
                short = module[len(PACKAGE) + 1:]
                found[f"{short}.{value.__name__}"] = value
    return found


class CacheStats:
    """Hits and misses of the package caches, summed across clears."""

    def __init__(self, caches: dict):
        self.caches = caches
        self.hits = defaultdict(int)
        self.misses = defaultdict(int)

    def clear(self) -> None:
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            cache.cache_clear()

    def hit_ratio(self, name: str) -> float:
        total = self.hits[name] + self.misses[name]
        return self.hits[name] / total if total else 0.0


def layer_metrics(tracer, step_names) -> dict:
    """Per-layer metric values named `<module>.<function>.<stat>`."""
    selfs = self_times(tracer.spans)
    calls = call_counts(tracer.spans, step_names)
    calls.update({k[:-len(".calls")]: v for k, v in tracer.counts.items()
                  if k.endswith(".calls")})
    out = {}
    for module, func_name, count_name, _ in TARGETS:
        name = f"{module}.{func_name}"
        out[name + ".self_s"] = selfs.get(name, 0.0)
        out[name + ".calls"] = calls.get(name, 0)
        if count_name is not None:
            out[name + "." + count_name] = tracer.counts.get(
                name + "." + count_name, 0)
    return out
