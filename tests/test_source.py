"""Source rules that no single module test would notice."""

import ast
import importlib
import pkgutil
from pathlib import Path

import coconvex


def test_no_assert_in_package_source():
    """`python -O` strips `assert`, so no check in the package may use it."""
    found = []
    for path in sorted(Path(coconvex.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_traced_targets_resolve():
    """Every (module, function) the benchmark's tracer wraps still exists,
    so renaming or deleting one cannot silently break the traced run."""
    tracing = Path(__file__).parents[1] / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), filename=str(tracing))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    names = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert names
    missing = [f"{module}.{function}" for module, function in names
               if not callable(getattr(importlib.import_module(f"coconvex.{module}"),
                                       function, None))]
    assert missing == []


# Caches that predate the rule that a new cache starts bounded.
LEGACY_UNBOUNDED = {"ideal_power", "covol", "_cosets", "_orthant_colength",
                    "hilbert_basis", "_initial_pivots", "_product_map"}


def _package_caches():
    """(name, cache) for every module-level cache in the package."""
    found = []
    for info in pkgutil.iter_modules(coconvex.__path__):
        module = importlib.import_module(f"coconvex.{info.name}")
        found += [(name, value) for name, value in vars(module).items()
                  if hasattr(value, "cache_info")
                  and getattr(value, "__module__", None) == module.__name__]
    return found


def test_package_caches_are_listed():
    """Every module-level cache in the package is named here, so a new
    cache shows up in review."""
    assert sorted(name for name, _ in _package_caches()) == sorted([
        "ideal_power", "_cosets", "hilbert_basis", "_orthant_colength", "covol",
        "_product_map", "_initial_pivots", "_monomial_table", "_newton_region"])


def test_new_caches_are_bounded():
    """A cache outside the legacy list must hold a finite number of entries."""
    unbounded = [name for name, cache in _package_caches()
                 if name not in LEGACY_UNBOUNDED and cache.cache_info().maxsize is None]
    assert unbounded == []
