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
LEGACY_UNBOUNDED = {"ideal_power", "_cosets", "hilbert_basis"}


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
        "ideal_power", "_cosets", "hilbert_basis", "covol",
        "_product_map", "_initial_pivots", "_monomial_table", "_newton_region"])


def test_new_caches_are_bounded():
    """A cache outside the legacy list must hold a finite number of entries."""
    unbounded = [name for name, cache in _package_caches()
                 if name not in LEGACY_UNBOUNDED and cache.cache_info().maxsize is None]
    assert unbounded == []


def _identifiers(path):
    """Names a file refers to: bare names, attributes, imported names, and
    string constants that are identifiers (getattr, monkeypatch and the
    benchmark's tracing targets name functions that way)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found.add(node.value)
    return found


def test_every_definition_is_referenced():
    """Each function, method and class the package defines (dunders aside)
    is named somewhere in src/, tests/ or bench/ besides its own def or
    class line, so code that nothing runs does not linger."""
    package = Path(coconvex.__file__).parent
    repo = Path(__file__).parents[1]
    defined = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(node.name, f"{path.name}:{node.lineno} {node.name}")
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert defined
    referenced = set()
    for top in ("src", "tests", "bench"):
        for path in sorted((repo / top).rglob("*.py")):
            referenced |= _identifiers(path)
    assert [where for name, where in defined if name not in referenced] == []
