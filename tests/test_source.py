"""Source rules that no single module test would notice."""

import ast
import importlib
import pkgutil
from pathlib import Path

import coconvex
from coconvex import cli, suites


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


# Definitions that no command or suite reaches, each kept for a reason.
UNREACHED_BY_DESIGN = {
    "hilbert_basis": "traced and cache-counted by bench/",
    "iter_points_at_level": "traced by bench/",
    "fit_polynomial": "traced by bench/",
    "valuation": "imported by bench/test_bench.py",
    "SingularSystem": "raised only by fit_polynomial",
    "ZeroPolynomial": "raised only by valuation",
    "cone_region": "imported by tests/test_acceptance.py",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _used_names(node):
    """Bare and attribute names a definition uses.  A class's methods other
    than dunders run only when named, so their bodies are left out."""
    found, stack = set(), [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack += [child for child in ast.iter_child_nodes(node)
                  if not (isinstance(node, ast.ClassDef)
                          and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not _is_dunder(child.name))]
    return found


def test_every_definition_is_reachable():
    """A name-level closure over the package source, from cli.main, every
    command handler and every suite, reaches each function, method and
    class the package defines (dunders aside), except the few listed above.
    Imports carry nothing, so `__init__` re-exports reach nothing; module
    constants pass on what their values name.  Unlike a reference in a
    test, only a command or a suite keeps a definition here."""
    bodies, defined = {}, []
    for path in sorted(Path(coconvex.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bodies.setdefault(target.id, []).append(node)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
                if not _is_dunder(node.name):
                    defined.append((node.name, f"{path.name}:{node.lineno} {node.name}"))
    todo = ["main"] + [command.handler.__name__ for command in cli.COMMANDS]
    todo += [suite.__name__ for suite in suites.SUITES.values()]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in bodies.get(name, ()):
                todo += _used_names(node) - reached
    assert [where for name, where in defined
            if name not in reached and name not in UNREACHED_BY_DESIGN] == []
    # the list stays exact: an entry that is reached or gone is removed
    assert sorted(name for name in UNREACHED_BY_DESIGN
                  if name in reached or name not in bodies) == []
