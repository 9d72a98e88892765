"""Source rules that no single module test would notice."""

import ast
import importlib
import math
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
    """Every cache must hold a finite number of entries."""
    unbounded = [name for name, cache in _package_caches()
                 if cache.cache_info().maxsize is None]
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
    "SemigroupIdealSet.contains": "used by tests/test_acceptance.py",
}

# Each method or property name that more than one package class defines
# (as a method, a property or a field), with the classes whose definition
# an attribute of that name reaches.  Reviewed by hand: every `x.contains`
# in src/ asks a cone, every `x.n` a term order or an ideal, every `x.dim`
# a region or a semigroup.
SHARED_ATTRIBUTES = {
    "contains": {"RationalCone"},
    "n": {"TermOrder", "MonomialIdealLocal", "PolyLocalIdeal"},
    "dim": {"NewtonRegion", "LatticeSemigroup"},
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _binds(function):
    """Names a function binds: arguments, assignment, loop, comprehension,
    with and except targets, imports and nested definitions, its nested
    functions' included (stricter than Python's scopes, never looser)."""
    found = set()
    for node in ast.walk(function):
        if isinstance(node, ast.arg):
            found.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.alias):
            found.add((node.asname or node.name).partition(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            found.add(node.name)
        elif isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and node is not function:
            found.add(node.name)
    return found


def _uses(node):
    """(free names, attribute names, local names) a definition uses.  A bare
    name bound in the function it is read in, or in an enclosing one, is
    local: it names no module-level definition.  A class's methods other
    than dunders run only when named, so their bodies are left out."""
    free, attributes, local = set(), set(), set()

    def visit(node, bound):
        if isinstance(node, (*_FUNCTIONS, ast.Lambda)):
            bound = bound | _binds(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            (local if node.id in bound else free).add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        for child in ast.iter_child_nodes(node):
            if not (isinstance(node, ast.ClassDef) and isinstance(child, _FUNCTIONS)
                    and not _is_dunder(child.name)):
                visit(child, bound)

    visit(node, frozenset())
    return free, attributes, local


def _package_definitions():
    """Module-level definitions (functions, classes and assignments) by
    name; methods by name as (class, node) pairs; field names by class;
    and (key, parent key, name, where) for every function and class, with
    methods keyed Class.method and nested functions parent.name."""
    bodies, methods, fields, defined = {}, {}, {}, []
    for path in sorted(Path(coconvex.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def define(key, parent, node):
            defined.append((key, parent, node.name, f"{path.name}:{node.lineno} {key}"))
            if isinstance(node, _FUNCTIONS):
                stack = list(ast.iter_child_nodes(node))
                while stack:
                    child = stack.pop()
                    if isinstance(child, _FUNCTIONS):
                        define(f"{key}.{child.name}", key, child)
                    else:
                        stack += ast.iter_child_nodes(child)

        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bodies.setdefault(target.id, []).append(node)
            elif isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
                define(node.name, None, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _FUNCTIONS) and not _is_dunder(item.name):
                        methods.setdefault(item.name, []).append((node.name, item))
                        define(f"{node.name}.{item.name}", None, item)
                    elif isinstance(item, ast.AnnAssign):
                        fields.setdefault(item.target.id, set()).add(node.name)
    return bodies, methods, fields, defined


def test_every_definition_is_reachable():
    """A closure over the package source, from cli.main, every command
    handler and every suite, reaches each function, method and class the
    package defines (dunders aside), except the few listed above.  A free
    bare name reaches the module-level definitions of that name; a name
    the function binds itself reaches nothing.  An attribute reaches the
    methods of that name, and a name that several classes define only
    those SHARED_ATTRIBUTES lists.  A nested function is reached when its
    parent is and reads its name.  Imports carry nothing, so `__init__`
    re-exports reach nothing; module constants pass on what their values
    name.  Unlike a reference in a test, only a command or a suite keeps a
    definition here."""
    bodies, methods, fields, defined = _package_definitions()
    shared = {name for name, found in methods.items()
              if len({cls for cls, _ in found} | fields.get(name, set())) > 1}
    todo = [(False, "main")] + [(False, command.handler.__name__)
                                for command in cli.COMMANDS]
    todo += [(False, suite.__name__) for suite in suites.SUITES.values()]
    seen, reached, local = set(), set(), {}
    while todo:
        item = todo.pop()
        if item in seen:
            continue
        seen.add(item)
        is_attribute, name = item
        if is_attribute:
            targets = [(f"{cls}.{name}", node) for cls, node in methods.get(name, ())
                       if name not in shared or cls in SHARED_ATTRIBUTES.get(name, ())]
        else:
            targets = [(name, node) for node in bodies.get(name, ())]
        for key, node in targets:
            reached.add(key)
            free, attributes, local[key] = _uses(node)
            todo += [(False, n) for n in free] + [(True, a) for a in attributes]
    reached |= {key for key, parent, name, _ in defined
                if parent in reached and name in local[parent]}
    assert [where for key, _, _, where in defined
            if key not in reached and key not in UNREACHED_BY_DESIGN] == []
    # the list stays exact: an entry that is reached or gone is removed
    keys = {key for key, _, _, _ in defined}
    assert sorted(key for key in UNREACHED_BY_DESIGN
                  if key in reached or key not in keys) == []
    # so does the map: every shared name, each listed class defining it as a
    # method, and each name read as an attribute by reached code
    assert sorted(SHARED_ATTRIBUTES) == sorted(shared)
    assert sorted(f"{cls}.{name}" for name, classes in SHARED_ATTRIBUTES.items()
                  for cls in classes
                  if (True, name) not in seen or f"{cls}.{name}" not in keys) == []


# Defaulted parameters that no call in src/ or bench/ passes, each kept
# for a reason.
DEFAULTS_LEFT_TO_TESTS = {}


def test_every_defaulted_parameter_is_passed():
    """Every function parameter and dataclass field with a default in the
    package is passed, by position or keyword, by some call in src/ or
    bench/ to a function, method or class of that name, except the few
    listed above, so a knob that only tests set shows up in review."""
    defaulted = {}  # "function.parameter" -> (function, parameter, position)
    for path in sorted(Path(coconvex.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, _FUNCTIONS):
                args = node.args
                positional = args.posonlyargs + args.args
                skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
                first_default = len(positional) - len(args.defaults)
                params = [(arg.arg, index - skip) for index, arg in enumerate(positional)
                          if index >= first_default]
                params += [(arg.arg, None) for arg, default
                           in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            elif isinstance(node, ast.ClassDef):
                annotated = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                params = [(item.target.id, index) for index, item in enumerate(annotated)
                          if item.value is not None]
            else:
                continue
            for name, position in params:
                defaulted[f"{node.name}.{name}"] = (node.name, name, position)
    calls = {}  # callee name -> [(positional count, keyword names)]
    repo = Path(__file__).parents[1]
    for top in ("src", "bench"):
        for path in sorted((repo / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    spread = any(isinstance(arg, ast.Starred) for arg in node.args)
                    calls.setdefault(callee, []).append(
                        (math.inf if spread else len(node.args),
                         {k.arg for k in node.keywords}))

    def passed(function, name, position):
        return any(name in keywords or None in keywords
                   or (position is not None and position < count)
                   for count, keywords in calls.get(function, ()))

    assert sorted(key for key, entry in defaulted.items()
                  if not passed(*entry) and key not in DEFAULTS_LEFT_TO_TESTS) == []
    # the list stays exact: an entry that is passed or gone is removed
    assert sorted(key for key in DEFAULTS_LEFT_TO_TESTS
                  if key not in defaulted or passed(*defaulted[key])) == []
