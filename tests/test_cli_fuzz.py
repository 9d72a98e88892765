"""Seeded fuzz test of the commands that read an input file.

Each case takes a valid input of `tests/test_cli.py`, applies one to three
mutations (a node replaced by a wrong-typed, boundary or huge value, an
integer moved by up to 2, a key deleted, or a list grown) and runs the
command in process.  Every case must end with exit 0 or 2, with no
traceback and no internal-check failure (`InvariantViolation`,
`MonotonicityViolation`, which the CLI also reports with exit 2), within
a few seconds.
"""

import contextlib
import copy
import io
import json
import signal

from hypothesis import given, settings, strategies as st

from coconvex.cli import main
from test_cli import M2, NEWTON_INPUTS, POLY_A, POLY_INPUTS, WELL_FORMED

# (command, extra options, valid input): the well-formed line of each command
# that reads a file, plus the `newton` and polynomial inputs.
BASES = [(name, options, payload) for name, (payload, options) in WELL_FORMED.items()
         if payload is not None]
BASES += [("newton", [], payload) for payload in NEWTON_INPUTS.values()]
BASES += [("covolume", [], payload) for payload in NEWTON_INPUTS.values()
          if "ell" in payload]
BASES += [(command, [], payload) for payload in POLY_INPUTS.values()
          for command in ("lech", "initial-ideal")]
BASES += [("mixed", [], {"ideals": [M2, NEWTON_INPUTS["orthant2"]]}),
          ("bk", [], {"ideals": [M2, {"dim": 2, "generators": [[1, 0], [0, 3]]}]}),
          ("multiplicity", ["--kmax", "2"], POLY_A)]

VALUES = {
    "wrong-typed": [None, True, 1.5, "", "x", "1/0", "1e400", [], [[]], {},
                    {"terms": []}],
    "boundary": [0, -1, 1, 2, "0", "-1", "1/2", [0], [0, 0]],
    "huge": [10 ** 30, -10 ** 30, 2 ** 64, "10" * 20, "1/" + "7" * 30],
}
CASE_SECONDS = 5
# Errors that report a broken internal check, not a bad input.
INTERNAL = ("InvariantViolation", "MonotonicityViolation")


def _paths(node, path=()):
    """Every node of the JSON tree, as the key path that reaches it."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _at(node, path):
    """The node that a key path reaches."""
    for key in path:
        node = node[key]
    return node


def _mutate(data, payload):
    """Apply one mutation, drawn from `data`, to a copy of the payload: a
    node replaced (an integer may move by up to 2, which keeps most inputs
    well-formed), a key or list entry deleted, or the list at or around a
    node repeated one to three more times."""
    payload = copy.deepcopy(payload)
    paths = list(_paths(payload))
    kind = data.draw(st.sampled_from([*VALUES, "nearby", "delete", "grow"]))
    if kind == "nearby":
        paths = [path for path in paths if type(_at(payload, path)) is int] or paths
    path = data.draw(st.sampled_from(paths))
    if not path:
        return data.draw(st.sampled_from(VALUES["wrong-typed"]))
    parent = _at(payload, path[:-1])
    key, node = path[-1], parent[path[-1]]
    if kind == "nearby":
        if type(node) is int:
            parent[key] = node + data.draw(st.integers(-2, 2))
    elif kind == "delete":
        del parent[key]
    elif kind == "grow":
        grown = node if isinstance(node, list) and node else parent
        if isinstance(grown, list):
            grown.extend(copy.deepcopy(grown) * data.draw(st.integers(1, 3)))
    else:
        parent[key] = data.draw(st.sampled_from(VALUES[kind]))
    return payload


class CaseTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CaseTimeout(f"a case ran past {CASE_SECONDS} s")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mutated_inputs_exit_0_or_2(tmp_path_factory, data):
    command, options, payload = data.draw(st.sampled_from(BASES))
    for _ in range(data.draw(st.integers(1, 3))):
        payload = _mutate(data, payload)
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", str(path), *options])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2), (command, payload, err.getvalue())
    assert "Traceback" not in err.getvalue(), (command, payload)
    assert not any(name in err.getvalue() for name in INTERNAL), \
        (command, payload, err.getvalue())
    assert (out.getvalue() == "") == (code == 2), (command, payload)
