"""Command-line interface.

Each subcommand is one row of COMMANDS.  A command line is parsed by its
own command's parser; the full tree (build_parser) handles top-level help,
leftover arguments and unknown commands.  The handler reads a JSON file
(see jsonio for the schemas) and returns the payload that main writes as
JSON or a plain table; verify writes its own report.  Exit codes: 0
success, 1 an inequality suite found a violation, 2 malformed input or
validation failure.  Reports are byte-deterministic for fixed seed and
flags; timing goes to stderr only.  The environment variable
COCONVEX_OUTPUT_DIR supplies a default directory for relative --output
paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from .errors import CoconvexError, InputFormatError
from .jsonio import (any_ideal_from_json, frac_str, monomial_ideal_from_json,
                     poly_ideal_from_json, region_from_json,
                     semigroup_ideal_to_json, region_to_json)
from .localalg import (MonomialIdealLocal, colength, hilbert_samuel,
                       initial_semigroup_ideal, lech_chain, mixed_multiplicity,
                       multiplicity, multiplicity_report)
from .randgen import InstanceSpec
from .regions import covol, newton_diagram
from .semigroups import staircase_region
from .suites import SUITES


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


def _one_line(value) -> str | None:
    """A scalar, a list of scalars as [a, b] or an empty dict as {}; None
    for a value that needs lines of its own."""
    if isinstance(value, list):
        if any(isinstance(x, (dict, list)) for x in value):
            return None
        return "[" + ", ".join(map(str, value)) + "]"
    return None if isinstance(value, dict) and value else str(value)


def _table_lines(data, indent: str):
    """Lines of `data` at `indent`: a dict's keys aligned, a nested value
    indented under its key, and each item of a list opened by "- ", so
    the rows of nested lists stay apart."""
    text = _one_line(data)
    if text is not None:
        yield indent + text
    elif isinstance(data, dict):
        width = max(len(str(k)) for k in data)
        for key, value in data.items():
            text = _one_line(value)
            if text is None:
                yield f"{indent}{key}:"
                yield from _table_lines(value, indent + "  ")
            else:
                yield f"{indent}{str(key).ljust(width)}  {text}"
    else:
        for value in data:
            first, *rest = _table_lines(value, indent + "  ")
            yield indent + "- " + first[len(indent) + 2:]
            yield from rest


def _write(text: str, output) -> None:
    """Print to stdout, or write to --output (relative to COCONVEX_OUTPUT_DIR)."""
    if not output:
        print(text)
        return
    default_dir = os.environ.get("COCONVEX_OUTPUT_DIR")
    if default_dir and not os.path.isabs(output):
        output = os.path.join(default_dir, output)
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = "\n".join(_table_lines(payload, ""))
    _write(text, args.output)


def _vertices_list(vertices):
    return [[frac_str(x) for x in v] for v in vertices]


def _multiplicity(args) -> dict:
    ideal = any_ideal_from_json(_load_json(args.input))
    if isinstance(ideal, MonomialIdealLocal):
        return {"e": multiplicity(ideal)}
    report = multiplicity_report(ideal, args.kmax)
    return {
        "e_upper": frac_str(report.e_upper),
        "e_exact": frac_str(report.e_fit) if report.e_fit is not None else None,
        "fit_stabilized": report.e_fit is not None,
        "u_sequence": [frac_str(u) for u in report.u_values],
        "hilbert_samuel": list(report.hilbert_values),
    }


def _covolume(args) -> dict:
    region = region_from_json(_load_json(args.input))
    return {"covol": frac_str(covol(region)),
            "threshold": frac_str(region.threshold)}


def _region_from_any(data):
    if isinstance(data, dict) and "ell" in data and "generators" in data:
        return region_from_json(data)
    ideal = monomial_ideal_from_json(data)
    return staircase_region(ideal.staircase)


def _newton(args) -> dict:
    region = _region_from_any(_load_json(args.input))
    return {
        "region": region_to_json(region),
        "facets": [{"normal": list(u), "offset": frac_str(c)}
                   for u, c in region.facets],
        "diagram": [_vertices_list(face) for face in newton_diagram(region)],
    }


def _ideal_list(args):
    data = _load_json(args.input)
    if not isinstance(data, dict) or not isinstance(data.get("ideals"), list):
        raise InputFormatError('expected {"ideals": [...]}')
    if not data["ideals"]:
        raise InputFormatError("need at least one ideal")
    return [monomial_ideal_from_json(entry) for entry in data["ideals"]]


def _mixed(args) -> dict:
    return {"mixed_multiplicity": mixed_multiplicity(_ideal_list(args))}


def _hilbert_samuel(args) -> dict:
    ideal = any_ideal_from_json(_load_json(args.input))
    return {"H": hilbert_samuel(ideal, args.kmax)}


def _initial_ideal(args) -> dict:
    ideal = poly_ideal_from_json(_load_json(args.input))
    return semigroup_ideal_to_json(initial_semigroup_ideal(ideal, args.k))


def _lech(args) -> dict:
    ideal = any_ideal_from_json(_load_json(args.input))
    chain = lech_chain(ideal)
    return {
        "e_upper": frac_str(chain.e_upper),
        "e_in": chain.e_in,
        "bound": chain.bound,
        "colength": colength(ideal),
        "holds": chain.holds,
    }


def _bk(args) -> dict:
    ideals = _ideal_list(args)
    value, n = mixed_multiplicity(ideals), ideals[0].n
    return {
        "intersection_multiplicity": value,
        "dimension": n,
        "statement": f"Generic members f_1, ..., f_{n} of the {n} given "
                     f"monomial ideals vanish simultaneously at the origin "
                     f"with intersection multiplicity {value}.",
    }


def _verify(args) -> int:
    spec = InstanceSpec(dimension=args.dim, seed=args.seed,
                        exponent_bound=args.exponent_bound)
    report = SUITES[args.suite](spec, args.count)
    if args.format == "json":
        _write(report.canonical_bytes().decode(), args.output)
    else:
        _emit(report.to_json(), args)
    print(f"suite={report.suite} count={report.count} "
          f"violations={len(report.violations)} "
          f"elapsed_ms={report.elapsed_ms:.1f}", file=sys.stderr)
    return 0 if report.passed else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


class Command(NamedTuple):
    """`arguments`: (flag, add_argument keywords) pairs after the shared
    --input (if `reads_input`), --format and --output."""

    name: str
    help: str
    handler: Callable
    arguments: tuple = ()
    reads_input: bool = True


COMMANDS = (
    Command("multiplicity", "Samuel multiplicity of an ideal", _multiplicity,
            (("--kmax", {"type": _positive_int, "default": 6,
                         "help": "depth of the certified report for "
                                 "polynomial ideals"}),)),
    Command("covolume", "covolume of a region", _covolume),
    Command("newton", "Newton region facets and diagram", _newton),
    Command("mixed", "mixed multiplicity of n monomial ideals", _mixed),
    Command("hilbert-samuel", "H(k) = dim R/a^k", _hilbert_samuel,
            (("--kmax", {"type": _positive_int, "default": 8}),)),
    Command("initial-ideal", "staircase of in(a^k)", _initial_ideal,
            (("--k", {"type": _positive_int, "default": 1}),)),
    Command("lech", "e(a) <= e(in(a)) <= n! dim(R/a)", _lech),
    Command("bk", "local Bernstein-Kushnirenko report", _bk),
    Command("verify", "run a seeded verification suite", _verify,
            (("--suite", {"choices": sorted(SUITES), "required": True}),
             ("--count", {"type": _positive_int, "default": 100}),
             ("--seed", {"type": int, "default": 1}),
             ("--dim", {"type": _positive_int, "default": 2}),
             ("--exponent-bound", {"type": _positive_int, "default": 6})),
            reads_input=False),
)


def _add_arguments(parser, command: Command) -> argparse.ArgumentParser:
    if command.reads_input:
        parser.add_argument("--input", required=True, help="JSON input file")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--output", help="write to this file instead of stdout")
    for flag, options in command.arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(func=command.handler, command=command.name)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coconvex",
        description="Exact multiplicities of ideals via Newton regions "
                    "and covolumes")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        _add_arguments(sub.add_parser(command.name, help=command.help), command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extras = None, ()
    for command in COMMANDS:
        if argv[:1] == [command.name]:
            parser = argparse.ArgumentParser(prog=f"coconvex {command.name}")
            args, extras = _add_arguments(parser, command).parse_known_args(argv[1:])
    if args is None or extras:
        args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
        if isinstance(result, int):  # verify wrote its own report
            return result
        _emit(result, args)
        return 0
    except InputFormatError as exc:
        message = f"input error: {exc}"
    except CoconvexError as exc:
        message = f"error: {type(exc).__name__}: {exc}"
    except (ValueError, OSError) as exc:
        message = f"error: {exc}"
    print(message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
