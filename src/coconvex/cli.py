"""Command-line interface.

Subcommands read JSON files (see jsonio for the schemas) and write JSON or
a plain table.  Exit codes: 0 success, 1 an inequality suite found a
violation, 2 malformed input or validation failure.  Reports are
byte-deterministic for fixed seed and flags; timing goes to stderr only.
The environment variable COCONVEX_OUTPUT_DIR supplies a default directory
for relative --output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CoconvexError, InputFormatError
from .jsonio import (any_ideal_from_json, frac_str, monomial_ideal_from_json,
                     poly_ideal_from_json, region_from_json,
                     semigroup_ideal_to_json, region_to_json)
from .localalg import (MonomialIdealLocal, bk_report, colength, hilbert_samuel,
                       initial_semigroup_ideal, lech_chain, mixed_multiplicity,
                       multiplicity, multiplicity_report)
from .polytopes import RationalPolytope
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


def _render_table(data, indent: str = "") -> str:
    lines = []
    if isinstance(data, dict):
        width = max((len(str(k)) for k in data), default=0)
        for key, value in data.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_render_table(value, indent + "  "))
            else:
                lines.append(f"{indent}{str(key).ljust(width)}  {value}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)):
                lines.append(_render_table(value, indent + "  "))
            else:
                lines.append(f"{indent}- {value}")
    else:
        lines.append(f"{indent}{data}")
    return "\n".join(line for line in lines if line)


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
        text = _render_table(payload)
    _write(text, args.output)


def _vertices_list(poly: RationalPolytope):
    return [[frac_str(x) for x in v] for v in poly.vertices]


def _cmd_multiplicity(args) -> int:
    ideal = any_ideal_from_json(_load_json(args.input))
    if isinstance(ideal, MonomialIdealLocal):
        _emit({"e": multiplicity(ideal)}, args)
        return 0
    report = multiplicity_report(ideal, args.kmax)
    _emit({
        "e_upper": frac_str(report.e_upper),
        "e_exact": frac_str(report.e_fit) if report.e_fit is not None else None,
        "fit_stabilized": report.fit_stabilized,
        "u_sequence": [frac_str(u) for u in report.u_values],
        "hilbert_samuel": list(report.hilbert_values),
    }, args)
    return 0


def _cmd_covolume(args) -> int:
    region = region_from_json(_load_json(args.input))
    _emit({"covol": frac_str(covol(region)),
           "threshold": frac_str(region.threshold)}, args)
    return 0


def _region_from_any(data):
    if isinstance(data, dict) and "ell" in data and "generators" in data:
        return region_from_json(data)
    ideal = monomial_ideal_from_json(data)
    return staircase_region(ideal.staircase)


def _cmd_newton(args) -> int:
    region = _region_from_any(_load_json(args.input))
    faces = newton_diagram(region)
    _emit({
        "region": region_to_json(region),
        "facets": [{"normal": list(u), "offset": frac_str(c)}
                   for u, c in region.facets],
        "diagram": [_vertices_list(face) for face in faces],
    }, args)
    return 0


def _ideal_list(data):
    if not isinstance(data, dict) or not isinstance(data.get("ideals"), list):
        raise InputFormatError('expected {"ideals": [...]}')
    if not data["ideals"]:
        raise InputFormatError("need at least one ideal")
    return [monomial_ideal_from_json(entry) for entry in data["ideals"]]


def _cmd_mixed(args) -> int:
    ideals = _ideal_list(_load_json(args.input))
    _emit({"mixed_multiplicity": mixed_multiplicity(ideals)}, args)
    return 0


def _cmd_hilbert_samuel(args) -> int:
    ideal = any_ideal_from_json(_load_json(args.input))
    _emit({"H": hilbert_samuel(ideal, args.kmax)}, args)
    return 0


def _cmd_initial_ideal(args) -> int:
    ideal = poly_ideal_from_json(_load_json(args.input))
    staircase = initial_semigroup_ideal(ideal, args.k)
    _emit(semigroup_ideal_to_json(staircase), args)
    return 0


def _cmd_lech(args) -> int:
    ideal = any_ideal_from_json(_load_json(args.input))
    chain = lech_chain(ideal)
    _emit({
        "e_upper": frac_str(chain.e_upper),
        "e_in": chain.e_in,
        "bound": chain.bound,
        "colength": colength(ideal),
        "holds": chain.holds,
    }, args)
    return 0


def _cmd_bk(args) -> int:
    ideals = _ideal_list(_load_json(args.input))
    report = bk_report(ideals)
    _emit({
        "intersection_multiplicity": report.intersection_multiplicity,
        "dimension": report.dimension,
        "statement": report.statement,
    }, args)
    return 0


def _cmd_verify(args) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coconvex",
        description="Exact multiplicities of ideals via Newton regions "
                    "and covolumes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="JSON input file")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("multiplicity", help="Samuel multiplicity of an ideal")
    common(p)
    p.add_argument("--kmax", type=_positive_int, default=6,
                   help="depth of the certified report for polynomial ideals")
    p.set_defaults(func=_cmd_multiplicity)

    p = sub.add_parser("covolume", help="covolume of a region")
    common(p)
    p.set_defaults(func=_cmd_covolume)

    p = sub.add_parser("newton", help="Newton region facets and diagram")
    common(p)
    p.set_defaults(func=_cmd_newton)

    p = sub.add_parser("mixed", help="mixed multiplicity of n monomial ideals")
    common(p)
    p.set_defaults(func=_cmd_mixed)

    p = sub.add_parser("hilbert-samuel", help="H(k) = dim R/a^k")
    common(p)
    p.add_argument("--kmax", type=_positive_int, default=8)
    p.set_defaults(func=_cmd_hilbert_samuel)

    p = sub.add_parser("initial-ideal", help="staircase of in(a^k)")
    common(p)
    p.add_argument("--k", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_initial_ideal)

    p = sub.add_parser("lech", help="e(a) <= e(in(a)) <= n! dim(R/a)")
    common(p)
    p.set_defaults(func=_cmd_lech)

    p = sub.add_parser("bk", help="local Bernstein-Kushnirenko report")
    common(p)
    p.set_defaults(func=_cmd_bk)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    common(p, needs_input=False)
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--dim", type=_positive_int, default=2)
    p.add_argument("--exponent-bound", type=_positive_int, default=6)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CoconvexError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
