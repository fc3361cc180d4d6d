"""Command line entry point.

Exit codes: 0 when every task passes, 1 when any task fails, 2 for invalid
scenarios or configurations, 3 for numerical breakdowns and unexpected
errors.
"""
from __future__ import annotations

import argparse
import sys

from . import defaults
from .errors import NumericalError, ScenarioError
from .scenario import (builtin_scenarios, emit_json, emit_text, load_scenario,
                       parse_scenario, run_scenario)


def _add_run_flags(parser):
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default json)")
    parser.add_argument("--grid", type=int, default=None,
                        help="override the lattice density of gridded tasks")
    parser.add_argument("--degree", type=int, default=None,
                        help="override the ansatz degree for solver tasks")
    parser.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override a named tolerance (repeatable)")
    parser.add_argument("--task", default=None,
                        help="run only tasks with this name or label")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spencerkit",
        description="verification toolkit for almost complex structures on "
                    "coordinate boxes")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    _add_run_flags(run_p)
    builtin_p = sub.add_parser("builtin", help="run a bundled scenario")
    builtin_p.add_argument("name", help="builtin scenario name")
    _add_run_flags(builtin_p)
    sub.add_parser("version", help="print the toolkit version")
    return parser


def _parse_tols(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ScenarioError(f"--tol takes NAME=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError as exc:
            raise ScenarioError(f"bad tolerance value in {pair!r}: {exc}") from exc
    return out


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "version":
        print(defaults.TOOLKIT_VERSION)
        return 0
    try:
        if args.command == "run":
            scenario = load_scenario(args.scenario)
        else:
            catalog = builtin_scenarios()
            if args.name not in catalog:
                raise ScenarioError(
                    f"unknown builtin {args.name!r}; available: "
                    f"{', '.join(sorted(catalog))}")
            scenario = parse_scenario(catalog[args.name])
        result = run_scenario(scenario,
                              tol_overrides=_parse_tols(args.tol),
                              grid_override=args.grid,
                              degree_override=args.degree,
                              task_filter=args.task)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort taxonomy
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        sys.stdout.write(emit_json(result))
    else:
        sys.stdout.write(emit_text(result))
    return 0 if result.overall == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
