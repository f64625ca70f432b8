"""Command-line entry point: run or validate a scenario file.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import HarmtomoError, ScenarioValidationError
from .runner import run_preset
from .scenarios import load_scenario, validate_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _cmd_run(args) -> int:
    try:
        sc = load_scenario(args.scenario)
        manifest = run_preset(sc, out_dir=args.out, seed=args.seed)
    except ScenarioValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except HarmtomoError as exc:
        print(f"numerical failure in preset {sc.preset!r}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    summary = {k: v for k, v in manifest.items() if k != "scenario"}
    print(json.dumps(summary, indent=1, sort_keys=True))
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        violations = validate_scenario(load_scenario(args.scenario))
        if violations:
            raise ScenarioValidationError(violations)
    except ScenarioValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    print("scenario ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="harmtomo",
                                description="Frequency-domain two-coefficient identification experiments.")
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario file and write its artifacts")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default=None, help="override the output directory")
    run.set_defaults(func=_cmd_run)
    val = sub.add_parser("validate", help="check a scenario file without computing")
    val.add_argument("scenario", help="path to a scenario JSON file")
    val.set_defaults(func=_cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
