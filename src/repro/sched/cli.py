"""``python -m repro.sched`` — explore, replay, and list schedules.

Subcommands:

``explore``
    Run N schedules of a strategy against one or more scenarios, check
    the oracles, shrink any violation, and write one artifact JSON per
    violating schedule to ``--out``.  Exit 1 iff any oracle failed.

``replay``
    Re-execute a saved artifact bit-for-bit and re-run its scenario's
    oracles.  Exit 1 on digest mismatch or if the recorded failures
    still fire (so a fixed bug's artifact doubles as a regression gate).

``list``
    Show registered scenarios, strategies, and oracles.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.sched.explorer import (
    Explorer,
    ReplayMismatchError,
    load_artifact,
    replay_artifact,
    save_artifact,
)
from repro.sched.oracles import ORACLES, build_oracles, run_oracles
from repro.sched.scenarios import SCENARIOS, make_scenario
from repro.sched.tiebreak import STRATEGIES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sched",
        description="seeded same-tick schedule exploration "
                    "(docs/EXPLORATION.md)")
    sub = parser.add_subparsers(dest="command", required=True)

    explore = sub.add_parser(
        "explore", help="run N schedules per scenario and check oracles")
    explore.add_argument(
        "--scenario", action="append", dest="scenarios",
        choices=sorted(SCENARIOS), metavar="NAME",
        help=f"scenario to explore (repeatable; one of {sorted(SCENARIOS)};"
             " default: all of them)")
    explore.add_argument("--schedules", type=int, default=25,
                         help="schedules per scenario (default 25)")
    explore.add_argument("--seed", type=int, default=42,
                         help="root exploration seed (default 42)")
    explore.add_argument(
        "--strategy", default="random",
        choices=sorted(STRATEGIES) + ["enumerate"],
        help="tie-break strategy (default random)")
    explore.add_argument("--out", type=Path, default=None,
                         help="directory for violation artifacts "
                              "(default: no artifacts written)")
    explore.add_argument("--no-shrink", action="store_true",
                         help="keep full-length violating schedules")

    replay = sub.add_parser(
        "replay", help="re-execute a saved schedule artifact")
    replay.add_argument("artifact", type=Path, nargs="+",
                        help="artifact JSON file(s) to replay")

    sub.add_parser("list", help="show scenarios, strategies, and oracles")
    return parser


def _cmd_explore(args) -> int:
    names = args.scenarios or sorted(SCENARIOS)
    exit_code = 0
    for name in names:
        scenario = make_scenario(name)
        explorer = Explorer(scenario, seed=args.seed)
        result = explorer.explore(
            schedules=args.schedules, strategy=args.strategy,
            shrink_violations=not args.no_shrink)
        print(json.dumps(result.summary(), sort_keys=True))
        for report in result.violations:
            exit_code = 1
            schedule = (report.shrunk if report.shrunk is not None
                        else report.decisions)
            print(f"  VIOLATION {report.schedule_id}: "
                  f"{sorted(report.failures)} "
                  f"schedule={schedule}", file=sys.stderr)
            if args.out is not None:
                artifact = explorer.artifact(report)
                path = args.out / f"{report.schedule_id.replace(':', '-')}.json"
                save_artifact(artifact, path)
                print(f"  artifact written: {path}", file=sys.stderr)
    return exit_code


def _cmd_replay(args) -> int:
    exit_code = 0
    for path in args.artifact:
        artifact = load_artifact(path)
        scenario = make_scenario(artifact["scenario"])
        try:
            outcome = replay_artifact(artifact, scenario)
        except ReplayMismatchError as exc:
            print(f"{path}: REPLAY MISMATCH: {exc}", file=sys.stderr)
            exit_code = 1
            continue
        failures = run_oracles(build_oracles(scenario.oracles), outcome)
        status = "CLEAN" if not failures else f"FAILING {sorted(failures)}"
        print(f"{path}: digest {outcome.digest[:16]}... reproduced; "
              f"oracles {status}")
        if failures:
            exit_code = 1
    return exit_code


def _cmd_list() -> int:
    listing = {
        "scenarios": {
            name: {"title": cls.title, "neutral": cls.neutral,
                   "oracles": list(cls.oracles)}
            for name, cls in sorted(SCENARIOS.items())
        },
        "strategies": sorted(STRATEGIES) + ["enumerate"],
        "oracles": sorted(ORACLES),
    }
    print(json.dumps(listing, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "explore":
        return _cmd_explore(args)
    if args.command == "replay":
        return _cmd_replay(args)
    return _cmd_list()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
