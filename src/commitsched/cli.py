"""Command line front end.

    commitsched run <scenario> [--policy fcfs|priority] [--golden FILE]
    commitsched check <scenario>
    commitsched demo
    commitsched oracle [size]

``run`` prints the trace to stdout; with --golden it compares against a
frozen trace and exits 1 on mismatch. ``oracle`` runs the scheduler on
every instance of up to ``size`` (default 4, from 1 to
``oracle.MAX_INSTANCE``) commitments, over each slot set of
``equivalence.SLOT_SETS``, and checks every state it reaches against the
oracle's admission and drain predicates; it exits 1 on any fault. Parse
and runtime errors, and an oracle size out of range, exit 2.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path

from .errors import EngineError
from .oracle import MAX_INSTANCE
from .scenario import parse
from .scheduler import Policy
from .scenarios import load_text
from .simulator import run

_POLICIES = {p.value: p for p in Policy}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="commitsched",
        description="Deterministic commitment scheduling and scenario simulation.",
    )
    sub = top.add_subparsers(
        dest="command", required=True, metavar="{run,check,demo,oracle}"
    )

    p_run = sub.add_parser("run", help="execute a scenario and print its trace")
    p_run.add_argument("scenario", help="path to a .scn scenario file")
    p_run.add_argument(
        "--policy", choices=sorted(_POLICIES), help="override the service policy"
    )
    p_run.add_argument(
        "--golden", metavar="FILE", help="compare the trace against a frozen file"
    )

    p_check = sub.add_parser("check", help="parse a scenario without running it")
    p_check.add_argument("scenario", help="path to a .scn scenario file")

    sub.add_parser("demo", help="emit the bundled four-network scenario")

    p_oracle = sub.add_parser(
        "oracle",
        help="check every state of the scheduler on every small instance against "
        "the specification's predicates; exits 1 on any fault",
    )
    p_oracle.add_argument(
        "size", type=int, nargs="?", default=4, choices=range(1, MAX_INSTANCE + 1),
        metavar="size",
        help=f"largest instance, in commitments, 1 to {MAX_INSTANCE} (default 4)",
    )

    return top


def _load(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse(text, source=path)


def _cmd_run(args) -> int:
    scenario = _load(args.scenario)
    override = _POLICIES[args.policy] if args.policy else None
    result = run(scenario, policy_override=override)
    text = result.trace.text()
    sys.stdout.write(text)
    if args.golden:
        golden = Path(args.golden).read_text(encoding="utf-8")
        if text != golden:
            diff = difflib.unified_diff(
                golden.splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=args.golden,
                tofile="trace",
            )
            sys.stderr.writelines(diff)
            return 1
    return 0


def _cmd_check(args) -> int:
    scenario = _load(args.scenario)
    print(f"ok: {len(scenario.commands)} command(s)")
    return 0


def _cmd_demo(_args) -> int:
    sys.stdout.write(load_text("four-network-demo"))
    return 0


def _cmd_oracle(args) -> int:
    from .equivalence import SLOT_SETS, run_grid

    faults, runs = [], 0
    for name, slots in SLOT_SETS.items():
        report = run_grid(args.size, slots)
        print(
            f"{name}: combinations={report.combinations} runs={report.runs} "
            f"states={report.states}"
        )
        runs += report.runs
        faults += report.faults
    print(f"pass={runs - len(faults)} fail={len(faults)}")
    for line in faults[:20]:
        print(f"  {line}")
    return 1 if faults else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "check": _cmd_check,
        "demo": _cmd_demo,
        "oracle": _cmd_oracle,
    }[args.command]
    try:
        return handler(args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
