"""Command-line front end.

Subcommands: ``solve`` (run a solver and write a schedule file), ``verify``
(re-check a schedule file against a problem file), ``render`` (draw a
schedule as SVG), and ``oracle`` (brute-force a tiny instance).  Exit codes:
0 success / feasible, 1 infeasible schedule (verify), 2 malformed input,
3 unsupported abandonment limit (solve) or exhausted budget (oracle), 4 a
failed internal check (a ``ContractError`` from solve or oracle).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .model import (
    ContractError,
    ProblemInstance,
    _arrivals,
    _violations,
    abandonment_vector,
    completion_profile,
)
from .bs import solve_bs
from .normalize import _is_standard_form
from .oracle import BudgetExceededError, EnumerationBudget, brute_force_bs, brute_force_rbs
from .rational import format_fraction
from .rbs import UnsupportedAbandonmentError, solve_rbs
from .render import schedule_svg
from .serialize import (
    dump_schedule,
    load_problem,
    load_schedule,
    schedule_payload,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


def _load_problem_or_fail(path: str, mode_flag: Optional[str], abandon_flag: Optional[int]):
    inst, mode = load_problem(path)
    if mode_flag is not None:
        mode = mode_flag
    if abandon_flag is not None:
        inst = ProblemInstance(inst.agents, inst.inverse_speeds, abandon_flag)
    if mode == "bs":
        inst = ProblemInstance(inst.agents, inst.inverse_speeds, 0)
    return inst, mode


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        inst, mode = _load_problem_or_fail(args.infile, args.mode, args.abandon)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if mode == "bs":
            sched, cert = solve_bs(inst)
            usage = abandonment_vector(sched, inst)
            abandoned: tuple = ()
        else:
            solution = solve_rbs(inst)
            sched, cert = solution.schedule, solution.certificate
            usage, abandoned = solution.abandonment, solution.abandoned
    except UnsupportedAbandonmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ContractError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    profile = completion_profile(sched, inst)
    payload = schedule_payload(sched, profile, cert, usage, tuple(abandoned))
    try:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(dump_schedule(payload))
    except OSError as exc:
        print(f"error: cannot write {args.outfile}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"makespan {format_fraction(profile.makespan)} (tight bound: {cert.tight})")
    for bike, pos in abandoned:
        print(f"bike {bike} abandoned at {format_fraction(pos)}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        inst, _mode = load_problem(args.problem)
        sched = load_schedule(args.schedule)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if sched.length != 1:
        print(
            f"error: partition sums to {format_fraction(sched.length)}; "
            "a schedule must cover [0, 1]",
            file=sys.stderr,
        )
        return EXIT_PARSE
    try:
        partial, den = _arrivals(sched, inst)  # read by every check below
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    violations = _violations(sched.matrix, partial)
    if violations:
        for v in violations:
            print(f"violation of condition {v.condition} at agent {v.agent}, column {v.column}")
        return EXIT_INFEASIBLE
    makespan = Fraction(max([row[-1] for row in partial]), den)
    print(f"feasible; makespan {format_fraction(makespan)}")
    if not _is_standard_form(sched, partial):
        print("note: schedule is not in standard form")
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    try:
        sched = load_schedule(args.schedule)
        svg = schedule_svg(sched)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"error: cannot write {args.outfile}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"wrote {args.outfile}")
    return EXIT_OK


def _budget_from_env() -> EnumerationBudget:
    def _get(name: str, default: Optional[int]) -> Optional[int]:
        raw = os.environ.get(name)
        return default if raw is None else int(raw)

    return EnumerationBudget(
        max_agents=_get("BIKESCHED_ORACLE_MAX_AGENTS", 4),
        max_bikes=_get("BIKESCHED_ORACLE_MAX_BIKES", 3),
        max_columns=_get("BIKESCHED_ORACLE_MAX_COLUMNS", None),
    )


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        inst, mode = _load_problem_or_fail(args.infile, args.mode, args.abandon)
        budget = _budget_from_env()
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if mode == "bs":
            tau, _sched = brute_force_bs(inst, budget)
            print(f"optimal makespan {format_fraction(tau)}")
        else:
            tau, _sched, usage = brute_force_rbs(inst, budget)
            print(f"optimal makespan {format_fraction(tau)}")
            for bike, y in enumerate(usage, start=1):
                if y < 1:
                    print(f"bike {bike} abandoned at {format_fraction(y)}")
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ContractError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bikesched",
        description="Exact schedules for agents sharing bikes across the unit interval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("--in", dest="infile", required=True)
    p_solve.add_argument("--out", dest="outfile", required=True)
    p_solve.add_argument("--mode", choices=("bs", "rbs"), default=None)
    p_solve.add_argument("--abandon", type=int, default=None, metavar="L")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a schedule against a problem")
    p_verify.add_argument("--schedule", required=True)
    p_verify.add_argument("--problem", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_render = sub.add_parser("render", help="draw a schedule as SVG")
    p_render.add_argument("--schedule", required=True)
    p_render.add_argument("--out", dest="outfile", required=True)
    p_render.set_defaults(func=_cmd_render)

    p_oracle = sub.add_parser("oracle", help="brute-force a tiny instance")
    p_oracle.add_argument("--in", dest="infile", required=True)
    p_oracle.add_argument("--mode", choices=("bs", "rbs"), default=None)
    p_oracle.add_argument("--abandon", type=int, default=None, metavar="L")
    p_oracle.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
