"""JSON problem and schedule files.

Rationals are serialized as "p/q" strings: JSON numbers cannot carry
exactness.  Speeds in problem files are the bike speeds v > 1 (not inverse);
decimal strings are read as exact decimal fractions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional

from .model import (
    BoundCertificate,
    CompletionProfile,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
)
from .rational import format_fraction, to_fraction

MODES = ("bs", "rbs")


def parse_problem(data: Any) -> tuple[ProblemInstance, str]:
    """Validate a problem dict into an instance and a mode ("bs" or "rbs")."""
    if not isinstance(data, dict):
        raise ValueError("problem file must be a JSON object")
    try:
        agents = data["agents"]
        speeds = data["speeds"]
    except KeyError as exc:
        raise ValueError(f"problem file missing field {exc}") from exc
    if type(agents) is not int:
        raise ValueError(f"field 'agents' must be an integer, got {agents!r}")
    if not isinstance(speeds, list):
        raise ValueError("field 'speeds' must be a list")
    mode = data.get("mode", "bs")
    if mode not in MODES:
        raise ValueError(f"field 'mode' must be one of {MODES}, got {mode!r}")
    inverse = []
    for idx, s in enumerate(speeds):
        v = to_fraction(s)
        if v <= 1:
            raise ValueError(f"speeds[{idx}] = {s!r}: bike speeds must exceed 1")
        inverse.append(1 / v)
    limit = data.get("abandonment_limit")
    if limit is None:
        limit = 1 if mode == "rbs" else 0
    if type(limit) is not int or limit < 0:
        raise ValueError(
            f"field 'abandonment_limit' must be a non-negative integer, got {limit!r}"
        )
    inst = ProblemInstance(agents, tuple(inverse), abandonment_limit=limit)
    return inst, mode


def load_problem(path: str) -> tuple[ProblemInstance, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(json.load(fh))


def schedule_payload(
    sched: Schedule,
    profile: Optional[CompletionProfile] = None,
    certificate: Optional[BoundCertificate] = None,
    abandonment: Optional[tuple[Fraction, ...]] = None,
    abandoned: Optional[tuple[tuple[int, Fraction], ...]] = None,
) -> dict:
    payload: dict[str, Any] = {
        "partition": [format_fraction(x) for x in sched.partition],
        "matrix": [list(row) for row in sched.matrix.rows],
        "waits": None
        if sched.waits is None
        else [[format_fraction(w) for w in row] for row in sched.waits],
    }
    if profile is not None:
        payload["completion"] = [format_fraction(t) for t in profile.final]
        payload["makespan"] = format_fraction(profile.makespan)
    if certificate is not None:
        payload["certificate"] = {
            "average": format_fraction(certificate.average),
            "slowest": None
            if certificate.slowest is None
            else format_fraction(certificate.slowest),
            "one_abandoned": None
            if certificate.one_abandoned is None
            else format_fraction(certificate.one_abandoned),
            "tight": certificate.tight,
        }
    if abandonment is not None:
        payload["abandonment"] = {
            "usage": [format_fraction(y) for y in abandonment],
            "abandoned": [
                [bike, format_fraction(pos)] for bike, pos in (abandoned or ())
            ],
        }
    return payload


def dump_schedule(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def parse_schedule(data: Any) -> Schedule:
    """Check a schedule dict's shape; ``Schedule`` and ``ScheduleMatrix``
    convert and check every entry (exact rationals, integer labels)."""
    if not isinstance(data, dict):
        raise ValueError("schedule file must be a JSON object")
    try:
        partition = data["partition"]
        matrix = data["matrix"]
    except KeyError as exc:
        raise ValueError(f"schedule file missing field {exc}") from exc
    waits = data.get("waits")
    if not isinstance(partition, list) or not isinstance(matrix, list):
        raise ValueError("fields 'partition' and 'matrix' must be lists")
    if waits is not None and not isinstance(waits, list):
        raise ValueError("field 'waits' must be a list or null")
    if not all(isinstance(row, list) for row in matrix + (waits or [])):
        raise ValueError("matrix and waits rows must be lists")
    return Schedule(partition, ScheduleMatrix(matrix), waits)


def load_schedule(path: str) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schedule(json.load(fh))
