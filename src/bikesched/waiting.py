"""Elimination of waiting time from schedules.

A schedule may carry a waiting matrix: agent i crosses sub-interval j, then
idles for waits[i][j] before moving on.  (Moving slower than full speed is
the same thing: ride at full speed, then wait out the difference.)  Waiting
never helps, and this module makes that constructive: any single positive
wait can be shrunk without breaking a handover or increasing the makespan,
and repeating the shrink drives every wait to zero.

The only obstruction to deleting a wait outright is a *future* pickup by the
same agent: arriving earlier at a handover point than the previous rider
would be infeasible.  In standard form every handover has strictly positive
slack, so some positive shrink is always legal; when the shrink is capped by
a slack, that handover becomes an equal-time swap-switch and the next
standardization pass removes it entirely.
"""

from __future__ import annotations

from .model import (
    ContractError,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    check_feasible,
    completion_profile,
    handovers,
    structural_violations,
)
from .normalize import is_standard_form, standardize


def switch_matrix(matrix: ScheduleMatrix) -> tuple[tuple[int, ...], ...]:
    """For every pickup, who dropped the bike.

    Entry (i, j) is the 1-based index of the agent that rode bike
    ``matrix[i][j]`` in column j-1 when agent i takes it over at column j,
    and 0 when agent i is not picking up (walking, continuing, or j = 0).
    """
    broken = structural_violations(matrix)
    if broken:
        raise ValueError(f"no partition makes this matrix feasible: {broken}")
    out = [[0] * matrix.size for _ in range(matrix.agents)]
    for picker, dropper, col in handovers(matrix):
        out[picker][col] = dropper + 1
    return tuple(map(tuple, out))


def remove_one_wait(
    s: Schedule, inst: ProblemInstance, agent: int, column: int
) -> Schedule:
    """Shrink the wait at (agent, column) by the largest provably safe amount.

    The shrink d is the smaller of the wait itself and the agent's tightest
    slack at any of its own pickups whose handover time the shrink actually
    moves -- those at columns strictly after the wait; the pickup *at* the
    wait's own column compares arrival times from before it and cannot be
    endangered.  Earlier arrival elsewhere only helps.  Requires a feasible
    schedule in standard form (which guarantees d > 0) and a strictly
    positive target entry.  Indices are 0-based.
    """
    if s.waits is None or s.waits[agent][column] == 0:
        raise ValueError(f"no positive wait at agent {agent}, column {column}")
    profile = completion_profile(s, inst)
    if not is_standard_form(s, inst, profile):
        raise ValueError("wait removal requires a schedule in standard form")
    switches = switch_matrix(s.matrix)
    d = s.waits[agent][column]
    for j in range(column + 1, s.size):
        dropper = switches[agent][j]
        if dropper != 0:
            d = min(d, profile.partial[agent][j - 1] - profile.partial[dropper - 1][j - 1])
    if d <= 0:
        raise ContractError(f"no safe shrink of the wait at ({agent}, {column})")
    waits = [list(row) for row in s.waits]
    waits[agent][column] -= d
    result = Schedule(s.partition, s.matrix, tuple([tuple(r) for r in waits]))
    if not check_feasible(result, inst):
        raise ContractError("wait shrink broke feasibility")
    return result


def remove_all_waits(s: Schedule, inst: ProblemInstance) -> Schedule:
    """Drive every wait to zero without increasing the makespan.

    Alternates standardization with single-wait shrinks, always targeting the
    first positive wait in row-major order.  Each round either zeroes a wait
    or spends a handover slack that the next standardization converts into a
    swap-switch removal, so the loop terminates; a generous iteration cap
    guards the corner cases.  A schedule with no waits is returned unchanged.
    """
    if s.waits is None or all(w == 0 for row in s.waits for w in row):
        return s
    report = check_feasible(s, inst)
    if not report.ok:
        raise ValueError(f"cannot remove waits from an infeasible schedule: {report.violations}")
    before = completion_profile(s, inst).makespan
    positives = sum(1 for row in s.waits for w in row if w != 0)
    cap = 2 * (positives + len(handovers(s.matrix)) + s.size) + 16
    current = s
    for _ in range(cap):
        current, _ = standardize(current, inst)
        target = next(
            (
                (i, j)
                for i in range(current.agents)
                for j in range(current.size)
                if current.wait(i, j) != 0
            ),
            None,
        )
        if target is None:
            break
        current = remove_one_wait(current, inst, *target)
    else:
        raise ContractError("wait removal did not terminate within its cap")
    if completion_profile(current, inst).makespan > before:
        raise ContractError("wait removal increased the makespan")
    return current.without_waits()
