"""Schedule hygiene: standard form and size reduction.

A feasible schedule is in *standard form* when it has no zero-length columns,
no two consecutive identical columns, and no handover happening at exactly
equal arrival times (a "swap-switch", removable by swapping the two agents'
remaining schedules).  ``standardize`` rewrites any feasible wait-free
schedule into standard form without changing any agent's completion time
(``waiting.remove_all_waits`` is the one path for waits); ``reduce_schedule``
alternates it with slides of the partition to an LP vertex until the schedule
is in standard form, which forces its size down to at most the number of
agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lp import build_lp, solve_partition, vertex_from_point
from .model import (
    ZERO,
    CompletionProfile,
    ContractError,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    check_feasible,
    completion_profile,
    handovers,
    pickups,
)


@dataclass(frozen=True)
class StandardFormReport:
    zero_columns_removed: int
    redundant_columns_merged: int
    swap_switches_resolved: int


def standardize(
    s: Schedule, inst: ProblemInstance
) -> tuple[Schedule, StandardFormReport]:
    """Rewrite a feasible wait-free schedule into standard form.

    Zero-length columns are deleted, consecutive identical columns merged
    (interval lengths summed), and equal-time handovers eliminated by swapping
    the two agents' row suffixes.  Completion times are preserved exactly.
    A schedule with a positive wait is rejected with ``ValueError``
    (``waiting.remove_all_waits`` drains waits first).  Each handover of the
    result is checked as it is written, and ``ContractError`` raised if the
    pickup comes before the dropper arrives.
    """
    if s.waits is not None and any(w != 0 for row in s.waits for w in row):
        raise ValueError("cannot standardize a schedule with waits")
    report = check_feasible(s, inst)
    if not report.ok:
        raise ValueError(f"cannot standardize an infeasible schedule: {report.violations}")

    m, n = s.agents, s.size
    labels = [list(row) for row in s.matrix.rows]

    out_cols: list[tuple[int, ...]] = []
    out_x: list[Fraction] = []
    reach = [ZERO] * m  # completion time through the columns processed so far
    zero_removed = merged = swaps = 0

    for j in range(n):
        if s.partition[j] == 0:
            zero_removed += 1
            continue
        # Resolve swap-switches against the last kept column before deciding
        # whether this column is redundant.  A swap gives the dropper's row
        # the bike it already rode and changes no other row above the
        # picker, so each rescan resumes at the picker's row.
        column = tuple([row[j] for row in labels])
        while out_cols:
            ties = []
            for picker, dropper in pickups(out_cols[-1], column):
                if reach[picker] < reach[dropper]:
                    raise ContractError(f"standardizing made agent {picker + 1} pick up early")
                if reach[picker] == reach[dropper]:
                    ties.append((picker, dropper))
            if not ties:
                break
            swaps += 1
            picker, dropper = ties[0]
            labels[picker][j:], labels[dropper][j:] = labels[dropper][j:], labels[picker][j:]
            column = tuple([row[j] for row in labels])
        if out_cols and column == out_cols[-1]:
            merged += 1
            out_x[-1] += s.partition[j]
        else:
            out_cols.append(column)
            out_x.append(s.partition[j])
        for i in range(m):
            reach[i] += inst.speed_of(labels[i][j]) * s.partition[j]

    if not out_cols:
        # Degenerate zero-length schedule: keep one column so the shape stays valid.
        out_cols = [s.matrix.column(0)]
        out_x = [ZERO]

    rows = tuple([tuple([col[i] for col in out_cols]) for i in range(m)])
    result = Schedule(tuple(out_x), ScheduleMatrix(rows))
    return result, StandardFormReport(zero_removed, merged, swaps)


def is_standard_form(
    s: Schedule, inst: ProblemInstance, profile: Optional[CompletionProfile] = None
) -> bool:
    """True when a feasible schedule has no zero columns, no consecutive
    identical columns, and strictly earlier dropper arrival at every handover.
    ``profile``, when given, is the schedule's own completion profile."""
    if any(x == 0 for x in s.partition):
        return False
    cols = s.matrix.columns()
    for j in range(1, s.size):
        if cols[j] == cols[j - 1]:
            return False
    partial = (profile or completion_profile(s, inst)).partial
    return all(
        partial[picker][col - 1] != partial[dropper][col - 1]
        for picker, dropper, col in handovers(s.matrix)
    )


def reduce_schedule(
    matrix: ScheduleMatrix,
    inst: ProblemInstance,
    initial: Optional[tuple[Fraction, ...]] = None,
) -> Schedule:
    """Shrink a matrix to an equally good schedule of size <= agent count.

    Alternates standardization with sliding the partition to a vertex of
    equal or better makespan (``vertex_from_point``) until the pair is in
    standard form.  At a vertex, a schedule larger than the agent count
    always has a zero column or an equal-time handover, so each round
    strictly shrinks either the size or the handover count; the loop
    terminates, in standard form, at size <= agents, never increasing the
    makespan.

    ``initial`` is a feasible partition the caller already knows to be
    optimal for the matrix (the solvers build such partitions directly).
    Without it the partition comes from one exact LP solve; every later
    round only slides to a vertex, which is all the size argument needs.
    """
    if initial is None:
        initial, _ = solve_partition(matrix, inst)
    sched, _ = standardize(Schedule(tuple(initial), matrix), inst)
    matrix = sched.matrix
    best_tau = completion_profile(sched, inst).makespan
    prev_measure = None
    while True:
        # At a vertex some agent row is tight, so tau is the makespan, and
        # standardize keeps every completion time: best_tau stays the
        # makespan of the schedule that the next round slides.
        x, tau = vertex_from_point(build_lp(matrix, inst), sched.partition, best_tau)
        if tau > best_tau:
            raise ContractError("reduction increased the makespan")
        best_tau = tau
        sched = Schedule(x, matrix)
        if is_standard_form(sched, inst):
            if sched.size > inst.agents:
                raise ContractError(
                    f"reduced schedule has size {sched.size} > {inst.agents} agents"
                )
            return sched
        measure = (matrix.size, len(handovers(matrix)))
        if prev_measure is not None and measure >= prev_measure:
            raise ContractError("reduction stopped making progress")
        prev_measure = measure
        sched, _ = standardize(sched, inst)
        matrix = sched.matrix
