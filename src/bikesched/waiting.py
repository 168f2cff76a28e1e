"""Elimination of waiting time from schedules.

A schedule may carry a waiting matrix: agent i crosses sub-interval j, then
idles for waits[i][j] before moving on.  (Moving slower than full speed is
the same thing: ride at full speed, then wait out the difference.)  Waiting
never helps, and ``remove_all_waits`` makes that constructive in one
left-to-right sweep.

Drop every wait, then walk the columns keeping each row's wait-free arrival
``reach`` at the end of the previous column.  At column j, while some
handover has the picker arriving before the dropper, swap the two rows'
label suffixes from column j on: the dropper keeps its bike and the picker
takes over the dropper's old plan.  Finally standardize the wait-free result.

Why it is correct.  Invariant: each row's suffix from column j is the suffix
of some input row (a bijection), and that input row, waits included,
arrived at the end of column j-1 no earlier than the row's ``reach``.  The
invariant holds at j = 0, and two facts keep it through a swap of picker p
and dropper d.  The rider d of the bike at j-1 arrives no later than that
bike's input rider (the invariant at j-1, with the same label in column
j-1), and the input's pickup of the bike at j was on time; so d arrives no
later than the input row whose suffix p held.  And p, arriving before d,
arrives no later than the input row whose suffix d held.  Once column j has
no early pickup, riding it keeps the invariant.  Three results follow:

- every agent finishes no later than some input agent, so the makespan
  does not rise;
- a swap only permutes a column's labels, so the sum of finish times falls
  by exactly the total wait;
- each swap makes one more row keep its bike, and a row that keeps its bike
  is never swapped again in that column, so a column needs at most b swaps.
"""

from __future__ import annotations

from .model import (
    ContractError,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    check_feasible,
    completion_profile,
    pickups,
)
from .normalize import standardize


def remove_all_waits(s: Schedule, inst: ProblemInstance) -> Schedule:
    """Drive every wait to zero without increasing the makespan.

    Returns a feasible schedule in standard form with no waiting matrix, no
    larger than ``s``, whose total finish time is lower by exactly the total
    wait.  A schedule with no positive wait is returned unchanged.
    """
    if s.waits is None or all(w == 0 for row in s.waits for w in row):
        return s
    report = check_feasible(s, inst)
    if not report.ok:
        raise ValueError(f"cannot remove waits from an infeasible schedule: {report.violations}")
    labels = [list(row) for row in s.matrix.rows]
    reach = [inst.speed_of(row[0]) * s.partition[0] for row in labels]
    for j in range(1, s.size):
        prev = [row[j - 1] for row in labels]
        for _ in range(inst.bikes + 1):
            early = next(
                (
                    (picker, dropper)
                    for picker, dropper in pickups(prev, [row[j] for row in labels])
                    if reach[picker] < reach[dropper]
                ),
                None,
            )
            if early is None:
                break
            picker, dropper = early
            labels[picker][j:], labels[dropper][j:] = labels[dropper][j:], labels[picker][j:]
        else:
            raise ContractError(f"column {j + 1} needed more than {inst.bikes} swaps")
        for i, row in enumerate(labels):
            reach[i] += inst.speed_of(row[j]) * s.partition[j]
    result, _ = standardize(Schedule(s.partition, ScheduleMatrix(labels)), inst)
    if completion_profile(result, inst).makespan > completion_profile(s, inst).makespan:
        raise ContractError("wait removal increased the makespan")
    return result
