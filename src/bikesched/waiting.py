"""Elimination of waiting time from schedules.

A schedule may carry a waiting matrix: agent i crosses sub-interval j, then
idles for waits[i][j] before moving on.  (Moving slower than full speed is
the same thing: ride at full speed, then wait out the difference.)  Waiting
never helps, and ``remove_all_waits`` makes that constructive with the
standard-form sweep of ``normalize``.

Drop every wait, then walk the columns keeping each row's wait-free arrival
``reach``, skipping zero-length columns.  At each kept column, while some
picker would arrive no later than its dropper at the last kept column,
swap the two rows' label suffixes from this column on: the dropper keeps
its bike and the picker takes over the dropper's old plan.  Identical
consecutive columns are merged on the way, so the result is in standard
form.

Why it is correct.  Invariant: at each kept column j, each row's suffix from
j is the suffix of some input row (a bijection), and that input row, waits
included, arrived at the end of column j-1 no earlier than the row's
``reach``.  The invariant holds at the first kept column.  Skipped
zero-length columns keep it, because they change no ``reach`` and a row's
input arrival never decreases along its columns.  For the same reason
on-time input pickups chain through them: the input rider of a bike at j
arrived at the end of column j-1 no earlier than that bike's input rider at
the last kept column j' arrived at the end of j'.  Two facts then keep the
invariant through a swap of picker p and dropper d.  The rider d of the
bike at j' arrives no later than that bike's input rider at j' (the
invariant after riding j', with the same label there), and so no later
than the input row whose suffix p held.  And p, arriving no later than d,
arrives no later than the input row whose suffix d held.  Once column j
has no such pickup, riding it keeps the invariant.  Three results follow:

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
    _arrivals,
    _fractions,
    _integral,
    _violations,
)
from .normalize import _sweep


def remove_all_waits(s: Schedule, inst: ProblemInstance) -> Schedule:
    """Drive every wait to zero without increasing the makespan.

    Returns a feasible schedule in standard form with no waiting matrix, no
    larger than ``s``, whose total finish time is lower by exactly the total
    wait.  A feasible schedule with no positive wait is returned unchanged;
    an infeasible one raises ``ValueError``, with or without waits, and so
    does one with waits whose columns all have length 0, which has no
    standard form.
    """
    partial, den = _arrivals(s, inst)
    broken = _violations(s.matrix, partial)
    if broken:
        raise ValueError(f"cannot remove waits from an infeasible schedule: {broken}")
    if s.waits is None or all(w == 0 for row in s.waits for w in row):
        return s
    x, x_den = _integral(s.partition)
    x, matrix, *_ = _sweep(x, s.matrix.rows, inst)
    result = Schedule(_fractions(x, x_den), matrix)
    out, out_den = _arrivals(result, inst)
    if max([row[-1] for row in out]) * den > max([row[-1] for row in partial]) * out_den:
        raise ContractError("wait removal increased the makespan")
    return result
