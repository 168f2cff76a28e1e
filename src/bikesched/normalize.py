"""Schedule hygiene: standard form and size reduction.

A feasible schedule is in *standard form* when it has no zero-length columns,
no two consecutive identical columns, and no handover happening at exactly
equal arrival times (a "swap-switch", removable by swapping the two agents'
remaining schedules).  One left-to-right column sweep on integer lengths
and arrival times, ``_sweep``, builds it for ``standardize`` (feasible wait-free
schedules, every completion time kept), ``reduce_schedule`` and
``waiting.remove_all_waits`` (schedules whose waits it drops).
``reduce_schedule`` alternates sweeps, of its input and then of each LP
vertex, with slides to a vertex, and stops at the first sweep with at most
as many columns as agents; a vertex with more has a column for the next
sweep to delete or a handover for it to swap away.  A round over more than
W = floor(5m/2) columns slides only its first W and holds the rest at their
lengths: a vertex with those fixed still has at least W - m > 0 such rows
among its n + 1 tight ones, and the slide frees far fewer directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .lp import _partition_lp, _satisfies, _slide, solve_partition
from .model import (
    ContractError,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    _arrivals,
    _first_riders,
    _fractions,
    _integral,
    _pickups,
    _violations,
    check_feasible,
    handovers,
)


@dataclass(frozen=True)
class StandardFormReport:
    zero_columns_removed: int
    redundant_columns_merged: int
    swap_switches_resolved: int


def _sweep(
    x: Sequence[int], rows: tuple[tuple[int, ...], ...], inst: ProblemInstance
) -> tuple[
    list[int], ScheduleMatrix, StandardFormReport, int, tuple[tuple[int, int, int], ...]
]:
    """Rebuild the wait-free schedule ``(x, rows)`` in standard form, its
    lengths ``x`` ints over any one denominator.

    Walks the columns keeping each row's wait-free arrival ``reach`` as an
    int (inverse speeds over their lcm times the lengths), deletes
    zero-length columns and merges a column into an identical last kept
    one.  Against the last kept column, while some picker (in picker
    order) would arrive no later than its dropper, the two rows' label
    suffixes are swapped: the dropper keeps its bike and the picker takes
    over the dropper's old plan.  Each swap makes one more row keep its
    bike, so a column needs at most b swaps; ``ContractError`` past that.
    Returns the kept lengths over the same denominator, their matrix, the
    report, the number of swaps that repaired a picker arriving strictly
    early, and the matrix's ``handovers``, read off the last pickup scan of
    each kept column.  When every column has length 0 no column is kept, and
    ``ValueError`` is raised.
    """
    m = len(rows)
    labels = [list(row) for row in rows]
    out_cols: list[tuple[int, ...]] = []
    out_x: list[int] = []
    switches: list[tuple[int, int, int]] = []
    speed, _ = inst._label_speeds  # by label; 0 walks
    reach = [0] * m  # arrival through the columns kept so far
    zero_removed = merged = swaps = repaired = 0

    for j, a in enumerate(x):
        if not a:
            zero_removed += 1
            continue
        column = tuple([row[j] for row in labels])
        first = _first_riders(out_cols[-1]) if out_cols else {}
        for _ in range(inst.bikes + 1):
            hand = _pickups(first, column)
            due = [(p, d) for p, d in hand if reach[p] <= reach[d]]
            if not due:
                break
            picker, dropper = due[0]
            swaps += 1
            repaired += reach[picker] < reach[dropper]
            labels[picker][j:], labels[dropper][j:] = labels[dropper][j:], labels[picker][j:]
            column = tuple([row[j] for row in labels])
        else:
            raise ContractError(f"column {j + 1} needed more than {inst.bikes} swaps")
        if out_cols and column == out_cols[-1]:
            merged += 1
            out_x[-1] += a
        else:
            switches += [(p, d, len(out_cols)) for p, d in hand]
            out_cols.append(column)
            out_x.append(a)
        for i in range(m):
            reach[i] += speed[column[i]] * a

    if not out_cols:
        raise ValueError("a schedule whose columns all have length 0 has no standard form")
    report = StandardFormReport(zero_removed, merged, swaps)
    return out_x, ScheduleMatrix(tuple(zip(*out_cols))), report, repaired, tuple(switches)


def standardize(
    s: Schedule, inst: ProblemInstance
) -> tuple[Schedule, StandardFormReport]:
    """Rewrite a feasible wait-free schedule into standard form.

    Zero-length columns are deleted, consecutive identical columns merged
    (interval lengths summed), and equal-time handovers eliminated by swapping
    the two agents' row suffixes.  Completion times are preserved exactly.
    A schedule with a positive wait is rejected with ``ValueError``
    (``waiting.remove_all_waits`` drains waits first), and so is one whose
    columns all have length 0, which has no standard form.  A feasible
    wait-free schedule has no early pickup, so ``ContractError`` is raised
    if the sweep has to repair one.
    """
    if s.waits is not None and any(w != 0 for row in s.waits for w in row):
        raise ValueError("cannot standardize a schedule with waits")
    broken = check_feasible(s, inst).violations
    if broken:
        raise ValueError(f"cannot standardize an infeasible schedule: {broken}")
    x, den = _integral(s.partition)
    x, matrix, report, repaired, _ = _sweep(x, s.matrix.rows, inst)
    if repaired:
        raise ContractError(f"standardizing repaired {repaired} early pickups")
    return Schedule(_fractions(x, den), matrix), report


def is_standard_form(s: Schedule, inst: ProblemInstance) -> bool:
    """True when a feasible schedule has no zero columns, no consecutive
    identical columns, and strictly earlier dropper arrival at every handover."""
    return _is_standard_form(s, _arrivals(s, inst)[0])


def _is_standard_form(s: Schedule, partial: list[list[int]]) -> bool:
    """``is_standard_form`` read off the schedule's arrival profile
    ``partial`` (``model._arrivals``)."""
    cols = s.matrix.columns()
    if 0 in s.partition or any(a == b for a, b in zip(cols, cols[1:])):
        return False
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

    Reads the input's feasibility and makespan off one integer arrival
    profile.  Then it alternates the standard-form sweep with sliding the
    partition to a vertex of equal or better makespan (``lp._slide``, the
    integer ``vertex_from_point``), and stops right after the first sweep
    whose output has at most ``inst.agents`` columns: a sweep's output is
    in standard form.  A vertex with more columns than agents has a zero
    column or an equal-time handover, because otherwise its only tight rows
    are the sum row and at most m agent rows, short of the n + 1 a vertex
    needs (Chvatal 1983, ch. 3).  So the sweep of each vertex either stops
    the loop or strictly shrinks (size, handover count), which is checked;
    the makespan never increases, and each round checks its vertex against
    its own LP.  The rounds carry the point (x, tau) as ints over one
    denominator; Fractions are built once, for the answer.

    A round whose swept matrix has more than W = floor(5m/2) columns (m =
    ``inst.agents``) slides with columns W .. n - 1 held at their current
    lengths (``_slide``'s ``fixed``); narrower rounds fix none.  The window
    keeps what the size argument needs:

    - Every step is still a step of the LP's walk from a feasible point: it
      keeps the point feasible and never raises tau.  The round's
      ``_satisfies`` and tau checks below stay.
    - At a vertex with columns W on fixed, n + 1 independent rows are
      tight: the n - W fixed columns, the sum row, at most m agent rows and
      so at least W - m >= 1 zero columns or equal-time handovers (the
      swept fixed columns are positive, so those zero columns lie before
      W).  The sweep therefore still strictly lowers (columns, handovers),
      and the same progress check holds it to that.
    - ``lp._blocking``'s skip of implied handover rows stays exact: an
      implied row with a positive coefficient on a fixed column, which is
      positive, never reaches 0.

    Why floor(5m/2): a slide's cost grows steeply with its free
    directions, n - m from a point where every agent row is tight, as at
    the start of a spliced relay level (47 columns at m = 12, 211 at
    m = 24); the window caps them at floor(3m/2).  Widths 2m, 5m/2 and 3m
    all cut a relay ``solve_bs`` at (24, 12) about threefold, 2m the most
    (by 5-17 % over 5m/2 from m = 16 on), but at m = 12, the benchmark's
    largest relay rung, 5m/2 is fastest and 2m or 3m costs 5-7 % more.

    A zero column costs no round: the next sweep deletes it.  An equal-time
    handover does, because its suffix swap leaves a point that is no longer
    a vertex.  The slide shrinks its free column whenever tau stays put,
    which is always from an optimal point, so that column itself can block
    at zero.  Each round's LP takes its handovers from the sweep.

    ``initial`` is a feasible partition the caller already knows to be
    optimal for the matrix (the solvers build such partitions directly).
    Without it the partition comes from one exact LP solve; every later
    round only slides to a vertex, which is all the size argument needs.
    """
    if initial is None:
        initial, _ = solve_partition(matrix, inst)
    start = Schedule(tuple(initial), matrix)
    partial, den = _arrivals(start, inst)
    broken = _violations(matrix, partial)
    if broken:
        raise ValueError(f"cannot reduce an infeasible schedule: {broken}")
    # The point (x, tau) over one denominator: the arrival profile's, which
    # is the speed scale times the partition's.
    x, x_den = _integral(start.partition)
    scale = den // x_den
    x, tau = [a * scale for a in x], max([row[-1] for row in partial])
    window = 5 * inst.agents // 2
    prev_measure = None
    while True:
        # The input, then each vertex: at a vertex some agent row is tight, so
        # tau is the makespan, and the sweep keeps every completion time.
        x, matrix, _, repaired, switches = _sweep(x, matrix.rows, inst)
        if repaired:
            raise ContractError(f"the sweep repaired {repaired} early pickups")
        if len(x) <= inst.agents:
            return Schedule(_fractions(x, den), matrix)
        measure = (len(x), len(switches))
        if prev_measure is not None and measure >= prev_measure:
            raise ContractError("reduction stopped making progress")
        prev_measure = measure
        lp = _partition_lp(matrix, inst, switches)
        v, v_den = _slide(lp, x + [tau], den, min(len(x), window))
        if not _satisfies(lp, v, v_den):
            raise ContractError("the vertex leaves the feasible region")
        if v[-1] * den > tau * v_den:
            raise ContractError("reduction increased the makespan")
        x, tau, den = v[:-1], v[-1], v_den
