"""Solvers for the full-delivery problem: every agent and every bike must
reach the end of the interval.

When even the slowest bike is fast enough (u_b at most the average bound),
the optimal schedule is a *relay*: the bikes cascade backwards through the
agents until a synchronized group has formed in front, then catch up with and
get absorbed by that group one at a time, fastest first, with the slowest
bike arriving exactly at the end.  Interval lengths are chosen so that each
absorbed agent meets the group precisely at an interval boundary, which makes
everyone finish together at the average bound.

Two constructions build the relay bottom-up, one level per bike: level k
relays the k fastest bikes with the same walkers, spliced from levels
0..k-1.  Only ``relay_schedule`` reduces, every level from 2 up, giving
size at most m in polynomial time.  ``relay_reference`` (for differential
testing) expands every level in full, so its size is exponential in b, and
checks its own partition: feasible, every agent finishing at exactly the
average bound.  Every column carries all b bikes, so no partition beats
that bound (weak LP duality) and this one is its matrix's LP optimum.  Both
hand nested columns (group blocks stacked on solo riders) to one splicer,
``splice``.  In one pass over the columns it keeps how far each row's
arrival trails the row above it, reads each column's paces off the
instance's integer speed table, sizes the column so that its catcher closes
that gap, and expands the blocks; the one-abandonment schedule of ``rbs``
uses it too.

Level 1 (one bike of inverse speed u, w walkers) needs no reduction: its
splice has w + 1 columns for w + 1 agents and is in standard form, so
``reduce_schedule`` would return it unchanged.  Rider i rides in column i
and walks elsewhere.  Each later column's catcher, rider i, closes the gap
that opened on rider i - 1 in column i - 1 at the rate 1 - u > 0, so every
length is a positive gap over a positive rate (all are equal), and no two
consecutive columns are equal.  Each dropper rode the column before while
its picker walked it, so it arrives first: every handover is strict.

When the slowest bike lags (u_b above the average bound), ``solve_bs`` gives
it a solo rider and solves the other m-1 agents with bikes 1..b-1, one level
at a time.  This is exact.  By definition m*avg(m, u) = (m-1)*avg(m-1, u') +
u_b for u' = u_1..u_{b-1}, so avg(m, u) is a weighted mean of avg(m-1, u')
and u_b, and u_b > avg(m, u) exactly when u_b > avg(m-1, u').  The rest
therefore finishes by max(u_{b-1}, avg(m-1, u')) <= u_b, and the answer
ties at u_b, which no schedule beats.  Level j stops at the first j with
u_{b-j} <= avg(m-j, u_1..u_{b-j}), the smallest number of solo riders after
which the remaining bikes keep up.  One bike never lags: u_1 > 1 - (1-u_1)/m
would need (1-u_1)(1/m - 1) > 0, impossible for u_1 < 1 <= m; so the
recursion always ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .model import (
    ONE,
    TIGHT_AVERAGE,
    TIGHT_SLOWEST,
    BoundCertificate,
    ContractError,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    _arrivals,
    _fractions,
    _integral,
    _violations,
    average_bound,
    verify_answer,
)
from .normalize import reduce_schedule


@dataclass(frozen=True)
class NestedColumn:
    """One unexpanded interval: a group sub-schedule stacked on solo riders.

    ``tail`` gives the bike labels of the rows below the block; when ``block``
    is None the tail covers every row and the column is already flat.
    """

    tail: tuple[int, ...]
    block: Optional[Schedule] = None


def splice(inst: ProblemInstance, columns: Sequence[NestedColumn]) -> Schedule:
    """Size nested columns so that each absorbed rider meets its group exactly
    at the end of its host column, then expand them.

    Labels in blocks and tails are bike labels of ``inst``; paces come from
    its integer speed table.  A tail row moves at its label's pace.  Every
    block is a length-1 relay whose agents all tie, so each block row moves
    at the block's common finish time, read off its first row.  One pass
    keeps how far each row's arrival so far trails the row above it,
    ``lag``; rows at the pace of the row above keep their lag.  The first
    column gets length 1.  In every later column the catcher is the first
    tail row on a bike; its lag (the gap) closes at the pace difference
    inside the column (the rate), so the column's length is gap / rate.  A
    later column with no bike in its tail, or whose catcher is row 0 (no row
    ahead of it), raises ``ValueError``.  A zero rate with a zero gap leaves
    the length free (taken as 0); with a positive gap the catcher can never
    close it here, so every earlier column collapses to zero and this one
    gets length 1.  The lengths are scaled to sum to 1, and a block of n'
    columns replaces its host with n' columns carrying the host's tail rows,
    its partition scaled by the host's length.

    All of it runs on ints.  Each block's partition is taken over its own
    lcm, and every pace over the speed table's scale times ``unit``, the
    lcm of those denominators.  Lengths are ints over a common scale that
    only the final normalization reads: when gap / rate is no integer of
    it, every length and lag is multiplied up by the rate's reduced
    denominator.  A Fraction is built only for the returned partition.
    """
    speed, _ = inst._label_speeds
    blocks = [None if col.block is None else _integral(col.block.partition) for col in columns]
    unit = lcm(*[den for _x, den in filter(None, blocks)])
    z: list[int] = []
    lag: list[int] = []
    z_den = 1  # z[c] / z_den is the length relative to the first column
    for col, block in zip(columns, blocks):
        pace = [speed[label] * unit for label in col.tail]
        if block is not None:
            x, den = block
            row = [speed[label] for label in col.block.matrix.rows[0]]
            pace = [sum(map(mul, x, row)) * (unit // den)] * col.block.agents + pace
        if not z:
            lag = [0] * len(pace)
            length = 1
        elif len(pace) != len(lag):
            raise ValueError("inconsistent block + tail heights")
        else:
            rider = next((i for i, label in enumerate(col.tail) if label), None)
            if rider is None:
                raise ValueError(f"column {len(z)} has no bike in its tail to catch up")
            catcher = len(pace) - len(col.tail) + rider
            if catcher == 0:
                raise ValueError(f"column {len(z)}'s catcher is row 0, with no row above")
            gap = lag[catcher]
            rate = pace[catcher - 1] - pace[catcher]
            if rate:
                g = gcd(gap, rate) if rate > 0 else -gcd(gap, rate)
                length, grow = gap // g, rate // g
                if length < 0:
                    raise ContractError(
                        f"negative interval length {Fraction(length, z_den * grow)} at {len(z)}"
                    )
                if grow > 1:
                    z = [a * grow for a in z]
                    lag = [a * grow for a in lag]
                    z_den *= grow
            elif gap:
                z = [0] * len(z)
                lag = [0] * len(lag)
                z_den = length = 1
            else:
                length = 0
        z.append(length)
        if length:
            lag = [a + length * (p - q) for a, p, q in zip(lag, pace, [pace[0], *pace])]
    xs: list[int] = []
    out_cols: list[tuple[int, ...]] = []
    for length, col, block in zip(z, columns, blocks):
        if block is None:
            xs.append(length * unit)
            out_cols.append(col.tail)
        else:
            x, den = block
            f = length * (unit // den)
            xs.extend([f * a for a in x])
            out_cols.extend(sub + col.tail for sub in col.block.matrix.columns())
    return Schedule(_fractions(xs, sum(z) * unit), ScheduleMatrix(tuple(zip(*out_cols))))


def _check_relay_precondition(inst: ProblemInstance) -> None:
    if inst.bikes and inst.slowest > average_bound(inst):
        raise ValueError(
            f"slowest bike (u={inst.slowest}) is slower than the average bound "
            f"{average_bound(inst)}; no full-delivery relay exists"
        )


def _covers_unit(s: Schedule) -> bool:
    x, den = _integral(s.partition)
    return sum(x) == den


def _walk_schedule(agents: int) -> Schedule:
    return Schedule((ONE,), ScheduleMatrix(((0,),) * agents))


def _build_relay(inst: ProblemInstance, blocks: Sequence[Optional[Schedule]]) -> Schedule:
    """The relay of ``inst`` spliced from its walker columns and one group
    column per bike: ``blocks[k]`` is a relay of ``inst.sub_instance(k)``,
    None when that subproblem has no agents."""
    m, b = inst.agents, inst.bikes
    walkers = m - b
    cols = [
        NestedColumn(tail=tuple([i - j + 1 if j <= i < j + b else 0 for i in range(m)]))
        for j in range(walkers)
    ]
    for mk, block in enumerate(blocks, start=walkers):
        if (block is None) != (mk == 0):
            raise ValueError("need one group schedule per non-empty block")
        if block is not None and (block.agents != mk or not _covers_unit(block)):
            raise ValueError("group schedule has the wrong shape")
        tail = tuple([i - walkers + 1 for i in range(mk, m)])
        cols.append(NestedColumn(tail=tail, block=block))
    return splice(inst, cols)


def relay_reference(inst: ProblemInstance) -> Schedule:
    """Fully expanded relay: ``relay_schedule``'s levels, none reduced, so
    for b >= 1 its size is 2^(b-1) * (m - b + 1).  For small bike counts and
    differential testing.  ``ContractError`` unless the spliced schedule
    covers [0, 1], is feasible and has every agent finish at exactly the
    average bound, which makes it optimal (module docstring).
    """
    _check_relay_precondition(inst)
    m, b = inst.agents, inst.bikes
    levels: list[Optional[Schedule]] = [_walk_schedule(m - b) if m > b else None]
    for k in range(1, b + 1):
        levels.append(_build_relay(inst.sub_instance(k), levels))
    sched = levels[b]
    partial, den = _arrivals(sched, inst)
    t = average_bound(inst)
    if (
        not _covers_unit(sched)
        or _violations(sched.matrix, partial)
        or any(row[-1] * t.denominator != t.numerator * den for row in partial)
    ):
        raise ContractError("the relay partition is infeasible or misses the average bound")
    return sched


def _relay_levels(inst: ProblemInstance) -> list[Optional[Schedule]]:
    """The reduced relay of ``inst.sub_instance(k)`` for k = 0..b, None
    where that subproblem has no agents.

    All levels keep the walker count m - b.  Each splices the smaller
    reduced levels into its relay, then reduces it, except level 1, whose
    splice is already in standard form with m - b + 1 columns (module
    docstring);
    intermediate sizes stay below m * b.  A subproblem of a relay is a
    relay (its slowest bike keeps up whenever ``inst``'s does; module
    docstring), so only ``inst`` is checked.
    """
    _check_relay_precondition(inst)
    m, b = inst.agents, inst.bikes
    levels: list[Optional[Schedule]] = [_walk_schedule(m - b) if m > b else None]
    for k in range(1, b + 1):
        sub = inst.sub_instance(k)
        raw = _build_relay(sub, levels)
        if raw.size > m * b:
            raise ContractError("intermediate relay grew beyond the m*b bound")
        levels.append(raw if k == 1 else reduce_schedule(raw.matrix, sub, initial=raw.partition))
    return levels


def relay_schedule(inst: ProblemInstance) -> Schedule:
    """Relay of size <= m: the top level of ``_relay_levels``."""
    return _relay_levels(inst)[-1]


def _with_solo_row(s: Schedule, bike: int) -> Schedule:
    """``s`` with one more agent riding ``bike`` alone in every column: the
    solo rider's single column refined to ``s``'s partition."""
    return Schedule(s.partition, ScheduleMatrix(s.matrix.rows + ((bike,) * s.size,)))


def solve_bs(inst: ProblemInstance) -> tuple[Schedule, BoundCertificate]:
    """Optimal full-delivery schedule and its tight lower bound.

    The makespan is exactly max(u_b, average bound): the relay achieves the
    average bound when every bike keeps up; otherwise bike b gets a solo
    rider (finishing at u_b) stacked under the recursive solve of the other
    m-1 agents with bikes 1..b-1, which finishes no later (module docstring).
    Every level checks its own answer.
    """
    t_avg = average_bound(inst)
    m, b = inst.agents, inst.bikes
    if b == 0 or inst.slowest <= t_avg:
        sched = relay_schedule(inst)
        cert = BoundCertificate(
            average=t_avg,
            slowest=inst.inverse_speeds[-1] if b else None,
            tight=TIGHT_AVERAGE,
            value=t_avg,
        )
    else:
        rest, _ = solve_bs(ProblemInstance(m - 1, inst.inverse_speeds[: b - 1]))
        sched = _with_solo_row(rest, b)
        cert = BoundCertificate(
            average=t_avg, slowest=inst.slowest, tight=TIGHT_SLOWEST, value=inst.slowest
        )
    verify_answer(sched, inst, cert)
    return sched, cert
