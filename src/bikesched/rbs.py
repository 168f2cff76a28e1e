"""Solvers for the relaxed problem: all agents must finish, but up to
``abandonment_limit`` bikes may be left behind.

With one abandonable bike the structure mirrors the full-delivery case.  If
the slowest bike keeps up with the average bound nothing is abandoned.  If it
lags but the second-slowest does not, the optimum dedicates the last agent to
riding the slowest bike up to the balance point y*, abandoning it there and
switching to the fastest bike, while everyone else relays the remaining bikes
so that the whole crew ties at the one-abandonment bound.  If even the
second-slowest bike lags, it gets a solo rider and the rest of the crew
recurses on the remaining bikes (keeping the slowest, which is still the one
abandoned), making the second-slowest bike's arrival the makespan.  The
abandoning schedule only lays out its nested columns; ``bs.splice``, the
splicer of the full-delivery relay, sizes and expands them, and
``normalize.reduce_schedule`` brings the result down to at most m columns.
Its head block is the reduced relay of the q fastest bikes.  Its group
blocks are read off one relay table, ``bs._relay_levels`` of bikes
2..b-1 on m-1 agents, so each reduced relay level is built once.

The second-slowest recursion peels one solo rider per level and is exact.
Level j solves rest_j: m-j agents with u_1..u_{b-j-1} and u_b, limit 1.  It
stops when u_{b-j-1} <= t_one(rest_j), the one-abandonment bound: when the
slowest bike of rest_j keeps up, t_one(rest_j) is its average bound >= u_b,
so that case stops too.  The answer then needs t_one(rest_j) <= u_{b-1},
which holds without a check.  Write A_y(I) for the average bound of I with
bike b ridden to y and L(y) = u_1 + y*(u_b - u_1) for the abandoning
agent's time, so t_one(I) = L(y*) where the falling A_y meets the rising L
(or A_1 when bike b keeps up).  A level that recurses peels a bike w slower
than its bound t_one(I), and m*A_y(I) = (m-1)*A_y(I') + w, so A_y(I') <
A_y(I) wherever A_y(I) < w: removing w together with its rider moves the
crossing down.  Hence t_one(rest_j) < ... < t_one(inst) < u_{b-1}, the last
step being why the top level took this branch.  The rest finishes by
u_{b-1}, the solo rider of bike b-1 arrives exactly then, and two bikes
always stop, since u_1 <= t_one.

The reduction keeps the abandonment.  By condition 1 a bike in the final
column is ridden in every column, so it is delivered.  The reducer's sweeps
only delete zero-length columns, merge identical ones and permute a column's
labels, each keeping every final-column bike in the final column, so bikes
1..b-1 stay delivered.  Its slides keep the makespan at the one-abandonment
bound.  Leaving bike b at y costs at least the average bound with bike b
ridden to y (falling in y) and u_b*y + u_1*(1-y), its last rider's time
(rising in y); both meet that bound only at y = y*.

Abandonment limits of two or more are an open problem and rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .bs import NestedColumn, _relay_levels, _with_solo_row, relay_schedule, solve_bs, splice
from .model import (
    ONE,
    TIGHT_ONE_ABANDONED,
    TIGHT_SECOND_SLOWEST,
    BoundCertificate,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    _average_numerator,
    abandonment_vector,
    average_bound,
    one_abandonment_bound,
    verify_answer,
)
from .normalize import reduce_schedule


class UnsupportedAbandonmentError(ValueError):
    """Raised for abandonment limits >= 2, which this library does not solve."""


@dataclass(frozen=True)
class RbsSolution:
    """A relaxed-problem answer: the schedule, how far each bike was ridden,
    the bound certificate, and the (bike, position) pairs left behind."""

    schedule: Schedule
    abandonment: tuple[Fraction, ...]
    certificate: BoundCertificate
    abandoned: tuple[tuple[int, Fraction], ...]


def shared_prefix(inst: ProblemInstance) -> int:
    """Largest q such that the q fastest bikes can be relayed by m-b+q agents
    at their average bound (i.e. u_q is not a bottleneck in that subproblem),
    read off the instance's integer speed table."""
    speed, den = inst._label_speeds
    walkers = inst.agents - inst.bikes
    best = 0
    for q in range(1, inst.bikes + 1):
        agents = walkers + q
        if agents * speed[q] <= _average_numerator(speed, den, agents, q):
            best = q
    if best == 0:
        raise ValueError("no shareable prefix; invalid instance")
    return best


def _relabeled(s: Schedule, mapping) -> Schedule:
    rows = tuple([
        tuple([mapping(c) if c != 0 else 0 for c in row]) for row in s.matrix.rows
    ])
    return Schedule(s.partition, ScheduleMatrix(rows), s.waits)


def abandon_slowest(inst: ProblemInstance) -> RbsSolution:
    """Optimal one-abandonment schedule for the case where only the slowest
    bike lags (u_b above the average bound, u_{b-1} at most the relaxed bound).

    Agent m rides the slowest bike to the balance point y* and finishes on the
    fastest bike; the others relay the q fastest bikes over [0, y*], then the
    crew absorbs the solo riders of bikes q+1, ..., b-1 one at a time, exactly
    as in the full-delivery relay but with the fastest bike reserved for agent
    m.  Everyone ties at the one-abandonment bound.  The spliced schedule is
    reduced to at most m columns.
    """
    m, b = inst.agents, inst.bikes
    u = inst.inverse_speeds
    t_avg = average_bound(inst)
    if b < 2 or inst.slowest <= t_avg:
        raise ValueError("abandoning helps only when the slowest bike lags")
    t_one, y_star = one_abandonment_bound(inst)
    if u[b - 2] > t_one:
        raise ValueError(
            "second-slowest bike is also a bottleneck; it needs a solo rider"
        )
    q = shared_prefix(inst)
    walkers = m - b
    group = walkers + q
    columns = [
        NestedColumn(
            block=relay_schedule(inst.sub_instance(q)),
            tail=tuple([i - walkers + 1 for i in range(group, m)]),
        )
    ]
    # In each later column a group of g agents relays bikes 2..g-walkers and
    # absorbs the row below it; agent m, past y*, rides the fastest bike and
    # is absorbed last.  These groups are the levels of one relay on bikes
    # 2..b-1 with one more walker: group g is its level g - walkers - 1.
    levels = _relay_levels(ProblemInstance(m - 1, u[1 : b - 1]))
    for g in range(group, m):
        columns.append(
            NestedColumn(
                block=_relabeled(levels[g - walkers - 1], lambda lab: lab + 1),
                tail=tuple([i - walkers + 1 for i in range(g, m - 1)]) + (1,),
            )
        )
    spliced = splice(inst, columns)
    sched = reduce_schedule(spliced.matrix, inst, initial=spliced.partition)
    cert = BoundCertificate(
        average=t_avg,
        slowest=inst.slowest,
        tight=TIGHT_ONE_ABANDONED,
        value=t_one,
        one_abandoned=t_one,
    )
    verify_answer(sched, inst, cert, ((b, y_star),))
    return RbsSolution(sched, abandonment_vector(sched, inst), cert, ((b, y_star),))


def solve_rbs(inst: ProblemInstance) -> RbsSolution:
    """Optimal schedule under the instance's abandonment limit (0 or 1).

    Dispatch for limit 1: nothing abandoned when the slowest bike keeps up
    (makespan = average bound); otherwise abandon it at y* (makespan = the
    one-abandonment bound) unless the second-slowest bike lags too, in which
    case bike b-1 rides solo above the recursive solve of the other m-1
    agents with bike b-1 left out, and the makespan is exactly u_{b-1}.
    """
    limit = inst.abandonment_limit
    if limit >= 2:
        raise UnsupportedAbandonmentError(
            f"unsupported abandonment limit {limit}; only 0 and 1 are solved"
        )
    m, b = inst.agents, inst.bikes
    u = inst.inverse_speeds
    t_avg = average_bound(inst)
    if limit == 0 or b == 0 or inst.slowest <= t_avg:
        sched, cert = solve_bs(inst)
        cert = replace(cert, one_abandoned=t_avg) if limit else cert
        return RbsSolution(sched, (ONE,) * b, cert, ())
    t_one, _ = one_abandonment_bound(inst)
    if u[b - 2] <= t_one:
        return abandon_slowest(inst)

    inner = solve_rbs(ProblemInstance(m - 1, u[: b - 2] + (u[-1],), abandonment_limit=1))
    # Bike b - 1 in the subproblem is the original bike b.
    lifted = _relabeled(inner.schedule, lambda lab: b if lab == b - 1 else lab)
    sched = _with_solo_row(lifted, b - 1)
    usage = abandonment_vector(sched, inst)
    abandoned = tuple([(bike + 1, pos) for bike, pos in enumerate(usage) if pos < ONE])
    cert = BoundCertificate(
        average=t_avg,
        slowest=inst.slowest,
        tight=TIGHT_SECOND_SLOWEST,
        value=u[b - 2],
        one_abandoned=t_one,
    )
    verify_answer(sched, inst, cert, abandoned)
    return RbsSolution(sched, usage, cert, abandoned)
