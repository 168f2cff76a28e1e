"""Exact output checks for the benchmark, written apart from the program.

Nothing here imports ``bikesched``.  A schedule is checked from its raw data
alone -- the partition, the rows of bike labels (0 = walk) and the optional
waiting matrix -- against the instance's inverse speeds u_1 <= ... <= u_b and
against the paper's closed-form optima.  Every comparison is an exact
``Fraction`` equality.  Each ``check_*`` function returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class Plain(NamedTuple):
    """A schedule as raw data: interval lengths, label rows, optional waits."""

    partition: tuple
    rows: tuple
    waits: Optional[tuple] = None


def arrivals(s: Plain, u: Sequence[Fraction]) -> list[list[Fraction]]:
    """t[i][j]: agent i's time to the end of column j, waits included."""
    out = []
    for i, row in enumerate(s.rows):
        t = ZERO
        times = []
        for j, label in enumerate(row):
            t += (ONE if label == 0 else u[label - 1]) * s.partition[j]
            if s.waits is not None:
                t += s.waits[i][j]
            times.append(t)
        out.append(times)
    return out


def makespan(s: Plain, u: Sequence[Fraction]) -> Fraction:
    return max(times[-1] for times in arrivals(s, u))


def usage(s: Plain, bikes: int) -> list[Fraction]:
    """How far each bike is ridden."""
    ridden = [ZERO] * bikes
    for row in s.rows:
        for j, label in enumerate(row):
            if label:
                ridden[label - 1] += s.partition[j]
    return ridden


def feasibility(s: Plain, u: Sequence[Fraction]) -> list[str]:
    """Shape, interval and handover problems; empty when the schedule is
    feasible on the whole unit interval."""
    n = len(s.partition)
    if not s.rows or any(len(row) != n for row in s.rows):
        return ["matrix shape does not match the partition"]
    problems = []
    if any(x < 0 for x in s.partition):
        problems.append("negative interval length")
    if sum(s.partition, ZERO) != ONE:
        problems.append("partition does not cover [0, 1]")
    if s.waits is not None and any(w < 0 for row in s.waits for w in row):
        problems.append("negative wait")
    if any(not 0 <= label <= len(u) for row in s.rows for label in row):
        return problems + ["bike label out of range"]
    t = arrivals(s, u)
    for j in range(n):
        rider: dict[int, int] = {}
        for i, row in enumerate(s.rows):
            label = row[j]
            if label == 0:
                continue
            if label in rider:
                problems.append(f"bike {label} has two riders in column {j + 1}")
                continue
            rider[label] = i
            if j == 0 or s.rows[i][j - 1] == label:
                continue
            dropper = [k for k, other in enumerate(s.rows) if other[j - 1] == label]
            if not dropper:
                problems.append(f"bike {label} appears from nowhere in column {j + 1}")
            elif t[dropper[0]][j - 1] > t[i][j - 1]:
                problems.append(
                    f"agent {i + 1} picks up bike {label} before its dropper "
                    f"arrives, column {j + 1}"
                )
    return problems


def average_bound(m: int, u: Sequence[Fraction]) -> Fraction:
    """1 - (1/m) * sum(1 - u_k): every bike ridden the whole interval."""
    return ONE - sum((ONE - uk for uk in u), ZERO) / m


def bs_optimum(m: int, u: Sequence[Fraction]) -> Fraction:
    """max(u_b, average bound); 1 when there are no bikes."""
    return max(u[-1], average_bound(m, u)) if u else ONE


def one_abandonment_crossing(m: int, u: Sequence[Fraction]) -> Fraction:
    """Where the average bound with bike b ridden to y, which falls in y,
    meets the abandoning agent's time u_b*y + u_1*(1 - y), which rises."""
    u1, ub = u[0], u[-1]
    head = ONE - sum((ONE - uk for uk in u[:-1]), ZERO) / m
    y = (head - u1) / (ub - u1 + (ONE - ub) / m)
    return u1 + y * (ub - u1)


def rbs_optimum(m: int, u: Sequence[Fraction]) -> Fraction:
    """Limit-1 optimum: the average bound when the slowest bike keeps up,
    otherwise the crossing, or u_{b-1} when the second-slowest bike lags it."""
    avg = average_bound(m, u)
    if not u or u[-1] <= avg:
        return avg
    return max(one_abandonment_crossing(m, u), u[-2])


def _schedule(s: Plain, u: Sequence[Fraction]) -> tuple[list[str], Optional[Fraction]]:
    problems = feasibility(s, u)
    return problems, (makespan(s, u) if not problems else None)


def _delivered(m: int, u: Sequence[Fraction], s: Plain) -> list[str]:
    """Feasible, makespan equal to the BS closed form, every bike ridden the
    whole interval."""
    problems, tau = _schedule(s, u)
    if problems:
        return problems
    if tau != bs_optimum(m, u):
        problems.append(f"makespan {tau} != optimum {bs_optimum(m, u)}")
    if any(y != ONE for y in usage(s, len(u))):
        problems.append("a bike is not ridden the whole interval")
    return problems


def check_bs(m: int, u: Sequence[Fraction], s: Plain) -> list[str]:
    """A BS answer: delivered at the optimum, size <= m."""
    problems = _delivered(m, u, s)
    if len(s.partition) > m:
        problems.append(f"size {len(s.partition)} > {m} agents")
    return problems


def check_rbs(
    m: int, u: Sequence[Fraction], s: Plain, reported_usage: Sequence[Fraction]
) -> list[str]:
    """Feasible, makespan equal to the limit-1 closed form, at most one bike
    abandoned, and the solver's own usage vector right."""
    problems, tau = _schedule(s, u)
    if problems:
        return problems
    if tau != rbs_optimum(m, u):
        problems.append(f"makespan {tau} != optimum {rbs_optimum(m, u)}")
    ridden = usage(s, len(u))
    if sum(1 for y in ridden if y != ONE) > 1:
        problems.append("more than one bike abandoned")
    if list(reported_usage) != ridden:
        problems.append("reported bike usage differs from the schedule's")
    return problems


def check_oracle(
    m: int, u: Sequence[Fraction], limit: int, tau: Fraction, s: Plain
) -> list[str]:
    """The oracle's optimum equals the closed form and its schedule attains it
    within the abandonment limit."""
    want = rbs_optimum(m, u) if limit else bs_optimum(m, u)
    problems, got = _schedule(s, u)
    if tau != want:
        problems.append(f"oracle optimum {tau} != closed form {want}")
    if got is not None and got != tau:
        problems.append(f"oracle schedule has makespan {got}, not {tau}")
    if sum(1 for y in usage(s, len(u)) if y != ONE) > limit:
        problems.append("schedule abandons more bikes than the limit")
    return problems


def check_reference(m: int, u: Sequence[Fraction], s: Plain) -> list[str]:
    """The fully expanded relay: delivered at the optimum, with size
    2^(b-1)*(m-b+1)."""
    problems = _delivered(m, u, s)
    b, size = len(u), len(s.partition)
    if size != 2 ** (b - 1) * (m - b + 1):
        problems.append(f"reference relay size {size} != 2^(b-1)*(m-b+1)")
    return problems


def check_reduced(
    m: int, u: Sequence[Fraction], s: Plain, reference_makespan: Fraction
) -> list[str]:
    """Size <= m at an unchanged makespan."""
    problems, tau = _schedule(s, u)
    if problems:
        return problems
    if tau != reference_makespan:
        problems.append(f"makespan {tau} != reference makespan {reference_makespan}")
    if len(s.partition) > m:
        problems.append(f"size {len(s.partition)} > {m} agents")
    return problems


def check_drain(
    u: Sequence[Fraction], noisy: Plain, drained: Plain, injected: Fraction
) -> list[str]:
    """No wait left, makespan no higher, and the total finish time lower by
    exactly the injected wait."""
    problems, tau = _schedule(drained, u)
    if drained.waits is not None and any(w != 0 for row in drained.waits for w in row):
        problems.append("waits left after draining")
    if problems:
        return problems
    before = arrivals(noisy, u)
    after = arrivals(drained, u)
    if tau > max(times[-1] for times in before):
        problems.append("draining raised the makespan")
    total_before = sum((times[-1] for times in before), ZERO)
    total_after = sum((times[-1] for times in after), ZERO)
    if total_after != total_before - injected:
        problems.append(
            f"total finish time fell by {total_before - total_after}, "
            f"not by the injected {injected}"
        )
    return problems
