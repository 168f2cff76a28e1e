"""Core schedule model: problem instances, schedules, completion times,
feasibility checking, and the closed-form lower bounds on the makespan.

A problem is m agents (walking speed 1) and b <= m bikes with inverse speeds
0 < u_1 <= ... <= u_b < 1, all starting at 0 on the unit interval.  A schedule
is a partition of [0,1] into n sub-intervals plus an m x n matrix of bike
labels (0 = walk) saying who rides what in each sub-interval, optionally with
an m x n matrix of waiting times spent at the end of each sub-interval.

All arithmetic is exact rational arithmetic; every equality test below is
exact, with no tolerances.  ``Fraction`` is the boundary type: instances,
schedules, bounds and every public answer hold Fractions.  Inside, a check
or a solve reads a partition as int numerators over one common denominator
(``_integral``) and the inverse speeds off the instance's integer speed
table (``ProblemInstance._label_speeds``), compares arrival times as ints
over one denominator (``_arrivals``), and builds a Fraction only for what
it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Iterable, Optional, Sequence

from .rational import RationalLike, to_fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# Tags naming which lower bound a solver's makespan attains exactly.
TIGHT_AVERAGE = "average"
TIGHT_SLOWEST = "slowest-bike"
TIGHT_ONE_ABANDONED = "one-abandoned"
TIGHT_SECOND_SLOWEST = "second-slowest-bike"


class ContractError(RuntimeError):
    """A bikesched guarantee failed: a bug, not bad input."""


def _as_fractions(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple([v if type(v) is Fraction else to_fraction(v) for v in values])


@dataclass(frozen=True)
class ProblemInstance:
    """m agents plus a sorted multiset of inverse bike speeds.

    ``inverse_speeds`` holds u_k = 1/v_k for bike speeds v_k > 1, sorted
    ascending (fastest bike first).  ``abandonment_limit`` is the number of
    bikes that may be left behind (relaxed problem only; 0 means every bike
    must reach the end).
    """

    agents: int
    inverse_speeds: tuple[Fraction, ...]
    abandonment_limit: int = 0

    def __post_init__(self) -> None:
        if type(self.agents) is not int or self.agents < 1:
            raise ValueError(f"agents must be an integer >= 1, got {self.agents!r}")
        u = _as_fractions(self.inverse_speeds)
        object.__setattr__(self, "inverse_speeds", tuple(sorted(u)))
        if len(u) > self.agents:
            raise ValueError(
                f"{len(u)} bikes but only {self.agents} agents; bikes cannot "
                "outnumber agents"
            )
        for uk in self.inverse_speeds:
            if not ZERO < uk < ONE:
                raise ValueError(
                    f"inverse speed {uk} out of range; bikes must be strictly "
                    "faster than walking (0 < u < 1)"
                )
        if type(self.abandonment_limit) is not int or self.abandonment_limit < 0:
            raise ValueError(
                f"abandonment limit must be an integer >= 0, got {self.abandonment_limit!r}"
            )

    @property
    def bikes(self) -> int:
        return len(self.inverse_speeds)

    @property
    def slowest(self) -> Fraction:
        if not self.inverse_speeds:
            raise ValueError("no bikes")
        return self.inverse_speeds[-1]

    def sub_instance(self, k: int) -> "ProblemInstance":
        """Subproblem with the k fastest bikes and the same number of walkers."""
        if not 0 <= k <= self.bikes:
            raise ValueError(f"k={k} out of range [0, {self.bikes}]")
        return ProblemInstance(self.agents - self.bikes + k, self.inverse_speeds[:k])

    @cached_property
    def _label_speeds(self) -> tuple[list[int], int]:
        """The inverse speed of every label (0 walks) as ints over their lcm,
        and the lcm: the one integer speed table of every exact check."""
        return _integral((ONE, *self.inverse_speeds))


@dataclass(frozen=True)
class ScheduleMatrix:
    """An m x n grid of bike labels in {0, 1, ..., b}; 0 means walking.

    Construction only checks shape and non-negative integer labels so that the
    feasibility checker can report structural violations.  A feasible matrix
    additionally has each bike ridden by at most one agent per column, and
    ridden in column j-1 whenever it is ridden in column j > 1.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple([tuple(r) for r in self.rows])
        object.__setattr__(self, "rows", rows)
        if not rows or not rows[0]:
            raise ValueError("schedule matrix must have at least one row and column")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged schedule matrix")
            for label in r:
                if type(label) is not int or label < 0:
                    raise ValueError(f"bad bike label {label!r} in the matrix")

    @property
    def agents(self) -> int:
        return len(self.rows)

    @property
    def size(self) -> int:
        """Number of columns."""
        return len(self.rows[0])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple([r[j] for r in self.rows])

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.rows))

    def max_label(self) -> int:
        return max(max(r) for r in self.rows)

    def bikes_in_final_column(self) -> frozenset[int]:
        return frozenset(label for label in self.column(self.size - 1) if label != 0)


@dataclass(frozen=True)
class Schedule:
    """A partition of the interval plus a schedule matrix, optionally with a
    waiting matrix giving idle time spent after each sub-interval."""

    partition: tuple[Fraction, ...]
    matrix: ScheduleMatrix
    waits: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def __post_init__(self) -> None:
        part = _as_fractions(self.partition)
        object.__setattr__(self, "partition", part)
        if len(part) != self.matrix.size:
            raise ValueError(
                f"partition has {len(part)} entries but matrix has "
                f"{self.matrix.size} columns"
            )
        for x in part:
            if x.numerator < 0:
                raise ValueError(f"negative interval length {x}")
        if self.waits is not None:
            waits = tuple([_as_fractions(r) for r in self.waits])
            object.__setattr__(self, "waits", waits)
            if len(waits) != self.matrix.agents or any(
                len(r) != self.matrix.size for r in waits
            ):
                raise ValueError("waiting matrix shape does not match schedule")
            for r in waits:
                for w in r:
                    if w.numerator < 0:
                        raise ValueError(f"negative waiting time {w}")

    @property
    def agents(self) -> int:
        return self.matrix.agents

    @property
    def size(self) -> int:
        return self.matrix.size

    @property
    def length(self) -> Fraction:
        """Total length of the covered interval."""
        return sum(self.partition, ZERO)

    def wait(self, i: int, j: int) -> Fraction:
        return self.waits[i][j] if self.waits is not None else ZERO


@dataclass(frozen=True)
class CompletionProfile:
    """All partial completion times t[i][j], final times and the makespan."""

    partial: tuple[tuple[Fraction, ...], ...]
    final: tuple[Fraction, ...]
    makespan: Fraction


@dataclass(frozen=True)
class Violation:
    """One broken feasibility condition, located at agent/column (1-based).

    ``condition`` is 1 (a bike appears without having been ridden in the
    previous column), 2 (two agents ride one bike in the same column), or
    3 (an agent picks up a bike before its previous rider has arrived).
    """

    condition: int
    agent: int
    column: int


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class BoundCertificate:
    """The lower bounds accompanying a solver answer, and which one is tight.

    ``average`` is the average-completion bound for full bike delivery,
    ``one_abandoned`` the relaxed bound when the slowest bike may be dropped
    (present only for relaxed solves), ``slowest`` the inverse speed of the
    slowest bike (None when there are no bikes).  ``tight`` names the bound
    the schedule's makespan equals exactly, and ``value`` is that makespan.
    """

    average: Fraction
    slowest: Optional[Fraction]
    tight: str
    value: Fraction
    one_abandoned: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.tight not in (
            TIGHT_AVERAGE,
            TIGHT_SLOWEST,
            TIGHT_ONE_ABANDONED,
            TIGHT_SECOND_SLOWEST,
        ):
            raise ValueError(f"unknown bound tag {self.tight!r}")


def _integral(values) -> tuple[list[int], int]:
    """Fractions as integer numerators over their least common denominator."""
    den = lcm(*{q.denominator for q in values})
    return [q.numerator * (den // q.denominator) for q in values], den


def _fractions(ints, den: int) -> tuple[Fraction, ...]:
    """Integer numerators over one denominator as Fractions, the boundary
    form of every partition."""
    return tuple([Fraction(a, den) for a in ints])


def _arrivals(s: Schedule, inst: ProblemInstance) -> tuple[list[list[int]], int]:
    """Every partial arrival time t[i][j] as an int over one positive common
    denominator, and that denominator: the instance's label speed table
    over its lcm, times lengths and waits over theirs."""
    if s.agents != inst.agents:
        raise ValueError(f"schedule has {s.agents} rows but instance has {inst.agents} agents")
    if s.matrix.max_label() > inst.bikes:
        raise ValueError("matrix labels exceed the instance's bike count")
    speed, den = inst._label_speeds
    n = s.size
    waits = [w for row in s.waits for w in row] if s.waits is not None else []
    ints, x_den = _integral((*s.partition, *waits))
    steps = [[speed[c] * x for c, x in zip(row, ints)] for row in s.matrix.rows]
    if waits:
        for i, row in enumerate(steps, start=1):
            row[:] = [a + den * w for a, w in zip(row, ints[n * i : n * (i + 1)])]
    return [list(accumulate(r)) for r in steps], den * x_den


def completion_profile(s: Schedule, inst: ProblemInstance) -> CompletionProfile:
    """Exact partial and final completion times of every agent.

    Agent i's time to the end of sub-interval j is the running sum of
    (inverse speed) * (interval length) plus any waiting time, over
    sub-intervals 1..j.  The makespan is the latest final time.
    """
    ints, den = _arrivals(s, inst)
    partial = tuple([tuple([Fraction(t, den) for t in row]) for row in ints])
    final = tuple([row[-1] for row in partial])
    return CompletionProfile(partial, final, max(final))


def pickups(prev_col: Sequence[int], col: Sequence[int]) -> list[tuple[int, int]]:
    """Every bike handover between two consecutive columns, as 0-based
    ``(picker, dropper)`` rows in picker order.

    The picker rides a bike in ``col`` that the dropper -- the first agent
    riding it in ``prev_col`` -- rode just before.  Walkers, bikes absent
    from ``prev_col`` and riders keeping their own bike are skipped, so
    malformed columns are read without error.
    """
    return _pickups(_first_riders(prev_col), col)


def _first_riders(col: Sequence[int]) -> dict[int, int]:
    """The first row of ``col`` holding each label."""
    first: dict[int, int] = {}
    for row, label in enumerate(col):
        first.setdefault(label, row)
    return first


def _pickups(first: dict[int, int], col: Sequence[int]) -> list[tuple[int, int]]:
    """``pickups`` from the previous column's ``_first_riders``."""
    return [
        (picker, first[label])
        for picker, label in enumerate(col)
        if label != 0 and first.get(label, picker) != picker
    ]


def handovers(matrix: ScheduleMatrix) -> tuple[tuple[int, int, int], ...]:
    """Every bike handover of a matrix as a 0-based ``(picker, dropper,
    column)`` triple, column by column: the picker takes, at the start of
    ``column``, the bike the dropper rode in ``column - 1``."""
    cols = matrix.columns()
    return tuple([
        (picker, dropper, j)
        for j in range(1, len(cols))
        for picker, dropper in pickups(cols[j - 1], cols[j])
    ])


def structural_violations(matrix: ScheduleMatrix) -> list[Violation]:
    """The violations of conditions 1 and 2, which no partition can repair,
    in column-major order."""
    cols = matrix.columns()
    violations: list[Violation] = []
    for j, col in enumerate(cols):
        seen: set[int] = set()
        for i, label in enumerate(col):
            if label == 0:
                continue
            if label in seen:
                violations.append(Violation(2, i + 1, j + 1))
            seen.add(label)
            if j > 0 and label not in cols[j - 1]:
                violations.append(Violation(1, i + 1, j + 1))
    return violations


def check_feasible(s: Schedule, inst: ProblemInstance) -> FeasibilityReport:
    """Report every feasibility violation of a schedule (empty report = feasible).

    Checks, per column: (1) each ridden bike was ridden in the previous
    column, (2) no bike has two riders, (3) every pickup happens no earlier
    than the previous rider's arrival at the handover point.  Waiting times,
    if present, are included in the arrival times used for condition 3.
    """
    return FeasibilityReport(_violations(s.matrix, _arrivals(s, inst)[0]))


def _violations(matrix: ScheduleMatrix, partial) -> tuple[Violation, ...]:
    violations = structural_violations(matrix)
    violations += (
        Violation(3, picker + 1, col + 1)
        for picker, dropper, col in handovers(matrix)
        if partial[dropper][col - 1] > partial[picker][col - 1]
    )
    violations.sort(key=lambda v: (v.column, v.agent))
    return tuple(violations)


def verify_answer(
    s: Schedule, inst: ProblemInstance, cert: BoundCertificate, abandoned: tuple = ()
) -> None:
    """Raise ``ContractError`` unless a solver answer covers [0, 1], meets
    conditions 1-3, has no more columns than agents, has makespan
    ``cert.value``, and reports as ``abandoned`` exactly the ``(bike,
    position)`` pairs of the bikes ridden less than the whole interval, no
    more of them than the instance's abandonment limit."""
    x, x_den = _integral(s.partition)
    if sum(x) != x_den:
        raise ContractError(f"solver answer covers length {s.length}, not 1")
    partial, den = _arrivals(s, inst)
    broken = _violations(s.matrix, partial)
    if broken:
        raise ContractError(f"solver answer is infeasible: {broken}")
    if s.size > inst.agents:
        raise ContractError(f"solver answer has {s.size} columns > {inst.agents} agents")
    last = max([row[-1] for row in partial])
    if last * cert.value.denominator != cert.value.numerator * den:
        raise ContractError(f"makespan {Fraction(last, den)} is not the {cert.tight} bound")
    usage = _usage(s.matrix, x, inst.bikes)
    left = tuple([(bike, Fraction(y, x_den)) for bike, y in enumerate(usage, 1) if y < x_den])
    if abandoned != left or len(left) > inst.abandonment_limit:
        raise ContractError(
            f"abandoned {abandoned} (limit {inst.abandonment_limit}), "
            f"usage {_fractions(usage, x_den)}"
        )


def _usage(matrix: ScheduleMatrix, x: Sequence[int], bikes: int) -> list[int]:
    """How far each bike is ridden, over the denominator of the integer
    lengths ``x``."""
    totals = [0] * (bikes + 1)
    for row in matrix.rows:
        for label, a in zip(row, x):
            totals[label] += a
    return totals[1:]


def abandonment_vector(s: Schedule, inst: ProblemInstance) -> tuple[Fraction, ...]:
    """Total distance each bike is ridden; an entry < 1 means the bike is
    abandoned at that position."""
    if s.matrix.max_label() > inst.bikes:
        raise ValueError("matrix labels exceed the instance's bike count")
    x, den = _integral(s.partition)
    return _fractions(_usage(s.matrix, x, inst.bikes), den)


def _average_numerator(speed: Sequence[int], den: int, agents: int, k: int) -> int:
    """The average bound of ``agents`` agents with the k fastest bikes of the
    speed table ``(speed, den)``, times ``agents * den``."""
    return agents * den - sum([den - s for s in speed[1 : k + 1]])


def average_bound(
    inst: ProblemInstance, usage: Optional[Sequence[RationalLike]] = None
) -> Fraction:
    """Average-completion lower bound on the makespan.

    Summing every agent's travel time and dividing by m gives a bound the
    best schedule can at most match: 1 - (1/m) * sum_k (1 - u_k) * y_k, where
    y_k is the distance bike k is ridden.  With ``usage`` omitted every bike
    is assumed to ride the whole interval (the full-delivery bound), read
    off the integer speed table.
    """
    m = inst.agents
    if usage is None:
        speed, den = inst._label_speeds
        return Fraction(_average_numerator(speed, den, m, inst.bikes), m * den)
    y = _as_fractions(usage)
    if len(y) != inst.bikes:
        raise ValueError(f"usage vector has {len(y)} entries for {inst.bikes} bikes")
    for yk in y:
        if not ZERO <= yk <= ONE:
            raise ValueError(f"usage {yk} outside [0, 1]")
    saved = sum(((ONE - uk) * yk for uk, yk in zip(inst.inverse_speeds, y)), ZERO)
    return ONE - saved / m


def one_abandonment_bound(inst: ProblemInstance) -> tuple[Fraction, Fraction]:
    """Lower bound when one bike (the slowest) may be abandoned.

    Returns ``(bound, y_star)`` where y_star is the abandonment position that
    balances the two competing bounds: the average bound with the slowest
    bike ridden only up to y, which falls as y grows, and the abandoning
    agent's own time y*u_b + (1-y)*u_1, which rises.  If the slowest bike is
    not a bottleneck (u_b <= full-delivery bound) the full-delivery bound is
    returned with y_star = 1.

    Over the integer speed table (s_k = den * u_k), with A the average bound
    ignoring the slowest bike times m * den, y_star = (A - m s_1) / (m (s_b -
    s_1) + den - s_b), whose denominator is positive as s_b < den.
    """
    b = inst.bikes
    if b == 0:
        raise ValueError("bound requires at least one bike")
    m = inst.agents
    speed, den = inst._label_speeds
    full = _average_numerator(speed, den, m, b)
    s1, sb = speed[1], speed[b]
    if m * sb <= full:
        return Fraction(full, m * den), ONE
    rise = m * (sb - s1) + den - sb
    num = _average_numerator(speed, den, m, b - 1) - m * s1
    return Fraction(s1 * rise + num * (sb - s1), rise * den), Fraction(num, rise)
