"""Shared test helpers: deterministic random instances, matrices, schedules."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from bikesched import ProblemInstance, Schedule, ScheduleMatrix, solve_partition

# Every run draws the same examples: no random seed, no example database
# carried between runs, and no per-example deadline on a loaded machine.
settings.register_profile("bikesched", derandomize=True, database=None, deadline=None)
settings.load_profile("bikesched")


def random_instance(
    rng: random.Random,
    max_agents: int = 10,
    limit: int = 0,
    min_agents: int = 1,
    max_bikes: int | None = None,
) -> ProblemInstance:
    m = rng.randint(min_agents, max_agents)
    b_cap = m if max_bikes is None else min(m, max_bikes)
    b = rng.randint(0, b_cap)
    us = []
    for _ in range(b):
        q = rng.randint(2, 24)
        us.append(Fraction(rng.randint(1, q - 1), q))
    return ProblemInstance(m, tuple(sorted(us)), abandonment_limit=limit)


def random_full_matrix(rng: random.Random, inst: ProblemInstance, n: int) -> ScheduleMatrix:
    """A structurally valid matrix with every bike ridden in every column."""
    m, b = inst.agents, inst.bikes
    cols = []
    for _ in range(n):
        riders = rng.sample(range(m), b)
        col = [0] * m
        for bike, row in enumerate(riders, start=1):
            col[row] = bike
        cols.append(col)
    return ScheduleMatrix(tuple(tuple(col[i] for col in cols) for i in range(m)))


def random_feasible_schedule(rng: random.Random, inst: ProblemInstance) -> Schedule:
    """A feasible schedule: random full matrix, LP-induced partition."""
    n = rng.randint(1, max(1, inst.agents))
    matrix = random_full_matrix(rng, inst, n)
    x, _ = solve_partition(matrix, inst)
    return Schedule(x, matrix)


def fraction_arrivals(s: Schedule, inst: ProblemInstance) -> list[list[Fraction]]:
    """Every partial arrival time as a ``Fraction`` running sum, cell by
    cell: the reference for the package's integer arrival profile."""
    speed = (Fraction(1),) + inst.inverse_speeds
    out = []
    for i, row in enumerate(s.matrix.rows):
        t = Fraction(0)
        times = []
        for j, label in enumerate(row):
            t += speed[label] * s.partition[j]
            if s.waits is not None:
                t += s.waits[i][j]
            times.append(t)
        out.append(times)
    return out


def reference_reading(s: Schedule, inst: ProblemInstance):
    """Handovers and violations read straight off the matrix, cell by cell.

    The dropper of a pickup is the first agent riding the bike in the
    previous column; when that agent is the rider, the bike is kept, not
    handed over.  Returns ``(handovers, violations)``: 0-based ``(picker,
    dropper, column)`` and 1-based ``(condition, agent, column)`` triples,
    both in column-major order.
    """
    rows = s.matrix.rows
    m, n = s.agents, s.size
    partial = fraction_arrivals(s, inst)
    handovers, violations = [], []
    for j in range(n):
        for i in range(m):
            label = rows[i][j]
            if label == 0:
                continue
            if any(rows[r][j] == label for r in range(i)):
                violations.append((2, i + 1, j + 1))
            if j == 0:
                continue
            riders = [r for r in range(m) if rows[r][j - 1] == label]
            if not riders:
                violations.append((1, i + 1, j + 1))
            elif riders[0] != i:
                handovers.append((i, riders[0], j))
                if partial[riders[0]][j - 1] > partial[i][j - 1]:
                    violations.append((3, i + 1, j + 1))
    return handovers, violations


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xB1CE5)
