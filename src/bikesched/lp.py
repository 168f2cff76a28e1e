"""Exact linear programming for the induced partition of a schedule matrix.

For a fixed matrix M the best partition solves a small LP: minimize the
makespan tau subject to tau >= t_i for every agent, a pickup-ordering row for
every bike handover, x_j >= 0 and sum x_j = 1.  The solver below is a
one-phase tableau simplex over exact rationals with Bland's rule (lowest-index
entering column, lowest-index leaving basic variable on ratio ties), which
cannot cycle (Bland 1977), so it always terminates at an optimal *vertex* of
the feasible region -- the schedule reduction argument counts tight
constraints at a vertex, so returning any old optimal point would not do.

No phase 1 is needed, because one vertex is always feasible: all length in
the last column, with tau the slowest agent's inverse speed there.  No pickup
row has a last-column term, so that point meets each pickup row with
equality, and two pivots reach its basis.  Every LP is solved in one shot
with all of its pickup rows.

One kernel does all elimination.  ``_pivot`` is the Gauss-Jordan step; the
tableau carries its objective row (reduced costs, then minus the objective
value) as its last row, so a pivot updates it like any other row, the two
start pivots included.  ``_reduce`` clears the pivot columns from each row
added to the echelon of tight constraints behind ``vertex_from_point`` and
``tight_constraint_rank``, which ``_pivot`` then keeps fully reduced.

A broken solver contract raises ``LPContractError`` (a ``ContractError``),
never ``assert``, so the checks also run under ``python -O``.

All arithmetic is exact ``fractions.Fraction`` arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .model import (
    ONE,
    ZERO,
    ContractError,
    ProblemInstance,
    ScheduleMatrix,
    handovers,
    structural_violations,
)

# The one arithmetic type; the benchmark prints this name as its backend.
_Q = Fraction


class LPContractError(ContractError):
    """A guarantee of the partition LP failed: a bug, not bad input."""


@dataclass(frozen=True)
class PartitionLP:
    """The constraint system for one schedule matrix.

    Variables are the n interval lengths plus the makespan.  ``speed_rows``
    holds the induced inverse speeds (one row per agent); ``switches`` holds
    one ``(picker, dropper, column)`` triple per bike handover, all 0-based:
    the picker takes, at the start of ``column``, the bike the dropper rode in
    ``column - 1``, which requires the dropper to arrive there first.
    """

    n: int
    speed_rows: tuple[tuple[Fraction, ...], ...]
    switches: tuple[tuple[int, int, int], ...]

    @property
    def agents(self) -> int:
        return len(self.speed_rows)

    def switch_coeffs(self, r: int) -> tuple[Fraction, ...]:
        """Coefficients over x of pickup row r, as "picker time - dropper time"
        at the handover boundary (feasible when >= 0)."""
        picker, dropper, col = self.switches[r]
        p, d = self.speed_rows[picker], self.speed_rows[dropper]
        return tuple(p[k] - d[k] for k in range(col)) + (ZERO,) * (self.n - col)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Every inequality as a row a over (x, tau) with a . (x, tau) >= 0:
        tau - t_i for each agent, then each pickup row with no tau term."""
        agents = tuple(tuple(-c for c in row) + (ONE,) for row in self.speed_rows)
        pickups = tuple(self.switch_coeffs(r) + (ZERO,) for r in range(len(self.switches)))
        return agents + pickups


def build_lp(matrix: ScheduleMatrix, inst: ProblemInstance) -> PartitionLP:
    """Collect the LP constraint system for a matrix.

    Rejects matrices with a bike ridden twice in one column or appearing out
    of nowhere; those have no feasible partition at all.
    """
    broken = structural_violations(matrix)
    if broken:
        raise ValueError(f"no partition makes this matrix feasible: {broken}")
    return PartitionLP(matrix.size, matrix.induced_speeds(inst), handovers(matrix))


def solve_partition(
    matrix: ScheduleMatrix, inst: ProblemInstance
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Optimal partition for a fixed matrix: ``(x, makespan)``, both exact.

    The returned x is an optimal basic feasible solution (a vertex).
    Deterministic: identical inputs give identical outputs.
    """
    return solve_lp(build_lp(matrix, inst))


def solve_lp(lp: PartitionLP) -> tuple[tuple[Fraction, ...], Fraction]:
    """Minimize tau by Bland's rule from the final-column vertex.

    Tableau columns: x, tau, one slack per agent row and per pickup row, then
    the right-hand side.  A row a . (x, tau) >= 0 is written
    -a . (x, tau) + slack = 0: s_i . x - tau + slack for agent i, and
    -switch_coeffs . x + slack for a pickup row.  The last constraint row is
    sum x = 1, and the objective row (min tau) comes after it.
    """
    n, m = lp.n, lp.agents
    n_ineq = m + len(lp.switches)
    width = n + 1 + n_ineq + 1
    rows: list[list] = []
    for i, speeds in enumerate(lp.speed_rows):
        row = [*speeds, -ONE] + [ZERO] * (n_ineq + 1)
        row[n + 1 + i] = ONE
        rows.append(row)
    for r in range(len(lp.switches)):
        row = [-c if c else c for c in lp.switch_coeffs(r)] + [ZERO] * (n_ineq + 2)
        row[n + 1 + m + r] = ONE
        rows.append(row)
    rows.append([ONE] * n + [ZERO] * (n_ineq + 1) + [ONE])
    rows.append(_unit_row(n, width))
    basis = list(range(n + 1, n + 1 + n_ineq)) + [n - 1]

    # x_last enters the sum row; no pickup row has a last-column term, so only
    # the agent rows change.  tau then enters the row of the agent slowest in
    # the last column, which leaves every other agent row's slack >= 0.
    _pivot(rows, basis, n_ineq, n - 1)
    slowest = max(range(m), key=lambda i: lp.speed_rows[i][n - 1])
    _pivot(rows, basis, slowest, n)
    if any(rows[r][-1] < 0 for r in range(n_ineq + 1)):
        raise LPContractError("the final-column start is not feasible")

    z = rows[-1]
    while True:
        enter = next((j for j in range(width - 1) if z[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        best = None
        for r in range(n_ineq + 1):
            row = rows[r]
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            raise LPContractError("the partition LP is unbounded")
        _pivot(rows, basis, leave, enter)

    solution = [ZERO] * (n + 1)
    for r, b in enumerate(basis):
        if b <= n:
            solution[b] = rows[r][-1]
    return tuple(solution[:n]), solution[n]


def _dot(row, v) -> Fraction:
    return sum((a * b for a, b in zip(row, v) if a != 0), ZERO)


def _pivot(rows, basis, leave, enter):
    """Gauss-Jordan step: scale ``rows[leave]`` to a 1 in column ``enter``
    and clear that column from every other row, objective row included."""
    piv_row = rows[leave]
    p = piv_row[enter]
    if p != 1:
        inv = 1 / p
        rows[leave] = piv_row = [a * inv if a != 0 else a for a in piv_row]
    # Pivot rows are mostly zeros, and a - f*0 == a exactly: updating only the
    # nonzero columns leaves every tableau the same as a dense update.
    nonzero = [(j, a) for j, a in enumerate(piv_row) if a != 0]
    for r, row in enumerate(rows):
        if r == leave:
            continue
        f = row[enter]
        if f != 0:
            for j, a in nonzero:
                row[j] -= f * a
    basis[leave] = enter


def _reduce(row, rows, pivots) -> None:
    """Clear every pivot column from ``row`` in place; ``rows[r]`` has a 1 in
    column ``pivots[r]`` and a 0 in every other pivot column."""
    for piv_row, col in zip(rows, pivots):
        f = row[col]
        if f != 0:
            for j, a in enumerate(piv_row):
                if a != 0:
                    row[j] -= f * a


def vertex_from_point(
    lp: PartitionLP, x: tuple[Fraction, ...], tau: Fraction
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Slide a feasible point to a vertex without increasing the makespan.

    While fewer than n + 1 independent constraints are tight, there is a
    direction that keeps every tight constraint tight; following it (oriented
    so the makespan cannot grow) hits a slack constraint.  Every tight row
    has slope 0 along it, so when it leaves x fixed a slack agent row blocks
    it (tau falls), and otherwise some x_j > 0 shrinks.  Each hit adds an
    independent tight row, so at most n + 1 exact ratio steps reach a
    vertex; no simplex, no stalling.

    Used by the schedule reducer in every round: the size argument only
    needs vertex-ness, not re-optimization.
    """
    n = lp.n
    width = n + 1
    rows = lp.rows
    v = list(x) + [tau]
    echelon, pivots, values = _tight_echelon(lp, v)

    while len(echelon) < width:
        free = next(c for c in range(width) if c not in pivots)
        d = [ZERO] * width
        d[free] = ONE
        for piv_row, col in zip(echelon, pivots):
            d[col] = -piv_row[free]
        if d[n] > 0:
            d = [-a for a in d]
        slopes = [ZERO] * len(rows)
        step = None
        hit_rows: list[int] = []
        hit_units: list[int] = []
        for r, row in enumerate(rows):
            slope = ZERO
            for a, b in zip(row, d):
                if a != 0 and b != 0:
                    slope += a * b
            slopes[r] = slope
            if slope < 0 and values[r] > 0:
                ratio = values[r] / -slope
                if step is None or ratio < step:
                    step, hit_rows, hit_units = ratio, [r], []
                elif ratio == step:
                    hit_rows.append(r)
        for j in range(n):
            if d[j] < 0 and v[j] > 0:
                ratio = v[j] / -d[j]
                if step is None or ratio < step:
                    step, hit_rows, hit_units = ratio, [], [j]
                elif ratio == step:
                    hit_units.append(j)
        if step is None or step <= 0:
            raise LPContractError("nothing blocks the slide from a feasible point")
        v = [a + step * b for a, b in zip(v, d)]
        values = [val + step * sl for val, sl in zip(values, slopes)]
        for r in hit_rows:
            _absorb(echelon, pivots, rows[r])
        for j in hit_units:
            _absorb(echelon, pivots, _unit_row(j, width))

    return tuple(v[:n]), v[n]


def _tight_echelon(lp: PartitionLP, v: list[Fraction]) -> tuple[list, list, list]:
    """The echelon of every constraint tight at ``v`` = (x, tau) as its rows
    and their pivot columns, and the value of each row of ``lp.rows`` there.
    The simplex equality sum x = 1 is a permanently tight row; x_j >= 0 is
    tight through a unit row when x_j = 0."""
    n = lp.n
    echelon: list[list] = []
    pivots: list[int] = []
    _absorb(echelon, pivots, [ONE] * n + [ZERO])  # sum x = 1
    values = [_dot(row, v) for row in lp.rows]
    for row, val in zip(lp.rows, values):
        if val == 0:
            _absorb(echelon, pivots, row)
    for j in range(n):
        if v[j] == 0:
            _absorb(echelon, pivots, _unit_row(j, n + 1))
    return echelon, pivots, values


def _absorb(echelon: list[list], pivots: list[int], row) -> None:
    """Add a row to a fully reduced echelon, whose row r has a leading 1 in
    column ``pivots[r]`` and zeros in every other pivot column.  A row
    dependent on the echelon leaves it unchanged."""
    row = list(row)
    _reduce(row, echelon, pivots)
    lead = next((c for c, a in enumerate(row) if a != 0), None)
    if lead is None:
        return
    echelon.append(row)
    pivots.append(lead)
    _pivot(echelon, pivots, len(echelon) - 1, lead)


def _unit_row(j: int, width: int) -> list[Fraction]:
    row = [ZERO] * width
    row[j] = ONE
    return row


def tight_constraint_rank(
    lp: PartitionLP, x: tuple[Fraction, ...], tau: Fraction
) -> int:
    """Rank of the constraints satisfied with equality at ``(x, tau)``.

    The solution is a basic feasible solution (vertex) exactly when this rank
    equals the variable count n + 1.
    """
    echelon, _pivots, _values = _tight_echelon(lp, list(x) + [tau])
    return len(echelon)


def is_vertex(lp: PartitionLP, x: tuple[Fraction, ...], tau: Fraction) -> bool:
    return tight_constraint_rank(lp, x, tau) == lp.n + 1


def satisfies_all_constraints(
    lp: PartitionLP, x: tuple[Fraction, ...], tau: Fraction
) -> bool:
    """Exact feasibility of ``(x, tau)`` for the full constraint system."""
    if len(x) != lp.n or any(xj < 0 for xj in x):
        return False
    if sum(x, ZERO) != 1:
        return False
    v = list(x) + [tau]
    return all(_dot(row, v) >= 0 for row in lp.rows)
