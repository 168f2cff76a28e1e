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

One fraction-free kernel does all elimination, on Python ints (Edmonds 1967;
Bareiss 1968).  ``PartitionLP`` holds the inverse speeds s as ints over
one scale, the lcm of the instance's denominators (``ProblemInstance``
keeps that table).  An agent row is then scale * tau - S_i(n) and a
pickup row S_p(col) - S_d(col), in the prefix sums S_i(c) = sum_{k<c} s_ik
x_k, so ``row_values`` evaluates all R rows in O(m n + R), for the slide and
the feasibility check; the dense ``int_rows`` serve the simplex and the
tight rows an echelon absorbs.  Every row of
a tableau or echelon is an integer equation, known up to a positive factor,
whose basic or pivot coefficient is positive.  ``_eliminate`` clears a column
from a row by cross-multiplying with the pivot row and divides the result by
the gcd of its entries; ``_pivot`` applies it to every other row of the
simplex tableau (whose last row is the objective: reduced costs, then minus
the objective value) and of the echelon of tight constraints behind
``vertex_from_point`` and ``tight_constraint_rank``.  Every decision depends
only on signs and on ratios compared by cross-multiplication, which positive
row factors leave alone, so the pivots and answers are those of exact
rational elimination.  ``Fraction`` appears only at the boundary: start
points come in as ``Fraction``, answers go out as ``Fraction`` in lowest
terms.

A broken solver contract raises ``LPContractError`` (a ``ContractError``),
never ``assert``, so the checks also run under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from operator import mul

from .model import (
    ZERO,
    ContractError,
    ProblemInstance,
    ScheduleMatrix,
    _integral,
    handovers,
    structural_violations,
)

# The exact type of every LP input and answer; the benchmark prints this name
# as its backend.
_Q = Fraction


class LPContractError(ContractError):
    """A guarantee of the partition LP failed: a bug, not bad input."""


@dataclass(frozen=True)
class PartitionLP:
    """The constraint system for one schedule matrix.

    Variables are the n interval lengths plus the makespan.  ``speeds``
    holds the induced inverse speeds (one row per agent) as ints over
    ``scale``; ``switches`` holds one ``(picker, dropper, column)`` triple
    per bike handover, all 0-based: the picker takes, at the start of
    ``column``, the bike the dropper rode in ``column - 1``, which requires
    the dropper to arrive there first.
    """

    n: int
    speeds: tuple[tuple[int, ...], ...]
    scale: int
    switches: tuple[tuple[int, int, int], ...]

    @property
    def agents(self) -> int:
        return len(self.speeds)

    @cached_property
    def int_rows(self) -> list[list[int]]:
        """Every inequality as an integer row a over (x, tau) with
        a . (x, tau) >= 0: tau - t_i for each agent, then for each handover
        the picker's time minus the dropper's at its column, which has no tau
        term, scaled by ``scale``."""
        s, scale = self.speeds, self.scale
        agents = [[-c for c in row] + [scale] for row in s]
        pickups = [
            [s[p][k] - s[d][k] for k in range(col)] + [0] * (self.n - col + 1)
            for p, d, col in self.switches
        ]
        return agents + pickups

    def row_values(self, v) -> list[int]:
        """``int_rows . v`` at an integer vector v over (x, tau), from agent prefix sums."""
        sums = [list(accumulate(map(mul, row, v), initial=0)) for row in self.speeds]
        n, tau = self.n, self.scale * v[self.n]
        return [tau - si[n] for si in sums] + [sums[p][c] - sums[d][c] for p, d, c in self.switches]


def build_lp(matrix: ScheduleMatrix, inst: ProblemInstance) -> PartitionLP:
    """Collect the LP constraint system for a matrix.

    Rejects matrices with a bike ridden twice in one column or appearing out
    of nowhere, which have no feasible partition at all, and labels above
    the instance's bike count.  The speeds are read off the instance's
    integer label speed table.
    """
    broken = structural_violations(matrix)
    if broken:
        raise ValueError(f"no partition makes this matrix feasible: {broken}")
    if matrix.max_label() > inst.bikes:
        raise ValueError(f"bike label {matrix.max_label()} out of range [0, {inst.bikes}]")
    speed, scale = inst._label_speeds
    speeds = tuple([tuple([speed[c] for c in r]) for r in matrix.rows])
    return PartitionLP(matrix.size, speeds, scale, handovers(matrix))


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
    the right-hand side.  A row a . (x, tau) >= 0 of ``int_rows`` is written
    -a . (x, tau) + slack = 0.  The last constraint row is sum x = 1, and the
    objective row (min tau) comes after it.
    """
    n, m = lp.n, lp.agents
    n_ineq = len(lp.int_rows)
    width = n + 1 + n_ineq + 1
    rows: list[list[int]] = []
    for r, a in enumerate(lp.int_rows):
        row = [-c for c in a] + [0] * (n_ineq + 1)
        row[n + 1 + r] = 1
        rows.append(row)
    rows.append([1] * n + [0] * (n_ineq + 1) + [1])
    rows.append(_unit_row(n, width))
    basis = list(range(n + 1, n + 1 + n_ineq)) + [n - 1]

    # x_last enters the sum row; no pickup row has a last-column term, so only
    # the agent rows change.  tau then enters the row of the agent slowest in
    # the last column, which leaves every other agent row's slack >= 0.
    _pivot(rows, basis, n_ineq, n - 1)
    slowest = max(range(m), key=lambda i: lp.speeds[i][n - 1])
    _pivot(rows, basis, slowest, n)
    if any(rows[r][-1] < 0 for r in range(n_ineq + 1)):
        raise LPContractError("the final-column start is not feasible")

    while True:
        z = rows[-1]
        enter = next((j for j in range(width - 1) if z[j] < 0), -1)
        if enter < 0:
            break
        # Bland's ratio test: the least rhs / a over rows with a > 0, by
        # cross-multiplication; ties go to the lowest basic variable.
        leave = -1
        for r in range(n_ineq + 1):
            a = rows[r][enter]
            if a > 0:
                if leave >= 0:
                    cross = rows[r][-1] * rows[leave][enter] - rows[leave][-1] * a
                    if cross > 0 or (cross == 0 and basis[r] > basis[leave]):
                        continue
                leave = r
        if leave < 0:
            raise LPContractError("the partition LP is unbounded")
        _pivot(rows, basis, leave, enter)

    solution = [ZERO] * (n + 1)
    for r, b in enumerate(basis):
        if b <= n:
            solution[b] = Fraction(rows[r][-1], rows[r][b])
    return tuple(solution[:n]), solution[n]


def _eliminate(row, piv, col, nonzero) -> list[int]:
    """``row`` with column ``col`` cleared by ``piv``, whose entry there is
    positive: p * row - f * piv, divided by the gcd of its entries.  The
    factor p > 0 keeps the sign of every basic or pivot coefficient.  Pivot
    rows are mostly zeros, so only their ``nonzero`` (column, entry) pairs
    are subtracted."""
    p, f = piv[col], row[col]
    out = [p * a for a in row] if p != 1 else list(row)
    for j, b in nonzero:
        out[j] -= f * b
    g = gcd(*out)
    return [a // g for a in out] if g > 1 else out


def _nonzero(row) -> list[tuple[int, int]]:
    return [(j, b) for j, b in enumerate(row) if b]


def _pivot(rows, basis, leave, enter) -> None:
    """Make column ``enter`` basic in ``rows[leave]``: negate that row if its
    entry there is negative, then clear the column from every other row."""
    piv = rows[leave]
    if piv[enter] < 0:
        rows[leave] = piv = [-a for a in piv]
    nonzero = _nonzero(piv)
    for r, row in enumerate(rows):
        if row[enter] and r != leave:
            rows[r] = _eliminate(row, piv, enter, nonzero)
    basis[leave] = enter


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

    The point is carried as integers ``v`` over one positive denominator
    ``den``, and each row's value at it as ``values`` = ``int_rows`` . v.

    Used by the schedule reducer in every round: the size argument only
    needs vertex-ness, not re-optimization.
    """
    n = lp.n
    width = n + 1
    rows = lp.int_rows
    v, den = _integral((*x, tau))
    echelon, pivots, values = _tight_echelon(lp, v)

    while len(echelon) < width:
        # The kernel direction with d[free] > 0 and 0 in every other free
        # column, scaled to integers.
        free = next(c for c in range(width) if c not in pivots)
        scale = lcm(*[row[col] for row, col in zip(echelon, pivots) if row[free]])
        d = [0] * width
        d[free] = scale
        for row, col in zip(echelon, pivots):
            d[col] = -row[free] * (scale // row[col])
        if d[n] > 0:
            d = [-a for a in d]
        slopes = lp.row_values(d)
        # Blockers: slack rows, then x_j >= 0, each falling at rate -slope.
        level = values + v[:n]
        rate = slopes + d[:n]
        blockers = [k for k, s in enumerate(rate) if s < 0 < level[k]]
        if not blockers:
            raise LPContractError("nothing blocks the slide from a feasible point")
        # The step is num / q (times 1 / den); the first smallest ratio wins.
        num, q = level[blockers[0]], -rate[blockers[0]]
        for k in blockers:
            if level[k] * q < num * -rate[k]:
                num, q = level[k], -rate[k]
        v = [q * a + num * b for a, b in zip(v, d)]
        values = [q * a + num * b for a, b in zip(values, slopes)]
        den *= q
        g = gcd(den, *v)
        if g > 1:
            v, values, den = [a // g for a in v], [a // g for a in values], den // g
        for k in blockers:
            if level[k] * q == num * -rate[k]:
                hit = rows[k] if k < len(rows) else _unit_row(k - len(rows), width)
                _absorb(echelon, pivots, hit)

    return tuple([Fraction(a, den) for a in v[:n]]), Fraction(v[n], den)


def _tight_echelon(lp: PartitionLP, v: list[int]) -> tuple[list, list, list]:
    """The echelon of every constraint tight at the integer point ``v`` (any
    positive multiple of (x, tau)) as its rows and their pivot columns, and
    the value of each row of ``lp.int_rows`` there.  The simplex equality
    sum x = 1 is a permanently tight row; x_j >= 0 is tight through a unit
    row when x_j = 0."""
    n = lp.n
    echelon: list[list[int]] = []
    pivots: list[int] = []
    _absorb(echelon, pivots, [1] * n + [0])  # sum x = 1
    values = lp.row_values(v)
    for row, val in zip(lp.int_rows, values):
        if val == 0:
            _absorb(echelon, pivots, row)
    for j in range(n):
        if v[j] == 0:
            _absorb(echelon, pivots, _unit_row(j, n + 1))
    return echelon, pivots, values


def _absorb(echelon: list, pivots: list[int], row) -> None:
    """Add a row to a fully reduced echelon, whose row r has a positive entry
    in column ``pivots[r]`` and zeros in every other pivot column.  A row
    dependent on the echelon leaves it unchanged."""
    for piv, col in zip(echelon, pivots):
        if row[col]:
            row = _eliminate(row, piv, col, _nonzero(piv))
    lead = next((c for c, a in enumerate(row) if a), None)
    if lead is None:
        return
    echelon.append(row)
    pivots.append(lead)
    _pivot(echelon, pivots, len(echelon) - 1, lead)


def _unit_row(j: int, width: int) -> list[int]:
    row = [0] * width
    row[j] = 1
    return row


def tight_constraint_rank(
    lp: PartitionLP, x: tuple[Fraction, ...], tau: Fraction
) -> int:
    """Rank of the constraints satisfied with equality at ``(x, tau)``.

    The solution is a basic feasible solution (vertex) exactly when this rank
    equals the variable count n + 1.
    """
    v, _den = _integral((*x, tau))
    echelon, _pivots, _values = _tight_echelon(lp, v)
    return len(echelon)


def is_vertex(lp: PartitionLP, x: tuple[Fraction, ...], tau: Fraction) -> bool:
    return tight_constraint_rank(lp, x, tau) == lp.n + 1


def satisfies_all_constraints(
    lp: PartitionLP, x: tuple[Fraction, ...], tau: Fraction
) -> bool:
    """Exact feasibility of ``(x, tau)`` for the full constraint system."""
    if len(x) != lp.n:
        return False
    v, den = _integral((*x, tau))
    x_ints = v[: lp.n]
    return min(x_ints) >= 0 and sum(x_ints) == den and min(lp.row_values(v)) >= 0
