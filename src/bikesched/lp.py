"""Exact linear programming for the induced partition of a schedule matrix.

For a fixed matrix M the best partition solves a small LP: minimize the
makespan tau subject to tau >= t_i for every agent, a pickup-ordering row for
every bike handover, x_j >= 0 and sum x_j = 1.  The solver below is a
one-phase simplex over exact rationals with Bland's rule (lowest-index
entering column, lowest-index leaving basic variable on ratio ties), which
cannot cycle (Bland 1977), so it always terminates at an optimal *vertex* of
the feasible region -- the schedule reduction argument counts tight
constraints at a vertex, so returning any old optimal point would not do.

No phase 1 is needed, because one vertex is always feasible: all length in
the last column, with tau the slowest agent's inverse speed there.  No pickup
row has a last-column term, so that point meets each pickup row with
equality, and two pivots reach its basis.  Every LP is solved in one shot
with all of its pickup rows.

``PartitionLP`` holds the inverse speeds s as ints over one scale, the lcm
of the instance's denominators (``ProblemInstance`` keeps that table).  An
agent row is then scale * tau - S_i(n) and a pickup row S_p(col) - S_d(col),
in the prefix sums S_i(c) = sum_{k<c} s_ik x_k, so ``row_values`` evaluates
all R rows in O(m n + R), for the slide and the feasibility check; the dense
``int_rows`` serve the simplex and the tight rows an echelon absorbs.

One fraction-free kernel, ``_pivot``, does all elimination on Python ints
(Edmonds 1967; Bareiss 1968), in dictionary form (Chvatal 1983, ch. 2-3):
a row keeps its positive pivot entry (its head) and its entries in the free
(non-pivot) columns, a list all rows share, with the simplex's right-hand
side last.  A pivot drops the entering column's slot (the simplex's start on
its sum row; each row the echelon of tight constraints absorbs) or hands it
to the leaving basic column (a simplex pivot), and takes every other row to
head * row - f * pivot row, divided by the gcd of its slots and head; no
work goes to the zeros in pivot columns, the simplex's basic slacks among
them.  Every decision depends only on signs and on ratios compared by
cross-multiplication, which positive row factors leave alone, so the pivots
and answers are those of exact rational elimination.  ``Fraction`` appears
only at the boundary: start points come in as ``Fraction``, answers go out
as ``Fraction`` in lowest terms.

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

    Columns: x, tau, one slack per agent and pickup row, and the right-hand
    side.  A row a of ``int_rows`` is -a . (x, tau) + slack = 0, its slack
    basic; the sum row sum x = 1 has no basic column yet, and the objective
    row (reduced costs, then minus the value of min tau) comes last.
    """
    n, m, n_ineq = lp.n, lp.agents, len(lp.int_rows)
    rows = [[-c for c in a] + [0] for a in lp.int_rows]
    rows += [[1] * n + [0, 1], [0] * n + [1, 0]]
    heads = [1] * n_ineq + [0, 0]
    basis = list(range(n + 1, n + 1 + n_ineq)) + [-1, -1]
    free = list(range(n + 1)) + [n + 1 + n_ineq]

    # x_last enters the sum row; no pickup row has a last-column term, so only
    # the agent rows change.  tau (now slot n - 1) then enters the row of the
    # agent slowest in the last column: every other agent's slack stays >= 0.
    _pivot(rows, heads, basis, free, n_ineq, n - 1, drop=True)
    slowest = max(range(m), key=lambda i: lp.speeds[i][n - 1])
    _pivot(rows, heads, basis, free, slowest, n - 1)
    if any(rows[r][-1] < 0 for r in range(n_ineq + 1)):
        raise LPContractError("the final-column start is not feasible")

    while True:
        negative = [k for k, c in zip(range(len(free) - 1), rows[-1]) if c < 0]
        if not negative:
            break
        enter = min(negative, key=free.__getitem__)
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
        _pivot(rows, heads, basis, free, leave, enter)

    solution = [ZERO] * (n + 1)
    for r, b in enumerate(basis):
        if 0 <= b <= n:
            solution[b] = Fraction(rows[r][-1], heads[r])
    return tuple(solution[:n]), solution[n]


def _pivot(rows, heads, basis, free, r, k, drop=False) -> None:
    """Make column ``free[k]`` basic in ``rows[r]``, negated first if its
    entry there is negative.  Row s is heads[s] * x_basis[s] plus rows[s]
    over x_free (the simplex's last slot is its right-hand side); a head of
    0 means no basic column.  The leaving column basis[r] takes slot k, or
    with ``drop`` the slot leaves every row."""
    piv = rows[r]
    a, p = piv[k], heads[r]
    if a < 0:
        a, p = -a, -p
        rows[r] = piv = [-b for b in piv]
    piv[k] = p
    nonzero = [(j, b) for j, b in enumerate(piv) if b]
    for s, row in enumerate(rows):
        f = row[k]
        if f and s != r:
            row[k] = 0
            out = [a * c for c in row] if a != 1 else row
            for j, b in nonzero:
                out[j] -= f * b
            h = a * heads[s]
            g = gcd(h, *out)
            if g > 1:
                out, h = [c // g for c in out], h // g
            rows[s], heads[s] = out, h
    heads[r], basis[r], free[k] = a, free[k], basis[r]
    if drop:
        del free[k]
        for row in rows:
            del row[k]


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
    echelon, values = _tight_echelon(lp, v)
    tight, heads, pivots, free = echelon

    while len(tight) < width:
        # The kernel direction with d[free[0]] > 0 and 0 in every other free
        # column, scaled to integers.
        scale = lcm(*[h for row, h in zip(tight, heads) if row[0]])
        d = [0] * width
        d[free[0]] = scale
        for row, h, col in zip(tight, heads, pivots):
            d[col] = -row[0] * (scale // h)
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
                _absorb(echelon, hit)

    return tuple([Fraction(a, den) for a in v[:n]]), Fraction(v[n], den)


def _tight_echelon(lp: PartitionLP, v: list[int]) -> tuple[tuple, list[int]]:
    """The echelon of the constraints tight at the integer point ``v`` (any
    positive multiple of (x, tau)), and each ``lp.int_rows`` value there.
    sum x = 1 is always tight; x_j >= 0 is tight, as a unit row, when
    x_j = 0."""
    n = lp.n
    echelon = ([], [], [], list(range(n + 1)))
    _absorb(echelon, [1] * n + [0])  # sum x = 1
    values = lp.row_values(v)
    for row, val in zip(lp.int_rows, values):
        if val == 0:
            _absorb(echelon, row)
    for j in range(n):
        if v[j] == 0:
            _absorb(echelon, _unit_row(j, n + 1))
    return echelon, values


def _absorb(echelon: tuple, row) -> None:
    """Add a dense row over (x, tau) to a fully reduced echelon, the
    dictionary (rows, heads, pivot columns, free columns) of ``_pivot``: its
    pivot columns are eliminated at once over the lcm of their heads, and
    unless it is then zero it pivots on its first nonzero free column."""
    tight, heads, pivots, free = echelon
    hits = [(piv, h, row[col]) for piv, h, col in zip(tight, heads, pivots) if row[col]]
    scale = lcm(*[h for _piv, h, _f in hits])
    out = [scale * row[c] for c in free]
    for piv, h, f in hits:
        f *= scale // h
        out = [a - f * b for a, b in zip(out, piv)]
    lead = next((k for k, a in enumerate(out) if a), -1)
    if lead < 0:
        return
    g = gcd(*out)
    tight.append([a // g for a in out] if g > 1 else out)
    heads.append(0)
    pivots.append(-1)
    _pivot(*echelon, len(tight) - 1, lead, drop=True)


def _unit_row(j: int, width: int) -> list[int]:
    return [0] * j + [1] + [0] * (width - j - 1)


def tight_constraint_rank(
    lp: PartitionLP, x: tuple[Fraction, ...], tau: Fraction
) -> int:
    """Rank of the constraints satisfied with equality at ``(x, tau)``.

    The solution is a basic feasible solution (vertex) exactly when this rank
    equals the variable count n + 1.
    """
    v, _den = _integral((*x, tau))
    echelon, _values = _tight_echelon(lp, v)
    return len(echelon[0])


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
