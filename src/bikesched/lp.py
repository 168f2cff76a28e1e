"""Exact linear programming for the induced partition of a schedule matrix.

For a fixed matrix M the best partition solves a small LP: minimize the
makespan tau subject to tau >= t_i for every agent, a pickup-ordering row for
every bike handover, x_j >= 0 and sum x_j = 1.  The schedule reduction
argument counts tight constraints at a vertex, so every answer here is a
*vertex* of the feasible region, not just any optimal point.

One engine, ``_walk``, serves both entry points.  Its state is x, then tau,
then the value of every agent and pickup row, all ints over one positive
denominator; the same order numbers the constraints (``PartitionLP.row``),
with the sum row at tau's index n, as tau is never a constraint.  Each step
moves along an edge until the nearest blocker meets its constraint:

- **Slide.**  While the echelon of working rows leaves a free column, the
  step keeps them tight and moves along the first free column, down unless
  that raises tau, and every blocker joins the echelon, so at most n + 1
  steps reach a vertex.  Down, a free x_j is a blocker itself, so a step
  can end at a zero column, which the reduction's next sweep deletes, in
  place of a tight pickup row: an equal-time handover, whose repair leaves
  a point to slide again.  ``vertex_from_point`` slides from the rows tight
  at its point and stops at a vertex, where its echelon has no slots left.
  It walks only the pickup rows that can block it: a handover whose picker
  is nowhere faster than its dropper before it is *implied*, a nonnegative
  sum of x_k >= 0 rows, which adds no rank and never blocks first
  (``_blocking``).  The reduction's slide of a wide matrix holds its
  columns from a given one on at their lengths: their rows x_j >= 0 enter
  the echelon first, so they never move or block, and the slide stops at a
  vertex of the LP with them fixed.  Its rank still leaves a zero column
  or an equal-time handover among the others, as long as more columns are
  free than there are agents (``_slide``).
- **Exchange.**  ``solve_lp``'s echelon writes x and tau over the working
  rows' slacks w (w_j = x_j, w_sum = sum x).  It starts, in closed form,
  at the vertex with all length in the last column, which meets every
  pickup row with equality (none has a last-column term), so no phase 1
  is needed.  The walk relaxes the first slack whose rise lowers tau, and
  the first blocker of a ratio tie puts its slack in that slot: the primal
  simplex on the slack formulation with Bland's rule in one fixed order of
  the constraints, computed once per LP (``_bland_order``): x_j >= 0 by
  how many pickup rows after column j have a picker faster than its
  dropper there, fewest first, ties by column, then the sum, agent and
  pickup rows in state order.  Bland's proof that no basis repeats holds
  for any fixed order that the entering and the leaving choice share, so
  the walk ends (Bland 1977; Chvatal 1983, ch. 3).  The order sets the
  path, and which optimal vertex is found where several are: each such
  pickup row blocks moving length into x_j at once from the start, so an
  x_j that none blocks moves the point at its first exchange.  Where no
  column is blocked the order is the lowest-index one.  At the optimum,
  tau's echelon row holds the dual weights (Chvatal 1983, ch. 5): y_k =
  -row[k] weighs the constraint of slot k, and head * tau = sum_k y_k *
  row_k as linear forms, with y >= 0.  ``solve_lp`` checks that identity,
  the signs and y_sum / head = tau exactly (``_dual``) before it answers,
  and the oracle's entry ``_solve`` hands the checked weights on, as a
  bound for later matrices.

``PartitionLP`` holds the inverse speeds s as ints over one scale, the lcm
of the instance's denominators (``ProblemInstance`` keeps that table).  An
agent row is then scale * tau - S_i(n) and a pickup row S_p(col) - S_d(col),
in the prefix sums S_i(c) = sum_{k<c} s_ik x_k, so ``row_values`` evaluates
all R rows in O(m n + R); a dense row is built only when the echelon takes
it in.

One fraction-free kernel, ``_pivot``, does all elimination on Python ints
(Edmonds 1967; Bareiss 1968), in dictionary form (Chvatal 1983, ch. 2-3):
a row keeps its positive pivot entry (its head) and its entries in the free
slots, a list all rows share.  A pivot drops the entering slot (a row a
slide absorbs) or hands it to the leaving column (an exchange), and takes
every other row to head * row - f * pivot row over the gcd of its entries.
Every decision depends only on signs and on ratios compared by
cross-multiplication, so the steps and answers are those of exact rational
elimination.  ``Fraction`` appears only at the boundary.

A broken solver contract raises ``LPContractError`` (a ``ContractError``),
never ``assert``, so the checks also run under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import lt, mul
from typing import NamedTuple, Optional

from .model import (
    ContractError,
    ProblemInstance,
    ScheduleMatrix,
    _fractions,
    _integral,
    handovers,
    structural_violations,
)

# The exact type of every LP input and answer; the benchmark prints this name
# as its backend.
_Q = Fraction


class LPContractError(ContractError):
    """A guarantee of the partition LP failed: a bug, not bad input."""


class _Dual(NamedTuple):
    """Checked dual weights y of an LP optimum, by column.  ``head * tau
    >= total`` (the sum row's weight) at every feasible point, with
    equality at the optimum.  In column j, ``weights[j][i]`` is agent i's
    row weight less the weights of the handover rows with picker i and
    column > j, plus those with dropper i: a handover row's terms move its
    weight from picker to dropper in the columns before it.  ``paces[j]``
    is sum_i weights[j][i] * s_ij, which is ``total`` plus the weight of
    x_j >= 0.  ``pickups`` holds the ``(picker, dropper, column)`` of every
    handover row of positive weight."""

    head: int
    total: int
    weights: list[list[int]]
    paces: list[int]
    pickups: list[tuple[int, int, int]]


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

    def row(self, j: int) -> list[int]:
        """Constraint j in state order as an integer row a, a . (x, tau) >= 0:
        x_j for j < n, the sum row at n (sum x = 1), scale * (tau - t_i) for
        each agent, then scale times each handover's picker's time minus its
        dropper's at its column, which has no tau term."""
        n, s = self.n, self.speeds
        if j <= n:
            return [1] * n + [0] if j == n else [0] * j + [1] + [0] * (n - j)
        r = j - n - 1
        if r < len(s):
            return [-c for c in s[r]] + [self.scale]
        p, d, col = self.switches[r - len(s)]
        return [s[p][k] - s[d][k] for k in range(col)] + [0] * (n - col + 1)

    def row_values(self, v) -> list[int]:
        """``row(j) . v`` for every agent and handover row j > n, at an
        integer vector v over (x, tau), from agent prefix sums."""
        sums = [list(accumulate(map(mul, row, v), initial=0)) for row in self.speeds]
        n, tau = self.n, self.scale * v[self.n]
        return [tau - si[n] for si in sums] + [sums[p][c] - sums[d][c] for p, d, c in self.switches]


def build_lp(matrix: ScheduleMatrix, inst: ProblemInstance) -> PartitionLP:
    """Collect the LP constraint system for a matrix.

    Rejects a row count other than the instance's agent count, a bike ridden
    twice in one column or appearing out of nowhere (no partition makes such
    a matrix feasible), and labels above the instance's bike count.  The
    speeds are read off the instance's integer label speed table.
    """
    if matrix.agents != inst.agents:
        raise ValueError(f"matrix has {matrix.agents} rows but instance has {inst.agents} agents")
    broken = structural_violations(matrix)
    if broken:
        raise ValueError(f"no partition makes this matrix feasible: {broken}")
    if matrix.max_label() > inst.bikes:
        raise ValueError(f"bike label {matrix.max_label()} out of range [0, {inst.bikes}]")
    return _partition_lp(matrix, inst, handovers(matrix))


def _partition_lp(
    matrix: ScheduleMatrix, inst: ProblemInstance, switches: tuple[tuple[int, int, int], ...]
) -> PartitionLP:
    """``build_lp`` of a matrix that passes its checks, given its
    ``handovers``: the reduction's sweep keeps a feasible matrix well formed
    and finds them as it goes."""
    speed, scale = inst._label_speeds
    speeds = tuple([tuple([speed[c] for c in r]) for r in matrix.rows])
    return PartitionLP(matrix.size, speeds, scale, switches)


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

    Entering slacks and ratio ties both go by one fixed order of the
    constraints, computed once from the LP (``_bland_order``): x_j >= 0
    first, fewest blocking pickup rows first and ties by column, then the
    sum, agent and pickup rows as numbered.  With one fixed order shared by
    both choices, Bland's rule never repeats a basis, so the walk ends
    (Bland 1977).  The optimum's dual weights are checked (``_dual``)
    before it is returned."""
    v, den, echelon = _optimum(lp)
    _dual(lp, echelon, v, den)
    return _answer(v, den)


def _optimum(lp: PartitionLP) -> tuple[list[int], int, tuple]:
    """``solve_lp`` on ints: the optimum (x, tau) over its denominator and
    the final echelon, whose rows are those of x_0 .. x_{n-1} and tau over
    the slacks of the working rows.

    x = e_last, with tau the inverse speed of agent a, the first agent
    slowest in the last column.  Its working rows are x_j >= 0 (j < n - 1),
    the sum row and agent a's row; over their slacks w the echelon is
    x_j = w_j, x_last = w_sum - sum_j w_j, scale * tau = w_a + sum_j s_aj x_j.
    """
    n, s, scale = lp.n, lp.speeds, lp.scale
    a = max(range(lp.agents), key=lambda i: s[i][n - 1])
    last = s[a][n - 1]
    if last < 0:  # tau below zero: only a negative inverse speed does that
        raise LPContractError("the final-column start is not feasible")
    # Over den = scale: no pickup row has a last-column term, so each is 0.
    state = [0] * (n - 1) + [scale, last] + [scale * (last - si[n - 1]) for si in s]
    state += [0] * len(lp.switches)
    # Slots: w_j for j < n - 1, then w_sum, then w_a.
    tight = [[0] * j + [-1] + [0] * (n - j) for j in range(n - 1)]
    tight.append([1] * (n - 1) + [-1, 0])
    tight.append([last - c for c in s[a][: n - 1]] + [-last, -1])
    slots = [*range(n - 1), n, n + 1 + a]
    echelon = (tight, [1] * n + [scale], list(range(n + 1)), slots)
    v, den = _walk(lp, echelon, state, scale)
    return v, den, echelon


def _dual(lp: PartitionLP, echelon: tuple, v: list[int], den: int) -> _Dual:
    """The dual weights at ``solve_lp``'s optimum ``v`` over ``den``, read
    off tau's echelon row and checked exactly.

    That row says head * tau + sum_k row[k] * w_k = 0 over the slacks of
    the working rows, so y_k = -row[k] weighs constraint ``free[k]``, and
    head * tau = sum_k y_k * row(free[k]) as linear forms in (x, tau).  The
    check takes that identity one coordinate at a time: tau's is head =
    scale * (sum of the agent rows' weights), and column j's is ``paces[j]``
    = y_sum + y_{x_j} (``_Dual``).  At the optimum no slack's rise lowers
    tau, so y >= 0, and y_sum = head * tau.  Any feasible point then has
    head * tau >= y_sum (weak duality).  A failed check raises
    ``LPContractError``."""
    n, m, s = lp.n, lp.agents, lp.speeds
    tight, heads, _pivots, free = echelon
    head, y = heads[n], [0] * (n + 1 + m + len(lp.switches))
    for j, c in zip(free, tight[n]):
        y[j] = -c
    total, w = y[n], y[n + 1 : n + 1 + m]
    ok = head > 0 and min(y) >= 0 and head == lp.scale * sum(w) and total * den == head * v[n]
    moves: dict[int, list[tuple[int, int, int]]] = {}
    pickups = []
    for (p, d, c), weight in zip(lp.switches, y[n + 1 + m :]):
        if weight:
            moves.setdefault(c, []).append((p, d, weight))
            pickups.append((p, d, c))
    weights, paces = [w] * n, [0] * n
    for j in range(n - 1, -1, -1):
        for p, d, weight in moves.get(j + 1, ()):
            w = list(w)
            w[p] -= weight
            w[d] += weight
        weights[j] = w
        paces[j] = pace = sum([a * row[j] for a, row in zip(w, s)])
        ok = ok and pace == total + y[j]
    if not ok:
        raise LPContractError("the dual weights at the optimum do not certify it")
    return _Dual(head, total, weights, paces, pickups)


def _solve(
    matrix: ScheduleMatrix, inst: ProblemInstance, certify: bool
) -> tuple[list[int], int, Optional[_Dual]]:
    """The oracle's ``solve_partition`` on ints: the optimum (x, tau) over
    its denominator and, with ``certify``, its checked ``_Dual``.  The
    oracle's matrices are well formed by construction, so ``build_lp``'s
    checks are skipped."""
    lp = _partition_lp(matrix, inst, handovers(matrix))
    v, den, echelon = _optimum(lp)
    return v, den, _dual(lp, echelon, v, den) if certify else None


def _answer(v: list[int], den: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """An integer point ``(x, tau)`` over ``den`` as Fractions."""
    return _fractions(v[:-1], den), Fraction(v[-1], den)


def _walk(lp: PartitionLP, echelon: tuple, state: list[int], den: int):
    """Step ``state`` (x, tau, then every ``row_values`` row, ints over
    ``den``) along edges of the feasible region until no step lowers tau,
    and return that vertex's ``(x, tau)`` as ints over its denominator and
    the denominator.  An exchange enters, and a ratio tie leaves, by the
    least rank of its constraint in ``_bland_order``, computed at the first
    exchange; a slide never exchanges."""
    n = lp.n
    width = n + 1
    tight, heads, pivots, free = echelon
    rank = None
    while True:
        sliding = len(tight) < width
        if sliding:
            k = 0
        else:
            # Slots whose slack lowers tau as it rises; tau's row is last.
            # w_sum never does: along it the point scales and tau >= 0 grows.
            rising = [k for k, c in enumerate(tight[n]) if c > 0]
            if not rising:
                return state[:width], den
            if rank is None:
                rank = _bland_order(lp)
            k = min(rising, key=lambda k: rank[free[k]])
        # Slot k rises at rate ``scale`` and every other slot stays put; a
        # free column is its own variable, and each row gives its pivot's.
        scale = lcm(*[h for row, h in zip(tight, heads) if row[k]])
        d = [0] * width
        if sliding:
            d[free[0]] = scale
        for row, h, col in zip(tight, heads, pivots):
            d[col] = -row[k] * (scale // h)
        # Never up in tau; otherwise down in the free column, so that a
        # slide's free x_j >= 0 blocks it too.  An exchange lowers tau.
        if d[n] >= 0:
            d = [-a for a in d]
        rate = d + lp.row_values(d)
        # Blockers: x_j and slack rows falling at rate -rate[j]; tau is none.
        blockers = [j for j, r in enumerate(rate) if r < 0 <= state[j] and j != n]
        if not blockers:
            raise LPContractError("nothing blocks the walk from a feasible point")
        # The step is num / q (times 1 / den); the first smallest ratio wins.
        num, q = state[blockers[0]], -rate[blockers[0]]
        for j in blockers:
            if state[j] * q < num * -rate[j]:
                num, q = state[j], -rate[j]
        hits = [j for j in blockers if state[j] * q == num * -rate[j]]
        if num:  # else a degenerate step: the point stays
            state = [q * a + num * b for a, b in zip(state, rate)]
            den *= q
            g = gcd(den, *state)
            if g > 1:
                state, den = [a // g for a in state], den // g
        if sliding:
            for j in hits:
                _absorb(echelon, lp.row(j))
        else:
            _exchange(lp, echelon, k, min(hits, key=rank.__getitem__))


def _bland_order(lp: PartitionLP) -> list[int]:
    """The rank of every constraint, by number, in the one fixed order of
    ``_walk``'s exchanges: x_j >= 0 first, by how many pickup rows after
    column j have a picker faster than its dropper there (each blocks a
    rise of x_j at the final-column start), fewest first, then by column;
    then the sum, agent and pickup rows in state order."""
    n, s = lp.n, lp.speeds
    blocks = [0] * n
    for p, d, c in lp.switches:
        for k, a, b in zip(range(c), s[p], s[d]):
            if a < b:
                blocks[k] += 1
    rank = list(range(n + 1 + lp.agents + len(lp.switches)))
    if any(blocks):  # else the columns are already in order
        for r, j in enumerate(sorted(range(n), key=blocks.__getitem__)):
            rank[j] = r - n
    return rank


def _exchange(lp: PartitionLP, echelon: tuple, k: int, b: int) -> None:
    """Put the slack of constraint ``b`` in slot ``k``: append b's row over
    the slots, basic in w_b (x_b's own row when b < n), pivot slot k into it
    and drop it again.  Here row c of the echelon is that of column c."""
    tight, heads, pivots, _free = echelon
    if b < lp.n:
        tight.append(list(tight[b]))
        heads.append(heads[b])
    else:
        # w_b = sum_c a_c v_c over v = (x, tau), and h_c v_c is minus row c
        # over the slots, so scale * w_b + sum_c a_c (scale / h_c) row c = 0.
        row = lp.row(b)
        hits = [c for c, a in enumerate(row) if a]
        scale = lcm(*[heads[c] for c in hits])
        factors = [row[c] * (scale // heads[c]) for c in hits]
        tight.append([sum(map(mul, factors, col)) for col in zip(*[tight[c] for c in hits])])
        heads.append(scale)
    pivots.append(b)
    _pivot(*echelon, len(tight) - 1, k)
    del tight[-1], heads[-1], pivots[-1]


def _pivot(rows, heads, basis, free, r, k, drop=False) -> None:
    """Make column ``free[k]`` basic in ``rows[r]``, negated first if its
    entry there is negative.  Row s says heads[s] * x_basis[s] plus rows[s]
    over x_free is 0; a head of 0 means no basic column.  The leaving column
    basis[r] takes slot k, or with ``drop`` the slot leaves every row."""
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

    Each step keeps every tight constraint tight and meets a slack one (a
    slack agent row when tau falls, else some x_j > 0 shrinks), so at most
    n + 1 exact ratio steps reach a vertex.  A step moves its free column
    down unless that raises tau: at an optimal point, where tau cannot move,
    the free x_j shrinks, so its own x_j >= 0 can stop the step at a zero
    column rather than at an equal-time handover.  The schedule reducer
    slides through its integer form, ``_slide``: the size argument only
    needs vertex-ness, not re-optimization.
    """
    v, den = _slide(lp, *_integral((*x, tau)))
    return _answer(v, den)


def _slide(
    lp: PartitionLP, v: list[int], den: int, fixed: Optional[int] = None
) -> tuple[list[int], int]:
    """``vertex_from_point`` on ints: the point ``v`` = (x, tau) over
    ``den`` slides to a vertex, returned the same way.  Only the handover
    rows that can block it are walked (``_blocking``); the steps, the
    echelon and the vertex are those of the walk over every row.

    Columns ``fixed`` .. n - 1, if any, hold their lengths: the echelon
    takes in their rows x_j >= 0 first (``_tight_echelon``), so no step
    moves them and, never falling, none of them blocks.  The point slides
    to a vertex of the LP with those lengths fixed, where n + 1 independent
    rows are tight: the n - fixed fixed columns' own, the sum row, at most
    m agent rows and so at least fixed - m zero columns or equal-time
    handovers, one for the reduction's next sweep to remove when fixed > m.
    From a point where the sum row and all m agent rows are tight, as at a
    relay level's start, the slide has fixed - m free directions, not
    n - m.  ``vertex_from_point`` fixes none."""
    lp = _blocking(lp)
    return _walk(lp, *_tight_echelon(lp, v, fixed), den)


def _blocking(lp: PartitionLP) -> PartitionLP:
    """``lp`` without its implied handover rows: those whose picker is
    nowhere faster than its dropper in the columns before the handover.

    Such a row has no negative coefficient, so it is a nonnegative sum of
    the rows x_k >= 0 of its support.  Where it is tight, so is every x_k
    with a positive coefficient, and those come first in state order: the
    echelon has taken them in, and the row adds no rank.  Along a step its
    ratio (value over rate of fall) is at least the least of theirs, so it
    reaches 0 no sooner than the first of them, and at a tie every x_k with
    a positive coefficient reaches 0 at the same step, so the row is
    absorbed after them, as a dependent row.  It never blocks a slide
    first, and dropping it changes no step, no echelon and no denominator
    (its value is an integer combination of the point's coordinates).  With
    columns held fixed (``_slide``) this stays exact: a fixed column never
    falls, so a row with a positive coefficient on a fixed positive column
    never reaches 0, and a fixed column at 0 is in the echelon first.  The
    full ``switches`` stay in every other use of the LP (its checks,
    ``solve_lp``, the oracle and the reduction's progress measure)."""
    s = lp.speeds
    switches = tuple([h for h in lp.switches if any(map(lt, s[h[0]][: h[2]], s[h[1]]))])
    return PartitionLP(lp.n, s, lp.scale, switches)


def _tight_echelon(
    lp: PartitionLP, v: list[int], fixed: Optional[int] = None
) -> tuple[tuple, list[int]]:
    """The echelon of the constraints tight at the integer point ``v`` (any
    positive multiple of (x, tau)) and the state there (v, then every
    ``row_values`` row).  The sum row, index n, is always tight.  The rows
    x_j >= 0 of the columns ``fixed`` .. n - 1 come first, tight or not:
    on an empty echelon each absorb only drops column j's slot."""
    n = lp.n
    state = v + lp.row_values(v)
    echelon = ([], [], [], list(range(n + 1)))
    for j in range(n if fixed is None else fixed, n):
        _absorb(echelon, lp.row(j))
    for j, value in enumerate(state):
        if value == 0 or j == n:
            _absorb(echelon, lp.row(j))
    return echelon, state


def _absorb(echelon: tuple, row) -> None:
    """Add a dense row over (x, tau) to a fully reduced echelon, the
    dictionary (rows, heads, pivot columns, free columns) of ``_pivot``: its
    pivot columns are eliminated at once over the lcm of their heads, and
    unless it is then zero (dependent on the echelon) it pivots on its first
    nonzero free column."""
    tight, heads, pivots, free = echelon
    # An all-zero row, of a held or zeroed column, eliminates nothing.
    hits = [
        (piv, h, row[col]) for piv, h, col in zip(tight, heads, pivots) if row[col] and any(piv)
    ]
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


def tight_constraint_rank(
    lp: PartitionLP, x: tuple[Fraction, ...], tau: Fraction
) -> int:
    """Rank of the constraints satisfied with equality at ``(x, tau)``.

    The solution is a basic feasible solution (vertex) exactly when this rank
    equals the variable count n + 1.
    """
    v, _den = _integral((*x, tau))
    echelon, _state = _tight_echelon(lp, v)
    return len(echelon[0])


def is_vertex(lp: PartitionLP, x: tuple[Fraction, ...], tau: Fraction) -> bool:
    return tight_constraint_rank(lp, x, tau) == lp.n + 1


def satisfies_all_constraints(
    lp: PartitionLP, x: tuple[Fraction, ...], tau: Fraction
) -> bool:
    """Exact feasibility of ``(x, tau)`` for the full constraint system."""
    return _satisfies(lp, *_integral((*x, tau)))


def _satisfies(lp: PartitionLP, v: list[int], den: int) -> bool:
    """``satisfies_all_constraints`` of the point ``v`` = (x, tau) over ``den``."""
    if len(v) != lp.n + 1:
        return False
    x = v[: lp.n]
    return min(x) >= 0 and sum(x) == den and min(lp.row_values(v)) >= 0
