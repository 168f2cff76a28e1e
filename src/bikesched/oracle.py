"""Independent brute-force certification on tiny instances.

The search space is every schedule matrix with at most m columns (larger ones
are never needed: any feasible schedule reduces to one of size <= m with no
worse makespan) where each column assigns the currently active bikes
injectively to agents.  Bike usage is always a prefix of the columns, so a
candidate is described by which bikes are abandoned, after how many columns
each of them retires, and a rider assignment per column.  Each matrix is
scored by the exact LP, which places the continuous abandonment positions
optimally for that matrix, and the overall exact minimum is returned.

Agent-relabeling symmetry is removed by fixing the first column to a
canonical assignment (bike k of the first column's active set, in ascending
order, on row k - 1), and consecutive identical columns are skipped (merging
them never changes the optimum).  With pruning enabled (the default), whole
candidate families are skipped using two elementary bounds -- the makespan is
at least the lowest column average crossing time, and at least u_k for any
bike k ridden in the final column -- and families are visited in ascending
bound order so the search can stop as soon as no remaining family can win.

Pruning also scores one matrix per symmetry orbit.  Two maps leave the
enumeration and every optimal makespan unchanged: permuting the rows that
walk in the first column (the canonical column fixes only the rider rows),
and relabeling bikes of equal inverse speed, followed by the row reorder
that puts the first column back in canonical order.  Under either map a
matrix's ``PartitionLP`` is the same LP with the agents renamed -- its speeds
depend only on each label's inverse speed, and handovers follow bike
identity -- so its optimum is the same.  The image lies in an enumerated
family with the same column count and the same bound, because the
first-column average and the survivors' largest u_k depend only on the
multiset of speeds, so bound pruning stays exact.  Only the lexicographic
leader of each orbit (the least row tuple) is scored, after Crawford,
Ginsberg, Luks and Roy (1996): its first-column walker rows are
non-decreasing, and no image under an equal-speed relabeling (rider rows
reordered by their new first label, walker rows sorted) is smaller.  There
is no makespan cache keyed by the orbit: it would solve as many LPs as the
leader rule while holding every key it has seen.

Pruning last skips every leader that some group of agents rules out.  With
s_ij agent i's inverse speed in column j, every feasible (x, tau) and every
nonempty agent group A satisfy tau >= mean_{i in A} t_i = sum_j x_j *
mean_{i in A} s_ij >= min_j mean_{i in A} s_ij: weak LP duality, with
uniform weights on A's agent rows and none on the pickup rows.  A matrix in
which some group is at least as slow as the incumbent in every column
cannot beat it strictly, and the search keeps only strict improvements, so
the skip changes no makespan and no witness.  In the integer speed table,
with the incumbent p/q, label c weighs q * speed[c] - p * scale, and a group
is slow in a column when its weights there sum to at least 0.  Each
distinct column's slow groups form one bitmask over the 2^m - 1 groups,
cached until the incumbent improves.

A group may also change rows along pickups, which puts weight on the pickup
rows too.  A relay path is one row r_c per column c that changes, r_c !=
r_{c-1}, only where r_c picks up at boundary c the bike r_{c-1} dropped.
With S_i(c) agent i's time at boundary c, each pickup row keeps
S_{r_{c-1}}(c) <= S_{r_c}(c), so by induction over the columns a path's
time sum_j s_{r_j j} x_j is at most t_{r_{n-1}} <= tau.  A group of k
relay paths on distinct rows then has mean time at most tau, and at least
the incumbent when its rows are slow in every column, so the skip stays
exact.  The search walks the columns with the bitmask of groups reached:
it ANDs in each column's slow groups and, at each boundary, closes the
reached groups under the pickup moves -- every reached g with d in g and p
not in g, for a pickup (p, d), also reaches g - {d} + {p} -- to a fixpoint,
as pickups chain within one boundary.  Each column pair's moves are cached
for the call; a matrix is skipped when the final mask is nonzero.  The
closure only adds groups, so this skips every matrix that groups fixed to
their rows skip, and with no pickups it is the AND of the columns' masks.
For speeds {4, 4, 5/4} at m = 4 and limit 1, 5,646 of the 11,256 matrices
below the optimum are orbit leaders, and 783 of them get an LP (1,615 with
groups fixed to their rows).

The pruned and unpruned searches return identical values (property-tested);
turn pruning off to make the search a pure exhaustive sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .lp import solve_partition
from .model import (
    ContractError, ProblemInstance, Schedule, ScheduleMatrix, abandonment_vector, pickups
)


class BudgetExceededError(ValueError):
    """Raised when an instance is too large for the enumeration budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard ceiling on brute-force instance size.

    ``max_columns`` of None means "as many columns as agents", which is
    always enough; raising it only slows the search down.  ``prune`` toggles
    the family bounds, the one-matrix-per-orbit skip and the pace bound of
    relay-closed agent groups described in the module docstring; off, every
    enumerated matrix is scored.
    """

    max_agents: int = 4
    max_bikes: int = 3
    max_columns: Optional[int] = None
    prune: bool = True

    def __post_init__(self) -> None:
        if self.max_columns is not None and self.max_columns < 1:
            raise ValueError(f"need at least one column, got {self.max_columns}")

    def check(self, inst: ProblemInstance) -> None:
        if inst.agents > self.max_agents or inst.bikes > self.max_bikes:
            raise BudgetExceededError(
                f"instance ({inst.agents} agents, {inst.bikes} bikes) exceeds "
                f"budget ({self.max_agents}, {self.max_bikes})"
            )


@dataclass(frozen=True)
class _Family:
    """One enumeration family: a column count, the retired bikes and their
    prefix lengths, plus a makespan lower bound shared by all its matrices
    and the number of rows that ride in their first column."""

    n: int
    prefixes: tuple[tuple[int, int], ...]  # (bike, columns ridden), bike 1-based
    bound: Fraction
    riders: int


def brute_force_bs(
    inst: ProblemInstance, budget: EnumerationBudget = EnumerationBudget()
) -> tuple[Fraction, Schedule]:
    """Exact optimum over every full-delivery matrix within the budget."""
    budget.check(inst)
    tau, sched = _search(inst, budget, abandon_limit=0)
    return tau, sched


def brute_force_rbs(
    inst: ProblemInstance, budget: EnumerationBudget = EnumerationBudget()
) -> tuple[Fraction, Schedule, tuple[Fraction, ...]]:
    """Exact optimum when up to ``inst.abandonment_limit`` bikes may retire
    early.

    Any limit is accepted here (the search just grows); limits >= 2 are
    exploratory only -- no fast solver exists to cross-check them.
    """
    budget.check(inst)
    tau, sched = _search(inst, budget, abandon_limit=inst.abandonment_limit)
    return tau, sched, abandonment_vector(sched, inst)


def _families(
    inst: ProblemInstance, abandon_limit: int, max_cols: int
) -> list[_Family]:
    b, m = inst.bikes, inst.agents
    speed, scale = inst._label_speeds
    # Every bound is an integer over m * scale: a column average is (walkers
    # * scale + the riding bikes' speeds) / (m * scale), and u_k is m *
    # speed[k] / (m * scale).  Each distinct numerator gets one Fraction.
    bounds: dict[int, Fraction] = {}
    families = []
    for n in range(1, max_cols + 1):
        for count in range(0, min(abandon_limit, b) + 1):
            for retired in itertools.combinations(range(1, b + 1), count):
                survivors = [speed[k] for k in range(1, b + 1) if k not in retired]
                final = m * max(survivors, default=0)
                for lengths in itertools.product(range(n), repeat=count):
                    # Active sets only shrink along the columns, and dropping
                    # a bike (u < 1) for a walker raises the average, so
                    # column 0 has the lowest column average.
                    first = [
                        k
                        for k in range(1, b + 1)
                        if k not in retired or lengths[retired.index(k)] > 0
                    ]
                    average = (m - len(first)) * scale + sum([speed[k] for k in first])
                    num = max(average, final)
                    if num not in bounds:
                        bounds[num] = Fraction(num, m * scale)
                    prefixes = tuple(zip(retired, lengths))
                    families.append(_Family(n, prefixes, bounds[num], len(first)))
    return families


def _relabelings(inst: ProblemInstance) -> list[tuple[int, ...]]:
    """Every relabeling of bikes with equal inverse speed but the identity,
    as a map from label to label (0, walking, maps to itself)."""
    b, u = inst.bikes, inst.inverse_speeds  # sorted: equal speeds are adjacent
    cuts = [0, *[k for k in range(1, b) if u[k] != u[k - 1]], b]
    groups = [range(lo + 1, hi + 1) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1]
    if not groups:
        return []
    maps = []
    for images in itertools.product(*[itertools.permutations(g) for g in groups]):
        label = list(range(b + 1))
        for group, image in zip(groups, images):
            for k, new in zip(group, image):
                label[k] = new
        maps.append(tuple(label))
    return maps[1:]  # the first product is the identity


def _is_leader(
    rows: tuple[tuple[int, ...], ...], riders: int, relabelings: list[tuple[int, ...]]
) -> bool:
    """True when ``rows`` is the least member of its symmetry orbit: rows
    ``riders`` onward (the first column's walkers) are non-decreasing, and
    no relabeling's image -- rider rows ordered by their new first label,
    walker rows sorted -- is smaller."""
    for i in range(riders + 1, len(rows)):
        if rows[i - 1] > rows[i]:
            return False
    for label in relabelings:
        image = [tuple([label[c] for c in row]) for row in rows]
        if tuple(sorted(image[:riders]) + sorted(image[riders:])) < rows:
            return False
    return True


def _slow_groups(col: tuple[int, ...], weight: list[int]) -> int:
    """Bitmask of the agent groups at least as slow as the incumbent in
    ``col``: bit g stands for the rows of g's binary digits, and it is set
    when their weights sum to at least 0."""
    sums = [0]
    for label in col:
        w = weight[label]
        sums += [s + w for s in sums]
    return sum([1 << g for g in range(1, len(sums)) if sums[g] >= 0])


def _pickup_moves(
    prev: tuple[int, ...], col: tuple[int, ...]
) -> tuple[tuple[int, int, int], ...]:
    """The group moves across the boundary from ``prev`` to ``col``: one
    ``(movers, up, down)`` per pickup (p, d), where ``movers`` marks the
    groups that hold d but not p, and a marked bit g also reaches
    g - {d} + {p}, the bit ``(1 << g) << up >> down``."""
    moves = []
    for p, d in pickups(prev, col):
        movers = sum([1 << g for g in range(1 << len(col)) if g >> d & 1 and not g >> p & 1])
        shift = (1 << p) - (1 << d)
        moves.append((movers, max(shift, 0), max(-shift, 0)))
    return tuple(moves)


def _relay_slow_groups(
    rows: tuple[tuple[int, ...], ...],
    weight: list[int],
    slow: dict[tuple[int, ...], int],
    moves: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, int, int], ...]],
) -> int:
    """Bitmask of the relay-closed groups at least as slow as the incumbent
    in every column of ``rows``: each column's ``_slow_groups``, with the
    reached groups closed under the boundary's pickup moves before the next
    column's AND.  ``slow`` caches the column masks for ``weight`` and
    ``moves`` the ``_pickup_moves`` of each column pair."""
    groups = -1
    prev = None
    for col in zip(*rows):
        if prev is not None:
            if not groups:
                return 0
            step = moves.get((prev, col))
            if step is None:
                step = moves[prev, col] = _pickup_moves(prev, col)
            reached = 0
            while reached != groups:  # pickups chain within one boundary
                reached = groups
                for movers, up, down in step:
                    groups |= (groups & movers) << up >> down
        mask = slow.get(col)
        if mask is None:
            mask = slow[col] = _slow_groups(col, weight)
        groups &= mask
        prev = col
    return groups


def _search(
    inst: ProblemInstance, budget: EnumerationBudget, abandon_limit: int
) -> tuple[Fraction, Schedule]:
    m = inst.agents
    max_cols = budget.max_columns if budget.max_columns is not None else m
    families = _families(inst, abandon_limit, max_cols)
    if budget.prune:
        families.sort(key=lambda f: (f.bound, f.n, f.prefixes))
    relabelings = _relabelings(inst)
    placements: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    speed, scale = inst._label_speeds
    weight: list[int] = []
    slow: dict[tuple[int, ...], int] = {}  # column -> _slow_groups(column, weight)
    moves: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, int, int], ...]] = {}

    best_tau: Optional[Fraction] = None
    best: Optional[Schedule] = None
    for family in families:
        if budget.prune and best_tau is not None and family.bound >= best_tau:
            break  # families are bound-sorted: nothing later can win
        for rows in _family_matrices(inst, family, placements):
            if budget.prune:
                if not _is_leader(rows, family.riders, relabelings):
                    continue  # its orbit's leader has the same makespan
                if best_tau is not None and _relay_slow_groups(rows, weight, slow, moves):
                    continue  # a group of relay paths is too slow in every column
            matrix = ScheduleMatrix(rows)
            x, tau = solve_partition(matrix, inst)
            if budget.prune and tau < family.bound:
                raise ContractError("a family bound exceeds one of its makespans")
            if best_tau is None or tau < best_tau:
                best_tau = tau
                best = Schedule(x, matrix)
                p, q = best_tau.numerator, best_tau.denominator
                weight = [q * s - p * scale for s in speed]
                slow.clear()
                if budget.prune and best_tau <= family.bound:
                    break  # this family cannot do strictly better
    return best_tau, best


def _family_matrices(
    inst: ProblemInstance,
    family: _Family,
    placements: dict[tuple[int, ...], list[tuple[int, ...]]],
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every matrix of ``family`` as its tuple of rows."""
    m = inst.agents
    retired = dict(family.prefixes)
    choice_lists = []
    for c in range(family.n):
        active = tuple([
            k
            for k in range(1, inst.bikes + 1)
            if k not in retired or retired[k] > c
        ])
        if active not in placements:
            cols = []
            for rows in itertools.permutations(range(m), len(active)):
                col = [0] * m
                for bike, row in zip(active, rows):
                    col[row] = bike
                cols.append(tuple(col))
            placements[active] = cols
        if c == 0:
            # Canonical first column kills agent-relabeling symmetry.
            col = [0] * m
            for row, bike in enumerate(active):
                col[row] = bike
            choice_lists.append([tuple(col)])
        else:
            choice_lists.append(placements[active])
    for combo in itertools.product(*choice_lists):
        if any(combo[c] == combo[c - 1] for c in range(1, family.n)):
            continue  # a merged duplicate column is enumerated at n - 1
        yield tuple(zip(*combo))
