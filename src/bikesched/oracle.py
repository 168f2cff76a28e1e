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

The leaders are generated column by column (orderly generation, after Read
1978 and McKay 1998).  A depth-first walk visits the matrices in the order
of ``itertools.product``, so the incumbents come as a loop over every matrix
would find them.  It drops a column equal to the one before it and cuts a
prefix in which two walker rows show a strict descent.  A relabeling's
image starts with the image of the rider row whose bike gets the least new
label: a prefix is cut when that row's image is smaller than row 0 there,
and the relabeling is dropped once it is larger.  Only relabelings still
tied at a leaf get the whole-matrix test.

Pruning last skips every leader that some group of relay paths rules out.
With s_ij agent i's inverse speed in column j and S_i(c) agent i's time at
boundary c, a relay path is one row r_c per column c that changes, r_c !=
r_{c-1}, only where r_c picks up at boundary c the bike r_{c-1} dropped.
Each pickup row keeps S_{r_{c-1}}(c) <= S_{r_c}(c), so by induction over the
columns a path's time sum_j s_{r_j j} x_j is at most t_{r_{n-1}} <= tau for
every feasible (x, tau).  Take W >= 1 paths, c_ij of them on row i in column
j.  Summing their times, W * tau >= sum_j x_j sum_i c_ij s_ij, and as the
x_j are nonnegative and sum to 1, tau >= min_j sum_i c_ij s_ij / W: a
nonnegative integer combination of paths, each of time at most tau, has
weighted mean at most tau.  This is weak LP duality with integer weights on
the agent and pickup rows (Chvatal 1983, ch. 5).  A matrix in which some
group is at least as slow as the incumbent in every column cannot beat it
strictly, and the search keeps only strict improvements, so the skip
changes no makespan and no witness.

A group puts at most K = ``_MULTIPLICITY`` paths on a row, the K of 1, 2 and
3 that certifies the oracle grid fastest.  Bit g of a mask stands for c_i
paths on row i, c_i the i-th base-(K + 1) digit of g.  With the incumbent
p/q, label l weighs q * speed[l] - p * scale in the integer speed table,
and g is slow in a column when sum_i c_i * weight[col_i] >= 0.  At each
boundary the reached groups are closed under the pickups to a fixpoint: for
a pickup (p, d), a reached g with c_d >= 1 and c_p < K also reaches g with
one path moved from d to p.  The walk carries the mask of groups reached
down its path, one closure and one AND per edge, skips a leaf whose mask is
nonzero and does no bound work below a mask of 0.  For speeds {4, 4, 5/4}
at m = 4 and limit 1, 5,646 of the 11,256 matrices below the optimum are
orbit leaders, and 519 of them pass the group test (783 with K = 1).

Pruning also carries each solved LP's dual certificate to the later
matrices of its family.  ``lp._solve`` returns the optimum's checked dual
weights y >= 0 (``lp._dual``): with head > 0, head * tau = sum_k y_k *
row_k(x, tau) as linear forms, over the agent rows, the pickup rows, the
rows x_j >= 0 and the sum row, whose weight y_sum is head times the
optimum.  Take a matrix of the same column count with inverse speeds s'_ij
that has every pickup (p, d, c) that y weighs.  Adding up its agent rows
and those pickup rows with the same weights gives, for every feasible (x',
tau'), head * tau' >= sum_j x'_j sum_i w_ij s'_ij: a pickup row's terms
s'_pj - s'_dj, j < c, move weight from picker to dropper in the columns
before it, so w_ij = y_{a_i} less the weights of the pickups with picker i
and c > j plus those with dropper i and c > j.  As the x'_j are
nonnegative and sum to 1, head * tau' >= min_j sum_i w_ij s'_ij, and a
matrix whose bound is at least the incumbent cannot beat it strictly: it is
skipped without its LP, which changes no makespan and no witness.  In a
column that the two matrices share, column j of the identity gives the pace
sum_i w_ij s_ij = y_sum + y_{x_j} >= y_sum, so the bound is at least
(y_sum + min(0, min_j D_j)) / head, with D_j = sum_i w_ij (s'_ij - s_ij)
over the columns that differ; on the solved matrix itself it is its
optimum, since some x_j > 0 has y_{x_j} = 0.  This is the relay bound's
argument with the LP's own fractional weights, and the weighted pickups
must exist because weak duality only adds up rows that the new LP has.  The
search tries the certificates of the family's ``_CERTIFICATES`` latest
solved matrices, newest first; a one-column family has one matrix and
certifies nothing.  For {4, 4, 5/4}, 61 LPs are left of the 519.

The pruned and unpruned searches return identical values (property-tested);
turn pruning off to make the search a pure exhaustive sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .lp import _answer, _Dual, _solve
from .model import (
    ContractError, ProblemInstance, Schedule, ScheduleMatrix, abandonment_vector, pickups
)


_MULTIPLICITY = 2  # K: the most relay paths a group puts on one row
_CERTIFICATES = 8  # the latest LP certificates of a family tried on each matrix
_Column = tuple[int, ...]
_Rows = tuple[_Column, ...]


class BudgetExceededError(ValueError):
    """Raised when an instance is too large for the enumeration budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard ceiling on brute-force instance size.

    ``max_columns`` of None means "as many columns as agents", which is
    always enough; raising it only slows the search down.  ``prune`` toggles
    the family bounds, the one-matrix-per-orbit skip, the pace bound of
    relay-closed agent groups and the dual certificates of earlier LPs
    described in the module docstring; off, every enumerated matrix is
    scored.
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


class _Family(NamedTuple):
    """One enumeration family: a makespan lower bound shared by all its
    matrices, as an integer over m * scale (the instance's label speed
    scale), the column count, the retired bikes and their prefix lengths,
    and the number of rows that ride in their first column.  Families sort
    in the order the pruned search visits them."""

    bound: int
    n: int
    prefixes: tuple[tuple[int, int], ...]  # (bike, columns ridden), bike 1-based
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
    bikes = range(1, b + 1)
    # Every bound is an integer over m * scale: a column average is m *
    # scale less (scale - speed[k]) for each riding bike k, and u_k is m *
    # speed[k].  Active sets only shrink along the columns, and dropping a
    # bike (u < 1) for a walker raises the average, so column 0 has the
    # lowest column average.
    gain = [scale - speed[k] for k in range(b + 1)]
    everyone = m * scale - sum(gain[1:])
    kinds = []  # (retired, final-column bound) per retired set
    for count in range(0, min(abandon_limit, b) + 1):
        for retired in itertools.combinations(bikes, count):
            final = m * max([speed[k] for k in bikes if k not in retired], default=0)
            kinds.append((retired, final))
    families = []
    for n in range(1, max_cols + 1):
        for retired, final in kinds:
            for lengths in itertools.product(range(n), repeat=len(retired)):
                # A bike retired after 0 columns walks in column 0 too.
                idle = [k for k, length in zip(retired, lengths) if not length]
                average = everyone + sum([gain[k] for k in idle])
                prefixes = tuple(zip(retired, lengths))
                families.append(_Family(max(average, final), n, prefixes, b - len(idle)))
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


class _PaceBound:
    """The relay-closed pace bound of one search: the incumbent's label
    weights, each column's mask of slow groups under them, and each pickup's
    group move, built the first time the walk meets it."""

    def __init__(self, inst: ProblemInstance) -> None:
        self.speed, self.scale = inst._label_speeds
        self.weight: Optional[list[int]] = None  # no incumbent yet
        self.slow: dict[_Column, int] = {}
        self.moves: dict[tuple[int, int], tuple[int, int, int]] = {}

    def improve(self, tau: Fraction) -> None:
        self.weight = [tau.denominator * s - tau.numerator * self.scale for s in self.speed]
        self.slow = {}

    def mask(self, col: _Column) -> int:
        """Bitmask of the groups at least as slow as the incumbent in ``col``:
        bit g, with c_i the i-th base-(K + 1) digit of g, is set when sum_i
        c_i * weight[col[i]] >= 0."""
        mask = self.slow.get(col)
        if mask is None:
            sums = [0]
            for w in [self.weight[label] for label in col]:
                sums = [s + k * w for k in range(_MULTIPLICITY + 1) for s in sums]
            bits = "".join(["0" if s < 0 else "1" for s in reversed(sums)])
            mask = self.slow[col] = int(bits, 2) & -2
        return mask

    def close(self, groups: int, prev: Optional[_Column], col: _Column) -> int:
        """``groups`` closed under the pickups from ``prev`` to ``col`` to a
        fixpoint.  Pickup (p, d) moves the groups ``movers`` marks, those
        with a path on d and fewer than K on p: bit g also reaches the bit
        ``(1 << g) << up >> down``, with one path moved from d to p."""
        moves = []
        for p, d in pickups(prev, col) if prev is not None else ():
            move = self.moves.get((p, d))
            if move is None:
                base = _MULTIPLICITY + 1
                movers = sum([1 << g for g in range(base ** len(col))
                              if g // base**d % base and g // base**p % base < _MULTIPLICITY])
                shift = base**p - base**d
                move = self.moves[p, d] = (movers, max(shift, 0), max(-shift, 0))
            moves.append(move)
        reached = 0
        while reached != groups:  # pickups chain within one boundary
            reached = groups
            for movers, up, down in moves:
                groups |= (groups & movers) << up >> down
        return groups

    def reach(self, cols: list[_Column]) -> int:
        """The groups slow in every column of ``cols``: none before an incumbent."""
        groups = 0 if self.weight is None else -1
        for j, col in enumerate(cols):
            if groups:
                groups = self.close(groups, cols[j - 1] if j else None, col) & self.mask(col)
        return groups


class _Certificate:
    """The checked dual certificate of one solved matrix, carried to later
    matrices of its family (module docstring): each column's old labels,
    agent weights and weighted pace, and the pickups it weighs."""

    def __init__(self, dual: _Dual, cols: _Rows, speed: tuple[int, ...]) -> None:
        self.head, self.speed, self.pickups = dual.head, speed, dual.pickups
        self.columns = list(zip(cols, dual.weights, dual.paces))

    def pace(self, cols: _Rows) -> Optional[int]:
        """``head`` times a lower bound on the makespan of the matrix with
        columns ``cols`` (of the same size), or None when it lacks a pickup
        that the certificate weighs."""
        for p, d, c in self.pickups:
            label = cols[c - 1][d]
            if not label or cols[c][p] != label:
                return None
        speed = self.speed
        return min([
            pace if col == old else sum([a * speed[label] for a, label in zip(w, col)])
            for (old, w, pace), col in zip(self.columns, cols)
        ])

    def rules_out(self, cols: _Rows, p: int, q: int) -> bool:
        """Whether the certificate proves that the matrix with columns
        ``cols`` has makespan at least p / q, so that it cannot improve on
        that incumbent."""
        pace = self.pace(cols)
        return pace is not None and pace * q >= self.head * p


def _search(
    inst: ProblemInstance, budget: EnumerationBudget, abandon_limit: int
) -> tuple[Fraction, Schedule]:
    m = inst.agents
    max_cols = budget.max_columns if budget.max_columns is not None else m
    speed, scale = inst._label_speeds
    unit = m * scale  # the family bounds are ints over unit
    families = _families(inst, abandon_limit, max_cols)
    if budget.prune:
        families.sort()
    relabelings = _relabelings(inst)
    pace = _PaceBound(inst) if budget.prune else None
    placements: dict[_Column, list[_Column]] = {}

    best_tau: Optional[Fraction] = None
    best: Optional[Schedule] = None
    p = q = 0  # best_tau as ints
    for family in families:
        if budget.prune and best is not None and family.bound * q >= p * unit:
            break  # families are bound-sorted: nothing later can win
        # A one-column family has one matrix, which no later one can use.
        certify = budget.prune and family.n > 1
        kept: list[_Certificate] = []  # the family's latest certificates first
        for rows in _walk(inst, family, relabelings, pace, placements):
            if certify:
                cols = tuple(zip(*rows))
                if any(c.rules_out(cols, p, q) for c in kept):
                    continue
            matrix = ScheduleMatrix(rows)
            v, den, dual = _solve(matrix, inst, certify)
            tau = v[-1]
            if budget.prune and tau * unit < family.bound * den:
                raise ContractError("a family bound exceeds one of its makespans")
            if certify:
                kept.insert(0, _Certificate(dual, cols, speed))
                del kept[_CERTIFICATES:]
            if best is None or tau * q < p * den:
                x, best_tau = _answer(v, den)
                p, q = best_tau.numerator, best_tau.denominator
                best = Schedule(x, matrix)
                if pace is not None:
                    pace.improve(best_tau)
                    if p * unit <= family.bound * q:
                        break  # this family cannot do strictly better
    return best_tau, best


def _walk(
    inst: ProblemInstance, family: _Family, relabelings: list[_Column],
    pace: Optional[_PaceBound], placements: dict[_Column, list[_Column]],
) -> Iterator[_Rows]:
    """Every matrix of ``family`` but those with a repeated column, as rows,
    in ``itertools.product`` order over each column's choices: the canonical
    first column, then every placement of the active bikes (cached per
    active set in ``placements``).  With a ``pace`` bound (pruning on), only
    the orbit leaders that no group of relay paths rules out; the caller may
    improve its incumbent between yields."""
    m, riders, retired = inst.agents, family.riders, dict(family.prefixes)
    choices = []
    for c in range(family.n):
        active = tuple([k for k in range(1, inst.bikes + 1) if retired.get(k, family.n) > c])
        if active not in placements:
            placements[active] = [
                tuple([active[rows.index(i)] if i in rows else 0 for i in range(m)])
                for rows in itertools.permutations(range(m), len(active))
            ]
        choices.append(placements[active] if c else [(*active, *[0] * (m - len(active)))])
    first, pairs, maps = choices[0][0], (), []
    if pace is not None:
        pairs = tuple(range(riders + 1, len(first)))  # walker rows i - 1 and i
        if riders:  # each relabeling with the rider row whose image leads
            maps = [(a, min(range(riders), key=lambda i: a[first[i]])) for a in relabelings]
    return _extend(choices, riders, pace, [], pairs, maps, pace.reach([]) if pace else 0)


def _extend(
    choices: list[list[_Column]], riders: int, pace: Optional[_PaceBound], path: list[_Column],
    pairs: tuple[int, ...], maps: list[tuple[_Column, int]], groups: int,
) -> Iterator[_Rows]:
    """The matrices of ``_walk`` that start with the columns ``path``, whose
    walker row ``pairs`` are still equal, whose relabelings ``maps`` still
    map their rider row onto row 0, and which reach ``groups``."""
    prev = path[-1] if path else None
    weight = pace.weight if pace else None
    for col in choices[len(path)]:
        if col == prev:
            continue  # the merged matrix is enumerated with one column fewer
        if any([col[i - 1] > col[i] for i in pairs]):
            continue  # a walker row descent: no leader below
        if any([a[col[i]] < col[0] for a, i in maps]):
            continue  # a smaller image: no leader below
        if pace is not None and pace.weight is not weight:
            weight, groups = pace.weight, pace.reach(path)  # the incumbent improved
        still = tuple([i for i in pairs if col[i - 1] == col[i]])
        tied = [(a, i) for a, i in maps if a[col[i]] == col[0]]
        if len(path) + 1 < len(choices):
            reached = groups and pace.close(groups, prev, col) & pace.mask(col)
            yield from _extend(choices, riders, pace, [*path, col], still, tied, reached)
            continue
        if groups:  # the closure only adds groups: try without it first
            mask = pace.mask(col)
            if groups & mask or mask and pace.close(groups, prev, col) & mask:
                continue  # a group of relay paths is too slow in every column
        rows = tuple(zip(*path, col))
        images = [[tuple([a[c] for c in row]) for row in rows] for a, _ in tied]
        if all([tuple(sorted(im[:riders]) + sorted(im[riders:])) >= rows for im in images]):
            yield rows
