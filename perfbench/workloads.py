"""The benchmark's four workloads: their inputs and one pass over them.

Each class in ``WORKLOADS`` is built from the seed and the imported bikesched
package and makes the workload's inputs.  Its ``run_pass(op)`` performs every
operation once, in a fixed order, through ``op(kind, m, call, check)``:
``call`` is the timed call into bikesched and ``check`` returns the problems
the exact checker finds in its result.  Every pass of a run performs the same operations on the same
inputs, so counts taken from a pass do not depend on how many passes fit.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction as F

import checker
from checker import Plain, average_bound, one_abandonment_crossing


def plain(s) -> Plain:
    return Plain(s.partition, s.matrix.rows, s.waits)


# relay-ladder --------------------------------------------------------------

LADDER_RUNGS = (4, 6, 8, 10, 12)
LAGGING_SPEED = F(9, 10)


def relay_family(m: int) -> tuple[F, ...]:
    """b = m/2 bikes with inverse speeds 1/3 + k/(10b), k = 0..b-1."""
    b = m // 2
    return tuple(F(1, 3) + F(k, 10 * b) for k in range(b))


class RelayLadder:
    """solve_bs on the relay family, and solve_rbs (limit 1) on the same
    family with the slowest bike slowed to 9/10 so that it is abandoned."""

    def __init__(self, seed: int, B) -> None:
        self.B = B
        self.rungs = []
        for m in LADDER_RUNGS:
            u = relay_family(m)
            lagging = u[:-1] + (LAGGING_SPEED,)
            if not (
                u[-1] <= average_bound(m, u)
                and lagging[-1] > average_bound(m, lagging)
                and lagging[-2] <= one_abandonment_crossing(m, lagging)
            ):
                raise ValueError(f"rung {m} misses the relay or abandonment branch")
            self.rungs.append(
                (m, u, B.ProblemInstance(m, u), lagging,
                 B.ProblemInstance(m, lagging, abandonment_limit=1))
            )

    def run_pass(self, op) -> None:
        B = self.B
        for m, u, inst, lagging, relaxed in self.rungs:
            op("solve_bs", m, lambda: B.solve_bs(inst),
               lambda r: checker.check_bs(m, u, plain(r[0])))
            op("solve_rbs", m, lambda: B.solve_rbs(relaxed),
               lambda r: checker.check_rbs(m, lagging, plain(r.schedule), r.abandonment))


# random-mix ----------------------------------------------------------------

MIX_MAX_AGENTS = 10
MIX_PER_STRATUM = 3
MAX_DENOMINATOR = 24
REFERENCE_DRAWS = 32


def draw_speeds(rng: random.Random, b: int) -> tuple[F, ...]:
    """b inverse speeds p/q with 2 <= q <= 24, as in the acceptance corpora."""
    us = []
    for _ in range(b):
        q = rng.randint(2, MAX_DENOMINATOR)
        us.append(F(rng.randint(1, q - 1), q))
    return tuple(sorted(us))


def bs_path(m: int, u: tuple) -> tuple:
    """The dispatch a BS solve takes: (k,) with k solo riders, 0 for a relay."""
    if not u or u[-1] <= average_bound(m, u):
        return (0,)
    b = len(u)
    for k in range(1, b):
        if u[b - k - 1] <= average_bound(m - k, u[: b - k]):
            return (k,)
    return ("none",)


def rbs_path(m: int, u: tuple) -> tuple:
    """The dispatch a limit-1 solve takes, down its recursion."""
    if not u or u[-1] <= average_bound(m, u):
        return ("average",)
    b = len(u)
    if u[-2] <= one_abandonment_crossing(m, u):
        q = max(
            (q for q in range(1, b + 1) if u[q - 1] <= average_bound(m - b + q, u[:q])),
            default=0,
        )
        return ("one-abandoned", q)
    for k in range(1, b - 1):
        rest = u[: b - k - 1] + (u[-1],)
        if u[b - k - 2] <= one_abandonment_crossing(m - k, rest) <= u[b - 2]:
            return ("second-slowest", k) + rbs_path(m - k, rest)
    return ("none",)


@functools.lru_cache(maxsize=None)
def _common_path(m, b, path_of) -> tuple:
    """The stratum's most common dispatch path in a fixed, seed-independent
    reference sample."""
    ref = random.Random(f"{path_of.__name__}-{m}-{b}")
    counts = Counter(path_of(m, draw_speeds(ref, b)) for _ in range(REFERENCE_DRAWS))
    return max(counts, key=lambda p: (counts[p], repr(p)))


def _conditioned_speeds(rng, m, b, path_of) -> tuple[F, ...]:
    """Speeds from ``rng`` whose dispatch path is the stratum's most common one."""
    target = _common_path(m, b, path_of)
    while True:
        u = draw_speeds(rng, b)
        if path_of(m, u) == target:
            return u


class RandomMix:
    """Three BS and three limit-1 RBS instances per (m, b), m <= 10, speeds
    drawn from the seed; waits are injected into every BS answer and drained.
    Three per stratum, not one, give the slowest strata enough calls that
    the latency tail does not hang on one or two draws."""

    def __init__(self, seed: int, B) -> None:
        self.B = B
        rng = random.Random(seed)
        self.items = []
        for m in range(1, MIX_MAX_AGENTS + 1):
            for b, _ in itertools.product(range(0, m + 1), range(MIX_PER_STRATUM)):
                u_bs = _conditioned_speeds(rng, m, b, bs_path)
                u_rbs = _conditioned_speeds(rng, m, b, rbs_path)
                waits = [
                    (rng.random(), rng.random(), F(rng.randint(1, 7), rng.randint(8, 40)))
                    for _ in range(rng.randint(1, 3))
                ]
                self.items.append((
                    m, u_bs, B.ProblemInstance(m, u_bs),
                    u_rbs, B.ProblemInstance(m, u_rbs, abandonment_limit=1),
                    waits, rng.random(),
                ))
        tops = Counter("rbs-" + rbs_path(m, u)[0] for m, _, _, u, *_ in self.items)
        tops.update("bs-relay" if bs_path(m, u) == (0,) else "bs-solo"
                    for m, u, *_ in self.items)
        if len(tops) < 5:
            raise ValueError(f"random-mix misses a dispatch branch: {dict(tops)}")

    def _inject(self, sched, u, waits, fallback):
        """Criterion 9's injection: keep each wait that leaves the schedule
        feasible; if none does, wait 1/9 in the final column."""
        m, n = sched.agents, sched.size
        grid = [[F(0)] * n for _ in range(m)]
        injected = F(0)
        for fi, fj, w in waits:
            i, j = int(fi * m), int(fj * n)
            grid[i][j] += w
            if checker.feasibility(Plain(sched.partition, sched.matrix.rows, grid), u):
                grid[i][j] -= w
            else:
                injected += w
        if injected == 0:
            injected = grid[int(fallback * m)][n - 1] = F(1, 9)
        return self.B.Schedule(sched.partition, sched.matrix, tuple(map(tuple, grid))), injected

    def run_pass(self, op) -> None:
        B = self.B
        for m, u_bs, inst, u_rbs, relaxed, waits, fallback in self.items:
            res = op("solve_bs", m, lambda: B.solve_bs(inst),
                     lambda r: checker.check_bs(m, u_bs, plain(r[0])))
            if res is None:
                op.skip("remove_all_waits", m, latency=False)
            else:
                noisy, injected = self._inject(res[0], u_bs, waits, fallback)
                op("remove_all_waits", m, lambda: B.remove_all_waits(noisy, inst),
                   lambda r: checker.check_drain(u_bs, plain(noisy), plain(r), injected),
                   latency=False)
            op("solve_rbs", m, lambda: B.solve_rbs(relaxed),
               lambda r: checker.check_rbs(m, u_rbs, plain(r.schedule), r.abandonment))


# oracle-grid ---------------------------------------------------------------

ORACLE_SPEEDS = (F(5, 4), F(3, 2), F(2), F(4))
# The relaxed m=4, b=3 instance on which family-bound pruning never stops the
# search, so all 11,256 LPs are solved; the cheapest such one on the grid.
ORACLE_FULL_SEARCH = (F(4), F(4), F(5, 4))


class OracleGrid:
    """brute_force_bs and brute_force_rbs (limit 1) on every grid instance
    with m <= 4, b <= min(m, 3), except at m=4, b=3: there the fixed
    full-search instance, relaxed, and one seeded instance, full delivery.

    The rest of the m=4, b=3 place is left out because one relaxed instance
    there costs about as much as everything else together; a seeded pick
    among them would make a pass's cost depend on the seed more than on the
    program.
    """

    def __init__(self, seed: int, B) -> None:
        self.B = B
        rng = random.Random(seed)
        self.items = []
        for m in range(1, 5):
            for b in range(0, min(m, 3) + 1):
                combos = list(itertools.combinations_with_replacement(ORACLE_SPEEDS, b))
                if (m, b) == (4, 3):
                    picks = [(rng.choice(combos), 0), (ORACLE_FULL_SEARCH, 1)]
                else:
                    picks = [(vs, limit) for vs in combos for limit in (0, 1)]
                for vs, limit in picks:
                    u = tuple(sorted(1 / v for v in vs))
                    self.items.append(
                        (m, u, limit, B.ProblemInstance(m, u, abandonment_limit=limit))
                    )

    def run_pass(self, op) -> None:
        B = self.B
        for m, u, limit, inst in self.items:
            if limit:
                op("brute_force_rbs", m, lambda: B.brute_force_rbs(inst),
                   lambda r: checker.check_oracle(m, u, 1, r[0], plain(r[1])))
            else:
                op("brute_force_bs", m, lambda: B.brute_force_bs(inst),
                   lambda r: checker.check_oracle(m, u, 0, r[0], plain(r[1])))


# cold-reduce ---------------------------------------------------------------


class ColdReduce:
    """relay_reference, then reduce_schedule with no starting partition, on
    the acceptance grid m <= 7, b <= min(m - 1, 6), u_k = 1/2 + k/100."""

    def __init__(self, seed: int, B) -> None:
        self.B = B
        self.items = []
        for m in range(2, 8):
            for b in range(1, min(m - 1, 6) + 1):
                u = tuple(F(1, 2) + F(k, 100) for k in range(b))
                self.items.append((m, u, B.ProblemInstance(m, u)))

    def run_pass(self, op) -> None:
        B = self.B
        for m, u, inst in self.items:
            ref = op("relay_reference", m, lambda: B.relay_reference(inst),
                     lambda r: checker.check_reference(m, u, plain(r)))
            if ref is None:
                op.skip("reduce_schedule", m)
                continue
            tau = checker.makespan(plain(ref), u)
            op("reduce_schedule", m, lambda: B.reduce_schedule(ref.matrix, inst),
               lambda r: checker.check_reduced(m, u, plain(r), tau))


WORKLOADS = {
    "relay-ladder": RelayLadder,
    "random-mix": RandomMix,
    "oracle-grid": OracleGrid,
    "cold-reduce": ColdReduce,
}

def warm_up(B) -> None:
    """One small call per operation kind, made before timing starts."""
    inst = B.ProblemInstance(3, (F(1, 2), F(2, 3)))
    relaxed = B.ProblemInstance(3, (F(1, 2), F(9, 10)), abandonment_limit=1)
    sched, _ = B.solve_bs(inst)
    B.solve_rbs(relaxed)
    B.remove_all_waits(B.Schedule(sched.partition, sched.matrix,
                                  tuple((F(0),) * sched.size for _ in range(3))), inst)
    ref = B.relay_reference(inst)
    B.reduce_schedule(ref.matrix, inst)
    B.brute_force_bs(B.ProblemInstance(2, (F(1, 2),)))
    B.brute_force_rbs(B.ProblemInstance(2, (F(1, 2), F(2, 3)), abandonment_limit=1))
