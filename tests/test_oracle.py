import itertools
import random
from fractions import Fraction as F

import pytest

import bikesched.lp as lp
import bikesched.oracle as oracle

from bikesched import (
    BudgetExceededError,
    EnumerationBudget,
    ProblemInstance,
    ScheduleMatrix,
    brute_force_bs,
    brute_force_rbs,
    check_feasible,
    completion_profile,
    solve_partition,
)
from conftest import random_full_matrix, random_instance


def _retiring_matrix(rng, inst) -> tuple[tuple[int, ...], ...]:
    """A random full matrix of 1 to m columns whose bikes each retire after
    a random prefix with probability 0.3, as its rows."""
    n = rng.randint(1, inst.agents)
    cols = [list(col) for col in zip(*random_full_matrix(rng, inst, n).rows)]
    for k in range(1, inst.bikes + 1):
        if rng.random() < 0.3:
            for col in cols[rng.randint(1, n):]:
                col[col.index(k)] = 0
    return tuple(zip(*cols))


def _pace(inst, tau) -> "oracle._PaceBound":
    """The search's pace bound with incumbent ``tau``."""
    pace = oracle._PaceBound(inst)
    pace.improve(tau)
    return pace


def _reference_matrices(inst, family):
    """Every matrix of ``family`` as its rows, by ``itertools.product`` over
    its column choices, less those with a repeated column: the order and
    the matrices the walk must reproduce.  The first column is canonical,
    bike k of its active set on row k - 1; each later column places the
    bikes still ridden on distinct rows."""
    m, retired = inst.agents, dict(family.prefixes)
    choices = []
    for c in range(family.n):
        active = [k for k in range(1, inst.bikes + 1) if k not in retired or retired[k] > c]
        cols = []
        for rows in itertools.permutations(range(m), len(active)):
            col = [0] * m
            for bike, row in zip(active, rows):
                col[row] = bike
            cols.append(tuple(col))
        choices.append(cols if c else [tuple(active + [0] * (m - len(active)))])
    for combo in itertools.product(*choices):
        if all(combo[c] != combo[c - 1] for c in range(1, len(combo))):
            yield tuple(zip(*combo))


def _is_leader(rows, riders, relabelings) -> bool:
    """The orbit leader test on one whole matrix: the first column's walker
    rows are non-decreasing and no relabeling's image (rider rows ordered
    by their new first label, walker rows sorted) is smaller."""
    walkers = rows[riders:]
    if any(a > b for a, b in zip(walkers, walkers[1:])):
        return False
    for label in relabelings:
        image = [tuple([label[c] for c in row]) for row in rows]
        if tuple(sorted(image[:riders]) + sorted(image[riders:])) < rows:
            return False
    return True


def _scored(inst, pace, leaves) -> list:
    """Every matrix ``leaves`` yields, each scored by its LP as the search
    does: a strictly better makespan becomes ``pace``'s incumbent before the
    next matrix is drawn."""
    scored, best = [], None
    for rows in leaves:
        scored.append(rows)
        _, tau = solve_partition(ScheduleMatrix(rows), inst)
        if best is None or tau < best:
            best = tau
            pace.improve(tau)
    return scored


def _count_lps(monkeypatch) -> list:
    """A list that gains one entry for every LP the oracle solves."""
    solves = []
    solve = oracle._solve
    monkeypatch.setattr(oracle, "_solve", lambda *a: solves.append(1) or solve(*a))
    return solves


class TestBruteForceBs:
    @pytest.mark.parametrize(
        "m, us, expected",
        [
            (2, (F(1, 2),), F(3, 4)),
            (2, (F(1, 3), F(1, 2)), F(1, 2)),
            (3, (F(1, 2), F(1, 2)), F(2, 3)),
        ],
    )
    def test_known_optima(self, m, us, expected):
        tau, witness = brute_force_bs(ProblemInstance(m, us))
        assert tau == expected
        inst = ProblemInstance(m, us)
        assert check_feasible(witness, inst).ok
        assert completion_profile(witness, inst).makespan == tau
        assert witness.matrix.bikes_in_final_column() == frozenset(
            range(1, len(us) + 1)
        )

    def test_budget_enforced(self):
        inst = ProblemInstance(5, (F(1, 2),))
        with pytest.raises(BudgetExceededError):
            brute_force_bs(inst, EnumerationBudget(max_agents=4))

    def test_extra_columns_never_help(self):
        for m, us in [(2, (F(1, 2),)), (3, (F(1, 3), F(1, 2))), (2, (F(2, 3), F(3, 4)))]:
            inst = ProblemInstance(m, us)
            base, _ = brute_force_bs(inst)
            wide, _ = brute_force_bs(
                inst, EnumerationBudget(max_columns=2 * m, prune=False)
            )
            assert wide == base


class TestBruteForceRbs:
    @pytest.mark.parametrize(
        "m, us, expected",
        [
            (2, (F(1, 3), F(1, 2)), F(7, 15)),
            (3, (F(1, 2), F(4, 5)), F(17, 22)),
        ],
    )
    def test_known_optima(self, m, us, expected):
        inst = ProblemInstance(m, us, abandonment_limit=1)
        tau, witness, usage = brute_force_rbs(inst)
        assert tau == expected
        assert check_feasible(witness, inst).ok
        assert sum(1 for y in usage if y < 1) <= 1

    def test_limit_zero_matches_bs(self):
        inst = ProblemInstance(3, (F(1, 2), F(3, 4)))
        tau_bs, _ = brute_force_bs(inst)
        tau_rbs, _, _ = brute_force_rbs(inst)
        assert tau_bs == tau_rbs

    def test_limit_two_explores_more(self):
        # Two slow bikes and one fast one: retiring both laggards beats
        # retiring one.
        us = (F(1, 4), F(9, 10), F(19, 20))
        one, _, _ = brute_force_rbs(ProblemInstance(3, us, abandonment_limit=1))
        two, _, usage = brute_force_rbs(ProblemInstance(3, us, abandonment_limit=2))
        assert two <= one
        assert sum(1 for y in usage if y < 1) <= 2


# Searches where the orbit skip bites, as (m, us, abandonment limit, columns).
ORBIT_CASES = [
    # Two equal speeds and two first-column walkers: both skips bite.
    *[(4, (F(1, 2), F(1, 2)), limit, None) for limit in (0, 1, 2)],
    # One bike, three walkers: only the walker order bites.
    *[(4, (F(1, 3),), limit, None) for limit in (0, 1)],
    # Three equal speeds; two equal and a lagging bike.
    *[(4, (F(3, 4),) * 3, limit, 3) for limit in (0, 1, 2)],
    *[(4, (F(1, 4), F(1, 4), F(4, 5)), limit, 3) for limit in (1, 2)],
    *[(3, (F(1, 4), F(1, 4), F(4, 5)), limit, None) for limit in (1, 2)],
]


class TestPruning:
    def test_pruned_equals_exhaustive(self):
        grid = [F(4, 5), F(1, 2), F(2, 3)]
        cases = []
        for m in (2, 3):
            for us in [(), (grid[0],), (grid[1],), (grid[0], grid[1]), (grid[1], grid[2])]:
                if len(us) <= m:
                    cases.append((m, tuple(sorted(us))))
        for m, us in cases:
            inst = ProblemInstance(m, us, abandonment_limit=1)
            fast = EnumerationBudget(prune=True)
            slow = EnumerationBudget(prune=False)
            assert brute_force_bs(inst, fast)[0] == brute_force_bs(inst, slow)[0]
            assert (
                brute_force_rbs(inst, fast)[0] == brute_force_rbs(inst, slow)[0]
            )

    @pytest.mark.parametrize("m, us, limit, columns", ORBIT_CASES)
    def test_orbit_skip_equals_exhaustive(self, m, us, limit, columns, monkeypatch):
        inst = ProblemInstance(m, us, abandonment_limit=limit)
        tau, witness, _ = brute_force_rbs(inst, EnumerationBudget(max_columns=columns))
        # Without pruning every enumerated matrix gets its LP.
        solves = _count_lps(monkeypatch)
        slow = EnumerationBudget(max_columns=columns, prune=False)
        assert brute_force_rbs(inst, slow)[0] == tau
        assert len(solves) == sum(
            1
            for family in oracle._families(inst, limit, columns or m)
            for _ in _reference_matrices(inst, family)
        )
        assert check_feasible(witness, inst).ok
        assert completion_profile(witness, inst).makespan == tau

    @pytest.mark.parametrize("m, us, limit, columns", ORBIT_CASES)
    def test_walk_yields_the_reference_leaders(self, m, us, limit, columns):
        # The walk cuts prefixes and carries the relay groups down its path.
        # A loop over every matrix of itertools.product must meet the same
        # matrices in the same order: all of them without pruning, the
        # orbit leaders with it, and, when each scored matrix may improve
        # the incumbent, the leaders that no group of relay paths rules out.
        inst = ProblemInstance(m, us, abandonment_limit=limit)
        relabelings = oracle._relabelings(inst)
        skipped = 0
        for family in oracle._families(inst, limit, columns or m):
            matrices = list(_reference_matrices(inst, family))
            assert list(oracle._walk(inst, family, relabelings, None, {})) == matrices
            leaders = [rows for rows in matrices if _is_leader(rows, family.riders, relabelings)]
            pace = oracle._PaceBound(inst)
            assert list(oracle._walk(inst, family, relabelings, pace, {})) == leaders
            skipped += len(matrices) - len(leaders)
            walked = _scored(inst, pace, oracle._walk(inst, family, relabelings, pace, {}))
            looped_pace = oracle._PaceBound(inst)
            looped = _scored(inst, looped_pace, (
                rows for rows in leaders
                if looped_pace.weight is None or not looped_pace.reach(list(zip(*rows)))
            ))
            assert walked == looped
        assert skipped

    def test_group_bound_caps_the_full_search(self, monkeypatch):
        # No family bound stops this search: 11,256 matrices below the
        # optimum, 5,646 orbit leaders, most of them outpaced by a slow group
        # of relay paths (783 LPs with at most one path per row, 519 with
        # two), and most of the rest bounded by the certificate of a matrix
        # solved before them.
        inst = ProblemInstance(4, (F(1, 4), F(1, 4), F(4, 5)), abandonment_limit=1)
        solves = _count_lps(monkeypatch)
        assert brute_force_rbs(inst)[0] == F(19, 32)
        assert len(solves) == 61

    @pytest.mark.parametrize(
        "us, columns",
        [((F(1, 4), F(1, 4), F(4, 5)), None), ((F(1, 3), F(4, 7), F(3, 4)), 3)],
    )
    def test_relay_closure_equals_agent_groups(self, us, columns, monkeypatch):
        # Without the pickups every group keeps its rows, which is the pace
        # bound of weighted agent groups alone: the same answer, witness
        # included, from strictly more LPs.
        inst = ProblemInstance(4, us, abandonment_limit=1)
        budget = EnumerationBudget(max_columns=columns)
        solves = _count_lps(monkeypatch)
        answer = brute_force_rbs(inst, budget)[:2]
        relayed = len(solves)
        monkeypatch.setattr(oracle, "pickups", lambda prev, col: [])
        assert brute_force_rbs(inst, budget)[:2] == answer
        assert len(solves) - relayed > relayed

    @pytest.mark.parametrize(
        "us, columns", [((F(1, 3), F(4, 7)), None), ((F(1, 3), F(4, 7), F(3, 4)), 3)]
    )
    def test_group_bound_equals_exhaustive(self, us, columns, monkeypatch):
        # Distinct speeds, so the orbit skip leaves most matrices to the
        # group bound.  Skipping never changes the answer, witness included.
        inst = ProblemInstance(4, us, abandonment_limit=1)
        budget = EnumerationBudget(max_columns=columns)
        solves = _count_lps(monkeypatch)
        tau, witness, _ = brute_force_rbs(inst, budget)
        bounded = len(solves)
        monkeypatch.setattr(oracle._PaceBound, "mask", lambda self, col: 0)  # no group is slow
        assert brute_force_rbs(inst, budget)[:2] == (tau, witness)
        unbounded = len(solves) - bounded
        assert 2 * bounded < unbounded
        slow = EnumerationBudget(max_columns=columns, prune=False)
        assert brute_force_rbs(inst, slow)[0] == tau
        assert check_feasible(witness, inst).ok
        assert completion_profile(witness, inst).makespan == tau

    def test_one_leader_per_orbit(self):
        # Every matrix of every family is enumerated, and the walk yields
        # one leader per orbit.  Two matrices lie in one orbit exactly when
        # some equal-speed relabeling and some row permutation map one onto
        # the other, so the least sorted-row tuple over the relabelings
        # names the orbit.  The families below the optimum 19/32 are those
        # the pruned search visits.
        us = (F(1, 4), F(1, 4), F(4, 5))
        inst = ProblemInstance(4, us, abandonment_limit=1)
        maps = [
            (0, *p) for p in itertools.permutations((1, 2, 3))
            if all(us[k - 1] == us[i] for i, k in enumerate(p))
        ]
        relabelings = oracle._relabelings(inst)
        unit = 4 * inst._label_speeds[1]  # family bounds are ints over m * scale
        counts = {}
        for below in (False, True):
            matrices = leaders = 0
            keys = set()
            for family in oracle._families(inst, 1, 4):
                if below and F(family.bound, unit) >= F(19, 32):
                    continue
                walk = oracle._walk(inst, family, relabelings, oracle._PaceBound(inst), {})
                leaders += sum(1 for _ in walk)
                for rows in _reference_matrices(inst, family):
                    matrices += 1
                    keys.add(min(
                        tuple(sorted([tuple([label[c] for c in row]) for row in rows]))
                        for label in maps
                    ))
            assert leaders == len(keys)
            counts[below] = (matrices, leaders)
        assert counts == {False: (50_880, 24_394), True: (11_256, 5_646)}

    def test_family_bound_is_lowest_column_average(self):
        # Each family's bound is the larger of its final-column bikes' u_k
        # and the lowest column average over all of its columns.
        from bikesched.oracle import _families

        grid = [F(4, 5), F(1, 2), F(2, 3), F(1, 4)]
        for m in (1, 2, 3, 4):
            for b in range(min(m, 3) + 1):
                inst = ProblemInstance(m, tuple(sorted(grid[:b])))
                for family in _families(inst, 2, m):
                    retired = dict(family.prefixes)
                    lowest = min(
                        sum(
                            (inst.inverse_speeds[k - 1] for k in range(1, b + 1)
                             if retired.get(k, c + 1) > c),
                            F(m - b + sum(1 for k in retired if retired[k] <= c)),
                        ) / m
                        for c in range(family.n)
                    )
                    final = max(
                        (inst.inverse_speeds[k - 1] for k in range(1, b + 1) if k not in retired),
                        default=F(0),
                    )
                    unit = m * inst._label_speeds[1]
                    assert F(family.bound, unit) == max(lowest, final)


class TestGroupBound:
    def test_makespan_is_at_least_every_group_pace(self):
        # Weak duality with integer weights c_i <= K on the agent rows and
        # none on the pickup rows: tau >= sum_i c_i t_i / sum_i c_i >= the
        # least column's weighted mean pace.  The search's bitmask marks
        # exactly the weights whose mean pace in a column is at least a
        # given tau.
        base = oracle._MULTIPLICITY + 1
        rng = random.Random(7)
        for _ in range(200):
            inst = random_instance(rng, max_agents=4, max_bikes=3)
            m, cols = inst.agents, list(zip(*_retiring_matrix(rng, inst)))
            _, tau = solve_partition(ScheduleMatrix(tuple(zip(*cols))), inst)
            bound = _pace(inst, tau)
            masks = [bound.mask(col) for col in cols]
            pace = (F(1), *inst.inverse_speeds)
            for g in range(1, base**m):
                c = [g // base**i % base for i in range(m)]
                paces = [sum([c[i] * pace[col[i]] for i in range(m)]) for col in cols]
                assert tau * sum(c) >= min(paces)
                assert [bool(mask >> g & 1) for mask in masks] == [
                    p >= tau * sum(c) for p in paces
                ]

    def test_no_relay_group_outpaces_the_optimum(self):
        # A relay path changes rows only where its new row picks up the bike
        # its old row dropped, so its time stays at most its last row's
        # finish time, and the mean of a multiset of paths at most tau.
        # With the incumbent just above tau no group is that slow in every
        # column.  At tau itself the closure keeps every group slow in every
        # column.  First a pinned case: rows 1 and 2 keep their bikes at
        # boundary 1, where a path leaving row 2 for row 1 would outpace tau.
        pinned = ProblemInstance(3, (F(3, 8), F(1, 2), F(5, 6)))
        cases = [(pinned, ((3, 0, 1), (1, 1, 0), (2, 2, 2)))]
        rng = random.Random(11)
        for _ in range(200):
            inst = random_instance(rng, max_agents=4, max_bikes=3)
            cases.append((inst, _retiring_matrix(rng, inst)))
        gained = 0
        for inst, rows in cases:
            _, tau = solve_partition(ScheduleMatrix(rows), inst)
            assert _pace(inst, tau + F(1, 10**9)).reach(list(zip(*rows))) == 0
            pace = _pace(inst, tau)
            plain = -1
            for col in zip(*rows):
                plain &= pace.mask(col)
            relayed = pace.reach(list(zip(*rows)))
            assert relayed & plain == plain
            gained += relayed != plain
        assert gained  # some groups are slow only by changing rows


class TestCertificates:
    def test_transported_bound_never_exceeds_the_optimum(self):
        # The checked dual weights y of one matrix's optimum, carried to a
        # second matrix of the same size that has every pickup they weigh,
        # bound the second's makespan from below (weak duality): head * tau'
        # is at least the least column's pace sum_i w_ij s'_ij.  The second
        # matrix reshuffles one or more columns of the first, so some pairs
        # keep the weighted pickups and some lose one.  Draws go on until 200
        # certificates weigh a pickup.  On the first matrix itself the bound
        # is its own optimum.
        rng = random.Random(13)
        weighted = applied = missing = tight = 0
        own = []
        while weighted < 200:
            inst = random_instance(rng, max_agents=4, max_bikes=3)
            rows = _retiring_matrix(rng, inst)
            cols = list(zip(*rows))
            _, _, dual = lp._solve(ScheduleMatrix(rows), inst, True)
            weighted += bool(dual.pickups)
            j = rng.randrange(len(cols))
            other = [tuple(rng.sample(col, len(col))) if k == j or rng.random() < 0.2 else col
                     for k, col in enumerate(cols)]
            cert = oracle._Certificate(dual, cols, inst._label_speeds[0])
            own.append(cert.pace(cols) == dual.total)
            pace = cert.pace(other)
            if pace is None:
                missing += 1
                continue
            _, tau = solve_partition(ScheduleMatrix(tuple(zip(*other))), inst)
            assert F(pace, cert.head) <= tau
            applied += 1
            tight += F(pace, cert.head) == tau and other != cols
        assert all(own)
        assert applied >= 200 and missing >= 100 and tight >= 100
