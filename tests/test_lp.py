import copy
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bikesched.bs
import bikesched.lp as lp_module
import bikesched.rbs
from bikesched import (
    PartitionLP,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    TIGHT_ONE_ABANDONED,
    average_bound,
    build_lp,
    check_feasible,
    completion_profile,
    one_abandonment_bound,
    reduce_schedule,
    relay_reference,
    solve_bs,
    solve_partition,
    solve_rbs,
)
from bikesched.lp import (
    LPContractError,
    is_vertex,
    satisfies_all_constraints,
    solve_lp,
    tight_constraint_rank,
    vertex_from_point,
)
from conftest import random_full_matrix, random_instance

TWO_ONE = ProblemInstance(2, (F(1, 2),))
RELAY_M = ScheduleMatrix(((1, 0), (0, 1)))


class TestBuildLp:
    def test_relay_structure(self):
        lp = build_lp(RELAY_M, TWO_ONE)
        assert lp.n == 2
        assert lp.agents == 2
        # One handover: agent 2 takes over at column 2 from agent 1.
        assert lp.switches == ((1, 0, 1),)
        # Inverse speeds 1/2 and 1 as ints over their lcm 2.
        assert (lp.speeds, lp.scale) == (((1, 2), (2, 1)), 2)
        assert _speed_rows(lp) == ((F(1, 2), F(1)), (F(1), F(1, 2)))
        # Scaled by 2: tau - t_1, tau - t_2, then the pickup row, whose
        # positive sign says agent 2 may not pick up before agent 1 arrives.
        assert [lp.row(j) for j in range(3, 6)] == [[-1, -2, 2], [-2, -1, 2], [1, 0, 0]]

    def test_rejects_row_count_other_than_agent_count(self):
        inst = ProblemInstance(3, (F(1, 2),))
        with pytest.raises(ValueError, match="3 agents"):
            build_lp(RELAY_M, inst)
        with pytest.raises(ValueError, match="3 agents"):
            solve_partition(RELAY_M, inst)

    def test_walk_only(self):
        lp = build_lp(ScheduleMatrix(((0,), (0,))), TWO_ONE)
        assert lp.switches == ()

    def test_solo_riders_no_switches(self):
        inst = ProblemInstance(2, (F(1, 3), F(1, 2)))
        lp = build_lp(ScheduleMatrix(((1,), (2,))), inst)
        assert lp.switches == ()

    def test_rejects_double_rider(self):
        with pytest.raises(ValueError):
            build_lp(ScheduleMatrix(((1,), (1,))), TWO_ONE)

    def test_rejects_teleporting_bike(self):
        with pytest.raises(ValueError):
            build_lp(ScheduleMatrix(((0, 1), (0, 0))), TWO_ONE)

    def test_rejects_label_above_bike_count(self):
        with pytest.raises(ValueError, match="out of range"):
            build_lp(ScheduleMatrix(((2,), (0,))), TWO_ONE)


class TestRowValues:
    """``PartitionLP.row_values``, evaluated from the agents' prefix sums,
    against the dense ``row(j)`` times v."""

    def test_prefix_sums_match_dense_rows(self, rng):
        switches = 0
        for k in range(150):
            inst = random_instance(rng, max_agents=7)
            if k % 3 == 0 and inst.bikes and inst.slowest <= average_bound(inst):
                matrix = relay_reference(inst).matrix
            else:
                matrix = random_full_matrix(rng, inst, rng.randint(1, 6))
            lp = build_lp(matrix, inst)
            switches += len(lp.switches)
            width = lp.n + 1
            units = [[int(c == j) for c in range(width)] for j in range(width)]
            draws = [[rng.randint(-(10**6), 10**6) for _ in range(width)] for _ in range(3)]
            for v in [[0] * width, *units, *draws]:
                rows = map(lp.row, range(width, width + lp.agents + len(lp.switches)))
                dense = [sum(a * b for a, b in zip(row, v)) for row in rows]
                assert lp.row_values(v) == dense
        assert switches > 500

    def test_feasibility_matches_fraction_rows(self, rng):
        # Points on and off the simplex, with tau at, below and above the
        # makespan, against the Fraction rows.
        verdicts = []
        for _ in range(300):
            inst = random_instance(rng, max_agents=5)
            matrix = random_full_matrix(rng, inst, rng.randint(1, 4))
            lp = build_lp(matrix, inst)
            n = lp.n
            weights = [rng.randint(0, 3) for _ in range(n)]
            weights[rng.randrange(n)] += 1
            x = [F(w, sum(weights)) for w in weights]
            if n > 1 and rng.random() < 0.3:
                i, j = rng.sample(range(n), 2)
                x[i] -= F(1, 5)
                x[j] += F(1, 5)
            elif rng.random() < 0.2:
                x = [xj * F(6, 5) for xj in x]
            tau = max(_dot(row[:n], x) for row in _speed_rows(lp)) + rng.choice((F(-1, 7), 0, F(1, 5)))
            v = [*x, tau]
            expected = (
                min(x) >= 0
                and sum(x) == 1
                and all(_dot(row, v) >= 0 for row in _fraction_rows(lp))
            )
            assert satisfies_all_constraints(lp, tuple(x), tau) == expected
            verdicts.append(expected)
        assert 50 < sum(verdicts) < 250


class TestSolvePartition:
    def test_two_agent_relay(self):
        x, tau = solve_partition(RELAY_M, TWO_ONE)
        assert x == (F(1, 2), F(1, 2))
        assert tau == F(3, 4)

    def test_single_rider(self):
        inst = ProblemInstance(1, (F(1, 2),))
        x, tau = solve_partition(ScheduleMatrix(((1,),)), inst)
        assert x == (F(1),) and tau == F(1, 2)

    def test_walk_only_unit_time(self):
        x, tau = solve_partition(ScheduleMatrix(((0,), (0,))), TWO_ONE)
        assert tau == F(1)

    def test_three_agent_reduced_relay(self):
        # Reduced three-column relay for two half-speed bikes; the optimum
        # splits the interval evenly and ties everyone at 2/3.
        inst = ProblemInstance(3, (F(1, 2), F(1, 2)))
        matrix = ScheduleMatrix(((1, 1, 0), (2, 0, 1), (0, 2, 2)))
        x, tau = solve_partition(matrix, inst)
        assert tau == F(2, 3)
        assert x == (F(1, 3), F(1, 3), F(1, 3))

    def test_forced_zero_column(self):
        # Crossing bikes of different speeds: the slow-to-fast handover is
        # only legal if the first interval has zero length.
        inst = ProblemInstance(2, (F(1, 4), F(1, 2)))
        matrix = ScheduleMatrix(((1, 2), (2, 1)))
        x, tau = solve_partition(matrix, inst)
        assert x[0] == F(0)
        assert tau == F(1, 2)

    def test_deterministic(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_agents=5)
            matrix = random_full_matrix(rng, inst, rng.randint(1, 5))
            assert solve_partition(matrix, inst) == solve_partition(matrix, inst)

    def test_profile_consistency(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_agents=5)
            matrix = random_full_matrix(rng, inst, rng.randint(1, 5))
            x, tau = solve_partition(matrix, inst)
            assert completion_profile(Schedule(x, matrix), inst).makespan == tau

    def test_optimal_among_feasible(self, rng):
        # Mixing the optimum with any other feasible point stays feasible and
        # can only be worse.
        for _ in range(10):
            inst = random_instance(rng, max_agents=5)
            matrix = random_full_matrix(rng, inst, rng.randint(2, 5))
            lp = build_lp(matrix, inst)
            x, tau = solve_partition(matrix, inst)
            other = tuple(
                (xj + (F(1) if j == lp.n - 1 else F(0))) / 2
                for j, xj in enumerate(x)
            )
            sched = Schedule(other, matrix)
            other_tau = completion_profile(sched, inst).makespan
            assert satisfies_all_constraints(lp, other, other_tau)
            assert tau <= other_tau


class TestVertexContract:
    def test_examples_are_vertices(self):
        lp = build_lp(RELAY_M, TWO_ONE)
        x, tau = solve_partition(RELAY_M, TWO_ONE)
        assert satisfies_all_constraints(lp, x, tau)
        assert is_vertex(lp, x, tau)
        assert tight_constraint_rank(lp, x, tau) == lp.n + 1

    def test_interior_point_is_not_a_vertex(self):
        inst = ProblemInstance(3, (F(1, 2), F(1, 2)))
        matrix = ScheduleMatrix(((1, 1, 0), (2, 0, 1), (0, 2, 2)))
        lp = build_lp(matrix, inst)
        # Feasible but suboptimal and constraint-slack point.
        x = (F(1, 2), F(1, 4), F(1, 4))
        tau = completion_profile(Schedule(x, matrix), inst).makespan + F(1, 7)
        assert tight_constraint_rank(lp, x, tau) < lp.n + 1

    def test_random_solutions_are_vertices(self, rng):
        for _ in range(15):
            inst = random_instance(rng, max_agents=5)
            matrix = random_full_matrix(rng, inst, rng.randint(1, 5))
            lp = build_lp(matrix, inst)
            x, tau = solve_partition(matrix, inst)
            assert satisfies_all_constraints(lp, x, tau)
            assert is_vertex(lp, x, tau)

    def test_vertex_from_point(self, rng):
        from bikesched.lp import vertex_from_point

        for _ in range(15):
            inst = random_instance(rng, max_agents=5)
            matrix = random_full_matrix(rng, inst, rng.randint(2, 5))
            lp = build_lp(matrix, inst)
            x, tau = solve_partition(matrix, inst)
            # Blend with the always-feasible final-column point: an interior-
            # ish feasible start whose makespan the slide may not increase.
            start = tuple(
                (xj + (F(1) if j == lp.n - 1 else F(0))) / 2
                for j, xj in enumerate(x)
            )
            start_tau = completion_profile(Schedule(start, matrix), inst).makespan
            vx, vtau = vertex_from_point(lp, start, start_tau)
            assert vtau <= start_tau
            assert satisfies_all_constraints(lp, vx, vtau)
            assert is_vertex(lp, vx, vtau)

    def test_many_handover_solution_is_a_vertex(self, rng):
        inst = ProblemInstance(6, tuple(F(k, k + 1) for k in range(1, 6)))
        matrix = random_full_matrix(rng, inst, 6)
        lp = build_lp(matrix, inst)
        x, tau = solve_partition(matrix, inst)
        assert satisfies_all_constraints(lp, x, tau)
        assert is_vertex(lp, x, tau)


class TestFinalColumnStart:
    """The simplex starts from x = e_last with tau the slowest inverse speed
    in the last column; that point must be feasible for every matrix."""

    @staticmethod
    def _start(lp):
        x = (F(0),) * (lp.n - 1) + (F(1),)
        return x, max(speeds[-1] for speeds in _speed_rows(lp))

    def test_random_full_matrices(self, rng):
        for _ in range(300):
            inst = random_instance(rng, max_agents=7)
            lp = build_lp(random_full_matrix(rng, inst, rng.randint(1, 6)), inst)
            assert satisfies_all_constraints(lp, *self._start(lp))

    def test_reference_relays(self, rng):
        checked = 0
        while checked < 12:
            inst = random_instance(rng, max_agents=6, min_agents=3)
            if not inst.bikes or inst.slowest > average_bound(inst):
                continue  # no relay, or no full-delivery relay exists
            lp = build_lp(relay_reference(inst).matrix, inst)
            assert satisfies_all_constraints(lp, *self._start(lp))
            checked += 1

    def test_infeasible_start_raises(self):
        # A negative inverse speed puts tau below zero at the start.
        with pytest.raises(LPContractError):
            solve_lp(PartitionLP(1, ((-1,),), 1, ()))


class TestDualCertificate:
    """solve_lp reads its dual weights y off tau's echelon row and checks
    head * tau = y . (the working rows) as linear forms, y >= 0 and
    y_sum / head = tau, raising LPContractError on any failure."""

    @staticmethod
    def _lp_with_exchanges(rng):
        """A seeded random LP whose walk makes at least two exchanges."""
        while True:
            inst = random_instance(rng, max_agents=5, min_agents=3)
            lp = build_lp(random_full_matrix(rng, inst, inst.agents), inst)
            exchanges = []
            real = lp_module._exchange
            lp_module._exchange = lambda *a: exchanges.append(1) or real(*a)
            try:
                lp_module._optimum(lp)
            finally:
                lp_module._exchange = real
            if len(exchanges) >= 2:
                return lp

    def test_weights_certify_every_optimum(self, rng):
        for _ in range(100):
            inst = random_instance(rng, max_agents=6)
            lp = build_lp(random_full_matrix(rng, inst, rng.randint(1, 5)), inst)
            v, den, echelon = lp_module._optimum(lp)
            dual = lp_module._dual(lp, echelon, v, den)
            assert F(dual.total, dual.head) == F(v[-1], den)
            # The identity over dense rows: head * e_tau = sum_k y_k row_k.
            tight, heads, _pivots, free = echelon
            form = [0] * (lp.n + 1)
            for j, c in zip(free, tight[lp.n]):
                assert c <= 0
                form = [a - c * b for a, b in zip(form, lp.row(j))]
            assert form == [0] * lp.n + [dual.head]
            weighted = [j - lp.n - 1 - lp.agents for j, c in zip(free, tight[lp.n]) if c]
            assert dual.pickups == [lp.switches[r] for r in sorted(weighted) if r >= 0]
            assert min(dual.paces) == dual.total
            # Weak duality at the final-column start, a feasible point.
            start = max(speeds[-1] for speeds in lp.speeds)
            assert dual.head * start >= dual.total * lp.scale

    def test_rejects_a_perturbed_weight(self, rng):
        lp = self._lp_with_exchanges(rng)
        v, den, echelon = lp_module._optimum(lp)
        lp_module._dual(lp, echelon, v, den)
        for k in range(lp.n + 1):
            for delta in (-1, 1):
                perturbed = copy.deepcopy(echelon)
                perturbed[0][lp.n][k] += delta
                with pytest.raises(LPContractError):
                    lp_module._dual(lp, perturbed, v, den)
        # Weights that certify the optimum do not certify another value.
        with pytest.raises(LPContractError):
            lp_module._dual(lp, echelon, v[:-1] + [v[-1] + 1], den)
        # Nor another head, even with the value y_sum / head to match it.
        perturbed = copy.deepcopy(echelon)
        perturbed[1][lp.n] += 1
        total = -echelon[0][lp.n][echelon[3].index(lp.n)]
        with pytest.raises(LPContractError):
            lp_module._dual(lp, perturbed, v[:-1] + [total], perturbed[1][lp.n])

    def test_rejects_the_vertex_before_the_optimum(self, rng, monkeypatch):
        # One exchange before the optimum the echelon still describes a
        # vertex and its value, but some slack's rise lowers tau: a negative
        # weight, which only the sign check catches.
        lp = self._lp_with_exchanges(rng)
        snapshots = []
        real = lp_module._exchange

        def spy(lp, echelon, k, b):
            snapshots.append(copy.deepcopy(echelon))
            real(lp, echelon, k, b)

        monkeypatch.setattr(lp_module, "_exchange", spy)
        lp_module._optimum(lp)
        tight, heads, _pivots, free = before = snapshots[-1]
        ks = free.index(lp.n)  # the sum slot: w_sum = 1, every other slack 0
        point = [F(-row[ks], h) for row, h in zip(tight, heads)]
        den = math.lcm(*[a.denominator for a in point])
        v = [int(a * den) for a in point]
        assert satisfies_all_constraints(lp, tuple(point[:-1]), point[-1])
        assert -tight[lp.n][ks] * den == heads[lp.n] * v[-1]
        assert max(tight[lp.n]) > 0
        with pytest.raises(LPContractError):
            lp_module._dual(lp, before, v, den)


def _elimination_rank(rows) -> int:
    """Rank by plain Fraction Gaussian elimination, independent of lp.py."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _speed_rows(lp):
    """The induced inverse speeds of every agent as Fractions."""
    return tuple([tuple([F(c, lp.scale) for c in row]) for row in lp.speeds])


def _fraction_rows(lp):
    """Every inequality a . (x, tau) >= 0 as Fractions, from the speed rows
    and handovers alone: tau - t_i for each agent, then for each handover the
    picker's time minus the dropper's at its column."""
    speed_rows = _speed_rows(lp)
    rows = [[-c for c in speeds] + [F(1)] for speeds in speed_rows]
    for picker, dropper, col in lp.switches:
        p, d = speed_rows[picker], speed_rows[dropper]
        rows.append([p[k] - d[k] for k in range(col)] + [F(0)] * (lp.n - col + 1))
    return rows


def _dot(row, v):
    return sum(a * b for a, b in zip(row, v))


def _tight_rows(lp, x, tau):
    """sum x = 1, every constraint row with a . (x, tau) = 0, and a unit row
    for every x_j = 0."""
    v = list(x) + [tau]
    n = lp.n
    tight = [[F(1)] * n + [F(0)]]
    tight += [row for row in _fraction_rows(lp) if _dot(row, v) == 0]
    tight += [[F(int(k == j)) for k in range(n + 1)] for j in range(n) if x[j] == 0]
    return tight


class TestTightRankOffVertices:
    def test_rank_matches_elimination(self, rng):
        below_full = 0
        for _ in range(200):
            inst = random_instance(rng, max_agents=4)
            matrix = random_full_matrix(rng, inst, rng.randint(1, 4))
            lp = build_lp(matrix, inst)
            n = lp.n
            x, tau = solve_partition(matrix, inst)
            t = F(rng.randint(1, 3), 4)
            blend = tuple(t * xj + (1 - t) * F(int(j == n - 1)) for j, xj in enumerate(x))
            uniform = (F(1, n),) * n
            points = [(x, tau)]
            for p in (blend, uniform):
                p_tau = completion_profile(Schedule(p, matrix), inst).makespan
                points.append((p, p_tau))
                if satisfies_all_constraints(lp, p, p_tau):
                    points.append(vertex_from_point(lp, p, p_tau))
            for px, ptau in points:
                expected = _elimination_rank(_tight_rows(lp, px, ptau))
                assert tight_constraint_rank(lp, px, ptau) == expected
                below_full += expected < n + 1
        assert below_full > 0


def _brute_force_optimum(lp):
    """Least tau over every vertex of the LP, found by solving each system
    of sum x = 1 plus n tight inequalities (rows or x_j = 0) by Fraction
    Gaussian elimination; independent of lp.py's kernel."""
    n = lp.n
    rows = _fraction_rows(lp)
    units = [[F(int(k == j)) for k in range(n + 1)] for j in range(n)]
    best = None
    for chosen in itertools.combinations(rows + units, n):
        system = [[F(1)] * n + [F(0), F(1)]] + [row + [F(0)] for row in chosen]
        point = _solve_square(system)
        if point is None:
            continue
        feasible = all(_dot(row, point) >= 0 for row in rows + units)
        if feasible and (best is None or point[n] < best):
            best = point[n]
    return best


def _solve_square(system):
    """The unique solution of an augmented square system, or None."""
    rows = [list(row) for row in system]
    size = len(rows)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[r][-1] / rows[r][r] for r in range(size)]


def _in_lowest_terms(values) -> bool:
    return all(
        isinstance(q, F) and math.gcd(q.numerator, q.denominator) == 1 for q in values
    )


def _assert_kernel_answers(lp, rng):
    """solve_lp returns the brute-force optimum at a vertex, and a slide from
    a blended start reaches a vertex no worse than the start, all as Fractions
    in lowest terms."""
    x, tau = solve_lp(lp)
    assert satisfies_all_constraints(lp, x, tau)
    assert is_vertex(lp, x, tau)
    assert tau == _brute_force_optimum(lp)
    assert _in_lowest_terms((*x, tau))
    t = F(rng.randint(1, 5), 6)
    start = tuple(t * xj + (1 - t) * F(int(j == lp.n - 1)) for j, xj in enumerate(x))
    start_tau = max(sum(s * xj for s, xj in zip(speeds, start)) for speeds in _speed_rows(lp))
    vx, vtau = vertex_from_point(lp, start, start_tau)
    assert vtau <= start_tau
    assert satisfies_all_constraints(lp, vx, vtau)
    assert is_vertex(lp, vx, vtau)
    assert _in_lowest_terms((*vx, vtau))


class TestIntegerKernel:
    """The integer elimination behind solve_lp and vertex_from_point, on
    small and on large denominators."""

    def test_seeded_small_denominators(self, rng):
        for _ in range(25):
            inst = random_instance(rng, max_agents=8)
            lp = build_lp(random_full_matrix(rng, inst, rng.randint(1, 3)), inst)
            _assert_kernel_answers(lp, rng)

    def test_coprime_denominators_near_a_million(self, rng):
        primes = (999953, 999959, 999961, 999979, 999983, 1000003, 1000033)
        for _ in range(20):
            m = rng.randint(2, 5)
            qs = rng.sample(primes, rng.randint(1, m))
            inst = ProblemInstance(m, tuple(F(rng.randint(1, q - 1), q) for q in qs))
            lp = build_lp(random_full_matrix(rng, inst, rng.randint(2, 3)), inst)
            _assert_kernel_answers(lp, rng)

    @staticmethod
    def _twenty_digit(*offsets):
        qs = [10**19 + k for k in offsets]
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(qs, 2))
        return qs

    def test_solve_bs_with_twenty_digit_denominators(self):
        qs = self._twenty_digit(1, 3, 7)
        inst = ProblemInstance(5, tuple(F(q // 3 + k, q) for k, q in enumerate(qs)))
        sched, cert = solve_bs(inst)
        profile = completion_profile(sched, inst)
        assert cert.value == max(inst.slowest, average_bound(inst)) == profile.makespan
        assert check_feasible(sched, inst).ok
        assert sched.size <= inst.agents
        assert is_vertex(build_lp(sched.matrix, inst), sched.partition, cert.value)
        assert _in_lowest_terms(sched.partition)

    def test_solve_rbs_with_twenty_digit_denominators(self):
        qs = self._twenty_digit(1, 3, 7)
        u = (F(qs[0] // 3, qs[0]), F(qs[1] // 3 + 1, qs[1]), F(9 * qs[2] // 10, qs[2]))
        inst = ProblemInstance(5, u, abandonment_limit=1)
        result = solve_rbs(inst)
        bound, _y_star = one_abandonment_bound(inst)
        assert result.certificate.tight == TIGHT_ONE_ABANDONED
        assert result.certificate.value == bound
        assert completion_profile(result.schedule, inst).makespan == bound
        assert check_feasible(result.schedule, inst).ok
        assert _in_lowest_terms(result.schedule.partition)


def _echelon_rows(echelon):
    """The rows of an ``_absorb`` echelon as dense int rows, keyed by their
    pivot column."""
    rows, heads, pivots, free = echelon
    dense = {}
    for row, head, col in zip(rows, heads, pivots):
        out = [0] * (len(rows) + len(free))
        out[col] = head
        for c, a in zip(free, row):
            out[c] = a
        dense[col] = out
    return dense


def _fraction_rref(rows) -> dict[int, list]:
    """The reduced row echelon form of int rows in Fractions, each row
    scaled to 1 at its pivot, keyed by pivot column; independent of lp.py."""
    basis: dict[int, list] = {}
    for row in rows:
        row = [F(a) for a in row]
        for col, piv in basis.items():
            if row[col]:
                row = [a - row[col] * b for a, b in zip(row, piv)]
        lead = next((c for c, a in enumerate(row) if a), None)
        if lead is None:
            continue
        row = [a / row[lead] for a in row]
        for col, piv in basis.items():
            if piv[lead]:
                basis[col] = [a - piv[lead] * b for a, b in zip(piv, row)]
        basis[lead] = row
    return basis


class TestEchelonKernel:
    """Random integer rows streamed through ``lp._absorb``, against a Fraction
    reduced row echelon form: same rank, same pivot columns, and every row a
    positive multiple of the reference row."""

    @staticmethod
    def _stream(rng, width):
        bits = rng.choice((4, 12, 60))
        rows = []
        for _ in range(rng.randint(1, width + 3)):
            kind = rng.random()
            if kind < 0.15 and rows:
                rows.append(list(rng.choice(rows)))  # a duplicate
            elif kind < 0.25:
                rows.append([0] * width)
            elif kind < 0.45:
                j = rng.randrange(width)
                rows.append([int(c == j) for c in range(width)])
            elif kind < 0.6 and len(rows) >= 2:
                # A combination of earlier rows, so dependent on the echelon.
                a, b = rng.sample(rows, 2)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append([s * x + t * y for x, y in zip(a, b)])
            else:
                row = [rng.randint(-(2**bits), 2**bits) for _ in range(width)]
                for _ in range(rng.randint(0, width - 1)):
                    row[rng.randrange(width)] = 0
                rows.append(row)
        return rows

    def test_random_streams_match_fraction_rref(self, rng):
        from bikesched.lp import _absorb

        deficient = 0
        for _ in range(300):
            width = rng.randint(1, 9)
            rows = self._stream(rng, width)
            echelon = ([], [], [], list(range(width)))
            for row in rows:
                _absorb(echelon, row)
            got, want = _echelon_rows(echelon), _fraction_rref(rows)
            rank = _elimination_rank([[F(a) for a in row] for row in rows])
            assert len(echelon[0]) == len(want) == rank
            assert sorted(got) == sorted(want)
            assert sorted(echelon[3]) == echelon[3]  # free columns, ascending
            for col, row in got.items():
                assert row[col] > 0
                assert [F(a, row[col]) for a in row] == want[col]
            deficient += len(want) < min(len(rows), width)
        assert deficient > 50

    def test_shuffled_stream_gives_the_same_echelon(self, rng):
        # The reduced echelon does not depend on the order rows arrive in,
        # so the constraints tight at a point may be absorbed in any order.
        from bikesched.lp import _absorb

        for _ in range(300):
            width = rng.randint(1, 9)
            rows = self._stream(rng, width)
            shuffled = rng.sample(rows, len(rows))
            echelons = []
            for stream in (rows, shuffled):
                echelon = ([], [], [], list(range(width)))
                for row in stream:
                    _absorb(echelon, row)
                echelons.append(echelon)
            first, second = echelons
            assert _echelon_rows(first) == _echelon_rows(second)
            assert first[3] == second[3]


def _bland_tableau(lp, rank):
    """A dense Fraction tableau simplex with solve_lp's start and rule,
    independent of lp.py: columns x, tau, one slack per constraint row, then
    the right-hand side; the sum row and the objective row come last, and
    column c stands for constraint c.  x_last enters the sum row, tau the row
    of the agent slowest in the last column, then of the columns with a
    negative reduced cost the one of least ``rank`` enters, and the least
    ratio leaves, ties to the basic column of least ``rank``.  Returns the
    optimum and the number of pivots after the start."""
    n, rows = lp.n, _fraction_rows(lp)
    k = len(rows)
    table = [
        [-a for a in row] + [F(int(i == r)) for i in range(k)] + [F(0)]
        for r, row in enumerate(rows)
    ]
    table.append([F(1)] * n + [F(0)] * (k + 1) + [F(1)])
    table.append([F(0)] * n + [F(1)] + [F(0)] * (k + 1))
    basis = list(range(n + 1, n + 1 + k)) + [None]

    def pivot(r, c):
        table[r] = [a / table[r][c] for a in table[r]]
        for i, row in enumerate(table):
            if i != r and row[c]:
                table[i] = [a - row[c] * b for a, b in zip(row, table[r])]
        basis[r] = c

    pivot(k, n - 1)
    speeds = _speed_rows(lp)
    pivot(max(range(lp.agents), key=lambda i: speeds[i][n - 1]), n)
    steps = 0
    while True:
        entering = [c for c, z in enumerate(table[-1][:-1]) if z < 0]
        if not entering:
            break
        enter = min(entering, key=rank)
        rising = [r for r in range(k + 1) if table[r][enter] > 0]
        pivot(min(rising, key=lambda r: (table[r][-1] / table[r][enter], rank(basis[r]))), enter)
        steps += 1
    point = [F(0)] * (n + 1)
    for r, c in enumerate(basis):
        if c <= n:
            point[c] = table[r][-1]
    return (tuple(point[:n]), point[n]), steps


def _fewest_blocks_first(lp):
    """solve_lp's fixed order over the tableau's columns, rebuilt from the
    Fraction rows: x_j >= 0 by the number of handover rows with a negative
    entry in column j, fewest first, then by column; then tau (the sum row's
    rank, which has no slack column here), the agent and handover slacks."""
    n, handover_rows = lp.n, _fraction_rows(lp)[lp.agents :]
    blocks = [sum(1 for row in handover_rows if row[j] < 0) for j in range(n)]
    order = sorted(range(n), key=lambda j: (blocks[j], j))
    return lambda c: order.index(c) - n if c < n else c


class TestBlandPath:
    def test_solve_lp_returns_the_reference_vertex(self, rng):
        # Not only the same tau: the same vertex, so the same pivot path.
        # Bland's rule in the lowest-index order must reach the same tau.
        steps = []
        for k in range(220):
            inst = random_instance(rng, max_agents=6)
            if k % 2 == 0 and inst.bikes and inst.slowest <= average_bound(inst):
                matrix = relay_reference(inst).matrix
            else:
                matrix = random_full_matrix(rng, inst, rng.randint(1, 5))
            lp = build_lp(matrix, inst)
            answer, pivots = _bland_tableau(lp, _fewest_blocks_first(lp))
            assert solve_lp(lp) == answer
            (_x, tau), _steps = _bland_tableau(lp, lambda c: c)
            assert tau == answer[1]
            steps.append(pivots)
        # About half the LPs pivot after the start, some many times.
        assert sum(1 for s in steps if s) > 80 and sum(steps) > 250


class TestColdPivotCounts:
    def test_cold_reductions_keep_their_exchange_counts(self, monkeypatch):
        # The cold reductions of the benchmark grid (m <= 7, u_k = 1/2 +
        # k/100), each one LP from the final-column start: solve_lp's order
        # takes 325 exchanges over the grid and 50 on the 48-column (7, 5)
        # relay, against 366 and 80 in the lowest-index order.
        counts, calls, real = {}, [], lp_module._exchange
        monkeypatch.setattr(lp_module, "_exchange", lambda *a: calls.append(1) or real(*a))
        for m in range(2, 8):
            for b in range(1, min(m - 1, 6) + 1):
                inst = ProblemInstance(m, tuple(F(1, 2) + F(k, 100) for k in range(b)))
                before = len(calls)
                reduce_schedule(relay_reference(inst).matrix, inst)
                counts[m, b] = len(calls) - before
        assert len(counts) == 21
        assert sum(counts.values()) <= 325
        assert counts[7, 5] <= 50


@st.composite
def _spliced_instances(draw):
    m = draw(st.integers(2, 6))
    us = []
    for _ in range(draw(st.integers(1, min(m, 4)))):
        q = draw(st.integers(2, 12))
        us.append(F(draw(st.integers(1, q - 1)), q))
    return ProblemInstance(m, tuple(sorted(us)), abandonment_limit=1)


def _splice_points(inst):
    """Every spliced (matrix, instance, partition) that ``solve_bs`` and
    ``solve_rbs`` hand to ``reduce_schedule``: each relay level from 2 up,
    and the one-abandonment splice of ``abandon_slowest``."""
    seen = []

    def spy(matrix, sub, initial=None, _real=bikesched.bs.reduce_schedule):
        seen.append((matrix, sub, initial))
        return _real(matrix, sub, initial)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bikesched.bs, "reduce_schedule", spy)
        mp.setattr(bikesched.rbs, "reduce_schedule", spy)
        solve_bs(ProblemInstance(inst.agents, inst.inverse_speeds))
        solve_rbs(inst)
    return seen


class TestSlideFromSplices:
    # A slide step keeps every tight row tight, never raises tau and absorbs
    # at least one more row, so it reaches a vertex in n + 1 - rank steps.  A
    # splice partition is its matrix's LP optimum, where tau cannot move, so
    # only the free column's direction is chosen there; halfway to the
    # final-column vertex tau can fall, and must not rise.
    @settings(max_examples=40)
    @given(_spliced_instances())
    def test_slide_reaches_a_vertex_in_rank_steps(self, inst):
        for matrix, sub, initial in _splice_points(inst):
            lp = build_lp(matrix, sub)
            last = (F(0),) * (lp.n - 1) + (F(1),)
            halfway = tuple([(a + b) / 2 for a, b in zip(initial, last)])
            for start, exact in ((initial, True), (halfway, False)):
                tau = completion_profile(Schedule(start, matrix), sub).makespan
                rank = tight_constraint_rank(lp, start, tau)
                calls = []

                def counted(self, v, _real=PartitionLP.row_values):
                    calls.append(v)
                    return _real(self, v)

                with pytest.MonkeyPatch.context() as mp:
                    # One evaluation at the start, then one per step.
                    mp.setattr(PartitionLP, "row_values", counted)
                    x, vtau = vertex_from_point(lp, start, tau)
                assert vtau == tau if exact else vtau <= tau
                assert is_vertex(lp, x, vtau)
                assert satisfies_all_constraints(lp, x, vtau)
                assert len(calls) - 1 <= lp.n + 1 - rank
