import random
from fractions import Fraction as F

import pytest

from bikesched import (
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    check_feasible,
    completion_profile,
    is_standard_form,
    remove_all_waits,
    solve_bs,
    solve_partition,
    standardize,
)
from bikesched.model import pickups
from conftest import random_full_matrix, random_instance

TWO_ONE = ProblemInstance(2, (F(1, 2),))
RELAY_M = ScheduleMatrix(((1, 0), (0, 1)))
HALF = (F(1, 2), F(1, 2))


def with_wait(agent, column, value, matrix=RELAY_M, partition=HALF):
    waits = [[F(0)] * matrix.size for _ in range(matrix.agents)]
    waits[agent][column] = value
    return Schedule(partition, matrix, tuple(tuple(r) for r in waits))


def load_bearing_schedule(rng):
    """A feasible schedule whose pickers wait for their droppers.

    Each column permutes the previous one's labels, some columns have zero
    length, a few agents idle for no reason, and every picker that would
    arrive before its dropper has its wait topped up to the dropper's
    arrival.  Returns the instance and the schedule.
    """
    inst = random_instance(rng, max_agents=6)
    m, n = inst.agents, rng.randint(1, 7)
    cols = [[0] * m]
    for bike, row in enumerate(rng.sample(range(m), inst.bikes), start=1):
        cols[0][row] = bike
    while len(cols) < n:
        cols.append(rng.sample(cols[-1], m))
    partition = [F(rng.randint(0, 3), 4) for _ in range(n)]
    partition[rng.randrange(n)] += F(1, 4)
    waits = [[F(0)] * n for _ in range(m)]
    pace = (F(1), *inst.inverse_speeds)  # by label; 0 walks
    reach = [F(0)] * m
    for j in range(n):
        early = j > 0
        while early:
            early = False
            for picker, dropper in pickups(cols[j - 1], cols[j]):
                if reach[picker] < reach[dropper]:
                    waits[picker][j - 1] += reach[dropper] - reach[picker]
                    reach[picker] = reach[dropper]
                    early = True
        for i in range(m):
            reach[i] += pace[cols[j][i]] * partition[j]
            if rng.random() < 0.1:
                waits[i][j] += F(rng.randint(1, 4), 16)
                reach[i] += waits[i][j]
    rows = tuple(tuple(col[i] for col in cols) for i in range(m))
    return inst, Schedule(partition, ScheduleMatrix(rows), tuple(map(tuple, waits)))


class TestRemoveAllWaits:
    def test_identity_without_waits(self):
        sched = Schedule(HALF, RELAY_M)
        assert remove_all_waits(sched, TWO_ONE) is sched

    def test_infeasible_schedule_raises_with_or_without_waits(self):
        # Agent 2 picks up the 9/10 bike at 1/20, before agent 1 brings it
        # at 9/20.  No wait may excuse the check.
        inst = ProblemInstance(2, (F(1, 10), F(9, 10)))
        matrix = ScheduleMatrix(((2, 1), (1, 2)))
        zero = ((F(0), F(0)), (F(0), F(0)))
        for waits in (None, zero):
            with pytest.raises(ValueError, match="infeasible"):
                remove_all_waits(Schedule(HALF, matrix, waits), inst)
        with pytest.raises(ValueError, match="infeasible"):
            remove_all_waits(with_wait(0, 1, F(1, 10), matrix), inst)

    def test_zero_length_schedule_with_a_wait_raises(self):
        # Agent 2 waits for agent 1's hand-over over two zero-length columns.
        sched = with_wait(1, 0, F(1, 9), partition=(F(0), F(0)))
        assert check_feasible(sched, TWO_ONE).ok
        with pytest.raises(ValueError, match="no standard form"):
            remove_all_waits(sched, TWO_ONE)

    def test_single_wait(self):
        out = remove_all_waits(with_wait(0, 0, F(1, 10)), TWO_ONE)
        assert out.waits is None
        assert completion_profile(out, TWO_ONE).makespan == F(3, 4)

    def test_submaximal_speed_modelled_as_wait(self):
        # Agent 2 walking at half pace over the first half-interval is the
        # same as walking full speed plus a quarter-unit wait; removing it
        # strictly improves the makespan.
        sched = with_wait(1, 0, F(1, 4))
        assert completion_profile(sched, TWO_ONE).makespan == F(1)
        out = remove_all_waits(sched, TWO_ONE)
        assert completion_profile(out, TWO_ONE).makespan == F(3, 4)

    def test_wait_dependent_handover_needs_two_rounds(self):
        # Agent 1's wait is load-bearing: without it agent 1 reaches the
        # midpoint before agent 2 brings bike 2 there, so the sweep swaps the
        # two agents' second columns and agent 2 keeps bike 2.
        inst = ProblemInstance(3, (F(1, 5), F(1, 2)))
        matrix = ScheduleMatrix(((1, 2), (2, 0), (0, 1)))
        sched = with_wait(0, 0, F(1, 4), matrix=matrix)
        before = completion_profile(sched, inst)
        out = remove_all_waits(sched, inst)
        after = completion_profile(out, inst)
        assert out.waits is None
        assert after.makespan <= before.makespan
        assert sum(after.final) == sum(before.final) - F(1, 4)

    def test_last_column_wait_drains_to_standardize(self, rng):
        # A wait in the last column delays no pickup, so the drain is the
        # standard form of the wait-free schedule.
        for _ in range(10):
            inst = random_instance(rng, max_agents=5)
            matrix = random_full_matrix(rng, inst, rng.randint(1, 5))
            x, _ = solve_partition(matrix, inst)
            waits = [[F(0)] * matrix.size for _ in range(matrix.agents)]
            waits[rng.randrange(matrix.agents)][-1] = F(rng.randint(1, 5), 7)
            noisy = Schedule(x, matrix, tuple(tuple(r) for r in waits))
            assert remove_all_waits(noisy, inst) == standardize(Schedule(x, matrix), inst)[0]

    def test_random_injections(self, rng):
        done = 0
        while done < 15:
            inst = random_instance(rng, max_agents=6)
            sched, _ = solve_bs(inst)
            waits = [[F(0)] * sched.size for _ in range(sched.agents)]
            injected = F(0)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(sched.agents)
                j = rng.randrange(sched.size)
                w = F(rng.randint(1, 5), rng.randint(6, 30))
                waits[i][j] += w
                candidate = Schedule(
                    sched.partition, sched.matrix, tuple(tuple(r) for r in waits)
                )
                if check_feasible(candidate, inst).ok:
                    injected += w
                else:
                    waits[i][j] -= w
            if injected == 0:
                continue
            done += 1
            noisy = Schedule(
                sched.partition, sched.matrix, tuple(tuple(r) for r in waits)
            )
            before = completion_profile(noisy, inst)
            out = remove_all_waits(noisy, inst)
            after = completion_profile(out, inst)
            assert out.waits is None
            assert after.makespan <= before.makespan
            assert sum(after.final) == sum(before.final) - injected
            assert check_feasible(out, inst).ok

    def test_load_bearing_waits(self):
        rng = random.Random(20261018)
        drained = zero_columns = swapped = 0
        for _ in range(300):
            inst, sched = load_bearing_schedule(rng)
            total = sum(w for row in sched.waits for w in row)
            if total == 0:
                continue
            drained += 1
            zero_columns += 0 in sched.partition
            swapped += not check_feasible(Schedule(sched.partition, sched.matrix), inst).ok
            assert check_feasible(sched, inst).ok
            before = completion_profile(sched, inst)
            out = remove_all_waits(sched, inst)
            after = completion_profile(out, inst)
            assert out.waits is None
            assert check_feasible(out, inst).ok
            assert is_standard_form(out, inst)
            assert out.size <= sched.size
            assert after.makespan <= before.makespan
            assert sum(after.final) == sum(before.final) - total
        assert drained > 200 and zero_columns > 50 and swapped > 50
