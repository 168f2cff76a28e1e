import itertools
from fractions import Fraction as F

import pytest

from bikesched import (
    NestedColumn,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    TIGHT_AVERAGE,
    TIGHT_SLOWEST,
    average_bound,
    brute_force_bs,
    check_feasible,
    completion_profile,
    expand_with_partition,
    relay_reference,
    relay_schedule,
    solve_bs,
)
from bikesched.bs import solve_sync_partition, splice
from conftest import random_instance


def relay_size(m: int, b: int) -> int:
    """Column count of the fully expanded relay (1 when there are no bikes)."""
    return 1 if b == 0 else 2 ** (b - 1) * (m - b + 1)


def partial_times(sched: Schedule, inst: ProblemInstance, end: int) -> list[F]:
    """Each agent's time over the first ``end`` columns."""
    x = sched.partition[:end]
    return [
        sum(xj * inst.speed_of(label) for xj, label in zip(x, row))
        for row in sched.matrix.rows
    ]


class TestUnexpandedPartition:
    """The host-column lengths that ``splice`` gives the nested relay."""

    def test_three_agents_two_bikes(self):
        # Host lengths 1 : 0 : 2, the last host holding the two-column relay
        # of the first bike.
        sched = relay_reference(ProblemInstance(3, (F(1, 2), F(1, 2))))
        assert sched.partition == (F(1, 3), F(0), F(1, 3), F(1, 3))

    def test_two_agents_one_bike(self):
        # One walker column, then the walker's one-agent walk as a block over
        # the bike's rider, who catches up with it.
        inst = ProblemInstance(2, (F(1, 2),))
        walk = Schedule((F(1),), ScheduleMatrix(((0,),)))
        sched = splice(inst, [NestedColumn(tail=(1, 0)), NestedColumn((1,), walk)])
        assert sched.partition == (F(1, 2), F(1, 2))
        assert sched.matrix.rows == ((1, 0), (0, 1))

    def test_nonnegative_and_valid(self, rng):
        # At the end of host column c >= 1 its catcher, agent c + 1, arrives
        # together with agent c in the row above it.
        checked = 0
        for _ in range(40):
            inst = random_instance(rng, max_agents=6)
            m, b = inst.agents, inst.bikes
            if b == 0 or inst.slowest > average_bound(inst):
                continue
            sched = relay_reference(inst)
            widths = [1] * (m - b) + [relay_size(m - b + k, k) for k in range(b)]
            ends = list(itertools.accumulate(widths))
            for c in range(1, m):
                times = partial_times(sched, inst, ends[c])
                assert times[c] == times[c - 1]
            checked += 1
        assert checked > 5

    def test_pace_tie_collapses_leading_intervals(self):
        # u_2 equals the average bound exactly: the catcher can never close a
        # positive gap, so everything before its interval collapses to zero.
        inst = ProblemInstance(3, (F(1, 2), F(3, 4)))
        assert inst.slowest == average_bound(inst)
        sched = relay_reference(inst)
        assert sched.partition == (F(0), F(0), F(1, 2), F(1, 2))
        assert set(completion_profile(sched, inst).final) == {average_bound(inst)}

    def test_sync_recursion_steps(self):
        # Hand-checkable two-interval instance: gap 1/20 closes at rate 1/2.
        paces = ((F(3, 4), F(1)), (F(3, 4), F(1)), (F(4, 5), F(1, 2)))
        z = solve_sync_partition(paces, ((2, 1),))
        assert z == (F(1), F(1, 10))


class TestExpand:
    def test_block_of_size_one(self):
        block = Schedule((F(1),), ScheduleMatrix(((0,),)))
        out = expand_with_partition((F(1),), [NestedColumn(tail=(1, 2), block=block)])
        assert out.matrix.rows == ((0,), (1,), (2,))
        assert out.partition == (F(1),)

    def test_tail_replicated_across_block_columns(self):
        block = Schedule((F(1, 2), F(1, 2)), ScheduleMatrix(((1, 0), (0, 1))))
        out = expand_with_partition((F(1),), [NestedColumn(tail=(2,), block=block)])
        assert out.matrix.rows == ((1, 0), (0, 1), (2, 2))
        assert out.partition == (F(1, 2), F(1, 2))

    def test_plain_columns_pass_through(self):
        out = expand_with_partition(
            (F(1, 4), F(3, 4)), [NestedColumn(tail=(1, 0)), NestedColumn(tail=(0, 1))]
        )
        assert out.matrix.rows == ((1, 0), (0, 1))
        assert out.partition == (F(1, 4), F(3, 4))

    def test_partition_splicing(self):
        block = Schedule((F(1, 2), F(1, 2)), ScheduleMatrix(((1, 0), (0, 1))))
        sched = expand_with_partition(
            (F(1, 3), F(2, 3)),
            [NestedColumn(tail=(0, 0)), NestedColumn(tail=(), block=block)],
        )
        assert sched.partition == (F(1, 3), F(1, 3), F(1, 3))

    def test_height_mismatch_rejected(self):
        with pytest.raises(ValueError, match="heights"):
            expand_with_partition(
                (F(1, 2), F(1, 2)), [NestedColumn(tail=(0, 0)), NestedColumn(tail=(0,))]
            )


class TestRelayReference:
    def test_two_agents_one_bike(self):
        sched = relay_reference(ProblemInstance(2, (F(1, 2),)))
        assert sched.partition == (F(1, 2), F(1, 2))
        assert sched.matrix.rows == ((1, 0), (0, 1))

    def test_no_bikes_walk(self):
        sched = relay_reference(ProblemInstance(3, ()))
        assert sched.size == 1
        assert completion_profile(sched, ProblemInstance(3, ())).makespan == F(1)

    def test_three_agents_two_bikes(self):
        inst = ProblemInstance(3, (F(1, 2), F(1, 2)))
        sched = relay_reference(inst)
        assert sched.size == relay_size(3, 2) == 4
        prof = completion_profile(sched, inst)
        assert prof.makespan == F(2, 3) == average_bound(inst)
        assert len(set(prof.final)) == 1
        assert check_feasible(sched, inst).ok

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_size_formula(self, m):
        for b in range(1, m):
            us = tuple(F(1, 2) + F(k, 100) for k in range(b))
            inst = ProblemInstance(m, us)
            assert relay_reference(inst).size == relay_size(m, b)

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            relay_reference(ProblemInstance(2, (F(1, 3), F(1, 2))))

    def test_all_agents_tie_and_all_bikes_arrive(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_agents=5)
            if inst.bikes == 0 or inst.slowest > average_bound(inst):
                continue
            sched = relay_reference(inst)
            prof = completion_profile(sched, inst)
            assert set(prof.final) == {average_bound(inst)}
            assert sched.matrix.bikes_in_final_column() == frozenset(
                range(1, inst.bikes + 1)
            )
            assert check_feasible(sched, inst).ok


class TestRelaySchedule:
    def test_matches_reference_makespan(self, rng):
        for _ in range(15):
            inst = random_instance(rng, max_agents=7)
            if inst.bikes and inst.slowest > average_bound(inst):
                continue
            ref = relay_reference(inst)
            fast = relay_schedule(inst)
            inst_plain = ProblemInstance(inst.agents, inst.inverse_speeds)
            assert (
                completion_profile(ref, inst_plain).makespan
                == completion_profile(fast, inst_plain).makespan
            )
            assert fast.size <= inst.agents
            assert check_feasible(fast, inst_plain).ok

    def test_equal_speeds_full_house(self):
        # b = m forces equal speeds under the relay precondition.
        inst = ProblemInstance(3, (F(1, 2), F(1, 2), F(1, 2)))
        sched = relay_schedule(inst)
        prof = completion_profile(sched, inst)
        assert prof.makespan == F(1, 2) == average_bound(inst)
        assert check_feasible(sched, inst).ok

    def test_larger_instance_fast(self):
        us = tuple(F(k, 100) for k in range(1, 12))
        inst = ProblemInstance(12, us)
        assert inst.slowest <= average_bound(inst)
        sched = relay_schedule(inst)
        prof = completion_profile(sched, inst)
        assert prof.makespan == average_bound(inst)
        assert check_feasible(sched, inst).ok
        assert sched.size <= 12


class TestSoloSplit:
    @pytest.mark.parametrize(
        "m, us, k",
        [
            (2, (F(1, 3), F(1, 2)), 1),
            (4, (F(1, 5), F(9, 10), F(19, 20)), 2),
            (3, (F(1, 2), F(4, 5)), 1),
        ],
    )
    def test_examples(self, m, us, k):
        # The k slowest bikes ride solo under the relay of the rest.
        b = len(us)
        sched, cert = solve_bs(ProblemInstance(m, us))
        rest = relay_schedule(ProblemInstance(m - k, us[: b - k]))
        assert sched.partition == rest.partition
        assert sched.matrix.rows[: m - k] == rest.matrix.rows
        assert sched.matrix.rows[m - k :] == tuple(
            (bike,) * rest.size for bike in range(b - k + 1, b + 1)
        )
        assert cert.tight == TIGHT_SLOWEST

    def test_requires_lagging_bike(self):
        # Nothing lags, so no bike gets a solo rider: the answer is the relay.
        inst = ProblemInstance(2, (F(1, 2),))
        sched, cert = solve_bs(inst)
        assert sched == relay_schedule(inst)
        assert cert.tight == TIGHT_AVERAGE


class TestSolveBs:
    @pytest.mark.parametrize(
        "m, us, tau, tight",
        [
            (2, (F(1, 3), F(1, 2)), F(1, 2), TIGHT_SLOWEST),
            (2, (F(1, 2),), F(3, 4), TIGHT_AVERAGE),
            (4, (F(1, 5), F(9, 10), F(19, 20)), F(19, 20), TIGHT_SLOWEST),
        ],
    )
    def test_examples(self, m, us, tau, tight):
        inst = ProblemInstance(m, us)
        sched, cert = solve_bs(inst)
        assert completion_profile(sched, inst).makespan == tau
        assert cert.tight == tight
        assert check_feasible(sched, inst).ok

    def test_oracle_agreement_spot(self):
        inst = ProblemInstance(3, (F(1, 2), F(1, 2)))
        sched, _ = solve_bs(inst)
        tau_star, _ = brute_force_bs(inst)
        assert completion_profile(sched, inst).makespan == tau_star == F(2, 3)

    def test_random_instances_meet_formula(self, rng):
        for _ in range(40):
            inst = random_instance(rng)
            sched, cert = solve_bs(inst)
            prof = completion_profile(sched, inst)
            expected = (
                max(inst.slowest, average_bound(inst))
                if inst.bikes
                else F(1)
            )
            assert prof.makespan == expected
            assert check_feasible(sched, inst).ok
            assert sched.matrix.bikes_in_final_column() == frozenset(
                range(1, inst.bikes + 1)
            )
            if cert.tight == TIGHT_AVERAGE:
                assert len(set(prof.final)) == 1

    def test_distinct_speeds_full_house(self):
        # b = m with distinct speeds: everyone rides solo via the split path.
        inst = ProblemInstance(3, (F(1, 4), F(1, 3), F(1, 2)))
        sched, cert = solve_bs(inst)
        assert completion_profile(sched, inst).makespan == F(1, 2)
        assert cert.tight == TIGHT_SLOWEST
        assert check_feasible(sched, inst).ok
