import random
from fractions import Fraction as F

import pytest

import bikesched.bs as bs
from bikesched import (
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    TIGHT_AVERAGE,
    TIGHT_ONE_ABANDONED,
    TIGHT_SECOND_SLOWEST,
    UnsupportedAbandonmentError,
    abandon_slowest,
    average_bound,
    check_feasible,
    completion_profile,
    one_abandonment_bound,
    relay_schedule,
    solve_bs,
    solve_rbs,
)
from bikesched.rbs import shared_prefix
from conftest import random_instance


def relaxed(m, us):
    return ProblemInstance(m, us, abandonment_limit=1)


class TestSharedPrefix:
    @pytest.mark.parametrize(
        "m, us, expected",
        [
            (3, (F(1, 2), F(4, 5)), 1),
            (2, (F(1, 3), F(1, 2)), 1),
            (3, (F(1, 2), F(1, 2)), 2),  # nothing lags: the whole set counts
        ],
    )
    def test_examples(self, m, us, expected):
        assert shared_prefix(ProblemInstance(m, us)) == expected


class TestAbandonSlowest:
    def test_hand_traced_three_agents(self):
        inst = relaxed(3, (F(1, 2), F(4, 5)))
        sol = abandon_slowest(inst)
        prof = completion_profile(sol.schedule, inst)
        assert prof.final == (F(17, 22),) * 3
        assert sol.abandoned == ((2, F(10, 11)),)
        assert sol.abandonment == (F(1), F(10, 11))
        assert check_feasible(sol.schedule, inst).ok
        assert sol.certificate.tight == TIGHT_ONE_ABANDONED
        # The interval structure: the bike-1 relay spans [0, 10/11].
        assert sol.schedule.partition == (F(5, 11), F(5, 11), F(1, 11))

    def test_intro_closed_form(self):
        # Two agents, speeds v1=3, v2=2: makespan (v1^2-v2)/(v2 v1^2+v1^2-2 v1 v2)
        # and the slow bike dropped at v2(v1-1)/(v1 v2 + v1 - 2 v2).
        inst = relaxed(2, (F(1, 3), F(1, 2)))
        sol = abandon_slowest(inst)
        assert completion_profile(sol.schedule, inst).makespan == F(7, 15)
        assert sol.abandoned == ((2, F(4, 5)),)

    def test_abandoning_agent_time_decomposes(self, rng):
        for _ in range(20):
            inst = random_instance(rng, min_agents=2, max_agents=8, limit=1)
            if inst.bikes < 2 or inst.slowest <= average_bound(inst):
                continue
            bound, y_star = one_abandonment_bound(inst)
            if inst.inverse_speeds[-2] > bound:
                continue
            sol = abandon_slowest(inst)
            u = inst.inverse_speeds
            assert y_star * u[-1] + (1 - y_star) * u[0] == bound
            prof = completion_profile(sol.schedule, inst)
            assert set(prof.final) == {bound}

    def test_reduces_each_relay_level_once(self, monkeypatch):
        # q = 1: the head block is a one-bike relay and the group table (bikes
        # 2..4 on 5 agents) has three levels.  Level 1 of a relay is already a
        # standard-form vertex and is not reduced, so only the table's levels
        # 2 and 3 are, each once.
        inst = relaxed(6, (F(1, 5), F(2, 3), F(2, 3), F(2, 3), F(19, 20)))
        assert shared_prefix(inst) == 1
        calls = []

        def spy(*args, _real=bs.reduce_schedule, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(bs, "reduce_schedule", spy)
        sol = abandon_slowest(inst)
        assert len(calls) == inst.bikes - 3 == 2
        assert sol.certificate.tight == TIGHT_ONE_ABANDONED

    def test_rejects_non_lagging(self):
        with pytest.raises(ValueError):
            abandon_slowest(relaxed(3, (F(1, 2), F(1, 2))))


class TestSoloSplitRelaxed:
    def test_example(self):
        # Bike 2 rides solo; the other two agents abandon bike 3 at 16/31.
        inst = relaxed(3, (F(1, 5), F(9, 10), F(19, 20)))
        sol = solve_rbs(inst)
        rest = ProblemInstance(2, (F(1, 5), F(19, 20)))
        assert one_abandonment_bound(rest) == (F(91, 155), F(16, 31))
        assert sol.schedule.matrix.rows[-1] == (2,) * sol.schedule.size
        assert sol.certificate.tight == TIGHT_SECOND_SLOWEST

    def test_two_bikes_never_qualify(self):
        # With two bikes the second-slowest is the fastest, which never
        # lags the one-abandonment bound: no solo rider.
        sol = solve_rbs(relaxed(3, (F(1, 2), F(4, 5))))
        assert sol.certificate.tight == TIGHT_ONE_ABANDONED


class TestSoloPeel:
    def test_matches_split_search(self):
        """Both solvers peel one solo rider per level; the answers equal the
        old construction, which searched for the solo count k first (the
        loops below) and stacked k solo rows under one solve of the rest."""
        rng = random.Random(15)
        bs_ks, rbs_ks = [], []
        while len(bs_ks) < 300 or len(rbs_ks) < 300:
            m, us = _lagging_speeds(rng)
            b = len(us)
            k = solo_split_reference(m, us)
            if k:
                sched, _ = solve_bs(ProblemInstance(m, us))
                rest = relay_schedule(ProblemInstance(m - k, us[: b - k]))
                solo = tuple([(b - k + i + 1,) * rest.size for i in range(k)])
                assert sched == Schedule(rest.partition, ScheduleMatrix(rest.matrix.rows + solo))
                bs_ks.append(k)
            k = solo_split_relaxed_reference(m, us)
            if k:
                sol = solve_rbs(relaxed(m, us))
                inner = solve_rbs(relaxed(m - k, us[: b - k - 1] + (us[-1],)))
                assert inner.certificate.tight != TIGHT_SECOND_SLOWEST
                top = tuple([
                    tuple([b if c == b - k else c for c in row])
                    for row in inner.schedule.matrix.rows
                ])
                solo = tuple([(b - k + i,) * inner.schedule.size for i in range(k)])
                assert sol.schedule.partition == inner.schedule.partition
                assert sol.schedule.matrix.rows == top + solo
                assert sol.certificate.tight == TIGHT_SECOND_SLOWEST
                rbs_ks.append(k)
        assert max(bs_ks) >= 4 and max(rbs_ks) >= 3
        assert bs_ks.count(2) >= 20 and rbs_ks.count(2) >= 20


def _lagging_speeds(rng):
    """m <= 9 agents and 2 <= b <= m bikes p/q (q <= 24), the slowest j of
    them near walking speed; a quarter of the draws put u_{b-j} exactly at
    the average bound of the rest, a tie for the split search."""
    m = rng.randint(3, 9)
    b = rng.randint(2, m)
    j = rng.randint(1, b - 1)
    us = []
    for _ in range(b - j):
        q = rng.randint(2, 24)
        us.append(F(rng.randint(1, q - 1), q))
    us.sort()
    if rng.random() < 0.25 and m - j > 1:
        tie = 1 - sum(1 - u for u in us[:-1]) / (m - j - 1)
        if (not us[:-1] or tie >= us[-2]) and 0 < tie < 1:
            us[-1] = tie
    for _ in range(j):
        q = rng.randint(10, 24)
        us.append(F(q - rng.randint(1, 3), q))
    return m, tuple(sorted(us))


def solo_split_reference(m, us):
    """The smallest k with u_{b-k} <= the average bound of m-k agents with
    the b-k fastest bikes, or 0 when the slowest bike keeps up."""
    b = len(us)
    if us[-1] <= average_bound(ProblemInstance(m, us)):
        return 0
    for k in range(1, b):
        if us[b - k - 1] <= average_bound(ProblemInstance(m - k, us[: b - k])):
            return k
    raise AssertionError("no solo split")


def solo_split_relaxed_reference(m, us):
    """The smallest k with u_{b-k-1} <= t_one(rest) <= u_{b-1} for rest = m-k
    agents with u_1..u_{b-k-1} and u_b, or 0 unless the slowest two bikes
    both lag."""
    b = len(us)
    inst = ProblemInstance(m, us)
    if us[-1] <= average_bound(inst) or us[-2] <= one_abandonment_bound(inst)[0]:
        return 0
    for k in range(1, b - 1):
        bound, _ = one_abandonment_bound(ProblemInstance(m - k, us[: b - k - 1] + (us[-1],)))
        if us[b - k - 2] <= bound <= us[b - 2]:
            return k
    raise AssertionError("no relaxed solo split")


class TestSolveRbs:
    def test_case_average(self):
        inst = relaxed(3, (F(1, 2), F(1, 2)))
        sol = solve_rbs(inst)
        assert completion_profile(sol.schedule, inst).makespan == F(2, 3)
        assert sol.abandoned == ()
        assert sol.certificate.tight == TIGHT_AVERAGE

    def test_case_abandon_slowest(self):
        inst = relaxed(3, (F(1, 2), F(4, 5)))
        sol = solve_rbs(inst)
        assert completion_profile(sol.schedule, inst).makespan == F(17, 22)
        assert sol.abandoned == ((2, F(10, 11)),)

    def test_case_second_slowest(self):
        inst = relaxed(3, (F(1, 5), F(9, 10), F(19, 20)))
        sol = solve_rbs(inst)
        prof = completion_profile(sol.schedule, inst)
        assert prof.makespan == F(9, 10)
        assert sol.certificate.tight == TIGHT_SECOND_SLOWEST
        assert sol.abandoned == ((3, F(16, 31)),)
        assert check_feasible(sol.schedule, inst).ok

    def test_limit_zero_is_full_delivery(self):
        inst = ProblemInstance(2, (F(1, 3), F(1, 2)), abandonment_limit=0)
        sol = solve_rbs(inst)
        assert completion_profile(sol.schedule, inst).makespan == F(1, 2)
        assert sol.abandoned == ()

    def test_limit_two_rejected(self):
        with pytest.raises(UnsupportedAbandonmentError):
            solve_rbs(ProblemInstance(3, (F(1, 2), F(1, 2)), abandonment_limit=2))

    def test_no_bikes(self):
        inst = ProblemInstance(3, (), abandonment_limit=1)
        sol = solve_rbs(inst)
        assert completion_profile(sol.schedule, inst).makespan == F(1)

    def test_dispatch_and_dominance(self, rng):
        for _ in range(40):
            inst = random_instance(rng, limit=1)
            sol = solve_rbs(inst)
            prof = completion_profile(sol.schedule, inst)
            assert check_feasible(sol.schedule, inst).ok
            assert len(sol.abandoned) <= 1
            t_avg = average_bound(inst)
            if inst.bikes == 0 or inst.slowest <= t_avg:
                assert prof.makespan == t_avg
            else:
                t_one, _ = one_abandonment_bound(inst)
                if inst.inverse_speeds[-2] <= t_one:
                    assert prof.makespan == t_one
                else:
                    assert prof.makespan == inst.inverse_speeds[-2]
            plain = ProblemInstance(inst.agents, inst.inverse_speeds)
            bs_sched, _ = solve_bs(plain)
            assert prof.makespan <= completion_profile(bs_sched, plain).makespan

    def test_equal_arrivals_in_tying_cases(self, rng):
        for _ in range(25):
            inst = random_instance(rng, limit=1)
            sol = solve_rbs(inst)
            if sol.certificate.tight in (TIGHT_AVERAGE, TIGHT_ONE_ABANDONED):
                prof = completion_profile(sol.schedule, inst)
                assert len(set(prof.final)) == 1


class TestAnswerSize:
    @pytest.mark.parametrize("m", [6, 8, 10, 12])
    def test_lagging_relay_family_within_agent_count(self, m):
        # The relay family 1/3 + k/(10b), b = m/2, with the slowest bike
        # slowed to 9/10 so that it is abandoned.  Unreduced, the spliced
        # schedule has 2m - 2 columns.
        b = m // 2
        u = tuple(F(1, 3) + F(k, 10 * b) for k in range(b - 1)) + (F(9, 10),)
        inst = relaxed(m, u)
        sol = solve_rbs(inst)
        assert sol.certificate.tight == TIGHT_ONE_ABANDONED
        assert sol.schedule.size <= m

    def test_reduction_keeps_every_answer(self, rng, monkeypatch):
        import bikesched.rbs as rbs

        def summary(sol, inst):
            makespan = completion_profile(sol.schedule, inst).makespan
            return makespan, sol.certificate, sol.abandonment, sol.abandoned

        instances = [random_instance(rng, max_agents=8, limit=1) for _ in range(400)]
        reduced = []
        for inst in instances:
            sol = solve_rbs(inst)
            assert sol.schedule.size <= inst.agents
            reduced.append(summary(sol, inst))
        assert sum(s[1].tight == TIGHT_ONE_ABANDONED for s in reduced) >= 20
        # The same answers with the spliced schedule left as it is.
        monkeypatch.setattr(
            rbs, "reduce_schedule", lambda matrix, _inst, initial: Schedule(initial, matrix)
        )
        monkeypatch.setattr(rbs, "verify_answer", lambda *_args: None)
        assert [summary(solve_rbs(inst), inst) for inst in instances] == reduced


class TestOneAbandonmentOrder:
    def test_order_property(self, rng):
        # Removing one agent and one bike u_k moves the relaxed bound the
        # same way u_k compares to it, with equality only at equality.
        found = 0
        while found < 15:
            inst = random_instance(rng, min_agents=2, max_agents=8)
            b, u = inst.bikes, inst.inverse_speeds
            if b < 3 or inst.slowest <= average_bound(inst):
                continue
            found += 1
            t_one, _ = one_abandonment_bound(inst)
            for k in range(1, b - 1):  # bikes 2 .. b-1, 0-based k
                smaller = ProblemInstance(inst.agents - 1, u[:k] + u[k + 1 :])
                if smaller.slowest <= average_bound(smaller):
                    continue  # relaxed bound defined via a crossing only here
                t_small, _ = one_abandonment_bound(smaller)
                assert (t_one <= t_small) == (u[k] <= t_one)
                assert (t_one == t_small) == (u[k] == t_one)
