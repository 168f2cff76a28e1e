import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bikesched.bs as bs
import bikesched.lp as lp
import bikesched.rbs as rbs
from bikesched import (
    ContractError,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    TIGHT_AVERAGE,
    TIGHT_SLOWEST,
    average_bound,
    brute_force_bs,
    build_lp,
    check_feasible,
    completion_profile,
    is_standard_form,
    one_abandonment_bound,
    reduce_schedule,
    relay_reference,
    relay_schedule,
    solve_bs,
    solve_partition,
    solve_rbs,
)
from bikesched.bs import NestedColumn, splice
from conftest import random_instance


def criterion_4_grid():
    """The instances of acceptance criterion 4: m <= 7, b <= min(m - 1, 6)."""
    for m in range(2, 8):
        for b in range(1, min(m - 1, 6) + 1):
            yield ProblemInstance(m, tuple(F(1, 2) + F(k, 100) for k in range(b)))


def relay_size(m: int, b: int) -> int:
    """Column count of the fully expanded relay (1 when there are no bikes)."""
    return 1 if b == 0 else 2 ** (b - 1) * (m - b + 1)


def partial_times(sched: Schedule, inst: ProblemInstance, end: int) -> list[F]:
    """Each agent's time over the first ``end`` columns."""
    pace = (F(1), *inst.inverse_speeds)  # by label; 0 walks
    x = sched.partition[:end]
    return [sum(xj * pace[label] for xj, label in zip(x, row)) for row in sched.matrix.rows]


def reference_splice(inst, columns, branches=None):
    """``splice`` the long way, in ``Fraction``s: a paces matrix, each
    catcher's gap summed afresh over every earlier column, then the
    expansion.  ``branches`` counts the rate cases met."""
    speed = (F(1), *inst.inverse_speeds)
    paces, catchers = [], []  # the first column's catcher goes unread
    for col in columns:
        pace = [speed[label] for label in col.tail]
        if col.block is not None:
            row = col.block.matrix.rows[0]
            finish = sum(x * speed[label] for x, label in zip(col.block.partition, row))
            pace = [finish] * col.block.agents + pace
        rider = next((i for i, label in enumerate(col.tail) if label), 0)
        catchers.append(len(pace) - len(col.tail) + rider)
        paces.append(pace)
    z = [F(1)] + [F(0)] * (len(columns) - 1)
    for c in range(1, len(columns)):
        i = catchers[c]
        gap = sum((paces[p][i] - paces[p][i - 1]) * z[p] for p in range(c))
        rate = paces[c][i - 1] - paces[c][i]
        if rate:
            z[c] = gap / rate
            assert z[c] >= 0
        elif gap:
            z[:c] = [F(0)] * c
            z[c] = F(1)
        if branches is not None:
            branches["rate" if rate else "collapse" if gap else "tie"] += 1
    total = sum(z)
    xs, out_cols = [], []
    for length, col in zip(z, columns):
        if col.block is None:
            xs.append(length / total)
            out_cols.append(col.tail)
        else:
            xs.extend(length / total * x for x in col.block.partition)
            out_cols.extend(sub + col.tail for sub in col.block.matrix.columns())
    return Schedule(tuple(xs), ScheduleMatrix(tuple(zip(*out_cols))))


def fraction_splice(inst, columns, branches=None):
    """The one-pass ``splice`` computed in ``Fraction`` lengths and lags:
    the reference for the integer splice.  ``branches`` counts the rate
    cases met."""
    speed, _ = inst._label_speeds
    z, lag = [], []
    for col in columns:
        pace = [speed[label] for label in col.tail]
        block = col.block
        if block is not None:
            row = [speed[label] for label in block.matrix.rows[0]]
            pace = [sum(x * p for x, p in zip(block.partition, row))] * block.agents + pace
        if not z:
            lag = [F(0)] * len(pace)
            length = F(1)
        else:
            assert len(pace) == len(lag)
            rider = next(i for i, label in enumerate(col.tail) if label)
            catcher = len(pace) - len(col.tail) + rider
            assert catcher > 0
            gap = lag[catcher]
            rate = pace[catcher - 1] - pace[catcher]
            if rate:
                length = gap / rate
                assert length >= 0
            elif gap:
                z = [F(0)] * len(z)
                lag = [F(0)] * len(lag)
                length = F(1)
            else:
                length = F(0)
            if branches is not None:
                branches["rate" if rate else "collapse" if gap else "tie"] += 1
        z.append(length)
        if length:
            for i in range(1, len(pace)):
                if pace[i] != pace[i - 1]:
                    lag[i] += length * (pace[i] - pace[i - 1])
    total = sum(z)
    xs, out_cols = [], []
    for length, col in zip(z, columns):
        if col.block is None:
            xs.append(length / total)
            out_cols.append(col.tail)
        else:
            xs.extend(length / total * x for x in col.block.partition)
            out_cols.extend(sub + col.tail for sub in col.block.matrix.columns())
    return Schedule(tuple(xs), ScheduleMatrix(tuple(zip(*out_cols))))


class TestIntegerSplice:
    """The integer ``splice`` gives the very Schedule of ``fraction_splice``
    on every column list the solvers splice."""

    @staticmethod
    def spliced(monkeypatch, instances, solve):
        calls = []

        def spy(inst, columns):
            out = splice(inst, columns)
            calls.append((inst, list(columns), out))
            return out

        monkeypatch.setattr(bs, "splice", spy)
        monkeypatch.setattr(rbs, "splice", spy)
        for inst in instances:
            solve(inst)
        branches = Counter()
        for inst, columns, out in calls:
            assert out == fraction_splice(inst, columns, branches)
        return len(calls), branches

    def test_criterion_4_grid(self, monkeypatch):
        def both(inst):
            relay_reference(inst)
            solve_bs(inst)

        calls, _ = self.spliced(monkeypatch, criterion_4_grid(), both)
        assert calls > 100

    def test_random_relay_families(self, monkeypatch):
        rng = random.Random(0x1F7)
        relays = [random_instance(rng, max_agents=7) for _ in range(120)]
        relays = [i for i in relays if i.bikes and i.slowest <= average_bound(i)]
        calls, branches = self.spliced(monkeypatch, relays, relay_reference)
        assert len(relays) > 30 and branches["rate"] > 100

    def test_abandon_slowest_columns(self, monkeypatch):
        rng = random.Random(0xAB)
        relaxed = [random_instance(rng, max_agents=8, limit=1) for _ in range(200)]
        lagging = []
        for inst in relaxed:
            u = inst.inverse_speeds
            if inst.bikes >= 2 and inst.slowest > average_bound(inst):
                if u[-2] <= one_abandonment_bound(inst)[0]:
                    lagging.append(inst)
        calls, _ = self.spliced(monkeypatch, lagging, rbs.abandon_slowest)
        assert len(lagging) > 20 and calls > len(lagging)

    def test_equal_speeds_reach_both_zero_rate_branches(self, monkeypatch):
        # Equal speeds tie the block's pace with its tail's, which leaves a
        # zero gap's length at 0.  With the slowest bike slowed to exactly
        # the average bound, u_b = 1 - (b - 1)(1 - u) / (m - 1), a positive
        # gap collapses what came before.
        equal, at_bound = [], []
        for m in range(2, 8):
            for b in range(1, m + 1):
                for u in (F(1, 2), F(2, 3), F(3, 4), F(1, 5)):
                    equal.append(ProblemInstance(m, (u,) * b))
                    slowest = 1 - (b - 1) * (1 - u) / (m - 1)
                    if b > 1 and u <= slowest < 1:
                        at_bound.append(ProblemInstance(m, (u,) * (b - 1) + (slowest,)))
        assert all(inst.slowest == average_bound(inst) for inst in at_bound)
        relays = [inst for inst in equal if inst.slowest <= average_bound(inst)] + at_bound
        _, branches = self.spliced(monkeypatch, relays, relay_reference)
        assert branches["tie"] > 10 and branches["collapse"] > 10, branches


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
        # Hand-checkable two-interval splice: at the end of the first column
        # the catcher (bike 3, u = 4/5) trails agent 2 (bike 2, u = 3/4) by
        # 1/20; in the second it rides bike 1 (u = 1/2) under a walking
        # block, closing at rate 1/2.  Host lengths 1 : 1/10.
        inst = ProblemInstance(3, (F(1, 2), F(3, 4), F(4, 5)))
        walk = Schedule((F(1),), ScheduleMatrix(((0,), (0,))))
        sched = splice(inst, [NestedColumn(tail=(0, 2, 3)), NestedColumn((1,), walk)])
        assert sched.partition == (F(10, 11), F(1, 11))


class TestSpliceReference:
    """Every column list the solvers splice, against ``reference_splice``."""

    def test_matches_fraction_reference(self, monkeypatch):
        calls = []

        def spy(inst, columns):
            out = splice(inst, columns)
            calls.append((inst, list(columns), out))
            return out

        monkeypatch.setattr(bs, "splice", spy)
        monkeypatch.setattr(rbs, "splice", spy)
        rng = random.Random(0x5911CE)
        ties = 0
        for trial in range(300):
            if trial % 2:
                inst = random_instance(rng, max_agents=6)
            else:  # few speeds, so that paces tie
                m = rng.randint(1, 6)
                us = [F(rng.choice((1, 2, 2, 3)), 4) for _ in range(rng.randint(0, m))]
                inst = ProblemInstance(m, tuple(us))
            ties += len(set(inst.inverse_speeds)) < inst.bikes
            if not inst.bikes or inst.slowest <= average_bound(inst):
                relay_reference(inst)
            solve_rbs(ProblemInstance(inst.agents, inst.inverse_speeds, abandonment_limit=1))
        branches = Counter()
        for inst, columns, out in calls:
            assert out == reference_splice(inst, columns, branches)
        abandoning = sum(inst.abandonment_limit == 1 for inst, _, _ in calls)
        assert ties > 30 and abandoning > 20
        assert min(branches["rate"], branches["tie"], branches["collapse"]) > 10, branches


class TestExpand:
    def test_block_of_size_one(self):
        block = Schedule((F(1),), ScheduleMatrix(((0,),)))
        inst = ProblemInstance(3, (F(1, 2), F(2, 3)))
        out = splice(inst, [NestedColumn(tail=(1, 2), block=block)])
        assert out.matrix.rows == ((0,), (1,), (2,))
        assert out.partition == (F(1),)

    def test_tail_replicated_across_block_columns(self):
        block = Schedule((F(1, 2), F(1, 2)), ScheduleMatrix(((1, 0), (0, 1))))
        inst = ProblemInstance(3, (F(1, 2), F(2, 3)))
        out = splice(inst, [NestedColumn(tail=(2,), block=block)])
        assert out.matrix.rows == ((1, 0), (0, 1), (2, 2))
        assert out.partition == (F(1, 2), F(1, 2))

    def test_plain_columns_pass_through(self):
        # The walker takes bike 2 and closes its 3/4 gap to bike 1's rider at
        # rate 1/2: lengths 1 : 3/2.
        inst = ProblemInstance(3, (F(1, 4), F(1, 2)))
        out = splice(inst, [NestedColumn(tail=(1, 0, 2)), NestedColumn(tail=(0, 2, 1))])
        assert out.matrix.rows == ((1, 0), (0, 2), (2, 1))
        assert out.partition == (F(2, 5), F(3, 5))

    def test_partition_splicing(self):
        # Bike 2 (u = 2/3) trails bike 1 by 1/6 and closes at rate 3/4 - 2/3
        # under the block, which finishes at 3/4: host lengths 1 : 2, and
        # the block's halves become thirds.
        block = Schedule((F(1, 2), F(1, 2)), ScheduleMatrix(((1, 0), (0, 1))))
        inst = ProblemInstance(3, (F(1, 2), F(2, 3)))
        sched = splice(
            inst, [NestedColumn(tail=(0, 1, 2)), NestedColumn(tail=(2,), block=block)]
        )
        assert sched.partition == (F(1, 3), F(1, 3), F(1, 3))
        assert sched.matrix.rows == ((0, 1, 0), (1, 0, 1), (2, 2, 2))

    def test_height_mismatch_rejected(self):
        inst = ProblemInstance(2, (F(1, 2),))
        walk = Schedule((F(1),), ScheduleMatrix(((0,), (0,))))
        for columns in (
            [NestedColumn(tail=(1, 0)), NestedColumn(tail=(0, 1, 0))],
            [NestedColumn(tail=(1, 0)), NestedColumn(tail=(1,), block=walk)],
        ):
            with pytest.raises(ValueError, match="heights"):
                splice(inst, columns)

    def test_later_column_without_a_tail_bike_rejected(self):
        inst = ProblemInstance(2, (F(1, 2),))
        walk = Schedule((F(1),), ScheduleMatrix(((0,),)))
        for columns in (
            [NestedColumn(tail=(1, 0)), NestedColumn(tail=(0, 0))],
            [NestedColumn(tail=(1, 0)), NestedColumn(tail=(0,), block=walk)],
        ):
            with pytest.raises(ValueError, match="no bike in its tail"):
                splice(inst, columns)

    def test_catcher_on_row_zero_rejected(self):
        # Row 0 has no row ahead to catch up with; the column would
        # silently get length 0, giving the partition (1, 0).
        inst = ProblemInstance(3, (F(1, 4), F(1, 2)))
        with pytest.raises(ValueError, match="row 0"):
            splice(inst, [NestedColumn(tail=(0, 1, 2)), NestedColumn(tail=(1, 0, 2))])


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

    @pytest.mark.parametrize(
        "inst",
        [
            ProblemInstance(3, (F(1, 2), F(2, 3))),
            ProblemInstance(5, (F(1, 2), F(51, 100), F(13, 25))),
        ],
        ids=lambda inst: f"m{inst.agents}b{inst.bikes}",
    )
    def test_checks_its_own_partition(self, inst, monkeypatch):
        """Moving length between two columns of the top-level splice leaves
        the matrix's LP optimum unchanged, but not the spliced answer."""

        def shifted(sub, columns, _real=bs.splice):
            out = _real(sub, columns)
            if sub != inst:
                return out
            x = list(out.partition)
            x[0], x[-1] = x[0] / 2, x[-1] + x[0] / 2
            return Schedule(tuple(x), out.matrix)

        monkeypatch.setattr(bs, "splice", shifted)
        with pytest.raises(ContractError, match="average bound"):
            relay_reference(inst)

    def test_solves_no_lp(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("relay_reference solved an LP")

        monkeypatch.setattr(lp, "solve_partition", refuse)
        for inst in criterion_4_grid():
            relay_reference(inst)

    def test_lp_optimum_is_the_average_bound(self):
        for inst in criterion_4_grid():
            _, tau = solve_partition(relay_reference(inst).matrix, inst)
            assert tau == average_bound(inst), inst


class TestRelayLevels:
    @pytest.mark.parametrize(
        "m, us",
        [(3, (F(1, 2), F(1, 2), F(1, 2))), (6, (F(1, 3), F(2, 5), F(1, 2), F(11, 20)))],
    )
    def test_every_level_is_the_relay_of_its_subproblem(self, m, us):
        inst = ProblemInstance(m, us)
        levels = bs._relay_levels(inst)
        assert len(levels) == inst.bikes + 1
        assert (levels[0] is None) == (m == inst.bikes)
        for k in range(1 if m == inst.bikes else 0, inst.bikes + 1):
            assert levels[k] == relay_schedule(inst.sub_instance(k))
        assert levels[-1] == relay_schedule(inst)

    @settings(max_examples=60)
    @given(
        st.integers(0, 8),
        st.integers(2, 60).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))),
    )
    def test_level_one_is_a_standard_form_vertex(self, walkers, pq):
        # Level 1 is not reduced: reducing it would return it unchanged.
        inst = ProblemInstance(walkers + 1, (F(*pq),))
        level = bs._relay_levels(inst)[1]
        assert level.size == walkers + 1
        assert reduce_schedule(level.matrix, inst, initial=level.partition) == level
        assert is_standard_form(level, inst)
        tau = completion_profile(level, inst).makespan
        assert lp.is_vertex(build_lp(level.matrix, inst), level.partition, tau)


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
