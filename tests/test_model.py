import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikesched import (
    BoundCertificate,
    ContractError,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    abandonment_vector,
    average_bound,
    build_lp,
    check_feasible,
    completion_profile,
    is_standard_form,
    one_abandonment_bound,
    solve_rbs,
)
from bikesched.lp import LPContractError
from bikesched.model import TIGHT_AVERAGE, _arrivals, verify_answer
from bikesched.rbs import shared_prefix
from conftest import (
    fraction_arrivals,
    random_feasible_schedule,
    random_instance,
    reference_reading,
)

TWO_ONE = ProblemInstance(2, (F(1, 2),))
RELAY_2 = Schedule((F(1, 2), F(1, 2)), ScheduleMatrix(((1, 0), (0, 1))))


def instances(max_agents=6):
    def build(m, fracs):
        b = min(len(fracs), m)
        return ProblemInstance(m, tuple(sorted(fracs[:b])))

    return st.builds(
        build,
        st.integers(1, max_agents),
        st.lists(
            st.fractions(
                min_value=F(1, 24), max_value=F(23, 24), max_denominator=24
            ),
            max_size=max_agents,
        ),
    )


class TestConstruction:
    def test_instance_sorts_speeds(self):
        inst = ProblemInstance(3, (F(4, 5), F(1, 2)))
        assert inst.inverse_speeds == (F(1, 2), F(4, 5))

    def test_more_bikes_than_agents_rejected(self):
        with pytest.raises(ValueError):
            ProblemInstance(1, (F(1, 2), F(1, 3)))

    @pytest.mark.parametrize("u", [F(1), F(3, 2), F(0), F(-1, 2)])
    def test_bad_speed_rejected(self, u):
        with pytest.raises(ValueError):
            ProblemInstance(2, (u,))

    def test_sub_instance(self):
        inst = ProblemInstance(5, (F(1, 3), F(1, 2), F(2, 3)))
        sub = inst.sub_instance(2)
        assert sub.agents == 4 and sub.inverse_speeds == (F(1, 3), F(1, 2))

    def test_partition_matrix_shape_mismatch(self):
        with pytest.raises(ValueError):
            Schedule((F(1),), ScheduleMatrix(((1, 0), (0, 1))))

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            Schedule((F(3, 2), F(-1, 2)), ScheduleMatrix(((0, 0),)))

    # bool is an int subclass, so a JSON true or false would pass a plain
    # isinstance check as 1 or 0.
    @pytest.mark.parametrize("label", [True, False, 1.0])
    def test_non_int_label_rejected(self, label):
        with pytest.raises(ValueError, match="label .* in the matrix"):
            ScheduleMatrix(((label, 0), (0, 1)))

    @pytest.mark.parametrize("agents", [True, 2.0, "2"])
    def test_non_int_agents_rejected(self, agents):
        with pytest.raises(ValueError, match="agents"):
            ProblemInstance(agents, ())

    @pytest.mark.parametrize("limit", [False, True, 1.0, -1])
    def test_non_int_abandonment_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="abandonment limit"):
            ProblemInstance(2, (F(1, 2),), abandonment_limit=limit)


class TestCompletionProfile:
    def test_two_agents_one_bike(self):
        prof = completion_profile(RELAY_2, TWO_ONE)
        assert prof.final == (F(3, 4), F(3, 4))
        assert prof.makespan == F(3, 4)
        assert prof.partial == ((F(1, 4), F(3, 4)), (F(1, 2), F(3, 4)))

    def test_all_walk(self):
        inst = ProblemInstance(4, ())
        sched = Schedule((F(1),), ScheduleMatrix(((0,),) * 4))
        assert completion_profile(sched, inst).final == (F(1),) * 4

    def test_wait_shifts_partials(self):
        sched = Schedule(
            RELAY_2.partition,
            RELAY_2.matrix,
            ((F(1, 10), F(0)), (F(0), F(0))),
        )
        prof = completion_profile(sched, TWO_ONE)
        assert prof.final == (F(17, 20), F(3, 4))
        assert prof.makespan == F(17, 20)

    def test_zero_wait_matrix_matches_bare(self):
        zeros = ((F(0), F(0)), (F(0), F(0)))
        with_d = completion_profile(Schedule(RELAY_2.partition, RELAY_2.matrix, zeros), TWO_ONE)
        bare = completion_profile(RELAY_2, TWO_ONE)
        assert with_d == bare

    def test_label_out_of_range(self):
        sched = Schedule((F(1),), ScheduleMatrix(((2,), (0,))))
        with pytest.raises(ValueError):
            completion_profile(sched, TWO_ONE)


class TestFeasibility:
    def test_relay_feasible(self):
        assert check_feasible(RELAY_2, TWO_ONE).ok

    def test_bike_from_nowhere(self):
        sched = Schedule(
            (F(1, 2), F(1, 2)), ScheduleMatrix(((0, 1), (0, 0)))
        )
        report = check_feasible(sched, TWO_ONE)
        assert [(v.condition, v.agent, v.column) for v in report.violations] == [(1, 1, 2)]

    def test_double_rider(self):
        sched = Schedule((F(1),), ScheduleMatrix(((1,), (1,))))
        report = check_feasible(sched, TWO_ONE)
        assert [(v.condition, v.agent, v.column) for v in report.violations] == [(2, 2, 1)]

    def test_late_dropper_with_wait(self):
        # Agent 2 rides column 1 then waits; agent 1 picks up too early.
        sched = Schedule(
            (F(1, 2), F(1, 2)),
            ScheduleMatrix(((0, 1), (1, 0))),
            ((F(0), F(0)), (F(1, 2), F(0))),
        )
        report = check_feasible(sched, TWO_ONE)
        assert [(v.condition, v.agent, v.column) for v in report.violations] == [(3, 1, 2)]

    def test_equal_time_pickup_is_feasible(self):
        inst = ProblemInstance(2, (F(1, 2), F(1, 2)))
        sched = Schedule((F(1, 2), F(1, 2)), ScheduleMatrix(((1, 2), (2, 1))))
        assert check_feasible(sched, inst).ok


class TestHandoverContract:
    def test_all_three_conditions_in_one_matrix(self):
        # Column 2: agent 2 picks up bike 1 before agent 1 (who waited) drops
        # it, agent 3 rides bike 1 as well and also picks up early, and bike 3
        # comes from nowhere.  Column 3: agents 1 and 2 both ride bike 1, and
        # agent 4 takes bike 2 from agent 1 too early.
        inst = ProblemInstance(4, (F(1, 4), F(1, 2), F(3, 4)))
        waits = ((F(1), F(0), F(0)),) + ((F(0), F(0), F(0)),) * 3
        sched = Schedule(
            (F(1, 4), F(1, 4), F(1, 2)),
            ScheduleMatrix(((1, 2, 1), (2, 1, 1), (0, 1, 0), (0, 3, 2))),
            waits,
        )
        report = check_feasible(sched, inst)
        assert [(v.condition, v.agent, v.column) for v in report.violations] == [
            (3, 2, 2),
            (2, 3, 2),
            (3, 3, 2),
            (1, 4, 2),
            (2, 2, 3),
            (3, 4, 3),
        ]

    def test_random_matrices_match_reference_reading(self):
        rng = random.Random(0x4A4D)
        malformed = 0
        for _ in range(2000):
            m = rng.randint(1, 4)
            b = rng.randint(0, m)
            n = rng.randint(1, 4)
            inst = ProblemInstance(
                m, tuple(F(rng.randint(1, 5), 6) for _ in range(b))
            )
            # Columns that permute their predecessor carry handovers; fresh
            # random columns bring bikes from nowhere and second riders.
            cols = [[rng.randint(0, b) for _ in range(m)]]
            for _ in range(n - 1):
                col = list(cols[-1])
                if rng.random() < 0.6:
                    rng.shuffle(col)
                else:
                    col = [rng.randint(0, b) for _ in range(m)]
                cols.append(col)
            rows = tuple(tuple(col[i] for col in cols) for i in range(m))
            partition = tuple(F(rng.randint(0, 3), 4) for _ in range(n))
            waits = None
            if rng.random() < 0.5:
                waits = tuple(
                    tuple(F(rng.choice((0, 0, 1, 2)), 8) for _ in range(n))
                    for _ in range(m)
                )
            sched = Schedule(partition, ScheduleMatrix(rows), waits)
            handovers, violations = reference_reading(sched, inst)

            report = check_feasible(sched, inst)
            assert [
                (v.condition, v.agent, v.column) for v in report.violations
            ] == violations

            if any(v[0] in (1, 2) for v in violations):
                malformed += 1
                with pytest.raises(ValueError):
                    build_lp(sched.matrix, inst)
                continue
            assert build_lp(sched.matrix, inst).switches == tuple(handovers)

            partial = completion_profile(sched, inst).partial
            standard = (
                all(x != 0 for x in partition)
                and all(
                    sched.matrix.column(j) != sched.matrix.column(j - 1)
                    for j in range(1, n)
                )
                and all(
                    partial[picker][column - 1] != partial[dropper][column - 1]
                    for picker, dropper, column in handovers
                )
            )
            assert is_standard_form(sched, inst) == standard
        assert 500 < malformed < 1500


def tie_prone_schedule(rng):
    """A random schedule from few speeds and lengths, so that equal speeds,
    zero-length columns and handovers at exactly equal arrival are common.
    One draw in four takes speeds over 29 and lengths over 31, and half of
    the draws carry waits, some of them over 37."""
    m = rng.randint(1, 5)
    b = rng.randint(0, m)
    n = rng.randint(1, 5)
    wide = rng.random() < 0.25
    speeds = tuple(
        F(rng.randint(1, 28), 29) if wide else F(rng.choice((1, 2, 2, 3)), 4)
        for _ in range(b)
    )
    cols = [rng.sample([*range(1, b + 1)] + [0] * (m - b), m)]
    for _ in range(n - 1):
        col = list(cols[-1])
        if rng.random() < 0.8:
            rng.shuffle(col)
        else:
            col = [rng.randint(0, b) for _ in range(m)]
        cols.append(col)
    rows = tuple(tuple(col[i] for col in cols) for i in range(m))
    partition = tuple(
        F(rng.randint(0, 30), 31) if wide else F(rng.randint(0, 2), 4) for _ in range(n)
    )
    waits = None
    if rng.random() < 0.5:
        waits = tuple(
            tuple(F(rng.choice((0, 0, 1, 2)), rng.choice((4, 8, 37))) for _ in range(n))
            for _ in range(m)
        )
    inst = ProblemInstance(m, speeds, abandonment_limit=b)
    return Schedule(partition, ScheduleMatrix(rows), waits), inst


class TestIntegerArrivals:
    """The integer arrival profile, and every check that reads it, against a
    ``Fraction`` running sum."""

    def test_profile_matches_fraction_running_sum(self):
        rng = random.Random(0xA771)
        waited = zeros = 0
        for _ in range(1500):
            sched, inst = tie_prone_schedule(rng)
            ref = fraction_arrivals(sched, inst)
            ints, den = _arrivals(sched, inst)
            assert den > 0
            assert [[F(t, den) for t in row] for row in ints] == ref
            prof = completion_profile(sched, inst)
            assert prof.partial == tuple(tuple(row) for row in ref)
            assert prof.final == tuple(row[-1] for row in ref)
            assert prof.makespan == max(row[-1] for row in ref)
            waited += sched.waits is not None
            zeros += 0 in sched.partition
        assert waited > 500 and zeros > 500

    def test_checks_match_fraction_reference(self):
        rng = random.Random(0x71E5)
        ties = sound_ties = sound_count = 0
        for _ in range(1500):
            sched, inst = tie_prone_schedule(rng)
            handovers, violations = reference_reading(sched, inst)
            report = check_feasible(sched, inst)
            assert [(v.condition, v.agent, v.column) for v in report.violations] == violations
            ref = fraction_arrivals(sched, inst)
            tied = sum(ref[p][c - 1] == ref[d][c - 1] for p, d, c in handovers)

            # An answer must cover [0, 1].  Scaling every length and wait by
            # one factor scales every arrival by it and keeps the violations.
            length = sched.length
            if length:
                sched = Schedule(
                    tuple([x / length for x in sched.partition]),
                    sched.matrix,
                    sched.waits and tuple([
                        tuple([w / length for w in row]) for row in sched.waits
                    ]),
                )
            makespan = max(row[-1] for row in ref) / (length or 1)
            usage = abandonment_vector(sched, inst)
            left = tuple((k, y) for k, y in enumerate(usage, start=1) if y < 1)
            sound = length > 0 and not violations and sched.size <= inst.agents
            ties += tied
            sound_ties += sound and tied > 0
            sound_count += sound
            for value, ok in ((makespan, sound), (makespan + F(1, 10**9 + 7), False)):
                cert = BoundCertificate(average_bound(inst), None, TIGHT_AVERAGE, value)
                if ok:
                    verify_answer(sched, inst, cert, left)
                else:
                    with pytest.raises(ContractError):
                        verify_answer(sched, inst, cert, left)
        assert ties > 300 and sound_ties > 20 and 300 < sound_count < 1200


class TestAbandonment:
    def test_full_delivery(self):
        assert abandonment_vector(RELAY_2, TWO_ONE) == (F(1),)

    def test_drop_fast_bike_strategy(self):
        # Two agents, speeds 3 and 2: ride together to 4/5, abandon the slow
        # bike there, relay the fast one; both finish at 7/15.
        inst = ProblemInstance(2, (F(1, 3), F(1, 2)))
        sched = Schedule((F(4, 5), F(1, 5)), ScheduleMatrix(((1, 0), (2, 1))))
        assert check_feasible(sched, inst).ok
        assert abandonment_vector(sched, inst) == (F(1), F(4, 5))
        assert completion_profile(sched, inst).final == (F(7, 15),) * 2

    def test_partial_use(self):
        inst = ProblemInstance(2, (F(1, 2),))
        sched = Schedule((F(1, 4), F(3, 4)), ScheduleMatrix(((1, 0), (0, 0))))
        assert abandonment_vector(sched, inst) == (F(1, 4),)


def certifying(sched, inst):
    """A certificate naming the schedule's own makespan as its tight value."""
    makespan = completion_profile(sched, inst).makespan
    return BoundCertificate(average_bound(inst), None, TIGHT_AVERAGE, makespan)


class TestVerifyAnswer:
    """Each hand-broken answer trips exactly one of the verifier's checks."""

    # Agent 1 rides the bike to 1/2 and leaves it there; agent 2 walks.
    LEFT_BEHIND = Schedule((F(1, 2), F(1, 2)), ScheduleMatrix(((1, 0), (0, 0))))

    def test_sound_answer_passes(self):
        verify_answer(RELAY_2, TWO_ONE, certifying(RELAY_2, TWO_ONE))

    @pytest.mark.parametrize("partition", [(F(1, 4), F(1, 4)), (F(0), F(0)), (F(1), F(1, 2))])
    def test_partition_must_cover_the_interval(self, partition):
        # Feasible, and the certificate names the schedule's own makespan.
        sched = Schedule(partition, RELAY_2.matrix)
        with pytest.raises(ContractError, match="covers length"):
            verify_answer(sched, TWO_ONE, certifying(sched, TWO_ONE))

    def test_infeasible(self):
        sched = Schedule((F(1, 2), F(1, 2)), ScheduleMatrix(((0, 1), (0, 0))))
        with pytest.raises(ContractError, match="infeasible"):
            verify_answer(sched, TWO_ONE, certifying(sched, TWO_ONE))

    def test_wrong_makespan(self):
        cert = BoundCertificate(F(3, 4), F(1, 2), TIGHT_AVERAGE, F(1))
        with pytest.raises(ContractError, match="makespan 3/4 is not"):
            verify_answer(RELAY_2, TWO_ONE, cert)

    def test_full_delivery_answer_leaves_a_bike(self):
        sched = self.LEFT_BEHIND
        with pytest.raises(ContractError, match="abandoned"):
            verify_answer(sched, TWO_ONE, certifying(sched, TWO_ONE))

    def test_abandoned_disagrees_with_usage(self):
        inst = ProblemInstance(2, (F(1, 2),), abandonment_limit=1)
        sched = self.LEFT_BEHIND
        verify_answer(sched, inst, certifying(sched, inst), ((1, F(1, 2)),))
        with pytest.raises(ContractError, match="abandoned"):
            verify_answer(sched, inst, certifying(sched, inst), ((1, F(1, 3)),))

    def test_two_abandoned_under_limit_one(self):
        inst = ProblemInstance(3, (F(1, 2), F(1, 2)), abandonment_limit=1)
        sched = Schedule(
            (F(1, 2), F(1, 2)), ScheduleMatrix(((1, 0), (2, 0), (0, 0)))
        )
        both = ((1, F(1, 2)), (2, F(1, 2)))
        assert abandonment_vector(sched, inst) == (F(1, 2), F(1, 2))
        with pytest.raises(ContractError, match="limit 1"):
            verify_answer(sched, inst, certifying(sched, inst), both)

    def test_lp_contract_is_a_contract(self):
        assert issubclass(LPContractError, ContractError)
        assert issubclass(ContractError, RuntimeError)


class TestBounds:
    @pytest.mark.parametrize(
        "m, us, expected",
        [
            (2, (F(1, 2),), F(3, 4)),
            (3, (), F(1)),
            (3, (F(1, 2), F(4, 5)), F(23, 30)),
        ],
    )
    def test_average_bound(self, m, us, expected):
        assert average_bound(ProblemInstance(m, us)) == expected

    def test_average_bound_with_usage(self):
        inst = ProblemInstance(3, (F(1, 2), F(4, 5)))
        assert average_bound(inst, (F(1), F(1))) == average_bound(inst)
        assert average_bound(inst, (F(1), F(10, 11))) == F(17, 22)
        assert average_bound(inst, (F(0), F(0))) == F(1)

    def test_usage_length_checked(self):
        with pytest.raises(ValueError):
            average_bound(TWO_ONE, (F(1), F(1)))

    @pytest.mark.parametrize(
        "m, us, bound, y_star",
        [
            (3, (F(1, 2), F(4, 5)), F(17, 22), F(10, 11)),
            (2, (F(1, 3), F(1, 2)), F(7, 15), F(4, 5)),
            (3, (F(1, 2), F(1, 2)), F(2, 3), F(1)),
        ],
    )
    def test_one_abandonment_bound(self, m, us, bound, y_star):
        assert one_abandonment_bound(ProblemInstance(m, us)) == (bound, y_star)

    def test_one_abandonment_bound_needs_bikes(self):
        with pytest.raises(ValueError):
            one_abandonment_bound(ProblemInstance(2, ()))

    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_fastest_bike_below_average_bound(self, inst):
        if inst.bikes:
            assert inst.inverse_speeds[0] <= average_bound(inst)

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.integers(0, 100))
    def test_removal_monotonicity(self, inst, pick):
        # Dropping one bike and one agent raises the bound exactly when the
        # dropped bike was at most the bound, with equality only at equality.
        if inst.bikes == 0 or inst.agents == 1:
            return
        k = pick % inst.bikes
        u = inst.inverse_speeds
        smaller = ProblemInstance(inst.agents - 1, u[:k] + u[k + 1 :])
        full, reduced = average_bound(inst), average_bound(smaller)
        assert (u[k] <= full) == (full <= reduced)
        assert (reduced == full) == (u[k] == full)

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.data())
    def test_usage_bound_monotone(self, inst, data):
        if inst.bikes == 0:
            return
        y = tuple(
            data.draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
            for _ in range(inst.bikes)
        )
        lower = tuple(
            data.draw(st.fractions(min_value=0, max_value=yk, max_denominator=12))
            for yk in y
        )
        assert average_bound(inst, lower) >= average_bound(inst, y)


class TestScheduleLowerBounds:
    def test_random_feasible_schedules_respect_bounds(self, rng):
        for _ in range(25):
            inst = random_instance(rng, max_agents=5)
            sched = random_feasible_schedule(rng, inst)
            prof = completion_profile(sched, inst)
            assert prof.makespan >= average_bound(inst)
            if inst.bikes:
                assert prof.makespan >= inst.slowest  # all bikes reach the end
            # The bound is met exactly iff all agents tie.
            all_equal = len(set(prof.final)) == 1
            assert (prof.makespan == average_bound(inst)) == all_equal

    def test_one_abandonment_bound_respected(self, rng):
        from bikesched import solve_partition

        for _ in range(20):
            inst = random_instance(rng, min_agents=2, max_agents=4)
            if inst.bikes < 2:
                continue
            bound, _ = one_abandonment_bound(inst)
            # Bike b retires after a random prefix; everything else rides on.
            n = rng.randint(2, inst.agents) if inst.agents > 1 else 1
            prefix = rng.randint(1, n - 1)
            cols = []
            for j in range(n):
                active = list(range(1, inst.bikes + 1 if j < prefix else inst.bikes))
                riders = rng.sample(range(inst.agents), len(active))
                col = [0] * inst.agents
                for bike, row in zip(active, riders):
                    col[row] = bike
                cols.append(col)
            matrix = ScheduleMatrix(
                tuple(tuple(c[i] for c in cols) for i in range(inst.agents))
            )
            x, tau = solve_partition(matrix, inst)
            assert tau >= bound


def fraction_average_bound(inst):
    return 1 - sum(1 - u for u in inst.inverse_speeds) / inst.agents


def fraction_one_abandonment_bound(inst):
    u, m = inst.inverse_speeds, inst.agents
    full = fraction_average_bound(inst)
    if u[-1] <= full:
        return full, F(1)
    head = fraction_average_bound(ProblemInstance(m, u[:-1]))
    y_star = (head - u[0]) / (u[-1] - u[0] + (1 - u[-1]) / m)
    return u[0] + y_star * (u[-1] - u[0]), y_star


def fraction_shared_prefix(inst):
    return max(
        q
        for q in range(1, inst.bikes + 1)
        if inst.inverse_speeds[q - 1] <= fraction_average_bound(inst.sub_instance(q))
    )


def fraction_usage(sched, inst):
    totals = [F(0)] * inst.bikes
    for j, col in enumerate(sched.matrix.columns()):
        for label in col:
            if label:
                totals[label - 1] += sched.partition[j]
    return tuple(totals)


def fraction_verdict(sched, inst, cert, abandoned):
    """Whether ``verify_answer`` should accept, read off Fraction arrivals."""
    final = [row[-1] for row in fraction_arrivals(sched, inst)]
    usage = fraction_usage(sched, inst)
    left = tuple((bike, y) for bike, y in enumerate(usage, start=1) if y < 1)
    return (
        sum(sched.partition) == 1
        and check_feasible(sched, inst).ok
        and sched.size <= inst.agents
        and max(final) == cert.value
        and abandoned == left
        and len(left) <= inst.abandonment_limit
    )


def edge_instances():
    """Equal speeds, and the slowest bike exactly at the average bound."""
    for m in range(1, 7):
        for b in range(1, m + 1):
            for u in (F(1, 2), F(2, 3), F(1, 7)):
                yield ProblemInstance(m, (u,) * b, abandonment_limit=1)
                slowest = 1 - (b - 1) * (1 - u) / (m - 1) if m > 1 else None
                if b > 1 and u <= slowest < 1:
                    yield ProblemInstance(m, (u,) * (b - 1) + (slowest,), abandonment_limit=1)


class TestIntegerBounds:
    """The bounds and the bike usage, read off the integer speed table and
    integer lengths, against their Fraction formulas."""

    @staticmethod
    def corpus():
        rng = random.Random(0xB0)
        randoms = [random_instance(rng, max_agents=9, limit=1) for _ in range(300)]
        return randoms + list(edge_instances())

    def test_edge_cases_are_in_the_corpus(self):
        edges = list(edge_instances())
        assert sum(inst.slowest == average_bound(inst) and inst.agents > inst.bikes
                   for inst in edges) > 10
        assert sum(len(set(inst.inverse_speeds)) == 1 for inst in edges) > 30

    def test_bounds_match_fraction_formulas(self):
        for inst in self.corpus():
            assert average_bound(inst) == fraction_average_bound(inst), inst
            if inst.bikes:
                expected = fraction_one_abandonment_bound(inst)
                assert one_abandonment_bound(inst) == expected, inst
                assert shared_prefix(inst) == fraction_shared_prefix(inst), inst

    def test_usage_and_verdicts_match_fraction_reading(self):
        rng = random.Random(0xB1)
        verdicts = set()
        for inst in self.corpus()[::3]:
            sol = solve_rbs(inst)
            sched, cert = sol.schedule, sol.certificate
            assert abandonment_vector(sched, inst) == fraction_usage(sched, inst)
            half = Schedule(tuple(x / 2 for x in sched.partition), sched.matrix)
            wrong = replace(cert, value=cert.value + F(1, 10**6))
            variants = [
                (sched, cert, sol.abandoned),
                (sched, wrong, sol.abandoned),
                (sched, cert, ((1, F(1, 2)),)),
                (half, replace(cert, value=completion_profile(half, inst).makespan), ()),
                (random_feasible_schedule(rng, inst), cert, ()),
            ]
            for s, c, abandoned in variants:
                expected = fraction_verdict(s, inst, c, abandoned)
                try:
                    verify_answer(s, inst, c, abandoned)
                    accepted = True
                except ContractError:
                    accepted = False
                assert accepted == expected, (inst, s, c, abandoned)
                verdicts.add(expected)
        assert verdicts == {True, False}
