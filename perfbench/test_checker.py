"""The benchmark's exact checker accepts right schedules and rejects
hand-broken ones.  Runs without bikesched: ``pytest perfbench``."""

from fractions import Fraction as F

from checker import (
    Plain,
    bs_optimum,
    check_bs,
    check_drain,
    check_oracle,
    check_rbs,
    check_reduced,
    check_reference,
    feasibility,
    rbs_optimum,
)

HALF = F(1, 2)

# Two agents, one bike of speed 2: ride half, walk half; both finish at 3/4.
RELAY = Plain((HALF, HALF), ((1, 0), (0, 1)))


def test_relay_of_two_is_accepted():
    assert bs_optimum(2, (HALF,)) == F(3, 4)
    assert check_bs(2, (HALF,), RELAY) == []
    assert check_reference(2, (HALF,), RELAY) == []


def test_early_pickup_is_rejected():
    # Bike 2 (u = 1/2) reaches x = 1/2 at 1/4, but agent 1 on bike 1
    # (u = 1/4) is there at 1/8 and takes it over.
    u = (F(1, 4), HALF)
    swapped = Plain((HALF, HALF), ((1, 2), (2, 1)))
    problems = feasibility(swapped, u)
    assert any("before its dropper arrives" in p for p in problems)
    assert check_bs(2, u, swapped) == problems


def test_double_rider_is_rejected():
    problems = feasibility(Plain((F(1),), ((1,), (1,))), (HALF,))
    assert problems == ["bike 1 has two riders in column 1"]


def test_bike_from_nowhere_is_rejected():
    problems = feasibility(Plain((HALF, HALF), ((0, 1), (0, 0))), (HALF,))
    assert problems == ["bike 1 appears from nowhere in column 2"]


def test_partition_must_cover_the_interval():
    assert "partition does not cover [0, 1]" in feasibility(
        Plain((HALF, F(1, 4)), RELAY.rows), (HALF,)
    )


def test_wrong_makespan_is_rejected():
    # Feasible, but agent 1 walks 3/4 of the way: makespan 7/8, not 3/4.
    late = Plain((F(1, 4), F(3, 4)), RELAY.rows)
    assert feasibility(late, (HALF,)) == []
    assert check_bs(2, (HALF,), late) == ["makespan 7/8 != optimum 3/4"]
    assert check_oracle(2, (HALF,), 0, F(7, 8), late) == [
        "oracle optimum 7/8 != closed form 3/4"
    ]
    assert check_reduced(2, (HALF,), late, F(3, 4)) == [
        "makespan 7/8 != reference makespan 3/4"
    ]


def test_oracle_schedule_must_attain_its_value():
    late = Plain((F(1, 4), F(3, 4)), RELAY.rows)
    assert check_oracle(2, (HALF,), 0, F(3, 4), late) == [
        "oracle schedule has makespan 7/8, not 3/4"
    ]


def test_undelivered_bike_is_rejected_for_bs():
    # Agent 2 walks all the way; bike 1 is dropped at 1/2 and left there.
    dropped = Plain((HALF, HALF), ((1, 0), (0, 0)))
    assert "a bike is not ridden the whole interval" in check_bs(2, (HALF,), dropped)


def test_rbs_closed_forms():
    # Criterion 2's closed form for two agents, speeds v1 = 3, v2 = 2.
    v1, v2 = F(3), F(2)
    want = (v1 * v1 - v2) / (v2 * v1 * v1 + v1 * v1 - 2 * v1 * v2)
    assert rbs_optimum(2, (1 / v1, 1 / v2)) == want
    # Three bikes where the second-slowest lags too: the optimum is u_{b-1}.
    u = (F(1, 10), F(9, 10), F(19, 20))
    assert rbs_optimum(3, u) == F(9, 10)


def test_rbs_usage_must_match_and_one_bike_at_most():
    u = (F(1, 4), HALF)
    # Both agents ride their own bike to 1/2, then agent 2 walks and agent 1
    # keeps bike 1: bike 2 is abandoned at 1/2.
    s = Plain((HALF, HALF), ((1, 1), (2, 0)))
    problems = check_rbs(2, u, s, (F(1), HALF))
    assert "reported bike usage differs from the schedule's" not in problems
    assert "reported bike usage differs from the schedule's" in check_rbs(
        2, u, s, (F(1), F(1))
    )
    both = Plain((HALF, HALF), ((1, 0), (2, 0)))
    assert "more than one bike abandoned" in check_rbs(2, u, both, (HALF, HALF))


def test_reference_size_is_the_closed_form():
    # Three agents, one bike: the relay has 2^0 * 3 = 3 columns.
    third = F(1, 3)
    u = (HALF,)
    good = Plain((third, third, third), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert check_reference(3, u, good) == []
    merged = Plain((third, third, third), ((1, 0, 0), (0, 1, 1), (0, 0, 0)))
    assert any("reference relay size" in p or "makespan" in p
               for p in check_reference(3, u, merged))
    assert check_reference(3, u, Plain((F(1),), ((1,), (0,), (0,)))) != []


def test_drain_accounts_for_the_injected_wait():
    waited = Plain(RELAY.partition, RELAY.rows, ((0, 0), (0, F(1, 9))))
    assert check_drain((HALF,), waited, RELAY, F(1, 9)) == []
    assert check_drain((HALF,), waited, RELAY, F(1, 8)) != []
    assert check_drain((HALF,), waited, waited, F(1, 9)) == ["waits left after draining"]
