"""Solver-vs-oracle agreement on generated instances.

Hypothesis draws an (agents, bikes) stratum with m <= 4 and b <= min(m, 3),
then inverse speeds p/q with q <= 12.  ``solve_bs`` and limit-1 ``solve_rbs``
must reach the brute-force optimum exactly.  The explicit examples pin the
edge cases: equal speeds, the slowest bike exactly at the average bound, and
pace ties, where a sub-relay's common finish, the one-abandonment bound or a
solo split's average bound lands exactly on a bike's inverse speed.  The
400 draws take about 4 s on a 2-core machine (Python 3.11.7; 3.6 and 3.7 s
in two runs), most of it in the m = 4, b = 3 relaxed searches.  Under
``derandomize`` the draws, and so the cost, depend on ``max_examples``: 800
draws took 9.9 and 10.0 s.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bikesched import (
    ProblemInstance,
    brute_force_bs,
    brute_force_rbs,
    completion_profile,
    solve_bs,
    solve_rbs,
)

STRATA = [(m, b) for m in range(1, 5) for b in range(min(m, 3) + 1)]


@st.composite
def cases(draw):
    m, b = draw(st.sampled_from(STRATA))
    us = []
    for _ in range(b):
        q = draw(st.integers(2, 12))
        us.append(F(draw(st.integers(1, q - 1)), q))
    return m, tuple(sorted(us))


@settings(max_examples=400)
@given(cases())
# Equal speeds: the first is the relaxed search that no family bound stops,
# 11,256 matrices below the optimum (5,646 orbit leaders, 61 LPs once slow
# groups of relay paths and matrices bounded by an earlier LP's dual
# certificate are skipped).
@example((4, (F(1, 4), F(1, 4), F(4, 5))))
@example((4, (F(1, 2), F(1, 2), F(1, 2))))
@example((3, (F(2, 3), F(2, 3))))
# u_b exactly the average bound.
@example((4, (F(1, 4), F(1, 2), F(7, 12))))
@example((4, (F(1, 4), F(3, 4))))
# Pace ties: the one-bike sub-relay of 2 agents finishes at (1 + 1/5) / 2,
# bike 2's pace; the one-abandonment bound is u_2; the solo split's relay
# of bikes 1 and 2 finishes at their common pace 1/2.
@example((3, (F(1, 5), F(3, 5))))
@example((3, (F(1, 7), F(3, 7), F(4, 7))))
@example((3, (F(1, 2), F(1, 2), F(3, 4))))
def test_solvers_reach_the_oracle_optimum(case):
    m, us = case
    inst = ProblemInstance(m, us)
    sched, _ = solve_bs(inst)
    assert completion_profile(sched, inst).makespan == brute_force_bs(inst)[0]
    relaxed = ProblemInstance(m, us, abandonment_limit=1)
    sol = solve_rbs(relaxed)
    assert completion_profile(sol.schedule, relaxed).makespan == brute_force_rbs(relaxed)[0]
