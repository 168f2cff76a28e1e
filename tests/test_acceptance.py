"""Acceptance suite: ten numbered criteria, one printed PASS/FAIL line each.

All equalities are exact rational comparisons; there are no tolerances
anywhere.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.  Criteria 8-10 piggyback on the corpora solved in
criteria 3 and 7, so the module is meant to run in file order (the default).

Every partition LP solved anywhere in this module is audited on the fly:
the returned point must satisfy the whole constraint system exactly and be a
basic feasible solution (criterion 10 reports the audit).
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

import bikesched.lp
import bikesched.normalize
import bikesched.oracle
from bikesched import (
    EnumerationBudget,
    ProblemInstance,
    Schedule,
    TIGHT_AVERAGE,
    TIGHT_ONE_ABANDONED,
    average_bound,
    brute_force_bs,
    brute_force_rbs,
    build_lp,
    check_feasible,
    completion_profile,
    one_abandonment_bound,
    reduce_schedule,
    relay_reference,
    solve_bs,
    solve_rbs,
)
from bikesched.lp import is_vertex, satisfies_all_constraints
from conftest import random_instance


class _Audit:
    calls = 0


_CACHE: dict = {}


def _bs_corpus():
    """200 random full-delivery solves (criterion 3's corpus), solved once."""
    if "bs" not in _CACHE:
        rng = random.Random(20260811)
        start = time.perf_counter()
        data = []
        for _ in range(200):
            inst = random_instance(rng)
            sched, cert = solve_bs(inst)
            prof = completion_profile(sched, inst)
            data.append((inst, sched, cert, prof))
        _CACHE["bs"] = (data, time.perf_counter() - start)
    return _CACHE["bs"]


def _rbs_corpus():
    """200 random relaxed solves (criterion 7's corpus), solved once."""
    if "rbs" not in _CACHE:
        rng = random.Random(7170707)
        start = time.perf_counter()
        data = []
        for _ in range(200):
            inst = random_instance(rng, limit=1)
            sol = solve_rbs(inst)
            prof = completion_profile(sol.schedule, inst)
            data.append((inst, sol, prof))
        _CACHE["rbs"] = (data, time.perf_counter() - start)
    return _CACHE["rbs"]


@pytest.fixture(scope="module", autouse=True)
def audit_every_lp_solve():
    real = bikesched.lp.solve_partition
    real_oracle = bikesched.oracle._solve

    def audit(matrix, inst, x, tau):
        lp = build_lp(matrix, inst)
        assert satisfies_all_constraints(lp, x, tau), "LP answer violates a constraint"
        assert is_vertex(lp, x, tau), "LP answer is not a basic feasible solution"
        _Audit.calls += 1

    def checked(matrix, inst):
        x, tau = real(matrix, inst)
        audit(matrix, inst, x, tau)
        return x, tau

    def checked_oracle(matrix, inst, certify):
        # The oracle's entry answers in ints, with the LP's dual certificate.
        v, den, dual = real_oracle(matrix, inst, certify)
        audit(matrix, inst, *bikesched.lp._answer(v, den))
        return v, den, dual

    bikesched.lp.solve_partition = checked
    bikesched.normalize.solve_partition = checked
    bikesched.oracle._solve = checked_oracle
    yield
    bikesched.lp.solve_partition = real
    bikesched.normalize.solve_partition = real
    bikesched.oracle._solve = real_oracle


def _report(num: int, ok: bool, text: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {text}")


def test_criterion_1_two_agents_one_bike():
    start = time.perf_counter()
    bad = []
    for v in (F(3, 2), F(2), F(5), F(100)):
        inst = ProblemInstance(2, (1 / v,))
        sched, cert = solve_bs(inst)
        tau = completion_profile(sched, inst).makespan
        ok = (
            tau == (1 + v) / (2 * v)
            and sched.partition == (F(1, 2), F(1, 2))
            and set(sched.matrix.rows) == {(1, 0), (0, 1)}
        )
        if not ok:
            bad.append((v, tau))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1
    _report(1, ok, f"two agents, one bike of speed v: makespan (1+v)/2v with an even split ({elapsed:.2f}s)")
    assert ok, bad


def test_criterion_2_two_agents_two_bikes_relaxed():
    start = time.perf_counter()
    bad = []
    for v1, v2 in ((F(3), F(2)), (F(4), F(3)), (F(10), F(2))):
        inst = ProblemInstance(2, (1 / v1, 1 / v2), abandonment_limit=1)
        sol = solve_rbs(inst)
        tau = completion_profile(sol.schedule, inst).makespan
        want_tau = (v1 * v1 - v2) / (v2 * v1 * v1 + v1 * v1 - 2 * v1 * v2)
        want_z = v2 * (v1 - 1) / (v1 * v2 + v1 - 2 * v2)
        if tau != want_tau or sol.abandoned != ((2, want_z),):
            bad.append((v1, v2, tau, sol.abandoned))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1
    _report(2, ok, f"two agents, two bikes, one abandonable: intro closed forms ({elapsed:.2f}s)")
    assert ok, bad


def test_criterion_3_bs_optimum_formula():
    corpus, solve_time = _bs_corpus()
    start = time.perf_counter()
    bad = 0
    for inst, sched, _cert, prof in corpus:
        expected = max(inst.slowest, average_bound(inst)) if inst.bikes else F(1)
        if (
            prof.makespan != expected
            or not check_feasible(sched, inst).ok
            or sched.matrix.bikes_in_final_column()
            != frozenset(range(1, inst.bikes + 1))
        ):
            bad += 1
    elapsed = solve_time + time.perf_counter() - start
    ok = bad == 0 and elapsed < 30
    _report(3, ok, f"200 random full-delivery solves hit max(u_b, average bound) exactly ({elapsed:.1f}s)")
    assert ok, f"{bad} failures, {elapsed:.1f}s"


def _relay_size_recursion(m: int, b: int) -> int:
    """Columns of the fully expanded relay, counted from its construction:
    m - b walker columns, then for each bike k < b one block holding the relay
    for m - b + k agents and k bikes; a block with no bikes is one walk column."""
    if b == 0:
        return 1
    return (m - b) + sum(_relay_size_recursion(m - b + k, k) for k in range(b))


def test_criterion_4_reference_relay_size_formula():
    start = time.perf_counter()
    mismatches = []
    for m in range(2, 8):
        for b in range(1, min(m - 1, 6) + 1):
            us = tuple(F(1, 2) + F(k, 100) for k in range(b))
            inst = ProblemInstance(m, us)
            size = relay_reference(inst).size
            recursion = _relay_size_recursion(m, b)
            closed = 2 ** (b - 1) * (m - b + 1)
            if not size == recursion == closed:
                mismatches.append((m, b, size, recursion, closed))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10
    _report(4, ok, f"reference relay size equals 2^(b-1)*(m-b+1) for m<=7, b<=6 ({elapsed:.1f}s)")
    assert ok, (
        "relay_reference size, the recursion f(m,0) = 1, "
        "f(m,b) = (m-b) + sum_{k<b} f(m-b+k, k) and the closed form "
        f"2^(b-1)*(m-b+1) must all agree within 10s ({elapsed:.1f}s); "
        f"(m, b, size, recursion, closed form): {mismatches}"
    )


def test_criterion_5_reduce_bound():
    start = time.perf_counter()
    bad = []
    for m in range(2, 8):
        for b in range(1, min(m - 1, 6) + 1):
            us = tuple(F(1, 2) + F(k, 100) for k in range(b))
            inst = ProblemInstance(m, us)
            ref = relay_reference(inst)
            red = reduce_schedule(ref.matrix, inst)
            tau_ref = completion_profile(ref, inst).makespan
            tau_red = completion_profile(red, inst).makespan
            if red.size > m or tau_red != tau_ref:
                bad.append((m, b, red.size, tau_red, tau_ref))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60
    _report(5, ok, f"every reference relay reduces to size <= m at unchanged makespan ({elapsed:.1f}s)")
    assert ok, bad


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    grid = [F(5, 4), F(3, 2), F(2), F(4)]
    budget = EnumerationBudget(max_agents=4, max_bikes=3)
    bad = []
    count = 0
    for m in range(1, 5):
        for b in range(0, min(m, 3) + 1):
            for vs in itertools.combinations_with_replacement(grid, b):
                count += 1
                us = tuple(sorted(1 / v for v in vs))
                inst = ProblemInstance(m, us)
                tau_star, _ = brute_force_bs(inst, budget)
                sched, _ = solve_bs(inst)
                if completion_profile(sched, inst).makespan != tau_star:
                    bad.append(("bs", m, us))
                relaxed = ProblemInstance(m, us, abandonment_limit=1)
                tau_star_r, _, _ = brute_force_rbs(relaxed, budget)
                sol = solve_rbs(relaxed)
                if completion_profile(sol.schedule, relaxed).makespan != tau_star_r:
                    bad.append(("rbs", m, us))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 600
    _report(6, ok, f"solvers match the brute-force optimum on all {count} grid instances ({elapsed:.0f}s)")
    assert ok, bad


def test_criterion_7_rbs_dispatch():
    corpus, solve_time = _rbs_corpus()
    start = time.perf_counter()
    bad = 0
    for inst, sol, prof in corpus:
        t_avg = average_bound(inst)
        if inst.bikes == 0 or inst.slowest <= t_avg:
            expected = t_avg
        else:
            t_one, _ = one_abandonment_bound(inst)
            expected = t_one if inst.inverse_speeds[-2] <= t_one else inst.inverse_speeds[-2]
        plain = ProblemInstance(inst.agents, inst.inverse_speeds)
        bs_sched, _ = solve_bs(plain)
        bs_tau = completion_profile(bs_sched, plain).makespan
        if (
            prof.makespan != expected
            or prof.makespan > bs_tau
            or not check_feasible(sol.schedule, inst).ok
        ):
            bad += 1
    elapsed = solve_time + time.perf_counter() - start
    ok = bad == 0 and elapsed < 30
    _report(7, ok, f"200 random relaxed solves dispatch to the exact tight bound, never above full delivery ({elapsed:.1f}s)")
    assert ok, f"{bad} failures, {elapsed:.1f}s"


def test_criterion_8_equal_arrivals_when_average_tight():
    bad = 0
    checked = 0
    for _inst, _sched, cert, prof in _bs_corpus()[0]:
        if cert.tight == TIGHT_AVERAGE:
            checked += 1
            if len(set(prof.final)) != 1:
                bad += 1
    for _inst, sol, prof in _rbs_corpus()[0]:
        if sol.certificate.tight in (TIGHT_AVERAGE, TIGHT_ONE_ABANDONED):
            checked += 1
            if len(set(prof.final)) != 1:
                bad += 1
    ok = bad == 0 and checked > 0
    _report(8, ok, f"all agents tie whenever an averaging bound is tagged tight ({checked} schedules)")
    assert ok


def test_criterion_9_wait_elimination():
    from bikesched import remove_all_waits

    rng = random.Random(909090)
    start = time.perf_counter()
    done = 0
    bad = 0
    for inst, sched, _cert, _prof in _bs_corpus()[0]:
        if done >= 100:
            break
        waits = [[F(0)] * sched.size for _ in range(sched.agents)]
        injected = F(0)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(sched.agents)
            j = rng.randrange(sched.size)
            w = F(rng.randint(1, 7), rng.randint(8, 40))
            waits[i][j] += w
            if check_feasible(
                Schedule(sched.partition, sched.matrix, tuple(tuple(r) for r in waits)),
                inst,
            ).ok:
                injected += w
            else:
                waits[i][j] -= w
        if injected == 0:
            i = rng.randrange(sched.agents)
            w = F(1, 9)
            waits[i][sched.size - 1] = w  # final column: always feasible
            injected = w
        done += 1
        noisy = Schedule(sched.partition, sched.matrix, tuple(tuple(r) for r in waits))
        before = completion_profile(noisy, inst)
        out = remove_all_waits(noisy, inst)
        after = completion_profile(out, inst)
        if (
            out.waits is not None
            or after.makespan > before.makespan
            or sum(after.final) != sum(before.final) - injected
            or not check_feasible(out, inst).ok
        ):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and done == 100 and elapsed < 30
    _report(9, ok, f"100 wait-injected schedules drained to zero waits, removed time exactly accounted ({elapsed:.1f}s)")
    assert ok, f"{bad} failures over {done} schedules, {elapsed:.1f}s"


def test_criterion_10_lp_vertex_contract():
    ok = _Audit.calls > 0
    _report(
        10,
        ok,
        f"every partition LP solve above returned an exact, basic feasible "
        f"solution ({_Audit.calls} audited calls)",
    )
    assert ok
