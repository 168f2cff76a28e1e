import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bikesched.bs as bs
import bikesched.lp as lp_mod
import bikesched.normalize as nz
import bikesched.rbs as rbs
from bikesched import (
    ContractError,
    FeasibilityReport,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    StandardFormReport,
    average_bound,
    build_lp,
    check_feasible,
    completion_profile,
    is_standard_form,
    reduce_schedule,
    relay_reference,
    relay_schedule,
    remove_all_waits,
    solve_bs,
    solve_partition,
    solve_rbs,
    standardize,
)
from bikesched.model import _fractions, _integral, handovers
from conftest import random_full_matrix, random_instance

TWO_ONE = ProblemInstance(2, (F(1, 2),))


class TestStandardize:
    def test_zero_column_removed(self):
        sched = Schedule(
            (F(1, 2), F(0), F(1, 2)), ScheduleMatrix(((1, 1, 0), (0, 0, 1)))
        )
        out, report = standardize(sched, TWO_ONE)
        assert out.partition == (F(1, 2), F(1, 2))
        assert out.matrix.rows == ((1, 0), (0, 1))
        assert report.zero_columns_removed == 1
        assert report.redundant_columns_merged == 0

    def test_redundant_columns_merged(self):
        sched = Schedule(
            (F(1, 4), F(1, 4), F(1, 2)), ScheduleMatrix(((1, 1, 0), (0, 0, 1)))
        )
        out, report = standardize(sched, TWO_ONE)
        assert out.partition == (F(1, 2), F(1, 2))
        assert out.matrix.rows == ((1, 0), (0, 1))
        assert report.redundant_columns_merged == 1

    def test_swap_switch_resolved(self):
        # Equal-speed bikes crossing at the midpoint: both agents arrive
        # together, so the double handover is swapped away and the columns
        # collapse into one.
        inst = ProblemInstance(2, (F(1, 2), F(1, 2)))
        sched = Schedule((F(1, 2), F(1, 2)), ScheduleMatrix(((1, 2), (2, 1))))
        out, report = standardize(sched, inst)
        assert report.swap_switches_resolved >= 1
        assert out.matrix.rows == ((1,), (2,))
        assert out.partition == (F(1),)

    def test_preserves_completion_times(self, rng):
        for _ in range(15):
            inst = random_instance(rng, max_agents=5)
            matrix = random_full_matrix(rng, inst, rng.randint(1, 5))
            x, tau = solve_partition(matrix, inst)
            sched = Schedule(x, matrix)
            before = sorted(completion_profile(sched, inst).final)
            out, _ = standardize(sched, inst)
            after = sorted(completion_profile(out, inst).final)
            assert before == after
            assert check_feasible(out, inst).ok

    def test_sweep_reports_its_handovers(self, rng):
        # reduce_schedule builds each round's LP from them.
        import bikesched.normalize as nz

        merged = swapped = 0
        for _ in range(40):
            inst = random_instance(rng, max_agents=6)
            if inst.bikes and inst.slowest <= average_bound(inst):
                # Equal-time handovers, which the sweep swaps.
                ref = relay_reference(inst)
                matrix, x = ref.matrix, ref.partition
            else:
                matrix = random_full_matrix(rng, inst, rng.randint(1, 6))
                x, _ = solve_partition(matrix, inst)
            # Split one column in two, so that the sweep merges them again.
            j = rng.randrange(matrix.size)
            rows = tuple([row[: j + 1] + row[j:] for row in matrix.rows])
            lengths, _den = _integral(x[:j] + (x[j] / 2, x[j] / 2) + x[j + 1 :])
            _, out, report, _, switches = nz._sweep(lengths, rows, inst)
            assert switches == handovers(out)
            merged += report.redundant_columns_merged > 0
            swapped += report.swap_switches_resolved > 0
        assert merged and swapped

    def test_idempotent(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_agents=5)
            matrix = random_full_matrix(rng, inst, rng.randint(1, 5))
            x, _ = solve_partition(matrix, inst)
            once, _ = standardize(Schedule(x, matrix), inst)
            twice, report = standardize(once, inst)
            assert twice == once
            assert report == type(report)(0, 0, 0)

    def test_rejects_infeasible(self):
        sched = Schedule((F(1, 2), F(1, 2)), ScheduleMatrix(((0, 1), (0, 0))))
        with pytest.raises(ValueError):
            standardize(sched, TWO_ONE)

    def test_checks_feasibility_once(self, monkeypatch):
        # The input is checked; the output's handovers are checked in the
        # same pass that writes them.
        import bikesched.normalize as nz

        calls = []

        def spy(s, inst_, _real=nz.check_feasible):
            calls.append(s)
            return _real(s, inst_)

        monkeypatch.setattr(nz, "check_feasible", spy)
        sched = Schedule(
            (F(1, 2), F(0), F(1, 2)), ScheduleMatrix(((1, 1, 0), (0, 0, 1)))
        )
        standardize(sched, TWO_ONE)
        assert calls == [sched]

    def test_early_pickup_raises(self, monkeypatch):
        # A feasible wait-free schedule has no early pickup.  With the
        # feasibility check stubbed out, agent 1 reaches the midpoint at 1/6
        # and takes bike 2, which agent 2 only brings there at 1/4.
        import bikesched.normalize as nz

        monkeypatch.setattr(nz, "check_feasible", lambda s, inst_: FeasibilityReport(()))
        inst = ProblemInstance(2, (F(1, 3), F(1, 2)))
        sched = Schedule((F(1, 2), F(1, 2)), ScheduleMatrix(((1, 2), (2, 1))))
        with pytest.raises(ContractError, match="early"):
            standardize(sched, inst)

    def test_wait_fold_fault_raises(self):
        # Agent 1 waits 1/10 in the zero column after handing the bike over.
        # standardize takes no waits; the drain ignores the zero column's
        # wait, which no later pickup depends on.
        sched = Schedule(
            (F(1, 2), F(0), F(1, 2)),
            ScheduleMatrix(((1, 0, 0), (0, 1, 1))),
            ((F(1, 4), F(1, 10), F(0)), (F(0), F(0), F(0))),
        )
        assert check_feasible(sched, TWO_ONE).ok
        with pytest.raises(ValueError, match="waits"):
            standardize(sched, TWO_ONE)
        assert completion_profile(remove_all_waits(sched, TWO_ONE), TWO_ONE).makespan == F(3, 4)


    def test_zero_length_schedule_has_no_standard_form(self):
        sched = Schedule((F(0), F(0)), ScheduleMatrix(((1, 0), (0, 1))))
        assert check_feasible(sched, TWO_ONE).ok
        with pytest.raises(ValueError, match="no standard form"):
            standardize(sched, TWO_ONE)


class TestStandardForm:
    def test_standardize_output_is_standard(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_agents=4)
            matrix = random_full_matrix(rng, inst, rng.randint(1, 4))
            x, _ = solve_partition(matrix, inst)
            out, _ = standardize(Schedule(x, matrix), inst)
            assert is_standard_form(out, inst)

    def test_zero_column_not_standard(self):
        sched = Schedule((F(0), F(1)), ScheduleMatrix(((1, 1), (0, 0))))
        assert not is_standard_form(sched, TWO_ONE)

    def test_equal_time_handover_not_standard(self):
        inst = ProblemInstance(2, (F(1, 2), F(1, 2)))
        sched = Schedule((F(1, 2), F(1, 2)), ScheduleMatrix(((1, 2), (2, 1))))
        assert not is_standard_form(sched, inst)


class TestReduce:
    def test_reference_relay_reduces(self):
        inst = ProblemInstance(3, (F(1, 2), F(1, 2)))
        ref = relay_reference(inst)
        assert ref.size == 4
        red = reduce_schedule(ref.matrix, inst)
        assert red.size <= 3
        assert completion_profile(red, inst).makespan == F(2, 3)

    def test_single_column_unchanged(self):
        inst = ProblemInstance(2, (F(1, 3), F(1, 2)))
        red = reduce_schedule(ScheduleMatrix(((1,), (2,))), inst)
        assert red.matrix.rows == ((1,), (2,))

    def test_never_worse_than_input_lp(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_agents=5)
            matrix = random_full_matrix(rng, inst, rng.randint(1, 5))
            _, tau = solve_partition(matrix, inst)
            red = reduce_schedule(matrix, inst)
            assert red.size <= inst.agents
            assert is_standard_form(red, inst)
            assert check_feasible(red, inst).ok
            assert completion_profile(red, inst).makespan <= tau

    def test_cold_reduction_solves_one_lp(self, monkeypatch):
        import bikesched.normalize as nz

        inst = ProblemInstance(5, (F(1, 2), F(51, 100), F(52, 100)))
        ref = relay_reference(inst)
        calls = []

        def spy(matrix, inst_, _real=nz.solve_partition):
            calls.append(matrix)
            return _real(matrix, inst_)

        monkeypatch.setattr(nz, "solve_partition", spy)
        # That LP's optimum is trusted only once its dual weights check out.
        checked = []
        dual = lp_mod._dual
        monkeypatch.setattr(lp_mod, "_dual", lambda *a: checked.append(1) or dual(*a))
        red = reduce_schedule(ref.matrix, inst)
        assert len(calls) == 1 and len(checked) == 1
        assert red.size <= inst.agents
        assert completion_profile(red, inst).makespan == completion_profile(ref, inst).makespan

    def test_relay_reduction_slide_count(self, monkeypatch):
        # A slide that leaves tau put shrinks its free column, so that
        # column's own x >= 0 can block it: a zero column, which the next
        # sweep deletes, rather than an equal-time handover, whose repair
        # takes another round.  20 slides when a reduction stopped at its
        # first standard-form vertex, not at its first sweep within m columns;
        # 24 slides and 30 sweeps when each reduction ended with a slide that
        # did not move and a sweep that changed nothing, and level 1 was
        # reduced too; 30 slides when the column grew.
        import bikesched.normalize as nz

        inst = ProblemInstance(12, tuple([F(1, 3) + F(k, 60) for k in range(6)]))
        calls = []
        sweeps = []

        def spy(lp, v, den, fixed, _real=nz._slide):
            calls.append(lp.n)
            return _real(lp, v, den, fixed)

        def sweep_spy(x, rows, inst_, _real=nz._sweep):
            sweeps.append(len(x))
            return _real(x, rows, inst_)

        monkeypatch.setattr(nz, "_slide", spy)
        monkeypatch.setattr(nz, "_sweep", sweep_spy)
        red = relay_schedule(inst)
        assert len(calls) <= 18
        assert len(sweeps) <= 23
        assert red.size <= inst.agents
        assert completion_profile(red, inst).makespan == average_bound(inst)

    def test_within_m_at_first_sweep_does_not_slide(self, monkeypatch):
        # A sweep's output is in standard form, so an input whose first
        # sweep keeps at most m columns is the answer as swept: no slide.
        import bikesched.normalize as nz

        def refuse(*_args):
            raise AssertionError("_slide called")

        monkeypatch.setattr(nz, "_slide", refuse)
        relay = ScheduleMatrix(((1, 1, 0), (2, 0, 1), (0, 2, 2)))
        pair = ProblemInstance(3, (F(1, 2), F(2, 3)))
        x, tau = solve_partition(relay, pair)
        for initial in (None, x):
            red = reduce_schedule(relay, pair, initial=initial)
            assert red == Schedule(x, relay)
            assert completion_profile(red, pair).makespan == tau

    def test_stops_without_a_standard_form_check(self, monkeypatch):
        # The reducer's stop test is the swept column count: a sweep's output
        # is in standard form, so it never builds the extra completion
        # profile of is_standard_form.
        import bikesched.normalize as nz

        def refuse(*_args):
            raise AssertionError("is_standard_form called")

        monkeypatch.setattr(nz, "is_standard_form", refuse)
        inst = ProblemInstance(3, (F(1, 2), F(1, 2)))
        red = reduce_schedule(relay_reference(inst).matrix, inst)
        assert is_standard_form(red, inst)
        assert standardize(red, inst) == (red, StandardFormReport(0, 0, 0))

    def test_checks_feasibility_once_per_call(self, monkeypatch):
        # One integer arrival profile of the caller's input serves both its
        # feasibility check and the starting makespan; every vertex is
        # checked against its round's LP.
        import bikesched.normalize as nz

        calls = []

        def spy(s, inst_, _real=nz._arrivals):
            calls.append(s)
            return _real(s, inst_)

        monkeypatch.setattr(nz, "_arrivals", spy)
        inst = ProblemInstance(5, (F(1, 2), F(51, 100), F(52, 100)))
        red = reduce_schedule(relay_reference(inst).matrix, inst)
        assert len(calls) == 1
        assert red.size <= inst.agents

    def test_vertex_past_its_blocker_raises(self, monkeypatch):
        # A slide that steps as far again past the vertex it reached breaks
        # every constraint it hit on the way.  The reference relay has 6
        # columns for 4 agents, so the reduction slides.
        import bikesched.normalize as nz

        def overshoot(lp, v, den, fixed, _real=nz._slide):
            w, w_den = _real(lp, v, den, fixed)
            return [2 * a * den - b * w_den for a, b in zip(w, v)], den * w_den

        monkeypatch.setattr(nz, "_slide", overshoot)
        quad = ProblemInstance(4, (F(1, 3), F(2, 5)))
        ref = relay_reference(quad)
        assert ref.size == 6
        with pytest.raises(ContractError, match="feasible region"):
            reduce_schedule(ref.matrix, quad, initial=ref.partition)

    def test_warm_start_agrees(self, rng):
        for _ in range(5):
            inst = random_instance(rng, max_agents=4)
            matrix = random_full_matrix(rng, inst, rng.randint(1, 4))
            x, _ = solve_partition(matrix, inst)
            cold = reduce_schedule(matrix, inst)
            warm = reduce_schedule(matrix, inst, initial=x)
            assert (
                completion_profile(cold, inst).makespan
                == completion_profile(warm, inst).makespan
            )
            assert warm.size <= inst.agents

    def test_iteration_strictly_shrinks(self, rng, monkeypatch):
        # Every round's matrix must lower (columns, handovers)
        # lexicographically; run matrices 12 columns wider than their agent
        # count through and watch.  The start halfway between the LP vertex
        # and the final-column vertex is feasible but no vertex, so the
        # slides have work to do.
        import bikesched.normalize as nz

        seen = []

        def spy(matrix, inst_, switches, _real=nz._partition_lp):
            lp = _real(matrix, inst_, switches)
            seen.append((lp.n, len(lp.switches)))
            return lp

        monkeypatch.setattr(nz, "_partition_lp", spy)
        # Most reductions stop within m columns at their first or second
        # sweep, so draw until two took 2 rounds or more.
        several = 0
        for _ in range(500):
            if several == 2:
                break
            inst = random_instance(rng, min_agents=3, max_agents=6)
            if inst.bikes == 0:
                continue
            matrix = random_full_matrix(rng, inst, inst.agents + 12)
            x, _ = solve_partition(matrix, inst)
            start = x[:-1] + (x[-1] + 1,)
            seen.clear()
            reduce_schedule(matrix, inst, initial=tuple([v / 2 for v in start]))
            for a, b in zip(seen, seen[1:]):
                assert b < a
            several += len(seen) > 1
        assert several >= 2


def _window(m):
    """The widest round ``reduce_schedule`` slides in full at m agents."""
    return 5 * m // 2


def full_slide(lp, v, den, fixed=None):
    """``lp._slide`` over every handover row, implied ones included."""
    return lp_mod._walk(lp, *lp_mod._tight_echelon(lp, v, fixed), den)


def reference_reduce(matrix, inst, initial=None, windowed=True):
    """``reduce_schedule`` from public parts, with slides over every
    handover row: ``standardize`` (which checks each vertex's feasibility)
    until the schedule has at most m columns, with a full slide of each
    standardized schedule in between.  Unless ``windowed`` is false, a
    slide of more than floor(5m/2) columns holds the columns from there on
    fixed."""
    if initial is None:
        initial, _ = solve_partition(matrix, inst)
    s = Schedule(tuple(initial), matrix)
    while True:
        s, _ = standardize(s, inst)
        if s.size <= inst.agents:
            return s
        tau = completion_profile(s, inst).makespan
        fixed = min(s.size, _window(inst.agents)) if windowed else None
        v, v_den = full_slide(build_lp(s.matrix, inst), *_integral((*s.partition, tau)), fixed)
        s = Schedule(_fractions(v[:-1], v_den), s.matrix)


def _relay_part(inst):
    """The relay that ``solve_bs`` builds for ``inst``: one solo rider
    peeled off for each slowest bike that lags."""
    m, us = inst.agents, inst.inverse_speeds
    while us and us[-1] > average_bound(ProblemInstance(m, us)):
        m, us = m - 1, us[:-1]
    return ProblemInstance(m, us)


@st.composite
def _instances(draw, max_agents=10, limit=1):
    m = draw(st.integers(1, max_agents))
    us = []
    for _ in range(draw(st.integers(0, m))):
        q = draw(st.integers(2, 24))
        us.append(F(draw(st.integers(1, q - 1)), q))
    return ProblemInstance(m, tuple(sorted(us)), abandonment_limit=limit)


class TestEarlyExits:
    """``reduce_schedule`` returns the very Schedule of ``reference_reduce``,
    the same one stop rule, at the first sweep within m columns, built from
    public parts; and a slide over the blocking handover rows takes the
    steps of one over all."""

    @staticmethod
    def check_slides(monkeypatch):
        # Every slide the reduction makes agrees with the full slide.
        def checked(lp, v, den, fixed, _real=nz._slide):
            out = _real(lp, v, den, fixed)
            assert out == full_slide(lp, v, den, fixed)
            return out

        monkeypatch.setattr(nz, "_slide", checked)

    @settings(max_examples=80)
    @given(_instances())
    # A stop at every sweep of a vertex that only deleted zero columns,
    # whatever its column count, leaves 10 columns for 9 agents at the top
    # level here.
    @example(ProblemInstance(9, (F(1, 8), F(1, 5), F(1, 2)), abandonment_limit=1))
    def test_relay_levels_and_abandon_splices(self, inst):
        relay = _relay_part(inst)
        levels = bs._relay_levels(relay)
        for k in range(1, relay.bikes + 1):
            sub = relay.sub_instance(k)
            raw = bs._build_relay(sub, levels[:k])
            assert levels[k] == reference_reduce(raw.matrix, sub, raw.partition)
        seen = []

        def spy(matrix, sub, initial=None, _real=nz.reduce_schedule):
            out = _real(matrix, sub, initial)
            seen.append(out == reference_reduce(matrix, sub, initial))
            return out

        with pytest.MonkeyPatch.context() as mp:
            self.check_slides(mp)
            mp.setattr(bs, "reduce_schedule", spy)
            mp.setattr(rbs, "reduce_schedule", spy)
            solve_bs(ProblemInstance(inst.agents, inst.inverse_speeds))
            solve_rbs(inst)
        assert all(seen)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32))
    def test_random_full_matrices(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng, max_agents=5)
        # Most random matrices are within m columns at their first sweep and
        # never slide; 24 more columns than agents make some 1 in 8 slide.
        matrix = random_full_matrix(rng, inst, inst.agents + 24)
        x, _ = solve_partition(matrix, inst)
        # Halfway to the final-column vertex: feasible, but no vertex.
        half = tuple([(a + b) / 2 for a, b in zip(x, (F(0),) * (len(x) - 1) + (F(1),))])
        with pytest.MonkeyPatch.context() as mp:
            self.check_slides(mp)
            for initial in (None, x, half):
                out = reduce_schedule(matrix, inst, initial)
                assert out == reference_reduce(matrix, inst, initial)
            lp = build_lp(matrix, inst)
            tau = completion_profile(Schedule(half, matrix), inst).makespan
            assert lp_mod.vertex_from_point(lp, half, tau) == lp_mod._answer(
                *full_slide(lp, *_integral((*half, tau)))[:2]
            )


def _wide_matrix(rng, inst, n):
    """A full matrix on which n equal lengths are feasible: column by
    column, a bike goes on only to an agent who reaches the column no
    sooner than its last rider.  Bikes of the latest riders go first, so
    some agent is always left for each."""
    m, b = inst.agents, inst.bikes
    speed = (F(1),) + inst.inverse_speeds
    rider = rng.sample(range(m), b)
    reach = [F(0)] * m
    cols = []
    for _ in range(n):
        col = [0] * m
        for bike in sorted(range(b), key=lambda k: -reach[rider[k]]):
            last = reach[rider[bike]]
            rider[bike] = rng.choice([p for p in range(m) if not col[p] and reach[p] >= last])
            col[rider[bike]] = bike + 1
        cols.append(col)
        reach = [t + speed[label] for t, label in zip(reach, col)]
    return ScheduleMatrix(tuple(zip(*cols)))


class TestWindow:
    """A reduction round over more than floor(5m/2) columns slides with the
    columns from there on held at their lengths; narrower rounds and
    ``vertex_from_point`` hold none."""

    @staticmethod
    def watch(monkeypatch):
        # Every slide fixes exactly the columns from the window on, and
        # those keep their lengths; returns the (columns, fixed) of each.
        calls = []

        def spy(lp, v, den, fixed, _real=nz._slide):
            w, w_den = _real(lp, v, den, fixed)
            assert fixed == min(lp.n, _window(lp.agents))
            assert [a * w_den for a in v[fixed:-1]] == [a * den for a in w[fixed:-1]]
            calls.append((lp.n, fixed))
            return w, w_den

        monkeypatch.setattr(nz, "_slide", spy)
        return calls

    def test_relay_levels(self, monkeypatch):
        # relay-ladder's top rung: its 47-column top level meets a
        # 30-column window.  Every level ties at the average bound with and
        # without the window.
        inst = ProblemInstance(12, tuple([F(1, 3) + F(k, 60) for k in range(6)]))
        calls = self.watch(monkeypatch)
        levels = []

        def spy(matrix, sub, initial=None, _real=nz.reduce_schedule):
            out = _real(matrix, sub, initial)
            levels.append((out, reference_reduce(matrix, sub, initial, windowed=False), sub))
            return out

        monkeypatch.setattr(bs, "reduce_schedule", spy)
        red = relay_schedule(inst)
        assert any(n > fixed for n, fixed in calls)
        assert any(n == fixed for n, fixed in calls)
        for out, full, sub in levels:
            assert out.size <= sub.agents
            assert completion_profile(out, sub).makespan == completion_profile(full, sub).makespan
        assert red.size <= inst.agents
        assert completion_profile(red, inst).makespan == average_bound(inst)

    def test_random_wide_matrices(self, rng, monkeypatch):
        # From n equal lengths, which are feasible but no vertex, the
        # reduction matches its reference from public parts, window
        # included; draw until four reductions took a windowed slide.
        windowed = 0
        for _ in range(200):
            if windowed == 4:
                break
            inst = random_instance(rng, min_agents=2, max_agents=5)
            if inst.bikes == 0:
                continue
            n = _window(inst.agents) + 12
            matrix = _wide_matrix(rng, inst, n)
            start = (F(1, n),) * n
            tau = completion_profile(Schedule(start, matrix), inst).makespan
            with pytest.MonkeyPatch.context() as mp:
                calls = self.watch(mp)
                out = reduce_schedule(matrix, inst, start)
            assert out == reference_reduce(matrix, inst, start)
            assert out.size <= inst.agents
            assert is_standard_form(out, inst)
            assert completion_profile(out, inst).makespan <= tau
            windowed += any(n > fixed for n, fixed in calls)
        assert windowed == 4

    def test_vertex_from_point_fixes_nothing(self, rng):
        # A wide LP's point slides to a vertex of the whole LP.
        checked = 0
        while checked < 5:
            inst = random_instance(rng, min_agents=2, max_agents=5)
            if inst.bikes == 0:
                continue
            n = _window(inst.agents) + 12
            matrix = _wide_matrix(rng, inst, n)
            start = (F(1, n),) * n
            lp = build_lp(matrix, inst)
            tau = completion_profile(Schedule(start, matrix), inst).makespan
            x, t = lp_mod.vertex_from_point(lp, start, tau)
            assert lp_mod.is_vertex(lp, x, t)
            assert t <= tau
            checked += 1
