from fractions import Fraction as F

import pytest

from bikesched import (
    BudgetExceededError,
    EnumerationBudget,
    ProblemInstance,
    brute_force_bs,
    brute_force_rbs,
    check_feasible,
    completion_profile,
)


class TestBruteForceBs:
    @pytest.mark.parametrize(
        "m, us, expected",
        [
            (2, (F(1, 2),), F(3, 4)),
            (2, (F(1, 3), F(1, 2)), F(1, 2)),
            (3, (F(1, 2), F(1, 2)), F(2, 3)),
        ],
    )
    def test_known_optima(self, m, us, expected):
        tau, witness = brute_force_bs(ProblemInstance(m, us))
        assert tau == expected
        inst = ProblemInstance(m, us)
        assert check_feasible(witness, inst).ok
        assert completion_profile(witness, inst).makespan == tau
        assert witness.matrix.bikes_in_final_column() == frozenset(
            range(1, len(us) + 1)
        )

    def test_budget_enforced(self):
        inst = ProblemInstance(5, (F(1, 2),))
        with pytest.raises(BudgetExceededError):
            brute_force_bs(inst, EnumerationBudget(max_agents=4))

    def test_extra_columns_never_help(self):
        for m, us in [(2, (F(1, 2),)), (3, (F(1, 3), F(1, 2))), (2, (F(2, 3), F(3, 4)))]:
            inst = ProblemInstance(m, us)
            base, _ = brute_force_bs(inst)
            wide, _ = brute_force_bs(
                inst, EnumerationBudget(max_columns=2 * m, prune=False)
            )
            assert wide == base


class TestBruteForceRbs:
    @pytest.mark.parametrize(
        "m, us, expected",
        [
            (2, (F(1, 3), F(1, 2)), F(7, 15)),
            (3, (F(1, 2), F(4, 5)), F(17, 22)),
        ],
    )
    def test_known_optima(self, m, us, expected):
        inst = ProblemInstance(m, us, abandonment_limit=1)
        tau, witness, usage = brute_force_rbs(inst)
        assert tau == expected
        assert check_feasible(witness, inst).ok
        assert sum(1 for y in usage if y < 1) <= 1

    def test_limit_zero_matches_bs(self):
        inst = ProblemInstance(3, (F(1, 2), F(3, 4)))
        tau_bs, _ = brute_force_bs(inst)
        tau_rbs, _, _ = brute_force_rbs(inst, abandon_limit=0)
        assert tau_bs == tau_rbs

    def test_limit_two_explores_more(self):
        # Two slow bikes and one fast one: retiring both laggards beats
        # retiring one.
        inst = ProblemInstance(3, (F(1, 4), F(9, 10), F(19, 20)))
        one, _, _ = brute_force_rbs(inst, abandon_limit=1)
        two, _, usage = brute_force_rbs(inst, abandon_limit=2)
        assert two <= one
        assert sum(1 for y in usage if y < 1) <= 2


class TestPruning:
    def test_pruned_equals_exhaustive(self):
        grid = [F(4, 5), F(1, 2), F(2, 3)]
        cases = []
        for m in (2, 3):
            for us in [(), (grid[0],), (grid[1],), (grid[0], grid[1]), (grid[1], grid[2])]:
                if len(us) <= m:
                    cases.append((m, tuple(sorted(us))))
        for m, us in cases:
            inst = ProblemInstance(m, us, abandonment_limit=1)
            fast = EnumerationBudget(prune=True)
            slow = EnumerationBudget(prune=False)
            assert brute_force_bs(inst, fast)[0] == brute_force_bs(inst, slow)[0]
            assert (
                brute_force_rbs(inst, fast)[0] == brute_force_rbs(inst, slow)[0]
            )

    def test_family_bound_is_lowest_column_average(self):
        # Each family's bound is the larger of its final-column bikes' u_k
        # and the lowest column average over all of its columns.
        from bikesched.oracle import _column_average, _families

        grid = [F(4, 5), F(1, 2), F(2, 3), F(1, 4)]
        for m in (1, 2, 3, 4):
            for b in range(min(m, 3) + 1):
                inst = ProblemInstance(m, tuple(sorted(grid[:b])))
                for family in _families(inst, 2, m):
                    retired = dict(family.prefixes)
                    lowest = min(
                        _column_average(inst, tuple(
                            k for k in range(1, b + 1) if retired.get(k, c + 1) > c
                        ))
                        for c in range(family.n)
                    )
                    final = max(
                        (inst.inverse_speeds[k - 1] for k in range(1, b + 1) if k not in retired),
                        default=F(0),
                    )
                    assert family.bound == max(lowest, final)
