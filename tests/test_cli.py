import json
import math
import time
from fractions import Fraction as F

import pytest

from bikesched import ContractError, ProblemInstance, Schedule, ScheduleMatrix
from bikesched.cli import main
from bikesched.lp import LPContractError
from bikesched.rational import format_fraction
from bikesched.serialize import (
    dump_schedule,
    parse_problem,
    parse_schedule,
    schedule_payload,
)
from conftest import fraction_arrivals, reference_reading


def write_json(path, payload):
    path.write_text(json.dumps(payload))


@pytest.fixture
def problem_bs(tmp_path):
    p = tmp_path / "bs.json"
    write_json(p, {"agents": 2, "speeds": ["2"], "mode": "bs"})
    return p


@pytest.fixture
def problem_rbs(tmp_path):
    p = tmp_path / "rbs.json"
    write_json(
        p,
        {"agents": 3, "speeds": ["2", "5/4"], "mode": "rbs", "abandonment_limit": 1},
    )
    return p



@pytest.fixture
def problem_rbs_default(tmp_path):
    """The relaxed problem with no abandonment limit in the file (0)."""
    p = tmp_path / "rbs_default.json"
    write_json(p, {"agents": 3, "speeds": ["2", "5/4"], "mode": "rbs"})
    return p


class TestParsing:
    def test_speeds_become_inverse(self):
        inst, mode = parse_problem({"agents": 2, "speeds": ["2", "1.25"]})
        assert inst.inverse_speeds == (F(1, 2), F(4, 5))
        assert mode == "bs"

    def test_decimal_is_exact(self):
        inst, _ = parse_problem({"agents": 1, "speeds": ["1.25"]})
        assert inst.inverse_speeds == (F(4, 5),)

    @pytest.mark.parametrize(
        "data",
        [
            {"agents": 2},
            {"speeds": []},
            {"agents": 2, "speeds": ["1"]},
            {"agents": 2, "speeds": ["1/2"]},
            {"agents": "2", "speeds": []},
            {"agents": 2, "speeds": [], "mode": "nope"},
            {"agents": 1, "speeds": ["2", "3"]},
        ],
    )
    def test_bad_problems_rejected(self, data):
        with pytest.raises(ValueError):
            parse_problem(data)

    def test_schedule_round_trip(self):
        sched = Schedule(
            (F(1, 2), F(1, 2)),
            ScheduleMatrix(((1, 0), (0, 1))),
            ((F(1, 10), F(0)), (F(0), F(0))),
        )
        payload = schedule_payload(sched)
        again = parse_schedule(json.loads(dump_schedule(payload)))
        assert again == sched


class TestSolveCommand:
    def test_bs_solve(self, problem_bs, tmp_path, capsys):
        out = tmp_path / "sched.json"
        assert main(["solve", "--in", str(problem_bs), "--out", str(out)]) == 0
        assert "makespan 3/4" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["makespan"] == "3/4"
        assert data["partition"] == ["1/2", "1/2"]

    def test_rbs_solve(self, problem_rbs, tmp_path, capsys):
        out = tmp_path / "sched.json"
        assert main(["solve", "--in", str(problem_rbs), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "makespan 17/22" in printed
        assert "bike 2 abandoned at 10/11" in printed
        data = json.loads(out.read_text())
        assert data["abandonment"]["abandoned"] == [[2, "10/11"]]

    def test_mode_flag_overrides_the_file(self, problem_rbs_default, tmp_path, capsys):
        out = tmp_path / "sched.json"
        args = ["solve", "--in", str(problem_rbs_default), "--out", str(out), "--mode", "bs"]
        assert main(args) == 0
        assert "makespan 4/5 (tight bound: slowest-bike)" in capsys.readouterr().out

    def test_abandon_flag_overrides_the_file(self, problem_rbs_default, tmp_path):
        out = tmp_path / "sched.json"
        args = ["solve", "--in", str(problem_rbs_default), "--out", str(out), "--abandon", "2"]
        assert main(args) == 3

    def test_parse_error_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        write_json(p, {"agents": 2, "speeds": ["1"]})
        assert main(["solve", "--in", str(p), "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("agents", True), ("abandonment_limit", False), ("abandonment_limit", True)],
    )
    def test_bool_for_an_integer_exit_2(self, tmp_path, capsys, field, value):
        p = tmp_path / "bool.json"
        write_json(p, {"agents": 2, "speeds": ["2"], "mode": "rbs"} | {field: value})
        assert main(["solve", "--in", str(p), "--out", str(tmp_path / "x.json")]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    def test_infinite_speed_exit_2(self, tmp_path):
        p = tmp_path / "inf.json"
        write_json(p, {"agents": 2, "speeds": ["Infinity"], "mode": "bs"})
        assert main(["solve", "--in", str(p), "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("speed", ["1e-2000000", "0." + "1" * 100000])
    def test_oversized_decimal_speed_exit_2(self, tmp_path, capsys, speed):
        p = tmp_path / "huge.json"
        write_json(p, {"agents": 2, "speeds": [speed], "mode": "bs"})
        assert main(["solve", "--in", str(p), "--out", str(tmp_path / "x.json")]) == 2
        assert "digits" in capsys.readouterr().err

    def test_unsupported_limit_exit_3(self, tmp_path):
        p = tmp_path / "l2.json"
        write_json(
            p,
            {"agents": 3, "speeds": ["2", "5/4"], "mode": "rbs", "abandonment_limit": 2},
        )
        assert main(["solve", "--in", str(p), "--out", str(tmp_path / "x.json")]) == 3

    def test_contract_failure_exit_4(self, problem_bs, tmp_path, monkeypatch, capsys):
        def broken(inst):
            raise ContractError("solver broke a guarantee")

        monkeypatch.setattr("bikesched.cli.solve_bs", broken)
        out = tmp_path / "x.json"
        assert main(["solve", "--in", str(problem_bs), "--out", str(out)]) == 4
        assert not out.exists()
        assert "solver broke a guarantee" in capsys.readouterr().err

    def test_oracle_contract_failure_exit_4(self, problem_rbs, monkeypatch, capsys):
        def broken(inst, budget):
            raise LPContractError("the dual weights at the optimum do not certify it")

        monkeypatch.setattr("bikesched.cli.brute_force_rbs", broken)
        assert main(["oracle", "--in", str(problem_rbs)]) == 4
        err = capsys.readouterr().err
        assert "internal check failed: the dual weights" in err

    def test_solution_verifies(self, problem_rbs, tmp_path):
        out = tmp_path / "sched.json"
        main(["solve", "--in", str(problem_rbs), "--out", str(out)])
        assert main(["verify", "--schedule", str(out), "--problem", str(problem_rbs)]) == 0


class TestVerifyCommand:
    def test_corrupted_matrix_detected(self, problem_bs, tmp_path, capsys):
        out = tmp_path / "sched.json"
        main(["solve", "--in", str(problem_bs), "--out", str(out)])
        data = json.loads(out.read_text())
        data["matrix"] = [[0, 1], [0, 0]]  # bike appears out of nowhere
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", "--schedule", str(bad), "--problem", str(problem_bs)]) == 1
        assert "condition" in capsys.readouterr().out

    def test_equal_time_swap_noted_as_non_standard(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        write_json(p, {"agents": 2, "speeds": ["2", "2"], "mode": "bs"})
        sched = tmp_path / "s.json"
        write_json(
            sched,
            {"partition": ["1/2", "1/2"], "matrix": [[1, 2], [2, 1]], "waits": None},
        )
        assert main(["verify", "--schedule", str(sched), "--problem", str(p)]) == 0
        printed = capsys.readouterr().out
        assert "feasible" in printed
        assert "not in standard form" in printed

    def test_one_arrival_profile_per_verify(self, problem_rbs, tmp_path, monkeypatch, capsys):
        import bikesched.cli as cli
        import bikesched.model as model
        import bikesched.normalize as nz

        out = tmp_path / "sched.json"
        main(["solve", "--in", str(problem_rbs), "--out", str(out)])
        capsys.readouterr()
        calls = []

        def spy(s, inst, _real=model._arrivals):
            calls.append(s)
            return _real(s, inst)

        for module in (model, nz, cli):
            monkeypatch.setattr(module, "_arrivals", spy, raising=False)
        assert main(["verify", "--schedule", str(out), "--problem", str(problem_rbs)]) == 0
        assert capsys.readouterr().out.startswith("feasible; makespan ")
        assert len(calls) == 1

    @pytest.mark.parametrize("legs", ["growing", "shrinking"])
    def test_dozens_of_large_prime_denominators(self, tmp_path, capsys, legs):
        # Two agents relay one bike over 48 columns of length 1/p, for
        # distinct primes p just above 10^9, then a last column of the rest.
        # Each column's walker takes the bike at the next column's start,
        # which is on time while the legs do not shrink.  The verdict, exit
        # code and printed lines match a Fraction reference, within a fixed
        # time budget.
        primes = []
        p = 10**9
        while len(primes) < 48:
            p += 1
            if all(p % d for d in range(2, math.isqrt(p) + 1)):
                primes.append(p)
        if legs == "growing":
            primes.reverse()
        head = [F(1, p) for p in primes]
        partition = (*head, 1 - sum(head))
        matrix = ScheduleMatrix(
            (tuple((j + 1) % 2 for j in range(49)), tuple(j % 2 for j in range(49)))
        )
        sched = Schedule(partition, matrix)
        inst = ProblemInstance(2, (F(500000009, 1000000007),))
        problem = tmp_path / "p.json"
        write_json(problem, {"agents": 2, "speeds": ["1000000007/500000009"], "mode": "bs"})
        path = tmp_path / "s.json"
        path.write_text(dump_schedule(schedule_payload(sched)))

        _handovers, violations = reference_reading(sched, inst)
        assert bool(violations) == (legs == "shrinking")
        start = time.perf_counter()
        code = main(["verify", "--schedule", str(path), "--problem", str(problem)])
        assert time.perf_counter() - start < 5
        printed = capsys.readouterr().out
        if violations:
            assert code == 1
            assert printed.splitlines() == [
                f"violation of condition {c} at agent {a}, column {j}" for c, a, j in violations
            ]
        else:
            assert code == 0
            makespan = max(row[-1] for row in fraction_arrivals(sched, inst))
            assert printed.splitlines()[0] == f"feasible; makespan {format_fraction(makespan)}"

    def test_infinite_partition_exit_2(self, problem_bs, tmp_path):
        sched = tmp_path / "s.json"
        write_json(sched, {"partition": ["inf"], "matrix": [[1], [0]], "waits": None})
        assert main(["verify", "--schedule", str(sched), "--problem", str(problem_bs)]) == 2

    @pytest.mark.parametrize(
        "partition, matrix, total",
        [(["1/4", "1/4"], [[1, 0], [0, 1]], "1/2"), (["0"], [[1], [0]], "0")],
    )
    def test_partition_not_covering_the_interval_exit_2(
        self, problem_bs, tmp_path, capsys, partition, matrix, total
    ):
        sched = tmp_path / "s.json"
        write_json(sched, {"partition": partition, "matrix": matrix, "waits": None})
        assert main(["verify", "--schedule", str(sched), "--problem", str(problem_bs)]) == 2
        captured = capsys.readouterr()
        assert f"partition sums to {total}" in captured.err
        assert "feasible" not in captured.out

    def test_bool_label_exit_2(self, tmp_path, capsys):
        # A JSON true is not bike label 1.
        problem = tmp_path / "p.json"
        write_json(problem, {"agents": 2, "speeds": ["2"], "mode": "bs"})
        sched = tmp_path / "s.json"
        write_json(sched, {"partition": ["1/2", "1/2"], "matrix": [[True, 0], [0, 1]]})
        assert main(["verify", "--schedule", str(sched), "--problem", str(problem)]) == 2
        captured = capsys.readouterr()
        assert "matrix" in captured.err and "feasible" not in captured.out

    def test_parse_failure_exit_2(self, problem_bs, tmp_path):
        bad = tmp_path / "nonsense.json"
        bad.write_text("{not json")
        assert main(["verify", "--schedule", str(bad), "--problem", str(problem_bs)]) == 2

    @pytest.mark.parametrize(
        "field",
        [
            {"partition": 5},
            {"matrix": 5},
            {"matrix": [[1], 0]},
            {"waits": 5},
            {"waits": [["0"], 0]},
        ],
        ids=["partition", "matrix", "matrix-row", "waits", "waits-row"],
    )
    def test_non_list_field_exit_2(self, problem_bs, tmp_path, field):
        sched = tmp_path / "s.json"
        write_json(sched, {"partition": ["1"], "matrix": [[1], [0]], "waits": None} | field)
        assert main(["verify", "--schedule", str(sched), "--problem", str(problem_bs)]) == 2
        assert main(["render", "--schedule", str(sched), "--out", str(tmp_path / "s.svg")]) == 2

    @pytest.mark.parametrize(
        "field",
        [
            {"partition": [0.5]},
            {"partition": ["x"]},
            {"partition": [None]},
            {"matrix": [["1"], [0]]},
            {"matrix": [[1.0], [0]]},
            {"matrix": [[-1], [0]]},
            {"matrix": []},
            {"waits": [[0.5], ["0"]]},
            {"waits": [["0.1.2"], ["0"]]},
        ],
        ids=[
            "partition-float", "partition-text", "partition-null", "label-text",
            "label-float", "label-negative", "matrix-empty", "wait-float", "wait-text",
        ],
    )
    def test_bad_entry_exit_2(self, problem_bs, tmp_path, field):
        sched = tmp_path / "s.json"
        write_json(sched, {"partition": ["1"], "matrix": [[1], [0]], "waits": None} | field)
        assert main(["verify", "--schedule", str(sched), "--problem", str(problem_bs)]) == 2
        assert main(["render", "--schedule", str(sched), "--out", str(tmp_path / "s.svg")]) == 2


class TestRenderCommand:
    def test_deterministic_svg(self, problem_rbs, tmp_path):
        out = tmp_path / "sched.json"
        main(["solve", "--in", str(problem_rbs), "--out", str(out)])
        svg1 = tmp_path / "a.svg"
        svg2 = tmp_path / "b.svg"
        assert main(["render", "--schedule", str(out), "--out", str(svg1)]) == 0
        assert main(["render", "--schedule", str(out), "--out", str(svg2)]) == 0
        assert svg1.read_bytes() == svg2.read_bytes()
        body = svg1.read_text()
        assert "bike 1" in body
        assert "bike 2 left" in body  # abandonment marker

    def test_walkers_render(self, tmp_path):
        sched = tmp_path / "s.json"
        write_json(sched, {"partition": ["1"], "matrix": [[0], [0]], "waits": None})
        out = tmp_path / "walk.svg"
        assert main(["render", "--schedule", str(sched), "--out", str(out)]) == 0
        assert "walk" in out.read_text()

    def test_waits_hatch(self, tmp_path):
        sched = tmp_path / "s.json"
        write_json(
            sched,
            {
                "partition": ["1/2", "1/2"],
                "matrix": [[1, 0], [0, 1]],
                "waits": [["1/10", "0"], ["0", "0"]],
            },
        )
        out = tmp_path / "wait.svg"
        assert main(["render", "--schedule", str(sched), "--out", str(out)]) == 0
        assert 'url(#wait)' in out.read_text()

    def test_huge_wait_clamped(self, tmp_path):
        # 1e400 has no float; the hatch is as wide as the widest drawn wait.
        for wait, name in (("1e400", "huge"), ("1/10", "wide")):
            sched = tmp_path / f"{name}.json"
            write_json(
                sched,
                {"partition": ["1"], "matrix": [[1], [0]], "waits": [[wait], ["0"]]},
            )
            out = tmp_path / f"{name}.svg"
            assert main(["render", "--schedule", str(sched), "--out", str(out)]) == 0
        assert (tmp_path / "huge.svg").read_bytes() == (tmp_path / "wide.svg").read_bytes()


class TestOracleCommand:
    def test_oracle_rbs(self, problem_rbs, capsys):
        assert main(["oracle", "--in", str(problem_rbs)]) == 0
        printed = capsys.readouterr().out
        assert "optimal makespan 17/22" in printed
        assert "bike 2 abandoned at 10/11" in printed

    def test_oracle_full_delivery_by_flag(self, problem_rbs_default, capsys):
        assert main(["oracle", "--in", str(problem_rbs_default), "--mode", "bs"]) == 0
        printed = capsys.readouterr().out
        assert "optimal makespan 4/5" in printed
        assert "abandoned" not in printed

    def test_abandon_flag_overrides_the_file(self, problem_rbs_default, capsys):
        assert main(["oracle", "--in", str(problem_rbs_default), "--abandon", "1"]) == 0
        printed = capsys.readouterr().out
        assert "optimal makespan 17/22" in printed
        assert "bike 2 abandoned at 10/11" in printed

    def test_budget_env(self, problem_rbs, monkeypatch, capsys):
        monkeypatch.setenv("BIKESCHED_ORACLE_MAX_AGENTS", "2")
        assert main(["oracle", "--in", str(problem_rbs)]) == 3

    @pytest.mark.parametrize("columns", ["0", "-1"])
    def test_empty_column_budget_exit_2(self, problem_rbs, monkeypatch, capsys, columns):
        monkeypatch.setenv("BIKESCHED_ORACLE_MAX_COLUMNS", columns)
        assert main(["oracle", "--in", str(problem_rbs)]) == 2
        assert "at least one column" in capsys.readouterr().err
