"""Every declared runtime dependency must be importable where the tests run,
and the solvers must answer the same under ``python -O``.

A dependency that cannot be installed leaves the code that needs it
untested and the fallback that replaces it unnoticed.  ``-O`` strips every
``assert``, so an assert with a side effect would change the answers, and
a contract check written as an assert would stop raising.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

if sys.version_info < (3, 11):
    pytest.skip("tomllib needs Python 3.11", allow_module_level=True)

import tomllib

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_declared_dependencies_import():
    with PYPROJECT.open("rb") as f:
        requirements = tomllib.load(f)["project"].get("dependencies", [])
    missing = []
    for requirement in requirements:
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0)
        try:
            importlib.import_module(name.replace("-", "_"))
        except ImportError:
            missing.append(requirement)
    assert not missing, f"declared but not importable: {missing}"


SMOKE = """
from fractions import Fraction as F
from dataclasses import replace
from bikesched import (
    ContractError, ProblemInstance, Schedule, ScheduleMatrix, brute_force_rbs,
    build_lp, completion_profile, reduce_schedule, relay_reference, relay_schedule,
    remove_all_waits, solve_bs, solve_partition, solve_rbs,
)
from bikesched.lp import _dual, _optimum, vertex_from_point
from bikesched.model import verify_answer


def raised(call):
    try:
        call()
    except ContractError as exc:
        return type(exc).__name__

relay = ScheduleMatrix(((1, 1, 0), (2, 0, 1), (0, 2, 2)))
pair = ProblemInstance(3, (F(1, 2), F(2, 3)))
x, tau = solve_partition(relay, pair)
start = ((x[0] + 1) / 2, x[1] / 2, x[2] / 2)
start_tau = completion_profile(Schedule(start, relay), pair).makespan
quad = ProblemInstance(4, (F(1, 3), F(2, 5)))
results = [
    solve_bs(quad),
    solve_rbs(ProblemInstance(3, (F(1, 2), F(9, 10)), abandonment_limit=1)),
    (x, tau),
    vertex_from_point(build_lp(relay, pair), start, start_tau),
    reduce_schedule(relay_reference(quad).matrix, quad),
    reduce_schedule(relay, pair, initial=x),  # within m at its first sweep
    relay_schedule(ProblemInstance(8, tuple([F(1, 3) + F(k, 40) for k in range(4)]))),
    # A 47-column top level against a 30-column window: a windowed slide.
    relay_schedule(ProblemInstance(12, tuple([F(1, 3) + F(k, 60) for k in range(6)]))),
    brute_force_rbs(ProblemInstance(2, (F(1, 2), F(4, 5)), abandonment_limit=1)),
    remove_all_waits(Schedule(
        (F(1, 2), F(1, 2)), ScheduleMatrix(((1, 2), (2, 0), (0, 1))),
        ((F(1, 4), F(0)), (F(0), F(0)), (F(0), F(0))),
    ), ProblemInstance(3, (F(1, 5), F(1, 2)))),
]
# Dual weights of an optimum with one weight perturbed fail their check.
lp = build_lp(relay, pair)
v, den, echelon = _optimum(lp)
echelon[0][-1][0] -= 1
results.append(raised(lambda: _dual(lp, echelon, v, den)))
sched, cert = results[0]
results.append(raised(
    lambda: verify_answer(sched, quad, replace(cert, value=cert.value + 1))
))
"""


def test_optimized_mode_gives_same_answers():
    namespace: dict = {}
    exec(SMOKE, namespace)
    src = str(Path(importlib.import_module("bikesched").__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = subprocess.run(
        [sys.executable, "-O", "-c", SMOKE + "print(__debug__)\nprint(repr(results))"],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout.splitlines()
    assert out == ["False", repr(namespace["results"])]
    assert namespace["results"][-1] == "ContractError"


def test_star_import_matches_all():
    namespace: dict = {}
    exec("from bikesched import *", namespace)
    names = importlib.import_module("bikesched").__all__
    assert len(names) == len(set(names))
    assert set(names) <= set(namespace)


def test_benchmark_runs_one_pass():
    # With --seconds 0 the benchmark makes its warm-up calls and one pass of
    # each declared workload, so every bikesched name that it uses gets
    # called and every answer goes through the benchmark's own checker.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    for workload in [w["name"] for w in declared]:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", "1", "--seconds", "0"],
            capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        summary = json.loads(out.stdout.splitlines()[-1])
        assert summary["correct"] is True, workload
        assert summary["failed"] == 0, workload
