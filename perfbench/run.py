"""bikesched benchmark: one closed-loop caller, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports ``bikesched`` from the checkout's ``src/``, makes the workload's
inputs from the seed, and repeats whole passes over them for about S seconds
(always at least one).  Every result is checked by ``checker`` against the
paper's closed forms.  Human-readable lines go to standard output first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, their times scaled
to a fixed machine speed by ``SpeedProbe``.  With ``--trace 1``
untraced and traced passes alternate; the traced ones give the per-layer
split, and the spans are written to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
TAIL_MIN_SAMPLES = 40
# Calls are timed in the thread's CPU time, so that time the process spends
# descheduled does not count.  Machine speed: while untraced passes and
# set-ups run, a SIGPROF handler times the reference loop every
# PROBE_PERIOD_S of CPU time.  A call's time is scaled by REF_SECONDS over the
# mean of the samples taken during it and within PROBE_WINDOW_S either side.
REF_SECONDS = 0.0005
PROBE_PERIOD_S = 0.01
PROBE_WINDOW_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "m_exponent": "1",
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name == "lp.denominator_bits.max":
        return "bits"
    return "count"


def reference_loop():
    """Fixed pure-Python rational arithmetic, the machine-speed yardstick."""
    s = Fraction(0)
    for k in range(1, 120):
        s += Fraction(1, k) * Fraction(k + 1, k + 2)
    return s


class SpeedProbe:
    """Samples the machine's speed by timing ``reference_loop`` from a
    SIGPROF handler, which Python runs in this thread between bytecodes, so
    the samples fall inside long calls too and their time can be taken out
    of the calls' time.  All times are ``thread_time``, the CPU time of the
    benchmark's one thread."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, _signum, _frame) -> None:
        start = thread_time()
        reference_loop()
        self.starts.append(start)
        self.durations.append(thread_time() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def own_time(self, start: float, end: float) -> float:
        """CPU time of [start, end] less the samples taken inside it."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """``own_time`` on a machine where the reference loop takes REF_SECONDS."""
        lo = bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect_left(self.starts, end + PROBE_WINDOW_S)
        return self.own_time(start, end) * REF_SECONDS / statistics.fmean(self.durations[lo:hi])


class Runner:
    """Performs one operation: the timed call into bikesched, then its check.

    A call that raises counts as failed; a result the checker rejects makes
    the run incorrect.  Per-operation call times are kept by pass.
    """

    def __init__(self) -> None:
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: dict[str, str] = {}
        self.ops: list[tuple[str, int, bool]] = []
        self.spans: list[list] = []  # by pass: (start, end) of each call, None if it failed

    def start_pass(self, tracer) -> None:
        self.tracer = tracer
        self.spans.append([])

    def __call__(self, kind, m, call, check, latency=True):
        self._record(kind, m, latency)
        tracer = self.tracer
        start = thread_time()
        try:
            result = tracer.span("bench.op", call) if tracer else call()
        except Exception:  # a failed operation is counted, and the run goes on
            self.failed += 1
            self.errors.setdefault(kind, traceback.format_exc())
            self.spans[-1].append(None)
            return None
        self.spans[-1].append((start, thread_time()))
        problems = tracer.span("bench.check", check, result) if tracer else check(result)
        if problems:
            self.problems.append(f"{kind} m={m}: {'; '.join(problems)}")
        return result

    def skip(self, kind, m, latency=True) -> None:
        """An operation that cannot run because the one it needs failed."""
        self._record(kind, m, latency)
        self.failed += 1
        self.spans[-1].append(None)

    def times(self, measure) -> list[list]:
        """Each call's time, by pass, as ``measure(start, end)`` gives it."""
        return [[None if s is None else measure(*s) for s in row] for row in self.spans]

    def _record(self, kind, m, latency) -> None:
        self.attempted += 1
        if len(self.spans) == 1:
            self.ops.append((kind, m, latency))


def op_medians(runner: Runner, times, passes: list[int]) -> list[tuple[int, float]]:
    """(m, median call time over ``passes``) for each latency operation."""
    out = []
    for k, (_kind, m, latency) in enumerate(runner.ops):
        samples = [times[p][k] for p in passes if times[p][k] is not None]
        if latency and samples:
            out.append((m, statistics.median(samples)))
    return out


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of y against x."""
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def end_to_end(runner, call_times, passes, setup_times) -> tuple[dict, str]:
    medians = op_medians(runner, call_times, passes)
    pass_times = [sum(t for t in call_times[p] if t is not None) for p in passes]
    by_m: dict[int, float] = {}
    for m, t in medians:
        by_m[m] = by_m.get(m, 0.0) + t
    times = sorted(t for _, t in medians)
    n = len(times)
    if n >= TAIL_MIN_SAMPLES:
        tail, label = times[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.1f}"
    else:
        tail, label = times[-1], "max"
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_times),
        "m_exponent": slope([(math.log(m), math.log(t)) for m, t in by_m.items()]),
        "solve_p50_ms": 1000 * statistics.median(times),
        "solve_tail_ms": 1000 * tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = (
        f"# latency: {n} timed operations per pass, median over {len(passes)} "
        f"passes each; tail = {label}; m_exponent over m = {sorted(by_m)}"
    )
    return metrics, note


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def import_bikesched():
    """A fresh import of bikesched, so that every set-up pays for it."""
    for key in [k for k in sys.modules if k == "bikesched" or k.startswith("bikesched.")]:
        del sys.modules[key]
    return importlib.import_module("bikesched")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "bikesched" / "__init__.py").is_file():
        print(f"bikesched sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tracing
    from workloads import WORKLOADS, warm_up

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    # The probe runs only for end-to-end figures; a traced run keeps its
    # spans free of it.
    probe = None if args.trace else SpeedProbe()
    with probe or contextlib.nullcontext():
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            start = thread_time()
            B = import_bikesched()
            work = WORKLOADS[args.workload](args.seed, B)
            warm_up(B)
            setup_spans.append((start, thread_time()))

        print(
            f"# nproc={os.cpu_count()} cpu={cpu_model()!r} "
            f"python={platform.python_version()} "
            f"backend={B.lp._Q.__module__}.{B.lp._Q.__qualname__} "
            f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace}"
        )

        runner = Runner()
        tracer = tracing.Tracer()
        plain_passes, plain_walls = [], []
        layer_rows = []
        measure_start = perf_counter()
        rounds = 0
        while True:
            round_start = perf_counter()
            # A traced run alternates which kind of pass goes first in a round.
            order = ((False, True), (True, False))[rounds % 2] if args.trace else (False,)
            for traced in order:
                runner.start_pass(tracer if traced else None)
                first = len(tracer.spans)
                if traced:
                    tracer.install()
                try:
                    start = perf_counter()
                    work.run_pass(runner)
                    wall = perf_counter() - start
                finally:
                    tracer.uninstall()
                if traced:
                    row = tracing.layer_metrics(tracer.spans, first, len(tracer.spans))
                    row["trace.wall_s"] = wall
                    row["trace.span_share"] = row.pop("trace.root_s") / wall
                    layer_rows.append(row)
                else:
                    plain_walls.append(wall)
                    plain_passes.append(len(runner.spans) - 1)
            rounds += 1
            now = perf_counter()
            if now - measure_start + (now - round_start) > args.seconds:
                break

    for kind, text in runner.errors.items():
        print(f"# first failure of {kind}:\n{text}", file=sys.stderr)
    for problem in runner.problems[:20]:
        print(f"# WRONG {problem}", file=sys.stderr)
    print(f"# pass walls (s): untraced {[round(t, 3) for t in plain_walls]}"
          + (f", traced {[round(r['trace.wall_s'], 3) for r in layer_rows]}"
             if args.trace else ""))
    print(
        f"# {args.workload}: {len(runner.spans)} passes, "
        f"{runner.attempted} operations attempted, {runner.failed} failed, "
        f"{len(runner.problems)} wrong"
    )

    if args.trace:
        metrics = {
            key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]
        }
        metrics["trace.untraced_wall_s"] = statistics.median(plain_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(out)
        print(f"# {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
        units = {key: per_layer_unit(key) for key in metrics}
    else:
        unscaled, _ = end_to_end(
            runner, runner.times(probe.own_time), plain_passes,
            [probe.own_time(*span) for span in setup_spans],
        )
        print("# unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in unscaled.items()))
        metrics, note = end_to_end(
            runner, runner.times(probe.scaled), plain_passes,
            [probe.scaled(*span) for span in setup_spans],
        )
        print(f"{note}; {len(probe.durations)} speed samples")
        units = END_TO_END_UNITS
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")

    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
