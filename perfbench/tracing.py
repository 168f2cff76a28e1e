"""In-memory call spans around the public functions of each bikesched layer.

``Tracer.install`` wraps every public function defined in a layer module and
rebinds the wrapper wherever ``bikesched`` holds the original -- its defining
module, every sibling module that imported it by name, and the package
namespace -- so calls between layers are seen too, as the acceptance suite's
LP audit does for ``solve_partition``.  ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, probe]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``probe`` a small value read from the
call's result, for the counters that need one.  The benchmark opens its own
``bench.*`` spans around each operation and check, so the roots cover a
traced pass end to end.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("model", "lp", "normalize", "bs", "rbs", "waiting", "oracle")
# BoundCertificate.tight of every solve_bs and solve_rbs call, counted by tag.
BRANCH_TAGS = (
    "bs.branch.average",
    "bs.branch.slowest-bike",
    "rbs.branch.average",
    "rbs.branch.one-abandoned",
    "rbs.branch.second-slowest-bike",
)


def _denominator_bits(result):
    x, _tau = result
    return max((v.denominator.bit_length() for v in x), default=0)


# Values kept from a call's result, by span name.
PROBES = {
    "lp.build_lp": lambda lp: len(lp.switches),
    "lp.solve_partition": lambda r: (r[1], _denominator_bits(r)),
    "lp.vertex_from_point": _denominator_bits,
    "normalize.standardize": lambda r: (
        r[1].zero_columns_removed,
        r[1].redundant_columns_merged,
        r[1].swap_switches_resolved,
    ),
    "bs.solve_bs": lambda r: r[1].tight,
    "rbs.solve_rbs": lambda r: r.certificate.tight,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        spans.append(record)
        stack.append(index)
        record[1] = perf_counter()
        try:
            result = fn(*args)
        finally:
            record[2] = perf_counter()
            stack.pop()
        probe = PROBES.get(name)
        if probe is not None:
            record[4] = probe(result)
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, lambda: fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "bikesched" or key.startswith("bikesched.")
        ]
        for layer in LAYERS:
            mod = sys.modules[f"bikesched.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
                            self._patched.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def write(self, path) -> None:
        """All spans, one JSON array per line: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for name, start, end, parent, _probe in self.spans:
                out.write(json.dumps([name, start, end, parent]) + "\n")


def layer_metrics(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-layer figures for the spans ``first:last`` of one traced pass."""
    window = spans[first:last]
    child_time = [0.0] * len(window)
    children: dict[int, list[int]] = {}
    for k, (_name, start, end, parent, _probe) in enumerate(window):
        if parent >= first:
            child_time[parent - first] += end - start
            children.setdefault(parent - first, []).append(k)

    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for k, (name, start, end, _parent, _probe) in enumerate(window):
        own = end - start - child_time[k]
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + end - start
        self_time[name] = self_time.get(name, 0.0) + own
        layer_self[name.split(".")[0]] += own

    def parent_name(k):
        parent = window[k][3]
        return window[parent - first][0] if parent >= first else None

    oracle_names = ("oracle.brute_force_bs", "oracle.brute_force_rbs")
    rounds = lp_solves = improving = 0
    switch_rows = denominator_bits = 0
    removed = merged = swaps = 0
    branches: dict[str, int] = {}
    for k, (name, _start, _end, _parent, probe) in enumerate(window):
        if name in ("lp.solve_partition", "lp.vertex_from_point"):
            bits = probe[1] if name == "lp.solve_partition" else probe
            denominator_bits = max(denominator_bits, bits)
            if parent_name(k) == "normalize.reduce_schedule":
                rounds += 1
        elif name == "lp.build_lp" and parent_name(k) == "lp.solve_partition":
            switch_rows = max(switch_rows, probe)
        elif name == "normalize.standardize":
            removed += probe[0]
            merged += probe[1]
            swaps += probe[2]
        elif name in ("bs.solve_bs", "rbs.solve_rbs"):
            key = f"{name.split('.')[0]}.branch.{probe}"
            branches[key] = branches.get(key, 0) + 1
        elif name in oracle_names:
            best = None
            for child in children.get(k, ()):
                if window[child][0] != "lp.solve_partition":
                    continue
                lp_solves += 1
                tau = window[child][4][0]
                if best is None or tau < best:
                    best = tau
                    improving += 1

    out: dict[str, float] = {f"{layer}.self_s": t for layer, t in layer_self.items()}
    for name in (
        "lp.vertex_from_point",
        "lp.solve_partition",
        "bs.relay_schedule",
        "rbs.abandon_slowest",
        "waiting.remove_one_wait",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "lp.vertex_from_point",
        "lp.solve_partition",
        "lp.build_lp",
        "normalize.standardize",
        "normalize.is_standard_form",
        "bs.unexpanded_partition",
        "bs.expand_with_partition",
        "bs.relay_reference",
        "waiting.remove_all_waits",
        "model.check_feasible",
        "model.completion_profile",
    ):
        out[f"{name}.s"] = inclusive.get(name, 0.0)
    for name in ("normalize.reduce_schedule", "bs.relay_schedule", "rbs.solve_rbs"):
        out[f"{name}.self_s"] = self_time.get(name, 0.0)
    out["normalize.rounds"] = rounds
    out["normalize.columns_removed"] = removed
    out["normalize.columns_merged"] = merged
    out["normalize.swaps"] = swaps
    out["lp.switch_rows.max"] = switch_rows
    out["lp.denominator_bits.max"] = denominator_bits
    out["oracle.calls"] = sum(calls.get(name, 0) for name in oracle_names)
    out["oracle.lp_solves"] = lp_solves
    out["oracle.improving_lp_ratio"] = improving / lp_solves if lp_solves else 0.0
    for tag in BRANCH_TAGS:
        out[tag] = branches.get(tag, 0)
    out["trace.spans"] = len(window)
    out["trace.root_s"] = sum(
        end - start for _name, start, end, parent, _probe in window if parent < first
    )
    return out

