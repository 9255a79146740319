"""Spans around the public functions of each ``bcs`` layer.

The traced runner replaces each target function by a wrapper on every
``bcs`` module that binds it (``bcs.analysis`` imports ``solve`` by name and
``bcs/__init__`` re-exports most targets), records one span per call in
memory, and restores the original bindings afterwards.  A span is
``(name, start, end, parent, op, work)``: ``parent`` is the index of the
enclosing span in the same op, or -1, and ``work`` is a count taken from
the call's arguments or result (rows, cells, states), or None.

``bcs.core`` is not wrapped: its constructors run once per cell, so a
wrapper would cost more than the work it measures.  Core is seen through
its callers.

The child processes import this module, so at module level it imports
only ``sys`` and ``time``: ``hashlib`` alone would add megabytes to the peak RSS
the benchmark reports.  The parent-side summary imports what it needs.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

# (module, attribute) of every wrapped public function.
TARGETS = (
    ("bcs.cli", "main"),
    ("bcs.cli", "load_outcome_table_json"),
    ("bcs.solver", "solve"),
    ("bcs.solver", "limit_rows"),
    ("bcs.solver", "equilibrium_bids"),
    ("bcs.solver", "value"),
    ("bcs.solver", "tie_conditioned_value"),
    ("bcs.automaton", "conjecture_report"),
    ("bcs.automaton", "automaton_fixed_point"),
    ("bcs.analysis", "run_invariant_suite_on"),
    ("bcs.analysis", "check_oracle_equivalence"),
    ("bcs.oracle", "oracle_value"),
    ("bcs.general", "parse_ruleset"),
    ("bcs.general", "check_property_U"),
)
# What a library session traces: it never imports ``bcs.cli``.
LIBRARY_TARGETS = tuple(t for t in TARGETS if t[0] != "bcs.cli")


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


# Work counted per call, from arguments and result.
WORK: dict[str, Callable] = {
    "solver.solve": lambda a, k, r: r.x_max + 1,
    "solver.limit_rows": lambda a, k, r: (_arg(a, k, 0, "tb"), r.x_star),
    "analysis.run_invariant_suite_on": lambda a, k, r: (
        (_arg(a, k, 0, "table").x_max + 1) * (_arg(a, k, 0, "table").tb + 1)
    ),
    "analysis.check_oracle_equivalence": lambda a, k, r: (
        2 * (_arg(a, k, 1, "x_max") + 1) * (_arg(a, k, 0, "tb") + 1)
    ),
    "general.check_property_U": lambda a, k, r: (
        2 * len(_arg(a, k, 0, "ruleset").positions) * (_arg(a, k, 0, "ruleset").tb + 1)
    ),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple | None] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        # Spans are stored as tuples of atoms, which the cyclic garbage
        # collector stops tracking; growing lists would make every full
        # collection slower as the trace grows.
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op, None)
        work = WORK.get(name)
        if work is not None:
            self.spans[idx] = (name, start, end, parent, self.op, work(args, kwargs, result))
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced


def install(tracer: Tracer, targets=TARGETS) -> list[tuple[object, str, object]]:
    """Patch every ``bcs`` module binding of each target; return the undo list.

    A target whose module is not imported, or does not define it, raises
    ``RuntimeError`` after undoing the rest: an unpatched layer would read 0,
    the same as a layer the workload never reaches.
    """
    undo = []
    try:
        for module_name, attr in targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                raise RuntimeError(f"cannot trace {module_name}.{attr}: not imported or defined")
            traced = tracer.wrap(f"{module_name.removeprefix('bcs.')}.{attr}", original)
            for name, module in list(sys.modules.items()):
                if name != "bcs" and not name.startswith("bcs."):
                    continue
                if module is not None and module.__dict__.get(attr) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, traced)
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def extend(spans: list[tuple], more: list) -> None:
    """Append another process's spans, re-basing their parent indices."""
    offset = len(spans)
    for name, start, end, parent, op, work in more:
        parent = parent + offset if parent >= 0 else -1
        spans.append((name, start, end, parent, op, work))


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append(end - start - covered)
    return result


def self_time_residual(spans: list[tuple]) -> float:
    """Largest gap, over the ops in ``spans``, between the sum of self times
    and the duration of the op's root spans (0 up to rounding)."""
    selfs = self_times(spans)
    per_op: dict[int, float] = {}
    for span, own in zip(spans, selfs):
        per_op[span[4]] = per_op.get(span[4], 0.0) + own
        if span[3] < 0:
            per_op[span[4]] -= span[2] - span[1]
    return max((abs(v) for v in per_op.values()), default=0.0)


def root_shortfall(spans: list[tuple], measured: dict[int, float]) -> str | None:
    """Check the root spans against op times measured outside the tracer.

    ``measured`` maps each traced op to the seconds its runner timed around
    the traced entry point (``cli.main`` or ``engine.move``).  Every such op
    must have exactly one root span, and the root spans must cover the
    measured time up to the wrapper's own cost (2% in total), so a layer
    that was not patched, or time the spans miss, shows.  Returns None when
    the check holds, else a one-line reason.
    """
    roots: dict[int, list[float]] = {}
    for span in spans:
        if span[3] < 0:
            roots.setdefault(span[4], []).append(span[2] - span[1])
    lone = [op for op in measured if len(roots.get(op, ())) != 1]
    if lone:
        return f"{len(lone)} traced ops without exactly one root span (first: op {lone[0]})"
    covered = sum(roots[op][0] for op in measured)
    total = sum(measured.values())
    if covered > total + 1e-6 or covered < 0.98 * total:
        return f"root spans cover {covered:.6g}s of the {total:.6g}s measured around them"
    return None


def layer_metrics(
    spans: list[tuple], import_s: list[float], cycles: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``cycles`` traced cycles.

    Counts and busy/self times are means per cycle, which has a fixed shape,
    so they compare across runs of different length; ``*_p50`` are medians
    over calls.  Layers a workload does not reach read 0.
    """
    import statistics

    from gen import convergence_bound

    per = 1 / cycles if cycles else 0.0
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    work: dict[str, list] = {}
    for span, self_s in zip(spans, selfs):
        name, dur = span[0], span[2] - span[1]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + self_s
        durations.setdefault(name, []).append(dur)
        if span[5] is not None:
            work.setdefault(name, []).append(span[5])

    def mean(table: dict, name: str, scale: float = 1.0) -> float:
        """Per-cycle mean of a total, times ``scale`` (1e3 for ms)."""
        return table.get(name, 0) * scale * per

    def p50_us(name: str) -> float:
        return statistics.median(durations[name]) * 1e6 if name in durations else 0.0

    def row_us(name: str, rows: int) -> float:
        return busy.get(name, 0.0) / rows * 1e6 if rows else 0.0

    solve_rows = sum(work.get("solver.solve", ()))
    limit_work = work.get("solver.limit_rows", ())
    limit_rows = sum(convergence_bound(tb) + 3 for tb, _ in limit_work)
    useful_rows = sum(x_star + 3 for _, x_star in limit_work)
    m = {
        "cli.import_ms": (statistics.median(import_s) * 1e3 if import_s else 0.0, "ms"),
        "cli.main.self_ms": (mean(own, "cli.main", 1e3), "ms"),
        "cli.load_outcome_table_json.busy_ms": (
            mean(busy, "cli.load_outcome_table_json", 1e3), "ms"),
        "solver.solve.calls": (mean(calls, "solver.solve"), "count"),
        "solver.solve.rows": (solve_rows * per, "count"),
        "solver.solve.busy_s": (mean(busy, "solver.solve"), "s"),
        "solver.solve.row_us": (row_us("solver.solve", solve_rows), "us"),
        "solver.limit_rows.calls": (mean(calls, "solver.limit_rows"), "count"),
        "solver.limit_rows.busy_s": (mean(busy, "solver.limit_rows"), "s"),
        "solver.limit_rows.row_us": (row_us("solver.limit_rows", limit_rows), "us"),
        "solver.limit_rows.useful_row_ratio": (
            useful_rows / limit_rows if limit_rows else 0.0, "ratio"),
    }
    for fn in ("equilibrium_bids", "value", "tie_conditioned_value"):
        name = f"solver.{fn}"
        m[f"{name}.calls"] = (mean(calls, name), "count")
        m[f"{name}.busy_us_p50"] = (p50_us(name), "us")
    m.update({
        "automaton.conjecture_report.self_ms": (
            mean(own, "automaton.conjecture_report", 1e3), "ms"),
        "automaton.automaton_fixed_point.busy_ms": (
            mean(busy, "automaton.automaton_fixed_point", 1e3), "ms"),
        "analysis.run_invariant_suite_on.busy_ms": (
            mean(busy, "analysis.run_invariant_suite_on", 1e3), "ms"),
        "analysis.run_invariant_suite_on.cells": (
            sum(work.get("analysis.run_invariant_suite_on", ())) * per, "count"),
        "analysis.check_oracle_equivalence.self_ms": (
            mean(own, "analysis.check_oracle_equivalence", 1e3), "ms"),
        "analysis.check_oracle_equivalence.cells": (
            sum(work.get("analysis.check_oracle_equivalence", ())) * per, "count"),
        "oracle.oracle_value.calls": (mean(calls, "oracle.oracle_value"), "count"),
        "oracle.oracle_value.busy_ms": (mean(busy, "oracle.oracle_value", 1e3), "ms"),
        "general.parse_ruleset.busy_ms": (mean(busy, "general.parse_ruleset", 1e3), "ms"),
        "general.check_property_U.busy_ms": (
            mean(busy, "general.check_property_U", 1e3), "ms"),
        "general.check_property_U.states": (
            sum(work.get("general.check_property_U", ())) * per, "count"),
    })
    return m
