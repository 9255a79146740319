"""Child-process side of the benchmark.  Run with ``src`` on ``PYTHONPATH``.

``child.py cli SPANS OP -- ARGV...``
    Runs ``bcs ARGV`` as ``python -m bcs`` would, with every layer traced;
    writes ``{"import_s", "spans", "measured"}`` to SPANS and exits with the
    CLI's code.  ``measured`` maps the op to the seconds timed around the
    traced ``cli.main`` from outside the tracer.
``child.py session``
    A long-lived engine session driven by JSON lines on stdin (see
    ``Session``); replies with one JSON line per request.
``child.py launch TIMEOUT``
    Spawns each ``{"argv": [...]}`` read as a JSON line on stdin, on the
    next CPU in turn (see ``pin``), times it from spawn to exit and replies
    ``{"code", "stdout", "seconds"}``; on
    ``{"exit": true}`` replies ``{"peak_kb"}``, the largest resident size
    of any process it spawned, and ends.
``child.py gate REPS``
    Times the two calls that acceptance criteria 1 and 9 bound at 1 ms, and
    the tracer's own cost per wrapped call, and prints their medians as one
    JSON line.
"""

from __future__ import annotations

import json
import os
import sys
import time

import spans


def run_cli(spans_path: str, op: int, argv: list[str]) -> int:
    start = time.perf_counter()
    import bcs.cli

    import_s = time.perf_counter() - start
    tracer = spans.Tracer()
    tracer.op = op
    undo = spans.install(tracer)
    main_start = time.perf_counter()
    try:
        code = bcs.cli.main(argv)
    finally:
        main_s = time.perf_counter() - main_start
        spans.uninstall(undo)
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "measured": {op: main_s}}, fh)
    return code


class Session:
    """Engine session: solve tables once, then answer engine moves.

    Requests: ``{"cmd": "setup", "tables": [[tb, x_max], ...]}`` replies
    with the solved rows; ``{"cmd": "moves", "moves": [...]}`` plays each
    move ``[tb, heap, p, marker, tie_bid]`` and replies with
    ``[value, left_bid, right_bid, winner, tie_value, seconds]`` per move;
    ``{"cmd": "exit", "spans": path}`` writes the spans, and the seconds
    timed around each traced move, when any were recorded and ends the
    session.  A request with ``"trace": true`` runs with every layer but
    the CLI (which a session never imports) traced; the next request
    without it, or the exit, restores every binding first.
    """

    def __init__(self) -> None:
        start = time.perf_counter()
        import bcs

        self.import_s = time.perf_counter() - start
        self.bcs = bcs
        self.tables: dict[int, object] = {}
        self.tracer = spans.Tracer()
        self.undo: list | None = None
        self.op = 0
        self.measured: dict[int, float] = {}

    def setup(self, tables: list[list[int]]) -> dict:
        for tb, x_max in tables:
            self.tables[tb] = self.bcs.solve(tb, x_max)
        rows = {
            str(tb): [list(t.row(x)) for x in range(t.x_max + 1)]
            for tb, t in self.tables.items()
        }
        return {"rows": rows}

    def _move(self, tb: int, heap: int, p: int, marker: str, tie: int) -> list:
        bcs = self.bcs
        table = self.tables[tb]
        side = bcs.Side.LEFT if marker == "L" else bcs.Side.RIGHT
        pos = bcs.make_position(tb, heap, p, side)
        v = bcs.value(table, pos)
        bid = min(bcs.equilibrium_bids(table, pos))
        tie_pos = bcs.make_position(tb, heap, p, bcs.Side.LEFT)
        tie_value = bcs.tie_conditioned_value(table, tie_pos, tie)
        return [v, bid.left_bid, bid.right_bid, bid.winner.value, tie_value]

    def _trace(self, on: bool) -> None:
        if on and self.undo is None:
            self.undo = spans.install(self.tracer, spans.LIBRARY_TARGETS)
        elif not on and self.undo is not None:
            spans.uninstall(self.undo)
            self.undo = None

    def moves(self, moves: list[list], traced: bool) -> dict:
        clock = time.perf_counter
        results = []
        for move in moves:
            self.op += 1
            start = clock()
            if traced:
                self.tracer.op = self.op
                out = self.tracer.call("engine.move", self._move, move, {})
            else:
                out = self._move(*move)
            seconds = clock() - start
            if traced:
                self.measured[self.op] = seconds
            out.append(seconds)
            results.append(out)
        return {"results": results}

    def exit(self, spans_path: str | None) -> dict:
        if spans_path and self.tracer.spans:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"import_s": self.import_s, "spans": self.tracer.spans,
                           "measured": self.measured}, fh)
        return {"peak_kb": peak_kb()}

    def serve(self, stdin, stdout) -> None:
        for line in stdin:
            request = json.loads(line)
            cmd = request["cmd"]
            self._trace(request.get("trace", False))
            if cmd == "setup":
                reply = self.setup(request["tables"])
            elif cmd == "moves":
                reply = self.moves(request["moves"], request.get("trace", False))
            else:
                reply = self.exit(request.get("spans"))
            stdout.write(json.dumps(reply, separators=(",", ":")) + "\n")
            stdout.flush()
            if cmd == "exit":
                return


def peak_kb() -> int:
    """This process's peak resident size since it started its program.

    ``ru_maxrss`` would also count the memory of the process it was forked
    from; ``VmHWM`` covers only the current program.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def pin(pid: int, cpus: list[int], turn: int) -> None:
    """Pin process ``pid`` (0: this one) to ``cpus[turn % len(cpus)]``;
    ``cpus`` is the set the process may use, read before any pinning.

    On a shared VM each virtual CPU flips on its own between a fast and a
    slow speed about 1.5x apart, for seconds at a time, and a process left
    alone stays on one CPU.  Handing out the CPUs in turn makes a run
    sample every CPU's speed for the same share of its ops, so the run's
    figures average more independent stretches of the machine.
    """
    os.sched_setaffinity(pid, {cpus[turn % len(cpus)]})


def launch(timeout: float) -> int:
    import resource
    import subprocess

    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    for line in sys.stdin:
        request = json.loads(line)
        if "argv" in request:
            pin(0, cpus, turn)  # the op inherits the launcher's CPU
            turn += 1
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    request["argv"], capture_output=True, text=True, timeout=timeout)
                code, stdout = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired:
                code, stdout = -1, ""
            reply = {"code": code, "stdout": stdout, "seconds": time.perf_counter() - start}
        else:
            reply = {"peak_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        sys.stdout.write(json.dumps(reply, separators=(",", ":")) + "\n")
        sys.stdout.flush()
        if "argv" not in request:
            return 0
    return 0


def run_gate(reps: int, zugzwang: str) -> dict:
    """Medians of the exact calls criteria 1 and 9 time, warm, in ms, and
    of the time a traced call adds to an untraced one, in microseconds."""
    import statistics

    from bcs.general import check_property_U, parse_ruleset
    from bcs.solver import solve

    ruleset = parse_ruleset(zugzwang)

    def median_ms(fn) -> float:
        fn()  # warm-up, as the acceptance gate does
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples) * 1e3

    def nothing() -> None:
        pass

    tracer = spans.Tracer()
    traced = tracer.wrap("nothing", nothing)

    def call_us(fn, calls: int = 100) -> float:
        """Median over ``reps`` samples of one call of ``fn``, in us."""
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append(time.perf_counter() - start)
            tracer.spans.clear()
        return statistics.median(samples) / calls * 1e6

    return {
        "solve_5_2_ms": median_ms(lambda: solve(5, 2)),
        "zugzwang_check_property_U_ms": median_ms(lambda: check_property_U(ruleset)),
        "call_overhead_us": max(0.0, call_us(traced) - call_us(nothing)),
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        return run_cli(argv[1], int(argv[2]), argv[argv.index("--") + 1:])
    if mode == "session":
        Session().serve(sys.stdin, sys.stdout)
        return 0
    if mode == "launch":
        return launch(float(argv[1]))
    if mode == "gate":
        import gen

        print(json.dumps(run_gate(int(argv[1]), gen.ZUGZWANG_RULESET)))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
