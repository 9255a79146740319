"""The bcs benchmark: CLI and library workloads, end to end and per layer.

Run from the root of a checkout (the directory holding ``src/bcs``)::

    python3 bcsbench/run.py --workload limits --seed 1 --seconds 25 --trace 0

One client sends one op at a time (a closed loop) into one child process
at a time.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs every cycle untraced and then traced, and prints the per-layer
metrics.  Every op's output is checked after the timed phase.  A summary
line per metric goes to stdout, the full report with every raw sample to
``.bcsbench_out/<workload>-seed<N>-trace<T>/result.json``, and the last
line of stdout is the JSON result.  See ``bcsbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import child
import gen
import spans

BENCH_DIR = Path(__file__).resolve().parent
CHILD = str(BENCH_DIR / "child.py")
PY = sys.executable
OP_TIMEOUT_S = 60
GATE_REPS = 2000
# Even counts: set-ups take the CPUs in turn, and on a VM whose two CPUs
# can run at different speeds, an odd count lets the median fall wholly on
# whichever CPU took one set-up more.
SETUP_REPEATS = {"limits": 16, "verify": 12, "engine": 6}
CPUS = sorted(os.sched_getaffinity(0))
ORACLE_MOVES_PER_RUN = 300


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def ask(proc: subprocess.Popen, request: dict) -> dict:
    """Send one JSON-line request to a child and read its one-line reply."""
    proc.stdin.write(json.dumps(request, separators=(",", ":")) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise HarnessError(f"{request} got no reply (child exit {proc.wait()})")
    return json.loads(line)


class CliWorkload:
    """Each op is a fresh ``python -m bcs ...`` process, as a user runs it.

    The ops are spawned and timed, from spawn to exit, by a small launcher
    process (``child.py launch``).  A process forked from another counts
    that process's resident memory in its own ``ru_maxrss``; spawned from
    the harness, whose records grow during a run, every op would report at
    least the harness's size.  The launcher stays small, so the peak it
    reports is the ops' own.
    """

    def __init__(self, root: Path, seed: int, out: Path):
        self.root, self.seed, self.out = root, seed, out
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.launcher = subprocess.Popen(
            [PY, CHILD, "launch", str(OP_TIMEOUT_S)], cwd=root, env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.peak_kb = 0
        self.import_s: list[float] = []
        self.spans: list[tuple] = []
        self.measured: dict[int, float] = {}
        self.inputs: list[dict] = []
        self._op = 0

    def spawn(self, cmd: list[str]) -> tuple[int, str, float]:
        reply = ask(self.launcher, {"argv": cmd})
        return reply["code"], reply["stdout"], reply["seconds"]

    def setup(self) -> float:
        """Time a fresh ``import bcs`` plus ``prepare``."""
        start = time.perf_counter()
        code, _, _ = self.spawn([PY, "-c", "import bcs"])
        if code != 0:
            raise HarnessError("import bcs failed")
        self.prepare()
        return time.perf_counter() - start

    def prepare(self) -> None:
        """The workload's own preparation, after ``import bcs``."""

    def ops(self, k: int) -> list[dict]:
        raise NotImplementedError

    def cycle(self, k: int, traced: bool) -> list[dict]:
        records = []
        for op in self.ops(k):
            self._op += 1
            if traced:
                span_file = self.out / "op_spans.json"
                cmd = [PY, CHILD, "cli", str(span_file), str(self._op), "--", *op["argv"]]
            else:
                cmd = [PY, "-m", "bcs", *op["argv"]]
            code, stdout, lat = self.spawn(cmd)
            if traced and span_file.exists():
                data = json.loads(span_file.read_text())
                span_file.unlink()
                self.import_s.append(data["import_s"])
                self.measured.update((int(op), s) for op, s in data["measured"].items())
                spans.extend(self.spans, data["spans"])
            records.append({"op": op, "code": code, "stdout": stdout, "lat": lat})
            if not traced:
                self.inputs.append(op)
        return records

    def check(self, records: list[dict]) -> list[str]:
        """Mark each record's ``bad`` reason; return set-up failures."""
        for rec in records:
            bad = check.check_cli(rec["op"], rec["code"], rec["stdout"])
            rec["bad"] = bad and f"{' '.join(rec['op']['argv'])}: {bad}"
        return []

    def close(self) -> None:
        """Stop the launcher, keeping the peak resident size of its ops."""
        if self.launcher.poll() is None:
            try:
                self.peak_kb = ask(self.launcher, {"exit": True})["peak_kb"]
                self.launcher.wait(timeout=OP_TIMEOUT_S)
            except (HarnessError, OSError, subprocess.TimeoutExpired):
                self.launcher.kill()
                self.launcher.wait()


class LimitsWorkload(CliWorkload):
    def ops(self, k: int) -> list[dict]:
        return gen.limits_cycle(self.seed, k)


class VerifyWorkload(CliWorkload):
    """Small budgets; the tables and rulesets are written at set-up."""

    def prepare(self) -> None:
        spec = gen.verify_files(self.seed)
        folder = self.out / "files"
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir(parents=True)
        tables = []
        for tb in spec["tables"]:
            path = (folder / f"table_tb{tb}.json").relative_to(self.root)
            argv = ["solve", "--tb", str(tb), "--x-max", str(gen.convergence_bound(tb) + 2),
                    "--format", "json", "--out", str(path)]
            code, _, _ = self.spawn([PY, "-m", "bcs", *argv])
            if code != 0:
                raise HarnessError(f"set-up solve for tb={tb} exited {code}")
            tables.append((tb, str(path)))
        rulesets = []
        for ruleset in spec["rulesets"]:
            path = (folder / f"{ruleset['name']}.txt").relative_to(self.root)
            (self.root / path).write_text(ruleset["text"], encoding="utf-8")
            rulesets.append((ruleset["name"], str(path)))
        self.files = {"tables": tables, "rulesets": rulesets}

    def ops(self, k: int) -> list[dict]:
        return gen.verify_cycle(self.seed, k, self.files)

    def check(self, records: list[dict]) -> list[str]:
        failures = []
        for tb, path in self.files["tables"]:
            data = json.loads((self.root / path).read_text())
            rows = [e["values"] for e in data["rows"]]
            bad = check.check_table_rows(tb, rows, check.oracle_sample_cells(tb))
            if bad:
                failures.append(f"set-up table tb={tb}: {bad}")
        return failures + super().check(records)


class EngineWorkload:
    """One long-lived library session answering engine moves."""

    def __init__(self, root: Path, seed: int, out: Path):
        self.root, self.seed, self.out = root, seed, out
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tables = gen.engine_tables(seed)
        self.proc: subprocess.Popen | None = None
        self.rows: dict[int, list] | None = None
        self.setup_failures: list[str] = []
        self.import_s: list[float] = []
        self.spans: list[tuple] = []
        self.measured: dict[int, float] = {}
        self.peak_kb = 0
        self.inputs: list = [{"tables": self.tables}]
        self.setups = 0

    def _request(self, request: dict) -> dict:
        return ask(self.proc, request)

    def setup(self) -> float:
        """Start a session and solve its tables.  Every session must solve
        the same rows; the first session's rows are checked in full."""
        self.close()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [PY, CHILD, "session"], cwd=self.root, env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        child.pin(self.proc.pid, CPUS, self.setups)
        self.setups += 1
        tables = [[tb, gen.convergence_bound(tb) + 2] for tb in self.tables]
        reply = self._request({"cmd": "setup", "tables": tables})
        elapsed = time.perf_counter() - start
        rows = {int(tb): rows for tb, rows in reply["rows"].items()}
        if self.rows is None:
            self.rows = rows
        elif rows != self.rows:
            self.setup_failures.append("a later session solved other rows than the first")
        return elapsed

    def cycle(self, k: int, traced: bool) -> list[dict]:
        moves = gen.engine_cycle(self.seed, k, self.tables)
        child.pin(self.proc.pid, CPUS, k)
        if not traced:
            self.inputs.append(gen.digest(moves))
        reply = self._request({"cmd": "moves", "moves": moves, "trace": traced})
        return [
            {"move": m, "result": r, "lat": r[5]} for m, r in zip(moves, reply["results"])
        ]

    def check(self, records: list[dict]) -> list[str]:
        failures = list(self.setup_failures)
        for tb, rows in self.rows.items():
            bad = check.check_table_rows(tb, rows, check.oracle_sample_cells(tb))
            if bad:
                failures.append(f"session table tb={tb}: {bad}")
        oracle_budget = ORACLE_MOVES_PER_RUN
        for rec in records:
            move, result = rec["move"], rec["result"]
            bad = check.check_move(self.rows[move[0]], move, result)
            if not bad and move[1] <= gen.ENGINE_SMALL_HEAP and oracle_budget > 0:
                oracle_budget -= 1
                bad = check.check_move_oracle(move, result)
            rec["bad"] = bad
        return failures

    def close(self) -> None:
        """End the session, collecting the spans it recorded, if any."""
        if self.proc is None:
            return
        path = self.out / "session_spans.json"
        try:
            reply = self._request({"cmd": "exit", "spans": str(path)})
            self.peak_kb = max(self.peak_kb, reply["peak_kb"])
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except (HarnessError, OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc = None
        if path.exists():
            data = json.loads(path.read_text())
            path.unlink()
            self.import_s.append(data["import_s"])
            self.measured.update((int(op), s) for op, s in data["measured"].items())
            spans.extend(self.spans, data["spans"])


WORKLOADS = {"limits": LimitsWorkload, "verify": VerifyWorkload, "engine": EngineWorkload}


def run_phase(
    w, seconds: float, modes: tuple[bool, ...] = (False,), setups: int = 1
) -> tuple[list[dict], list[float]]:
    """Whole cycles, closed loop, until ``seconds`` of cycles have run.

    Each cycle runs once per mode (untraced, then traced when asked), so
    the traced and untraced copies of a cycle run back to back and drift
    in the machine's speed cancels out of their ratio.  The ``setups``
    set-ups are spread over the run, between cycles, so that their median
    sees the same machine as the ops do; their time is not counted in the
    cycles'.  One set-up before them warms up and is not counted: the first
    one of a run took 1.1-1.7 times the median.  The harness's own garbage
    collector is paused while it times: the records it keeps would
    otherwise make each full collection slower.
    """
    phases = [{"records": [], "walls": []} for _ in modes]
    gc.disable()
    try:
        w.setup()
        samples = [w.setup()]
        measured = 0.0
        k = 0
        while measured < seconds:
            for phase, traced in zip(phases, modes):
                t0 = time.perf_counter()
                records = w.cycle(k, traced)
                wall = time.perf_counter() - t0
                phase["records"].extend(records)
                phase["walls"].append(wall)
                measured += wall
            k += 1
            while len(samples) < setups and measured >= len(samples) * seconds / setups:
                samples.append(w.setup())
        while len(samples) < setups:
            samples.append(w.setup())
    finally:
        gc.enable()
    return phases, samples


def ok_rate(phase: dict) -> float:
    """Correct ops of a phase per second of its cycles' wall time.

    A total over the whole phase rather than a median of cycle rates: the
    machine's speed flips between two levels about 1.5x apart, and a median
    of a two-level mix jumps from one level to the other as the mix passes
    one half, while the total moves only in proportion to the mix.
    """
    ok = sum(1 for rec in phase["records"] if not rec["bad"])
    return ok / sum(phase["walls"])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest percentile that leaves at
    least 10 samples beyond it (nearest rank); the maximum below 11."""
    n = len(samples)
    ordered = sorted(samples)
    for q in (99.999, 99.99, 99.9) + tuple(range(99, 0, -1)):
        rank = math.ceil(q * n / 100)
        if rank >= 1 and n - rank >= 10:
            return ordered[rank - 1], q, n
    return ordered[-1], 100.0, n


def reproducibility(root: Path) -> dict:
    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src").rglob("*.py"))
    )
    commit = git_commit(root / ".git")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": lines,
    }


def git_commit(git: Path) -> str | None:
    """The commit HEAD names, from a loose or a packed ref; None without
    a readable ``.git`` (the benchmark also runs in plain checkouts)."""
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    for line in packed:
        parts = line.split()
        if len(parts) == 2 and parts[1] == ref and not line.startswith(("#", "^")):
            return parts[0]
    return None


def measure(workload: str, seed: int, seconds: float, traced: bool, root: Path) -> dict:
    out = root / ".bcsbench_out" / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced)}
    report.update(reproducibility(root))
    w = WORKLOADS[workload](root, seed, out)
    try:
        phases, setups = run_phase(
            w, seconds, (False, True) if traced else (False,),
            1 if traced else SETUP_REPEATS[workload])
        w.close()
        records = [r for p in phases for r in p["records"]]
        failures = w.check(records)
    finally:
        w.close()
    phase = phases[0]
    bad_ops = [r["bad"] for r in records if r["bad"]]
    failures += bad_ops

    lat = [r["lat"] for r in phase["records"]]
    attempted = len(records)
    failed = len(bad_ops)
    report.update({
        "inputs": w.inputs,
        "inputs_digest": gen.digest(w.inputs),
        "cycles": len(phase["walls"]),
        "setup_samples_s": setups,
        "op_samples_ms": [x * 1e3 for x in lat],
    })
    if not traced:
        tail_ms, tail_q, n = tail(lat)
        metrics = {
            "ops_per_s": (ok_rate(phase), "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (tail_ms * 1e3, "ms"),
            "fail_ratio": (failed / attempted, "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (w.peak_kb / 1024, "MB"),
        }
        report["op_tail"] = {"percentile": tail_q, "samples": n}
    else:
        traced_phase = phases[1]
        metrics = spans.layer_metrics(w.spans, w.import_s, len(traced_phase["walls"]))
        untraced_rate = ok_rate(phase)
        traced_ok = sum(1 for r in traced_phase["records"] if not r["bad"])
        metrics["trace.overhead_ratio"] = (
            ok_rate(traced_phase) / untraced_rate if untraced_rate else 0.0, "ratio")
        metrics["trace.ops"] = (traced_ok, "count")
        gate = run_gate(root)
        metrics["gate.solve_5_2_ms"] = (gate["solve_5_2_ms"], "ms")
        metrics["gate.zugzwang_check_property_U_ms"] = (gate["zugzwang_check_property_U_ms"], "ms")
        metrics["trace.call_overhead_us"] = (gate["call_overhead_us"], "us")
        report["gate_budget_ms"] = {"solve_5_2_ms": 1.0, "zugzwang_check_property_U_ms": 1.0}
        residual = spans.self_time_residual(w.spans)
        report["self_time_residual_s"] = residual
        if residual > 1e-6:
            failures.append(f"self times miss their root span by {residual:.3g}s")
        shortfall = spans.root_shortfall(w.spans, w.measured)
        if shortfall:
            failures.append(shortfall)
        spans_path = out / "spans.json"
        spans_path.write_text(json.dumps(w.spans, separators=(",", ":")))
        report["spans_file"] = str(spans_path.relative_to(root))
    report["failures"] = failures[:20]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["attempted"], report["failed"] = attempted, failed
    report["correct"] = not failures
    (out / "result.json").write_text(json.dumps(report, indent=1))
    report["result_file"] = str((out / "result.json").relative_to(root))
    return report


def run_gate(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [PY, CHILD, "gate", str(GATE_REPS)], cwd=root, env=env, capture_output=True,
        text=True, timeout=OP_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bcs" / "__init__.py").is_file():
        print(f"error: no src/bcs under {root}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the checkers call bcs.oracle
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (HarnessError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = report["metrics"]
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if "op_tail" in report:
        t = report["op_tail"]
        print(f"{args.workload} op_tail_ms is p{t['percentile']:g} of {t['samples']} ops")
    for bad in report["failures"]:
        print(f"FAIL {bad}")
    print(f"report: {report['result_file']}  inputs {report['inputs_digest']}")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: metrics[name] for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
