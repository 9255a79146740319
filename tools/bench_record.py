"""Build a ``BENCH_<commit>.json`` trajectory record from benchmark results.

Run ``bcsbench/run.py`` in a git checkout of the commit to record, for each
seed and both workloads, then point this script at that checkout::

    for s in 1 2 3 4 5 6; do for w in limits verify; do
        python3 bcsbench/run.py --workload $w --seed $s --seconds 50 --trace 0
    done; done
    python3 tools/bench_record.py CHECKOUT --out-dir .

It reads ``CHECKOUT/.bcsbench_out/<workload>-seed<S>-trace0/result.json``
and writes ``BENCH_<short commit>.json``: the commit, Python version,
``nproc`` and ``src/`` line count the runs report, and for each gated
metric of ``BENCHMARK.json`` (and ``fail_ratio``) its median and quartiles
over seeds 1-6.  If the checkout also holds ``--trace 1`` results, it
reads those of the same seeds and records the median of each per-layer
metric in ``LAYERS``.  It refuses results from more than one commit, from
another ``--seconds``, from a run that was not correct, or a ``--trace 1``
set with a seed missing.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SCHEMA_VERSION = 1
WORKLOADS = ("limits", "verify")
SEEDS = range(1, 7)
LAYERS = (
    "solver.limit_rows.busy_s",
    "solver.solve.busy_s",
    "analysis.run_invariant_suite_on.busy_ms",
)


def result_path(checkout: Path, workload: str, seed: int, trace: int) -> Path:
    return checkout / ".bcsbench_out" / f"{workload}-seed{seed}-trace{trace}" / "result.json"


def load_runs(checkout: Path, workload: str, trace: int) -> list[dict]:
    runs = []
    for seed in SEEDS:
        path = result_path(checkout, workload, seed, trace)
        run = json.loads(path.read_text(encoding="utf-8"))
        if not run["correct"]:
            raise ValueError(f"{path} is not a correct run: {run['failures']}")
        runs.append(run)
    return runs


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def single(runs: list[dict], key: str):
    """The one value every run reports for ``key``."""
    values = {run[key] for run in runs}
    if len(values) != 1:
        raise ValueError(f"runs disagree on {key}: {sorted(map(str, values))}")
    return values.pop()


def record(checkout: Path) -> dict:
    bench = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = [m["name"] for m in bench["end_to_end"]] + ["fail_ratio"]
    runs = {w: load_runs(checkout, w, 0) for w in WORKLOADS}
    every = [run for w in WORKLOADS for run in runs[w]]
    out = {
        "schema_version": SCHEMA_VERSION,
        "commit": single(every, "commit"),
        "python": single(every, "python"),
        "nproc": single(every, "nproc"),
        "src_lines": single(every, "src_lines"),
        "seeds": list(SEEDS),
        "command": f"python3 bcsbench/run.py --workload W --seed S "
                   f"--seconds {single(every, 'seconds'):g} --trace 0",
        "workloads": {
            w: {
                m: {**spread([run["metrics"][m]["value"] for run in runs[w]]),
                    "unit": runs[w][0]["metrics"][m]["unit"]}
                for m in gated
            }
            for w in WORKLOADS
        },
    }
    if any(result_path(checkout, w, s, 1).exists() for w in WORKLOADS for s in SEEDS):
        traced = {w: load_runs(checkout, w, 1) for w in WORKLOADS}
        every = [run for w in WORKLOADS for run in traced[w]]
        if single(every, "commit") != out["commit"]:
            raise ValueError("the --trace 1 runs are of another commit")
        out["layers"] = {
            "command": f"python3 bcsbench/run.py --workload W --seed S "
                       f"--seconds {single(every, 'seconds'):g} --trace 1",
            **{
                w: {
                    m: {"median": statistics.median(run["metrics"][m]["value"] for run in traced[w]),
                        "unit": traced[w][0]["metrics"][m]["unit"]}
                    for m in LAYERS
                }
                for w in WORKLOADS
            },
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="the checkout the benchmark ran in")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    data = record(args.checkout)
    path = args.out_dir / f"BENCH_{data['commit'][:7]}.json"
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
