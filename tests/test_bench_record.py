"""``tools/bench_record.py`` builds a trajectory record from result files."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

_GATED = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def _write_run(root, workload, seed, trace, metrics, commit="abc1234def", correct=True):
    out = root / ".bcsbench_out" / f"{workload}-seed{seed}-trace{trace}"
    out.mkdir(parents=True)
    run = {
        "workload": workload, "seed": seed, "seconds": 50.0 if trace == 0 else 20.0,
        "trace": trace, "python": "3.11.7", "nproc": 2, "commit": commit, "src_lines": 1900,
        "correct": correct, "failures": [] if correct else ["wrong"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps(run))


def _checkout(tmp_path, traced=bench_record.SEEDS, overrides=None):
    overrides = overrides or {}
    tmp_path.mkdir(exist_ok=True)
    bench = {"end_to_end": [{"name": name} for name in _GATED]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    for workload in bench_record.WORKLOADS:
        for seed in bench_record.SEEDS:
            metrics = {name: (float(seed), unit) for name, unit in _GATED.items()}
            metrics["fail_ratio"] = (0.0, "ratio")
            _write_run(tmp_path, workload, seed, 0, metrics, **overrides.get((workload, seed), {}))
        for seed in traced:
            layers = {name: (10.0 * seed, "s") for name in bench_record.LAYERS}
            _write_run(tmp_path, workload, seed, 1, layers)
    return tmp_path


def test_a_record_holds_the_median_and_quartiles_of_each_gated_metric(tmp_path):
    data = bench_record.record(_checkout(tmp_path))
    assert (data["commit"], data["python"], data["nproc"], data["src_lines"]) == (
        "abc1234def", "3.11.7", 2, 1900)
    assert data["command"].endswith("--seconds 50 --trace 0")
    for workload in bench_record.WORKLOADS:
        assert data["workloads"][workload]["ops_per_s"] == {
            "median": 3.5, "q1": 2.25, "q3": 4.75, "unit": "1/s"}
        assert set(data["workloads"][workload]) == {*_GATED, "fail_ratio"}
        assert data["layers"][workload]["solver.solve.busy_s"] == {"median": 35.0, "unit": "s"}
    assert data["layers"]["command"].endswith("--seconds 20 --trace 1")


def test_the_file_is_named_after_the_commit(tmp_path):
    checkout = _checkout(tmp_path / "checkout", traced=())
    assert bench_record.main([str(checkout), "--out-dir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "BENCH_abc1234.json").read_text())
    assert "layers" not in data and data["seeds"] == [1, 2, 3, 4, 5, 6]


def test_a_trace_1_set_with_a_seed_missing_is_refused(tmp_path):
    with pytest.raises(FileNotFoundError, match="seed6-trace1"):
        bench_record.record(_checkout(tmp_path, traced=range(1, 6)))


@pytest.mark.parametrize(
    "override,message",
    [({"commit": "fff0000"}, "runs disagree on commit"), ({"correct": False}, "not a correct run")],
)
def test_mixed_commits_and_failed_runs_are_refused(tmp_path, override, message):
    checkout = _checkout(tmp_path, overrides={("verify", 2): override})
    with pytest.raises(ValueError, match=message):
        bench_record.record(checkout)
