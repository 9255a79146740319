import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from bcs import solver
from bcs.analysis import BidGraphKind
from bcs.cli import build_parser, load_outcome_table_json, main
from bcs.core import OutcomeTable

from goldens import TB5_ROWS, TB8_EVEN_LIMIT, TB8_ODD_LIMIT, ZUGZWANG_RULESET


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "solve", "--tb", "5", "--x-max", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,p,marker,value"
    data = lines[1:]
    assert len(data) == 18
    expected = [
        f"{x},{p},L,{TB5_ROWS[x][p]}" for x in range(3) for p in range(6)
    ]
    assert data == expected


def test_solve_table_contains_worked_cell(capsys):
    code, out, _ = run_cli(capsys, "solve", "--tb", "5", "--x-max", "2")
    assert code == 0
    # budgets rendered richest first, matching the published tables
    assert out.splitlines()[0].split() == ["x", "\\", "p^", "5", "4", "3", "2", "1", "0"]
    assert out.splitlines()[3].split() == ["2", "2", "2", "0", "0", "0", "-2"]


def test_solve_tb0(capsys):
    code, out, _ = run_cli(capsys, "solve", "--tb", "0", "--x-max", "3", "--format", "csv")
    values = [line.split(",")[-1] for line in out.strip().splitlines()[1:]]
    assert values == ["0", "1", "0", "1"]


def test_solve_json_schema(capsys):
    code, out, _ = run_cli(capsys, "solve", "--tb", "9", "--x-max", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["tb"] == 9
    row9 = payload["rows"][9]
    assert row9["x"] == 9
    assert row9["values"][6] == 1


def test_limits_tb8(capsys):
    code, out, _ = run_cli(capsys, "limits", "--tb", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert tuple(payload["even"]) == TB8_EVEN_LIMIT
    assert tuple(payload["odd"]) == TB8_ODD_LIMIT
    assert payload["x_star"] <= payload["bound"] + 2 == 19


def test_limits_tb0_text(capsys):
    code, out, _ = run_cli(capsys, "limits", "--tb", "0")
    assert code == 0
    assert "x_star = 0" in out
    lines = out.splitlines()
    assert lines[2].split() == ["x", "even", "0"]
    assert lines[3].split() == ["x", "odd", "1"]


@pytest.mark.parametrize("command", ["limits", "conjecture"])
def test_convergence_failure_exit_code(capsys, monkeypatch, command):
    from bcs.solver import ConvergenceBoundExceeded

    def explode(tb):
        raise ConvergenceBoundExceeded("rows still differ")

    monkeypatch.setattr("bcs.solver.limit_rows", explode)
    code = main([command, "--tb", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: rows still differ\n"


def test_automaton_matches_limits_tb8(capsys):
    code, auto_out, _ = run_cli(capsys, "automaton", "--tb", "8", "--format", "json")
    assert code == 0
    auto = json.loads(auto_out)["tables"]["alpha"]
    code, lim_out, _ = run_cli(capsys, "limits", "--tb", "8", "--format", "json")
    limits = json.loads(lim_out)
    assert auto["even"] == limits["even"]
    assert auto["odd"] == limits["odd"]


def test_automaton_tb0(capsys):
    code, out, _ = run_cli(capsys, "automaton", "--tb", "0", "--format", "json")
    tables = json.loads(out)["tables"]["alpha"]
    assert tables == {"even": [0], "odd": [1]}


def test_check_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--tb", "5", "--x-max", "30")
    assert code == 0
    assert out.count("pass") == 10
    assert "FAIL" not in out


def test_check_with_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--tb", "8", "--x-max", "40", "--with-oracle"
    )
    assert code == 0
    assert "pass oracle_equivalence" in out


def test_check_ruleset_violation_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "zugzwang.game"
    path.write_text(ZUGZWANG_RULESET)
    code, out, _ = run_cli(capsys, "check", "--ruleset", str(path))
    assert code == 1
    assert "property B" in out

    code, out, _ = run_cli(
        capsys, "check", "--ruleset", str(path), "--format", "json"
    )
    payload = json.loads(out)
    assert not payload["holds"]
    assert payload["violations"] == [
        {
            "property": "B",
            "position": "x1",
            "budgets": [1],
            "lhs": 0,
            "rhs": 1,
            "detail": "",
        }
    ]


def test_check_round_trip_from_json(tmp_path, capsys):
    table_path = tmp_path / "table.json"
    code, out, _ = run_cli(
        capsys, "solve", "--tb", "6", "--x-max", "20", "--format", "json",
        "--out", str(table_path),
    )
    assert code == 0
    code, direct, _ = run_cli(
        capsys, "check", "--tb", "6", "--x-max", "20", "--format", "json"
    )
    assert code == 0
    code, reloaded, _ = run_cli(
        capsys, "check", "--from-json", str(table_path), "--format", "json"
    )
    assert code == 0
    assert json.loads(direct) == json.loads(reloaded)


def test_conjecture_text(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--tb", "9")
    assert code == 0
    assert "update rule on solver limits: holds" in out
    assert "beta_truncated: exact" in out
    assert "beta_euclidean: none" in out


def test_bids_dot_golden(capsys):
    code, out, _ = run_cli(
        capsys, "bids", "--tb", "5", "--kind", "tie", "--bid", "0", "--format", "dot"
    )
    assert code == 0
    arrows = [line for line in out.splitlines() if "->" in line]
    assert len(arrows) == 6  # three bidirectional pairs
    assert '  n0 -> n5 [label="0T"];' in arrows


def test_bids_holder_win_reduced(capsys):
    code, out, _ = run_cli(
        capsys, "bids", "--tb", "5", "--kind", "holder-win", "--bid", "3", "--reduced"
    )
    arrows = [line for line in out.splitlines() if "->" in line]
    assert arrows == ['  n3 -> n0 [label="3W"];']


def test_bids_tie_infeasible_is_empty(capsys):
    code, out, _ = run_cli(capsys, "bids", "--tb", "1", "--kind", "tie", "--bid", "1")
    assert code == 0
    assert "->" not in out


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "solve", "--tb", "7", "--x-max", "12", "--format", "csv")
    _, second, _ = run_cli(capsys, "solve", "--tb", "7", "--x-max", "12", "--format", "csv")
    assert first == second


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--tb", "5"])  # missing --x-max
    assert exc.value.code == 2


def test_play_scripted(capsys, monkeypatch):
    feed = iter(["1", "0"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    code = main(
        ["play", "--tb", "5", "--x", "2", "--p", "1", "--marker", "L",
         "--engine-side", "L"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "bids: L=1 R=1" in out  # engine opens with the one-dollar tie
    assert "final score +0" in out


def test_play_transcript_replays(capsys, monkeypatch):
    import re

    from bcs.core import Side, make_position
    from bcs.oracle import replay

    feed = iter(["2", "0", "1"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    code = main(
        ["play", "--tb", "9", "--x", "3", "--p", "4", "--marker", "R",
         "--engine-side", "R"]
    )
    out = capsys.readouterr().out
    assert code == 0
    bids = [
        (int(l), int(r)) for l, r in re.findall(r"bids: L=(\d+) R=(\d+)", out)
    ]
    assert len(bids) == 3
    trace = replay(9, make_position(9, 3, 4, Side.RIGHT), bids)
    printed = int(re.search(r"final score ([+-]\d+)", out).group(1))
    assert trace.utility == printed


def test_play_reprompts_and_aborts(capsys, monkeypatch):
    feed = iter(["7", "nonsense"])

    def fake_input(prompt=""):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)
    code = main(
        ["play", "--tb", "5", "--x", "2", "--p", "1", "--marker", "L",
         "--engine-side", "L"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "aborted" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bcs", "solve", "--tb", "1", "--x-max", "1",
         "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "x,p,marker,value"


# sha256 of stdout and the exit code of each command, captured before the
# single-table refactor; success output must stay byte-identical.  TABLE is
# the file written by ``solve --tb 6 --x-max 20 --format json --out``,
# RULESET the zugzwang ruleset.
GOLDEN_CORPUS = [
    ("solve --tb 5 --x-max 2", 0, "65c9d616c467494757d85a3406b2f9caf5cb2d75bd049ddafd732888bbde7321"),
    ("solve --tb 9 --x-max 9 --format json", 0, "572b8ef0163b95e0eb3ec40b19865078a75f7c948c6358ad765205350256619e"),
    ("limits --tb 8", 0, "27ff5e959ca7093d6036365eec61bb3666aeb0624fdae2b2bbffad9358706f53"),
    ("check --tb 5 --x-max 30", 0, "8182e2edceca0d165ea740b38644c1b339a8a2bee8c4564b90803ee583032575"),
    ("check --tb 8 --x-max 40 --with-oracle", 0, "3a19e7f1684c338b7be8b11e0dfd91fc31d7f32565e8a2d0d78083f940520197"),
    ("automaton --tb 9", 0, "2ae34433a577560dd2b836bbe859151f153d6d64e973e6c1390b1e0b20d7acdd"),
    ("conjecture --tb 9", 0, "8d428ee2417cdc3224fe0f0bffd09875a1ef35f5e809bef4fa342327245580ed"),
    ("bids --tb 5 --kind tie --bid 0 --format dot", 0, "d5ca4cac7bce33b5002e9638ba7df01c7a64f720270a267587ffa20ebdc72be2"),
    ("solve --tb 5 --x-max 2 --format csv", 0, "15fb44bc387124d948343d96527044da0b037b7c897c9b99c1ec772d4be837c5"),
    ("solve --tb 5 --x-max 2 --format json", 0, "2b24cba5adeb5cf78eb032677ea14077e396b75f3a3c2d1590c103d4cc721901"),
    ("limits --tb 0", 0, "726b1640bb100c19e41abbb392351b7a3bbb47c3a30f152f7817494d25a3c2f0"),
    ("limits --tb 8 --format json", 0, "30574b963326fcaa8b7eca1923431c45af0a8b2372cdf9497b8e33138a14e86f"),
    ("automaton --tb 8", 0, "b6a14a2cfe51a3b80c675e0d23a2163a29e4e7218db0d07e8c66dd4a3632aad0"),
    ("automaton --tb 8 --format json", 0, "a0a8b5227e779ac8523360cc3aa0f0a4ca5c07ebe44ba55ccdf4385777358f4d"),
    ("automaton --tb 9 --format json", 0, "3338b72a908e5f99e4c8b02888f2b945277fb6efe104f8a485664fc4f2af78c0"),
    ("conjecture --tb 8", 0, "4a5427e731d241b1046fcf2748d4fe011566e7b1f3bc98a09f7ed24278b00fbe"),
    ("conjecture --tb 9 --format json", 0, "ce199695442d9b7240d6b60d4da6e0ef0ad28c7a29d937f64e82c0699d1aff57"),
    ("bids --tb 5 --kind tie --bid 0 --format json", 0, "d717648a43e695e5fbb9f2151597b62a80774d5dc6f46e9f5797623471ac820e"),
    ("bids --tb 5 --kind holder-win --bid 3 --reduced", 0, "5056407bf912c7d44ea56243ac3c64df875bdf90433cf4fc481894142895b245"),
    ("check --tb 8 --x-max 40 --with-oracle --format json", 0, "ac230dc3d9acba1f6e58bdc077f193b858a75d6e12a8ab2960883b2a974ef682"),
    ("check --from-json TABLE", 0, "7a35accaf429cc80749d3e610d8d82f9135baab8851de4358c9efcb22131dfb6"),
    ("check --from-json TABLE --format json", 0, "79ad8b0dd2b8b929701e622129c1f394843be0d59fd845326ad8356719d503e8"),
    ("check --ruleset RULESET", 1, "58d71cdb9f2437deab3ae4880f4fa2b91eecd3d0f80facac2259f03df170a318"),
    ("check --ruleset RULESET --format json", 1, "e16ebaba9e68057a3afc6a54a68966e88cad396f3649d31010626433e41189b6"),
    # Captured before ``solve`` wrote its formats row by row.
    ("solve --tb 48 --x-max 579 --format json", 0, "84a183832ea729364fb2690eda888180f99d649fef6a7c785e05fd27c5f631a3"),
    ("solve --tb 24 --x-max 147 --format csv", 0, "0698d0bd0f95a4f875e0df2d0967145a7dc4270ccd1113929ccdfcd6d3f9d962"),
    ("solve --tb 24 --x-max 147", 0, "5feb7dcf522ee5557709f5b8458060add0d602a48ba4453341525c24190a87a6"),
]
SOLVE_OUT_TB6_X20_SHA256 = "98926765195e0c414efbee796b4934980f0041488b1d1bb32343818c54619c57"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command,exit_code,digest", GOLDEN_CORPUS)
def test_golden_corpus(tmp_path, capsys, command, exit_code, digest):
    table = tmp_path / "table.json"
    ruleset = tmp_path / "zugzwang.game"
    ruleset.write_text(ZUGZWANG_RULESET)
    assert main(["solve", "--tb", "6", "--x-max", "20", "--format", "json",
                 "--out", str(table)]) == 0
    assert _sha256(table.read_text(encoding="utf-8")) == SOLVE_OUT_TB6_X20_SHA256
    capsys.readouterr()
    argv = command.replace("TABLE", str(table)).replace("RULESET", str(ruleset))
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == exit_code
    assert _sha256(out) == digest


@st.composite
def outcome_tables(draw):
    tb, x_max = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    row = st.tuples(*[st.integers(-10**4, 10**4)] * (tb + 1))
    return OutcomeTable(tb, tuple(draw(st.lists(row, min_size=x_max + 1, max_size=x_max + 1))))


def _whole_documents(table):
    """Each ``solve`` format of ``table`` rendered as one string, the way the
    formats were written before ``solve`` streamed them."""
    tb, rows = table.tb, table.rows
    payload = {
        "schema_version": 1,
        "tb": tb,
        "x_max": table.x_max,
        "rows": [{"x": x, "values": list(row)} for x, row in enumerate(rows)],
    }
    csv = ["x,p,marker,value"]
    for x, row in enumerate(rows):
        csv.extend(f"{x},{p},L,{v}" for p, v in enumerate(row))
    lines = [["x \\ p^"] + [str(p) for p in range(tb, -1, -1)]]
    lines += [[str(x)] + [str(v) for v in reversed(row)] for x, row in enumerate(rows)]
    widths = [max(len(line[i]) for line in lines) for i in range(tb + 2)]
    text = ["  ".join(c.rjust(w) for c, w in zip(line, widths)) for line in lines]
    return {
        "json": json.dumps(payload, indent=2) + "\n",
        "csv": "\n".join(csv) + "\n",
        "table": "\n".join(text) + "\n",
    }


@given(outcome_tables())
def test_streamed_solve_formats_match_whole_documents(table):
    documents = _whole_documents(table)
    argv = ["solve", "--tb", str(table.tb), "--x-max", str(table.x_max), "--format"]
    for fmt, document in documents.items():
        with patch("bcs.solver.solve", return_value=table), \
                redirect_stdout(io.StringIO()) as out:
            assert main(argv + [fmt]) == 0
        assert out.getvalue() == document
    assert load_outcome_table_json(json.loads(documents["json"])) == table


def test_solve_json_memory_is_bounded_by_the_table(tmp_path):
    # Rendered row by row, the 370 KB document never exists in memory whole;
    # rendered whole, it held about 2.9 MB beyond the table.
    argv = ["solve", "--tb", "48", "--x-max", "579", "--format", "json",
            "--out", str(tmp_path / "t48.json")]
    assert main(argv) == 0  # imports and first-call caches are not counted
    tracemalloc.start()
    try:
        solver.solve(48, 579)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        main_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert main_peak - solve_peak < 256 * 1024


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_failed_solve_writes_no_out_file(tmp_path, capsys, monkeypatch, fmt):
    out = tmp_path / "table.out"
    argv = ["--format", fmt, "--out", str(out)]
    code, stdout, err = run_cli(capsys, "solve", "--tb", "-1", "--x-max", "3", *argv)
    assert (code, stdout) == (2, "") and err.startswith("error: ")
    assert not out.exists()

    kernel = solver._next_row
    # Row 1 reversed falls, so the kernel refuses it when asked for row 2.
    monkeypatch.setattr(solver, "_next_row", lambda tb, prev: kernel(tb, prev)[::-1])
    code, stdout, err = run_cli(capsys, "solve", "--tb", "5", "--x-max", "4", *argv)
    assert (code, stdout) == (1, "") and err.startswith("error: row falls from ")
    assert not out.exists()


_GOOD_TABLE = {
    "schema_version": 1,
    "tb": 1,
    "x_max": 1,
    "rows": [{"x": 0, "values": [0, 0]}, {"x": 1, "values": [-1, 1]}],
}


def _table_text(**changes):
    payload = json.loads(json.dumps(_GOOD_TABLE))
    for key, value in changes.items():
        if value is None:
            del payload[key]
        else:
            payload[key] = value
    return json.dumps(payload)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("this is not JSON", id="not-json"),
        pytest.param(_table_text(rows=None), id="no-rows"),
        pytest.param(_table_text(tb=None), id="no-tb"),
        pytest.param(_table_text(x_max=None), id="no-x_max"),
        pytest.param(_table_text(x_max=2), id="x_max-disagrees"),
        pytest.param(
            _table_text(rows=[{"x": 1, "values": [0, 0]}, {"x": 0, "values": [-1, 1]}]),
            id="heap-label",
        ),
        pytest.param(
            _table_text(rows=[{"x": 0, "values": [0, 0]}, {"x": 1, "values": [-1, 1, 1]}]),
            id="row-length",
        ),
        pytest.param(
            _table_text(rows=[{"x": 0, "values": [0, 0]}, {"x": 1, "values": [-1, "1"]}]),
            id="string-value",
        ),
        pytest.param(
            _table_text(rows=[{"x": 0, "values": [0, 0]}, {"x": 1, "values": [-1, True]}]),
            id="bool-value",
        ),
    ],
)
def test_check_from_json_rejects_malformed_table(tmp_path, capsys, text):
    path = tmp_path / "table.json"
    path.write_text(_table_text())
    assert run_cli(capsys, "check", "--from-json", str(path))[0] == 0
    path.write_text(text)
    code, out, err = run_cli(capsys, "check", "--from-json", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [
        "solve --tb -1 --x-max 2",
        "solve --tb 3 --x-max -1",
        "limits --tb -2",
        "automaton --tb -1",
        "conjecture --tb -1",
        "check --tb -1",
        "bids --tb 3 --kind tie --bid 9",
        "play --tb 3 --x 2 --p 9 --marker L --engine-side L",
        "play --tb 3 --x -1 --p 1 --marker L --engine-side L",
        "check",
        "check --with-oracle",
        "check --tb 3 --ruleset RULESET",
        "check --tb 3 --from-json TABLE",
        "check --ruleset RULESET --from-json TABLE",
        "check --from-json TABLE --with-oracle",
        "check --from-json TABLE --x-max 5",
        "check --ruleset RULESET --with-oracle",
        "check --ruleset RULESET --x-max 5",
    ],
)
def test_out_of_range_arguments_exit_usage(tmp_path, capsys, command):
    table, ruleset = tmp_path / "table.json", tmp_path / "zugzwang.game"
    table.write_text(_table_text())
    ruleset.write_text(ZUGZWANG_RULESET)
    argv = command.replace("TABLE", str(table)).replace("RULESET", str(ruleset))
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if "--x -1" in command:
        assert "heap" in err


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("node a\nnodd a\ntb 1\nbids all\n", id="unknown-directive"),
        pytest.param(
            "node a\nnode b\nedge L a b 1\nedge R b a -1\ntb 1\nbids all\n",
            id="cyclic",
        ),
        pytest.param("node a terminal 0\ntb 1\nbids 0,2\n", id="bid-out-of-range"),
        pytest.param("node a\nedge L a b 1\ntb 1\nbids all\n", id="undeclared-node"),
        pytest.param(
            "node a\nnode b terminal 0\nedge L a b 1\nedge R a b -1\ntb 2\nbids 2\n",
            id="nobody-can-bid",
        ),
    ],
)
def test_malformed_ruleset_exits_usage(tmp_path, capsys, text):
    path = tmp_path / "broken.game"
    path.write_text(text)
    code, out, err = run_cli(capsys, "check", "--ruleset", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_undeclared_targets_error_ignores_hash_seed(tmp_path):
    path = tmp_path / "broken.game"
    path.write_text("node a\nedge L a q 1\nedge L a z 1\ntb 1\nbids all\n")
    results = set()
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "bcs", "check", "--ruleset", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        results.add((proc.returncode, proc.stdout, proc.stderr))
    assert results == {
        (2, "", "error: move 'a' -> ['q', 'z'] references unknown positions\n")
    }


def _python(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_import_path_is_lean():
    # Loading ``dataclasses`` pulls in ``inspect``, ``ast`` and ``dis``: a
    # fixed cost on every ``bcs`` process.  All seven submodules are in
    # ``sys.modules`` after ``import bcs`` and after ``import bcs.cli``, where
    # the benchmark's tracer looks for them, but ``analysis``, ``general`` and
    # ``oracle`` are lazy: a ``limits`` run never executes them.
    code = (
        "import sys, types\n"
        "def bcs_modules(unrun=False):\n"
        "    print(sorted(name for name, module in sys.modules.items()\n"
        "                 if name.startswith('bcs.')\n"
        "                 and (type(module) is not types.ModuleType or not unrun)))\n"
        "import bcs\n"
        "bcs_modules()\n"
        "import bcs.cli\n"
        "bcs_modules()\n"
        "print(sorted(m for m in sys.modules if m in ('dataclasses', 'inspect')))\n"
        "bcs.cli.main(['limits', '--tb', '8', '--format', 'json'])\n"
        "bcs_modules(unrun=True)\n"
    )
    after_bcs, after_cli, heavy, *_, unrun = _python(code)
    layers = ["analysis", "automaton", "core", "general", "oracle", "solver"]
    assert after_bcs == str([f"bcs.{m}" for m in layers])
    assert after_cli == str(sorted(f"bcs.{m}" for m in [*layers, "cli"]))
    assert heavy == "[]"
    assert unrun == str(["bcs.analysis", "bcs.general", "bcs.oracle"])


def test_lazy_layers_run_on_first_use():
    code = (
        "import bcs\n"
        "print(all(r.passed for r in bcs.analysis.run_invariant_suite(4, 6)))\n"
        "from bcs.general import parse_ruleset\n"
        "print(parse_ruleset('node a terminal 1\\ntb 2\\nbids all\\n').tb)\n"
    )
    assert _python(code) == ["True", "2"]


def test_bids_kind_choices_are_the_bid_graph_kinds():
    bids = build_parser()._subparsers._group_actions[0].choices["bids"]
    kind = next(action for action in bids._actions if action.dest == "kind")
    assert list(kind.choices) == sorted(k.value for k in BidGraphKind)
