import ast
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from unittest.mock import patch

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest
from hypothesis import given, strategies as st

import bcs
from bcs import solver
from bcs.automaton import automaton_fixed_point
from bcs.cli import load_outcome_table_json, main
from bcs.core import BID_KINDS, OutcomeTable, bid_graph, convergence_bound

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


def _cycle_verdicts(capsys, tb):
    """``{seed: verdict}`` from the text ``automaton`` output."""
    code, out, _ = run_cli(capsys, "automaton", "--tb", str(tb))
    assert code == 0
    seeds = re.findall(r"^seed (\w+) \(2-cycle of the recursion: (holds|FAILS)\)$", out, re.M)
    assert len(seeds) == out.count("seed ")
    return dict(seeds)


def test_automaton_verdict_is_one_step_of_the_recursion(capsys):
    # the closed form is a 2-cycle at every tb
    for tb in range(257):
        name = "alpha" if tb % 2 == 0 else "beta_truncated"
        assert _cycle_verdicts(capsys, tb) == {name: "holds"}, tb


def test_automaton_verdict_fails_on_a_closed_form_with_one_cell_flipped(capsys, monkeypatch):
    even, odd = automaton_fixed_point(8)
    assert even == TB8_EVEN_LIMIT and even[2] == -2
    flipped = (even[:2] + (0,) + even[3:], odd)  # still nondecreasing
    monkeypatch.setattr("bcs.automaton.automaton_fixed_point", lambda tb: flipped)
    assert _cycle_verdicts(capsys, 8) == {"alpha": "FAILS"}


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


@pytest.mark.parametrize("tb", range(41))
def test_a_solved_table_read_back_from_json_is_the_same_record(capsys, tb):
    bound, x_star = convergence_bound(tb), solver.limit_rows(tb).x_star
    for x_max in (bound + 2, bound + 30, max(x_star - 1, 0)):
        code, out, _ = run_cli(
            capsys, "solve", "--tb", str(tb), "--x-max", str(x_max), "--format", "json"
        )
        assert code == 0
        assert load_outcome_table_json(json.loads(out)) == solver.solve(tb, x_max)


def test_conjecture_text(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--tb", "9")
    assert code == 0
    assert "update rule on solver limits: holds" in out
    assert "beta_truncated: exact" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_conjecture_calls_limit_rows_once(capsys, monkeypatch, fmt):
    calls, limit_rows = [], solver.limit_rows

    def counted(tb):
        calls.append(tb)
        return limit_rows(tb)

    monkeypatch.setattr("bcs.solver.limit_rows", counted)
    assert run_cli(capsys, "conjecture", "--tb", "8", "--format", fmt)[0] == 0
    assert calls == [8]


def test_conjecture_exits_1_when_the_limits_break_the_update_rule(capsys, monkeypatch):
    monkeypatch.setattr(
        "bcs.solver.limit_rows", lambda tb: solver.LimitRows((0,), (0,), 0)
    )
    code, out, _ = run_cli(capsys, "conjecture", "--tb", "0")
    assert code == 1
    assert out == (
        "tb = 0  B(tb) = 1  x_star = 0\n"
        "update rule on solver limits: FAILS\n"
        "alpha: none\n"
        "  odd p=0: limit 0 vs automaton 1\n"
    )
    code, out, _ = run_cli(capsys, "conjecture", "--tb", "0", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["update_rule_holds"] is False
    assert payload["matches"] == {"alpha": "none"}
    assert payload["diffs"] == {"alpha": [["odd", 0, 0, 1]]}


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


@pytest.mark.parametrize(
    "tb,kind,bid,reduced",
    [(tb, kind, bid, reduced) for tb in range(14) for kind in BID_KINDS
     for bid in range(tb + 1) for reduced in (False, True)],
)
def test_bids_json_streams_the_bytes_of_the_whole_document(capsys, tb, kind, bid, reduced):
    # The nodes and edges are rendered one at a time; an empty list still reads "[]".
    argv = ["bids", "--tb", str(tb), "--kind", kind, "--bid", str(bid), "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, *(["--reduced"] if reduced else []))
    label = f"{bid}{'T' if kind == 'tie' else 'W'}"
    edges = [
        {"from": e.src, "to": e.dst, "label": label, "dominated": e.dominated}
        for e in bid_graph(tb, kind, bid)
        if not (reduced and e.dominated)
    ]
    payload = {"schema_version": 1, "tb": tb, "kind": kind, "bid": bid, "reduced": reduced,
               "nodes": list(range(tb + 1)), "edges": edges}
    assert (code, out) == (0, json.dumps(payload, indent=2) + "\n")
    assert ('"edges": []' in out) == (not edges)


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

    from bcs.core import Side, classify_bid, make_position

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
    pos, score = make_position(9, 3, 4, Side.RIGHT), 0
    for l, r in bids:
        bid, pos = classify_bid(pos, l, r)
        score += 1 if bid.winner.side is Side.LEFT else -1
    printed = int(re.search(r"final score ([+-]\d+)", out).group(1))
    assert (pos.heap, score) == (0, printed)


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


def _env(unbuffered):
    """This process's environment with ``PYTHONUNBUFFERED`` set or unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def _bcs_into(stdout, command, unbuffered):
    """Run ``bcs command`` in a fresh process writing to ``stdout``."""
    return subprocess.run(
        [sys.executable, "-m", "bcs", *command.split()],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=_env(unbuffered), timeout=60,
    )


# Two outputs longer than stdout's buffer, which fail while being written,
# and one shorter, which fails only when flushed.
_OUTPUTS = [
    "solve --tb 5 --x-max 100000 --format table",
    "solve --tb 48 --x-max 579 --format json",
    "limits --tb 8 --format json",
]
_BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@_BUFFERING
@pytest.mark.parametrize("command", _OUTPUTS)
def test_a_closed_reader_ends_the_output_quietly(command, unbuffered):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first byte
    try:
        proc = _bcs_into(write, command, unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


@_BUFFERING
def test_a_reader_that_stops_early_ends_the_output_quietly(unbuffered):
    with subprocess.Popen(
        [sys.executable, "-m", "bcs", *_OUTPUTS[0].split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(unbuffered),
    ) as proc:
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()  # as ``| head -n 2`` does
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert head[1].split()[0] == "0"
    assert (code, err) == (141, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@_BUFFERING
@pytest.mark.parametrize("command", _OUTPUTS)
def test_a_full_device_is_one_error_line(command, unbuffered):
    with open("/dev/full", "w") as full:
        proc = _bcs_into(full, command, unbuffered)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")


# A row of ``tb + 1`` values takes 8 bytes a value.  With the child's address
# space capped at 16 bytes a budget, row 0 fits and the kernel's first row
# does not, so the child fails at once.  Only Linux enforces the cap; each
# case starts one child, never uncapped.
_TB_PAST_MEMORY = 20_000_000
_RLIMIT_AS = pytest.mark.skipif(
    resource is None or not sys.platform.startswith("linux"), reason="needs an enforced RLIMIT_AS"
)


def _cap_address_space(cap):
    resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))


@_RLIMIT_AS
@pytest.mark.parametrize("command", ["limits", "solve --x-max 3 --format csv"])
def test_a_total_budget_that_exhausts_memory_is_one_error_line(command):
    proc = subprocess.run(
        [sys.executable, "-m", "bcs", *command.split(), "--tb", str(_TB_PAST_MEMORY)],
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: _cap_address_space(16 * _TB_PAST_MEMORY),
    )
    error = f"error: out of memory at total budget {_TB_PAST_MEMORY}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)


# A command that fills the address space with small objects of every size,
# then frees room for about two traceback objects and raises.  The objects
# stay alive, held by the traceback, until ``main`` has left its ``except``
# clause: an error line made inside the clause fails for want of memory.
_FILL_MEMORY = """
import sys
import bcs.cli

def fill(args):
    spare = [bytes(24) for _ in range(4)]
    held = None
    for size in range(512, 1, -8):
        try:
            while True:
                held = [held, bytes(size)]
        except MemoryError:
            pass
    del spare
    raise MemoryError

bcs.cli.cmd_limits = fill
sys.exit(bcs.cli.main(["limits", "--tb", "5"]))
"""


@_RLIMIT_AS
@_BUFFERING
def test_memory_full_of_small_objects_is_freed_before_the_error_line(unbuffered):
    proc = subprocess.run(
        [sys.executable, "-c", _FILL_MEMORY], capture_output=True, text=True, timeout=60,
        env=_env(unbuffered), preexec_fn=lambda: _cap_address_space(128 << 20),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: out of memory at total budget 5\n")


@_RLIMIT_AS
def test_a_bid_graph_larger_than_the_address_space_is_written_as_it_is_made(tmp_path):
    # Held whole, the tb-10^6 graph ran out of memory under a 128 MB cap.
    # Written as it is made, it runs in under 28 MB, 8 MB of which is
    # ``zero_row``'s refusal row, so it passes under 64 MB with room to spare.
    tb, out = 1_000_000, tmp_path / "bids.dot"
    with open(out, "w") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "bcs", "bids", "--tb", str(tb), "--kind", "tie", "--bid", "0"],
            stdout=fh, stderr=subprocess.PIPE, text=True, timeout=60,
            preexec_fn=lambda: _cap_address_space(64 << 20),
        )
    assert (proc.returncode, proc.stderr) == (0, "")
    with open(out) as fh:
        # The header, tb + 1 nodes, an edge from every budget at a tied bid 0, "}".
        assert sum(1 for _ in fh) == 1 + 2 * (tb + 1) + 1


# sha256 of stdout and the exit code of each command, captured before the
# single-table refactor; success output must stay byte-identical.  TABLE is
# the file written by ``solve --tb 6 --x-max 20 --format json --out``,
# RULESET the zugzwang ruleset.  The three text ``automaton`` digests were
# re-taken when each seed's verdict became one step of the recursion (the
# 2-cycle check) in place of the update rule its pair is built by.  The six
# odd-tb ``automaton`` and ``conjecture`` digests were re-taken when the
# non-negative-residue ``beta_euclidean`` seed was dropped: each output is
# the old one with its ``beta_euclidean`` entries removed.
GOLDEN_CORPUS = [
    ("solve --tb 5 --x-max 2", 0, "65c9d616c467494757d85a3406b2f9caf5cb2d75bd049ddafd732888bbde7321"),
    ("solve --tb 9 --x-max 9 --format json", 0, "572b8ef0163b95e0eb3ec40b19865078a75f7c948c6358ad765205350256619e"),
    ("limits --tb 8", 0, "27ff5e959ca7093d6036365eec61bb3666aeb0624fdae2b2bbffad9358706f53"),
    ("check --tb 5 --x-max 30", 0, "8182e2edceca0d165ea740b38644c1b339a8a2bee8c4564b90803ee583032575"),
    ("check --tb 8 --x-max 40 --with-oracle", 0, "3a19e7f1684c338b7be8b11e0dfd91fc31d7f32565e8a2d0d78083f940520197"),
    ("automaton --tb 9", 0, "3c13bd08ea190bfef9f8ee0346108c1f8db34a64b31a635c6951679ab69883d4"),
    ("conjecture --tb 9", 0, "56edbc02055a8915e60bab683122c0e70a448dc5bd25ebebc10ec8e54bc0d9a4"),
    ("bids --tb 5 --kind tie --bid 0 --format dot", 0, "d5ca4cac7bce33b5002e9638ba7df01c7a64f720270a267587ffa20ebdc72be2"),
    ("solve --tb 5 --x-max 2 --format csv", 0, "15fb44bc387124d948343d96527044da0b037b7c897c9b99c1ec772d4be837c5"),
    ("solve --tb 5 --x-max 2 --format json", 0, "2b24cba5adeb5cf78eb032677ea14077e396b75f3a3c2d1590c103d4cc721901"),
    ("limits --tb 0", 0, "726b1640bb100c19e41abbb392351b7a3bbb47c3a30f152f7817494d25a3c2f0"),
    ("limits --tb 8 --format json", 0, "30574b963326fcaa8b7eca1923431c45af0a8b2372cdf9497b8e33138a14e86f"),
    ("automaton --tb 8", 0, "c1c81c71d4ddad7231fd25014988aa67fd5ac2e3bb5d7ffa70d55488cf806bd4"),
    ("automaton --tb 8 --format json", 0, "a0a8b5227e779ac8523360cc3aa0f0a4ca5c07ebe44ba55ccdf4385777358f4d"),
    ("automaton --tb 9 --format json", 0, "0365c3a59cdaf5a2af53166e484998875fbc6b1f5a3727b6a20a04636191b1dc"),
    ("conjecture --tb 8", 0, "4a5427e731d241b1046fcf2748d4fe011566e7b1f3bc98a09f7ed24278b00fbe"),
    ("conjecture --tb 9 --format json", 0, "c31053173af5b6a5f1ea6c8b0018b8fcb77671cdf80f2671a5ed2c6cda386037"),
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
    # The (even, odd) pair at its edges: tb 0 and 1, and an odd tb in JSON.
    ("conjecture --tb 0", 0, "f7e526bc40f064a5ed368cbac11cbebe050ead767c25cf4c1f2f731daa01a066"),
    ("conjecture --tb 1 --format json", 0, "147c1c9974cc18d1b1adc94973a13be5d1036e49880f3ea0a5dc609f5410d8df"),
    ("automaton --tb 0 --format json", 0, "d4a81dd6bf5d559d809a40bc799e822b8505484b3608b99dbb3ce74223a76b46"),
    ("automaton --tb 1", 0, "c562b9d5f3d60ce0feb11dbd3db99b564e4dc6a28dfcb575419019ddf1aacdd5"),
    ("limits --tb 9 --format json", 0, "072ed44129efcfd9a1095e6cd5c872789de7724483a33d0d506efe07f316b2d5"),
]
SOLVE_OUT_TB6_X20_SHA256 = "98926765195e0c414efbee796b4934980f0041488b1d1bb32343818c54619c57"

# sha256 of the exit code, stdout and stderr, joined by NULs, of each command
# reading ``stdin``, captured before ``main`` printed its errors from one
# handler and ``play`` read its sides as ``Side`` values.  The first game is
# the opening example; the second re-prompts twice before its first bid.
GOLDEN_STREAMS = [
    ("play --tb 5 --x 2 --p 1 --marker L --engine-side R", "0\n1\n", "178b1ef963fd9c4ff506f46860ddd5c275268f43d9a4c4197284f30ce08d94ab"),
    ("play --tb 7 --x 3 --p 5 --marker R --engine-side L", "x\n9\n1\n0\n2\n", "9d5dfe94bedebb264a200810ac441e7af001b3ce6c164792ed9ca3f2f9146259"),
    ("solve --tb -1 --x-max 3", "", "a446d0540d93f260ce3af7f2f325f0236e1483fba396d1cd68c9988044956432"),
    ("check", "", "9e4edfccda0d708f8b988dd57d9b600cde3bebbef484be665656980b054a8824"),
    ("bids --tb 3 --kind tie --bid 9", "", "7c36219f8f692e118143f65ae9ad2c077cb07234b3ff984c63c960fdb7c9a9a6"),
]


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


@pytest.mark.parametrize("command,stdin,digest", GOLDEN_STREAMS)
def test_golden_streams(capsys, monkeypatch, command, stdin, digest):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))  # ``input`` prompts on stdout
    code, out, err = run_cli(capsys, *command.split())
    assert _sha256(f"{code}\0{out}\0{err}") == digest


@st.composite
def outcome_tables(draw):
    tb, x_max = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    row = st.tuples(*[st.integers(-10**4, 10**4)] * (tb + 1))
    return OutcomeTable(tb, tuple(draw(st.lists(row, min_size=x_max + 1, max_size=x_max + 1))))


def _whole_documents(table):
    """Each ``solve`` format of ``table`` rendered as one string, the way the
    formats were written before ``solve`` streamed them."""
    tb, rows = table.tb, list(map(table.row, range(table.x_max + 1)))
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


def _solve_peak_beyond_the_table(tb, x_max, fmt, out):
    """The peak memory of ``bcs solve`` writing ``out`` less that of solving."""
    argv = ["solve", "--tb", str(tb), "--x-max", str(x_max), "--format", fmt,
            "--out", str(out)]
    assert main(argv) == 0  # imports and first-call caches are not counted
    tracemalloc.start()
    try:
        solver.solve(tb, x_max)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        main_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return main_peak - solve_peak


def test_solve_json_memory_is_bounded_by_the_table(tmp_path):
    # Rendered row by row, the 370 KB document never exists in memory whole;
    # rendered whole, it held about 2.9 MB beyond the table.
    assert _solve_peak_beyond_the_table(48, 579, "json", tmp_path / "t48.json") < 256 * 1024


def test_solve_text_table_memory_is_bounded_by_the_table(tmp_path):
    # The column widths come from the stored rows and each heap's line is
    # rendered as it is written; a list of all 50,001 rows, and one column
    # per budget built from it, held about 1.4 MB beyond the table.
    assert _solve_peak_beyond_the_table(5, 50_000, "table", tmp_path / "t5.txt") < 256 * 1024


def test_bids_json_memory_is_bounded_by_the_refusal_row(tmp_path):
    # Nodes and edges are rendered as they are written: the peak is
    # ``zero_row``'s 800 KB tuple and about 49 KB more.  Held whole, the
    # graph and its "nodes" list peaked at 26 MB.
    tb = 100_000
    argv = ["bids", "--tb", str(tb), "--kind", "tie", "--bid", "0", "--format", "json",
            "--out", str(tmp_path / "b.json")]
    assert main(argv) == 0  # imports and first-call caches are not counted
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (tb + 1) + 256 * 1024


class _CountedWrites(io.StringIO):
    """A stdout that counts the calls of its ``write``."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "command",
    ["solve --tb 48 --x-max 579 --format json",
     "bids --tb 100000 --kind tie --bid 0 --format json",
     "bids --tb 100000 --kind tie --bid 0 --format dot"],
)
def test_output_is_written_in_blocks_of_64_kib(command):
    # Unbuffered, each write is a system call: one a line or row cost a third
    # of the run time of a large ``bids``.
    out = _CountedWrites()
    with redirect_stdout(out):
        assert main(command.split()) == 0
    assert 1 <= out.writes <= len(out.getvalue().encode()) // 65536 + 1


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_failed_solve_writes_no_out_file(tmp_path, capsys, monkeypatch, fmt):
    out = tmp_path / "table.out"
    argv = ["--format", fmt, "--out", str(out)]
    code, stdout, err = run_cli(capsys, "solve", "--tb", "-1", "--x-max", "3", *argv)
    assert (code, stdout) == (2, "") and err.startswith("error: ")
    assert not out.exists()

    kernel = solver.next_row
    # Row 1 reversed falls, so the kernel refuses it when asked for row 2.
    monkeypatch.setattr(solver, "next_row", lambda tb, prev: kernel(tb, prev)[::-1])
    code, stdout, err = run_cli(capsys, "solve", "--tb", "5", "--x-max", "4", *argv)
    assert (code, stdout) == (1, "") and err.startswith("error: row falls from ")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_out_dash_is_stdout(tmp_path, capsys, monkeypatch, fmt):
    monkeypatch.chdir(tmp_path)
    argv = ("solve", "--tb", "5", "--x-max", "4", "--format", fmt)
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and stdout
    assert run_cli(capsys, *argv, "--out", "-") == (code, stdout, err)
    assert list(tmp_path.iterdir()) == []


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
        pytest.param("[" * 1000, id="nested-too-deep"),
        pytest.param(json.dumps([_GOOD_TABLE]), id="top-level-array"),
        pytest.param(_table_text(schema_version=True), id="schema-true"),
        pytest.param(_table_text(schema_version=1.0), id="schema-float"),
        pytest.param(_table_text(schema_version=2), id="schema-2"),
        pytest.param(_table_text(schema_version=None), id="no-schema"),
        pytest.param(_table_text(tb=-1), id="tb-negative"),
        pytest.param(_table_text(tb=True), id="tb-true"),
        pytest.param(_table_text(rows=[]), id="rows-empty"),
        pytest.param(_table_text(rows={"x": 0, "values": [0, 0]}), id="rows-not-list"),
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
    if not text.startswith(("{", "[{")):  # refused by the JSON reader, which names the file
        assert str(path) in err


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
        "bids --tb -1 --kind tie --bid 0",
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
        # Too large to build row 0: refused before anything is allocated.
        "limits --tb 2305843009213693952",
        "limits --tb 10000000000000000000",
        "solve --tb 2305843009213693952 --x-max 3",
        "solve --tb 2305843009213693952 --x-max -1",
        "conjecture --tb 10000000000000000000",
        "check --tb 2305843009213693952",
        "play --tb 10000000000000000000 --x 2 --p 1 --marker L --engine-side R",
        "automaton --tb 10000000000000000000",
        "automaton --tb 2305843009213693952 --format json",
        "bids --tb 10000000000000000000 --kind tie --bid 0",
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
    if "--tb -" in command:
        assert "total budget" in err
    if re.search(r"--tb \d{19}", command):
        assert "is too large to hold a row" in err


def test_check_takes_any_x_max(capsys):
    code, out, err = run_cli(capsys, "check", "--tb", "5", "--x-max", str(10**19))
    assert (code, err) == (0, "")
    assert out.count("tb=5 x<=10000000000000000000\n") == len(out.splitlines()) == 10


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
        pytest.param(
            "node a\nnode b terminal 0\nedge R a b 1 junk\ntb 1\nbids all\n",
            id="edge-extra-token",
        ),
        pytest.param("node a terminal 0\ntb 1 7\nbids all\n", id="tb-extra-token"),
        pytest.param("node a terminal 0\ntb 1\ntb 2\nbids all\n", id="second-tb"),
        pytest.param("node a terminal 0\ntb 1\nbids all\nbids 0\n", id="second-bids"),
        pytest.param(
            "node a\nnode b terminal 0\nedge R a b 1\nedge R a b 2\ntb 1\nbids all\n",
            id="second-edge",
        ),
        pytest.param("node\nnode a terminal 0\ntb 1\nbids all\n", id="node-no-name"),
        pytest.param("node a terminal 0\ntb 1\nbids\n", id="bids-no-argument"),
        pytest.param("node a terminal 0\ntb 1\nbids 1,x\n", id="bid-not-integer"),
    ],
)
def test_malformed_ruleset_exits_usage(tmp_path, capsys, text):
    path = tmp_path / "broken.game"
    path.write_text(text)
    code, out, err = run_cli(capsys, "check", "--ruleset", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "list index out of range" not in err


@pytest.mark.parametrize("option", ["--from-json", "--ruleset"])
def test_non_utf8_input_file_exits_usage_naming_it(tmp_path, capsys, option):
    path = tmp_path / "latin.bin"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "check", option, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{path} is not UTF-8" in err


@pytest.mark.parametrize(
    "text, twice",
    [
        ("node a\nnode b terminal 0\nnode b\nedge L a b 1\ntb 1\nbids all\n", "b"),
        ("node a\nnode a\nnode b terminal 0\nedge L a b 1\ntb 1\nbids all\n", "a"),
    ],
    ids=["target", "source"],
)
def test_position_declared_twice_exits_usage(tmp_path, capsys, text, twice):
    path = tmp_path / "twice.game"
    path.write_text(text)
    code, out, err = run_cli(capsys, "check", "--ruleset", str(path))
    assert (code, out, err) == (2, "", f"error: position {twice!r} declared twice\n")


def _unitary_text(tb, heaps):
    lines = [f"node {x}" for x in range(1, heaps + 1)] + ["node 0 terminal 0"]
    for x in range(1, heaps + 1):
        lines += [f"edge L {x} {x - 1} 1", f"edge R {x} {x - 1} -1"]
    return "\n".join(lines + [f"tb {tb}", "bids all"]) + "\n"


# Without a limit, the first two fill ever longer lists until killed and the
# third evaluates about 10^11 payoffs over a small table.
@pytest.mark.parametrize(
    "text",
    [
        pytest.param("node a terminal 0\ntb 99999999999\nbids 0\n", id="states"),
        pytest.param("node a terminal 0\ntb 99999999999\nbids all\n", id="bid-set"),
        pytest.param(_unitary_text(3000, 2), id="payoffs"),
    ],
)
def test_ruleset_too_large_to_fill_exits_usage(tmp_path, text):
    path = tmp_path / "large.game"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "bcs", "check", "--ruleset", str(path)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ruleset fill of up to ")
    assert proc.stderr.endswith(" payoffs exceeds the limit of 10,000,000\n")
    assert proc.stderr.count("\n") == 1


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
    # the benchmark's tracer looks for them, but every layer is lazy: ``import
    # bcs`` runs none, ``import bcs.cli`` runs ``core``, and a ``limits`` run
    # never executes ``analysis``, ``general`` or ``oracle``.
    code = (
        "import sys, types\n"
        "def bcs_modules(unrun=False):\n"
        "    print(sorted(name for name, module in sys.modules.items()\n"
        "                 if name.startswith('bcs.')\n"
        "                 and (type(module) is not types.ModuleType or not unrun)))\n"
        "def heavy():\n"
        "    print(sorted(m for m in sys.modules if m in ('dataclasses', 'inspect')))\n"
        "import bcs\n"
        "bcs_modules()\n"
        "bcs_modules(unrun=True)\n"
        "import bcs.cli\n"
        "bcs_modules()\n"
        "bcs_modules(unrun=True)\n"
        "heavy()\n"
        "bcs.cli.main(['limits', '--tb', '8', '--format', 'json'])\n"
        "bcs_modules(unrun=True)\n"
        "heavy()\n"
    )
    after_bcs, unrun_bcs, after_cli, unrun_cli, heavy, *_, unrun, heavy_after = _python(code)
    layers = ["analysis", "automaton", "core", "general", "oracle", "solver"]
    assert after_bcs == unrun_bcs == str([f"bcs.{m}" for m in layers])
    assert after_cli == str(sorted(f"bcs.{m}" for m in [*layers, "cli"]))
    assert unrun_cli == str([f"bcs.{m}" for m in layers if m != "core"])
    assert heavy == heavy_after == "[]"
    assert unrun == str(["bcs.analysis", "bcs.automaton", "bcs.general", "bcs.oracle"])


# Prints the layers that have run: a lazy module is not yet a plain module.
_LAYERS_RUN = (
    "import sys, types\n"
    "print(' '.join(sorted(name.removeprefix('bcs.') for name, module in sys.modules.items()\n"
    "                      if name.startswith('bcs.') and name != 'bcs.cli'\n"
    "                      and type(module) is types.ModuleType)))\n"
)
_CHECKS = {"analysis", "core", "solver"}


def _runs(argv, layers):
    return pytest.param(argv, layers, id=" ".join(argv))


@pytest.mark.parametrize(
    "argv, layers",
    [
        pytest.param(None, set(), id="import bcs"),
        pytest.param([], {"core"}, id="import bcs.cli"),
        _runs(["limits", "--tb", "8", "--format", "json"], {"core", "solver"}),
        _runs(["conjecture", "--tb", "9", "--format", "json"], {"automaton", "core", "solver"}),
        _runs(["solve", "--tb", "4", "--x-max", "6", "--format", "json"], {"core", "solver"}),
        # heap 0: the game is over before any bid is read
        _runs(["play", "--tb", "5", "--x", "0", "--p", "1", "--marker", "L", "--engine-side", "R"],
              {"core", "solver"}),
        _runs(["automaton", "--tb", "8", "--format", "json"], {"automaton", "core"}),
        # the text output's 2-cycle verdict is one step of the solver's kernel
        _runs(["automaton", "--tb", "8"], {"automaton", "core", "solver"}),
        _runs(["check", "--ruleset", "{ruleset}"], {"core", "general"}),
        _runs(["check", "--from-json", "{table}"], _CHECKS),
        _runs(["bids", "--tb", "4", "--kind", "tie", "--bid", "1"], {"core"}),
        _runs(["check", "--tb", "4"], _CHECKS),
        _runs(["check", "--tb", "4", "--with-oracle"], {*_CHECKS, "oracle"}),
    ],
)
def test_each_command_runs_only_the_layers_it_calls(tmp_path, argv, layers):
    # ``argv`` None is a bare ``import bcs``; ``[]`` is ``import bcs.cli`` alone.
    ruleset, table = tmp_path / "zugzwang.game", tmp_path / "t4.json"
    ruleset.write_text(ZUGZWANG_RULESET, encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert main(["solve", "--tb", "4", "--x-max", "6", "--format", "json", "--out", str(table)]) == 0
    if argv is None:
        code = "import bcs\n"
    else:
        argv = [a.format(ruleset=ruleset, table=table) for a in argv]
        code = "import bcs.cli\n"
        if argv:
            code += (
                "import contextlib, io\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    bcs.cli.main({argv!r})\n"
            )
    (ran,) = _python(code + _LAYERS_RUN)
    assert set(ran.split()) == layers


@pytest.mark.parametrize("name", bcs.__all__)
def test_root_export_is_the_layers_own_object(name, monkeypatch):
    export = getattr(bcs, name)
    assert export.__module__ in ("bcs.core", "bcs.solver")
    layer = sys.modules[export.__module__]
    assert export is getattr(layer, name)
    # Never a copy taken once: the root follows a patched layer.
    monkeypatch.setattr(layer, name, object())
    assert getattr(bcs, name) is getattr(layer, name)


def test_root_star_import_binds_exactly_all():
    namespace = {}
    exec("from bcs import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(bcs.__all__)


def test_root_dir_lists_the_exports_layers_and_version():
    layers = ["analysis", "automaton", "core", "general", "oracle", "solver"]
    assert {*bcs.__all__, *layers, "__version__"} <= set(dir(bcs))
    assert dir(bcs) == sorted(dir(bcs))


def test_root_has_no_other_attribute():
    with pytest.raises(AttributeError, match="^module 'bcs' has no attribute 'no_such_name'$"):
        bcs.no_such_name


def _public_names_bound(tree):
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_every_public_name_has_a_caller_an_export_or_a_readme_line():
    # A top-level name of a layer that no code in ``src/`` reads, that the
    # root does not export and that README does not name is surface nobody
    # uses: a test fixture belongs in ``tests/``, and a second statement of
    # a rule belongs nowhere.
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(bcs.__file__).parent.glob("*.py")}
    read = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {w for span in re.findall(r"`([^`\n]+)`", readme) for w in re.findall(r"\w+", span)}
    unused = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _public_names_bound(tree)
        if not name.startswith("_") and name not in read | bcs._EXPORTS.keys() | documented
    )
    assert unused == []


def test_lazy_layers_run_on_first_use():
    code = (
        "import bcs\n"
        "print(all(r.passed for r in bcs.analysis.run_invariant_suite_on(bcs.solve(4, 6))))\n"
        "from bcs.general import parse_ruleset\n"
        "print(parse_ruleset('node a terminal 1\\ntb 2\\nbids all\\n').tb)\n"
    )
    assert _python(code) == ["True", "2"]
