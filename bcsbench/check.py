"""Correctness checks for every op, kept apart from the code paths timed.

Limit rows are compared with the paper's closed forms, written out here
again rather than taken from ``bcs.automaton``; sampled cells and engine
moves are compared with the brute-force ``bcs.oracle``, which shares no
code with the solver.  Each checker returns None when the op is right and
a one-line reason when it is not.
"""

from __future__ import annotations

import json

from gen import ORACLE_HEAP_MAX, convergence_bound

INVARIANTS = (
    "budget_monotonicity",
    "tie_monotonicity",
    "marker_monotonicity",
    "marker_dominance",
    "marker_worth",
    "sign_border",
    "bounded_outcome",
    "budget_lipschitz",
    "heap_monotonicity",
    "parity",
)


def closed_form_rows(tb: int) -> tuple[list[int], list[int]]:
    """Stabilized (even-heap, odd-heap) rows: ``alpha`` for even ``tb``,
    truncated-residue ``beta`` for odd ``tb``, the other parity from the
    automaton update ``A(j, p) = 1 - A(j', tb - p)``."""
    if tb % 2 == 0:
        even = []
        for p in range(tb + 1):
            d = 2 * p - tb
            even.append((d + 1) // 2 if d % 4 == 0 else (d + 2) // 2)
        odd = [1 - even[tb - p] for p in range(tb + 1)]
    else:
        odd = []
        for p in range(tb + 1):
            d = 2 * p - tb
            up = 1 if d > 0 else 0
            odd.append(d // 2 + up if abs(d) % 4 == 1 else (d + 1) // 2 + up)
        even = [1 - odd[tb - p] for p in range(tb + 1)]
    return even, odd


def _limits_common(tb: int, data: dict) -> str | None:
    bound = convergence_bound(tb)
    if data.get("schema_version") != 1 or data.get("tb") != tb:
        return f"bad envelope {data.get('schema_version')!r}/{data.get('tb')!r}"
    if data.get("bound") != bound:
        return f"bound {data.get('bound')} != B({tb}) = {bound}"
    if not 0 <= data["x_star"] <= bound:
        return f"x_star {data['x_star']} outside 0..{bound}"
    even, odd = closed_form_rows(tb)
    if data["even"] != even or data["odd"] != odd:
        return "limit rows differ from the closed forms"
    return None


def check_limits(op: dict, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    return _limits_common(op["tb"], json.loads(stdout))


def check_conjecture(op: dict, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    tb = op["tb"]
    data = json.loads(stdout)
    bad = _limits_common(tb, data)
    if bad:
        return bad
    if data.get("update_rule_holds") is not True:
        return "update rule fails on the limit rows"
    mode = "alpha" if tb % 2 == 0 else "beta_truncated"
    if data["matches"].get(mode) != "exact":
        return f"{mode} verdict {data['matches'].get(mode)!r}"
    return None


def oracle_cell(tb: int, heap: int, p: int, marker: str) -> int:
    from bcs.core import Side, make_position
    from bcs.oracle import oracle_value

    side = Side.LEFT if marker == "L" else Side.RIGHT
    return oracle_value(tb, make_position(tb, heap, p, side))


def row_value(rows: list[list[int]], tb: int, heap: int, p: int, marker: str) -> int:
    """Value of a position from marker-Left rows, by the zero-sum flip."""
    return rows[heap][p] if marker == "L" else -rows[heap][tb - p]


def check_table_rows(tb: int, rows: list[list[int]], cells) -> str | None:
    """A solved table up to ``B(tb)+2``: shape, the last two rows against the
    closed forms, and ``cells`` ``[heap, p, marker]`` against the oracle."""
    x_max = convergence_bound(tb) + 2
    if len(rows) != x_max + 1 or any(len(r) != tb + 1 for r in rows):
        return f"table shape {len(rows)} rows, expected {x_max + 1} of {tb + 1}"
    even, odd = closed_form_rows(tb)
    for x in (x_max - 1, x_max):
        if rows[x] != (even if x % 2 == 0 else odd):
            return f"row {x} differs from the closed form"
    for heap, p, marker in cells:
        got = row_value(rows, tb, heap, p, marker)
        want = oracle_cell(tb, heap, p, marker)
        if got != want:
            return f"cell ({heap}, {p}, {marker}) = {got}, oracle {want}"
    return None


def check_solve(op: dict, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    tb = op["tb"]
    data = json.loads(stdout)
    x_max = convergence_bound(tb) + 2
    if data.get("schema_version") != 1 or data.get("tb") != tb or data.get("x_max") != x_max:
        return "bad envelope"
    entries = data["rows"]
    if [e["x"] for e in entries] != list(range(len(entries))):
        return "row labels out of order"
    return check_table_rows(tb, [e["values"] for e in entries], op["oracle_cells"])


def _check_reports(data: dict, tb: int, x_max: int, names: tuple) -> str | None:
    reports = data["reports"]
    if tuple(r["name"] for r in reports) != names:
        return f"reports {[r['name'] for r in reports]}"
    for r in reports:
        want_x = min(x_max, 40) if r["name"] == "oracle_equivalence" else x_max
        if r["tb"] != tb or r["x_max"] != want_x:
            return f"{r['name']} ran on tb={r['tb']} x<={r['x_max']}"
        if not r["passed"]:
            return f"{r['name']} failed: {r['counterexample']}"
    if data.get("passed") is not True:
        return "overall verdict not passed"
    return None


def check_oracle(op: dict, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    tb = op["tb"]
    names = INVARIANTS + ("oracle_equivalence",)
    return _check_reports(json.loads(stdout), tb, convergence_bound(tb) + 2, names)


def check_json(op: dict, code: int, stdout: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    tb = op["tb"]
    return _check_reports(json.loads(stdout), tb, convergence_bound(tb) + 2, INVARIANTS)


ZUGZWANG_WITNESS = {
    "property": "B", "position": "a", "budgets": [1], "lhs": 0, "rhs": 1, "detail": "",
}


def check_ruleset(op: dict, code: int, stdout: str) -> str | None:
    data = json.loads(stdout)
    if op["ruleset"] == "zugzwang":
        if code != 1:
            return f"zugzwang exit {code}, expected 1"
        if data["holds"] is not False or data["violations"] != [ZUGZWANG_WITNESS]:
            return f"zugzwang verdict {data}"
        return None
    if code != 0:
        return f"exit {code}"
    if data["holds"] is not True or data["violations"]:
        return f"unitary ruleset verdict {data}"
    return None


CLI_CHECKS = {
    "limits": check_limits,
    "conjecture": check_conjecture,
    "solve": check_solve,
    "check_oracle": check_oracle,
    "check_json": check_json,
    "check_ruleset": check_ruleset,
}


def check_cli(op: dict, code: int, stdout: str) -> str | None:
    try:
        return CLI_CHECKS[op["kind"]](op, code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def check_move(rows: list[list[int]], move: list, result: list) -> str | None:
    """An engine move against its table: the value, the continuation of the
    canonical bid pair under the auction rules, and the tie value."""
    tb, heap, p, marker, tie = move
    v, left_bid, right_bid, winner, tie_value = result[:5]
    q = tb - p
    if v != row_value(rows, tb, heap, p, marker):
        return f"value {v} at {move}"
    if not (0 <= left_bid <= p and 0 <= right_bid <= q):
        return f"infeasible bid ({left_bid}, {right_bid}) at {move}"
    if left_bid > right_bid:
        expect, nxt, nmarker = "left-strict", p - left_bid, marker
    elif left_bid < right_bid:
        expect, nxt, nmarker = "right-strict", p + right_bid, marker
    elif marker == "L":
        expect, nxt, nmarker = "left-tie", p - left_bid, "R"
    else:
        expect, nxt, nmarker = "right-tie", p + right_bid, "L"
    if winner != expect:
        return f"winner {winner} for ({left_bid}, {right_bid}) at {move}"
    gain = 1 if expect.startswith("left") else -1
    if gain + row_value(rows, tb, heap - 1, nxt, nmarker) != v:
        return f"bid ({left_bid}, {right_bid}) does not realize {v} at {move}"
    if tie_value != 1 + row_value(rows, tb, heap - 1, p - tie, "R"):
        return f"tie value {tie_value} at {move}"
    return None


def check_move_oracle(move: list, result: list) -> str | None:
    """A small-heap move against the saddle of the oracle's full bid matrix."""
    from bcs.core import Side, make_position
    from bcs.oracle import bid_matrix

    tb, heap, p, marker, tie = move
    v, left_bid, right_bid, _, tie_value = result[:5]
    side = Side.LEFT if marker == "L" else Side.RIGHT
    m = bid_matrix(tb, make_position(tb, heap, p, side))
    if not v == m.maximin == m.minimax:
        return f"value {v}, oracle saddle {m.maximin}/{m.minimax} at {move}"
    # The marker holder's bid guarantees the value; the other bid answers it.
    guard = m.column_mins[left_bid] if marker == "L" else m.row_maxes[right_bid]
    if guard != v or m.entries[right_bid][left_bid] != v:
        return f"bid ({left_bid}, {right_bid}) off the oracle saddle at {move}"
    tie_m = bid_matrix(tb, make_position(tb, heap, p, Side.LEFT))
    if tie_m.entries[tie][tie] != tie_value:
        return f"tie value {tie_value}, oracle {tie_m.entries[tie][tie]} at {move}"
    return None


def oracle_sample_cells(tb: int) -> list[list]:
    """Every marker-Left cell up to ``ORACLE_HEAP_MAX``, for table checks."""
    return [[h, p, "L"] for h in range(ORACLE_HEAP_MAX + 1) for p in range(tb + 1)]
