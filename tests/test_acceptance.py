"""Acceptance gate: one test per shipping criterion, exact tolerances.

Each test prints a `PASS criterion N` line on success (run with `-s` or
`-rA` to see them).  Stated runtime budgets are asserted on warm timings.
"""

import time
from collections import Counter

from bcs.analysis import INVARIANT_NAMES, run_invariant_suite_on
from bcs.automaton import (
    alpha_even,
    automaton_fixed_point,
    closed_form_name,
    conjecture_report,
)
from bcs.core import Side, convergence_bound, make_position
from bcs.general import check_property_U, parse_ruleset
from bcs.oracle import bid_matrix, oracle_table
from bcs.solver import limit_rows, solve, value

from goldens import (
    TB5_ROWS,
    TB8_EVEN_LIMIT,
    TB8_ODD_LIMIT,
    TB9_EVEN_LIMIT,
    TB9_ODD_LIMIT,
    TB9_X9_P4_RIGHT_MATRIX,
    TB9_X9_P6_COLUMN_MINS,
    TB9_X9_P6_MATRIX,
    TB9_X9_P6_ROW_MAXES,
    ZUGZWANG_RULESET,
    alpha_odd,
    forced_win_threshold,
)


def _timed(budget_seconds, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"took {elapsed:.4f}s, budget {budget_seconds}s"
    return result, elapsed


def test_criterion_01_golden_table_tb5():
    solve(5, 2)  # warm-up
    table, elapsed = _timed(0.001, lambda: solve(5, 2))
    assert tuple(table.row(x) for x in range(3)) == TB5_ROWS
    assert table.row(2)[1] == 0
    print(f"PASS criterion 1: tb=5 golden rows exact ({elapsed * 1e6:.0f}us)")


def test_criterion_02_golden_matrices_tb9():
    def build():
        left = bid_matrix(9, make_position(9, 9, 6, Side.LEFT))
        right = bid_matrix(9, make_position(9, 9, 4, Side.RIGHT))
        return left, right

    (left, right), elapsed = _timed(1.0, build)
    assert left.entries == TB9_X9_P6_MATRIX
    assert left.row_maxes == TB9_X9_P6_ROW_MAXES
    assert left.column_mins == TB9_X9_P6_COLUMN_MINS
    assert left.maximin == left.minimax == 1
    assert len(right.entries) == 6 and all(len(r) == 5 for r in right.entries)
    assert right.maximin == right.minimax == -1
    assert right.entries == TB9_X9_P4_RIGHT_MATRIX
    print(f"PASS criterion 2: tb=9 heap-9 bid matrices exact ({elapsed:.3f}s)")


def test_criterion_03_limit_rows_tb8():
    limits, elapsed = _timed(1.0, lambda: limit_rows(8))
    assert limits.even_row == TB8_EVEN_LIMIT
    assert limits.odd_row == TB8_ODD_LIMIT
    assert limits.even_row == tuple(alpha_even(2 * p - 8) for p in range(9))
    assert limits.odd_row == tuple(alpha_odd(2 * p - 8) for p in range(9))
    assert limits.x_star <= convergence_bound(8) + 2 == 19
    print(f"PASS criterion 3: tb=8 limits equal closed forms ({elapsed:.3f}s)")


def test_criterion_04_limit_rows_tb9():
    limits, elapsed = _timed(1.0, lambda: limit_rows(9))
    assert Counter(limits.even_row) == Counter(TB9_EVEN_LIMIT)
    assert Counter(limits.odd_row) == Counter(TB9_ODD_LIMIT)
    for p in range(10):
        assert limits.even_row[p] == 1 - limits.odd_row[9 - p]
        assert limits.odd_row[p] == 1 - limits.even_row[9 - p]
    print(f"PASS criterion 4: tb=9 limit multisets and update rule ({elapsed:.3f}s)")


def test_criterion_05_oracle_equivalence():
    def sweep():
        cells = 0
        for tb in range(9):
            table, layers = solve(tb, 40), oracle_table(tb, 40)
            for x in range(41):
                for p in range(tb + 1):
                    for marker in (Side.LEFT, Side.RIGHT):
                        pos = make_position(tb, x, p, marker)
                        slow = layers[x][marker is Side.LEFT][p]
                        assert value(table, pos) == slow, pos
                        cells += 1
        return cells

    cells, elapsed = _timed(30.0, sweep)
    print(f"PASS criterion 5: solver = oracle on {cells} cells ({elapsed:.1f}s)")


def test_criterion_06_invariant_suite():
    def sweep():
        checked = []
        for tb in range(13):
            table = solve(tb, convergence_bound(tb) + 2)
            reports = run_invariant_suite_on(table)
            assert [r.name for r in reports] == list(INVARIANT_NAMES)
            bad = [str(r) for r in reports if not r.passed]
            assert not bad, bad
            checked.append(tb)
        return checked

    checked, elapsed = _timed(60.0, sweep)
    print(f"PASS criterion 6: ten invariants pass for tb in {checked[0]}..{checked[-1]} ({elapsed:.1f}s)")


def test_criterion_07_convergence():
    for tb in range(13):
        bound = convergence_bound(tb)
        limits = limit_rows(tb)  # raises if rows at B and B+2 disagree
        assert limits.x_star <= bound + 2
        table = solve(tb, bound + 3)
        assert table.row(bound) == table.row(bound + 2)
        assert table.row(bound + 1) == table.row(bound + 3)
    print("PASS criterion 7: convergence within bound for tb <= 12")


def test_criterion_08_forced_win_sharpness():
    def left_forces(x, p, q, marker):  # Left wins all of the next x auctions
        return oracle_table(p + q, x)[x][marker is Side.LEFT][p] == x

    def sweep():
        for x in range(1, 5):
            for q in range(7):
                for marker in (Side.LEFT, Side.RIGHT):
                    threshold = forced_win_threshold(x, q, marker)
                    assert left_forces(x, threshold, q, marker)
                    if threshold > 0:
                        assert not left_forces(x, threshold - 1, q, marker)

    _, elapsed = _timed(10.0, sweep)
    print(f"PASS criterion 8: forced-win thresholds sharp ({elapsed:.2f}s)")


def test_criterion_09_property_u_counterexample():
    ruleset = parse_ruleset(ZUGZWANG_RULESET)
    check_property_U(ruleset)  # warm-up
    violations, elapsed = _timed(0.001, lambda: check_property_U(ruleset))
    assert len(violations) == 1
    violation = violations[0]
    assert violation.prop == "B"
    assert (violation.lhs, violation.rhs) == (0, 1)
    print(f"PASS criterion 9: single (B)-violation 0 < 1 ({elapsed * 1e6:.0f}us)")


def test_criterion_10_alpha_duality():
    for delta in range(-100, 101, 2):
        assert alpha_even(delta) == 1 - alpha_odd(-delta)
    print("PASS criterion 10: alpha duality on even deltas in [-100, 100]")


def test_criterion_11_conjecture_harness():
    lines = []
    for tb in range(13):
        limits, bound = limit_rows(tb), convergence_bound(tb)
        report = conjecture_report((limits.even_row, limits.odd_row))
        assert report.match in ("exact", "none"), "harness must give a verdict"
        assert limits.x_star <= bound + 2
        name = closed_form_name(tb)
        lines.append(
            f"  tb={tb}: x_star={limits.x_star} bound={bound} "
            f"closure={report.update_rule_holds} {name}={report.match}"
        )
        if report.match != "exact":
            lines.append(f"    {name} diffs: {report.diffs}")
    tb8 = limit_rows(8)
    assert closed_form_name(8) == "alpha"
    assert conjecture_report((tb8.even_row, tb8.odd_row)).match == "exact"
    assert automaton_fixed_point(8)[0] == tb8.even_row
    print("PASS criterion 11: conjecture harness report")
    print("\n".join(lines))
