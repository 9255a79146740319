import re
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from bcs.core import convergence_bound
from bcs.cli import main
from bcs.core import (
    BidPair,
    BidWinner,
    GameAlreadyOver,
    GameError,
    InfeasibleBid,
    OutcomeTable,
    OutOfRange,
    Side,
    classify_bid,
    make_position,
)
from bcs.solver import (
    ConvergenceBoundExceeded,
    RowNotMonotone,
    _cell,
    _marker_left_bids,
    _next_row,
    _rows,
    equilibrium_bids,
    limit_rows,
    solve,
    tie_conditioned_value,
    value,
)

from goldens import (
    TB5_ROWS,
    TB8_EVEN_LIMIT,
    TB8_ODD_LIMIT,
    TB9_EVEN_LIMIT,
    TB9_ODD_LIMIT,
)


def test_golden_table_tb5():
    table = solve(5, 2)
    assert tuple(table.row(x) for x in range(3)) == TB5_ROWS
    # the worked cell: one dollar and the marker against four, heap 2
    assert table.row(2)[1] == 0


def test_base_row_is_zero():
    for tb in (0, 3, 7):
        assert set(solve(tb, 0).row(0)) == {0}


def test_tb0_alternation():
    table = solve(0, 9)
    assert [table.row(x)[0] for x in range(10)] == [x % 2 for x in range(10)]


def test_tb9_spot_values():
    table = solve(9, 9)
    assert table.row(9)[6] == 1
    pos = make_position(9, 9, 4, Side.RIGHT)
    assert value(table, pos) == -1


def test_value_marker_flip():
    table = solve(5, 2)
    assert value(table, make_position(5, 1, 2, Side.LEFT)) == -1
    assert value(table, make_position(5, 1, 2, Side.RIGHT)) == -1  # -row[3]
    assert value(table, make_position(5, 0, 3, Side.RIGHT)) == 0
    with pytest.raises(OutOfRange):
        value(table, make_position(5, 3, 0, Side.LEFT))
    with pytest.raises(ValueError):
        value(table, make_position(4, 1, 0, Side.LEFT))


def test_equilibrium_bids_worked_cell():
    table = solve(5, 2)
    pos = make_position(5, 2, 1, Side.LEFT)
    bids = equilibrium_bids(table, pos)
    assert min(bids) == BidPair(1, 1, BidWinner.LEFT_TIE)
    assert {b.left_bid for b in bids} == {1}


def test_equilibrium_bids_tb9():
    table = solve(9, 9)
    bids = equilibrium_bids(table, make_position(9, 9, 6, Side.LEFT))
    assert {b.left_bid for b in bids} == {0, 1, 2}
    assert min(bids).left_bid == 0


def test_equilibrium_bids_full_budget_zero_tie():
    table = solve(4, 1)
    bids = equilibrium_bids(table, make_position(4, 1, 4, Side.LEFT))
    assert BidPair(0, 0, BidWinner.LEFT_TIE) in bids


def test_equilibrium_bids_marker_right_mirrors():
    table = solve(5, 2)
    bids = equilibrium_bids(table, make_position(5, 2, 4, Side.RIGHT))
    # mirror of the worked cell: Right holds one dollar and the marker
    assert min(bids) == BidPair(1, 1, BidWinner.RIGHT_TIE)


def test_cell_values_and_nonempty_bids():
    table = solve(3, 5)
    for x in range(1, 6):
        for p in range(4):
            pos = make_position(3, x, p, Side.LEFT)
            assert value(table, pos) == table.row(x)[p]
            bids = equilibrium_bids(table, pos)
            assert bids
            assert min(bids) in bids


# ``classify_bid`` is the one rule of a turn: each equilibrium pair must be
# the pair it classifies, and the winner's point plus the successor's value
# must be the cell's value.
def test_every_equilibrium_pair_realizes_its_cell_value():
    for tb in range(17):
        table = solve(tb, convergence_bound(tb) + 2)
        for heap in range(1, table.x_max + 1):
            for p in range(tb + 1):
                for marker in Side:
                    pos = make_position(tb, heap, p, marker)
                    cell = value(table, pos)
                    for bid in equilibrium_bids(table, pos):
                        pair, after = classify_bid(pos, bid.left_bid, bid.right_bid)
                        assert pair == bid
                        point = 1 if bid.winner.side is Side.LEFT else -1
                        assert point + value(table, after) == cell, (pos, bid)


def test_tie_conditioned_value_examples():
    table = solve(5, 2)
    pos = make_position(5, 2, 1, Side.LEFT)
    assert tie_conditioned_value(table, pos, 1) == 0
    assert tie_conditioned_value(table, pos, 0) == 0
    with pytest.raises(InfeasibleBid):
        tie_conditioned_value(table, pos, 2)

    full = solve(3, 1)
    assert tie_conditioned_value(full, make_position(3, 1, 3, Side.LEFT), 0) == 1


def test_no_bidding_on_an_empty_heap():
    table = solve(5, 2)
    for marker in (Side.LEFT, Side.RIGHT):
        with pytest.raises(GameAlreadyOver):
            equilibrium_bids(table, make_position(5, 0, 2, marker))
    with pytest.raises(GameAlreadyOver):
        tie_conditioned_value(table, make_position(5, 0, 2, Side.LEFT), 0)


@pytest.mark.parametrize("tb", [6, 9])
def test_a_position_for_another_budget_is_refused(tb):
    # at tb 6 the row below would read a value of the tb 5 game; at tb 9 it
    # would index past the row's end
    table, message = solve(5, 3), f"position for tb={tb}, table for tb=5"
    for marker in (Side.LEFT, Side.RIGHT):
        pos = make_position(tb, 2, 3, marker)
        for query in (value, equilibrium_bids):
            with pytest.raises(ValueError, match=message):
                query(table, pos)
    with pytest.raises(ValueError, match=message):
        tie_conditioned_value(table, make_position(tb, 2, 3, Side.LEFT), 0)


def test_tie_conditioned_value_requires_marker():
    table = solve(5, 2)
    with pytest.raises(ValueError):
        tie_conditioned_value(table, make_position(5, 2, 1, Side.RIGHT), 1)


def test_tie_monotone_in_bid():
    table = solve(6, 12)
    for x in range(1, 13):
        for p in range(7):
            pos = make_position(6, x, p, Side.LEFT)
            top = min(p, 6 - p)
            values = [tie_conditioned_value(table, pos, l) for l in range(top + 1)]
            assert values == sorted(values, reverse=True)


def test_limit_rows_tb8():
    limits = limit_rows(8)
    assert limits.even_row == TB8_EVEN_LIMIT
    assert limits.odd_row == TB8_ODD_LIMIT
    assert limits.x_star <= 19


def test_limit_rows_tb9():
    limits = limit_rows(9)
    assert limits.even_row == TB9_EVEN_LIMIT
    assert limits.odd_row == TB9_ODD_LIMIT
    assert limits.x_star <= 24


def test_limit_rows_tb0():
    limits = limit_rows(0)
    assert limits.even_row == (0,)
    assert limits.odd_row == (1,)
    assert limits.x_star <= 2


def test_limit_rows_settle_at_the_same_heap_for_tb_2k_minus_1_and_2k():
    # Observed for every k checked, not a theorem: if a k breaks it, that is
    # a finding to record, not a check to weaken.
    for k in range(1, 41):
        assert limit_rows(2 * k).x_star == limit_rows(2 * k - 1).x_star, k


def test_limit_rows_stability_from_x_star():
    for tb in (1, 4, 7):
        limits = limit_rows(tb)
        table = solve(tb, limits.x_star + 6)
        for x in range(limits.x_star, limits.x_star + 5):
            assert table.row(x) == table.row(x + 2)


def test_parity_of_every_cell():
    for tb in (2, 5):
        table = solve(tb, 15)
        for x in range(16):
            assert all((v - x) % 2 == 0 for v in table.row(x))


def test_rows_zero_sum_consistency():
    # marker-Right values derived from the same row by the flip
    table = solve(6, 10)
    for x in range(11):
        row = table.row(x)
        for p in range(7):
            lhs = value(table, make_position(6, x, p, Side.RIGHT))
            assert lhs == -row[6 - p]


def test_solve_input_validation():
    with pytest.raises(ValueError):
        solve(-1, 3)
    with pytest.raises(ValueError):
        solve(3, -1)


def test_solve_takes_any_x_max():
    table = solve(5, 10**19)
    assert table.x_max == 10**19 and len(table.rows) == limit_rows(5).x_star + 2
    assert table.row(10**19) == limit_rows(5).even_row


# Each fails building row 0, before anything is allocated for it.
@pytest.mark.parametrize("tb", [2**61, 10**19])
def test_a_total_budget_too_large_for_a_row_is_refused(tb):
    with pytest.raises(ValueError, match=f"total budget {tb} is too large to hold a row"):
        solve(tb, 3)
    with pytest.raises(ValueError, match=f"total budget {tb} is too large to hold a row"):
        limit_rows(tb)


def test_convergence_error_is_exported():
    assert issubclass(ConvergenceBoundExceeded, Exception)


def _literal_responses(prev, p):
    """The reduced recursion as defined: for each Left bid ``l``, Right's tie
    and every overbid ``r`` in ``l+1..q`` with its value."""
    tb = len(prev) - 1
    q = tb - p
    return {
        l: [(BidPair(l, l, BidWinner.LEFT_TIE), 1 - prev[q + l])]
        + [(BidPair(l, r, BidWinner.RIGHT_STRICT), prev[p + r] - 1) for r in range(l + 1, q + 1)]
        for l in range(min(p, q) + 1)
    }


_ROW_ENTRIES = st.one_of(st.integers(-3, 3), st.integers())


# Any nondecreasing row (property A), not only the solved ones: the crossing
# search relies on that order and on nothing else.
@settings(max_examples=300)
@given(st.lists(_ROW_ENTRIES, min_size=1, max_size=17).map(sorted))
@example([-2, 0, 1, 3, 5])
@example([0, 0, 0, 0])
@example([-3, -3, -3, -3, 1, 1])  # the walk steps down, up, and is cut to ``top``
def test_kernel_matches_literal_recursion_on_monotone_rows(prev):
    prev = tuple(prev)
    tb = len(prev) - 1
    row = _next_row(tb, prev)
    for p in range(tb + 1):
        options = _literal_responses(prev, p)
        held = {l: min(v for _, v in replies) for l, replies in options.items()}
        best = max(held.values())
        assert row[p] == best
        # Every pair of the literal set is worth ``best``, the kernel's cell.
        expected = {
            bid
            for l, replies in options.items()
            if held[l] == best
            for bid, v in replies
            if v == best
        }
        assert _marker_left_bids(prev, tb, p) == expected


def _crossings(prev):
    """Per budget ``p``, the first Left bid whose best overbid is worth at
    least the tie, found by a scan from bid 0, or the first bid that leaves
    Right no overbid."""
    tb = len(prev) - 1
    crossings = []
    for p in range(tb + 1):
        q = tb - p
        top = min(p, q - 1) + 1
        crossings.append(
            next((l for l in range(top) if prev[p + l + 1] - 1 >= 1 - prev[q + l]), top)
        )
    return crossings


# The kernel walks each budget's crossing from the previous one, which costs
# O(tb) a row because on a nondecreasing row the crossing moves by at most
# one bid per budget (see ``_cell``).  The bid sets walk it from bid 0, and
# both walks land on the crossing a scan from bid 0 finds, with one value.
@settings(max_examples=300)
@given(st.lists(_ROW_ENTRIES, min_size=1, max_size=17).map(sorted))
@example([-3, -3, -3, -3, 1, 1])
def test_crossing_moves_at_most_one_bid_per_budget(prev):
    prev = tuple(prev)
    tb = len(prev) - 1
    crossings = _crossings(prev)
    assert all(abs(b - a) <= 1 for a, b in zip(crossings, crossings[1:]))
    c = 0
    for p, crossing in enumerate(crossings):
        walked = _cell(prev, p, tb - p, c)  # as ``_next_row`` walks it
        c = walked[0]
        assert _cell(prev, p, tb - p, 0) == walked
        assert c == crossing


def test_kernel_refuses_non_monotone_row():
    with pytest.raises(RowNotMonotone, match="from 1 at budget 1 to 0 at budget 2"):
        _next_row(4, (0, 1, 0, 1, 2))
    assert issubclass(RowNotMonotone, GameError)


def test_non_monotone_row_fails_the_cli(capsys, monkeypatch):
    kernel = _next_row
    # Row 1 reversed decreases, so computing row 2 must refuse it.
    monkeypatch.setattr("bcs.solver._next_row", lambda tb, prev: kernel(tb, prev[::-1]))
    assert main(["limits", "--tb", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "property A" in captured.err


def test_limit_rows_stops_at_the_first_two_cycle(monkeypatch):
    calls = []
    kernel = _next_row

    def counted(tb, prev):
        calls.append(tb)
        return kernel(tb, prev)

    monkeypatch.setattr("bcs.solver._next_row", counted)
    limits = limit_rows(8)
    assert limits.x_star == 11
    assert len(calls) == limits.x_star + 2  # rows 1..k, k = x_star + 2
    # ``_rows`` stops before row k, the first that repeats the row two before.
    calls.clear()
    rows = list(islice(_rows(8), 100))  # bounded, should ``_rows`` run on
    assert len(rows) == len(calls) == limits.x_star + 2
    assert rows[-1] != rows[-3] and _next_row(8, rows[-1]) == rows[-2]
    # ``solve`` computes and stores the same rows, and reads the 2-cycle past them.
    calls.clear()
    table = solve(8, 100)
    assert len(calls) == len(table.rows) == limits.x_star + 2
    rows = tuple(map(table.row, range(101)))
    assert rows[limits.x_star :] == (limits.odd_row, limits.even_row) * 45


def test_limit_rows_bound_is_inclusive(capsys, monkeypatch):
    expected = limit_rows(8)
    first_repeat = expected.x_star + 2
    # The first 2-cycle exactly at B + 2 is within the bound ...
    monkeypatch.setattr("bcs.solver.convergence_bound", lambda tb: first_repeat - 2)
    assert limit_rows(8) == expected
    # ... and one row past it is not.
    monkeypatch.setattr("bcs.solver.convergence_bound", lambda tb: first_repeat - 3)
    with pytest.raises(ConvergenceBoundExceeded):
        limit_rows(8)
    assert main(["limits", "--tb", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: rows at")


# The bid sets rest on property A, as the kernel does: a row with a descent
# is refused with the kernel's message rather than read.
@settings(max_examples=300)
@given(
    st.lists(_ROW_ENTRIES, min_size=2, max_size=17).filter(
        lambda row: any(a > b for a, b in zip(row, row[1:]))
    )
)
@example([3, -2, 5, 0, 1])
def test_bid_sets_refuse_non_monotone_rows(prev):
    prev = tuple(prev)
    tb = len(prev) - 1
    d = next(p for p in range(tb) if prev[p] > prev[p + 1])
    message = re.escape(f"from {prev[d]} at budget {d} to {prev[d + 1]} at budget {d + 1}")
    with pytest.raises(RowNotMonotone, match=message):
        _next_row(tb, prev)
    for p in range(tb + 1):
        with pytest.raises(RowNotMonotone, match=message):
            _marker_left_bids(prev, tb, p)
    table = OutcomeTable(tb, ((0,) * (tb + 1), prev))
    for marker in Side:
        with pytest.raises(RowNotMonotone, match=message):
            equilibrium_bids(table, make_position(tb, 2, 0, marker))


# ``solve`` stores the rows up to the first 2-cycle and reads later heaps
# by parity; every heap must still read the row the recursion gives it.
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda tb: st.tuples(st.just(tb), st.integers(0, 3 * convergence_bound(tb)))
))
def test_periodic_table_reads_the_iterated_rows(case):
    tb, x_max = case
    table = solve(tb, x_max)
    row = (0,) * (tb + 1)
    for x in range(x_max + 1):
        assert table.row(x) == row, x
        row = _next_row(tb, row)
    assert table.x_max == x_max
    assert len(table.rows) == min(x_max + 1, limit_rows(tb).x_star + 2)
