import pytest
from hypothesis import example, given, settings, strategies as st

from bcs.core import BidPair, BidWinner, InfeasibleBid, OutOfRange, Side, make_position
from bcs.solver import (
    ConvergenceBoundExceeded,
    _marker_left_bids,
    _next_row,
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


def test_tie_conditioned_value_examples():
    table = solve(5, 2)
    pos = make_position(5, 2, 1, Side.LEFT)
    assert tie_conditioned_value(table, pos, 1) == 0
    assert tie_conditioned_value(table, pos, 0) == 0
    with pytest.raises(InfeasibleBid):
        tie_conditioned_value(table, pos, 2)

    full = solve(3, 1)
    assert tie_conditioned_value(full, make_position(3, 1, 3, Side.LEFT), 0) == 1


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


# Any integer row, monotone or not: the suffix-minimum kernel relies on no
# property of the solved tables, only on the overbids landing on a suffix.
@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(-3, 3), st.integers()), min_size=1, max_size=17))
@example([3, -2, 5, 0, 1])
def test_kernel_matches_literal_recursion_on_any_row(prev):
    prev = tuple(prev)
    tb = len(prev) - 1
    row = _next_row(tb, prev)
    for p in range(tb + 1):
        options = _literal_responses(prev, p)
        held = {l: min(v for _, v in replies) for l, replies in options.items()}
        best = max(held.values())
        assert row[p] == best
        expected = {
            bid
            for l, replies in options.items()
            if held[l] == best
            for bid, v in replies
            if v == best
        }
        assert _marker_left_bids(prev, tb, p) == expected
