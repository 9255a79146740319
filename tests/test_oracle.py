import pytest
from hypothesis import example, given, settings, strategies as st

from bcs.core import GameAlreadyOver, Side, classify_bid, make_position
from bcs.oracle import bid_matrix, oracle_table, oracle_value
from bcs.solver import solve, value

from goldens import (
    TB9_ROW8,
    TB9_X9_P4_RIGHT_MATRIX,
    TB9_X9_P6_COLUMN_MINS,
    TB9_X9_P6_MATRIX,
    TB9_X9_P6_ROW_MAXES,
)


def test_oracle_examples():
    assert oracle_value(5, make_position(5, 2, 1, Side.LEFT)) == 0
    assert oracle_value(9, make_position(9, 9, 6, Side.LEFT)) == 1
    assert oracle_value(3, make_position(3, 0, 2, Side.LEFT)) == 0


def test_oracle_row8_tb9():
    got = tuple(oracle_value(9, make_position(9, 8, p, Side.LEFT)) for p in range(10))
    assert got == TB9_ROW8


def test_bid_matrix_tb9_marker_left():
    m = bid_matrix(9, make_position(9, 9, 6, Side.LEFT))
    assert m.entries == TB9_X9_P6_MATRIX
    assert m.column_mins == TB9_X9_P6_COLUMN_MINS
    assert m.row_maxes == TB9_X9_P6_ROW_MAXES
    assert m.maximin == m.minimax == 1


def test_bid_matrix_tb9_marker_right():
    m = bid_matrix(9, make_position(9, 9, 4, Side.RIGHT))
    assert len(m.entries) == 6
    assert all(len(row) == 5 for row in m.entries)
    assert m.entries == TB9_X9_P4_RIGHT_MATRIX
    assert m.maximin == m.minimax == -1


def test_bid_matrix_right_without_budget():
    m = bid_matrix(1, make_position(1, 1, 1, Side.LEFT))
    assert m.entries == ((1, 1),)
    assert m.maximin == 1


def test_bid_matrix_rejects_empty_heap():
    with pytest.raises(GameAlreadyOver):
        bid_matrix(3, make_position(3, 0, 1, Side.LEFT))


def test_matrix_saddle_everywhere_small():
    # every value of the block-wise layer fill is the saddle of the bid matrix
    # at that cell, whose entries resolve each turn with ``classify_bid``
    for tb in range(5):
        layers = oracle_table(tb, 7)
        for x in range(1, 8):
            for p in range(tb + 1):
                for marker in (Side.LEFT, Side.RIGHT):
                    m = bid_matrix(tb, make_position(tb, x, p, marker))
                    assert layers[x][marker is Side.LEFT][p] == m.maximin == m.minimax


def _literal_value(pos, memo):
    """The game's value straight from the rules of one turn: Left's best bid
    against Right's best reply over every pair, each turn resolved by
    ``classify_bid``."""
    if pos.heap == 0:
        return 0
    if pos not in memo:
        replies = {}
        for l in range(pos.left_budget + 1):
            for r in range(pos.right_budget + 1):
                bid, after = classify_bid(pos, l, r)
                gain = 1 if bid.winner.side is Side.LEFT else -1
                replies.setdefault(l, []).append(gain + _literal_value(after, memo))
        memo[pos] = max(min(column) for column in replies.values())
    return memo[pos]


@settings(deadline=None, max_examples=60)
@given(tb=st.integers(min_value=0, max_value=6), x_max=st.integers(min_value=0, max_value=6))
def test_oracle_table_matches_literal_recursion(tb, x_max):
    layers = oracle_table(tb, x_max)
    assert len(layers) == x_max + 1
    memo = {}
    for x, layer in enumerate(layers):
        for marker in (Side.LEFT, Side.RIGHT):
            row = layer[marker is Side.LEFT]
            assert len(row) == tb + 1
            for p, v in enumerate(row):
                assert v == _literal_value(make_position(tb, x, p, marker), memo)


def _slice_maximin(prev, tb, p, left_marker):
    """The layer fill before suffix minima: Right's best overbid read as the
    minimum of one slice of the row below."""
    q = tb - p
    same, other = prev[left_marker], prev[not left_marker]
    column_mins = []
    for l in range(p + 1):
        replies = []
        if l > 0:
            replies.append(1 + same[p - l])
        if l <= q:
            replies.append(1 + other[p - l] if left_marker else other[p + l] - 1)
        if l < q:
            replies.append(min(same[p + l + 1 : p + q + 1]) - 1)
        column_mins.append(min(replies))
    return max(column_mins)


def _slice_table(tb, x_max):
    table = [((0,) * (tb + 1),) * 2]
    for _ in range(x_max):
        prev = table[-1]
        table.append(tuple(
            tuple(_slice_maximin(prev, tb, p, left_marker) for p in range(tb + 1))
            for left_marker in (False, True)
        ))
    return tuple(table)


@settings(deadline=None)
@given(tb=st.integers(min_value=0, max_value=24), x_max=st.integers(min_value=0, max_value=30))
@example(tb=24, x_max=30)
@example(tb=1, x_max=3)
def test_oracle_table_matches_the_slice_fill(tb, x_max):
    # one suffix minimum per row below gives every cell the slice minimum gave
    assert oracle_table(tb, x_max) == _slice_table(tb, x_max)


def test_oracle_has_no_depth_limit():
    pos = make_position(1, 3000, 1, Side.RIGHT)
    assert oracle_value(1, pos) == value(solve(1, 3000), pos)


def test_oracle_rejects_a_position_for_another_budget():
    pos = make_position(3, 2, 1, Side.LEFT)
    with pytest.raises(ValueError, match="position built for tb=3, asked for tb=4"):
        oracle_value(4, pos)
    with pytest.raises(ValueError, match="position built for tb=3, asked for tb=2"):
        bid_matrix(2, pos)


def test_oracle_table_rejects_negative_arguments():
    with pytest.raises(ValueError):
        oracle_table(-1, 3)
    with pytest.raises(ValueError):
        oracle_table(3, -1)


def test_left_win_entries_never_needed():
    # dropping every strict Left win from a marker-Left matrix keeps the maximin
    for tb in (3, 5):
        for x in range(1, 10):
            for p in range(tb + 1):
                m = bid_matrix(tb, make_position(tb, x, p, Side.LEFT))
                kept = [
                    [m.entries[r][l] for r in range(tb - p + 1) if r >= l]
                    for l in range(min(p, tb - p) + 1)
                ]
                reduced = max(min(col) for col in kept if col)
                assert reduced == m.maximin


@settings(deadline=None)
@given(
    tb=st.integers(min_value=0, max_value=5),
    x=st.integers(min_value=0, max_value=10),
    p_frac=st.integers(min_value=0, max_value=100),
)
def test_zero_sum_identity_via_oracle(tb, x, p_frac):
    # independent marker-Left and marker-Right recursions satisfy the flip
    p = p_frac * tb // 100
    left = oracle_value(tb, make_position(tb, x, p, Side.LEFT))
    right = oracle_value(tb, make_position(tb, x, tb - p, Side.RIGHT))
    assert right == -left


def test_oracle_agrees_with_solver_spot():
    table = solve(7, 15)
    for x in range(16):
        for p in range(8):
            for marker in (Side.LEFT, Side.RIGHT):
                pos = make_position(7, x, p, marker)
                assert oracle_value(7, pos) == value(table, pos)
