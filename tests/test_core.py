import pickle

import pytest
from hypothesis import given, strategies as st

from bcs.core import (
    BidPair,
    BidWinner,
    BudgetOutOfRange,
    GameAlreadyOver,
    HeapNegative,
    InfeasibleBid,
    OutcomeTable,
    OutOfRange,
    RichmanPosition,
    Side,
    classify_bid,
    make_position,
)
from bcs import analysis, automaton, general, oracle, solver
from bcs.solver import value

from goldens import ZUGZWANG_RULESET


def test_make_position_examples():
    pos = make_position(5, 2, 1, Side.LEFT)
    assert (pos.heap, pos.left_budget, pos.right_budget) == (2, 1, 4)
    assert pos.left_holds_marker

    degenerate = make_position(0, 7, 0, Side.LEFT)
    assert degenerate.right_budget == 0

    with pytest.raises(BudgetOutOfRange):
        make_position(5, 2, 6, Side.LEFT)
    with pytest.raises(BudgetOutOfRange):
        make_position(5, 2, -1, Side.LEFT)
    with pytest.raises(HeapNegative):
        make_position(5, -1, 0, Side.LEFT)
    with pytest.raises(BudgetOutOfRange):
        make_position(-1, 0, 0, Side.LEFT)


def test_classify_bid_tie_goes_to_marker_holder():
    pos = make_position(5, 2, 1, Side.LEFT)
    bid, nxt = classify_bid(pos, 1, 1)
    assert bid.winner is BidWinner.LEFT_TIE
    assert (nxt.left_budget, nxt.right_budget) == (0, 5)
    assert nxt.marker is Side.RIGHT

    pos_r = make_position(5, 2, 1, Side.RIGHT)
    bid, nxt = classify_bid(pos_r, 1, 1)
    assert bid.winner is BidWinner.RIGHT_TIE
    assert (nxt.left_budget, nxt.marker) == (2, Side.LEFT)


def test_classify_bid_zero_tie_marker_decides():
    pos = make_position(7, 3, 4, Side.LEFT)
    bid, nxt = classify_bid(pos, 0, 0)
    assert bid.winner is BidWinner.LEFT_TIE
    assert (nxt.left_budget, nxt.right_budget) == (4, 3)
    assert nxt.marker is Side.RIGHT


def test_classify_bid_right_strict_win():
    pos = make_position(5, 2, 1, Side.LEFT)
    bid, nxt = classify_bid(pos, 1, 2)
    assert bid.winner is BidWinner.RIGHT_STRICT
    assert (nxt.left_budget, nxt.right_budget) == (3, 2)
    assert nxt.marker is Side.LEFT  # marker only moves on ties


def test_classify_bid_feasibility():
    pos = make_position(5, 2, 1, Side.LEFT)
    with pytest.raises(InfeasibleBid):
        classify_bid(pos, 2, 0)
    with pytest.raises(InfeasibleBid):
        classify_bid(pos, 0, 5)
    with pytest.raises(InfeasibleBid):
        classify_bid(pos, -1, 0)
    with pytest.raises(GameAlreadyOver):
        classify_bid(make_position(5, 0, 1, Side.LEFT), 0, 0)


@st.composite
def position_and_bids(draw):
    tb = draw(st.integers(min_value=0, max_value=9))
    p = draw(st.integers(min_value=0, max_value=tb))
    marker = draw(st.sampled_from([Side.LEFT, Side.RIGHT]))
    pos = make_position(tb, draw(st.integers(min_value=1, max_value=30)), p, marker)
    l = draw(st.integers(min_value=0, max_value=p))
    r = draw(st.integers(min_value=0, max_value=tb - p))
    return pos, l, r


@given(position_and_bids())
def test_bid_resolution_conserves_budget_and_marker(case):
    pos, l, r = case
    bid, nxt = classify_bid(pos, l, r)
    assert nxt.left_budget + nxt.right_budget == pos.tb
    assert nxt.heap == pos.heap - 1
    assert 0 <= nxt.left_budget <= pos.tb
    assert (nxt.marker != pos.marker) == bid.winner.is_tie
    if bid.winner.side is Side.LEFT:
        assert nxt.left_budget == pos.left_budget - l
    else:
        assert nxt.left_budget == pos.left_budget + r


def test_bid_pair_canonical_ordering():
    pairs = [
        BidPair(1, 2, BidWinner.RIGHT_STRICT),
        BidPair(0, 3, BidWinner.RIGHT_STRICT),
        BidPair(0, 0, BidWinner.LEFT_TIE),
    ]
    assert min(pairs) == BidPair(0, 0, BidWinner.LEFT_TIE)


def test_outcome_row_zero_sum_flip():
    table = OutcomeTable(
        tb=5, rows=((0,) * 6, (-1, -1, -1, 1, 1, 1), (-2, 0, 0, 0, 2, 2))
    )

    def marker_right_values(x):
        return tuple(value(table, make_position(5, x, p, Side.RIGHT)) for p in range(6))

    assert marker_right_values(1) == (-1, -1, -1, 1, 1, 1)
    assert marker_right_values(2) == (-2, -2, 0, 0, 0, 2)


def test_outcome_table_validates_shape():
    rows = ((0, 0), (-1, 1))
    table = OutcomeTable(tb=1, rows=rows)
    assert table.x_max == 1
    assert table.row(1) == (-1, 1)
    with pytest.raises(OutOfRange):
        table.row(2)
    with pytest.raises(ValueError):
        OutcomeTable(tb=2, rows=rows)
    with pytest.raises(ValueError):
        OutcomeTable(tb=1, rows=((0, 0), (-1, 1, 1)))


def _one_of_each_record():
    pos = make_position(2, 1, 1, Side.LEFT)
    trace = oracle.replay(2, pos, [(1, 0)])
    u_report = general.check_property_U(general.parse_ruleset(ZUGZWANG_RULESET))
    graph = analysis.bid_graph(2, analysis.BidGraphKind.TIE, 0)
    report = analysis.InvariantReport("parity", 2, 1, analysis.Counterexample(1, 0, (0,)))
    return [
        pos,
        BidPair(0, 0, BidWinner.LEFT_TIE),
        solver.solve(2, 1),
        solver.limit_rows(2),
        oracle.bid_matrix(2, pos),
        trace.steps[0],
        trace,
        general.make_unitary_ruleset(2, 2),
        u_report.violations[0],
        u_report,
        report.counterexample,
        report,
        analysis.forced_win_threshold(1, 1, Side.LEFT),
        graph.edges[0],
        graph,
        automaton.automaton_fixed_point(2),
        automaton.conjecture_report(2),
    ]


@pytest.mark.parametrize("record", _one_of_each_record(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note_added_later = 1
    # The records are named tuples: equal to the plain tuple of their fields.
    assert record == tuple(getattr(record, f) for f in type(record)._fields)
    assert pickle.loads(pickle.dumps(record)) == record
