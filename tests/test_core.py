import pickle
import tracemalloc

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
    bid_graph,
    classify_bid,
    convergence_bound,
    make_position,
)
from bcs import analysis, automaton, general, oracle, solver
from bcs.solver import value

from goldens import ZUGZWANG_RULESET, make_unitary_ruleset


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
    with pytest.raises(TypeError, match="marker must be a Side, got 'L'"):
        make_position(5, 2, 1, "L")


@pytest.mark.parametrize("tb, heap, p", [(5, 2, 6), (5, 2, -1), (5, -1, 0), (-1, 0, 0)])
def test_bad_position_is_a_value_error(tb, heap, p):
    with pytest.raises(ValueError):
        make_position(tb, heap, p, Side.LEFT)


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


def _play(pos, bids):
    """Fold ``classify_bid`` over ``bids``: the winners, the signed count of
    removals and the final position."""
    winners, score = [], 0
    for l, r in bids:
        bid, pos = classify_bid(pos, l, r)
        winners.append(bid.winner)
        score += 1 if bid.winner.side is Side.LEFT else -1
    return winners, score, pos


def test_classify_bid_folds_over_a_played_sequence():
    start = make_position(5, 2, 1, Side.LEFT)
    winners, score, end = _play(start, [(1, 1), (0, 2)])
    assert winners == [BidWinner.LEFT_TIE, BidWinner.RIGHT_STRICT]
    assert (score, end.heap, end.left_budget) == (0, 0, 2)


def test_classify_bid_fold_empty_and_over():
    start = make_position(5, 2, 1, Side.LEFT)
    assert _play(start, []) == ([], 0, start)
    with pytest.raises(GameAlreadyOver):
        _play(make_position(4, 1, 2, Side.LEFT), [(0, 0), (0, 0)])


def test_classify_bid_fold_flags_infeasible_step():
    with pytest.raises(InfeasibleBid):  # the tie took Left's only dollar
        _play(make_position(5, 2, 1, Side.LEFT), [(1, 1), (1, 0)])


def test_classify_bid_fold_at_tb0_alternates():
    # with no money every auction is a zero tie, and the marker alternates
    winners, score, _ = _play(make_position(0, 3, 0, Side.LEFT), [(0, 0)] * 3)
    assert [w.side for w in winners] == [Side.LEFT, Side.RIGHT, Side.LEFT]
    assert score == 1


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


def test_outcome_table_checks_row_lengths_before_it_builds_a_row_of_its_tb():
    # A short row is refused without a row of the ``tb`` it claims: the
    # zeros of tb 50,000,000 would take 400 MB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^row 0 has 1 values, expected tb\+1 = 50000001$"):
            OutcomeTable(50_000_000, ((0,),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_outcome_table_reads_past_its_rows_by_parity():
    rows = ((0, 0), (-1, 1), (0, 2))
    table = OutcomeTable(tb=1, rows=rows, x_max=6)
    assert table.x_max == 6
    assert [table.row(x) for x in range(7)] == [rows[0], *(rows[1:] * 3)]
    with pytest.raises(OutOfRange):
        table.row(7)
    with pytest.raises(OutOfRange):
        table.row(-1)
    # The same heaps given in full store the same rows: one record.
    full = OutcomeTable(tb=1, rows=tuple(map(table.row, range(7))))
    assert full.x_max == 6 and full == table and full.rows == rows


def test_outcome_table_keeps_two_rows_of_a_constant_table():
    table = OutcomeTable(tb=1, rows=((0, 0),) * 4)
    assert table.rows == ((0, 0), (0, 0)) and table.x_max == 3


def _given_row(rows, x):
    """Heap ``x`` of ``rows`` given in full up to ``len(rows) - 1``, then
    the last two in turn."""
    return rows[x] if x < len(rows) else rows[len(rows) - 2 + (x - len(rows)) % 2]


@given(
    st.integers(0, 3).flatmap(
        lambda tb: st.lists(st.tuples(*[st.integers(-1, 1)] * (tb + 1)), min_size=1, max_size=8)
    ),
    st.integers(0, 6),
)
def test_outcome_table_stores_its_rows_up_to_the_2_cycle(rows, reach):
    rows = tuple(rows)
    x_max = len(rows) - 1 + (reach if len(rows) >= 2 else 0)
    table = OutcomeTable(len(rows[0]) - 1, rows, x_max)
    stored = table.rows
    assert stored == rows[: len(stored)] and len(stored) >= min(2, len(rows))
    assert len(stored) < 3 or stored[-1] != stored[-3]
    assert table.x_max == x_max
    assert [table.row(x) for x in range(x_max + 1)] == [
        _given_row(rows, x) for x in range(x_max + 1)
    ]


def test_outcome_table_refuses_more_rows_than_heaps():
    rows = ((0, 0), (-1, 1), (0, 2))
    assert OutcomeTable(tb=1, rows=rows, x_max=2) == OutcomeTable(tb=1, rows=rows)
    for x_max in (1, 0, -1):
        with pytest.raises(ValueError, match=f"3 rows for heaps 0..{x_max}"):
            OutcomeTable(tb=1, rows=rows, x_max=x_max)


def test_outcome_table_refuses_a_repeat_of_fewer_than_two_rows():
    assert OutcomeTable(tb=1, rows=((0, 0),), x_max=0).row(0) == (0, 0)
    assert OutcomeTable(tb=1, rows=(), x_max=-1).x_max == -1
    with pytest.raises(ValueError, match="1 rows cannot repeat as a 2-cycle up to heap 1"):
        OutcomeTable(tb=1, rows=((0, 0),), x_max=1)
    with pytest.raises(ValueError, match="0 rows cannot repeat"):
        OutcomeTable(tb=1, rows=(), x_max=0)
    assert OutcomeTable(tb=1, rows=((0, 0), (-1, 1)), x_max=5).row(5) == (-1, 1)


# Every entry point that takes a total budget, and whether it builds a row.
# The oracle's position skips the position's own check, so that it is the
# oracle that refuses it.
_BUDGET_ENTRY_POINTS = {
    "make_position": (lambda tb: make_position(tb, 0, 0, Side.LEFT), False),
    "OutcomeTable": (lambda tb: OutcomeTable(tb, ()), True),
    "solve": (lambda tb: solver.solve(tb, 3), True),
    "limit_rows": (solver.limit_rows, True),
    "oracle_table": (lambda tb: oracle.oracle_table(tb, 3), True),
    "oracle_value": (
        lambda tb: oracle.oracle_value(tb, tuple.__new__(RichmanPosition, (tb, 0, 0, Side.LEFT))),
        True,
    ),
    "automaton_fixed_point": (automaton.automaton_fixed_point, True),
    "convergence_bound": (convergence_bound, False),
    "bid_graph": (lambda tb: bid_graph(tb, "tie", 0), True),
    "GeneralRuleset": (
        lambda tb: general.GeneralRuleset(
            positions=("a",), left_edges={}, right_edges={}, penalties={},
            tb=tb, bid_set=frozenset({0}),
        ),
        False,
    ),
}


@pytest.mark.parametrize("name", _BUDGET_ENTRY_POINTS)
def test_every_entry_point_refuses_a_negative_total_budget(name):
    build, _ = _BUDGET_ENTRY_POINTS[name]
    with pytest.raises(BudgetOutOfRange, match=r"^total budget must be >= 0, got -1$"):
        build(-1)


@pytest.mark.parametrize("name", [n for n, (_, row) in _BUDGET_ENTRY_POINTS.items() if row])
def test_every_entry_point_that_builds_a_row_refuses_a_total_budget_too_large_for_it(name):
    build, _ = _BUDGET_ENTRY_POINTS[name]
    with pytest.raises(BudgetOutOfRange, match=rf"^total budget {2**61} is too large to hold a row$"):
        build(2**61)


def test_a_too_large_total_budget_is_refused_before_a_bad_heap_count():
    for build in (solver.solve, oracle.oracle_table):
        with pytest.raises(BudgetOutOfRange, match="too large to hold a row"):
            build(2**61, -1)


def _one_of_each_record():
    pos = make_position(2, 1, 1, Side.LEFT)
    violations = general.check_property_U(general.parse_ruleset(ZUGZWANG_RULESET))
    report = analysis.InvariantReport("parity", 2, 1, analysis.Counterexample(1, 0, (0,)))
    return [
        pos,
        BidPair(0, 0, BidWinner.LEFT_TIE),
        solver.solve(2, 1),
        solver.limit_rows(2),
        oracle.bid_matrix(2, pos),
        make_unitary_ruleset(2, 2),
        violations[0],
        report.counterexample,
        report,
        tuple(bid_graph(2, "tie", 0))[0],
        automaton.conjecture_report(automaton.automaton_fixed_point(2)),
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
