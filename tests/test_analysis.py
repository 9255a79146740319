import json
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from bcs import analysis
from bcs.analysis import (
    INVARIANT_NAMES,
    Counterexample,
    InvariantReport,
    Row,
    check_oracle_equivalence,
    run_invariant_suite,
    run_invariant_suite_on,
)
from bcs.cli import _table_chunks, load_outcome_table_json, main
from bcs.core import (
    BID_KINDS,
    BudgetOutOfRange,
    OutcomeTable,
    Side,
    bid_graph,
    convergence_bound,
    make_position,
)
from bcs.oracle import oracle_table as real_oracle_table
from bcs.solver import (
    RowNotMonotone,
    first_fall,
    next_row,
    rows as solver_rows,
    solve,
    value,
)

from goldens import forced_win_threshold


def test_ten_invariants_exist():
    assert len(INVARIANT_NAMES) == 10


def test_suite_passes_desk_scale():
    for tb in (0, 5, 9):
        reports = run_invariant_suite_on(solve(tb, 30))
        assert [r.name for r in reports] == list(INVARIANT_NAMES)
        assert all(r.passed for r in reports), [str(r) for r in reports]


def test_suite_accepts_prebuilt_tables():
    table = OutcomeTable(tb=4, rows=tuple(solve(4, 12).row(x) for x in range(13)))
    assert all(r.passed for r in run_invariant_suite_on(table))


def test_suite_reports_counterexample():
    # corrupt one cell and expect scans to pin it
    rows = [solve(3, 4).row(x) for x in range(5)]
    bad = list(rows[3])
    bad[3] = 9
    rows[3] = tuple(bad)
    table = OutcomeTable(tb=3, rows=tuple(rows))
    failed = [r for r in run_invariant_suite_on(table) if not r.passed]
    assert failed
    report = next(r for r in failed if r.name == "bounded_outcome")
    assert report.counterexample is not None
    assert (report.counterexample.x, report.counterexample.p) == (3, 3)


def test_outcome_band_is_ceiling_not_floor():
    # the floor-based band is too tight for odd budgets: heap 5, no money,
    # marker in hand loses three points against a five-dollar opponent
    table = solve(5, 5)
    assert table.row(5)[0] == -3
    assert -3 < -(5 // 2)


def test_forced_win_threshold_closed_forms():
    assert forced_win_threshold(1, 7, Side.LEFT) == 7
    assert forced_win_threshold(2, 1, Side.LEFT) == 4
    assert forced_win_threshold(2, 1, Side.RIGHT) == 6
    for q in range(7):
        assert forced_win_threshold(2, q, Side.LEFT) == 3 * q + 1
        assert forced_win_threshold(3, q, Side.LEFT) == 7 * q + 3
        assert forced_win_threshold(2, q, Side.RIGHT) == 3 * q + 3
        assert forced_win_threshold(3, q, Side.RIGHT) == 7 * q + 7


def _left_forces(x: int, p: int, q: int, marker: Side) -> bool:
    """Left wins all of the next ``x`` auctions: the oracle scores heap ``x`` at ``x``."""
    return real_oracle_table(p + q, x)[x][marker is Side.LEFT][p] == x


def test_forced_win_search_basics():
    # single auction with the marker: matching the opponent suffices
    assert _left_forces(1, 2, 2, Side.LEFT)
    assert not _left_forces(1, 1, 2, Side.LEFT)
    # without the marker one extra dollar is needed
    assert _left_forces(1, 3, 2, Side.RIGHT)
    assert not _left_forces(1, 2, 2, Side.RIGHT)


def test_forced_win_five_moves_broke_opponent():
    assert _left_forces(5, 15, 0, Side.LEFT)
    assert not _left_forces(5, 14, 0, Side.LEFT)


def test_verify_forced_wins_small():
    for tb, x in ((4, 1), (7, 2), (10, 3)):
        for marker in (Side.LEFT, Side.RIGHT):
            for p in range(tb + 1):
                expected = p >= forced_win_threshold(x, tb - p, marker)
                assert _left_forces(x, p, tb - p, marker) == expected, (tb, x, p, marker)


def test_forced_wins_three_readings():
    """Each player wins all of the next ``x`` auctions exactly when the closed
    form says so, the oracle scores heap ``x`` at ``x`` for Left or ``-x`` for
    Right, and the solver, read through the zero-sum flip, agrees."""
    for tb in range(41):
        layers, table = real_oracle_table(tb, 5), solve(tb, 5)
        for x in range(1, 6):
            for marker in (Side.LEFT, Side.RIGHT):
                for p in range(tb + 1):
                    q = tb - p
                    expected = (
                        p >= forced_win_threshold(x, q, marker),
                        q >= forced_win_threshold(x, p, marker.opponent),
                    )
                    slow = layers[x][marker is Side.LEFT][p]
                    fast = value(table, make_position(tb, x, p, marker))
                    cell = (tb, x, p, marker)
                    assert (slow == x, slow == -x) == expected, cell
                    assert (fast == x, fast == -x) == expected, cell


@pytest.mark.parametrize(
    "p, marker, score",
    [
        pytest.param(1, Side.LEFT, 0, id="a-dollar-and-the-marker-draw"),
        pytest.param(0, Side.LEFT, -2, id="the-marker-alone-loses-both"),
        pytest.param(1, Side.RIGHT, -2, id="a-dollar-alone-loses-both"),
    ],
)
def test_opening_example(p, marker, score):
    """The paper's opening question at total budget 5: can the opponent
    take both pebbles of heap 2?"""
    assert real_oracle_table(5, 2)[2][marker is Side.LEFT][p] == score
    assert value(solve(5, 2), make_position(5, 2, p, marker)) == score
    assert (5 - p >= forced_win_threshold(2, p, marker.opponent)) == (score == -2)


# Bid graphs: ``bcs.core.bid_graph`` and the ``bids`` command that renders it.
def test_tie_graph_bid0_is_involution():
    edges = {(e.src, e.dst) for e in bid_graph(5, "tie", 0)}
    assert edges == {(0, 5), (5, 0), (1, 4), (4, 1), (2, 3), (3, 2)}
    assert all((b, a) in edges for a, b in edges)


def test_tie_graph_bid2_one_directional():
    assert {(e.src, e.dst) for e in bid_graph(5, "tie", 2)} == {(2, 5), (3, 4)}


def test_tie_graph_composition_symmetry():
    for tb in (4, 5, 6):
        for bid in range(tb + 1):
            for e in bid_graph(tb, "tie", bid):
                assert e.dst == tb - e.src + bid


def test_tie_graph_infeasible_bid_is_empty():
    assert tuple(bid_graph(1, "tie", 1)) == ()


def _undominated(edges):
    return [(e.src, e.dst) for e in edges if not e.dominated]


def test_holder_win_graphs_match_reduction():
    full = tuple(bid_graph(5, "holder-win", 2))
    assert {(e.src, e.dst) for e in full} == {(2, 0), (3, 1), (4, 2), (5, 3)}
    assert set(_undominated(full)) == {(2, 0), (3, 1), (4, 2)}
    assert _undominated(bid_graph(5, "holder-win", 3)) == [(3, 0)]


def test_opponent_win_graphs_match_reduction():
    assert set(_undominated(bid_graph(5, "opponent-win", 2))) == {(1, 3), (2, 4), (3, 5)}
    assert _undominated(bid_graph(5, "opponent-win", 3)) == [(2, 5)]
    assert len(_undominated(bid_graph(5, "opponent-win", 1))) == 5


def test_dominated_flags():
    flags = {e.src: e.dominated for e in bid_graph(5, "holder-win", 3)}
    assert flags == {3: False, 4: True, 5: True}


def test_bid_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        bid_graph(5, "tie", 6)


# The case ids keep the names the kinds had when they were enum members.
@pytest.mark.parametrize(
    "kind",
    [pytest.param(k, id=f"BidGraphKind.{k.upper().replace('-', '_')}") for k in BID_KINDS],
)
def test_bid_graph_takes_a_kind_or_its_value(kind, capsys):
    """``bid_graph`` and ``bcs bids --kind`` take the same kind string, and
    the JSON document carries it back with the library's edges."""
    edges = tuple(bid_graph(3, kind, 0))
    assert edges
    assert main(["bids", "--tb", "3", "--kind", kind, "--bid", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == kind
    label = "0T" if kind == "tie" else "0W"
    assert payload["edges"] == [
        {"from": e.src, "to": e.dst, "label": label, "dominated": e.dominated} for e in edges
    ]


def test_bid_graph_refuses_an_unknown_kind():
    message = "bid graph kind must be one of holder-win, opponent-win, tie, got "
    for kind in ("bogus", "Tie", "holder_win", ""):
        with pytest.raises(ValueError, match=f"^{message}{kind!r}$"):
            bid_graph(3, kind, 0)
        # A bad tb is refused first, then the kind, then the bid.
        with pytest.raises(BudgetOutOfRange):
            bid_graph(-1, kind, 9)
        with pytest.raises(ValueError, match=f"^{message}"):
            bid_graph(3, kind, 9)
    assert all(tuple(bid_graph(3, kind, 0)) for kind in BID_KINDS)


def test_dot_export_shape(capsys):
    assert main(["bids", "--tb", "5", "--kind", "tie", "--bid", "0", "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    assert dot.count("->") == 6
    assert 'label="0T"' in dot


def test_json_export_shape(capsys):
    argv = ["bids", "--tb", "5", "--kind", "holder-win", "--bid", "3", "--reduced", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["schema_version", "tb", "kind", "bid", "reduced", "nodes", "edges"]
    assert payload["nodes"] == list(range(6))
    assert payload["edges"] == [
        {"from": 3, "to": 0, "label": "3W", "dominated": False}
    ]


def test_oracle_equivalence_helper():
    assert check_oracle_equivalence(5, 12).passed


# The ten invariant scans as they were before they became row checks run
# by one pass, kept verbatim as the reference: each walks every heap up to
# ``x_max`` itself.
def _cells(table: OutcomeTable):
    for x in range(table.x_max + 1):
        row = table.row(x)
        for p in range(table.tb + 1):
            yield x, p, row


def _budget_monotonicity(table: OutcomeTable) -> Counterexample | None:
    """More money with the marker is never worse."""
    for x, p, row in _cells(table):
        if p >= 1 and row[p] < row[p - 1]:
            return Counterexample(x, p, (row[p], row[p - 1]))
    return None


def _tie_monotonicity(table: OutcomeTable) -> Counterexample | None:
    """A smaller tie is always weakly better for the marker holder."""
    tb = table.tb
    for x in range(1, table.x_max + 1):
        prev = table.row(x - 1)
        for p in range(tb + 1):
            q = tb - p
            for l in range(1, min(p, q) + 1):
                if 1 - prev[q + l] > 1 - prev[q + l - 1]:
                    return Counterexample(
                        x, p, (1 - prev[q + l], 1 - prev[q + l - 1]), f"l={l}"
                    )
    return None


def _marker_monotonicity(table: OutcomeTable) -> Counterexample | None:
    """The marker never hurts, and is worth at most two points."""
    tb = table.tb
    for x, p, row in _cells(table):
        with_marker = row[p]
        without = -row[tb - p]
        if not without <= with_marker <= without + 2:
            return Counterexample(x, p, (without, with_marker))
    return None


def _marker_dominance(table: OutcomeTable) -> Counterexample | None:
    """Holding the marker beats the flip of any reachable opposing split."""
    tb = table.tb
    for x, p, row in _cells(table):
        q = tb - p
        for l in range(p + 1):
            if row[p] < -row[q + l]:
                return Counterexample(x, p, (row[p], -row[q + l]), f"l={l}")
    return None


def _marker_worth(table: OutcomeTable) -> Counterexample | None:
    """The marker is worth at most one dollar."""
    tb = table.tb
    for x, p, row in _cells(table):
        if p < tb and row[p] > -row[tb - (p + 1)]:
            return Counterexample(x, p, (row[p], -row[tb - (p + 1)]))
    return None


def _sign_border(table: OutcomeTable) -> Counterexample | None:
    """Outcomes are non-negative iff Left holds at least half the budget,
    strictly on odd heaps."""
    tb = table.tb
    for x, p, row in _cells(table):
        v = row[p]
        if 2 * p >= tb:
            bad = v < 0 or (x % 2 == 1 and v <= 0)
        else:
            bad = v > 0 or (x % 2 == 1 and v >= 0)
        if bad:
            return Counterexample(x, p, (v,))
    return None


def _bounded_outcome(table: OutcomeTable) -> Counterexample | None:
    """Outcomes stay within [-ceil(tb/2), ceil(tb/2) + 1].

    Both ends are attained.  The lower end really is the ceiling for odd
    budgets: at tb=5 the cell (x=5, p=0) reaches -3, one below the floor.
    """
    tb = table.tb
    lo, hi = -((tb + 1) // 2), (tb + 1) // 2 + 1
    for x, p, row in _cells(table):
        if not lo <= row[p] <= hi:
            return Counterexample(x, p, (row[p], lo, hi))
    return None


def _budget_lipschitz(table: OutcomeTable) -> Counterexample | None:
    """One extra dollar gains at most two points."""
    for x, p, row in _cells(table):
        if p + 1 <= table.tb and row[p + 1] > row[p] + 2:
            return Counterexample(x, p, (row[p], row[p + 1]))
    return None


def _heap_monotonicity(table: OutcomeTable) -> Counterexample | None:
    """Per parity, rich columns never decrease and poor columns never grow."""
    tb = table.tb
    for x in range(2, table.x_max + 1):
        row, prev = table.row(x), table.row(x - 2)
        for p in range(tb + 1):
            if 2 * p >= tb:
                bad = row[p] < prev[p]
            else:
                bad = row[p] > prev[p]
            if bad:
                return Counterexample(x, p, (prev[p], row[p]))
    return None


def _parity(table: OutcomeTable) -> Counterexample | None:
    """Scores share the parity of the heap."""
    for x, p, row in _cells(table):
        if (row[p] - x) % 2 != 0:
            return Counterexample(x, p, (row[p],))
    return None




_REFERENCE_SCANS = (
    _budget_monotonicity,
    _tie_monotonicity,
    _marker_monotonicity,
    _marker_dominance,
    _marker_worth,
    _sign_border,
    _bounded_outcome,
    _budget_lipschitz,
    _heap_monotonicity,
    _parity,
)


def _reference_suite(table):
    return [
        InvariantReport(name, table.tb, table.x_max, scan(table))
        for name, scan in zip(INVARIANT_NAMES, _REFERENCE_SCANS, strict=True)
    ]


def _full_copy(table):
    """The same heaps, given row by row; the table stores them only up to
    its 2-cycle, as a solved table does."""
    return OutcomeTable(table.tb, tuple(map(table.row, range(table.x_max + 1))))


@st.composite
def _tables(draw, periodic):
    """Small tables with values in a small range, so that violations occur.
    A periodic table stores at least two rows and may reach past them."""
    tb = draw(st.integers(0, 5))
    row = st.tuples(*[st.integers(-3, 4)] * (tb + 1))
    rows = tuple(draw(st.lists(row, min_size=2 if periodic else 1, max_size=6)))
    x_max = len(rows) - 1 + (draw(st.integers(0, 6)) if periodic else 0)
    return OutcomeTable(tb, rows, x_max)


@settings(max_examples=400, deadline=None)
@given(_tables(periodic=False))
def test_row_checks_match_the_reference_scans_on_full_tables(table):
    assert run_invariant_suite_on(table) == _reference_suite(table)


@settings(max_examples=400, deadline=None)
@given(_tables(periodic=True))
def test_row_checks_read_a_periodic_table_like_its_full_copy(table):
    assert run_invariant_suite_on(table) == _reference_suite(table)


@pytest.mark.parametrize("tb", range(41))
def test_suite_on_a_solved_table_equals_its_full_copy(tb):
    table = solve(tb, convergence_bound(tb) + 2)
    assert _full_copy(table) == table
    assert run_invariant_suite_on(table) == _reference_suite(table)


def _pulled(rows, log):
    """``rows``, each logged by its heap as the pass pulls it."""
    for x, row in enumerate(rows):
        log.append(x)
        yield row


@pytest.mark.parametrize("x_max", [0, 1, 2, 3, 5, 11, 12, 13, 14, 15, 30])
def test_scan_stops_two_heaps_past_the_stored_rows(monkeypatch, x_max):
    table = solve(7, x_max)
    assert len(table.rows) == min(x_max + 1, 13)  # x_star = 11 at tb 7
    seen, pulled = [], []

    def record(x, row, prev, older):
        seen.append(x)
        assert row == table.row(x)
        assert prev == (table.row(x - 1) if x >= 1 else None)
        assert older == (table.row(x - 2) if x >= 2 else None)

    monkeypatch.setattr(analysis, "_INVARIANTS", (("parity", record),))
    for rows in (table.rows, solver_rows(7)):  # stored, and as the solver yields them
        seen.clear()
        pulled.clear()
        assert all(r.passed for r in run_invariant_suite(7, x_max, _pulled(rows, pulled)))
        assert seen == list(range(min(x_max, len(table.rows) + 1) + 1))
        assert pulled == list(range(len(table.rows)))  # not one row past x_max
    fail = lambda x, row, prev, older: (0, (x,), "n") if x == x_max else None
    monkeypatch.setattr(analysis, "_INVARIANTS", (("parity", fail),))
    found = run_invariant_suite_on(table)[INVARIANT_NAMES.index("parity")].counterexample
    assert found == (Counterexample(x_max, 0, (x_max,), "n") if x_max <= 14 else None)


def test_suite_reads_no_row_past_the_repeat(monkeypatch):
    table = solve(8, convergence_bound(8) + 2)
    loaded = load_outcome_table_json(json.loads("".join(_table_chunks(table, "json"))))
    heaps = []
    monkeypatch.setattr(analysis, "_INVARIANTS", (("parity", lambda x, *rows: heaps.append(x)),))
    monkeypatch.setattr(OutcomeTable, "row", lambda t, x: pytest.fail(f"row({x}) read"))
    run_invariant_suite_on(table)
    assert heaps == list(range(len(table.rows) + 2)) and len(table.rows) + 1 < table.x_max
    heaps.clear()
    run_invariant_suite_on(loaded)
    assert heaps == list(range(len(loaded.rows) + 2)) and len(loaded.rows) + 1 < loaded.x_max


@pytest.mark.parametrize("tb", range(41))
def test_streamed_suite_equals_the_suite_on_a_solved_table(tb):
    bound = convergence_bound(tb)
    for x_max in (0, 1, 2, 3, 5, 10, bound + 2, bound + 7):
        streamed = run_invariant_suite(tb, x_max, solver_rows(tb))
        assert streamed == run_invariant_suite_on(solve(tb, x_max)), x_max


def test_streamed_suite_holds_a_few_rows_not_the_table():
    # Measured: a peak of 13,480 bytes, about 13 rows of 1,072 bytes.  The
    # 2,487-row table that the suite was once run on took 6,785,400 to build.
    tb = 128
    run_invariant_suite(tb, 3, solver_rows(tb))  # first-call caches are not counted
    tracemalloc.start()
    try:
        reports = run_invariant_suite(tb, convergence_bound(tb) + 2, solver_rows(tb))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < 32 * 1024


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=8).map(tuple))
def test_property_a_names_one_first_fall_for_the_kernel_and_the_invariant(row):
    falls = [p for p in range(len(row) - 1) if row[p] > row[p + 1]]
    p = falls[0] if falls else None
    assert first_fall(row) == p
    report = run_invariant_suite_on(OutcomeTable(len(row) - 1, (row,)))[0]
    assert report.name == "budget_monotonicity"
    if p is None:
        assert report.passed and next_row(len(row) - 1, row)
    else:
        assert report.counterexample == (0, p + 1, (row[p + 1], row[p]), "")
        with pytest.raises(RowNotMonotone, match=f"^row falls from {row[p]} at budget {p} to "):
            next_row(len(row) - 1, row)


@pytest.mark.parametrize("tb", [2, 5, 8, 11])
def test_violation_in_the_last_stored_row_is_found_where_the_full_copy_has_it(tb):
    solved = solve(tb, convergence_bound(tb) + 2)
    last = list(solved.rows[-1])
    last[tb] = last[tb - 1] - 2  # a descent, read as the row below heap len(rows)
    table = OutcomeTable(tb, solved.rows[:-1] + (tuple(last),), solved.x_max)
    reports = run_invariant_suite_on(table)
    assert reports == _reference_suite(table)
    tie = reports[INVARIANT_NAMES.index("tie_monotonicity")]
    assert tie.counterexample.x == len(table.rows)
    budget = reports[INVARIANT_NAMES.index("budget_monotonicity")]
    assert budget.counterexample[:2] == (len(table.rows) - 1, tb)


# The two row checks as they were before each stated its property in one
# pass, kept verbatim as the reference: O(tb^2) double loops over a row.
def _tie_monotonicity_row(x: int, row: Row, prev: Row | None, older: Row | None):
    """A smaller tie is always weakly better for the marker holder."""
    if prev is None:
        return None
    tb = len(row) - 1
    for p in range(tb + 1):
        q = tb - p
        for l in range(1, min(p, q) + 1):
            if 1 - prev[q + l] > 1 - prev[q + l - 1]:
                return p, (1 - prev[q + l], 1 - prev[q + l - 1]), f"l={l}"


def _marker_dominance_row(x: int, row: Row, prev: Row | None, older: Row | None):
    """Holding the marker beats the flip of any reachable opposing split."""
    tb = len(row) - 1
    for p in range(tb + 1):
        q = tb - p
        for l in range(p + 1):
            if row[p] < -row[q + l]:
                return p, (row[p], -row[q + l]), f"l={l}"


@st.composite
def _row_pairs(draw):
    """Two rows of one budget up to 64: either small values drawn freely, or
    a walk of small steps that falls now and then, so that a row has few
    falls at places the draw picks."""
    tb = draw(st.integers(0, 64))

    def one_row():
        if draw(st.booleans()):
            return tuple(draw(st.lists(st.integers(-4, 5), min_size=tb + 1, max_size=tb + 1)))
        steps = draw(st.lists(st.sampled_from((0, 0, 1, 1, 2, -1, -2)), min_size=tb, max_size=tb))
        return tuple(accumulate(steps, initial=draw(st.integers(-tb // 2 - 1, 1))))

    return one_row(), one_row()


@settings(max_examples=300, deadline=None)
@given(_row_pairs())
def test_one_pass_row_checks_match_the_double_loops(rows):
    row, prev = rows
    for x, below in ((0, None), (1, prev)):
        tie = analysis._tie_monotonicity(x, row, below, None)
        assert tie == _tie_monotonicity_row(x, row, below, None)
        dominance = analysis._marker_dominance(x, row, below, None)
        assert dominance == _marker_dominance_row(x, row, below, None)


@pytest.mark.parametrize(
    "prev,expected",
    [
        ((3, 0, 0, 0, 0), None),  # a fall at budget 1 alone: no tie reads it
        ((0, 2, 1, 1, 3, 2, 2), (2, (-1, -2), "l=1")),  # falls at 2 and 5: the last
        ((0, 2, 1, 3, 2, 4, 5), (3, (-1, -2), "l=1")),  # falls at 2 and 4: the last
        ((1, 0), None),  # tb 1: the same
        ((0, 1, 0), (1, (1, 0), "l=1")),  # the one fall a tie reads at tb 2
    ],
)
def test_tie_monotonicity_reports_the_last_fall_of_the_row_below(prev, expected):
    row = (0,) * len(prev)
    assert analysis._tie_monotonicity(1, row, prev, None) == expected
    assert _tie_monotonicity_row(1, row, prev, None) == expected


@pytest.mark.parametrize(
    "row,expected",
    [
        ((-2, 0, 0, 1, 2), None),
        ((1, 0, -1), (1, (0, 1), "l=1")),
        ((-3, 1, 0, -1, 3), (2, (0, 1), "l=1")),
        ((0, -1, 2), (1, (-1, 1), "l=0")),
        ((1, 1, -1), (2, (-1, 1), "l=2")),
    ],
)
def test_marker_dominance_reads_the_suffix_minimum(row, expected):
    assert analysis._marker_dominance(0, row, None, None) == expected
    assert _marker_dominance_row(0, row, None, None) == expected


def _planted_oracle(cells):
    """``oracle_table`` with the cells ``(x, p, marker)`` moved by two."""
    def oracle_table(tb, x_max):
        layers = [list(map(list, layer)) for layer in real_oracle_table(tb, x_max)]
        for x, p, marker in cells:
            layers[x][marker is Side.LEFT][p] += 2
        return layers

    return oracle_table


@pytest.mark.parametrize(
    "cells,first",
    [
        (((8, 0, Side.LEFT), (7, 3, Side.RIGHT), (7, 3, Side.LEFT)), (7, 3, Side.LEFT, "marker=L")),
        (((7, 4, Side.LEFT), (7, 3, Side.RIGHT), (9, 0, Side.RIGHT)), (7, 3, Side.RIGHT, "marker=R")),
        # heap 0, where every value is 0 and the flip reads the same as the row
        (((0, 4, Side.LEFT), (0, 2, Side.RIGHT)), (0, 2, Side.RIGHT, "marker=R")),
        (((0, 3, Side.LEFT), (1, 0, Side.RIGHT)), (0, 3, Side.LEFT, "marker=L")),
        # both ends of each marker's row: the flip reads row[tb] at p = 0, row[0] at p = tb
        (((3, 0, Side.LEFT), (3, 5, Side.RIGHT)), (3, 0, Side.LEFT, "marker=L")),
        (((4, 5, Side.LEFT), (5, 0, Side.LEFT)), (4, 5, Side.LEFT, "marker=L")),
        (((3, 0, Side.RIGHT), (3, 1, Side.LEFT)), (3, 0, Side.RIGHT, "marker=R")),
        (((4, 5, Side.RIGHT), (6, 0, Side.RIGHT)), (4, 5, Side.RIGHT, "marker=R")),
    ],
)
def test_oracle_equivalence_reports_the_first_disagreement(monkeypatch, capsys, cells, first):
    # the first cell in (x, p, marker L then R) order, with (fast, slow)
    monkeypatch.setattr("bcs.oracle.oracle_table", _planted_oracle(cells))
    x, p, marker, note = first
    fast = value(solve(5, 12), make_position(5, x, p, marker))
    report = check_oracle_equivalence(5, 12)
    assert report.counterexample == Counterexample(x, p, (fast, fast + 2), note)
    assert main(["check", "--tb", "5", "--x-max", "12", "--with-oracle"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == str(report)
