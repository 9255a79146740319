import pytest

from bcs.analysis import (
    INVARIANT_NAMES,
    BidGraphKind,
    bid_graph,
    bid_graph_to_dot,
    bid_graph_to_json_dict,
    check_oracle_equivalence,
    forced_win_threshold,
    left_can_force_final_wins,
    run_invariant_suite_on,
    verify_forced_wins,
)
from bcs.core import OutcomeTable, Side
from bcs.solver import solve


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
    with pytest.raises(ValueError):
        forced_win_threshold(0, 1, Side.LEFT)


def test_forced_win_search_basics():
    # single auction with the marker: matching the opponent suffices
    assert left_can_force_final_wins(1, 2, 2, Side.LEFT)
    assert not left_can_force_final_wins(1, 1, 2, Side.LEFT)
    # without the marker one extra dollar is needed
    assert left_can_force_final_wins(1, 3, 2, Side.RIGHT)
    assert not left_can_force_final_wins(1, 2, 2, Side.RIGHT)


def test_forced_win_five_moves_broke_opponent():
    assert left_can_force_final_wins(5, 15, 0, Side.LEFT)
    assert not left_can_force_final_wins(5, 14, 0, Side.LEFT)


def test_verify_forced_wins_small():
    assert verify_forced_wins(4, 1).passed
    assert verify_forced_wins(7, 2).passed
    assert verify_forced_wins(10, 3).passed


def test_tie_graph_bid0_is_involution():
    g = bid_graph(5, BidGraphKind.TIE, 0)
    edges = {(e.src, e.dst) for e in g.edges}
    assert edges == {(0, 5), (5, 0), (1, 4), (4, 1), (2, 3), (3, 2)}
    assert all((b, a) in edges for a, b in edges)


def test_tie_graph_bid2_one_directional():
    g = bid_graph(5, BidGraphKind.TIE, 2)
    assert {(e.src, e.dst) for e in g.edges} == {(2, 5), (3, 4)}


def test_tie_graph_composition_symmetry():
    for tb in (4, 5, 6):
        for bid in range(tb + 1):
            g = bid_graph(tb, BidGraphKind.TIE, bid)
            for e in g.edges:
                assert e.dst == tb - e.src + bid


def test_tie_graph_infeasible_bid_is_empty():
    assert bid_graph(1, BidGraphKind.TIE, 1).edges == ()


def test_holder_win_graphs_match_reduction():
    full = bid_graph(5, BidGraphKind.HOLDER_WIN, 2)
    assert {(e.src, e.dst) for e in full.edges} == {(2, 0), (3, 1), (4, 2), (5, 3)}
    reduced = bid_graph(5, BidGraphKind.HOLDER_WIN, 2, reduced=True)
    assert {(e.src, e.dst) for e in reduced.edges} == {(2, 0), (3, 1), (4, 2)}
    lone = bid_graph(5, BidGraphKind.HOLDER_WIN, 3, reduced=True)
    assert [(e.src, e.dst) for e in lone.edges] == [(3, 0)]


def test_opponent_win_graphs_match_reduction():
    reduced = bid_graph(5, BidGraphKind.OPPONENT_WIN, 2, reduced=True)
    assert {(e.src, e.dst) for e in reduced.edges} == {(1, 3), (2, 4), (3, 5)}
    lone = bid_graph(5, BidGraphKind.OPPONENT_WIN, 3, reduced=True)
    assert [(e.src, e.dst) for e in lone.edges] == [(2, 5)]
    ones = bid_graph(5, BidGraphKind.OPPONENT_WIN, 1, reduced=True)
    assert len(ones.edges) == 5


def test_dominated_flags():
    g = bid_graph(5, BidGraphKind.HOLDER_WIN, 3)
    flags = {e.src: e.dominated for e in g.edges}
    assert flags == {3: False, 4: True, 5: True}


def test_bid_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        bid_graph(5, BidGraphKind.TIE, 6)


def test_dot_export_shape():
    dot = bid_graph_to_dot(bid_graph(5, BidGraphKind.TIE, 0))
    assert dot.startswith("digraph")
    assert dot.count("->") == 6
    assert 'label="0T"' in dot


def test_json_export_shape():
    payload = bid_graph_to_json_dict(bid_graph(5, BidGraphKind.HOLDER_WIN, 3, True))
    assert "schema_version" not in payload  # the CLI adds the envelope
    assert payload["nodes"] == list(range(6))
    assert payload["edges"] == [
        {"from": 3, "to": 0, "label": "3W", "dominated": False}
    ]


def test_oracle_equivalence_helper():
    assert check_oracle_equivalence(5, 12).passed
