import pytest
from hypothesis import given, settings, strategies as st

from bcs.core import Side
from bcs.general import (
    CyclicRuleset,
    GeneralRuleset,
    InvalidRuleset,
    RulesetParseError,
    check_property_U,
    general_maximin,
    general_minimax,
    make_unitary_ruleset,
    parse_ruleset,
    reduced_symmetric_value,
)
from bcs.solver import solve

from goldens import ZUGZWANG_RULESET


@pytest.fixture(scope="module")
def zugzwang():
    return parse_ruleset(ZUGZWANG_RULESET)


def test_zugzwang_values(zugzwang):
    # with the marker Left cannot extract the forced move; without it she can
    assert general_maximin(zugzwang, "x1", 1, Side.LEFT) == 0
    assert general_maximin(zugzwang, "x1", 1, Side.RIGHT) == 1
    assert general_maximin(zugzwang, "x1", 0, Side.RIGHT) == 1
    assert general_maximin(zugzwang, "x2", 0, Side.LEFT) == 0


def test_zugzwang_minimax_agrees(zugzwang):
    assert general_minimax(zugzwang, "x1", 1, Side.RIGHT) == 1
    assert general_minimax(zugzwang, "x1", 1, Side.LEFT) == 0


def test_zugzwang_marker_monotonicity_fails(zugzwang):
    report = check_property_U(zugzwang)
    assert not report.holds
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.prop == "B"
    assert v.node == "x1"
    assert v.budgets == (1,)
    assert (v.lhs, v.rhs) == (0, 1)


def test_single_terminal_holds_vacuously():
    rs = parse_ruleset("node t terminal 0\ntb 2\nbids all\n")
    assert check_property_U(rs).holds
    assert general_maximin(rs, "t", 1, Side.LEFT) == 0


def test_terminal_penalty_is_the_value():
    rs = parse_ruleset("node t terminal -3\ntb 4\nbids all\n")
    for p in range(5):
        for marker in (Side.LEFT, Side.RIGHT):
            assert general_maximin(rs, "t", p, marker) == -3


def test_unitary_encoding_matches_solver():
    rs = make_unitary_ruleset(5, 6)
    table = solve(5, 6)
    assert general_maximin(rs, 2, 1, Side.LEFT) == 0
    for x in range(7):
        for p in range(6):
            assert general_maximin(rs, x, p, Side.LEFT) == table.row(x)[p]
            assert general_maximin(rs, x, p, Side.RIGHT) == -table.row(x)[5 - p]


def test_unitary_is_in_u():
    for tb in range(9):
        assert check_property_U(make_unitary_ruleset(tb, 20)).holds


def test_minimax_equals_maximin_when_u_holds():
    rs = make_unitary_ruleset(4, 8)
    for x in range(9):
        for p in range(5):
            for marker in (Side.LEFT, Side.RIGHT):
                assert general_maximin(rs, x, p, marker) == general_minimax(
                    rs, x, p, marker
                )


def _two_step_subtraction(tb: int, x_max: int) -> GeneralRuleset:
    """Symmetric removal game where one or two pebbles may be taken."""
    moves = {
        x: frozenset(y for y in (x - 1, x - 2) if y >= 0) for x in range(x_max + 1)
    }
    left_w = {(x, y): x - y for x in range(x_max + 1) for y in moves[x]}
    right_w = {edge: -w for edge, w in left_w.items()}
    return GeneralRuleset(
        positions=tuple(range(x_max + 1)),
        left_moves=moves,
        right_moves=dict(moves),
        left_weights=left_w,
        right_weights=right_w,
        penalties={},
        tb=tb,
        bid_set=frozenset(range(tb + 1)),
    )


def test_two_step_subtraction_reduction_agrees():
    rs = _two_step_subtraction(3, 7)
    assert check_property_U(rs).holds
    for x in range(8):
        for p in range(4):
            assert reduced_symmetric_value(rs, x, p) == general_maximin(
                rs, x, p, Side.LEFT
            )


def test_reduced_agrees_on_unitary():
    rs = make_unitary_ruleset(5, 6)
    table = solve(5, 6)
    for x in range(7):
        for p in range(6):
            assert reduced_symmetric_value(rs, x, p) == table.row(x)[p]


def test_reduced_requires_symmetry(zugzwang):
    with pytest.raises(InvalidRuleset):
        reduced_symmetric_value(zugzwang, "x1", 1)


def test_tb0_is_alternating_play():
    rs = _two_step_subtraction(0, 8)

    def alternating(x, mover):
        moves = rs.moves(mover, x)
        if not moves:
            return rs.penalty(x)
        if mover is Side.LEFT:
            return max(
                alternating(y, Side.RIGHT) + rs.weight(Side.LEFT, x, y) for y in moves
            )
        return min(
            alternating(y, Side.LEFT) + rs.weight(Side.RIGHT, x, y) for y in moves
        )

    for x in range(9):
        assert general_maximin(rs, x, 0, Side.LEFT) == alternating(x, Side.LEFT)
        assert general_maximin(rs, x, 0, Side.RIGHT) == alternating(x, Side.RIGHT)


def test_restricted_bids_unopposed_turns():
    # only bid 2 exists: a broke opponent cannot contest the auction
    rs = parse_ruleset(
        "node a\nnode b terminal 0\nedge L a b 1\nedge R a b -1\ntb 2\nbids 2\n"
    )
    assert general_maximin(rs, "a", 2, Side.RIGHT) == 1
    assert general_maximin(rs, "a", 0, Side.LEFT) == -1


@st.composite
def rulesets_with_a_broke_player(draw):
    """Small DAGs whose bid sets lack 0, so a poor enough player cannot bid."""
    n = draw(st.integers(min_value=2, max_value=4))
    tb = draw(st.integers(min_value=1, max_value=4))
    nodes = tuple(range(n))
    moves = {Side.LEFT: {i: set() for i in nodes}, Side.RIGHT: {i: set() for i in nodes}}
    weights: dict[Side, dict[tuple[int, int], int]] = {Side.LEFT: {}, Side.RIGHT: {}}
    for i in nodes:
        for j in range(i + 1, n):
            for side in (Side.LEFT, Side.RIGHT):
                if draw(st.booleans()):
                    moves[side][i].add(j)
                    weights[side][(i, j)] = draw(st.integers(min_value=-2, max_value=2))
    bids = draw(st.frozensets(st.integers(min_value=1, max_value=tb), min_size=1))
    penalties = {i: draw(st.integers(min_value=-2, max_value=2)) for i in nodes}
    return GeneralRuleset(
        positions=nodes,
        left_moves=moves[Side.LEFT],
        right_moves=moves[Side.RIGHT],
        left_weights=weights[Side.LEFT],
        right_weights=weights[Side.RIGHT],
        penalties=penalties,
        tb=tb,
        bid_set=bids,
    )


@settings(max_examples=150, deadline=None)
@given(rulesets_with_a_broke_player())
def test_unopposed_turn_is_the_movers_best_option(rs):
    """Where only one player can afford a bid, that player pays some allowed
    bid and moves, or takes the penalty when stuck; the marker stays put."""
    checked = 0
    for x in rs.positions:
        if rs.is_fully_terminal(x):
            continue
        for p in range(rs.tb + 1):
            can_bid = {
                Side.LEFT: [b for b in rs.bid_set if b <= p],
                Side.RIGHT: [b for b in rs.bid_set if b <= rs.tb - p],
            }
            if bool(can_bid[Side.LEFT]) == bool(can_bid[Side.RIGHT]):
                continue
            mover = Side.LEFT if can_bid[Side.LEFT] else Side.RIGHT
            for marker in (Side.LEFT, Side.RIGHT):
                options = [
                    general_maximin(rs, y, p - b if mover is Side.LEFT else p + b, marker)
                    + rs.weight(mover, x, y)
                    for b in can_bid[mover]
                    for y in rs.moves(mover, x)
                ]
                if not options:
                    expected = rs.penalty(x)
                elif mover is Side.LEFT:
                    expected = max(options)
                else:
                    expected = min(options)
                assert general_maximin(rs, x, p, marker) == expected
                checked += 1
    # p = 0 leaves Left broke while Right, holding all tb >= min(bids), can bid
    assert checked > 0 or all(rs.is_fully_terminal(x) for x in rs.positions)


def test_invalid_when_nobody_can_bid():
    rs = parse_ruleset(
        "node a\nnode b terminal 0\nedge L a b 1\nedge R a b -1\ntb 2\nbids 2\n"
    )
    with pytest.raises(InvalidRuleset):
        general_maximin(rs, "a", 1, Side.LEFT)


def test_cycle_detection():
    with pytest.raises(CyclicRuleset):
        parse_ruleset(
            "node a\nnode b\nedge L a b 1\nedge R b a 1\ntb 1\nbids all\n"
        )


def test_parse_errors():
    with pytest.raises(RulesetParseError):
        parse_ruleset("node a\ntb 1\n")  # no bids
    with pytest.raises(RulesetParseError):
        parse_ruleset("node a\nbids all\n")  # no tb
    with pytest.raises(RulesetParseError):
        parse_ruleset("edge X a b 1\ntb 1\nbids all\n")
    with pytest.raises(RulesetParseError):
        parse_ruleset("frobnicate\ntb 1\nbids all\n")


def test_parse_comments_and_bid_lists():
    rs = parse_ruleset(
        "# a chain\nnode a\nnode b terminal 2\n\nedge L a b 3  # scores 3\ntb 3\nbids 0,2\n"
    )
    assert rs.bid_set == frozenset({0, 2})
    assert rs.penalty("b") == 2
    assert general_maximin(rs, "b", 1, Side.LEFT) == 2


@st.composite
def sign_constrained_rulesets(draw):
    """Small DAGs with Left-favoring Left edges and Right-favoring Right edges."""
    n = draw(st.integers(min_value=2, max_value=4))
    tb = draw(st.integers(min_value=0, max_value=3))
    nodes = tuple(range(n))
    left_moves: dict[int, set[int]] = {i: set() for i in nodes}
    right_moves: dict[int, set[int]] = {i: set() for i in nodes}
    left_w: dict[tuple[int, int], int] = {}
    right_w: dict[tuple[int, int], int] = {}
    for i in nodes:
        for j in nodes:
            if j <= i:
                continue
            if draw(st.booleans()):
                left_moves[i].add(j)
                left_w[(i, j)] = draw(st.integers(min_value=0, max_value=2))
            if draw(st.booleans()):
                right_moves[i].add(j)
                right_w[(i, j)] = draw(st.integers(min_value=-2, max_value=0))
    return GeneralRuleset(
        positions=nodes,
        left_moves={i: frozenset(v) for i, v in left_moves.items()},
        right_moves={i: frozenset(v) for i, v in right_moves.items()},
        left_weights=left_w,
        right_weights=right_w,
        penalties={},
        tb=tb,
        bid_set=frozenset(range(tb + 1)),
    )


@settings(max_examples=150, deadline=None)
@given(sign_constrained_rulesets())
def test_sign_constraints_protect_budget_and_worth_properties(rs):
    """Open question probed empirically; never assumed anywhere in the engine.

    Favorable weight signs with a zero bid allowed do NOT guarantee all
    three uniqueness properties: marker monotonicity (B) can fail on
    asymmetric graphs (see the pinned counterexample below).  Budget
    monotonicity (A) and marker worth (C) have never been observed to fail
    under these constraints, and that is what this fuzz pins down.
    """
    report = check_property_U(rs)
    assert all(v.prop == "B" for v in report.violations)


def test_marker_zugzwang_despite_favorable_signs():
    """Minimal refutation of "favorable signs imply uniqueness properties".

    Left's only move is free (weight 0) and unlocks a forced losing move
    for Right.  Holding the marker at the root forces Left to win the zero
    tie and move; without the marker the root is dead and worth 0.  So the
    marker costs Left a point even though every Left weight is nonnegative,
    every Right weight nonpositive, and 0 is an allowed bid.
    """
    rs = GeneralRuleset(
        positions=("a", "b", "c"),
        left_moves={"a": frozenset({"b"}), "b": frozenset(), "c": frozenset()},
        right_moves={"a": frozenset(), "b": frozenset({"c"}), "c": frozenset()},
        left_weights={("a", "b"): 0},
        right_weights={("b", "c"): -1},
        penalties={},
        tb=0,
        bid_set=frozenset({0}),
    )
    assert general_maximin(rs, "a", 0, Side.LEFT) == -1
    assert general_maximin(rs, "a", 0, Side.RIGHT) == 0
    report = check_property_U(rs)
    assert not report.holds
    assert [v.prop for v in report.violations] == ["B"]
