import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bcs.core import Side
from bcs.general import (
    MAX_FILL_PAYOFFS,
    CyclicRuleset,
    GeneralRuleset,
    InvalidRuleset,
    RulesetParseError,
    UViolation,
    check_property_U,
    general_values,
    parse_ruleset,
)
from bcs.solver import solve

from goldens import ZUGZWANG_RULESET, make_unitary_ruleset


@pytest.fixture(scope="module")
def zugzwang():
    return parse_ruleset(ZUGZWANG_RULESET)


def test_zugzwang_values(zugzwang):
    # with the marker Left cannot extract the forced move; without it she can
    value = general_values(zugzwang)
    assert value("x1", 1, Side.LEFT) == 0
    assert value("x1", 1, Side.RIGHT) == 1
    assert value("x1", 0, Side.RIGHT) == 1
    assert value("x2", 0, Side.LEFT) == 0


def test_zugzwang_minimax_agrees(zugzwang):
    value = general_values(zugzwang, True)
    assert value("x1", 1, Side.RIGHT) == 1
    assert value("x1", 1, Side.LEFT) == 0


def test_zugzwang_marker_monotonicity_fails(zugzwang):
    violations = check_property_U(zugzwang)
    assert len(violations) == 1
    v = violations[0]
    assert v.prop == "B"
    assert v.node == "x1"
    assert v.budgets == (1,)
    assert (v.lhs, v.rhs) == (0, 1)


def test_single_terminal_holds_vacuously():
    rs = parse_ruleset("node t terminal 0\ntb 2\nbids all\n")
    assert check_property_U(rs) == ()
    assert general_values(rs)("t", 1, Side.LEFT) == 0


def test_terminal_penalty_is_the_value():
    value = general_values(parse_ruleset("node t terminal -3\ntb 4\nbids all\n"))
    for p in range(5):
        for marker in (Side.LEFT, Side.RIGHT):
            assert value("t", p, marker) == -3


def test_unitary_encoding_matches_solver():
    value = general_values(make_unitary_ruleset(5, 6))
    table = solve(5, 6)
    assert value(2, 1, Side.LEFT) == 0
    for x in range(7):
        for p in range(6):
            assert value(x, p, Side.LEFT) == table.row(x)[p]
            assert value(x, p, Side.RIGHT) == -table.row(x)[5 - p]


def test_unitary_is_in_u():
    for tb in range(9):
        assert check_property_U(make_unitary_ruleset(tb, 20)) == ()
    # so is the two-pebble subtraction game, an example of the order test below
    assert check_property_U(_two_step_subtraction(3, 7)) == ()


def _two_step_subtraction(tb: int, x_max: int) -> GeneralRuleset:
    """Symmetric removal game where one or two pebbles may be taken."""
    left = {x: {y: x - y for y in (x - 1, x - 2) if y >= 0} for x in range(x_max + 1)}
    return GeneralRuleset(
        positions=tuple(range(x_max + 1)),
        left_edges=left,
        right_edges={x: {y: -w for y, w in ys.items()} for x, ys in left.items()},
        penalties={},
        tb=tb,
        bid_set=frozenset(range(tb + 1)),
    )


def test_deep_chain_has_no_depth_limit():
    rs = make_unitary_ruleset(0, 3000)
    assert general_values(rs)(3000, 0, Side.LEFT) == 0
    assert check_property_U(rs) == ()


def test_fill_limit_counts_states_and_payoffs():
    # One terminal position with one bid: 2 (tb + 1) states of one payoff.
    half = MAX_FILL_PAYOFFS // 2
    assert parse_ruleset(f"node a terminal 0\ntb {half - 1}\nbids 0\n").tb == half - 1
    with pytest.raises(ValueError, match=f"up to {MAX_FILL_PAYOFFS + 2:,} payoffs"):
        parse_ruleset(f"node a terminal 0\ntb {half}\nbids 0\n")
    # Every bid: 2 (tb + 1)^3 payoffs a position, refused before the bid set is built.
    assert len(parse_ruleset("node a terminal 0\ntb 169\nbids all\n").bid_set) == 170
    with pytest.raises(ValueError, match=f"up to {2 * 171**3:,} payoffs"):
        parse_ruleset("node a terminal 0\ntb 170\nbids all\n")
    # A position's moves multiply: 3 x 2 at "a", 1 at each of the three
    # terminals, with four bids, make 2 (tb + 1) * 16 * 9 payoffs.
    def fork(tb):
        return GeneralRuleset(
            positions=("a", "b", "c", "d"),
            left_edges={"a": {"b": 1, "c": 1, "d": 1}},
            right_edges={"a": {"b": -1, "c": -1}},
            penalties={},
            tb=tb,
            bid_set=frozenset({0, 1, 2, 3}),
        )

    assert fork(34721).tb == 34721  # 9,999,936 payoffs
    with pytest.raises(ValueError, match="up to 10,368,000 payoffs"):
        fork(35999)
    assert make_unitary_ruleset(60, 20).tb == 60  # 2 * 61^3 * 21 payoffs


def test_bids_all_is_refused_before_the_bid_set_is_built(monkeypatch):
    def guarded(items=()):
        assert not (isinstance(items, range) and len(items) > MAX_FILL_PAYOFFS)
        return frozenset(items)

    monkeypatch.setattr("bcs.general.frozenset", guarded, raising=False)
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_ruleset("node a terminal 0\ntb 99999999999\nbids all\n")


def test_tb0_is_alternating_play():
    rs = _two_step_subtraction(0, 8)

    def alternating(x, mover):
        edges = rs.edges(mover, x)
        if not edges:
            return rs.penalty(x)
        best = max if mover is Side.LEFT else min
        return best(alternating(y, mover.opponent) + w for y, w in edges.items())

    value = general_values(rs)
    for x in range(9):
        assert value(x, 0, Side.LEFT) == alternating(x, Side.LEFT)
        assert value(x, 0, Side.RIGHT) == alternating(x, Side.RIGHT)


def test_restricted_bids_unopposed_turns():
    # only bid 2 exists: a broke opponent cannot contest the auction
    rs = parse_ruleset(
        "node a\nnode b terminal 0\nedge L a b 1\nedge R a b -1\ntb 2\nbids 2\n"
    )
    value = general_values(rs)
    assert value("a", 2, Side.RIGHT) == 1
    assert value("a", 0, Side.LEFT) == -1


@st.composite
def small_rulesets(draw):
    """Small DAGs with bid sets drawn with and without 0, so some states are
    contested, some unopposed (a poor player cannot bid) and some invalid."""
    n = draw(st.integers(min_value=2, max_value=4))
    tb = draw(st.integers(min_value=0, max_value=4))
    nodes = tuple(range(n))
    edges = {Side.LEFT: {}, Side.RIGHT: {}}
    for i in nodes:
        for j in range(i + 1, n):
            for side in (Side.LEFT, Side.RIGHT):
                if draw(st.booleans()):
                    edges[side].setdefault(i, {})[j] = draw(st.integers(-2, 2))
    return GeneralRuleset(
        positions=nodes,
        left_edges=edges[Side.LEFT],
        right_edges=edges[Side.RIGHT],
        penalties={i: draw(st.integers(min_value=-2, max_value=2)) for i in nodes},
        tb=tb,
        bid_set=draw(st.frozensets(st.integers(min_value=0, max_value=tb), min_size=1)),
    )


@settings(max_examples=150, deadline=None)
@given(small_rulesets())
@example(make_unitary_ruleset(4, 8))
@example(_two_step_subtraction(3, 7))
def test_minimax_equals_maximin_when_u_holds(rs):
    """The uniqueness theorem: when properties A, B and C hold, both
    declaration orders give the same value at every state."""
    try:
        holds = not check_property_U(rs)
    except InvalidRuleset:  # some state has no bidder
        holds = False
    assume(holds)
    maximin, minimax = general_values(rs), general_values(rs, True)
    for x in rs.positions:
        for p in range(rs.tb + 1):
            for marker in (Side.LEFT, Side.RIGHT):
                assert maximin(x, p, marker) == minimax(x, p, marker)


def _reference_violations(ruleset):
    """The three per-property scans that ``check_property_U`` once ran,
    kept verbatim as the reference of its one pass per position."""
    value = general_values(ruleset)
    tb = ruleset.tb

    def hat(x, p):
        return value(x, p, Side.LEFT)

    def plain(x, p):
        return value(x, p, Side.RIGHT)

    def scan_a():
        for x in ruleset.positions:
            for p in range(tb, 0, -1):
                if hat(x, p) < hat(x, p - 1):
                    return UViolation(
                        "A", x, (p, p - 1), hat(x, p), hat(x, p - 1), "marker-left"
                    )
                if plain(x, p) < plain(x, p - 1):
                    return UViolation(
                        "A", x, (p, p - 1), plain(x, p), plain(x, p - 1), "marker-right"
                    )
        return None

    def scan_b():
        for x in ruleset.positions:
            for p in range(tb, -1, -1):
                if hat(x, p) < plain(x, p):
                    return UViolation("B", x, (p,), hat(x, p), plain(x, p))
        return None

    def scan_c():
        for x in ruleset.positions:
            for p in range(tb - 1, -1, -1):
                if hat(x, p) > plain(x, p + 1):
                    return UViolation("C", x, (p, p + 1), hat(x, p), plain(x, p + 1))
        return None

    return tuple(v for v in (scan_a(), scan_b(), scan_c()) if v is not None)


@st.composite
def named_rulesets(draw):
    """DAGs of 2-5 positions named by ints and strs, declared in any order,
    with bid sets drawn with and without their small bids, so that some
    states are invalid."""
    n = draw(st.integers(min_value=2, max_value=5))
    tb = draw(st.integers(min_value=0, max_value=6))
    names = [i if draw(st.booleans()) else f"s{i}" for i in range(n)]  # a topological order
    edges = {Side.LEFT: {}, Side.RIGHT: {}}
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            for side in Side:
                if draw(st.booleans()):
                    edges[side].setdefault(x, {})[y] = draw(st.integers(-3, 3))
    return GeneralRuleset(
        positions=tuple(draw(st.permutations(names))),
        left_edges=edges[Side.LEFT],
        right_edges=edges[Side.RIGHT],
        penalties={x: draw(st.integers(-3, 3)) for x in names},
        tb=tb,
        bid_set=draw(st.frozensets(st.integers(min_value=0, max_value=tb), min_size=1)),
    )


def _outcome(check, rs):
    try:
        return check(rs)
    except InvalidRuleset as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(named_rulesets())
# A fails on the marker-right side only, declared out of topological order.
@example(
    GeneralRuleset(
        positions=("s2", 1, "s0"),
        left_edges={1: {"s2": 3}},
        right_edges={"s0": {1: 2}},
        penalties={"s0": 1, 1: -3},
        tb=3,
        bid_set=frozenset({1, 2}),
    )
)
# Nobody can bid at Left budgets 1..3: refused at the richest of them.
@example(
    parse_ruleset("node t terminal 0\nnode a\nedge L a t 1\nedge R a t -1\ntb 4\nbids 4\n")
)
@example(make_unitary_ruleset(4, 8))
def test_one_pass_matches_the_per_property_scans(rs):
    """Each property's witness is the first in declaration order, richest
    Left first, marker Left first for A; an invalid state is refused with
    the same message."""
    assert _outcome(check_property_U, rs) == _outcome(_reference_violations, rs)


def _one_auction(rs, value, x, p, marker, minimax):
    """The literal max-min (or min-max) over both players' (bid, move)
    declarations at one state, given ``value`` at the successors."""

    def declarations(side, budget):
        moves = list(rs.edges(side, x)) or [None]  # None: stuck, takes the penalty
        return [(b, y) for b in rs.bid_set if b <= budget for y in moves] or [(-1, None)]

    def payoff(l, y, r, z):
        left_wins = l > r or (l == r and marker is Side.LEFT)
        winner, bid, move = (Side.LEFT, l, y) if left_wins else (Side.RIGHT, r, z)
        if move is None:
            return rs.penalty(x)
        after = marker.opponent if l == r else marker  # a tie passes the marker
        budget = p - bid if winner is Side.LEFT else p + bid
        return value(move, budget, after) + rs.edges(winner, x)[move]

    lefts, rights = declarations(Side.LEFT, p), declarations(Side.RIGHT, rs.tb - p)
    if minimax:
        return min(max(payoff(l, y, r, z) for l, y in lefts) for r, z in rights)
    return max(min(payoff(l, y, r, z) for r, z in rights) for l, y in lefts)


@settings(max_examples=150, deadline=None)
@given(small_rulesets())
def test_unopposed_turn_is_the_movers_best_option(rs):
    """Every turn is one auction: at each non-terminal state, contested or
    unopposed, the value is the literal max-min (min-max) over the (bid,
    move) declarations, read off the values at the successors.  An unopposed
    mover pays some allowed bid and moves, or takes the penalty when stuck,
    and the marker stays put; a state where nobody can bid is invalid."""
    checked = {"contested": 0, "unopposed": 0}
    for minimax in (False, True):
        value = general_values(rs, minimax)
        for x in rs.positions:
            if not rs.edges(Side.LEFT, x) and not rs.edges(Side.RIGHT, x):
                continue
            for p in range(rs.tb + 1):
                bidders = (min(rs.bid_set) <= p) + (min(rs.bid_set) <= rs.tb - p)
                for marker in (Side.LEFT, Side.RIGHT):
                    if not bidders:
                        with pytest.raises(InvalidRuleset):
                            value(x, p, marker)
                        continue
                    expected = _one_auction(rs, value, x, p, marker, minimax)
                    assert value(x, p, marker) == expected
                    checked["contested" if bidders == 2 else "unopposed"] += 1
    # p = 0 leaves Right all tb >= min(bids), so some state can be checked
    assert sum(checked.values()) > 0 or not (rs.left_edges or rs.right_edges)


def test_invalid_when_nobody_can_bid():
    rs = parse_ruleset(
        "node a\nnode b terminal 0\nedge L a b 1\nedge R a b -1\ntb 2\nbids 2\n"
    )
    with pytest.raises(InvalidRuleset, match=r"no player can bid at 'a' with budgets 1/1"):
        general_values(rs)("a", 1, Side.LEFT)


def test_reader_rejects_states_outside_the_ruleset(zugzwang):
    value = general_values(zugzwang)
    with pytest.raises(ValueError, match="unknown position 'x3'"):
        value("x3", 0, Side.LEFT)
    for p in (-1, 2):  # -1 would otherwise read the richest Left's value
        with pytest.raises(ValueError, match=rf"Left budget {p} outside 0\.\.1"):
            value("x1", p, Side.LEFT)


def test_ruleset_rejects_a_negative_budget_and_an_empty_bid_set():
    fields = dict(positions=("a",), left_edges={}, right_edges={}, penalties={})
    with pytest.raises(ValueError, match="total budget must be >= 0, got -1"):
        GeneralRuleset(**fields, tb=-1, bid_set=frozenset({0}))
    with pytest.raises(InvalidRuleset, match="bid set must be non-empty"):
        GeneralRuleset(**fields, tb=1, bid_set=frozenset())


def test_ruleset_copies_its_penalties():
    penalties = {"t": 1}
    rs = GeneralRuleset(("t",), {}, {}, penalties, 1, frozenset({0}))
    penalties["t"] = 7
    assert (rs.penalty("t"), general_values(rs)("t", 1, Side.LEFT)) == (1, 1)


def test_cycle_detection():
    with pytest.raises(CyclicRuleset):
        parse_ruleset(
            "node a\nnode b\nedge L a b 1\nedge R b a 1\ntb 1\nbids all\n"
        )
    with pytest.raises(CyclicRuleset, match="move graph contains a cycle"):
        parse_ruleset("node a\nedge L a a 0\ntb 1\nbids all\n")  # a self-loop


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
    assert general_values(rs)("b", 1, Side.LEFT) == 2


@st.composite
def sign_constrained_rulesets(draw):
    """Small DAGs with Left-favoring Left edges and Right-favoring Right edges."""
    n = draw(st.integers(min_value=2, max_value=4))
    tb = draw(st.integers(min_value=0, max_value=3))
    nodes = tuple(range(n))
    left: dict[int, dict[int, int]] = {}
    right: dict[int, dict[int, int]] = {}
    for i in nodes:
        for j in nodes:
            if j <= i:
                continue
            if draw(st.booleans()):
                left.setdefault(i, {})[j] = draw(st.integers(min_value=0, max_value=2))
            if draw(st.booleans()):
                right.setdefault(i, {})[j] = draw(st.integers(min_value=-2, max_value=0))
    return GeneralRuleset(
        positions=nodes,
        left_edges=left,
        right_edges=right,
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
    assert all(v.prop == "B" for v in check_property_U(rs))


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
        left_edges={"a": {"b": 0}},
        right_edges={"b": {"c": -1}},
        penalties={},
        tb=0,
        bid_set=frozenset({0}),
    )
    value = general_values(rs)
    assert value("a", 0, Side.LEFT) == -1
    assert value("a", 0, Side.RIGHT) == 0
    assert [v.prop for v in check_property_U(rs)] == ["B"]
