"""Equilibrium evaluation on arbitrary finite acyclic rulesets.

A ruleset gives each player their own weighted edges over a finite acyclic
position graph (a move and the signed amount it adds to the running score,
so Right's edges normally carry non-positive weights), a penalty for
auction winners who cannot move, a total budget, and a set of allowed bids.

Evaluation order matters in principle, so both orders are implemented:
``general_maximin`` has Left declare a bid-move pair against Right's best
response, ``general_minimax`` the reverse.  They agree whenever the ruleset
satisfies the three uniqueness properties checked by
:func:`check_property_U`:

* (A) budget monotonicity: more money never hurts, for either marker state;
* (B) marker monotonicity: holding the marker never hurts;
* (C) marker worth: the marker is never worth more than one dollar.

Values are filled bottom-up, successors first, in the topological order
found when the ruleset is built, so no depth limit caps the length of play.
If a player cannot afford any allowed bid, the other player acts unopposed
(paying some allowed bid, marker untouched).  A state where neither can bid
at a position where play should continue is invalid and raises
:class:`InvalidRuleset` when read.  Only a start state can be invalid: every
transfer leaves its receiver at least the smallest allowed bid.
"""

from __future__ import annotations

from typing import Hashable, Mapping, NamedTuple

from .core import GameError, Side

Node = Hashable
# Per node and marker holder, the value at each Left budget; None where
# neither player can bid.
_Table = dict[Node, dict[Side, list[int | None]]]


# A ruleset is input, so its errors are ``ValueError``s too: the CLI exits 2.
class InvalidRuleset(GameError, ValueError):
    """Raised when a reachable state leaves neither player able to bid."""


class CyclicRuleset(GameError, ValueError):
    """Raised when the move graph admits infinite play."""


class RulesetParseError(GameError, ValueError):
    """Raised on malformed ruleset text."""


class _RulesetFields(NamedTuple):
    positions: tuple[Node, ...]
    left_edges: Mapping[Node, Mapping[Node, int]]
    right_edges: Mapping[Node, Mapping[Node, int]]
    penalties: Mapping[Node, int]
    tb: int
    bid_set: frozenset[int]
    order: tuple[Node, ...]


class GeneralRuleset(_RulesetFields):
    """A finite acyclic two-player bidding ruleset.

    ``left_edges`` / ``right_edges`` map a position to that player's moves
    out of it, each with its signed score contribution.  ``penalties``
    applies to positions where an auction winner is stuck without a move;
    unmentioned positions default to 0.  ``order`` is derived, not given:
    the positions with every move's source before its target.
    """

    __slots__ = ()

    def __new__(
        cls,
        positions: tuple[Node, ...],
        left_edges: Mapping[Node, Mapping[Node, int]],
        right_edges: Mapping[Node, Mapping[Node, int]],
        penalties: Mapping[Node, int],
        tb: int,
        bid_set: frozenset[int],
    ) -> GeneralRuleset:
        positions = tuple(positions)
        left_edges = {x: dict(ys) for x, ys in left_edges.items()}
        right_edges = {x: dict(ys) for x, ys in right_edges.items()}
        bid_set = frozenset(bid_set)
        if tb < 0:
            raise ValueError(f"total budget must be >= 0, got {tb}")
        if not bid_set:
            raise InvalidRuleset("bid set must be non-empty")
        if not all(0 <= b <= tb for b in bid_set):
            raise InvalidRuleset(f"bids {sorted(bid_set)} outside 0..{tb}")
        known = set(positions)
        for x, ys in list(left_edges.items()) + list(right_edges.items()):
            if x not in known or not set(ys) <= known:
                targets = ", ".join(sorted(map(repr, ys)))
                raise ValueError(f"move {x!r} -> [{targets}] references unknown positions")
        order = _topological_order(positions, left_edges, right_edges)
        return super().__new__(
            cls, positions, left_edges, right_edges, penalties, tb, bid_set, order
        )

    def __getnewargs__(self) -> tuple:
        return tuple(self)[:-1]  # ``order`` is rebuilt, not passed

    def edges(self, side: Side, x: Node) -> Mapping[Node, int]:
        """``side``'s moves out of ``x``, each with its weight."""
        table = self.left_edges if side is Side.LEFT else self.right_edges
        return table.get(x, {})

    def penalty(self, x: Node) -> int:
        return self.penalties.get(x, 0)


def _topological_order(
    positions: tuple[Node, ...],
    left_edges: Mapping[Node, Mapping[Node, int]],
    right_edges: Mapping[Node, Mapping[Node, int]],
) -> tuple[Node, ...]:
    """Positions with every move's source before its target."""
    succ = {x: set(left_edges.get(x, ())) | set(right_edges.get(x, ())) for x in positions}
    indeg = {x: 0 for x in positions}
    for x in positions:
        for y in succ[x]:
            indeg[y] += 1
    queue = [x for x in positions if indeg[x] == 0]
    order = []
    while queue:
        x = queue.pop()
        order.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    if len(order) != len(positions):
        raise CyclicRuleset("move graph contains a cycle")
    return tuple(order)


def _fill(rs: GeneralRuleset, minimax: bool, start: Node | None = None) -> _Table:
    """Values of every state at ``start`` and below it, or at every position
    when ``start`` is None, filled in reverse topological order."""
    order = rs.order
    if start is not None:
        below = {start}
        for x in order[order.index(start):]:
            if x in below:
                below.update(rs.edges(Side.LEFT, x), rs.edges(Side.RIGHT, x))
        order = [x for x in order if x in below]
    table: _Table = {}
    for x in reversed(order):
        table[x] = {
            marker: [_auction(rs, table, x, p, marker, minimax) for p in range(rs.tb + 1)]
            for marker in Side
        }
    return table


def _auction(
    rs: GeneralRuleset, table: _Table, x: Node, p: int, marker: Side, minimax: bool
) -> int | None:
    """One auction at ``x`` with Left budget ``p``, read off the successors'
    values; None when neither player can bid."""
    left, right = rs.edges(Side.LEFT, x), rs.edges(Side.RIGHT, x)
    if not left and not right:
        return rs.penalty(x)
    stuck = [(None, 0)]

    def outcome(y: Node | None, w: int, budget: int, after: Side) -> int:
        return rs.penalty(x) if y is None else table[y][after][budget] + w

    # A declaration is (bid, value if it wins outright, value if it wins a
    # tie): the winner pays and moves, or takes the penalty when stuck, and a
    # tie hands the marker to the loser.
    lefts = [
        (l, outcome(y, w, p - l, marker), outcome(y, w, p - l, Side.RIGHT))
        for l in rs.bid_set if l <= p
        for y, w in (left.items() or stuck)
    ]
    rights = [
        (r, outcome(z, w, p + r, marker), outcome(z, w, p + r, Side.LEFT))
        for r in rs.bid_set if r <= rs.tb - p
        for z, w in (right.items() or stuck)
    ]
    if not lefts and not rights:
        return None
    # A player who cannot afford any allowed bid passes: bid -1 loses every
    # auction, so the other player acts unopposed.
    passing = [(-1, 0, 0)]
    lefts, rights = lefts or passing, rights or passing

    def payoff(ld: tuple[int, int, int], rd: tuple[int, int, int]) -> int:
        (l, l_win, l_tie), (r, r_win, r_tie) = ld, rd
        if l != r:
            return l_win if l > r else r_win
        return l_tie if marker is Side.LEFT else r_tie

    if minimax:
        return min(max(payoff(ld, rd) for ld in lefts) for rd in rights)
    return max(min(payoff(ld, rd) for rd in rights) for ld in lefts)


def _read(rs: GeneralRuleset, table: _Table, x: Node, p: int, marker: Side) -> int:
    value = table[x][marker][p]
    if value is None:
        raise InvalidRuleset(
            f"no player can bid at {x!r} with budgets {p}/{rs.tb - p} and bids "
            f"{sorted(rs.bid_set)}"
        )
    return value


def general_maximin(
    ruleset: GeneralRuleset, node: Node, left_budget: int, marker: Side
) -> int:
    """Value when the marker side is as given and Left declares first."""
    _check_state(ruleset, node, left_budget)
    return _read(ruleset, _fill(ruleset, False, node), node, left_budget, marker)


def general_minimax(
    ruleset: GeneralRuleset, node: Node, left_budget: int, marker: Side
) -> int:
    """Reverse declaration order: Right declares, Left best-responds."""
    _check_state(ruleset, node, left_budget)
    return _read(ruleset, _fill(ruleset, True, node), node, left_budget, marker)


def _check_state(ruleset: GeneralRuleset, node: Node, left_budget: int) -> None:
    if node not in set(ruleset.positions):
        raise ValueError(f"unknown position {node!r}")
    if not 0 <= left_budget <= ruleset.tb:
        raise ValueError(f"Left budget {left_budget} outside 0..{ruleset.tb}")


class UViolation(NamedTuple):
    """One uniqueness-property failure with its smallest witness."""

    prop: str
    node: Node
    budgets: tuple[int, ...]
    lhs: int
    rhs: int
    detail: str = ""


class UReport(NamedTuple):
    holds: bool
    violations: tuple[UViolation, ...]


def check_property_U(ruleset: GeneralRuleset) -> UReport:
    """Check budget monotonicity, marker monotonicity, and marker worth.

    Maximin values are evaluated at every position and budget split, for
    both marker holders.  Each violated property contributes one witness,
    the first found scanning positions in declaration order and budgets
    from the richest Left downwards.
    """
    table = _fill(ruleset, minimax=False)
    tb = ruleset.tb

    def hat(x: Node, p: int) -> int:
        return _read(ruleset, table, x, p, Side.LEFT)

    def plain(x: Node, p: int) -> int:
        return _read(ruleset, table, x, p, Side.RIGHT)

    violations = []

    def scan_a() -> UViolation | None:
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

    def scan_b() -> UViolation | None:
        for x in ruleset.positions:
            for p in range(tb, -1, -1):
                if hat(x, p) < plain(x, p):
                    return UViolation("B", x, (p,), hat(x, p), plain(x, p))
        return None

    def scan_c() -> UViolation | None:
        for x in ruleset.positions:
            for p in range(tb - 1, -1, -1):
                if hat(x, p) > plain(x, p + 1):
                    return UViolation("C", x, (p, p + 1), hat(x, p), plain(x, p + 1))
        return None

    for scan in (scan_a, scan_b, scan_c):
        found = scan()
        if found is not None:
            violations.append(found)
    return UReport(holds=not violations, violations=tuple(violations))


def make_unitary_ruleset(tb: int, x_max: int) -> GeneralRuleset:
    """Encode the unit-removal heap game on heap sizes ``0..x_max``.

    Both players may remove one pebble; a Left removal scores +1 and a
    Right removal -1, expressed as signed edge weights.
    """
    return GeneralRuleset(
        positions=tuple(range(x_max + 1)),
        left_edges={x: {x - 1: 1} for x in range(1, x_max + 1)},
        right_edges={x: {x - 1: -1} for x in range(1, x_max + 1)},
        penalties={0: 0},
        tb=tb,
        bid_set=frozenset(range(tb + 1)),
    )


def parse_ruleset(text: str) -> GeneralRuleset:
    """Parse the line-oriented ruleset format.

    Directives, one per line (``#`` comments and blank lines ignored)::

        node NAME [terminal PENALTY]
        edge L|R FROM TO WEIGHT
        tb N
        bids all | bids B1,B2,...
    """
    positions: list[str] = []
    edges: dict[str, dict[str, dict[str, int]]] = {"L": {}, "R": {}}
    penalties: dict[str, int] = {}
    tb: int | None = None
    bids_text: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind == "node":
                name = parts[1]
                positions.append(name)
                for side_edges in edges.values():
                    side_edges.setdefault(name, {})
                if len(parts) > 2:
                    if parts[2].lower() != "terminal" or len(parts) != 4:
                        raise ValueError("expected 'node NAME [terminal PENALTY]'")
                    penalties[name] = int(parts[3])
            elif kind == "edge":
                side, src, dst, weight = parts[1], parts[2], parts[3], int(parts[4])
                if side.upper() not in edges:
                    raise ValueError(f"edge side must be L or R, got {side!r}")
                edges[side.upper()].setdefault(src, {})[dst] = weight
            elif kind == "tb":
                tb = int(parts[1])
            elif kind == "bids":
                bids_text = line.split(None, 1)[1]
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise RulesetParseError(f"line {lineno}: {raw.strip()!r}: {exc}") from None

    if tb is None:
        raise RulesetParseError("missing 'tb N' directive")
    if bids_text is None:
        raise RulesetParseError("missing 'bids' directive")
    if bids_text.strip().lower() == "all":
        bid_set = frozenset(range(tb + 1))
    else:
        try:
            bid_set = frozenset(int(tok) for tok in bids_text.replace(",", " ").split())
        except ValueError as exc:
            raise RulesetParseError(f"bad bid list {bids_text!r}: {exc}") from None

    return GeneralRuleset(
        positions=tuple(positions),
        left_edges=edges["L"],
        right_edges=edges["R"],
        penalties=penalties,
        tb=tb,
        bid_set=bid_set,
    )
