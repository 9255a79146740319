"""Equilibrium evaluation on arbitrary finite acyclic rulesets.

A ruleset gives each player their own weighted edges over a finite acyclic
position graph (a move and the signed amount it adds to the running score,
so Right's edges normally carry non-positive weights), a penalty for
auction winners who cannot move, a total budget, and a set of allowed bids.

Evaluation order matters in principle, so :func:`general_values` fills
either one: by default Left declares a bid-move pair against Right's best
response, with ``minimax`` Right declares first.  The two orders agree
whenever the ruleset satisfies the three uniqueness properties checked by
:func:`check_property_U`:

* (A) budget monotonicity: more money never hurts, for either marker state;
* (B) marker monotonicity: holding the marker never hurts;
* (C) marker worth: the marker is never worth more than one dollar.

Every state is filled once, bottom-up, successors first, in an order
checked for cycles when the ruleset is built, so no depth limit caps the
length of play; the reader then answers any state from that one table.
If a player cannot afford any allowed bid, the other player acts unopposed
(paying some allowed bid, marker untouched).  A state where neither can bid
at a position where play should continue is invalid and raises
:class:`InvalidRuleset` when read.  Only a start state can be invalid: every
transfer leaves its receiver at least the smallest allowed bid.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Callable, Hashable, Mapping, NamedTuple

from .core import BudgetOutOfRange, GameError, Side

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


# The most payoffs one fill may evaluate (seconds of work); a larger ruleset
# is refused before anything is allocated for it.
MAX_FILL_PAYOFFS = 10**7


def _require_fillable(positions, left_edges, right_edges, tb: int, n_bids: int) -> None:
    """Refuse a fill that may evaluate more than ``MAX_FILL_PAYOFFS`` payoffs:
    at each of a position's ``2 (tb + 1)`` states, each bid of Left with each
    of her moves (or none) against each bid of Right with each of his."""
    moves = sum(
        max(1, len(left_edges.get(x, ()))) * max(1, len(right_edges.get(x, ())))
        for x in positions
    )
    if (size := 2 * (tb + 1) * n_bids**2 * moves) > MAX_FILL_PAYOFFS:
        raise ValueError(
            f"ruleset fill of up to {size:,} payoffs exceeds the limit of {MAX_FILL_PAYOFFS:,}"
        )


class _RulesetFields(NamedTuple):
    positions: tuple[Node, ...]
    left_edges: Mapping[Node, Mapping[Node, int]]
    right_edges: Mapping[Node, Mapping[Node, int]]
    penalties: Mapping[Node, int]
    tb: int
    bid_set: frozenset[int]


class GeneralRuleset(_RulesetFields):
    """A finite acyclic two-player bidding ruleset.

    ``left_edges`` / ``right_edges`` map a position to that player's moves
    out of it, each with its signed score contribution.  ``penalties``
    applies to positions where an auction winner is stuck without a move;
    unmentioned positions default to 0.
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
        penalties = dict(penalties)
        bid_set = frozenset(bid_set)
        if tb < 0:
            raise BudgetOutOfRange(f"total budget must be >= 0, got {tb}")
        if not bid_set:
            raise InvalidRuleset("bid set must be non-empty")
        if not all(0 <= b <= tb for b in bid_set):
            raise InvalidRuleset(f"bids {sorted(bid_set)} outside 0..{tb}")
        _require_fillable(positions, left_edges, right_edges, tb, len(bid_set))
        known = set(positions)
        if len(known) < len(positions):
            twice = next(x for i, x in enumerate(positions) if x in positions[:i])
            raise ValueError(f"position {twice!r} declared twice")
        for x, ys in list(left_edges.items()) + list(right_edges.items()):
            if x not in known or not set(ys) <= known:
                targets = ", ".join(sorted(map(repr, ys)))
                raise ValueError(f"move {x!r} -> [{targets}] references unknown positions")
        rs = super().__new__(cls, positions, left_edges, right_edges, penalties, tb, bid_set)
        _fill_order(rs)  # raises CyclicRuleset
        return rs

    def edges(self, side: Side, x: Node) -> Mapping[Node, int]:
        """``side``'s moves out of ``x``, each with its weight."""
        table = self.left_edges if side is Side.LEFT else self.right_edges
        return table.get(x, {})

    def penalty(self, x: Node) -> int:
        return self.penalties.get(x, 0)


def _fill_order(rs: GeneralRuleset) -> tuple[Node, ...]:
    """The positions with every move's target before its source."""
    succ = {x: {*rs.edges(Side.LEFT, x), *rs.edges(Side.RIGHT, x)} for x in rs.positions}
    try:
        return tuple(TopologicalSorter(succ).static_order())
    except CycleError:
        raise CyclicRuleset("move graph contains a cycle") from None


def _fill(rs: GeneralRuleset, minimax: bool) -> _Table:
    """Values of every state, each position's after its successors'."""
    table: _Table = {}
    for x in _fill_order(rs):
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


def general_values(
    ruleset: GeneralRuleset, minimax: bool = False
) -> Callable[[Node, int, Side], int]:
    """Fill every state once and return the reader ``value(node,
    left_budget, marker)``: Left declares first, or Right with ``minimax``.

    The reader raises ``ValueError`` for an unknown node or a budget outside
    ``0..tb``, and :class:`InvalidRuleset` where no player can bid.
    """
    table = _fill(ruleset, minimax)
    tb = ruleset.tb

    def value(node: Node, left_budget: int, marker: Side) -> int:
        if node not in table:
            raise ValueError(f"unknown position {node!r}")
        if not 0 <= left_budget <= tb:
            raise ValueError(f"Left budget {left_budget} outside 0..{tb}")
        found = table[node][marker][left_budget]
        if found is None:
            raise InvalidRuleset(
                f"no player can bid at {node!r} with budgets {left_budget}/"
                f"{tb - left_budget} and bids {sorted(ruleset.bid_set)}"
            )
        return found

    return value


class UViolation(NamedTuple):
    """One uniqueness-property failure with its smallest witness."""

    prop: str
    node: Node
    budgets: tuple[int, ...]
    lhs: int
    rhs: int
    detail: str = ""


def check_property_U(ruleset: GeneralRuleset) -> tuple[UViolation, ...]:
    """Check budget monotonicity, marker monotonicity, and marker worth: the
    violations, none when all three hold.

    Each position's maximin rows are read once, richest Left first and the
    marker-Left row first, so a state nobody can bid at is refused at its
    highest Left budget.  Each violated property has one witness: the first
    in declaration order, richest Left first, and marker Left first for A.
    """
    value = general_values(ruleset)
    tb = ruleset.tb
    first: dict[str, UViolation] = {}
    for x in ruleset.positions:
        hat = [value(x, p, Side.LEFT) for p in range(tb, -1, -1)][::-1]
        plain = [value(x, p, Side.RIGHT) for p in range(tb, -1, -1)][::-1]
        for p in range(tb, -1, -1):
            found = [
                UViolation("A", x, (p, p - 1), row[p], row[p - 1], detail)
                for row, detail in ((hat, "marker-left"), (plain, "marker-right"))
                if p and row[p] < row[p - 1]
            ]
            if hat[p] < plain[p]:
                found.append(UViolation("B", x, (p,), hat[p], plain[p]))
            if p < tb and hat[p] > plain[p + 1]:
                found.append(UViolation("C", x, (p, p + 1), hat[p], plain[p + 1]))
            for v in found:
                first.setdefault(v.prop, v)
    return tuple(sorted(first.values(), key=lambda v: v.prop))


def parse_ruleset(text: str) -> GeneralRuleset:
    """Parse the line-oriented ruleset format.

    Directives, one per line (``#`` comments and blank lines ignored)::

        node NAME [terminal PENALTY]
        edge L|R FROM TO WEIGHT
        tb N
        bids all | bids B1,B2,...

    ``tb`` and ``bids`` appear once each, and each side has at most one edge
    from a position to a position; a line with extra tokens is refused.
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
                terminal = len(parts) == 4 and parts[2].lower() == "terminal"
                if len(parts) != 2 and not terminal:
                    raise ValueError("expected 'node NAME [terminal PENALTY]'")
                name = parts[1]
                positions.append(name)
                for side_edges in edges.values():
                    side_edges.setdefault(name, {})
                if terminal:
                    penalties[name] = int(parts[3])
            elif kind == "edge":
                if len(parts) != 5:
                    raise ValueError("expected 'edge L|R FROM TO WEIGHT'")
                side, src, dst, weight = parts[1], parts[2], parts[3], int(parts[4])
                if side.upper() not in edges:
                    raise ValueError(f"edge side must be L or R, got {side!r}")
                moves = edges[side.upper()].setdefault(src, {})
                if dst in moves:
                    raise ValueError(f"second {side.upper()} edge from {src!r} to {dst!r}")
                moves[dst] = weight
            elif kind == "tb":
                if len(parts) != 2:
                    raise ValueError("expected 'tb N'")
                if tb is not None:
                    raise ValueError("second 'tb' directive")
                tb = int(parts[1])
            elif kind == "bids":
                if len(parts) == 1:
                    raise ValueError("expected 'bids all' or 'bids B1,B2,...'")
                if bids_text is not None:
                    raise ValueError("second 'bids' directive")
                bids_text = line.split(None, 1)[1]
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except ValueError as exc:
            raise RulesetParseError(f"line {lineno}: {raw.strip()!r}: {exc}") from None

    if tb is None:
        raise RulesetParseError("missing 'tb N' directive")
    if bids_text is None:
        raise RulesetParseError("missing 'bids' directive")
    if bids_text.strip().lower() == "all":
        _require_fillable(positions, edges["L"], edges["R"], tb, tb + 1)
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
