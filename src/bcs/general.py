"""Equilibrium evaluation on arbitrary finite acyclic rulesets.

A ruleset gives each player their own move map over a finite acyclic
position graph, a signed integer weight per move edge (the amount the move
adds to the running score, so Right's edges normally carry non-positive
weights), a penalty for auction winners who cannot move, a total budget,
and a set of allowed bids.

Evaluation order matters in principle, so both orders are implemented:
``general_maximin`` has Left declare a bid-move pair against Right's best
response, ``general_minimax`` the reverse.  They agree whenever the ruleset
satisfies the three uniqueness properties checked by
:func:`check_property_U`:

* (A) budget monotonicity: more money never hurts, for either marker state;
* (B) marker monotonicity: holding the marker never hurts;
* (C) marker worth: the marker is never worth more than one dollar.

If a player cannot afford any allowed bid, the other player acts unopposed
(paying some allowed bid, marker untouched); if neither can bid at a
position where play should continue, the ruleset is invalid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from .core import GameError, Side

Node = Hashable
Edge = tuple[Node, Node]


class InvalidRuleset(GameError):
    """Raised when a reachable state leaves neither player able to bid."""


class CyclicRuleset(GameError):
    """Raised when the move graph admits infinite play."""


class RulesetParseError(GameError):
    """Raised on malformed ruleset text."""


@dataclass(frozen=True)
class GeneralRuleset:
    """A finite acyclic two-player bidding ruleset.

    ``left_weights`` / ``right_weights`` are signed score contributions per
    move edge.  ``penalties`` applies to positions where an auction winner
    is stuck without a move; unmentioned positions default to 0.
    """

    positions: tuple[Node, ...]
    left_moves: Mapping[Node, frozenset[Node]]
    right_moves: Mapping[Node, frozenset[Node]]
    left_weights: Mapping[Edge, int]
    right_weights: Mapping[Edge, int]
    penalties: Mapping[Node, int]
    tb: int
    bid_set: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(self.positions))
        object.__setattr__(
            self,
            "left_moves",
            {x: frozenset(ys) for x, ys in self.left_moves.items()},
        )
        object.__setattr__(
            self,
            "right_moves",
            {x: frozenset(ys) for x, ys in self.right_moves.items()},
        )
        object.__setattr__(self, "bid_set", frozenset(self.bid_set))
        if self.tb < 0:
            raise ValueError(f"total budget must be >= 0, got {self.tb}")
        if not self.bid_set:
            raise InvalidRuleset("bid set must be non-empty")
        if not all(0 <= b <= self.tb for b in self.bid_set):
            raise InvalidRuleset(f"bids {sorted(self.bid_set)} outside 0..{self.tb}")
        known = set(self.positions)
        for x, ys in list(self.left_moves.items()) + list(self.right_moves.items()):
            if x not in known or not set(ys) <= known:
                raise ValueError(f"move {x!r} -> {set(ys)!r} references unknown positions")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        succ = {x: set() for x in self.positions}
        for x in self.positions:
            succ[x] |= self.left_moves.get(x, frozenset())
            succ[x] |= self.right_moves.get(x, frozenset())
        indeg = {x: 0 for x in self.positions}
        for x in self.positions:
            for y in succ[x]:
                indeg[y] += 1
        queue = [x for x in self.positions if indeg[x] == 0]
        seen = 0
        while queue:
            x = queue.pop()
            seen += 1
            for y in succ[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    queue.append(y)
        if seen != len(self.positions):
            raise CyclicRuleset("move graph contains a cycle")

    def moves(self, side: Side, x: Node) -> frozenset[Node]:
        table = self.left_moves if side is Side.LEFT else self.right_moves
        return table.get(x, frozenset())

    def weight(self, side: Side, x: Node, y: Node) -> int:
        table = self.left_weights if side is Side.LEFT else self.right_weights
        return table[(x, y)]

    def penalty(self, x: Node) -> int:
        return self.penalties.get(x, 0)

    def is_fully_terminal(self, x: Node) -> bool:
        return not self.moves(Side.LEFT, x) and not self.moves(Side.RIGHT, x)

    @property
    def is_symmetric(self) -> bool:
        """Same move options for both players, with opposite edge weights."""
        if self.left_moves != self.right_moves:
            return False
        return all(
            self.right_weights.get(edge) == -w for edge, w in self.left_weights.items()
        )


class _Evaluator:
    """Memoized two-sided value recursion over (node, left budget, marker)."""

    def __init__(self, ruleset: GeneralRuleset, minimax: bool):
        self.rs = ruleset
        self.minimax = minimax
        self.memo: dict[tuple[Node, int, Side], int] = {}

    def value(self, x: Node, p: int, marker: Side) -> int:
        key = (x, p, marker)
        if key in self.memo:
            return self.memo[key]
        result = self._compute(x, p, marker)
        self.memo[key] = result
        return result

    def _compute(self, x: Node, p: int, marker: Side) -> int:
        rs = self.rs
        if rs.is_fully_terminal(x):
            return rs.penalty(x)
        q = rs.tb - p
        left_moves = rs.moves(Side.LEFT, x) or [None]
        right_moves = rs.moves(Side.RIGHT, x) or [None]
        # A player who cannot afford any allowed bid passes: bid -1 loses
        # every auction, so the other player acts unopposed.
        passing = [(-1, None)]
        left_decls = [(l, y) for l in rs.bid_set if l <= p for y in left_moves] or passing
        right_decls = [(r, z) for r in rs.bid_set if r <= q for z in right_moves] or passing
        if left_decls == right_decls == passing:
            raise InvalidRuleset(
                f"no player can bid at {x!r} with budgets {p}/{q} and bids "
                f"{sorted(rs.bid_set)}"
            )
        if self.minimax:
            return min(
                max(self._payoff(x, p, marker, l, y, r, z) for l, y in left_decls)
                for r, z in right_decls
            )
        return max(
            min(self._payoff(x, p, marker, l, y, r, z) for r, z in right_decls)
            for l, y in left_decls
        )

    def _payoff(
        self,
        x: Node,
        p: int,
        marker: Side,
        l: int,
        y: Node | None,
        r: int,
        z: Node | None,
    ) -> int:
        rs = self.rs
        left_wins = l > r or (l == r and marker is Side.LEFT)
        tie = l == r
        if left_wins:
            if y is None:
                return rs.penalty(x)
            nm = Side.RIGHT if tie else marker
            return self.value(y, p - l, nm) + rs.weight(Side.LEFT, x, y)
        if z is None:
            return rs.penalty(x)
        nm = Side.LEFT if tie else marker
        return self.value(z, p + r, nm) + rs.weight(Side.RIGHT, x, z)


def general_maximin(
    ruleset: GeneralRuleset, node: Node, left_budget: int, marker: Side
) -> int:
    """Value when the marker side is as given and Left declares first."""
    _check_state(ruleset, node, left_budget)
    return _Evaluator(ruleset, minimax=False).value(node, left_budget, marker)


def general_minimax(
    ruleset: GeneralRuleset, node: Node, left_budget: int, marker: Side
) -> int:
    """Reverse declaration order: Right declares, Left best-responds."""
    _check_state(ruleset, node, left_budget)
    return _Evaluator(ruleset, minimax=True).value(node, left_budget, marker)


def _check_state(ruleset: GeneralRuleset, node: Node, left_budget: int) -> None:
    if node not in set(ruleset.positions):
        raise ValueError(f"unknown position {node!r}")
    if not 0 <= left_budget <= ruleset.tb:
        raise ValueError(f"Left budget {left_budget} outside 0..{ruleset.tb}")


@dataclass(frozen=True)
class UViolation:
    """One uniqueness-property failure with its smallest witness."""

    prop: str
    node: Node
    budgets: tuple[int, ...]
    lhs: int
    rhs: int
    detail: str = ""


@dataclass(frozen=True)
class UReport:
    holds: bool
    violations: tuple[UViolation, ...]


def check_property_U(ruleset: GeneralRuleset) -> UReport:
    """Check budget monotonicity, marker monotonicity, and marker worth.

    Maximin values are evaluated at every position and budget split, for
    both marker holders.  Each violated property contributes one witness,
    the first found scanning positions in declaration order and budgets
    from the richest Left downwards.
    """
    ev = _Evaluator(ruleset, minimax=False)
    tb = ruleset.tb

    def hat(x: Node, p: int) -> int:
        return ev.value(x, p, Side.LEFT)

    def plain(x: Node, p: int) -> int:
        return ev.value(x, p, Side.RIGHT)

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


def reduced_symmetric_value(ruleset: GeneralRuleset, node: Node, left_budget: int) -> int:
    """Marker-Left value via the reduced recursion (ties and Right wins only).

    Valid on symmetric rulesets with zero penalties and 0 in the bid set,
    where Left strict wins are always weakly dominated by a smaller tie.
    """
    if not ruleset.is_symmetric:
        raise InvalidRuleset("reduced evaluation requires a symmetric ruleset")
    if 0 not in ruleset.bid_set:
        raise InvalidRuleset("reduced evaluation requires 0 to be an allowed bid")
    if any(ruleset.penalty(x) != 0 for x in ruleset.positions):
        raise InvalidRuleset("reduced evaluation requires zero penalties")
    _check_state(ruleset, node, left_budget)
    tb = ruleset.tb
    memo: dict[tuple[Node, int], int] = {}

    def red(x: Node, p: int) -> int:
        if ruleset.is_fully_terminal(x):
            return 0
        key = (x, p)
        if key in memo:
            return memo[key]
        q = tb - p
        candidates = []
        for l in (b for b in ruleset.bid_set if b <= p):
            overbids = [
                red(z, p + r) - ruleset.weight(Side.LEFT, x, z)
                for r in ruleset.bid_set
                if l < r <= q
                for z in ruleset.moves(Side.LEFT, x)
            ]
            for y in ruleset.moves(Side.LEFT, x):
                options = list(overbids)
                if l <= q:
                    options.append(ruleset.weight(Side.LEFT, x, y) - red(y, q + l))
                if options:
                    candidates.append(min(options))
        if not candidates:
            raise InvalidRuleset(f"no reduced bid available at {x!r} with budget {p}")
        result = max(candidates)
        memo[key] = result
        return result

    return red(node, left_budget)


def make_unitary_ruleset(tb: int, x_max: int) -> GeneralRuleset:
    """Encode the unit-removal heap game on heap sizes ``0..x_max``.

    Both players may remove one pebble; a Left removal scores +1 and a
    Right removal -1, expressed as signed edge weights.
    """
    nodes = tuple(range(x_max + 1))
    moves = {x: frozenset({x - 1}) for x in range(1, x_max + 1)}
    moves[0] = frozenset()
    left_w = {(x, x - 1): 1 for x in range(1, x_max + 1)}
    right_w = {(x, x - 1): -1 for x in range(1, x_max + 1)}
    return GeneralRuleset(
        positions=nodes,
        left_moves=moves,
        right_moves=dict(moves),
        left_weights=left_w,
        right_weights=right_w,
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
    left_moves: dict[str, set[str]] = {}
    right_moves: dict[str, set[str]] = {}
    left_weights: dict[Edge, int] = {}
    right_weights: dict[Edge, int] = {}
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
                left_moves.setdefault(name, set())
                right_moves.setdefault(name, set())
                if len(parts) > 2:
                    if parts[2].lower() != "terminal" or len(parts) != 4:
                        raise ValueError("expected 'node NAME [terminal PENALTY]'")
                    penalties[name] = int(parts[3])
            elif kind == "edge":
                side, src, dst, weight = parts[1], parts[2], parts[3], int(parts[4])
                if side.upper() == "L":
                    left_moves.setdefault(src, set()).add(dst)
                    left_weights[(src, dst)] = weight
                elif side.upper() == "R":
                    right_moves.setdefault(src, set()).add(dst)
                    right_weights[(src, dst)] = weight
                else:
                    raise ValueError(f"edge side must be L or R, got {side!r}")
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
        left_moves={x: frozenset(ys) for x, ys in left_moves.items()},
        right_moves={x: frozenset(ys) for x, ys in right_moves.items()},
        left_weights=left_weights,
        right_weights=right_weights,
        penalties=penalties,
        tb=tb,
        bid_set=bid_set,
    )
