"""Executable invariants over solved tables, forced-win counting, bid graphs.

Every inequality the solved tables are known to satisfy is implemented here
as a scan that either passes or pins down the first offending cell.  The
forced-win thresholds get their own adversarial search, deliberately not
routed through the equilibrium solver, so the closed forms are checked by
an independent mechanism.
"""

from __future__ import annotations

import enum
from functools import cache
from typing import Callable, NamedTuple

from .core import OutcomeTable, RichmanPosition, Side
from .oracle import oracle_table
from .solver import solve, value


class Counterexample(NamedTuple):
    x: int
    p: int
    values: tuple[int, ...]
    note: str = ""


class InvariantReport(NamedTuple):
    """Verdict of one invariant over a solved range."""

    name: str
    tb: int
    x_max: int
    counterexample: Counterexample | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = ""
        if self.counterexample is not None:
            c = self.counterexample
            tail = f" at x={c.x}, p={c.p}, values={c.values}"
            if c.note:
                tail += f" ({c.note})"
        return f"{status} {self.name} tb={self.tb} x<={self.x_max}{tail}"


Check = Callable[[OutcomeTable], Counterexample | None]


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


_INVARIANTS: tuple[tuple[str, Check], ...] = (
    ("budget_monotonicity", _budget_monotonicity),
    ("tie_monotonicity", _tie_monotonicity),
    ("marker_monotonicity", _marker_monotonicity),
    ("marker_dominance", _marker_dominance),
    ("marker_worth", _marker_worth),
    ("sign_border", _sign_border),
    ("bounded_outcome", _bounded_outcome),
    ("budget_lipschitz", _budget_lipschitz),
    ("heap_monotonicity", _heap_monotonicity),
    ("parity", _parity),
)

INVARIANT_NAMES = tuple(name for name, _ in _INVARIANTS)


def run_invariant_suite_on(table: OutcomeTable) -> list[InvariantReport]:
    """Run all ten invariant scans over an already solved table."""
    return [
        InvariantReport(name, table.tb, table.x_max, check(table))
        for name, check in _INVARIANTS
    ]


def forced_win_threshold(x: int, q: int, marker: Side) -> int:
    """Closed-form Left budget needed to win ``x`` straight auctions against
    ``q`` dollars.

    With the marker, ``(2^x - 1) q + 2^(x-1) - 1``; without it,
    ``(2^x - 1)(q + 1)``.
    """
    if x < 1:
        raise ValueError(f"need at least one move, got x={x}")
    if q < 0:
        raise ValueError(f"opponent budget must be >= 0, got {q}")
    if marker is Side.LEFT:
        return (2**x - 1) * q + 2 ** (x - 1) - 1
    return (2**x - 1) * (q + 1)


def left_can_force_final_wins(x: int, p: int, q: int, marker: Side) -> bool:
    """Adversarial search: can Left win the next ``x`` auctions outright?

    Left commits to a bid; she must defeat every feasible Right bid (ties
    only count while she holds the marker, and cost her the marker) and
    still force the remaining rounds from the resulting budgets.  The cache
    lives for one call.
    """

    @cache
    def wins(x: int, p: int, q: int, marker: Side) -> bool:
        if x == 0:
            return True
        for l in range(p + 1):
            ok = True
            for r in range(q + 1):
                if l > r:
                    nxt = (x - 1, p - l, q + l, marker)
                elif l == r and marker is Side.LEFT:
                    nxt = (x - 1, p - l, q + l, Side.RIGHT)
                else:
                    ok = False
                    break
                if not wins(*nxt):
                    ok = False
                    break
            if ok:
                return True
        return False

    return wins(x, p, q, marker)


def verify_forced_wins(tb: int, x: int) -> InvariantReport:
    """Check the closed-form thresholds against the search for every split."""
    return InvariantReport("forced_win_threshold", tb, x, _forced_win_miss(tb, x))


def _forced_win_miss(tb: int, x: int) -> Counterexample | None:
    for marker in (Side.LEFT, Side.RIGHT):
        for p in range(tb + 1):
            q = tb - p
            expected = p >= forced_win_threshold(x, q, marker)
            got = left_can_force_final_wins(x, p, q, marker)
            if got != expected:
                return Counterexample(x, p, (int(expected), int(got)), f"marker={marker}")
    return None


class BidGraphKind(enum.Enum):
    """Which family of auction resolutions a bid graph depicts."""

    TIE = "tie"
    HOLDER_WIN = "holder-win"
    OPPONENT_WIN = "opponent-win"


class BidEdge(NamedTuple):
    src: int
    dst: int
    dominated: bool


class BidGraph(NamedTuple):
    """Feasible auction transitions over marker-holder budgets.

    Nodes are the marker holder's dollars.  A tie at ``l`` moves the marker,
    so the edge lands on the new holder's budget ``tb - m + l``.  Strict
    wins keep the marker: the holder's budget drops by a holder win and
    grows by an opponent win.  A strict-win bid is dominated when it
    exceeds the opponent's budget by more than one dollar: one dollar over
    already beats every feasible counter-bid.
    """

    tb: int
    kind: BidGraphKind
    bid: int
    reduced: bool
    edges: tuple[BidEdge, ...]

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(range(self.tb + 1))

    @property
    def label(self) -> str:
        """Every edge's label: the bid, then ``T`` for a tie or ``W`` for a win."""
        return f"{self.bid}{'T' if self.kind is BidGraphKind.TIE else 'W'}"


def bid_graph(tb: int, kind: BidGraphKind, bid: int, reduced: bool = False) -> BidGraph:
    """Build the bid graph at one bid size, optionally erasing dominated bids."""
    if not 0 <= bid <= tb:
        raise ValueError(f"bid {bid} outside 0..{tb}")
    edges = []
    for m in range(tb + 1):
        opp = tb - m
        if kind is BidGraphKind.TIE:
            if bid <= m and bid <= opp:
                edges.append(BidEdge(m, opp + bid, dominated=False))
        elif kind is BidGraphKind.HOLDER_WIN:
            if bid <= m:
                edges.append(BidEdge(m, m - bid, dominated=bid > opp + 1))
        else:
            if bid <= opp:
                edges.append(BidEdge(m, m + bid, dominated=bid > m + 1))
    if reduced:
        edges = [e for e in edges if not e.dominated]
    return BidGraph(tb=tb, kind=kind, bid=bid, reduced=reduced, edges=tuple(edges))


def bid_graph_to_dot(graph: BidGraph) -> str:
    """Render as a DOT digraph with budget-labelled nodes."""
    lines = [f'digraph bids_tb{graph.tb} {{']
    for n in graph.nodes:
        lines.append(f"  n{n} [label=\"{n}\"];")
    for e in graph.edges:
        lines.append(f"  n{e.src} -> n{e.dst} [label=\"{graph.label}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def bid_graph_to_json_dict(graph: BidGraph) -> dict:
    return {
        "tb": graph.tb,
        "kind": graph.kind.value,
        "bid": graph.bid,
        "reduced": graph.reduced,
        "nodes": list(graph.nodes),
        "edges": [
            {
                "from": e.src,
                "to": e.dst,
                "label": graph.label,
                "dominated": e.dominated,
            }
            for e in graph.edges
        ],
    }


def check_oracle_equivalence(tb: int, x_max: int) -> InvariantReport:
    """Compare the reduced solver against the full-matrix evaluator.

    Every cell is checked for both marker holders, so the zero-sum flip the
    solver relies on is exercised against independently computed values.
    """
    table = solve(tb, x_max)
    return InvariantReport("oracle_equivalence", tb, x_max, _oracle_mismatch(table))


def _oracle_mismatch(table: OutcomeTable) -> Counterexample | None:
    layers = oracle_table(table.tb, table.x_max)
    for x, p, _ in _cells(table):
        for marker in (Side.LEFT, Side.RIGHT):
            pos = RichmanPosition(tb=table.tb, heap=x, left_budget=p, marker=marker)
            fast = value(table, pos)
            slow = layers[x][pos.left_holds_marker][p]
            if fast != slow:
                return Counterexample(x, p, (fast, slow), f"marker={marker}")
    return None

