"""Domain types and the budget/marker algebra for discrete-bid Richman games.

Two players, Left (maximizer) and Right (minimizer), share a fixed total
budget of whole dollars.  Every turn is decided by a sealed-bid auction:
the higher bidder acts and pays their bid to the opponent; on equal bids a
tie-breaking marker decides, and the marker travels to the loser together
with the payment.  Everything here is exact integer arithmetic; there is
deliberately no floating point anywhere in the engine.

Budget conservation is structural: a position stores only Left's share of
the total budget, Right's share is always derived.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple


class GameError(Exception):
    """Base class for all engine errors."""


class HeapNegative(GameError, ValueError):
    """Raised when a heap size is negative."""


class BudgetOutOfRange(GameError, ValueError):
    """Raised when a budget does not fit the total budget split."""


class InfeasibleBid(GameError):
    """Raised when a bid exceeds the bidder's current budget."""


class GameAlreadyOver(GameError):
    """Raised when a move or bid is supplied after the heap is exhausted."""


class OutOfRange(GameError):
    """Raised when a query exceeds the solved range of a table."""


class Side(enum.Enum):
    """One of the two players."""

    LEFT = "L"
    RIGHT = "R"

    @property
    def opponent(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT

    def __str__(self) -> str:
        return self.value


class BidWinner(enum.Enum):
    """Outcome of a sealed-bid comparison.

    Ties are won by the marker holder, so a tie is classified by the side
    that held the marker when the bids landed.
    """

    LEFT_STRICT = "left-strict"
    LEFT_TIE = "left-tie"
    RIGHT_TIE = "right-tie"
    RIGHT_STRICT = "right-strict"

    @property
    def side(self) -> Side:
        if self in (BidWinner.LEFT_STRICT, BidWinner.LEFT_TIE):
            return Side.LEFT
        return Side.RIGHT

    @property
    def is_tie(self) -> bool:
        return self in (BidWinner.LEFT_TIE, BidWinner.RIGHT_TIE)


def zero_row(tb: int) -> tuple[int, ...]:
    """``tb + 1`` zeros: row 0 of every table, and the one refusal of a bad
    ``tb``: a negative one, or one too large for the zeros."""
    if tb < 0:
        raise BudgetOutOfRange(f"total budget must be >= 0, got {tb}")
    try:
        return (0,) * (tb + 1)
    except (MemoryError, OverflowError):
        raise BudgetOutOfRange(f"total budget {tb} is too large to hold a row") from None


def convergence_bound(tb: int) -> int:
    """Explicit heap-size bound ``B(tb)`` by which outcomes have settled.

    ``1 + (tb/2 + 1) * tb/2 - tb/2`` for even ``tb`` and
    ``1 + ceil(tb/2)**2 - floor(tb/2)`` for odd ``tb``; quadratic in the
    total budget either way.
    """
    if tb < 0:
        raise BudgetOutOfRange(f"total budget must be >= 0, got {tb}")
    half = tb // 2
    if tb % 2 == 0:
        return 1 + (half + 1) * half - half
    return 1 + (half + 1) ** 2 - half


class _PositionFields(NamedTuple):
    tb: int
    heap: int
    left_budget: int
    marker: Side


class RichmanPosition(_PositionFields):
    """A heap size together with a budget split and the marker holder.

    ``left_budget`` is Left's share of ``tb``; Right's share is derived so
    that the two always sum to the total budget.  The marker is held by
    exactly one side.
    """

    __slots__ = ()

    def __new__(cls, tb: int, heap: int, left_budget: int, marker: Side) -> RichmanPosition:
        if tb < 0:
            raise BudgetOutOfRange(f"total budget must be >= 0, got {tb}")
        if heap < 0:
            raise HeapNegative(f"heap size must be >= 0, got {heap}")
        if not 0 <= left_budget <= tb:
            raise BudgetOutOfRange(f"Left budget {left_budget} outside 0..{tb}")
        if not isinstance(marker, Side):
            raise TypeError(f"marker must be a Side, got {marker!r}")
        return super().__new__(cls, tb, heap, left_budget, marker)

    @property
    def right_budget(self) -> int:
        return self.tb - self.left_budget

    @property
    def left_holds_marker(self) -> bool:
        return self.marker is Side.LEFT


def make_position(tb: int, heap: int, left_budget: int, marker: Side) -> RichmanPosition:
    """Build a validated position for total budget ``tb``."""
    return RichmanPosition(tb=tb, heap=heap, left_budget=left_budget, marker=marker)


class BidPair(NamedTuple):
    """A resolved pair of sealed bids.

    Ordering is lexicographic on ``(left_bid, right_bid)``, as for tuples;
    the smallest member of an equilibrium set is its canonical
    representative.
    """

    left_bid: int
    right_bid: int
    winner: BidWinner


def classify_bid(
    pos: RichmanPosition, left_bid: int, right_bid: int
) -> tuple[BidPair, RichmanPosition]:
    """Resolve one whole turn and return the classified pair and successor state.

    The winner pays their bid to the loser and removes one pebble, so the
    successor is at ``heap - 1``; the marker changes hands exactly when the
    resolution was a tie.  An empty heap raises :class:`GameAlreadyOver`.
    """
    if pos.heap < 1:
        raise GameAlreadyOver("no bidding on an empty heap")
    if left_bid < 0 or left_bid > pos.left_budget:
        raise InfeasibleBid(
            f"Left bid {left_bid} infeasible with budget {pos.left_budget}"
        )
    if right_bid < 0 or right_bid > pos.right_budget:
        raise InfeasibleBid(
            f"Right bid {right_bid} infeasible with budget {pos.right_budget}"
        )

    if left_bid > right_bid:
        winner = BidWinner.LEFT_STRICT
    elif left_bid < right_bid:
        winner = BidWinner.RIGHT_STRICT
    elif pos.left_holds_marker:
        winner = BidWinner.LEFT_TIE
    else:
        winner = BidWinner.RIGHT_TIE

    if winner.side is Side.LEFT:
        new_left = pos.left_budget - left_bid
    else:
        new_left = pos.left_budget + right_bid
    new_marker = pos.marker.opponent if winner.is_tie else pos.marker

    bid = BidPair(left_bid=left_bid, right_bid=right_bid, winner=winner)
    successor = RichmanPosition(
        tb=pos.tb, heap=pos.heap - 1, left_budget=new_left, marker=new_marker
    )
    return bid, successor


BID_KINDS = ("holder-win", "opponent-win", "tie")


class BidEdge(NamedTuple):
    src: int
    dst: int
    dominated: bool


def bid_graph(tb: int, kind: str, bid: int) -> Iterator[BidEdge]:
    """Feasible auction transitions at one bid size, of one of the
    :data:`BID_KINDS`, over marker-holder budgets.

    Nodes are the marker holder's dollars.  A tie at ``l`` moves the marker,
    so the edge lands on the new holder's budget ``tb - m + l``.  Strict
    wins keep the marker: the holder's budget drops by a holder win and
    grows by an opponent win.  A strict-win bid is dominated when it
    exceeds the opponent's budget by more than one dollar: one dollar over
    already beats every feasible counter-bid.  The edges come lazily, in
    ascending source; a bad ``tb``, kind or bid is refused by the call.
    """
    zero_row(tb)  # refuses a bad tb
    if kind not in BID_KINDS:
        raise ValueError(f"bid graph kind must be one of {', '.join(BID_KINDS)}, got {kind!r}")
    if not 0 <= bid <= tb:
        raise ValueError(f"bid {bid} outside 0..{tb}")
    holders = range(tb + 1)
    if kind == "tie":
        return (BidEdge(m, tb - m + bid, False) for m in holders if bid <= min(m, tb - m))
    if kind == "holder-win":
        return (BidEdge(m, m - bid, bid > tb - m + 1) for m in holders if bid <= m)
    return (BidEdge(m, m + bid, bid > m + 1) for m in holders if bid <= tb - m)


class _TableFields(NamedTuple):
    tb: int
    rows: tuple[tuple[int, ...], ...]
    x_max: int


class OutcomeTable(_TableFields):
    """Equilibrium values for heap sizes ``0..x_max`` across all budget splits.

    ``row(x)[p]`` is the score of heap ``x`` when Left holds ``p`` dollars and
    the marker.  Values for a marker-holding Right follow from the zero-sum
    flip ``-row(x)[tb - p]`` and are derived, never stored.

    ``x_max`` defaults to the last heap given, and ``rows`` may stop short
    of it: past the stored rows the last two repeat in turn, as the rows of
    a 2-cycle do.  Trailing rows that equal the row two before are dropped,
    keeping at least two, so a table stores its rows only up to its 2-cycle
    however it was built: a solved table and its JSON round trip are equal.
    """

    __slots__ = ()

    def __new__(
        cls, tb: int, rows: tuple[tuple[int, ...], ...], x_max: int | None = None
    ) -> OutcomeTable:
        if tb < 0 or not rows:  # rows of the right length show that a row fits
            zero_row(tb)  # refuses a bad tb
        for x, row in enumerate(rows):
            if len(row) != tb + 1:
                raise ValueError(f"row {x} has {len(row)} values, expected tb+1 = {tb + 1}")
        x_max = len(rows) - 1 if x_max is None else x_max
        if len(rows) > x_max + 1:
            raise ValueError(f"{len(rows)} rows for heaps 0..{x_max}")
        if len(rows) < min(2, x_max + 1):
            raise ValueError(f"{len(rows)} rows cannot repeat as a 2-cycle up to heap {x_max}")
        stored = len(rows)
        while stored > 2 and rows[stored - 1] == rows[stored - 3]:
            stored -= 1
        return super().__new__(cls, tb, rows[:stored], x_max)

    def row(self, x: int) -> tuple[int, ...]:
        if not 0 <= x <= self.x_max:
            raise OutOfRange(f"heap {x} outside solved range 0..{self.x_max}")
        last = len(self.rows) - 1
        return self.rows[x if x <= last else last - (x - last) % 2]
