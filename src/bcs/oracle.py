"""Brute-force ground truth for the unit-removal bidding game.

This evaluator deliberately shares nothing with :mod:`bcs.solver` beyond
the core types.  It keeps separate values for the two marker holders (no
zero-sum shortcut, so the flip identity stays testable) and covers the
complete bid matrix, Left strict wins included, with no monotonicity
assumption.  Declaring a bid commits to it; the winner then removes one
pebble and the running score is additive, so the values at a heap size
depend only on those one pebble down.  The evaluator fills one layer per
heap size, bottom-up: layer ``x`` holds a marker-Left and a marker-Right
row, both computed from layer ``x - 1`` alone.  Nothing is cached beyond a
call, and no recursion caps the heap size.

Intended for desk scale: a layer costs O(tb^3).
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    BidPair,
    GameAlreadyOver,
    InfeasibleBid,
    RichmanPosition,
    Side,
    classify_bid,
)

# ``layer[left_marker][p]``: the score with Left holding ``p`` dollars, for
# a marker-Right holder at index 0 (False) and marker-Left at 1 (True).
Layer = tuple[tuple[int, ...], tuple[int, ...]]


def _resolved(prev: Layer, p: int, l: int, r: int, left_marker: bool) -> int:
    """Score after resolving bids (l, r) with Left budget ``p`` and playing
    on optimally, read from the layer one pebble down."""
    if l > r:
        return 1 + prev[left_marker][p - l]
    if l < r:
        return -1 + prev[left_marker][p + r]
    if left_marker:
        return 1 + prev[False][p - l]
    return -1 + prev[True][p + r]


def _maximin(prev: Layer, tb: int, p: int, left_marker: bool) -> int:
    """What Left's best bid ``l = 0..p`` gets against Right's best reply
    ``r = 0..q``, read from the layer one pebble down.

    Right's replies to ``l`` fall into three blocks: every ``r < l`` loses
    outright and is worth ``1 + same[p - l]`` whatever ``r`` is, the tie
    hands the marker to its loser, and every ``r > l`` wins outright for
    Right, worth ``same[p + r] - 1``, whose best is the minimum of one slice.
    """
    q = tb - p
    same, other = prev[left_marker], prev[not left_marker]
    column_mins = []
    for l in range(p + 1):
        replies = []
        if l > 0:
            replies.append(1 + same[p - l])
        if l <= q:
            replies.append(1 + other[p - l] if left_marker else other[p + l] - 1)
        if l < q:
            replies.append(min(same[p + l + 1 : p + q + 1]) - 1)
        column_mins.append(min(replies))
    return max(column_mins)


def oracle_table(tb: int, x_max: int) -> tuple[Layer, ...]:
    """Layers ``0..x_max`` for total budget ``tb``, each from the one below.

    ``table[x][left_marker][p]`` is the equilibrium score of heap ``x`` with
    Left holding ``p`` dollars; see :data:`Layer`.
    """
    if tb < 0:
        raise ValueError(f"total budget must be >= 0, got {tb}")
    if x_max < 0:
        raise ValueError(f"x_max must be >= 0, got {x_max}")
    table = [((0,) * (tb + 1),) * 2]
    for _ in range(x_max):
        prev = table[-1]
        table.append(tuple(
            tuple(_maximin(prev, tb, p, left_marker) for p in range(tb + 1))
            for left_marker in (False, True)
        ))
    return tuple(table)


def oracle_value(tb: int, pos: RichmanPosition) -> int:
    """Equilibrium score of ``pos`` from the full three-branch recursion."""
    if pos.tb != tb:
        raise ValueError(f"position built for tb={pos.tb}, asked for tb={tb}")
    return oracle_table(tb, pos.heap)[-1][pos.left_holds_marker][pos.left_budget]


class BidMatrix(NamedTuple):
    """Complete continuation matrix of one auction.

    ``entries[r][l]`` is the score when Left bids ``l``, Right bids ``r``,
    and play continues in equilibrium.  The maximin (best column minimum)
    and minimax (best row maximum) coincide on every instance of this
    ruleset; the matrix makes that saddle visible.
    """

    tb: int
    heap: int
    left_budget: int
    marker: Side
    entries: tuple[tuple[int, ...], ...]

    @property
    def column_mins(self) -> tuple[int, ...]:
        cols = range(len(self.entries[0]))
        return tuple(min(row[c] for row in self.entries) for c in cols)

    @property
    def row_maxes(self) -> tuple[int, ...]:
        return tuple(max(row) for row in self.entries)

    @property
    def maximin(self) -> int:
        return max(self.column_mins)

    @property
    def minimax(self) -> int:
        return min(self.row_maxes)


def bid_matrix(tb: int, pos: RichmanPosition) -> BidMatrix:
    """Populate the full bid matrix at ``pos`` (heap must be non-empty)."""
    if pos.tb != tb:
        raise ValueError(f"position built for tb={pos.tb}, asked for tb={tb}")
    if pos.heap < 1:
        raise GameAlreadyOver("no bidding on an empty heap")
    p, q = pos.left_budget, pos.right_budget
    prev, left_marker = oracle_table(tb, pos.heap - 1)[-1], pos.left_holds_marker
    entries = tuple(
        tuple(_resolved(prev, p, l, r, left_marker) for l in range(p + 1))
        for r in range(q + 1)
    )
    return BidMatrix(
        tb=tb, heap=pos.heap, left_budget=p, marker=pos.marker, entries=entries
    )


class PlayStep(NamedTuple):
    position: RichmanPosition
    bid: BidPair
    removal: int


class PlayTrace(NamedTuple):
    """A validated play sequence with its running score settled."""

    steps: tuple[PlayStep, ...]
    final_position: RichmanPosition
    utility: int


def replay(
    tb: int, start: RichmanPosition, bids: list[tuple[int, int]]
) -> PlayTrace:
    """Resolve a sequence of ``(left_bid, right_bid)`` pairs from ``start``.

    Each auction winner removes one pebble; the utility is the signed sum
    of removals.  Validation failures carry the index of the offending
    step.
    """
    if start.tb != tb:
        raise ValueError(f"position built for tb={start.tb}, asked for tb={tb}")
    pos = start
    steps = []
    score = 0
    for i, (l, r) in enumerate(bids):
        try:
            bid, after = classify_bid(pos, l, r)
        except (GameAlreadyOver, InfeasibleBid) as exc:
            raise type(exc)(str(exc), index=i) from None
        removal = 1 if bid.winner.side is Side.LEFT else -1
        score += removal
        steps.append(PlayStep(position=pos, bid=bid, removal=removal))
        pos = after
    return PlayTrace(steps=tuple(steps), final_position=pos, utility=score)
