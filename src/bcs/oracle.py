"""Brute-force ground truth for the unit-removal bidding game.

This evaluator deliberately shares nothing with :mod:`bcs.solver` beyond
the core types.  It keeps separate value functions for the two marker
holders (no zero-sum shortcut, so the flip identity stays testable) and
scans the complete bid matrix, Left strict wins included.  Declaring a bid
commits to it; the winner then removes one pebble and the running score is
additive, so memoizing on heap, Left budget, and marker holder is sound.

Intended for desk scale: small total budgets and heaps up to a few dozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    BidPair,
    GameAlreadyOver,
    InfeasibleBid,
    RichmanPosition,
    Side,
    classify_bid,
)


@lru_cache(maxsize=None)
def _value(tb: int, x: int, p: int, left_marker: bool) -> int:
    if x == 0:
        return 0
    q = tb - p
    best: int | None = None
    for l in range(p + 1):
        worst: int | None = None
        for r in range(q + 1):
            v = _resolved(tb, x, p, l, r, left_marker)
            worst = v if worst is None else min(worst, v)
        assert worst is not None
        best = worst if best is None else max(best, worst)
    assert best is not None
    return best


def _resolved(tb: int, x: int, p: int, l: int, r: int, left_marker: bool) -> int:
    """Score after resolving bids (l, r) at heap x and playing on optimally."""
    if l > r:
        return 1 + _value(tb, x - 1, p - l, left_marker)
    if l < r:
        return -1 + _value(tb, x - 1, p + r, left_marker)
    if left_marker:
        return 1 + _value(tb, x - 1, p - l, False)
    return -1 + _value(tb, x - 1, p + r, True)


def oracle_value(tb: int, pos: RichmanPosition) -> int:
    """Equilibrium score of ``pos`` from the full three-branch recursion."""
    if pos.tb != tb:
        raise ValueError(f"position built for tb={pos.tb}, asked for tb={tb}")
    return _value(tb, pos.heap, pos.left_budget, pos.left_holds_marker)


@dataclass(frozen=True)
class BidMatrix:
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
    left_marker = pos.left_holds_marker
    entries = tuple(
        tuple(_resolved(tb, pos.heap, p, l, r, left_marker) for l in range(p + 1))
        for r in range(q + 1)
    )
    return BidMatrix(
        tb=tb, heap=pos.heap, left_budget=p, marker=pos.marker, entries=entries
    )


@dataclass(frozen=True)
class PlayStep:
    position: RichmanPosition
    bid: BidPair
    removal: int


@dataclass(frozen=True)
class PlayTrace:
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
