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

:func:`bid_matrix` resolves every pair of bids with
:func:`bcs.core.classify_bid`, the one rule of a turn, and reads the
successor's value from the layer below.  The layer fill groups Right's
replies into blocks instead, because it is the hot path of
``bcs check --with-oracle``; the tests check it against the matrix.

Intended for desk scale: a layer costs O(tb^2).
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .core import RichmanPosition, Side, classify_bid, zero_row

# ``layer[left_marker][p]``: the score with Left holding ``p`` dollars, for
# a marker-Right holder at index 0 (False) and marker-Left at 1 (True).
Layer = tuple[tuple[int, ...], tuple[int, ...]]


def _maximin(prev: Layer, lows: Layer, tb: int, p: int, left_marker: bool) -> int:
    """What Left's best bid ``l = 0..p`` gets against Right's best reply
    ``r = 0..q``, read from the layer one pebble down.

    Right's replies to ``l`` fall into three blocks: every ``r < l`` loses
    outright and is worth ``1 + same[p - l]`` whatever ``r`` is, the tie
    hands the marker to its loser, and every ``r > l`` wins outright for
    Right, worth ``same[p + r] - 1``; as ``p + q = tb``, their best is one suffix minimum.
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
            replies.append(lows[left_marker][p + l + 1] - 1)
        column_mins.append(min(replies))
    return max(column_mins)


def oracle_table(tb: int, x_max: int) -> tuple[Layer, ...]:
    """Layers ``0..x_max`` for total budget ``tb``, each from the one below.

    ``table[x][left_marker][p]`` is the equilibrium score of heap ``x`` with
    Left holding ``p`` dollars; see :data:`Layer`.
    """
    table = [(zero_row(tb),) * 2]
    if x_max < 0:
        raise ValueError(f"x_max must be >= 0, got {x_max}")
    for _ in range(x_max):
        prev = table[-1]
        lows = tuple(tuple(accumulate(reversed(row), min))[::-1] for row in prev)
        table.append(tuple(
            tuple(_maximin(prev, lows, tb, p, left_marker) for p in range(tb + 1))
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
    """Populate the full bid matrix at ``pos``: each entry is the winner's
    point by :func:`bcs.core.classify_bid` (which refuses an empty heap)
    plus the successor's value in the layer below."""
    if pos.tb != tb:
        raise ValueError(f"position built for tb={pos.tb}, asked for tb={tb}")
    below = oracle_table(tb, max(pos.heap - 1, 0))[-1]

    def entry(l: int, r: int) -> int:
        bid, after = classify_bid(pos, l, r)
        point = 1 if bid.winner.side is Side.LEFT else -1
        return point + below[after.left_holds_marker][after.left_budget]

    entries = tuple(
        tuple(entry(l, r) for l in range(pos.left_budget + 1))
        for r in range(pos.right_budget + 1)
    )
    return BidMatrix(entries)
