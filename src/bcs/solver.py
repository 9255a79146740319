"""Fast bottom-up solver for the unit-removal bidding game.

The production recursion is the reduced one: for each Left bid only the tie
and the Right overbids are examined, which is value-preserving because the
ruleset satisfies budget monotonicity, marker monotonicity, and a one-dollar
marker worth.  Left strict-win branches are evaluated only when enumerating
equilibrium bid pairs, and independently by :mod:`bcs.oracle`, which replays
the full three-branch recursion over the complete bid matrix as a
cross-check.

Right's overbids against a Left bid land on a contiguous run of budgets
that reaches the end of the previous row, so the best overbid is a suffix
minimum of that row.  The suffix minima are computed once per row, and a
row then costs O(tb^2): one scan over Left's bids per budget split.  The
suffix form uses no property of the solved rows and is exact for any
integer row.

Only marker-Left values are stored.  The value of a position where Right
holds the marker is the zero-sum flip ``-row[q]``.  Row ``x`` depends only
on row ``x - 1``; :func:`solve` is the one loop that stacks them, and
:func:`limit_rows` reads the stabilized rows off a solved table.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .automaton import convergence_bound
from .core import (
    BidPair,
    BidWinner,
    GameError,
    InfeasibleBid,
    OutcomeTable,
    OutOfRange,
    RichmanPosition,
)


class ConvergenceBoundExceeded(GameError):
    """Raised when same-parity rows still differ at the convergence bound."""


def _suffix_minima(values: tuple[int, ...]) -> list[int]:
    """``out[i] = min(values[i:])`` for every index of ``values``."""
    return list(accumulate(reversed(values), min))[::-1]


def _held_values(prev: tuple[int, ...], p: int, low: list[int]) -> list[int]:
    """What Right can hold each Left bid ``l = 0..min(p, q)`` to at budget ``p``.

    Right either accepts the tie, worth ``1 - prev[q + l]`` after the
    payment and the marker change hands, or overbids with some ``r > l``,
    worth ``prev[p + r] - 1``.  The overbids land on a contiguous run of
    budgets starting at ``p + l + 1``, so the best of them is
    ``low[p + l + 1] - 1`` where ``low`` holds the suffix minima of ``prev``
    over the budgets an overbid can reach.  A Left bid of all of Right's
    money (``l = q``) leaves no overbid.
    """
    q = len(prev) - 1 - p
    held = [min(1 - prev[q + l], low[p + l + 1] - 1) for l in range(min(p, q - 1) + 1)]
    if q <= p:
        held.append(1 - prev[2 * q])
    return held


def _next_row(tb: int, prev: tuple[int, ...]) -> tuple[int, ...]:
    """One step of the reduced recursion: Right minimizes, Left maximizes.

    Left bids ``l`` (never more than either budget) and Right replies with
    the tie or any overbid up to its budget ``q``; see :func:`_held_values`.
    """
    low = _suffix_minima(prev)
    return tuple(max(_held_values(prev, p, low)) for p in range(tb + 1))


def solve(tb: int, x_max: int) -> OutcomeTable:
    """Solve every heap size up to ``x_max`` for total budget ``tb``."""
    if tb < 0:
        raise ValueError(f"total budget must be >= 0, got {tb}")
    if x_max < 0:
        raise ValueError(f"x_max must be >= 0, got {x_max}")
    rows = [tuple([0] * (tb + 1))]
    for _ in range(x_max):
        rows.append(_next_row(tb, rows[-1]))
    return OutcomeTable(tb, tuple(rows))


def value(table: OutcomeTable, pos: RichmanPosition) -> int:
    """Equilibrium score of ``pos``, flipping the stored row when Right
    holds the marker."""
    if pos.tb != table.tb:
        raise ValueError(f"position for tb={pos.tb}, table for tb={table.tb}")
    row = table.row(pos.heap)
    if pos.left_holds_marker:
        return row[pos.left_budget]
    return -row[pos.right_budget]


def tie_conditioned_value(table: OutcomeTable, pos: RichmanPosition, l: int) -> int:
    """Score if both players bid ``l`` at ``pos`` and play on optimally.

    Left must hold the marker; the tie requires both sides to afford ``l``.
    """
    if not pos.left_holds_marker:
        raise ValueError("tie-conditioned values are defined for marker-Left positions")
    if pos.heap < 1:
        raise OutOfRange("no bidding on an empty heap")
    if l < 0 or l > pos.left_budget or l > pos.right_budget:
        raise InfeasibleBid(
            f"tie at {l} infeasible with budgets "
            f"{pos.left_budget}/{pos.right_budget}"
        )
    prev = table.row(pos.heap - 1)
    return 1 - prev[pos.right_budget + l]


def _marker_left_bids(prev: tuple[int, ...], tb: int, p: int) -> frozenset[BidPair]:
    """Equilibrium bid pairs at a marker-Left cell, from the previous row.

    Every Left bid that Right holds to the row's value is paired with each
    of Right's replies, the tie or an overbid, that attains it.
    """
    q = tb - p
    held = _held_values(prev, p, _suffix_minima(prev))
    best = max(held)
    pairs = set()
    for l, worst in enumerate(held):
        if worst != best:
            continue
        if 1 - prev[q + l] == worst:
            pairs.add(BidPair(l, l, BidWinner.LEFT_TIE))
        pairs.update(
            BidPair(l, r, BidWinner.RIGHT_STRICT)
            for r in range(l + 1, q + 1)
            if prev[p + r] - 1 == worst
        )
    return frozenset(pairs)


def _mirror(bid: BidPair) -> BidPair:
    flip = {
        BidWinner.LEFT_STRICT: BidWinner.RIGHT_STRICT,
        BidWinner.RIGHT_STRICT: BidWinner.LEFT_STRICT,
        BidWinner.LEFT_TIE: BidWinner.RIGHT_TIE,
        BidWinner.RIGHT_TIE: BidWinner.LEFT_TIE,
    }
    return BidPair(bid.right_bid, bid.left_bid, flip[bid.winner])


def equilibrium_bids(table: OutcomeTable, pos: RichmanPosition) -> frozenset[BidPair]:
    """All bid pairs consistent with equilibrium play at ``pos``.

    Marker-Right cells are handled by mirroring the sides, which is exact
    because the ruleset is symmetric.
    """
    if pos.tb != table.tb:
        raise ValueError(f"position for tb={pos.tb}, table for tb={table.tb}")
    if pos.heap < 1:
        raise OutOfRange("no bidding on an empty heap")
    prev = table.row(pos.heap - 1)
    if pos.left_holds_marker:
        return _marker_left_bids(prev, table.tb, pos.left_budget)
    mirrored = _marker_left_bids(prev, table.tb, pos.right_budget)
    return frozenset(_mirror(b) for b in mirrored)


class LimitRows(NamedTuple):
    even_row: tuple[int, ...]
    odd_row: tuple[int, ...]
    x_star: int


def limit_rows(tb: int) -> LimitRows:
    """Stabilized per-parity rows and the heap size where they settle.

    Solves two heap sizes past the convergence bound ``B(tb)``.  ``x_star``
    is the smallest heap size from which every same-parity pair of rows in
    the solved range agrees.  Rows still changing between ``B(tb)`` and
    ``B(tb) + 2`` are a hard error: that would contradict the quadratic
    convergence guarantee and must never be silently ignored.
    """
    bound = convergence_bound(tb)
    x_max = bound + 2
    rows = solve(tb, x_max).rows

    if rows[bound] != rows[bound + 2]:
        raise ConvergenceBoundExceeded(
            f"rows at {bound} and {bound + 2} still differ for tb={tb}"
        )

    x_star = x_max - 1
    while x_star > 0 and rows[x_star - 1] == rows[x_star + 1]:
        x_star -= 1

    even = rows[x_max] if x_max % 2 == 0 else rows[x_max - 1]
    odd = rows[x_max] if x_max % 2 == 1 else rows[x_max - 1]
    return LimitRows(even_row=even, odd_row=odd, x_star=x_star)
