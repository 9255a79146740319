"""Fast bottom-up solver for the unit-removal bidding game.

The production recursion is the reduced one: for each Left bid only the tie
and the Right overbids are examined, which is value-preserving because the
ruleset satisfies budget monotonicity, marker monotonicity, and a one-dollar
marker worth.  Left strict-win branches are evaluated only when enumerating
equilibrium bid pairs, and independently by :mod:`bcs.oracle`, which replays
the full three-branch recursion over the complete bid matrix as a
cross-check.

The row kernel leans on budget monotonicity (property A): every solved row
is nondecreasing in Left's budget.  On such a row Right's best overbid
against a Left bid is the smallest one, and its value rises with the bid
while the tie's value falls, so Left's best bid sits where the two cross,
and the kernel walks that crossing from each budget to the next.  A row then
costs O(tb), plus an O(tb) scan that checks the row it starts from; a row
that is not nondecreasing raises :class:`RowNotMonotone` (the CLI exits 1).

The equilibrium bid sets and the domination check need every Left bid, not
just the best one.  They read Right's best overbid as a suffix minimum of
the previous row, which uses no property of the solved rows, so they cost
O(tb^2) per cell and stay exact on any integer row.

Only marker-Left values are stored.  The value of a position where Right
holds the marker is the zero-sum flip ``-row[q]``.  Row ``x`` depends only
on row ``x - 1``; :func:`_rows` is the one loop that produces them, which
:func:`solve` stacks and :func:`limit_rows` follows until they repeat.  Once
a row equals the row two before it, every later row is a copy, so neither
computes a row past the first 2-cycle.
"""

from __future__ import annotations

from itertools import accumulate, cycle, islice
from operator import gt
from typing import Iterator, NamedTuple

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


class RowNotMonotone(GameError):
    """Raised when the row kernel is handed a row that decreases somewhere.

    Budget monotonicity (property A) says every solved row is nondecreasing
    in Left's budget, and the kernel's crossing search is exact only on such
    rows.  A row that breaks it contradicts the property, so it is refused
    rather than solved.
    """


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
    the tie, worth ``1 - prev[q + l]``, or an overbid.  ``prev`` must be
    nondecreasing (property A), so Right's best overbid is ``l + 1``, worth
    ``prev[p + l + 1] - 1``.  That term never falls as ``l`` grows and the
    tie never rises, so there is a first bid ``c`` where the overbid is
    worth at least the tie: below ``c`` Right holds Left to the overbid,
    best at ``c - 1``, and from ``c`` on to the tie, best at ``c``.  A Left
    bid of all of Right's money (``l = q``) leaves no overbid.

    The walk to ``c`` starts at the previous budget's: down while the bid
    below crosses, then up while ``c`` does not, so exactness rests on
    property A alone.  From one budget to the next the overbid's index rises
    by one and the tie's falls by one, so on a nondecreasing row a crossing
    at ``l`` implies one at ``l + 1`` for either neighbouring budget: ``c``
    moves by at most one bid, as does ``top``, and a row costs O(tb).
    """
    if any(map(gt, prev, islice(prev, 1, None))):
        p = next(p for p in range(tb) if prev[p] > prev[p + 1])
        raise RowNotMonotone(
            f"row falls from {prev[p]} at budget {p} to {prev[p + 1]} at budget "
            f"{p + 1}: budget monotonicity (property A) does not hold"
        )
    row = []
    c = 0
    for p in range(tb + 1):
        q = tb - p
        top = p + 1 if p < q else q  # bids below ``top`` leave Right an overbid
        while c > top or c and prev[p + c] + prev[q + c - 1] >= 2:  # overbid >= tie
            c -= 1
        while c < top and prev[p + c + 1] + prev[q + c] < 2:  # overbid < tie
            c += 1
        best = prev[p + c] - 1 if c else 1 - prev[q]  # a tie at 0 always exists
        if c <= p and 1 - prev[q + c] > best:  # Left can afford the tie at ``c``
            best = 1 - prev[q + c]
        row.append(best)
    return tuple(row)


def _rows(tb: int) -> Iterator[tuple[int, ...]]:
    """Rows ``0, 1, 2, ...`` of the reduced recursion, without end.

    Row ``x + 1`` depends only on row ``x``, so once a row equals the row two
    before it, the last two rows repeat in turn for ever and are yielded
    without computing any more.
    """
    older, old, row = None, None, (0,) * (tb + 1)
    while row != older:
        yield row
        older, old, row = old, row, _next_row(tb, row)
    yield from cycle((row, old))


def solve(tb: int, x_max: int) -> OutcomeTable:
    """Solve every heap size up to ``x_max`` for total budget ``tb``."""
    if tb < 0:
        raise ValueError(f"total budget must be >= 0, got {tb}")
    if x_max < 0:
        raise ValueError(f"x_max must be >= 0, got {x_max}")
    return OutcomeTable(tb, tuple(islice(_rows(tb), x_max + 1)))


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

    Follows the rows up to the first heap ``k`` with ``rows[k] ==
    rows[k - 2]``.  Row ``x + 1`` depends only on row ``x``, so every later
    row repeats with period 2, no earlier pair of same-parity rows two apart
    agrees, and ``x_star = k - 2`` is the smallest heap size from which all
    of them agree.  Only the last three rows are held; each costs O(tb) in
    :func:`_next_row`, which walks the crossing from budget to budget and
    raises :class:`RowNotMonotone` on a row that breaks property A.  A first
    repeat past ``B(tb) + 2``, for the convergence bound ``B(tb)``, is a
    hard error: that would contradict the quadratic convergence guarantee.
    """
    bound = convergence_bound(tb)
    older = old = None
    for k, row in enumerate(_rows(tb)):
        if row == older:
            break
        if k >= bound + 2:
            raise ConvergenceBoundExceeded(
                f"rows at {bound} and {bound + 2} still differ for tb={tb}"
            )
        older, old = old, row
    if k % 2 == 0:
        return LimitRows(even_row=row, odd_row=old, x_star=k - 2)
    return LimitRows(even_row=old, odd_row=row, x_star=k - 2)
