"""Fast bottom-up solver for the unit-removal bidding game.

The production recursion is the reduced one: for each Left bid only the tie
and the Right overbids are examined, which is value-preserving because the
ruleset satisfies budget monotonicity, marker monotonicity, and a one-dollar
marker worth.  Left strict wins are evaluated only by :mod:`bcs.oracle`,
which replays the full three-branch recursion over the complete bid matrix
as a cross-check.

The row kernel leans on budget monotonicity (property A): every solved row
is nondecreasing in Left's budget, so Left's best bid sits where the falling
tie crosses the rising overbid.  :func:`_cell` is the one statement of that
step.  The kernel, :func:`next_row`, walks the crossing from each budget to
the next, at O(tb) a row; ``bcs automaton`` steps its seeds with it.  The
equilibrium bid sets walk out from the crossing to the one run of bids held
to the cell's value, at O(c + run * log tb + pairs) a cell for crossing
``c``.  Both first check the row they read, at O(tb): one that is not
nondecreasing raises :class:`RowNotMonotone` (the CLI exits 1).

Only marker-Left values are stored.  The value of a position where Right
holds the marker is the zero-sum flip ``-row[q]``.  Row ``x`` depends only
on row ``x - 1``, so once a row equals the row two before it, every later
row is a copy.  :func:`rows` is the one loop that produces rows and the one
test for that 2-cycle: it stops before the first repeat, :func:`solve`
stores the rows up to there (its table reads later heaps by parity), and
:func:`limit_rows` reads the limits off them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import gt
from typing import Iterator, NamedTuple

from .core import (
    BidPair,
    BidWinner,
    GameAlreadyOver,
    GameError,
    InfeasibleBid,
    OutcomeTable,
    RichmanPosition,
    convergence_bound,
    heaps,
    zero_row,
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


def first_fall(row: tuple[int, ...]) -> int | None:
    """The first budget ``p`` where ``row`` falls, ``row[p] > row[p + 1]``, or
    None where budget monotonicity (property A) holds on ``row``."""
    if any(map(gt, row, islice(row, 1, None))):
        return next(p for p in range(len(row) - 1) if row[p] > row[p + 1])


def _require_monotone(row: tuple[int, ...]) -> None:
    """Raise :class:`RowNotMonotone` at the first budget where ``row`` falls."""
    if (p := first_fall(row)) is not None:
        raise RowNotMonotone(
            f"row falls from {row[p]} at budget {p} to {row[p + 1]} at budget "
            f"{p + 1}: budget monotonicity (property A) does not hold"
        )


def _cell(prev: tuple[int, ...], p: int, q: int, c: int) -> tuple[int, int]:
    """One cell of the reduced recursion: Right minimizes, Left maximizes.

    Left, with ``p`` against Right's ``q``, bids ``l`` up to both budgets;
    Right ties, worth ``1 - prev[q + l]``, or overbids.  On a nondecreasing
    ``prev`` (property A) the best overbid is ``l + 1``, worth
    ``prev[p + l + 1] - 1``, which never falls as ``l`` grows while the tie
    never rises.  So from the first bid ``c`` where the overbid is worth at
    least the tie Right holds Left to the tie, best at ``c``, and below
    ``c`` to the overbid, best at ``c - 1``.  A bid of all of Right's money
    (``l = q``) leaves no overbid.  Returns ``c`` and the cell's value.

    The walk to ``c`` starts at the given ``c``: down while the bid below
    crosses, then up while ``c`` does not, so exactness rests on property A
    alone.  From one budget to the next the overbid's index rises by one and
    the tie's falls by one, so a crossing at ``l`` implies one at ``l + 1``
    for either neighbouring budget: ``c`` moves by at most one bid, as does
    ``top``, and a walk from the neighbour's ``c`` takes O(1) steps.
    """
    top = p + 1 if p < q else q  # bids below ``top`` leave Right an overbid
    while c > top or c and prev[p + c] + prev[q + c - 1] >= 2:  # overbid >= tie
        c -= 1
    while c < top and prev[p + c + 1] + prev[q + c] < 2:  # overbid < tie
        c += 1
    best = prev[p + c] - 1 if c else 1 - prev[q]  # a tie at 0 always exists
    if c <= p and 1 - prev[q + c] > best:  # Left can afford the tie at ``c``
        best = 1 - prev[q + c]
    return c, best


def next_row(tb: int, prev: tuple[int, ...]) -> tuple[int, ...]:
    """:func:`_cell` at each budget, walked from the previous budget's crossing."""
    _require_monotone(prev)
    row = [0] * (tb + 1)  # allocated first: a row memory cannot hold fails at once
    c = 0
    for p in range(tb + 1):
        c, row[p] = _cell(prev, p, tb - p, c)
    return tuple(row)


def rows(tb: int) -> Iterator[tuple[int, ...]]:
    """Rows ``0, 1, 2, ...`` of the reduced recursion, up to the first 2-cycle.

    Stops before the first row that equals the row two before it.  Row
    ``x + 1`` depends only on row ``x``, so from there the last two rows
    yielded repeat in turn for ever.  At least two rows are yielded.  A
    ``tb`` that :func:`~bcs.core.zero_row` refuses raises there.
    """
    row = zero_row(tb)
    older = old = None
    while row != older:
        yield row
        older, old, row = old, row, next_row(tb, row)


def solve(tb: int, x_max: int) -> OutcomeTable:
    """Solve every heap size up to ``x_max`` for total budget ``tb``.

    The table stores the rows up to the first 2-cycle, at most
    ``x_star + 2`` of them, and reads later heaps by parity."""
    return OutcomeTable(tb, tuple(row for _, row in zip(heaps(tb, x_max), rows(tb))), x_max)


def value(table: OutcomeTable, pos: RichmanPosition) -> int:
    """Equilibrium score of ``pos``, flipping the stored row when Right
    holds the marker."""
    row = table.row(pos.for_budget(table.tb).heap)
    if pos.left_holds_marker:
        return row[pos.left_budget]
    return -row[pos.right_budget]


def _row_below(table: OutcomeTable, pos: RichmanPosition) -> tuple[int, ...]:
    """The row of heap ``pos.heap - 1``, which every bid at ``pos`` reads."""
    if pos.for_budget(table.tb).heap < 1:
        raise GameAlreadyOver("no bidding on an empty heap")
    return table.row(pos.heap - 1)


def tie_conditioned_value(table: OutcomeTable, pos: RichmanPosition, l: int) -> int:
    """Score if both players bid ``l`` at ``pos`` and play on optimally.

    Left must hold the marker; the tie requires both sides to afford ``l``.
    """
    if not pos.left_holds_marker:
        raise ValueError("tie-conditioned values are defined for marker-Left positions")
    prev = _row_below(table, pos)
    if l < 0 or l > pos.left_budget or l > pos.right_budget:
        budgets = f"{pos.left_budget}/{pos.right_budget}"
        raise InfeasibleBid(f"tie at {l} infeasible with budgets {budgets}")
    return 1 - prev[pos.right_budget + l]


def _marker_left_bids(prev: tuple[int, ...], tb: int, p: int) -> frozenset[BidPair]:
    """Equilibrium bid pairs at a marker-Left cell, from the previous row.

    Below :func:`_cell`'s crossing ``c`` Right holds Left to the overbid,
    which never falls, and from ``c`` on to the tie, which never rises, so
    the bids held to the value ``best`` are one run: down from ``c`` while
    the overbid is worth ``best``, up while the tie is.  Right's overbids
    worth ``best`` against a bid are one run of the nondecreasing ``prev``.
    """
    _require_monotone(prev)
    q = tb - p
    c, best = _cell(prev, p, q, 0)
    lo = hi = c
    while lo and prev[p + lo] - 1 == best:  # Right overbids ``lo - 1`` by one
        lo -= 1
    while hi <= min(p, q) and 1 - prev[q + hi] == best:  # the tie at ``hi``
        hi += 1
    pairs = [BidPair(l, l, BidWinner.LEFT_TIE) for l in range(c, hi)]
    for l in range(lo, hi):
        first = bisect_left(prev, best + 1, p + l + 1)
        end = bisect_right(prev, best + 1, first)
        pairs += (BidPair(l, r - p, BidWinner.RIGHT_STRICT) for r in range(first, end))
    return frozenset(pairs)


_FLIPPED = {
    BidWinner.LEFT_STRICT: BidWinner.RIGHT_STRICT,
    BidWinner.RIGHT_STRICT: BidWinner.LEFT_STRICT,
    BidWinner.LEFT_TIE: BidWinner.RIGHT_TIE,
    BidWinner.RIGHT_TIE: BidWinner.LEFT_TIE,
}


def _mirror(bid: BidPair) -> BidPair:
    return BidPair(bid.right_bid, bid.left_bid, _FLIPPED[bid.winner])


def equilibrium_bids(table: OutcomeTable, pos: RichmanPosition) -> frozenset[BidPair]:
    """All bid pairs consistent with equilibrium play at ``pos``.

    Marker-Right cells are handled by mirroring the sides, which is exact
    because the ruleset is symmetric.  Raises :class:`RowNotMonotone` when
    the row of heap ``pos.heap - 1`` decreases (property A fails).
    """
    prev = _row_below(table, pos)
    if pos.left_holds_marker:
        return _marker_left_bids(prev, table.tb, pos.left_budget)
    return frozenset(map(_mirror, _marker_left_bids(prev, table.tb, pos.right_budget)))


class LimitRows(NamedTuple):
    even_row: tuple[int, ...]
    odd_row: tuple[int, ...]
    x_star: int


def limit_rows(tb: int) -> LimitRows:
    """Stabilized per-parity rows and the heap size where they settle.

    Follows the rows up to the last heap ``x`` before the first 2-cycle:
    ``rows[x + 1] == rows[x - 1]``.  Row ``x + 1`` depends only on row
    ``x``, so every later row repeats with period 2, no earlier pair of
    same-parity rows two apart agrees, and ``x_star = x - 1`` is the
    smallest heap size from which all of them agree.  Only the last three
    rows are held.  A first repeat past ``B(tb) + 2``, for the convergence
    bound ``B(tb)``, is a hard error: that would contradict the quadratic
    convergence guarantee.
    """
    bound = convergence_bound(tb)
    older = old = None
    for x, row in enumerate(rows(tb)):
        if x >= bound + 2:
            raise ConvergenceBoundExceeded(
                f"rows at {bound} and {bound + 2} still differ for tb={tb}"
            )
        older, old = old, row
    even, odd = (older, old) if x % 2 else (old, older)
    return LimitRows(even_row=even, odd_row=odd, x_star=x - 1)
