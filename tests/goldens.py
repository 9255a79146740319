"""Frozen expected values shared across test modules.

Rows are indexed by Left's budget ascending (p = 0..tb); published tables
list budgets the other way around, so mirror before comparing with them.
"""

from bcs.automaton import iota
from bcs.core import Side

# Total budget 5, heap sizes 0..2.  Contains the worked one-dollar-tie cell
# (x=2, p=1) whose value is 0.
TB5_ROWS = (
    (0, 0, 0, 0, 0, 0),
    (-1, -1, -1, 1, 1, 1),
    (-2, 0, 0, 0, 2, 2),
)


def forced_win_threshold(x: int, q: int, marker: Side) -> int:
    """The least budget with which Left wins all of the next ``x >= 1``
    auctions against ``q`` dollars, ``marker`` holding the marker.

    With the marker, ``(2^x - 1) q + 2^(x-1) - 1``; without it,
    ``(2^x - 1)(q + 1)``.  Read for Right by swapping the sides.
    """
    if marker is Side.LEFT:
        return (2**x - 1) * q + 2 ** (x - 1) - 1
    return (2**x - 1) * (q + 1)


def beta_euclidean(delta: int) -> int:
    """``beta`` read on the non-negative residue ``delta % 4``: never a limit row."""
    return delta // 2 + iota(delta) if delta % 4 == 1 else (delta + 1) // 2 + iota(delta)


# Stabilized per-parity rows for total budget 8.
TB8_EVEN_LIMIT = (-4, -2, -2, 0, 0, 2, 2, 4, 4)
TB8_ODD_LIMIT = (-3, -3, -1, -1, 1, 1, 3, 3, 5)

# Stabilized per-parity rows for total budget 9.
TB9_EVEN_LIMIT = (-4, -4, -2, -2, 0, 2, 2, 4, 4, 6)
TB9_ODD_LIMIT = (-5, -3, -3, -1, -1, 1, 3, 3, 5, 5)

# Full bid matrix at tb=9, heap 9, Left holding 6 dollars and the marker.
# Rows are Right bids 0..3, columns Left bids 0..6.
TB9_X9_P6_MATRIX = (
    (1, 1, 1, 1, -1, -1, -3),
    (1, 1, 1, 1, -1, -1, -3),
    (3, 3, 1, 1, -1, -1, -3),
    (3, 3, 3, -1, -1, -1, -3),
)
TB9_X9_P6_COLUMN_MINS = (1, 1, 1, -1, -1, -1, -3)
TB9_X9_P6_ROW_MAXES = (1, 1, 3, 3)

# Full bid matrix at tb=9, heap 9, Left holding 4 dollars, marker with
# Right.  Rows are Right bids 0..5, columns Left bids 0..4.  Derived from
# the heap-8 row (itself pinned entrywise by the matrix above) and
# confirmed by the brute-force evaluator.
TB9_X9_P4_RIGHT_MATRIX = (
    (-1, -1, -1, -3, -3),
    (-1, -1, -1, -3, -3),
    (-1, -1, 1, -3, -3),
    (1, 1, 1, 1, -3),
    (1, 1, 1, 1, 3),
    (3, 3, 3, 3, 3),
)

# Marker-Left values at tb=9, heap 8, budgets ascending.
TB9_ROW8 = (-4, -2, -2, 0, 0, 0, 2, 2, 4, 4)

# Ruleset with a forced bad move for Right: moving costs him a point, and
# holding the marker with no budget forces him to make it.
ZUGZWANG_RULESET = """\
node x1
node x2 terminal 0
edge R x1 x2 1
tb 1
bids all
"""
