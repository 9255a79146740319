"""Frozen expected values shared across test modules.

Rows are indexed by Left's budget ascending (p = 0..tb); published tables
list budgets the other way around, so mirror before comparing with them.
"""

import argparse

from bcs.automaton import iota
from bcs.cli import (
    cmd_automaton,
    cmd_bids,
    cmd_check,
    cmd_conjecture,
    cmd_limits,
    cmd_play,
    cmd_solve,
)
from bcs.core import BID_KINDS, Side
from bcs.general import GeneralRuleset

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


def alpha_odd(delta: int) -> int:
    """The paper's odd-heap value at even budget difference ``delta``:
    ``ceil((delta+1)/2)`` when ``delta % 4 == 0``, else ``floor``.  The
    engine takes this row as ``alpha_even``'s image under the update rule."""
    return (delta + 2) // 2 if delta % 4 == 0 else (delta + 1) // 2


def make_unitary_ruleset(tb: int, x_max: int) -> GeneralRuleset:
    """The unit-removal heap game on heap sizes ``0..x_max`` as a general
    ruleset: either player removes one pebble, Left scoring +1 and Right -1."""
    return GeneralRuleset(
        positions=tuple(range(x_max + 1)),
        left_edges={x: {x - 1: 1} for x in range(1, x_max + 1)},
        right_edges={x: {x - 1: -1} for x in range(1, x_max + 1)},
        penalties={0: 0},
        tb=tb,
        bid_set=frozenset(range(tb + 1)),
    )


# Stabilized per-parity rows for total budget 8.
TB8_EVEN_LIMIT = (-4, -2, -2, 0, 0, 2, 2, 4, 4)
TB8_ODD_LIMIT = (-3, -3, -1, -1, 1, 1, 3, 3, 5)

# Stabilized per-parity rows for total budget 9.
TB9_EVEN_LIMIT = (-4, -4, -2, -2, 0, 2, 2, 4, 4, 6)
TB9_ODD_LIMIT = (-5, -3, -3, -1, -1, 1, 3, 3, 5, 5)

# The single-defect tail of the rows at each tb in 4..64, as observed (not
# proved): the heap from which exactly one cell of each row differs from
# the row two heaps before, and the number of laps ``J`` the cell makes
# through the row with a jump.
SINGLE_DEFECT_TAILS = {
    4: (3, 0), 5: (3, 1), 6: (3, 1), 7: (5, 1), 8: (5, 1), 9: (7, 1),
    10: (7, 1), 11: (7, 2), 12: (7, 2), 13: (11, 2), 14: (11, 2), 15: (13, 2),
    16: (13, 2), 17: (15, 3), 18: (15, 3), 19: (19, 3), 20: (19, 3),
    21: (23, 3), 22: (23, 3), 23: (25, 4), 24: (25, 4), 25: (29, 4),
    26: (29, 4), 27: (35, 4), 28: (35, 4), 29: (39, 5), 30: (39, 5),
    31: (43, 5), 32: (43, 5), 33: (51, 5), 34: (51, 5), 35: (55, 5),
    36: (55, 5), 37: (59, 6), 38: (59, 6), 39: (67, 6), 40: (67, 6),
    41: (73, 7), 42: (73, 7), 43: (79, 7), 44: (79, 7), 45: (89, 7),
    46: (89, 7), 47: (95, 7), 48: (95, 7), 49: (101, 8), 50: (101, 8),
    51: (113, 8), 52: (113, 8), 53: (119, 9), 54: (119, 9), 55: (127, 9),
    56: (127, 9), 57: (137, 9), 58: (137, 9), 59: (145, 10), 60: (145, 10),
    61: (153, 10), 62: (153, 10), 63: (167, 10), 64: (167, 10),
}

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


# ``bcs``'s argparse tree as it was written by hand, before ``bcs.cli``
# built it from its command table: the reference that the built parser's
# help and usage, and the direct parse's namespaces, are compared with.
def _output_args(parser: argparse.ArgumentParser, *formats: str) -> None:
    """Add ``--format`` (the first of ``formats`` is the default) and ``--out``."""
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcs",
        description=(
            "Exact equilibrium tables, limit rows, invariant checks, bid "
            "graphs, and interactive play for discrete-bid Richman games on "
            "pebble heaps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a value table")
    p_solve.add_argument("--tb", type=int, required=True)
    p_solve.add_argument("--x-max", type=int, required=True)
    _output_args(p_solve, "table", "csv", "json")
    p_solve.set_defaults(func=cmd_solve)

    p_limits = sub.add_parser("limits", help="stabilized per-parity rows")
    p_limits.add_argument("--tb", type=int, required=True)
    _output_args(p_limits, "table", "json")
    p_limits.set_defaults(func=cmd_limits)

    p_check = sub.add_parser("check", help="run invariant or ruleset checks")
    p_check.add_argument("--tb", type=int, default=None)
    p_check.add_argument("--x-max", type=int, default=None)
    p_check.add_argument("--with-oracle", action="store_true")
    p_check.add_argument("--ruleset", default=None, help="check a ruleset file")
    p_check.add_argument("--from-json", default=None, help="check a solved table")
    _output_args(p_check, "text", "json")
    p_check.set_defaults(func=cmd_check)

    p_auto = sub.add_parser("automaton", help="zero-bid automaton tables")
    p_auto.add_argument("--tb", type=int, required=True)
    _output_args(p_auto, "table", "json")
    p_auto.set_defaults(func=cmd_automaton)

    p_conj = sub.add_parser("conjecture", help="limit rows vs automaton entries")
    p_conj.add_argument("--tb", type=int, required=True)
    _output_args(p_conj, "text", "json")
    p_conj.set_defaults(func=cmd_conjecture)

    p_bids = sub.add_parser("bids", help="export a bid graph")
    p_bids.add_argument("--tb", type=int, required=True)
    p_bids.add_argument("--kind", choices=BID_KINDS, required=True)
    p_bids.add_argument("--bid", type=int, required=True)
    p_bids.add_argument("--reduced", action="store_true")
    _output_args(p_bids, "dot", "json")
    p_bids.set_defaults(func=cmd_bids)

    p_play = sub.add_parser("play", help="play against the engine")
    p_play.add_argument("--tb", type=int, required=True)
    p_play.add_argument("--x", type=int, required=True)
    p_play.add_argument("--p", type=int, required=True, help="Left's dollars")
    p_play.add_argument("--marker", choices=("L", "R"), required=True)
    p_play.add_argument("--engine-side", choices=("L", "R"), required=True)
    p_play.set_defaults(func=cmd_play)

    return parser
