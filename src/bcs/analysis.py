"""Executable invariants over solved tables and the oracle check.

Every inequality the solved tables are known to satisfy is implemented here
as a row check that either passes or pins down the first offending cell.  The
solver's tables are also compared cell by cell with :mod:`bcs.oracle`, the
independent mechanism: it shares nothing with :mod:`bcs.solver` but the
core types.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Callable, Iterable, NamedTuple

from . import oracle
from .core import OutcomeTable, Side, zero_row
from .solver import first_fall, solve


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


Row = tuple[int, ...]
RowCheck = Callable[[int, Row, Row | None, Row | None], tuple | None]


def _budget_monotonicity(x: int, row: Row, prev: Row | None, older: Row | None):
    """More money with the marker is never worse (property A)."""
    if (p := first_fall(row)) is not None:
        return p + 1, (row[p + 1], row[p])


def _tie_monotonicity(x: int, row: Row, prev: Row | None, older: Row | None):
    """A smaller tie is always weakly better for the marker holder: the row
    below never falls at a budget ``d = q + l``.  Every ``d`` in ``2..tb`` is
    read, first at ``p = tb - d + 1, l = 1``, so the last fall fails first."""
    if prev is None:
        return None
    tb = len(row) - 1
    for d in range(tb, 1, -1):
        if prev[d] < prev[d - 1]:
            return tb - d + 1, (1 - prev[d], 1 - prev[d - 1]), "l=1"


def _marker_monotonicity(x: int, row: Row, prev: Row | None, older: Row | None):
    """The marker never hurts, and is worth at most two points."""
    tb = len(row) - 1
    for p in range(tb + 1):
        with_marker, without = row[p], -row[tb - p]
        if not without <= with_marker <= without + 2:
            return p, (without, with_marker)


def _marker_dominance(x: int, row: Row, prev: Row | None, older: Row | None):
    """Holding the marker beats the flip of any reachable opposing split:
    ``row[p] >= -row[q + l]`` for ``l = 0..p``, that is ``-min(row[q:])``."""
    tb = len(row) - 1
    for p, low in enumerate(accumulate(reversed(row), min)):  # min(row[q:])
        if row[p] < -low:
            l = next(l for l in range(p + 1) if row[p] < -row[tb - p + l])
            return p, (row[p], -row[tb - p + l]), f"l={l}"


def _marker_worth(x: int, row: Row, prev: Row | None, older: Row | None):
    """The marker is worth at most one dollar."""
    tb = len(row) - 1
    for p in range(tb):
        if row[p] > -row[tb - (p + 1)]:
            return p, (row[p], -row[tb - (p + 1)])


def _sign_border(x: int, row: Row, prev: Row | None, older: Row | None):
    """Outcomes are non-negative iff Left holds at least half the budget,
    strictly on odd heaps."""
    tb = len(row) - 1
    for p, v in enumerate(row):
        if (v < 0 if 2 * p >= tb else v > 0) or x % 2 and v == 0:
            return p, (v,)


def _bounded_outcome(x: int, row: Row, prev: Row | None, older: Row | None):
    """Outcomes stay within [-ceil(tb/2), ceil(tb/2) + 1].

    Both ends are attained.  The lower end really is the ceiling for odd
    budgets: at tb=5 the cell (x=5, p=0) reaches -3, one below the floor.
    """
    tb = len(row) - 1
    lo, hi = -((tb + 1) // 2), (tb + 1) // 2 + 1
    for p, v in enumerate(row):
        if not lo <= v <= hi:
            return p, (v, lo, hi)


def _budget_lipschitz(x: int, row: Row, prev: Row | None, older: Row | None):
    """One extra dollar gains at most two points."""
    for p in range(len(row) - 1):
        if row[p + 1] > row[p] + 2:
            return p, (row[p], row[p + 1])


def _heap_monotonicity(x: int, row: Row, prev: Row | None, older: Row | None):
    """Per parity, rich columns never decrease and poor columns never grow."""
    if older is None:
        return None
    tb = len(row) - 1
    for p in range(tb + 1):
        if row[p] < older[p] if 2 * p >= tb else row[p] > older[p]:
            return p, (older[p], row[p])


def _parity(x: int, row: Row, prev: Row | None, older: Row | None):
    """Scores share the parity of the heap."""
    for p, v in enumerate(row):
        if (v - x) % 2 != 0:
            return p, (v,)


_INVARIANTS: tuple[tuple[str, RowCheck], ...] = (
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


def run_invariant_suite(tb: int, x_max: int, rows: Iterable[Row]) -> list[InvariantReport]:
    """The ten invariants on heaps ``0..x_max``, in one ascending pass over
    ``rows``, those of heaps ``0, 1, ...`` up to the first 2-cycle at most.
    Each check sees heap ``x``, its row and the two below (None below 0),
    returns ``(p, values[, note])`` at its first failing budget or None, and
    runs up to that failure.  Past the rows the last two repeat in turn, so
    the pass stops at ``len(rows) + 1``: a later heap would show each check
    what the heap two before showed."""
    zero_row(tb)  # refuses a bad tb ahead of a bad x_max, as solve does
    if x_max < 0:
        raise ValueError(f"x_max must be >= 0, got {x_max}")
    found: dict[str, Counterexample] = {}
    prev = older = None
    for x, row in zip(range(x_max + 1), chain(rows, (None, None))):
        row = older if row is None else row  # past the rows: the row two before
        for name, check in _INVARIANTS:
            if name not in found and (cex := check(x, row, prev, older)) is not None:
                found[name] = Counterexample(x, *cex)
        older, prev = prev, row
    return [InvariantReport(name, tb, x_max, found.get(name)) for name in INVARIANT_NAMES]


def run_invariant_suite_on(table: OutcomeTable) -> list[InvariantReport]:
    """:func:`run_invariant_suite` over an already solved table."""
    return run_invariant_suite(table.tb, table.x_max, table.rows)


def check_oracle_equivalence(tb: int, x_max: int) -> InvariantReport:
    """Compare the reduced solver against the full-matrix evaluator.

    Every cell up to ``x_max`` is checked for both marker holders, so the
    zero-sum flip the solver relies on is exercised against independently
    computed values: ``-row[tb - p]`` against the marker-Right row.
    """
    table = solve(tb, x_max)
    for x, layer in enumerate(oracle.oracle_table(tb, x_max)):
        row = table.row(x)
        for p in range(tb + 1):
            for marker, fast, slow in (
                (Side.LEFT, row[p], layer[True][p]),
                (Side.RIGHT, -row[tb - p], layer[False][p]),
            ):
                if fast != slow:
                    cex = Counterexample(x, p, (fast, slow), f"marker={marker}")
                    return InvariantReport("oracle_equivalence", tb, x_max, cex)
    return InvariantReport("oracle_equivalence", tb, x_max)
