"""Closed-form limit rows and the zero-bid automaton.

For large heaps the outcome of a budget split depends only on the heap's
parity.  The stabilized values are described by nearest-integer functions of
the budget difference ``delta = 2p - tb``: ``alpha_even`` on the even heaps
of an even total budget, ``beta`` on the odd heaps of an odd one; the other
parity is the image of these under the update rule.  A two-state automaton
with one node per budget split models perpetual zero-bid ties: winning a
zero tie hands the opponent the marker and flips the heap parity, giving
the update ``A(j, p) = 1 - A(j', q)`` with ``j'`` the opposite parity.

The branch test in ``beta`` reads "delta congruent to 1 mod 4" on
``abs(delta)``, the truncated residue (hence the name ``beta_truncated``).
The non-negative residue would satisfy the duality ``beta(d) = 1 - beta(-d)``,
but it scores 0 and 1 at ``delta = -1`` and ``+1``, so no single-parity
limit row can equal it.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import GameError, zero_row


class ParityError(GameError):
    """Raised when an argument has the wrong parity for a closed form."""


# An ``(even, odd)`` pair: one value per budget split ``p`` on each heap parity.
Rows = tuple[tuple[int, ...], tuple[int, ...]]


def iota(n: int) -> int:
    """1 for positive arguments, else 0."""
    return 1 if n > 0 else 0


def alpha_even(delta: int) -> int:
    """Stabilized even-heap value at budget difference ``delta`` (even tb).

    ``floor((delta+1)/2)`` when ``delta % 4 == 0``, else ``ceil``.
    """
    if delta % 2 != 0:
        raise ParityError(f"alpha_even needs an even budget difference, got {delta}")
    if delta % 4 == 0:
        return (delta + 1) // 2
    return (delta + 2) // 2


def beta(delta: int) -> int:
    """Stabilized value at odd budget difference ``delta`` (odd tb).

    ``floor(delta/2) + iota(delta)`` when ``abs(delta) % 4 == 1``, else
    ``ceil(delta/2) + iota(delta)``; see the module docstring.
    """
    if delta % 2 == 0:
        raise ParityError(f"beta needs an odd budget difference, got {delta}")
    if abs(delta) % 4 == 1:
        return delta // 2 + iota(delta)
    return (delta + 1) // 2 + iota(delta)


def update_rule_holds(rows: Rows) -> bool:
    """Check ``A(j, p) = 1 - A(j', q)`` at every node of an ``(even, odd)`` pair."""
    even, odd = rows
    return all(e == 1 - o for e, o in zip(even, reversed(odd), strict=True))


def automaton_fixed_point(tb: int) -> Rows:
    """The automaton's ``(even, odd)`` states from a closed form plus the update rule.

    ``even[p]`` / ``odd[p]`` are the values attached to budget split ``p``
    on even and odd heap parities.  Even total budgets take ``alpha_even``
    on the even state; odd total budgets take ``beta`` on the odd state,
    whose values have odd parity as the score parity law demands.  The
    other state always comes from the update rule.
    """
    zero_row(tb)  # refuses a bad tb
    if tb % 2 == 0:
        even = tuple(alpha_even(2 * p - tb) for p in range(tb + 1))
        odd = tuple(1 - even[tb - p] for p in range(tb + 1))
    else:
        odd = tuple(beta(2 * p - tb) for p in range(tb + 1))
        even = tuple(1 - odd[tb - p] for p in range(tb + 1))
    return even, odd


def closed_form_name(tb: int) -> str:
    """The name of the closed form of ``tb``: ``alpha`` for an even total
    budget, ``beta_truncated`` for an odd one."""
    return "alpha" if tb % 2 == 0 else "beta_truncated"


class ConvergenceReport(NamedTuple):
    """Outcome of comparing solved limit rows with the automaton.

    ``diffs`` holds the cells ``(parity, p, limit, automaton)`` where the
    rows disagree with the closed form of their total budget; ``match`` is
    "exact" when there are none and "none" otherwise.  No pair of limit
    rows can match with its parities swapped: each pebble scores +-1, so
    every value of a heap's row shares that heap's parity, as the closed
    forms' values do.  ``update_rule_holds`` reports whether the limit rows
    themselves satisfy the automaton update, independent of any closed form.
    """

    update_rule_holds: bool
    diffs: tuple[tuple[str, int, int, int], ...]

    @property
    def match(self) -> str:
        return "none" if self.diffs else "exact"


def conjecture_report(rows: Rows) -> ConvergenceReport:
    """Probe whether the ``(even, odd)`` limit rows equal the automaton entries.

    This is a harness for an open question: mismatches are reported in
    full, never raised.  The update-rule closure of the limit rows is
    checked separately from any closed-form seed.
    """
    state = automaton_fixed_point(len(rows[0]) - 1)
    diffs = tuple(
        (parity, p, a, b)
        for parity, limit_row, state_row in zip(("even", "odd"), rows, state)
        for p, (a, b) in enumerate(zip(limit_row, state_row))
        if a != b
    )
    return ConvergenceReport(update_rule_holds(rows), diffs)
