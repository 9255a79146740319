"""Closed-form limit rows, the zero-bid automaton, and convergence bounds.

For large heaps the outcome of a budget split depends only on the heap's
parity.  The stabilized values are described by nearest-integer functions of
the budget difference ``delta = 2p - tb``: ``alpha_even`` / ``alpha_odd``
for even total budgets and ``beta`` for odd ones.  A two-state automaton
with one node per budget split models perpetual zero-bid ties: winning a
zero tie hands the opponent the marker and flips the heap parity, giving
the update ``A(j, p) = 1 - A(j', q)`` with ``j'`` the opposite parity.

The branch test in ``beta`` reads "delta congruent to 1 mod 4".  For
negative ``delta`` two readings exist and they disagree:

* ``euclidean`` uses the non-negative residue.  It satisfies the duality
  ``beta(d) = 1 - beta(-d)`` but produces values of mixed parity, so it
  cannot describe any single-parity limit row.
* ``truncated`` classifies by ``abs(delta) % 4``.  It breaks the duality
  but reproduces the solver's limit rows (the odd-heap row directly, the
  even-heap row through the automaton update).

Both modes are exposed; the conjecture harness reports what each one
matches, and ``automaton_fixed_point`` defaults to the mode that the solved
tables confirm.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

from .core import GameError


class ParityError(GameError):
    """Raised when an argument has the wrong parity for a closed form."""


BetaMode = Literal["euclidean", "truncated"]
BETA_MODES: tuple[BetaMode, ...] = ("euclidean", "truncated")


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


def alpha_odd(delta: int) -> int:
    """Stabilized odd-heap value at budget difference ``delta`` (even tb).

    ``ceil((delta+1)/2)`` when ``delta % 4 == 0``, else ``floor``.
    """
    if delta % 2 != 0:
        raise ParityError(f"alpha_odd needs an even budget difference, got {delta}")
    if delta % 4 == 0:
        return (delta + 2) // 2
    return (delta + 1) // 2


def beta(delta: int, mode: BetaMode = "euclidean") -> int:
    """Stabilized value at odd budget difference ``delta`` (odd tb).

    ``floor(delta/2) + iota(delta)`` on the "congruent to 1 mod 4" branch,
    ``ceil(delta/2) + iota(delta)`` otherwise.  ``mode`` picks how negative
    arguments are classified; see the module docstring.
    """
    if delta % 2 == 0:
        raise ParityError(f"beta needs an odd budget difference, got {delta}")
    if mode == "euclidean":
        first_branch = delta % 4 == 1
    elif mode == "truncated":
        first_branch = abs(delta) % 4 == 1
    else:
        raise ValueError(f"unknown beta mode {mode!r}")
    if first_branch:
        return delta // 2 + iota(delta)
    return (delta + 1) // 2 + iota(delta)


def convergence_bound(tb: int) -> int:
    """Explicit heap-size bound ``B(tb)`` by which outcomes have settled.

    ``1 + (tb/2 + 1) * tb/2 - tb/2`` for even ``tb`` and
    ``1 + ceil(tb/2)**2 - floor(tb/2)`` for odd ``tb``; quadratic in the
    total budget either way.
    """
    if tb < 0:
        raise ValueError(f"total budget must be >= 0, got {tb}")
    half = tb // 2
    if tb % 2 == 0:
        return 1 + (half + 1) * half - half
    return 1 + (half + 1) ** 2 - half


class AutomatonTable(NamedTuple):
    """Per-parity state values of the zero-bid automaton.

    ``even_state[p]`` / ``odd_state[p]`` are the values attached to budget
    split ``p`` on even and odd heap parities.
    """

    tb: int
    even_state: tuple[int, ...]
    odd_state: tuple[int, ...]

    def state(self, parity: Literal["even", "odd"]) -> tuple[int, ...]:
        return self.even_state if parity == "even" else self.odd_state

    def update_rule_holds(self) -> bool:
        """Check ``A(j, p) = 1 - A(j', q)`` at every node."""
        tb = self.tb
        return all(
            self.even_state[p] == 1 - self.odd_state[tb - p] for p in range(tb + 1)
        )


def automaton_fixed_point(tb: int, beta_mode: BetaMode = "truncated") -> AutomatonTable:
    """Build the automaton table from a closed-form state plus the update rule.

    Even total budgets take ``alpha_even`` on the even state; odd total
    budgets take ``beta`` on the odd state, whose values have odd parity as
    the score parity law demands.  The other state always comes from the
    update rule.
    """
    if tb < 0:
        raise ValueError(f"total budget must be >= 0, got {tb}")
    if tb % 2 == 0:
        even = tuple(alpha_even(2 * p - tb) for p in range(tb + 1))
        odd = tuple(1 - even[tb - p] for p in range(tb + 1))
    else:
        odd = tuple(beta(2 * p - tb, beta_mode) for p in range(tb + 1))
        even = tuple(1 - odd[tb - p] for p in range(tb + 1))
    return AutomatonTable(tb=tb, even_state=even, odd_state=odd)


def closed_form_tables(tb: int) -> dict[str, AutomatonTable]:
    """The automaton tables the closed forms give, by mode name.

    ``alpha`` for even total budgets; ``beta_euclidean`` and
    ``beta_truncated`` for odd ones.
    """
    if tb % 2 == 0:
        return {"alpha": automaton_fixed_point(tb)}
    return {f"beta_{mode}": automaton_fixed_point(tb, mode) for mode in BETA_MODES}


class ConvergenceReport(NamedTuple):
    """Outcome of comparing solved limit rows with the automaton.

    ``matches`` maps a closed-form mode ("alpha" for even budgets,
    "beta_euclidean" / "beta_truncated" for odd ones) to "exact", "swapped"
    (rows match with parities interchanged), or "none"; ``diffs`` holds the
    per-cell disagreements ``(parity, p, limit, automaton)`` for modes that
    do not match exactly.  ``update_rule_holds`` reports whether the limit
    rows themselves satisfy the automaton update, independent of any closed
    form.
    """

    tb: int
    bound: int
    x_star: int
    even_row: tuple[int, ...]
    odd_row: tuple[int, ...]
    update_rule_holds: bool
    matches: dict[str, str]
    diffs: dict[str, tuple[tuple[str, int, int, int], ...]]


def _compare(
    limits_even: tuple[int, ...],
    limits_odd: tuple[int, ...],
    table: AutomatonTable,
) -> tuple[str, tuple[tuple[str, int, int, int], ...]]:
    if table.even_state == limits_even and table.odd_state == limits_odd:
        return "exact", ()
    if table.even_state == limits_odd and table.odd_state == limits_even:
        return "swapped", ()
    diffs = []
    for parity, limit_row in (("even", limits_even), ("odd", limits_odd)):
        state = table.state(parity)  # type: ignore[arg-type]
        for p, (a, b) in enumerate(zip(limit_row, state)):
            if a != b:
                diffs.append((parity, p, a, b))
    return "none", tuple(diffs)


def conjecture_report(tb: int) -> ConvergenceReport:
    """Probe whether the limit outcomes equal the automaton entries.

    This is a harness for an open question: mismatches are reported in
    full, never raised.  The update-rule closure of the solver limits is
    checked separately from any closed-form seed.
    """
    from .solver import limit_rows

    limits = limit_rows(tb)
    even, odd = limits.even_row, limits.odd_row

    matches: dict[str, str] = {}
    diffs: dict[str, tuple[tuple[str, int, int, int], ...]] = {}
    for name, table in closed_form_tables(tb).items():
        matches[name], cells = _compare(even, odd, table)
        if matches[name] != "exact":
            diffs[name] = cells

    return ConvergenceReport(
        tb=tb,
        bound=convergence_bound(tb),
        x_star=limits.x_star,
        even_row=even,
        odd_row=odd,
        update_rule_holds=AutomatonTable(tb, even, odd).update_rule_holds(),
        matches=matches,
        diffs=diffs,
    )
