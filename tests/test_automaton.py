import pytest
from hypothesis import given, strategies as st

from bcs.automaton import (
    ParityError,
    alpha_even,
    automaton_fixed_point,
    beta,
    closed_form_name,
    conjecture_report,
    iota,
    update_rule_holds,
)
from bcs.core import convergence_bound
from bcs.solver import limit_rows, next_row, solve

from goldens import (
    TB8_EVEN_LIMIT,
    TB8_ODD_LIMIT,
    TB9_EVEN_LIMIT,
    TB9_ODD_LIMIT,
    alpha_odd,
    beta_euclidean,
)


def test_alpha_even_examples():
    assert alpha_even(0) == 0
    assert alpha_even(8) == 4
    assert alpha_even(-6) == -2


def test_alpha_odd_examples():
    assert alpha_odd(8) == 5
    assert alpha_odd(0) == 1
    assert alpha_odd(-8) == -3


def test_alpha_rows_match_tb8_limits():
    assert tuple(alpha_even(2 * p - 8) for p in range(9)) == TB8_EVEN_LIMIT
    assert tuple(alpha_odd(2 * p - 8) for p in range(9)) == TB8_ODD_LIMIT


def test_beta_examples():
    assert beta(1) == 1
    assert beta(9) == 5
    assert beta(-1) == -1
    assert beta_euclidean(-1) == 0  # non-negative residue picks the ceiling branch
    assert iota(3) == 1 and iota(0) == 0 and iota(-2) == 0


def test_beta_truncated_matches_tb9_odd_limit():
    assert tuple(beta(2 * p - 9) for p in range(10)) == TB9_ODD_LIMIT


def test_parity_guards():
    with pytest.raises(ParityError):
        alpha_even(3)
    with pytest.raises(ParityError):
        beta(2)


def test_even_tb_odd_state_is_the_papers_alpha_odd_row():
    for tb in range(0, 65, 2):
        assert automaton_fixed_point(tb)[1] == tuple(alpha_odd(2 * p - tb) for p in range(tb + 1))


def test_alpha_duality_range():
    for delta in range(-100, 101, 2):
        assert alpha_even(delta) == 1 - alpha_odd(-delta)


@given(st.integers(min_value=-10**6, max_value=10**6).map(lambda n: 2 * n))
def test_alpha_duality_property(delta):
    assert alpha_even(delta) == 1 - alpha_odd(-delta)


@given(st.integers(min_value=-10**6, max_value=10**6).map(lambda n: 2 * n + 1))
def test_beta_duality_by_mode(delta):
    # the non-negative residue reading satisfies the duality ...
    assert beta_euclidean(delta) == 1 - beta_euclidean(-delta)


def test_beta_truncated_breaks_duality():
    # ... and the limit-matching reading provably does not
    assert beta(9) != 1 - beta(-9)



def test_fixed_point_tb8_equals_limits():
    rows = automaton_fixed_point(8)
    assert rows == (TB8_EVEN_LIMIT, TB8_ODD_LIMIT)
    assert update_rule_holds(rows)


def test_fixed_point_tb9_truncated_equals_limits():
    rows = automaton_fixed_point(9)
    assert rows == (TB9_EVEN_LIMIT, TB9_ODD_LIMIT)
    assert update_rule_holds(rows)


def test_fixed_point_tb9_update_entries():
    even, odd = automaton_fixed_point(9)
    assert odd[9] == 5
    assert even[9] == 1 - odd[0] == 6


def test_fixed_point_tb0():
    assert automaton_fixed_point(0) == ((0,), (1,))
    with pytest.raises(ValueError, match="total budget must be >= 0, got -1"):
        automaton_fixed_point(-1)


def test_convergence_bound_values():
    assert convergence_bound(8) == 17
    assert convergence_bound(9) == 22
    assert convergence_bound(0) == 1
    assert convergence_bound(12) == 37
    with pytest.raises(ValueError):
        convergence_bound(-1)


@pytest.mark.parametrize("tb", range(11))
def test_outcome_bounds_contain_solver_values(tb):
    x_max = convergence_bound(tb) + 2
    table = solve(tb, x_max)
    states = automaton_fixed_point(tb)
    for x in range(x_max + 1):
        entries = states[x % 2]
        for p, v in enumerate(table.row(x)):
            if 2 * p >= tb:
                assert v <= entries[p]
            else:
                assert v >= entries[p]


def _limit_pair(tb):
    limits = limit_rows(tb)
    return limits.even_row, limits.odd_row


def test_conjecture_report_tb8():
    report = conjecture_report(_limit_pair(8))
    assert closed_form_name(8) == "alpha"
    assert report.match == "exact" and report.diffs == ()
    assert report.update_rule_holds
    assert limit_rows(8).x_star <= convergence_bound(8) + 2


def test_conjecture_report_tb9():
    report = conjecture_report(_limit_pair(9))
    assert report.update_rule_holds
    assert closed_form_name(9) == "beta_truncated"
    assert report.match == "exact"
    assert report.diffs == ()


def test_conjecture_report_tb1():
    assert _limit_pair(1) == ((0, 2), (-1, 1))
    assert conjecture_report(_limit_pair(1)).update_rule_holds


def test_update_rule_fails_on_a_pair_that_breaks_it():
    assert not update_rule_holds(((0,), (0,)))
    assert not update_rule_holds(((0, 2), (-1, 2)))
    report = conjecture_report(((0,), (0,)))
    assert not report.update_rule_holds
    assert report.match == "none"
    assert report.diffs == (("odd", 0, 0, 1),)


def test_conjecture_report_swapped_pair():
    # Each row's values share its heap's parity, so every cell of a
    # swapped pair differs from the closed form.
    even, odd = automaton_fixed_point(8)
    report = conjecture_report((odd, even))
    assert report.match == "none"
    assert report.diffs == tuple(
        (parity, p, limit, entry)
        for parity, limits, entries in (("even", odd, even), ("odd", even, odd))
        for p, (limit, entry) in enumerate(zip(limits, entries))
    )


def test_update_rule_closure_small_sweep():
    for tb in range(8):
        report = conjecture_report(_limit_pair(tb))
        assert report.update_rule_holds, tb


SWEEP = range(41)


def _backward_x_star(rows):
    """``x_star`` read off a full table: scan back from the last row while
    same-parity rows two apart agree."""
    x_star = len(rows) - 2
    while x_star > 0 and rows[x_star - 1] == rows[x_star + 1]:
        x_star -= 1
    return x_star


@pytest.mark.parametrize("tb", SWEEP)
def test_limit_rows_match_the_full_table(tb):
    x_max = convergence_bound(tb) + 2
    rows = [(0,) * (tb + 1)]
    while len(rows) <= x_max:  # every row up to the bound, no early stop
        rows.append(next_row(tb, rows[-1]))
    table = solve(tb, x_max)
    assert tuple(map(table.row, range(x_max + 1))) == tuple(rows)
    assert rows[x_max - 2] == rows[x_max]
    last_two = {x_max % 2: rows[x_max], (x_max - 1) % 2: rows[x_max - 1]}
    assert limit_rows(tb) == (last_two[0], last_two[1], _backward_x_star(rows))


@pytest.mark.parametrize("tb", SWEEP)
def test_closed_forms_match_limits_sweep(tb):
    report = conjecture_report(_limit_pair(tb))
    assert closed_form_name(tb) == ("alpha" if tb % 2 == 0 else "beta_truncated")
    assert report.match == "exact"
    assert report.diffs == ()


@pytest.mark.parametrize("tb", range(1, 42, 2))
def test_beta_euclidean_row_is_no_limit_row(tb):
    # it scores 0 and 1 at delta = -1 and +1, so its row mixes parities
    row = tuple(beta_euclidean(2 * p - tb) for p in range(tb + 1))
    assert {0, 1} <= set(row)
    assert row not in _limit_pair(tb)


def test_x_star_pairs_each_odd_budget_with_the_next_even_one():
    # An observed regression fact for tb <= 40, not a theorem: the rows of
    # tb = 2k - 1 and tb = 2k settle at the same heap.  The bound B(tb) is
    # the paper's and is not tightened from it.
    x_star = {tb: limit_rows(tb).x_star for tb in SWEEP}
    for k in range(1, 21):
        assert x_star[2 * k] == x_star[2 * k - 1], k
