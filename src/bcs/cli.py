"""Command-line surface: solve, limits, check, automaton, conjecture, bids, play.

Exit codes: 0 on success, 1 when an invariant or ruleset check fails,
2 on usage errors (bad arguments or a malformed input file), 3 when
convergence is not reached by its bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Iterator, Sequence

from . import analysis, automaton, general, solver
from .core import (
    BudgetOutOfRange,
    GameError,
    HeapNegative,
    OutcomeTable,
    Side,
    classify_bid,
    make_position,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

# Bad arguments and malformed input files; any other ``GameError`` is a failed check.
_USAGE_ERRORS = (ValueError, OSError, BudgetOutOfRange, HeapNegative)


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write ``chunks`` in order to ``out_path``, or to stdout for ``None`` or
    ``"-"``.  The file is opened only once the first chunk is ready."""
    chunks = iter(chunks)
    first = next(chunks, "")
    if out_path is None or out_path == "-":
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(first)
            fh.writelines(chunks)


def _json(payload: dict, rows: Iterable[str] | None = None) -> Iterator[str]:
    """``payload`` inside the schema-version envelope, in the bytes of
    ``json.dumps(..., indent=2)``.  ``rows``, when given, are the rendered
    entries of a last, non-empty list ``"rows"``, yielded one at a time."""
    text = json.dumps({"schema_version": 1, **payload}, indent=2)
    if rows is None:
        yield text + "\n"
        return
    yield text[:-2] + ',\n  "rows": ['  # reopen the object before its "\n}"
    separator = "\n"
    for row in rows:
        yield separator + row
        separator = ",\n"
    yield "\n  ]\n}\n"


# One entry of a table's "rows" at the depth ``json.dumps(indent=2)`` puts it.
_JSON_ROW = '    {{\n      "x": {},\n      "values": [\n        {}\n      ]\n    }}'


def _budget_columns(
    tb: int, corner: str, labels: Sequence[object], rows: Sequence[Sequence[int]]
) -> Iterator[str]:
    """Right-aligned columns of per-budget values under a header of the
    budgets, richest first: one line per label, holding its row's ``tb + 1``
    values.

    Lines are yielded one at a time, once the widths are known.  The widest
    decimal in a column is that of the header budget or of the column's
    least or greatest value, so no cell is rendered twice or held.
    """
    label_width = max(len(corner), max(map(len, map(str, labels))))
    widths = []
    for p in range(tb, -1, -1):
        column = [values[p] for values in rows]
        widths.append(max(len(str(v)) for v in (p, min(column), max(column))))

    def line(label: object, values: Iterable[int]) -> str:
        cells = [str(v).rjust(w) for v, w in zip(values, widths)]
        return "  ".join([str(label).rjust(label_width), *cells]) + "\n"

    yield line(corner, range(tb, -1, -1))
    for label, values in zip(labels, rows):
        yield line(label, reversed(values))


def _table_chunks(table: OutcomeTable, fmt: str) -> Iterator[str]:
    """``table`` in the ``solve`` format ``fmt``, one heap row at a time."""
    if fmt == "csv":
        yield "x,p,marker,value\n"
        for x, row in enumerate(table.rows):
            yield "".join([f"{x},{p},L,{v}\n" for p, v in enumerate(row)])
    elif fmt == "json":
        rows = (
            _JSON_ROW.format(x, ",\n        ".join(map(str, row)))
            for x, row in enumerate(table.rows)
        )
        yield from _json({"tb": table.tb, "x_max": table.x_max}, rows)
    else:
        heaps = range(len(table.rows))
        yield from _budget_columns(table.tb, "x \\ p^", heaps, table.rows)


def load_outcome_table_json(data: dict) -> OutcomeTable:
    """Rebuild an outcome table from the ``solve`` JSON schema.

    Raises ``ValueError`` on anything ``solve --format json`` would not
    write: a missing key, a row count that disagrees with ``x_max``, a heap
    label out of place, a row not ``tb + 1`` long, or a non-integer value.
    """
    if not isinstance(data, dict):
        raise ValueError("a table must be a JSON object")
    if data.get("schema_version") != 1:
        raise ValueError(f"unsupported schema_version {data.get('schema_version')!r}")
    for key in ("tb", "x_max", "rows"):
        if key not in data:
            raise ValueError(f"table has no {key!r} key")
    tb, x_max, entries = data["tb"], data["x_max"], data["rows"]
    # ``bool`` is an ``int`` subclass, but JSON ``true`` is not a number.
    if type(tb) is not int or tb < 0:
        raise ValueError(f"tb must be an integer >= 0, got {tb!r}")
    if not isinstance(entries, list) or not entries:
        raise ValueError("rows must be a non-empty list")
    if type(x_max) is not int or x_max != len(entries) - 1:
        raise ValueError(f"x_max {x_max!r} disagrees with {len(entries)} rows")
    rows = []
    for x, entry in enumerate(entries):
        label = entry.get("x") if isinstance(entry, dict) else None
        if type(label) is not int or label != x:
            raise ValueError(f"row {x} carries heap label {label!r}")
        values = entry.get("values")
        if not isinstance(values, list) or set(map(type, values)) - {int}:
            raise ValueError(f"row {x} values must be a list of integers")
        rows.append(tuple(values))
    return OutcomeTable(tb=tb, rows=tuple(rows))


def cmd_solve(args: argparse.Namespace) -> int:
    table = solver.solve(args.tb, args.x_max)
    _emit(_table_chunks(table, args.format), args.out)
    return EXIT_OK


def cmd_limits(args: argparse.Namespace) -> int:
    bound = automaton.convergence_bound(args.tb)
    limits = solver.limit_rows(args.tb)
    if args.format == "json":
        payload = {
            "tb": args.tb,
            "bound": bound,
            "x_star": limits.x_star,
            "even": list(limits.even_row),
            "odd": list(limits.odd_row),
        }
        _emit(_json(payload), args.out)
    else:
        header = f"tb = {args.tb}  B(tb) = {bound}  x_star = {limits.x_star}\n"
        labels, rows = ("x even", "x odd"), (limits.even_row, limits.odd_row)
        _emit([header, *_budget_columns(args.tb, "p^", labels, rows)], args.out)
    return EXIT_OK


def _report_payload(report: analysis.InvariantReport) -> dict:
    cex = None
    if report.counterexample is not None:
        c = report.counterexample
        cex = {"x": c.x, "p": c.p, "values": list(c.values), "note": c.note}
    return {
        "name": report.name,
        "tb": report.tb,
        "x_max": report.x_max,
        "passed": report.passed,
        "counterexample": cex,
    }


def _check_ruleset(args: argparse.Namespace) -> int:
    with open(args.ruleset, encoding="utf-8") as fh:
        ruleset = general.parse_ruleset(fh.read())
    report = general.check_property_U(ruleset)
    if args.format == "json":
        payload = {
            "holds": report.holds,
            "violations": [
                {
                    "property": v.prop,
                    "position": str(v.node),
                    "budgets": list(v.budgets),
                    "lhs": v.lhs,
                    "rhs": v.rhs,
                    "detail": v.detail,
                }
                for v in report.violations
            ],
        }
        _emit(_json(payload), args.out)
    else:
        lines = []
        if report.holds:
            lines.append("uniqueness properties hold")
        for v in report.violations:
            relation = ">" if v.prop == "C" else "<"
            lines.append(
                f"FAIL property {v.prop} at {v.node} budgets={v.budgets}: "
                f"{v.lhs} {relation} {v.rhs}"
            )
        _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK if report.holds else EXIT_CHECK_FAILED


def cmd_check(args: argparse.Namespace) -> int:
    sources = (args.tb, args.ruleset, args.from_json)
    if sum(source is not None for source in sources) != 1:
        raise ValueError("check needs exactly one of --tb, --ruleset and --from-json")
    if args.tb is None and (args.with_oracle or args.x_max is not None):
        raise ValueError("--with-oracle and --x-max need --tb")
    if args.ruleset is not None:
        return _check_ruleset(args)

    if args.from_json is not None:
        with open(args.from_json, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.from_json} is not JSON: {exc}") from None
        table = load_outcome_table_json(data)
        reports = analysis.run_invariant_suite_on(table)
    else:
        x_max = args.x_max
        if x_max is None:
            x_max = automaton.convergence_bound(args.tb) + 2
        reports = analysis.run_invariant_suite(args.tb, x_max)
        if args.with_oracle:
            reports.append(analysis.check_oracle_equivalence(args.tb, min(x_max, 40)))

    if args.format == "json":
        payload = {
            "reports": [_report_payload(r) for r in reports],
            "passed": all(r.passed for r in reports),
        }
        _emit(_json(payload), args.out)
    else:
        _emit(["\n".join(str(r) for r in reports) + "\n"], args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_automaton(args: argparse.Namespace) -> int:
    tb = args.tb
    bound = automaton.convergence_bound(tb)
    tables = automaton.closed_form_tables(tb)
    if args.format == "json":
        payload = {
            "tb": tb,
            "bound": bound,
            "tables": {
                name: {"even": list(t.even_state), "odd": list(t.odd_state)}
                for name, t in tables.items()
            },
        }
        _emit(_json(payload), args.out)
    else:
        chunks = [f"tb = {tb}  B(tb) = {bound}\n"]
        for name, t in tables.items():
            verdict = "holds" if t.update_rule_holds() else "FAILS"
            chunks.append(f"seed {name} (update rule: {verdict})\n")
            labels, rows = ("x even", "x odd"), (t.even_state, t.odd_state)
            chunks += _budget_columns(tb, "p^", labels, rows)
        _emit(chunks, args.out)
    return EXIT_OK


def cmd_conjecture(args: argparse.Namespace) -> int:
    report = automaton.conjecture_report(args.tb)
    if args.format == "json":
        payload = {
            "tb": report.tb,
            "bound": report.bound,
            "x_star": report.x_star,
            "even": list(report.even_row),
            "odd": list(report.odd_row),
            "update_rule_holds": report.update_rule_holds,
            "matches": report.matches,
            "diffs": {
                name: [list(d) for d in cells] for name, cells in report.diffs.items()
            },
        }
        _emit(_json(payload), args.out)
    else:
        lines = [
            f"tb = {report.tb}  B(tb) = {report.bound}  x_star = {report.x_star}",
            f"update rule on solver limits: "
            f"{'holds' if report.update_rule_holds else 'FAILS'}",
        ]
        for name, verdict in report.matches.items():
            lines.append(f"{name}: {verdict}")
            for parity, p, limit, entry in report.diffs.get(name, ()):
                lines.append(f"  {parity} p={p}: limit {limit} vs automaton {entry}")
        _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK if report.update_rule_holds else EXIT_CHECK_FAILED


def cmd_bids(args: argparse.Namespace) -> int:
    kind = analysis.BidGraphKind(args.kind)
    graph = analysis.bid_graph(args.tb, kind, args.bid, args.reduced)
    if args.format == "json":
        _emit(_json(analysis.bid_graph_to_json_dict(graph)), args.out)
    else:
        _emit([analysis.bid_graph_to_dot(graph)], args.out)
    return EXIT_OK


def _engine_bid(table: OutcomeTable, pos, engine_side: Side) -> int:
    canonical = min(solver.equilibrium_bids(table, pos))
    return canonical.left_bid if engine_side is Side.LEFT else canonical.right_bid


def cmd_play(args: argparse.Namespace) -> int:
    engine_side = Side.LEFT if args.engine_side == "L" else Side.RIGHT
    marker = Side.LEFT if args.marker == "L" else Side.RIGHT
    human_side = engine_side.opponent
    pos = make_position(args.tb, args.x, args.p, marker)
    table = solver.solve(args.tb, args.x)
    score = 0
    print(f"you play {human_side.name.title()}; the engine plays "
          f"{engine_side.name.title()}; bids are sealed")
    while pos.heap > 0:
        print(
            f"heap={pos.heap} score={score:+d} budgets L={pos.left_budget} "
            f"R={pos.right_budget} marker={pos.marker}"
        )
        engine_bid = _engine_bid(table, pos, engine_side)
        budget = (
            pos.left_budget if human_side is Side.LEFT else pos.right_budget
        )
        human_bid = None
        while human_bid is None:
            try:
                raw = input(f"your bid ({human_side.name.title()}, 0..{budget}): ")
            except EOFError:
                print("\naborted")
                return EXIT_OK
            try:
                n = int(raw.strip())
            except ValueError:
                print("enter a whole number of dollars")
                continue
            if 0 <= n <= budget:
                human_bid = n
            else:
                print(f"bid must be within 0..{budget}")
        if engine_side is Side.LEFT:
            l, r = engine_bid, human_bid
        else:
            l, r = human_bid, engine_bid
        bid, pos = classify_bid(pos, l, r)
        winner = bid.winner.side
        removal = 1 if winner is Side.LEFT else -1
        score += removal
        how = "wins the tie" if bid.winner.is_tie else "wins the bid"
        print(
            f"bids: L={l} R={r} -> {winner.name.title()} {how}, removes a pebble"
            + (f", marker -> {pos.marker}" if bid.winner.is_tie else "")
        )
    print(f"game over, final score {score:+d}")
    return EXIT_OK


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
    # ``analysis.BidGraphKind``'s values; reading the enum would load ``analysis``.
    p_bids.add_argument(
        "--kind", choices=("holder-win", "opponent-win", "tie"), required=True
    )
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except solver.ConvergenceBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
