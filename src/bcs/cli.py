"""Command-line surface: solve, limits, check, automaton, conjecture, bids, play.

Exit codes: 0 on success, 1 when an invariant or ruleset check fails, 2 on
usage errors (bad arguments or a malformed input file), failed writes and
running out of memory, 3 when convergence is not reached by its bound,
141 (128 + SIGPIPE, nothing on stderr) when the reader of stdout closes early.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import chain
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

from . import analysis, automaton, general, solver
from .core import (
    BID_KINDS,
    GameError,
    OutcomeTable,
    Side,
    bid_graph,
    classify_bid,
    convergence_bound,
    make_position,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CLOSED_READER = 141  # 128 + SIGPIPE, as a shell reports a filter whose reader left

# Bad arguments and malformed input files; any other ``GameError`` is a failed check.
_USAGE_ERRORS = (ValueError, OSError)

_BLOCK = 1 << 16  # unbuffered, each write of ``_emit`` is a system call


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write ``chunks`` in order to ``out_path``, or to stdout for ``None`` or
    ``"-"``, in blocks of at least ``_BLOCK`` characters but the last.  The
    file is opened only once the first block is ready."""
    blocks = _blocks(chunks)
    # The first block is made before a file is opened; ``iter`` frees it once written.
    blocks = chain(iter([next(blocks)]), blocks)
    if out_path is None or out_path == "-":
        sys.stdout.writelines(blocks)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)


def _blocks(chunks: Iterable[str]) -> Iterator[str]:
    """``chunks`` joined in order into blocks of at least ``_BLOCK`` characters but the last."""
    block = ""
    for chunk in chunks:
        block += chunk  # CPython extends the block in place; no list of chunks is held
        if len(block) >= _BLOCK:
            yield block
            block = ""
    yield block


def _json(payload: dict, **lists: Iterable[str]) -> Iterator[str]:
    """``payload`` inside the schema-version envelope, in the bytes of
    ``json.dumps(..., indent=2)``, followed by each of ``lists``: the
    rendered entries of a trailing list, yielded one at a time."""
    text = json.dumps({"schema_version": 1, **payload}, indent=2)
    yield text[:-2]  # the object before its closing "\n}"
    for name, entries in lists.items():
        yield f',\n  "{name}": ['
        separator = "\n"
        for entry in entries:
            yield separator + entry
            separator = ",\n"
        yield "]" if separator == "\n" else "\n  ]"
    yield "\n}\n"


# One entry of a table's "rows", and of a bid graph's "edges", at the depth
# ``json.dumps(indent=2)`` puts it.
_JSON_ROW = '    {{\n      "x": {},\n      "values": [\n        {}\n      ]\n    }}'
_JSON_EDGE = ('    {{\n      "from": {},\n      "to": {},\n      "label": "{}",\n'
              '      "dominated": {}\n    }}')


def _budget_columns(
    tb: int,
    corner: str,
    labels: Sequence[object],
    rows: Iterable[Sequence[int]],
    held: Sequence[Sequence[int]],
) -> Iterator[str]:
    """Right-aligned columns of per-budget values under a header of the
    budgets, richest first: one line per label, holding its row's ``tb + 1``
    values.  Every row is one of ``held``.

    Lines are yielded one at a time, once the widths are known.  The widest
    decimal in a column is that of the header budget or of the least or
    greatest value ``held`` has there, so no cell is rendered twice or held.
    """
    label_width = max(len(corner), max(map(len, map(str, labels))))
    widths = []
    for p in range(tb, -1, -1):
        column = [values[p] for values in held]
        widths.append(max(len(str(v)) for v in (p, min(column), max(column))))

    def line(label: object, values: Iterable[int]) -> str:
        cells = [str(v).rjust(w) for v, w in zip(values, widths)]
        return "  ".join([str(label).rjust(label_width), *cells]) + "\n"

    yield line(corner, range(tb, -1, -1))
    for label, values in zip(labels, rows):
        yield line(label, reversed(values))


def _table_chunks(table: OutcomeTable, fmt: str) -> Iterator[str]:
    """``table`` in the ``solve`` format ``fmt``, one heap row at a time."""
    heaps = range(table.x_max + 1)
    if fmt == "csv":
        yield "x,p,marker,value\n"
        for x in heaps:
            yield "".join([f"{x},{p},L,{v}\n" for p, v in enumerate(table.row(x))])
    elif fmt == "json":
        rows = (
            _JSON_ROW.format(x, ",\n        ".join(map(str, table.row(x))))
            for x in heaps
        )
        yield from _json({"tb": table.tb, "x_max": table.x_max}, rows=rows)
    else:
        rows = map(table.row, heaps)
        yield from _budget_columns(table.tb, "x \\ p^", heaps, rows, table.rows)


def load_outcome_table_json(data: dict) -> OutcomeTable:
    """Rebuild an outcome table from the ``solve`` JSON schema.

    Raises ``ValueError`` on anything ``solve --format json`` would not
    write: a missing key, a row count that disagrees with ``x_max``, a heap
    label out of place, a row not ``tb + 1`` long, or a non-integer value.
    """
    if not isinstance(data, dict):
        raise ValueError("a table must be a JSON object")
    # ``bool`` is an ``int`` subclass, but JSON ``true`` is not a number.
    if type(version := data.get("schema_version")) is not int or version != 1:
        raise ValueError(f"unsupported schema_version {version!r}")
    for key in ("tb", "x_max", "rows"):
        if key not in data:
            raise ValueError(f"table has no {key!r} key")
    tb, x_max, entries = data["tb"], data["x_max"], data["rows"]
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


def cmd_solve(args: SimpleNamespace) -> int:
    table = solver.solve(args.tb, args.x_max)
    _emit(_table_chunks(table, args.format), args.out)
    return EXIT_OK


def _limit_fields(tb: int) -> tuple[dict, str]:
    """The JSON fields ``tb``, ``bound``, ``x_star``, ``even`` and ``odd`` of
    the limit rows of ``tb``, and their text header."""
    limits = solver.limit_rows(tb)
    bound = convergence_bound(tb)
    fields = {
        "tb": tb,
        "bound": bound,
        "x_star": limits.x_star,
        "even": limits.even_row,
        "odd": limits.odd_row,
    }
    header = f"tb = {tb}  B(tb) = {bound}  x_star = {limits.x_star}\n"
    return fields, header


def cmd_limits(args: SimpleNamespace) -> int:
    fields, header = _limit_fields(args.tb)
    if args.format == "json":
        _emit(_json(fields), args.out)
    else:
        rows = fields["even"], fields["odd"]
        columns = _budget_columns(args.tb, "p^", ("x even", "x odd"), rows, rows)
        _emit([header, *columns], args.out)
    return EXIT_OK


def _report_payload(report: analysis.InvariantReport) -> dict:
    cex = report.counterexample
    return {
        "name": report.name,
        "tb": report.tb,
        "x_max": report.x_max,
        "passed": report.passed,
        "counterexample": cex and cex._asdict(),  # "x", "p", "values", "note"
    }


def _read_text(path: str) -> str:
    """The text of the input file ``path``, which must be UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8: {exc}") from None


def _check_ruleset(args: SimpleNamespace) -> int:
    ruleset = general.parse_ruleset(_read_text(args.ruleset))
    violations = general.check_property_U(ruleset)
    if args.format == "json":
        payload = {
            "holds": not violations,
            "violations": [
                {
                    "property": v.prop,
                    "position": str(v.node),
                    "budgets": list(v.budgets),
                    "lhs": v.lhs,
                    "rhs": v.rhs,
                    "detail": v.detail,
                }
                for v in violations
            ],
        }
        _emit(_json(payload), args.out)
    else:
        lines = [] if violations else ["uniqueness properties hold"]
        for v in violations:
            relation = ">" if v.prop == "C" else "<"
            lines.append(
                f"FAIL property {v.prop} at {v.node} budgets={v.budgets}: "
                f"{v.lhs} {relation} {v.rhs}"
            )
        _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_CHECK_FAILED if violations else EXIT_OK


def cmd_check(args: SimpleNamespace) -> int:
    sources = (args.tb, args.ruleset, args.from_json)
    if sum(source is not None for source in sources) != 1:
        raise ValueError("check needs exactly one of --tb, --ruleset and --from-json")
    if args.tb is None and (args.with_oracle or args.x_max is not None):
        raise ValueError("--with-oracle and --x-max need --tb")
    if args.ruleset is not None:
        return _check_ruleset(args)

    if args.from_json is not None:
        try:
            data = json.loads(_read_text(args.from_json))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.from_json} is not JSON: {exc}") from None
        except RecursionError:
            raise ValueError(f"{args.from_json} is nested too deep to read") from None
        table = load_outcome_table_json(data)
        reports = analysis.run_invariant_suite_on(table)
    else:
        x_max = convergence_bound(args.tb) + 2 if args.x_max is None else args.x_max
        reports = analysis.run_invariant_suite(args.tb, x_max, solver.rows(args.tb))
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


def cmd_automaton(args: SimpleNamespace) -> int:
    tb = args.tb
    bound = convergence_bound(tb)
    name = automaton.closed_form_name(tb)
    even, odd = automaton.automaton_fixed_point(tb)
    if args.format == "json":
        payload = {"tb": tb, "bound": bound, "tables": {name: {"even": even, "odd": odd}}}
        _emit(_json(payload), args.out)
    else:
        # a 2-cycle is not yet proof of the limit
        step = solver.next_row(tb, even), solver.next_row(tb, odd)
        verdict = "holds" if step == (odd, even) else "FAILS"
        seed = f"seed {name} (2-cycle of the recursion: {verdict})\n"
        columns = _budget_columns(tb, "p^", ("x even", "x odd"), (even, odd), (even, odd))
        _emit([f"tb = {tb}  B(tb) = {bound}\n", seed, *columns], args.out)
    return EXIT_OK


def cmd_conjecture(args: SimpleNamespace) -> int:
    fields, header = _limit_fields(args.tb)
    report = automaton.conjecture_report((fields["even"], fields["odd"]))
    name = automaton.closed_form_name(args.tb)
    if args.format == "json":
        payload = {
            **fields,
            "update_rule_holds": report.update_rule_holds,
            "matches": {name: report.match},
            "diffs": {} if report.match == "exact" else {name: report.diffs},
        }
        _emit(_json(payload), args.out)
    else:
        closure = "holds" if report.update_rule_holds else "FAILS"
        lines = [f"update rule on solver limits: {closure}", f"{name}: {report.match}"]
        lines += (
            f"  {parity} p={p}: limit {limit} vs automaton {entry}"
            for parity, p, limit, entry in report.diffs
        )
        _emit([header, "\n".join(lines) + "\n"], args.out)
    return EXIT_OK if report.update_rule_holds else EXIT_CHECK_FAILED


def cmd_bids(args: SimpleNamespace) -> int:
    tb, bid = args.tb, args.bid
    edges = (e for e in bid_graph(tb, args.kind, bid) if not (args.reduced and e.dominated))
    label = f"{bid}{'T' if args.kind == 'tie' else 'W'}"
    if args.format == "json":
        payload = {"tb": tb, "kind": args.kind, "bid": bid, "reduced": args.reduced}
        nodes = (f"    {n}" for n in range(tb + 1))
        entries = (
            _JSON_EDGE.format(e.src, e.dst, label, "true" if e.dominated else "false")
            for e in edges
        )
        _emit(_json(payload, nodes=nodes, edges=entries), args.out)
    else:
        nodes = (f'  n{n} [label="{n}"];\n' for n in range(tb + 1))
        arcs = (f'  n{e.src} -> n{e.dst} [label="{label}"];\n' for e in edges)
        _emit(chain([f"digraph bids_tb{tb} {{\n"], nodes, arcs, ["}\n"]), args.out)
    return EXIT_OK


def cmd_play(args: SimpleNamespace) -> int:
    engine_side = Side(args.engine_side)
    human_side = engine_side.opponent
    pos = make_position(args.tb, args.x, args.p, Side(args.marker))
    table = solver.solve(args.tb, args.x)
    score = 0
    print(f"you play {human_side.name.title()}; the engine plays "
          f"{engine_side.name.title()}; bids are sealed")
    while pos.heap > 0:
        print(
            f"heap={pos.heap} score={score:+d} budgets L={pos.left_budget} "
            f"R={pos.right_budget} marker={pos.marker}"
        )
        canonical = min(solver.equilibrium_bids(table, pos))
        budget = pos.left_budget if human_side is Side.LEFT else pos.right_budget
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
            l, r = canonical.left_bid, human_bid
        else:
            l, r = human_bid, canonical.right_bid
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


def _output(*formats: str) -> tuple:
    """``--format``, whose default is the first of ``formats``, and ``--out``."""
    return ("--format", formats, formats[0], None), ("--out", str, None, None)


_REQUIRED = object()  # the default of an option that must be given
_TB = ("--tb", int, _REQUIRED, None)


def _commands() -> dict:
    """Every command: its handler, its help and its options, in the order
    ``--help`` lists them.  An option is ``(flag, kind, default, help)``:
    ``kind`` is ``int``, ``str``, a tuple of choices, or ``bool`` for a
    switch that takes no value.  Built at each call, so that each handler
    is the one bound when ``main`` runs."""
    return {
        "solve": (cmd_solve, "solve a value table",
                  (_TB, ("--x-max", int, _REQUIRED, None), *_output("table", "csv", "json"))),
        "limits": (cmd_limits, "stabilized per-parity rows", (_TB, *_output("table", "json"))),
        "check": (cmd_check, "run invariant or ruleset checks", (
            ("--tb", int, None, None), ("--x-max", int, None, None),
            ("--with-oracle", bool, False, None), ("--ruleset", str, None, "check a ruleset file"),
            ("--from-json", str, None, "check a solved table"), *_output("text", "json"),
        )),
        "automaton": (cmd_automaton, "zero-bid automaton tables",
                      (_TB, *_output("table", "json"))),
        "conjecture": (cmd_conjecture, "limit rows vs automaton entries",
                       (_TB, *_output("text", "json"))),
        "bids": (cmd_bids, "export a bid graph", (
            _TB, ("--kind", BID_KINDS, _REQUIRED, None), ("--bid", int, _REQUIRED, None),
            ("--reduced", bool, False, None), *_output("dot", "json"),
        )),
        "play": (cmd_play, "play against the engine", (
            _TB, ("--x", int, _REQUIRED, None), ("--p", int, _REQUIRED, "Left's dollars"),
            ("--marker", ("L", "R"), _REQUIRED, None),
            ("--engine-side", ("L", "R"), _REQUIRED, None),
        )),
    }


def build_parser():
    """The ``argparse.ArgumentParser`` of ``_commands()``, which ``main``
    builds only for help and for a command line ``_parse`` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bcs",
        description=(
            "Exact equilibrium tables, limit rows, invariant checks, bid "
            "graphs, and interactive play for discrete-bid Richman games on "
            "pebble heaps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, summary, options) in _commands().items():
        p_command = sub.add_parser(command, help=summary)
        for flag, kind, default, text in options:
            if kind is bool:
                p_command.add_argument(flag, action="store_true", help=text)
                continue
            choices = kind if isinstance(kind, tuple) else None
            required = default is _REQUIRED
            p_command.add_argument(
                flag, type=None if choices else kind, choices=choices, required=required,
                default=None if required else default, help=text,
            )
        p_command.set_defaults(func=handler)
    return parser


def _parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, read without
    argparse from ``COMMAND (--switch | --option VALUE)*``: the last of a
    repeated option wins.  ``None`` for anything else: no command, help, an
    abbreviated or ``--option=VALUE`` flag, a value that starts with ``-``,
    a bad value, a missing required option or an extra token."""
    command = _commands().get(argv[0]) if argv else None
    if command is None:
        return None
    handler, _, options = command
    kinds = {flag: kind for flag, kind, _, _ in options}
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kind = kinds.get(flag)
        if kind is bool:
            given[flag] = True
            continue
        value = next(tokens, "-")  # a missing value is declined as "-" is
        if kind is None or value.startswith("-") or isinstance(kind, tuple) and value not in kind:
            return None
        try:
            given[flag] = int(value) if kind is int else value
        except ValueError:
            return None
    args = SimpleNamespace(command=argv[0], func=handler)
    for flag, _, default, _ in options:
        if default is _REQUIRED and flag not in given:
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or build_parser().parse_args(argv, SimpleNamespace())
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failed write surfaces here, not at exit
        return code
    except MemoryError:
        pass  # reported below, once the frames that filled memory are freed
    except (*_USAGE_ERRORS, GameError) as exc:
        try:
            sys.stdout.flush()
        except OSError:  # drop what stdout holds, or the flush at exit fails on it again
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_CLOSED_READER
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _USAGE_ERRORS):
            return EXIT_USAGE
        if isinstance(exc, solver.ConvergenceBoundExceeded):
            return EXIT_NO_CONVERGENCE
        return EXIT_CHECK_FAILED
    with open(os.devnull, "wb") as null:  # drop what stdout holds: a partial output is none
        os.dup2(null.fileno(), sys.stdout.fileno())
    at = "" if args.tb is None else f" at total budget {args.tb}"
    print(f"error: out of memory{at}", file=sys.stderr)
    return EXIT_USAGE
