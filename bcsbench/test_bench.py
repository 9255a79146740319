"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m unittest discover -s bcsbench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class GenerationTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for k in range(3):
            self.assertEqual(gen.limits_cycle(7, k), gen.limits_cycle(7, k))
            self.assertEqual(gen.engine_cycle(7, k, [24, 37]), gen.engine_cycle(7, k, [24, 37]))
        self.assertEqual(gen.verify_files(7), gen.verify_files(7))
        self.assertEqual(gen.engine_tables(7), gen.engine_tables(7))
        files = {"tables": [(10, "a.json")], "rulesets": [("zugzwang", "z.txt")]}
        self.assertEqual(gen.verify_cycle(7, 2, files), gen.verify_cycle(7, 2, files))

    def test_seeds_differ_but_cycles_keep_their_shape(self):
        a = [gen.limits_cycle(1, k) for k in range(4)]
        b = [gen.limits_cycle(2, k) for k in range(4)]
        self.assertNotEqual(a, b)
        for cycles in (a, b):
            for cycle in cycles:
                # Every cycle holds every command on both members of every band.
                shape = sorted((op["tb"], op["kind"]) for op in cycle)
                self.assertEqual(shape, sorted(
                    (tb, kind) for band in gen.LIMITS_BANDS for tb in band
                    for kind in gen.LIMITS_COMMANDS))
        self.assertNotEqual(gen.engine_cycle(1, 0, [24]), gen.engine_cycle(2, 0, [24]))
        # Two verify cycles in a row check both members of every band.
        files = {"tables": [], "rulesets": []}
        both = sorted(op["tb"] for k in (4, 5) for op in gen.verify_cycle(3, k, files))
        self.assertEqual(both, sorted(tb for band in gen.VERIFY_ORACLE_BANDS for tb in band))

    def test_engine_moves_are_legal(self):
        tables = gen.engine_tables(3)
        for tb, heap, p, marker, tie in gen.engine_cycle(3, 0, tables):
            self.assertIn(tb, tables)
            self.assertTrue(1 <= heap <= gen.convergence_bound(tb) + 2)
            self.assertTrue(0 <= tie <= min(p, tb - p))
            self.assertIn(marker, "LR")


def limits_stdout(tb: int) -> str:
    even, odd = check.closed_form_rows(tb)
    return json.dumps({
        "schema_version": 1, "tb": tb, "bound": gen.convergence_bound(tb),
        "x_star": 5, "even": even, "odd": odd,
    })


class CheckerTest(unittest.TestCase):
    def test_closed_forms_match_the_solver(self):
        from bcs.solver import limit_rows

        for tb in range(0, 21):
            rows = limit_rows(tb)
            self.assertEqual(check.closed_form_rows(tb), (list(rows.even_row), list(rows.odd_row)))

    def test_rejects_a_corrupted_limit_row(self):
        op = {"kind": "limits", "tb": 9}
        good = json.loads(limits_stdout(9))
        self.assertIsNone(check.check_cli(op, 0, json.dumps(good)))
        good["odd"][3] += 2
        self.assertIn("closed forms", check.check_cli(op, 0, json.dumps(good)))

    def test_rejects_a_wrong_exit_code(self):
        self.assertEqual(
            check.check_cli({"kind": "limits", "tb": 8}, 3, limits_stdout(8)), "exit 3"
        )
        zugzwang = json.dumps({"holds": False, "violations": [check.ZUGZWANG_WITNESS]})
        op = {"kind": "check_ruleset", "ruleset": "zugzwang"}
        self.assertIsNone(check.check_cli(op, 1, zugzwang))
        self.assertIn("expected 1", check.check_cli(op, 0, zugzwang))

    def test_rejects_unreadable_output(self):
        self.assertIn("unreadable", check.check_cli({"kind": "solve", "tb": 5}, 0, "{"))

    def test_rejects_a_wrong_engine_move(self):
        from bcs import Side, equilibrium_bids, make_position, solve, tie_conditioned_value, value

        tb = 7
        table = solve(tb, gen.convergence_bound(tb) + 2)
        rows = [list(table.row(x)) for x in range(table.x_max + 1)]
        move = [tb, 4, 3, "R", 2]
        pos = make_position(tb, 4, 3, Side.RIGHT)
        bid = min(equilibrium_bids(table, pos))
        tie = tie_conditioned_value(table, make_position(tb, 4, 3, Side.LEFT), 2)
        result = [value(table, pos), bid.left_bid, bid.right_bid, bid.winner.value, tie]
        self.assertIsNone(check.check_move(rows, move, result))
        self.assertIsNone(check.check_move_oracle(move, result))
        wrong = list(result)
        wrong[0] += 2
        self.assertIsNotNone(check.check_move(rows, move, wrong))
        self.assertIsNotNone(check.check_move_oracle(move, wrong))


class SpanTest(unittest.TestCase):
    # op 1: root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has child [5, 6].
    # op 2: a lone root [20, 21].
    SPANS = [
        ("root", 0.0, 10.0, -1, 1, None),
        ("a", 1.0, 3.0, 0, 1, None),
        ("b", 4.0, 8.0, 0, 1, None),
        ("c", 5.0, 6.0, 2, 1, None),
        ("root", 20.0, 21.0, -1, 2, None),
    ]

    def test_self_time_arithmetic(self):
        self.assertEqual(spans.self_times(self.SPANS), [4.0, 2.0, 3.0, 1.0, 1.0])
        self.assertEqual(spans.self_time_residual(self.SPANS), 0.0)

    def test_extend_rebases_parents(self):
        merged = list(self.SPANS[:1])
        spans.extend(merged, [list(s) for s in self.SPANS[1:2]])
        self.assertEqual(merged[1][3], 1)

    def test_tracer_records_nested_spans(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))

        def inner():
            return 5

        def outer():
            return tracer.call("inner", inner, (), {})

        tracer.call("outer", outer, (), {})
        self.assertEqual(
            tracer.spans, [("outer", 0.0, 3.0, -1, 0, None), ("inner", 1.0, 2.0, 0, 0, None)]
        )

    def test_install_patches_every_binding_and_uninstall_restores_all(self):
        import bcs
        import bcs.analysis
        import bcs.cli
        import bcs.solver

        modules = [m for n, m in sys.modules.items() if n == "bcs" or n.startswith("bcs.")]
        before = [(m, dict(vars(m))) for m in modules]
        solve = bcs.solver.solve
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            self.assertIsNot(bcs.solver.solve, solve)
            self.assertIs(bcs.analysis.solve, bcs.solver.solve)
            self.assertIs(bcs.solve, bcs.solver.solve)
            self.assertEqual(bcs.solve(3, 2).x_max, 2)
            self.assertEqual(tracer.spans[-1][0], "solver.solve")
            self.assertEqual(tracer.spans[-1][5], 3)
        finally:
            spans.uninstall(undo)
        for module, attrs in before:
            for name, original in attrs.items():
                self.assertIs(getattr(module, name), original, f"{module.__name__}.{name}")

    def test_install_fails_on_a_target_it_cannot_patch(self):
        import bcs.solver

        solve = bcs.solver.solve
        tracer = spans.Tracer()
        with self.assertRaises(RuntimeError):
            spans.install(tracer, spans.TARGETS + (("bcs.solver", "_no_such_binding"),))
        with self.assertRaises(RuntimeError):
            spans.install(tracer, (("bcs.solver", "solve"), ("bcs.not_imported", "f")))
        self.assertIs(bcs.solver.solve, solve)

    def test_root_spans_must_cover_the_measured_op_time(self):
        self.assertIsNone(spans.root_shortfall(self.SPANS, {1: 10.0, 2: 1.01}))
        # Op 3 was timed but left no root span: its entry point was not traced.
        self.assertIn("root span", spans.root_shortfall(self.SPANS, {1: 10.0, 3: 1.0}))
        # The root spans miss a fifth of the time measured around them.
        self.assertIn("cover", spans.root_shortfall(self.SPANS, {1: 12.5, 2: 1.0}))

    def test_layer_metrics_names_match_the_declaration(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = set(spans.layer_metrics([], [], 0)) | {
            "trace.overhead_ratio", "trace.ops",
            "trace.call_overhead_us",
            "gate.solve_5_2_ms", "gate.zugzwang_check_property_U_ms",
        }
        # Only the engine workload reaches these, and it is not gated.
        engine_only = {f"solver.{fn}.{m}" for fn in ("equilibrium_bids", "tie_conditioned_value")
                       for m in ("calls", "busy_us_p50")}
        self.assertEqual(names - engine_only, {m["name"] for m in declared["per_layer"]})


class RunTest(unittest.TestCase):
    def test_commit_from_loose_or_packed_ref(self):
        import tempfile

        sha = "0123456789abcdef0123456789abcdef01234567"
        with tempfile.TemporaryDirectory() as tmp:
            git = Path(tmp)
            self.assertIsNone(run.git_commit(git))
            (git / "HEAD").write_text("ref: refs/heads/main\n")
            self.assertIsNone(run.git_commit(git))
            (git / "packed-refs").write_text(
                f"# pack-refs with: peeled fully-peeled sorted\n{sha} refs/heads/main\n")
            self.assertEqual(run.git_commit(git), sha)
            (git / "refs" / "heads").mkdir(parents=True)
            (git / "refs" / "heads" / "main").write_text(sha[::-1] + "\n")
            self.assertEqual(run.git_commit(git), sha[::-1])
            (git / "HEAD").write_text(sha + "\n")
            self.assertEqual(run.git_commit(git), sha)

    def test_ok_rate_counts_only_correct_ops(self):
        phase = {
            "walls": [2.0, 4.0],
            "records": [{"bad": None}, {"bad": "wrong"}, {"bad": None}, {"bad": None}],
        }
        self.assertEqual(run.ok_rate(phase), 0.5)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        samples = [float(i) for i in range(1, 101)]
        value, q, n = run.tail(samples)
        self.assertEqual((value, q, n), (90.0, 90, 100))
        value, q, n = run.tail([float(i) for i in range(1, 100001)])
        self.assertEqual(q, 99.99)
        self.assertEqual(n - value, 10)


if __name__ == "__main__":
    unittest.main()
