"""Self-test of the benchmark's output checks, item plans and counters.

Run from the repository root:

    python3 perfbench/selftest.py

Wrong outputs must count as failures, and the same seed must give the
same items and observed counts while a different seed gives different
hosts.
"""

from __future__ import annotations

import sys
import unittest
from types import SimpleNamespace

import checks
import run
from tracer import Tracer
from workloads import WORKLOADS, Item

sys.path.insert(0, str(run.PACKAGE_DIR.parent))
PKG = run.import_package()
gen = PKG.generators


def first_round(name, seed):
    workload = WORKLOADS[name]
    return next(workload.rounds(PKG, workload.build(PKG), seed))


class CheckersCountFailures(unittest.TestCase):
    def test_tiling_with_a_transitive_block_fails(self):
        host = gen.semi_regular_tournament(8)
        good = PKG.tiling.perfect_tiling(gen.d_abc(1, 1, 2)[0], host).tiling
        self.assertIsNone(checks.strong_four_factor_problem(host, good))
        transitive = gen.transitive(8)
        tiling = PKG.tiling.Tiling(copies=((0, 1, 2, 3), (4, 5, 6, 7)))
        self.assertIn("scores", checks.strong_four_factor_problem(transitive, tiling))
        overlapping = PKG.tiling.Tiling(copies=(good.copies[0], good.copies[0]))
        self.assertIsNotNone(checks.strong_four_factor_problem(host, overlapping))

    def test_host_that_is_not_semi_regular_fails(self):
        self.assertIsNone(checks.semi_regular_problem(gen.semi_regular_tournament(12)))
        self.assertIn("out-degree", checks.semi_regular_problem(gen.transitive(11)))
        self.assertIn("pair", checks.semi_regular_problem(gen.cycle_power(7, 2)))

    def test_wrong_class_count_fails(self):
        s = gen.graph_s()
        reps = PKG.search.enumerate_regular_tournaments(7)
        embs = [PKG.embed.find_embedding(s, g) for g in reps]
        iso = PKG.core.isomorphic_brute
        self.assertIsNone(checks.regular_classes_problem(7, reps, s, embs, iso))
        self.assertIn("classes", checks.regular_classes_problem(7, reps[:2], s, embs[:2], iso))
        twice = [reps[0], reps[0], reps[1]]
        self.assertIn("isomorphic", checks.regular_classes_problem(7, twice, s, embs, iso))

    def test_statistics_outside_their_windows_fail(self):
        host = PKG.search.random_semi_regular(11, seed=0)
        cyclic = [PKG.analysis.cyclic_edge_stat(host, v) for v in range(11)]
        d_counts = PKG.analysis.d_copy_counts(host)
        self.assertIsNone(checks.statistic_window_problem(host, cyclic, d_counts))
        self.assertIsNotNone(checks.statistic_window_problem(host, [0] * 11, d_counts))
        off_by_one = [d_counts[0] + 1] + d_counts[1:]
        self.assertIsNotNone(checks.statistic_window_problem(host, cyclic, off_by_one))

    def test_bad_embedding_fails(self):
        s = gen.graph_s()
        host = gen.semi_regular_tournament(9)
        emb = PKG.embed.find_embedding(s, host)
        self.assertIsNone(checks.embedding_problem(s, host, emb))
        self.assertIsNotNone(checks.embedding_problem(s, host, None))
        reversed_map = SimpleNamespace(mapping=tuple(reversed(emb.mapping)))
        self.assertIsNotNone(checks.embedding_problem(s, gen.transitive(9), reversed_map))

    def test_canonical_forms_are_checked(self):
        g = gen.rotational(7, [1, 2, 4])
        h = gen.cycle_power(7, 3)
        form = PKG.search.canonical_form(g)
        self.assertIsNone(checks.canonical_pair_problem(g, g, form, form))
        self.assertIsNotNone(
            checks.canonical_pair_problem(g, h, form, PKG.search.canonical_form(h))
        )
        n, value = form
        self.assertIsNotNone(checks.canonical_pair_problem(g, g, (n, value + 1), (n, value + 1)))

    def test_run_item_counts_exceptions_and_failed_checks(self):
        def boom():
            raise RuntimeError("kernel crashed")

        items = [
            Item("ok", lambda: 1, lambda out: None),
            Item("wrong", lambda: 2, lambda out: "wrong output"),
            Item("raises", boom, lambda out: None),
        ]
        tally = run.Tally()
        for item in items:
            run.run_item(item, tally)
        self.assertEqual((tally.attempted, tally.failed, len(tally.durations)), (3, 2, 2))

    def test_interleaved_run_alternates_sides(self):
        holder = SimpleNamespace(f=lambda: None)
        original = holder.f
        tracer = Tracer()
        tracer.wrap(holder, "f", "f")
        seen = []

        def work():
            seen.append(holder.f is not original)
            holder.f()

        items = [Item(str(k), work, lambda out: None) for k in range(3)]
        untraced, traced = run.run_interleaved(iter([items, items]), 1, tracer)
        self.assertEqual(seen, [False, True, True, False, False, True])
        self.assertEqual((untraced.attempted, traced.attempted), (3, 3))
        self.assertEqual(tracer.calls["f"], 3)
        self.assertIs(holder.f, original)


class SeedsDecideInputs(unittest.TestCase):
    def test_same_seed_same_items(self):
        for name in WORKLOADS:
            a = [item.label for item in first_round(name, 7)]
            b = [item.label for item in first_round(name, 7)]
            self.assertEqual(a, b, name)

    def test_same_seed_same_observed_counts(self):
        def observed(seed):
            tracer = Tracer()
            for module, attr, span, count in run.traced_layers(PKG):
                tracer.wrap(module, attr, span, count)
            cheap = [it for it in first_round("barrier-tiling", seed)
                     if "32" not in it.label and "(2,3)" not in it.label]
            untraced, traced = run.run_interleaved(iter([cheap]), 1, tracer)
            self.assertEqual(untraced.failed + traced.failed, 0)
            return dict(tracer.counts), dict(tracer.calls)

        self.assertEqual(observed(3), observed(3))

    def test_different_seed_different_hosts(self):
        def smallest_host(seed):
            round_ = first_round("sampled-hosts", seed)
            item = next(it for it in round_ if it.label.startswith("n=9 "))
            return item.work()[0].out_rows

        self.assertEqual(smallest_host(1), smallest_host(1))
        self.assertNotEqual(smallest_host(1), smallest_host(2))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.nearest_rank(values, 90), (90, 10))
        self.assertEqual(run.nearest_rank(values, 50), (50, 50))


if __name__ == "__main__":
    unittest.main()
