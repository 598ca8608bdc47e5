"""Self-tests for the benchmark's own arithmetic (no cluster needed).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchmath import (  # noqa: E402
    LayerTimer,
    PercentileRefused,
    due_count,
    due_times,
    lateness,
    open_loop_latencies,
    overhead,
    percentile,
    split_windows,
)
from patching import Patches  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(percentile(samples, 0.50), 50)
        self.assertEqual(percentile(samples, 0.90), 90)
        self.assertEqual(percentile(list(reversed(samples)), 0.25), 25)

    def test_refuses_with_fewer_than_ten_beyond(self):
        samples = list(range(1, 101))
        with self.assertRaises(PercentileRefused):
            percentile(samples, 0.95)  # rank 95 leaves 5 beyond
        self.assertEqual(percentile(samples, 0.95, tail=5), 95)
        with self.assertRaises(PercentileRefused):
            percentile(list(range(19)), 0.50)
        self.assertEqual(percentile(list(range(20)), 0.50), 9)

    def test_minimum_sample_counts(self):
        for q, n in ((0.50, 20), (0.90, 100), (0.99, 1000)):
            percentile(range(n), q)
            with self.assertRaises(PercentileRefused):
                percentile(range(n - 1), q)

    def test_rejects_bad_quantile(self):
        with self.assertRaises(ValueError):
            percentile([1, 2, 3], 1.0)


class WindowTest(unittest.TestCase):
    def test_values_go_to_the_window_of_their_stamp(self):
        stamps = [0.0, 0.9, 1.0, 2.5, 3.99, 4.0, -0.1]
        values = ["a", "b", "c", "d", "e", "late", "early"]
        self.assertEqual(
            split_windows(stamps, values, 0.0, 4.0, 4),
            [["a", "b"], ["c"], ["d"], ["e"]],
        )

    def test_rejects_empty_span(self):
        with self.assertRaises(ValueError):
            split_windows([], [], 1.0, 1.0, 3)
        with self.assertRaises(ValueError):
            split_windows([], [], 0.0, 1.0, 0)


class OpenLoopTest(unittest.TestCase):
    def test_due_times_ignore_completions(self):
        self.assertEqual(due_times(100.0, 4.0, 0, 3), [100.0, 100.25, 100.5])
        self.assertEqual(due_times(100.0, 4.0, 2, 2), [100.5, 100.75])
        self.assertEqual(due_count(100.0, 4.0, 99.0, 10), 0)
        self.assertEqual(due_count(100.0, 4.0, 100.0, 10), 1)
        self.assertEqual(due_count(100.0, 4.0, 100.6, 10), 3)
        self.assertEqual(due_count(100.0, 4.0, 500.0, 10), 10)

    def test_latency_runs_from_due_time(self):
        # A server that answers every mutation at t=101 after a stall still
        # charges the stall to each mutation since it was due.
        dues = due_times(100.0, 4.0, 0, 4)
        self.assertEqual(open_loop_latencies(dues, 101.0), [1.0, 0.75, 0.5, 0.25])

    def test_generator_lateness(self):
        self.assertAlmostEqual(lateness(10.0, 10.004), 0.004)
        self.assertEqual(lateness(10.0, 9.9), 0.0)


class LayerTimerTest(unittest.TestCase):
    def test_self_time_subtracts_covered_children(self):
        clock = FakeClock()
        timer = LayerTimer(clock)

        def leaf(seconds):
            clock.advance(seconds)

        child = timer.wrap(leaf, "child")

        def body():
            clock.advance(1.0)
            child(2.0)
            clock.advance(0.5)
            child(3.0)

        root = timer.wrap(body, "root")
        root()
        self.assertAlmostEqual(timer.seconds["root"], 1.5)
        self.assertAlmostEqual(timer.seconds["child"], 5.0)
        self.assertAlmostEqual(timer.total(), clock.now)

    def test_nested_grandchildren_count_once(self):
        clock = FakeClock()
        timer = LayerTimer(clock)
        inner = timer.wrap(lambda: clock.advance(1.0), "inner")

        def middle():
            clock.advance(2.0)
            inner()

        outer = timer.wrap(timer.wrap(middle, "middle"), "outer")
        outer()
        self.assertEqual(dict(timer.seconds), {"inner": 1.0, "middle": 2.0, "outer": 0.0})

    def test_exception_still_closes_span(self):
        clock = FakeClock()
        timer = LayerTimer(clock)

        def boom():
            clock.advance(1.0)
            raise RuntimeError

        with self.assertRaises(RuntimeError):
            timer.wrap(boom, "boom")()
        self.assertEqual(timer.seconds["boom"], 1.0)
        self.assertEqual(timer._stack, [])


class OverheadTest(unittest.TestCase):
    def test_overhead_is_traced_minus_untraced_over_untraced(self):
        self.assertAlmostEqual(overhead(11.0, 10.0), 10.0)
        self.assertAlmostEqual(overhead(10.0, 10.0), 0.0)
        self.assertAlmostEqual(overhead(9.5, 10.0), -5.0)
        with self.assertRaises(ValueError):
            overhead(1.0, 0.0)


class PatchesTest(unittest.TestCase):
    def test_restore_undoes_in_reverse(self):
        class Thing:
            def value(self):
                return 1

        timer = LayerTimer(FakeClock())
        with Patches() as patches:
            patches.replace(Thing, "value", lambda original: lambda self: original(self) + 1)
            patches.time(timer, Thing, "value", "thing")
            self.assertEqual(Thing().value(), 2)
        self.assertEqual(Thing().value(), 1)
        self.assertIn("thing", timer.seconds)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        import json

        from common import END_TO_END_UNITS, PER_LAYER_UNITS

        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        spec = json.loads(path.read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER_UNITS)


if __name__ == "__main__":
    unittest.main()
