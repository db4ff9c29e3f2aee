"""Self-test of the benchmark's own arithmetic, on synthetic data only.

Runs no workload and imports neither numpy nor the program::

    python3 perfbench/selftest.py
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets only thread-cap environment variables)
from calibration import REFERENCE_S, Calibrator  # noqa: E402
from compare import verdict  # noqa: E402
from tracing import Tracer, covered, median, percentile, self_time, summarize  # noqa: E402


class FakeClock:
    """A clock that returns the scripted instants in order."""

    def __init__(self, instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(self_time((2.0, 5.0), []), 3.0)

    def test_nested_children_count_once(self):
        # A child inside another child covers nothing new.
        self.assertEqual(self_time((0.0, 10.0), [(1.0, 4.0), (2.0, 3.0)]), 7.0)

    def test_overlapping_children_count_once(self):
        self.assertEqual(self_time((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0)]), 5.0)

    def test_disjoint_and_touching_children(self):
        self.assertEqual(self_time((0.0, 10.0), [(1.0, 2.0), (2.0, 3.0), (5.0, 7.0)]), 6.0)

    def test_children_are_clipped_to_the_span(self):
        # A child of a pool worker may start before or end after its parent.
        self.assertEqual(self_time((2.0, 8.0), [(0.0, 3.0), (7.0, 12.0)]), 4.0)
        self.assertEqual(covered([(0.0, 1.0), (9.0, 11.0)], 2.0, 8.0), 0.0)

    def test_fully_covered_span(self):
        self.assertEqual(self_time((0.0, 4.0), [(0.0, 2.0), (1.0, 4.0)]), 0.0)

    def test_tracer_records_the_tree(self):
        # round [0, 10] > op [1, 9] > (a [2, 5] > b [3, 4]), c [6, 8]
        tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10]))
        with tracer.span("round"):
            with tracer.span("op"):
                with tracer.span("a"):
                    with tracer.span("b"):
                        pass
                with tracer.span("c"):
                    pass
        names = [span.name for span in tracer.spans]
        self.assertEqual(names, ["round", "op", "a", "b", "c"])
        self.assertEqual([span.parent for span in tracer.spans], [None, 0, 1, 2, 1])
        self.assertEqual(tracer.self_times(), [2.0, 3.0, 2.0, 1.0, 2.0])
        self.assertEqual(sorted(tracer.descendants(1)), [2, 3, 4])
        # Self times of a tree add up to the root's duration.
        self.assertEqual(sum(tracer.self_times()), 10.0)

    def test_patched_wraps_and_restores(self):
        class Owner:
            @staticmethod
            def work(value):
                return value * 2

        tracer = Tracer(clock=FakeClock([0, 1, 2, 3]))
        original = Owner.work
        with tracer.patched([(Owner, "work", "layer.work")]):
            self.assertEqual(Owner.work(4), 8)
            self.assertEqual(Owner.work(5), 10)
        self.assertIs(Owner.work, original)
        self.assertEqual([span.name for span in tracer.spans], ["layer.work"] * 2)

    def test_span_name_from_the_arguments(self):
        class Owner:
            @staticmethod
            def work(kind, value):
                return value

        tracer = Tracer(clock=FakeClock([0, 1, 2, 3]))
        with tracer.patched([(Owner, "work", lambda kind, value: f"layer.{kind}")]):
            Owner.work("a", 1)
            Owner.work(kind="b", value=2)
        self.assertEqual([span.name for span in tracer.spans], ["layer.a", "layer.b"])


class Summaries(unittest.TestCase):
    def test_median(self):
        self.assertEqual(median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(median([4.0, 1.0, 3.0, 2.0]), 2.5)
        with self.assertRaises(ValueError):
            median([])

    def test_percentile_is_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(percentile(values, 90), 90.0)
        self.assertEqual(percentile(values, 99), 99.0)
        self.assertEqual(percentile(values, 0), 1.0)

    def test_too_few_samples_give_no_tail(self):
        summary = summarize([1.0] * 19)
        self.assertEqual((summary.count, summary.tail_percentile), (19, None))
        self.assertIn("n=19", summary.describe())

    def test_tail_has_ten_samples_beyond_it(self):
        for count, expected in ((20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
                                (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)):
            values = [float(v) for v in range(count)]
            summary = summarize(values)
            self.assertEqual(summary.tail_percentile, expected, count)
            beyond = sum(1 for value in values if value > summary.tail_value)
            self.assertGreaterEqual(beyond, 10)
            self.assertIn(f"n={count}", summary.describe())

    def test_median_of_summary(self):
        self.assertEqual(summarize([5.0, 1.0, 3.0]).median, 3.0)


class Comparison(unittest.TestCase):
    @staticmethod
    def summary(median, spread, better="higher"):
        return {"median": median, "spread": spread, "better": better, "bound": 0.25}

    def test_regression_beyond_the_bound(self):
        self.assertEqual(verdict(self.summary(10.0, 0.1), self.summary(7.0, 0.1))[1:],
                         ("WORSE beyond bound", True))
        self.assertEqual(verdict(self.summary(1.0, 0.1, "lower"),
                                 self.summary(1.2, 0.1, "lower"))[1:],
                         ("within bound", False))

    def test_either_spread_beyond_the_bound_is_unresolved(self):
        for old, new in ((0.3, 0.1), (0.1, 0.3)):
            change, text, regressed = verdict(self.summary(10.0, old), self.summary(7.0, new))
            self.assertTrue(text.startswith("unresolved"), (old, new))
            self.assertFalse(regressed)


class Calibration(unittest.TestCase):
    def test_a_piece_is_scaled_by_the_mean_of_the_references_beside_it(self):
        unit = REFERENCE_S
        # The first reference run is a warm-up and is discarded.
        samples = iter([9.0, 2 * unit, 2 * unit, 4 * unit, unit])
        calibrator = Calibrator(sample=lambda: next(samples))
        calibrator.record("a", 3.0)  # host at half speed on both sides
        calibrator.record("a", 3.0)  # references 2 and 4 beside it: a third of the speed
        calibrator.record("b", 1.0)  # references 4 and 1 beside it
        self.assertEqual(calibrator.wall, {"a": [3.0, 3.0], "b": [1.0]})
        self.assertEqual(sorted(calibrator.reference), ["a", "b"])
        for got, expected in zip(calibrator.reference["a"] + calibrator.reference["b"],
                                 (1.5, 1.0, 0.4)):
            self.assertAlmostEqual(got, expected)
        self.assertEqual(calibrator.references, [2 * unit, 2 * unit, 4 * unit, unit])

    def test_a_host_at_reference_speed_leaves_times_unchanged(self):
        calibrator = Calibrator(sample=lambda: REFERENCE_S)
        calibrator.record("piece", 0.25)
        self.assertAlmostEqual(calibrator.reference["piece"][0], 0.25)


class Declaration(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics and workloads run.py prints."""

    def setUp(self):
        self.declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_end_to_end(self):
        declared = [(m["name"], m["unit"]) for m in self.declared["end_to_end"]]
        self.assertEqual(declared, list(run.END_TO_END))

    def test_per_layer(self):
        declared = [(m["name"], m["unit"]) for m in self.declared["per_layer"]]
        self.assertEqual(declared, list(run.PER_LAYER))

    def test_workloads(self):
        declared = [w["name"] for w in self.declared["workloads"]]
        self.assertEqual(declared, list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
