"""Tests of the benchmark harness's own logic (perfbench/harness.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def raw_record(**overrides):
    raw = {
        "build": {"compiler": "GNU 12.2.0", "cxx_flags": "-O3", "build_type": "Release"},
        "machine": {"cpu_model": "Test CPU", "nproc": 4},
        "run": {"workload": "sweep-sqrt", "seed": 1, "kernel_variant": "avx2",
                "pool_threads": 4, "lanes_raced": "kernel,hardware,tape",
                "fingerprint": "0x1"},
        "trace": 0,
        "item_name": "values",
        "items_per_rep": 100.0,
        "setup_s": [0.3, 0.1, 0.2],
        "rep_s": [1.0, 2.0, 1.0, 4.0],
        "plain_s": [1.0, 2.0, 1.0],
        "monitored_s": [2.0, 2.0, 4.0],
        "peak_rss_mb": 12.5,
        "checks": {"attempted": 10, "failed": 0, "notes": []},
        "layers": [{"name": "a.b", "value": 3.0, "unit": "ns", "kind": "measured"}],
    }
    raw.update(overrides)
    return raw


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(harness.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(harness.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            harness.median([])

    def test_quartiles_match_statistics_quantiles(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(harness.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))
        q1, q2, q3 = harness.quartiles(xs)
        self.assertEqual(q2, 5.5)
        self.assertLess(q1, q2)
        self.assertLess(q2, q3)

    def test_lower_decile(self):
        xs = [float(i) for i in range(1, 101)]
        self.assertEqual(harness.lower_decile(xs), statistics.quantiles(xs, n=10)[0])
        self.assertAlmostEqual(harness.lower_decile(xs), 10.1)
        # Slow stretches leave it alone; only the fast side matters.
        slowed = xs[:20] + [10 * x for x in xs[20:]]
        self.assertAlmostEqual(harness.lower_decile(slowed), 10.1)
        with self.assertRaises(ValueError):
            harness.lower_decile([1.0])

    def test_quartiles_need_two_samples(self):
        with self.assertRaises(ValueError):
            harness.quartiles([1.0])


class TailPercentile(unittest.TestCase):
    def test_too_few_samples_for_any_tail(self):
        self.assertIsNone(harness.tail_percentile(list(range(19))))

    def test_twenty_samples_give_the_median(self):
        xs = [float(i) for i in range(1, 21)]
        self.assertEqual(harness.tail_percentile(xs), (50.0, 10.0))

    def test_highest_percentile_with_ten_beyond(self):
        xs = [float(i) for i in range(1, 101)]
        # p90 leaves exactly 10 samples above rank 90; p95 would leave 5.
        self.assertEqual(harness.tail_percentile(xs), (90.0, 90.0))
        xs = [float(i) for i in range(1, 1001)]
        self.assertEqual(harness.tail_percentile(xs), (99.0, 990.0))

    def test_order_does_not_matter(self):
        xs = [float(i) for i in range(100, 0, -1)]
        self.assertEqual(harness.tail_percentile(xs), (90.0, 90.0))

    def test_summary_states_the_sample_count(self):
        s = harness.timing_summary([1.0, 2.0, 3.0])
        self.assertEqual(s["samples"], 3)
        self.assertEqual(s["median"], 2.0)
        self.assertNotIn("tail", s)


class FailureCounting(unittest.TestCase):
    """failed_fraction = failed / attempted; the result line carries both."""

    def test_clean_run(self):
        self.assertEqual(harness.failure_counts({"attempted": 7, "failed": 0}), (7, 0))

    def test_failures_are_counted_against_attempts(self):
        self.assertEqual(harness.failure_counts({"attempted": 8, "failed": 2}), (8, 2))

    def test_a_run_that_checked_nothing_counts_as_failed(self):
        self.assertEqual(harness.failure_counts({"attempted": 0, "failed": 0}), (1, 1))

    def test_inconsistent_counts_are_rejected(self):
        with self.assertRaises(ValueError):
            harness.failure_counts({"attempted": 1, "failed": 2})


class Metrics(unittest.TestCase):
    def test_end_to_end(self):
        m = harness.end_to_end_metrics(raw_record())
        self.assertEqual(m["setup_s"], (0.2, "s"))
        self.assertEqual(m["peak_rss_mb"], (12.5, "MB"))
        rep = statistics.quantiles([1.0, 2.0, 1.0, 4.0], n=10)[0]
        self.assertEqual(m["throughput_per_s"], (100.0 / rep, "1/s"))
        self.assertEqual(m["rep_wall_ms"], (1e3 * rep, "ms"))
        # Paired ratios 2, 1, 4: their median, not a ratio of medians.
        self.assertEqual(m["monitor_overhead_x"], (2.0, "ratio"))

    def test_timed_parts_sum_their_lower_deciles(self):
        parts = [[1.0, 2.0, 1.5], [3.0, 2.5, 4.0]]
        m = harness.end_to_end_metrics(raw_record(part_s=parts))
        rep = sum(statistics.quantiles(p, n=10)[0] for p in parts)
        self.assertEqual(m["rep_wall_ms"], (1e3 * rep, "ms"))
        self.assertEqual(m["throughput_per_s"], (100.0 / rep, "1/s"))

    def test_per_layer_keeps_the_kind(self):
        self.assertEqual(harness.per_layer_metrics(raw_record()),
                         {"a.b": (3.0, "ns", "measured")})


class Identity(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp()
        os.makedirs(os.path.join(self.root, "src"))
        with open(os.path.join(self.root, "src", "a.cpp"), "w") as f:
            f.write("int a;\n")

    def result(self, raw):
        return {"identity": harness.identity(raw, self.root),
                "metrics": {"rep_wall_ms": {"value": 10.0, "unit": "ms"}}}

    def test_identity_names_build_machine_and_run(self):
        ident = harness.identity(raw_record(), self.root)
        for key in ("source_hash", "build.compiler", "build.cxx_flags",
                    "build.build_type", "machine.cpu_model", "machine.nproc",
                    "run.kernel_variant", "run.lanes_raced", "run.pool_threads",
                    "run.seed"):
            self.assertIn(key, ident)
        self.assertNotIn("run.fingerprint", ident)

    def test_code_version_changes_stay_comparable(self):
        old = self.result(raw_record())
        with open(os.path.join(self.root, "src", "a.cpp"), "w") as f:
            f.write("int a = 1;\n")
        new = self.result(raw_record())
        new["metrics"]["rep_wall_ms"]["value"] = 12.0
        self.assertNotEqual(old["identity"]["source_hash"], new["identity"]["source_hash"])
        old["identity"]["git_sha"], new["identity"]["git_sha"] = "abc", "def"
        rows = harness.compare(old, new)
        self.assertAlmostEqual(rows["rep_wall_ms"][2], 0.2)

    def test_mismatched_identities_are_refused(self):
        old = self.result(raw_record())
        for change in ({"run": dict(raw_record()["run"], kernel_variant="scalar")},
                       {"machine": {"cpu_model": "Other CPU", "nproc": 4}},
                       {"build": dict(raw_record()["build"], build_type="Debug")},
                       {"run": dict(raw_record()["run"], seed=2)},
                       {"run": dict(raw_record()["run"], lanes_raced="kernel")}):
            new = self.result(raw_record(**change))
            with self.assertRaises(harness.IncomparableError):
                harness.compare(old, new)

    def test_compare_cli_refuses_with_status_3(self):
        a = os.path.join(self.root, "a.json")
        b = os.path.join(self.root, "b.json")
        with open(a, "w") as f:
            json.dump(self.result(raw_record()), f)
        with open(b, "w") as f:
            json.dump(self.result(raw_record(machine={"cpu_model": "X", "nproc": 8})), f)
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(harness.main(["harness.py", "compare", a, a]), 0)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            self.assertEqual(harness.main(["harness.py", "compare", a, b]), 3)
        self.assertIn("machine.cpu_model", err.getvalue())


if __name__ == "__main__":
    unittest.main()
