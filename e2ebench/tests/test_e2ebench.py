"""Tests of the benchmark's own logic (no `ja` binary needed).

    python3 -m unittest discover -s e2ebench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


def generated(workload, seed):
    """Everything the benchmark derives from (workload, seed)."""
    makers = {"grid_stored": inputs.grid_stored, "grid_streamed": inputs.grid_streamed,
              "fit_library": inputs.fit_library, "serve_mixed": lambda seed: None}
    return {
        "offline": makers[workload](seed),
        "online": inputs.online_requests(workload, seed, 20),
        "arrivals": measure.poisson_schedule(60, 100.0, seed),
        "noise": inputs.perturb("h,b,m\n1,1,0\n2,2,0\n", inputs.rng_for(workload, seed, "noise")),
    }


class InputsTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in inputs.WORKLOADS:
            self.assertEqual(generated(workload, 7), generated(workload, 7), workload)

    def test_different_seeds_give_different_inputs(self):
        for workload in inputs.WORKLOADS:
            a, b = generated(workload, 7), generated(workload, 8)
            for part in a:
                if a[part] is not None:
                    self.assertNotEqual(a[part], b[part], f"{workload}/{part}")

    def test_seed_moves_values_not_sizes(self):
        for seed in (1, 2, 3):
            grid = inputs.grid_stored(seed)
            self.assertEqual([len(grid[axis]) for axis in ("material", "dh_max",
                                                           "temperature", "excitation")],
                             [4, 4, 6, 3])
            self.assertEqual(len(inputs.fit_library(seed)), 12)
            _, traffic = inputs.online_requests("serve_mixed", seed, 20)
            kinds = [kind for kind, _ in traffic]
            self.assertEqual([kinds.count(k) for k in ("hit", "miss", "stream")], [20, 20, 20])

    def test_misses_are_distinct_requests(self):
        warm, traffic = inputs.online_requests("serve_mixed", 3, 200)
        misses = [inputs.encode(doc) for kind, doc in traffic if kind == "miss"]
        self.assertEqual(len(set(misses)), len(misses))
        self.assertNotIn(inputs.encode(warm), misses)

    def test_grid_config_renders_every_axis(self):
        text = inputs.grid_config(inputs.grid_stored(1))
        for key in ("material", "backend", "dh_max", "excitation", "temperature", "geometry"):
            self.assertIn(f"{key} = ", text)


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(measure.MeasureError):
            measure.percentile(list(range(999)), 99)
        with self.assertRaises(measure.MeasureError):
            measure.percentile(list(range(19)), 50)
        with self.assertRaises(measure.MeasureError):
            measure.percentile([], 50)

    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(measure.percentile(values, 99), 990)
        self.assertEqual(measure.percentile(values, 50), 500)
        self.assertEqual(measure.percentile(list(reversed(values)), 99), 990)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_span_minus_children_cover(self):
        spans = [
            {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
            {"id": 2, "parent": 0, "start": 2.0, "end": 5.0},   # overlaps 1
            {"id": 3, "parent": 0, "start": 8.0, "end": 12.0},  # ends past parent
            {"id": 4, "parent": 1, "start": 1.5, "end": 2.5},   # grandchild
        ]
        got = measure.self_times(spans)
        self.assertAlmostEqual(got[0], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(got[1], 2.0 - 1.0)
        self.assertAlmostEqual(got[2], 3.0)
        self.assertAlmostEqual(got[4], 1.0)

    def test_leaf_self_time_is_its_duration(self):
        got = measure.self_times([{"id": "a", "parent": None, "start": 2.0, "end": 2.5}])
        self.assertAlmostEqual(got["a"], 0.5)


class OutputCheckTest(unittest.TestCase):
    def test_stream_digest_matches_ja(self):
        # A manifest produced by `ja batch --format ndjson` for one record.
        record = b'{"index":0}\n'
        digest = f"{workloads.fnv1a_128(record):032x}"
        body = record + (b'{"kind":"batch_manifest","entries_digest":"%s"}\n' % digest.encode())
        self.assertTrue(workloads.stream_digest_ok(body))
        self.assertFalse(workloads.stream_digest_ok(record + body))
        self.assertFalse(workloads.stream_digest_ok(record))
        self.assertEqual(workloads.fnv1a_128(b""), 0x6C62272E07BB014262B821756295C58D)

    def test_agreement_pairs_direct_and_systemc(self):
        metrics = {name: 1.0 for name in workloads.AGREEMENT_METRICS}
        off = dict(metrics, remanence_t=0.9)
        records = [
            {"scenario": "major/direct-timeless/dh10/date2006", "metrics": metrics},
            {"scenario": "major/systemc-event-kernel/dh10/date2006", "metrics": off},
            {"scenario": "major/direct-timeless/dh10/ja1984", "metrics": metrics},
        ]
        self.assertEqual(len(workloads.agreement(records)), 1)
        self.assertAlmostEqual(workloads.agreement(records)[0], 0.1)
        self.assertEqual(workloads.disagreement_share([0.1, 0.001, 0.0, 0.5]), 0.5)


if __name__ == "__main__":
    unittest.main()
