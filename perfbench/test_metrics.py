"""Tests of the benchmark's own arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402


def span(id_, parent, start, end, name="s", run=0):
    return {"id": id_, "parent": parent, "start": start, "end": end,
            "name": name, "run": run}


class TailPercentileTest(unittest.TestCase):
    def test_wanted_percentile_when_ten_samples_lie_beyond(self):
        samples = list(range(1, 201))  # p95 rank 190 → 10 beyond
        used, value, n = metrics.tail_percentile(samples, 95.0)
        self.assertEqual((used, value, n), (95.0, 190, 200))

    def test_steps_down_when_too_few_samples_beyond(self):
        samples = list(range(1, 101))  # p99 leaves 1, p95 5, p90 10
        used, value, n = metrics.tail_percentile(samples, 99.0)
        self.assertEqual((used, value, n), (90.0, 90, 100))

    def test_small_sample_falls_back_to_median(self):
        used, value, n = metrics.tail_percentile([5.0, 1.0, 3.0], 99.0)
        self.assertEqual((used, value, n), (50.0, 3.0, 3))

    def test_empty(self):
        self.assertEqual(metrics.tail_percentile([], 95.0), (95.0, 0.0, 0))

    def test_median_even_and_odd(self):
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([]), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted_from_parent(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 3.0),
                 span(3, 1, 5.0, 9.0), span(4, 3, 6.0, 7.0)]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[1], 4.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[4], 1.0)

    def test_overlapping_children_count_once_and_are_clipped(self):
        # Two concurrent children overlap on [4, 6]; one sticks out of
        # the parent's interval.
        spans = [span(1, 0, 2.0, 10.0), span(2, 1, 1.0, 6.0),
                 span(3, 1, 4.0, 8.0)]
        self.assertAlmostEqual(metrics.self_times(spans)[1], 2.0)

    def test_unaccounted_is_root_self_share(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 0.0, 6.0),
                 span(3, 2, 1.0, 5.0), span(4, 1, 6.0, 9.0),
                 span(9, 0, 20.0, 30.0)]  # another root: ignored
        # Descendants' self times: 2 + 4 + 3 = 9 of a 10 s root.
        self.assertAlmostEqual(metrics.unaccounted_frac(spans, 1), 0.1)


class RatioTest(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        self.assertEqual(metrics.ratio(3, 4),
                         {"value": 0.75, "numerator": 3, "denominator": 4})

    def test_zero_denominator(self):
        self.assertEqual(metrics.ratio(5, 0)["value"], 0.0)

    def test_prefilter_words_formula(self):
        # 9 kernel calls × 3 operands × 5 words per pair.
        self.assertEqual(metrics.prefilter_words(10, 5), 1350)


class QualityTest(unittest.TestCase):
    def test_optimum_gap_is_worst_size(self):
        gap = metrics.optimum_gap({2: 10.0, 3: 20.0}, {2: 10.0, 3: 15.0})
        self.assertAlmostEqual(gap, 0.25)

    def test_optimum_gap_zero_when_optimal(self):
        self.assertEqual(metrics.optimum_gap({2: 4.0}, {2: 4.0}), 0.0)

    def test_optimum_gap_skips_missing_sizes(self):
        self.assertAlmostEqual(
            metrics.optimum_gap({2: 10.0, 3: 20.0}, {2: 9.0}), 0.1)

    def test_signal_recall(self):
        recall = metrics.signal_recall([8, 24, 40], [3, 24, 40, 41])
        self.assertEqual((recall["numerator"], recall["denominator"]), (2, 3))
        self.assertAlmostEqual(recall["value"], 2 / 3)

    def test_signal_recall_without_planted_signal(self):
        self.assertEqual(metrics.signal_recall([], [1, 2])["value"], 0.0)

    def test_recall_sums_over_cohorts(self):
        lists = {"planted_c0": [1, 2, 3], "champion_c0": [1, 2, 9],
                 "planted_c1": [4, 5, 6], "champion_c1": [7]}
        self.assertEqual(metrics.cohort_recall(lists), (2, 6))

    def test_job_gap_is_mean_over_cohorts(self):
        optimum = metrics.by_cohort(
            {"optimum_size2_c0": 10.0, "optimum_size3_c0": 20.0,
             "optimum_size2_c1": 8.0, "evaluation_budget": 1}, "optimum_size")
        self.assertEqual(optimum, {0: {2: 10.0, 3: 20.0}, 1: {2: 8.0}})
        counters = {"champion_size2_c0": 10.0, "champion_size3_c0": 15.0,
                    "champion_size2_c1": 8.0, "evaluations": 5}
        self.assertAlmostEqual(metrics.job_optimum_gap(optimum, counters),
                               0.125)


def raw_report(workload, trace, jobs, **extra):
    raw = {
        "workload": workload, "trace": trace, "jobs": jobs, "gates": [],
        "quality": {}, "layer": {}, "snp_lists": {}, "peak_rss_mb": 50.0,
        "threads": {"compute_threads": 2}, "machine": {"cores": 4},
        "trace_file": "",
    }
    raw.update(extra)
    return raw


def job(wall, setup, traced=False, **counters):
    return {"traced": traced, "wall_s": wall, "setup_s": setup,
            "counters": counters}


class SummaryTest(unittest.TestCase):
    def test_end_to_end_skips_warmup_and_traced_jobs(self):
        raw = raw_report("paper_sync", False, [
            job(9.0, 0.5, warmup=1, evaluations=100, peak_rss_mb=70.0),
            job(2.0, 0.1, evaluations=100, peak_rss_mb=40.0),
            job(4.0, 0.3, evaluations=100, peak_rss_mb=60.0),
            job(3.0, 0.2, evaluations=120, peak_rss_mb=50.0),
        ])
        summary = metrics.summarize(raw)
        got = {k: v["value"] for k, v in summary["metrics"].items()}
        self.assertEqual(got["wall_s"], 3.0)
        self.assertEqual(got["evals_per_s"], 40.0)
        self.assertEqual(got["setup_s"], 0.25)  # every job's set-up
        self.assertEqual(got["peak_rss_mb"], 50.0)
        self.assertEqual(summary["attempted"], 420)
        self.assertTrue(summary["correct"])

    def test_setup_pools_standalone_and_job_set_ups(self):
        raw = raw_report("genome_scan", False, [
            job(9.0, 0.5, warmup=1), job(2.0, 0.1), job(4.0, 0.3),
            job(3.0, 0.2)], setup_samples=[0.05, 0.06, 0.07])
        setup = metrics.summarize(raw)["metrics"]["setup_s"]
        self.assertEqual((setup["value"], setup["samples"]), (0.1, 7))

    def test_failed_gate_counts(self):
        raw = raw_report("islands_mc", False,
                         [job(1.0, 0.1, evaluations=10, failed_offspring=2)],
                         gates=[{"name": "g", "passed": False, "detail": ""}])
        summary = metrics.summarize(raw)
        self.assertFalse(summary["correct"])
        self.assertEqual((summary["attempted"], summary["failed"]), (11, 3))

    def test_per_layer_reads_spans_and_marks_parallel_informational(self):
        events = [
            {"name": "job", "ph": "X", "ts": 0, "dur": 1e6,
             "args": {"id": 1, "parent": 0, "run": 2}},
            {"name": "ga.engine_run", "ph": "X", "ts": 0, "dur": 1e6,
             "args": {"id": 2, "parent": 1, "run": 2}},
            {"name": "ga.evaluate_batch", "ph": "X", "ts": 1e5, "dur": 6e5,
             "args": {"id": 3, "parent": 2, "run": 2}},
            {"name": "improvement", "ph": "i", "ts": 5,
             "args": {"run": 2}},
        ]
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as handle:
            json.dump({"traceEvents": events}, handle)
        counters = dict(evaluations=50, generations=5, pattern_build_s=0.1,
                        em_s=0.5, clump_s=0.0, service_batch_s=0.7,
                        backend_s=0.6, batch_calls=1, batch_candidates=8)
        raw = raw_report(
            "paper_sync", True,
            [job(1.0, 0.1, traced=False, **counters),
             job(1.0, 0.1, traced=True, **counters)],
            threads={"compute_threads": 8, "pool_workers": 8},
            layer={"single_worker_wall_s": 4.0},
            trace_file=handle.name)
        try:
            summary = metrics.summarize(raw)
        finally:
            os.unlink(handle.name)
        m = summary["metrics"]
        self.assertEqual(set(m), set(metrics.PER_LAYER_UNITS))
        self.assertAlmostEqual(m["ga.engine_self_s"]["value"], 0.4)
        self.assertAlmostEqual(m["ga.batch_ms_p50"]["value"], 600.0)
        self.assertAlmostEqual(m["ga.parallel_efficiency"]["value"], 0.5)
        self.assertTrue(m["ga.parallel_efficiency"]["informational"])
        self.assertAlmostEqual(m["stats.service_overhead_s"]["value"], 0.1)
        self.assertAlmostEqual(m["trace.unaccounted_frac"]["value"], 0.0)
        self.assertEqual(m["trace.overhead_frac"]["instant_events"], 1)
        line = metrics.result_line(summary)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(set(line["metrics"]["ga.evaluations"]),
                         {"value", "unit"})


if __name__ == "__main__":
    unittest.main()
