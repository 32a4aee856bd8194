"""Arithmetic of the benchmark: from a runner's raw report (and its
trace file) to the metrics BENCHMARK.json names.

The C++ runner only measures. Everything that turns measurements into
reported numbers lives here, so test_metrics.py can check it
without building anything:

* medians over jobs, and tail percentiles by the rule "the highest
  percentile that still has at least ten samples beyond it";
* self time of a trace span: its duration minus the part of its
  interval that its child spans cover;
* ratios, always kept together with their numerator and denominator;
* quality: optimum_gap against the exhaustive reference and
  signal_recall against the planted SNPs.
"""

import json
import math

# Percentiles tried, highest first, when a tail is reported.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

# Operand words the prefilter kernel reads per SNP pair: nine
# combine_planes_count calls (the jointly-valid mask, four marginal
# counts, four cross counts), each over three word vectors of
# words_per_snp words.
KERNEL_CALLS_PER_PAIR = 9
OPERANDS_PER_CALL = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "genomics.store_open_s": "s",
    "genomics.plane_words": "count",
    "analysis.prefilter_sweep_s": "s",
    "analysis.prefilter_pairs": "count",
    "analysis.prefilter_mpairs_per_s": "Mpairs/s",
    "analysis.prefilter_window_us_p50": "us",
    "analysis.prefilter_window_us_p99": "us",
    "analysis.prefilter_words_per_ns": "words/ns",
    "analysis.prefilter_roofline_frac": "frac",
    "analysis.admission_offer_s": "s",
    "analysis.first_admit_frac": "frac",
    "analysis.scan_tail_s": "s",
    "analysis.overlap_s": "s",
    "ga.window_ga_s": "s",
    "ga.generations": "count",
    "ga.evaluations": "count",
    "ga.engine_self_s": "s",
    "ga.batch_ms_p50": "ms",
    "ga.batch_ms_p95": "ms",
    "ga.batch_width_mean": "count",
    "ga.parallel_efficiency": "frac",
    "ga.island_steps": "count",
    "ga.migrations": "count",
    "ga.budget_overshoot": "count",
    "stats.pattern_build_s": "s",
    "stats.em_s": "s",
    "stats.clump_s": "s",
    "stats.em_lanes_per_batch": "count",
    "stats.mc_replicates": "count",
    "stats.mc_saved_frac": "frac",
    "stats.fitness_hit_rate": "frac",
    "stats.pattern_incremental_rate": "frac",
    "stats.service_overhead_s": "s",
    "stats.stream_claim_width": "count",
    "stats.stream_inflight_merges": "count",
    "parallel.pool_busy_frac": "frac",
    "parallel.lane_busy_frac": "frac",
    "parallel.retries": "count",
    "parallel.failures": "count",
    "util.popcount_words_per_ns": "words/ns",
    "trace.overhead_frac": "frac",
    "trace.unaccounted_frac": "frac",
    "optimum_gap": "frac",
    "signal_recall": "frac",
    "failed_frac": "frac",
}

# Parallel per-layer numbers that mean nothing without cores to scale
# onto; marked informational when a workload ran more compute threads
# than the host has cores, or the host has a single core.
PARALLEL_METRICS = (
    "ga.parallel_efficiency",
    "parallel.pool_busy_frac",
    "parallel.lane_busy_frac",
)


def median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def nearest_rank(sorted_values, percentile):
    """Value at `percentile` by the nearest-rank rule, and its index."""
    n = len(sorted_values)
    index = max(0, math.ceil(percentile / 100.0 * n) - 1)
    return sorted_values[index], index


def tail_percentile(samples, wanted):
    """(percentile used, value, sample count) for a tail metric.

    Starts at `wanted` and steps down PERCENTILE_LADDER until at least
    MIN_BEYOND samples lie beyond the percentile's rank; the median is
    the floor. An empty sample set gives (wanted, 0.0, 0).
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return wanted, 0.0, 0
    candidates = [wanted] + [p for p in PERCENTILE_LADDER if p < wanted]
    for percentile in candidates:
        value, index = nearest_rank(values, percentile)
        if n - (index + 1) >= MIN_BEYOND:
            return percentile, value, n
    return 50.0, median(values), n


def ratio(numerator, denominator):
    """A ratio that keeps its base; 0 when the denominator is 0."""
    value = numerator / denominator if denominator else 0.0
    return {"value": value, "numerator": numerator, "denominator": denominator}


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cursor = start
    for s, e in clipped:
        s = max(s, cursor)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans):
    """Self time of every span: duration minus child coverage.

    `spans` are dicts with id, parent, start and end (any one unit).
    Children may run on other threads; overlapping children count
    once, and only inside the parent's interval.
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"])
        )
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def unaccounted_frac(spans, root_id):
    """1 − Σ self time of the root's descendants ÷ the root's wall."""
    by_id = {span["id"]: span for span in spans}
    root = by_id[root_id]
    wall = root["end"] - root["start"]
    if wall <= 0:
        return 0.0
    selfs = self_times(spans)
    accounted = 0.0
    for span in spans:
        if span["id"] == root_id:
            continue
        ancestor = span["parent"]
        while ancestor and ancestor != root_id:
            ancestor = by_id[ancestor]["parent"] if ancestor in by_id else 0
        if ancestor == root_id:
            accounted += selfs[span["id"]]
    return 1.0 - accounted / wall


def optimum_gap(optimum_by_size, champion_by_size):
    """Max over sizes of (optimum − champion) ÷ optimum (Table 2's
    deviation from the best expected haplotype, relative)."""
    gaps = [
        (optimum_by_size[size] - champion_by_size[size]) / optimum_by_size[size]
        for size in optimum_by_size
        if size in champion_by_size and optimum_by_size[size] > 0
    ]
    return max(gaps) if gaps else 0.0


def signal_recall(planted, champion):
    """Planted SNPs inside the champion ÷ planted count."""
    if not planted:
        return ratio(0, 0)
    found = len(set(planted) & set(champion))
    return ratio(found, len(planted))


def prefilter_words(pairs, words_per_snp):
    """Computed operand words of the pair sweep (not memory traffic)."""
    return pairs * KERNEL_CALLS_PER_PAIR * OPERANDS_PER_CALL * words_per_snp


def load_trace(trace_file):
    """(spans, instant event count) of a Chrome trace file; spans are
    its complete events as dicts with times in seconds."""
    if not trace_file:
        return [], 0
    with open(trace_file) as handle:
        events = json.load(handle)["traceEvents"]
    spans = []
    for event in events:
        if event.get("ph") != "X":
            continue
        args = event["args"]
        start = event["ts"] / 1e6
        spans.append(
            {
                "name": event["name"],
                "id": args["id"],
                "parent": args["parent"],
                "run": args["run"],
                "start": start,
                "end": start + event["dur"] / 1e6,
            }
        )
    instants = sum(1 for event in events if event.get("ph") == "i")
    return spans, instants


def _timed(raw, traced):
    return [
        job
        for job in raw["jobs"]
        if job["traced"] == traced and not job["counters"].get("warmup")
    ]


def _c(jobs, name):
    return [job["counters"].get(name, 0.0) for job in jobs]


def _sum(jobs, name):
    return sum(_c(jobs, name))


def _entry(value, unit, **extra):
    entry = {"value": value, "unit": unit}
    entry.update(extra)
    return entry


def failure_counts(raw):
    """(attempted, failed): evaluations and gated runs attempted; failed
    evaluations, dropped island offspring and failing gates."""
    jobs = raw["jobs"]
    attempted = int(_sum(jobs, "evaluations")) + len(raw["gates"])
    failed = int(
        _sum(jobs, "failed_evaluations")
        + _sum(jobs, "failed_offspring")
        + sum(1 for gate in raw["gates"] if not gate["passed"])
    )
    return max(attempted, 1), failed


def _setups(raw):
    """Every set-up timing of a run: standalone ones and the jobs'."""
    return raw.get("setup_samples", []) + [job["setup_s"] for job in raw["jobs"]]


def end_to_end(raw):
    jobs = _timed(raw, False)
    walls = [job["wall_s"] for job in jobs]
    rates = [
        job["counters"].get("evaluations", 0.0) / job["wall_s"]
        for job in jobs
        if job["wall_s"] > 0
    ]
    setups = _setups(raw)
    units = END_TO_END_UNITS
    return {
        "wall_s": _entry(median(walls), units["wall_s"], samples=len(walls)),
        "evals_per_s": _entry(median(rates), units["evals_per_s"],
                              samples=len(rates)),
        "setup_s": _entry(median(setups), units["setup_s"], samples=len(setups)),
        "peak_rss_mb": _entry(
            median(_c(jobs, "peak_rss_mb")), units["peak_rss_mb"],
            source=raw.get("peak_rss_source", ""), run_peak=raw["peak_rss_mb"],
        ),
    }


def _roots(spans, root_name):
    """Ids of the top-level spans named `root_name`, and their run ids."""
    ids = [s["id"] for s in spans if s["parent"] == 0 and s["name"] == root_name]
    runs = {s["run"] for s in spans if s["id"] in set(ids)}
    return ids, runs


def _span_durations(spans, name, runs):
    return [s["end"] - s["start"] for s in spans if s["name"] == name and s["run"] in runs]


def per_layer(raw, spans):
    """Every per-layer metric; layers a workload bypasses read 0."""
    metrics = {name: _entry(0.0, unit) for name, unit in PER_LAYER_UNITS.items()}
    workload = raw["workload"]
    traced = _timed(raw, True)
    untraced = _timed(raw, False)
    layer = raw["layer"]
    selfs = self_times(spans)
    root_ids, roots = _roots(spans, "job")

    def put(name, value, **extra):
        metrics[name] = _entry(value, PER_LAYER_UNITS[name], **extra)

    def put_ratio(name, numerator, denominator):
        put(name, **ratio(numerator, denominator))

    def put_tail(name, samples, wanted, scale):
        used, value, n = tail_percentile(samples, wanted)
        put(name, value * scale, percentile=used, samples=n)

    # Instrument checks.
    traced_wall = median([job["wall_s"] for job in traced])
    untraced_wall = median([job["wall_s"] for job in untraced])
    put(
        "trace.overhead_frac",
        traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
        traced_wall_s=traced_wall,
        untraced_wall_s=untraced_wall,
    )
    put(
        "trace.unaccounted_frac",
        median([unaccounted_frac(spans, root) for root in root_ids]),
        roots=len(root_ids),
    )
    put("util.popcount_words_per_ns", layer.get("popcount_words_per_ns", 0.0),
        array_words=layer.get("popcount_array_words", 640))

    # Quality and failures.
    attempted, failed = failure_counts(raw)
    put_ratio("failed_frac", failed, attempted)
    put_ratio("signal_recall", *cohort_recall(raw.get("snp_lists", {})))
    optimum = by_cohort(raw["quality"], "optimum_size")
    if optimum:
        gaps = [job_optimum_gap(optimum, job["counters"]) for job in traced + untraced]
        put("optimum_gap", median(gaps), samples=len(gaps), cohorts=len(optimum))

    put("parallel.retries", _sum(raw["jobs"], "retries"))
    put("parallel.failures", _sum(raw["jobs"], "failures"))
    put("ga.evaluations", median(_c(traced, "evaluations")))
    put("ga.generations", median(_c(traced, "generations")))

    if workload in ("paper_sync", "islands_mc"):
        stage_s = [
            job["counters"]["pattern_build_s"] + job["counters"]["em_s"]
            + job["counters"]["clump_s"]
            for job in traced
        ]
        put("stats.pattern_build_s", median(_c(traced, "pattern_build_s")))
        put("stats.em_s", median(_c(traced, "em_s")))
        put("stats.clump_s", median(_c(traced, "clump_s")))
        put_ratio("stats.em_lanes_per_batch", _sum(traced, "em_batch_lanes"),
                  _sum(traced, "em_batch_runs"))
        put("stats.mc_replicates", median(_c(traced, "mc_replicates_run")))
        put_ratio("stats.mc_saved_frac", _sum(traced, "mc_replicates_saved"),
                  _sum(traced, "mc_replicates_saved") + _sum(traced, "mc_replicates_run"))
        put_ratio("stats.fitness_hit_rate", _sum(traced, "cache_hits"),
                  _sum(traced, "cache_hits") + _sum(traced, "cache_misses"))
        incremental = _sum(traced, "pattern_extended") + _sum(traced, "pattern_projected")
        put_ratio("stats.pattern_incremental_rate", incremental,
                  incremental + _sum(traced, "pattern_fresh"))

    if workload == "paper_sync":
        workers = raw["threads"].get("pool_workers", 1)
        engine_self = [selfs[s["id"]] for s in spans
                       if s["name"] == "ga.engine_run" and s["run"] in roots]
        put("ga.engine_self_s", median(engine_self), samples=len(engine_self))
        batches = _span_durations(spans, "ga.evaluate_batch", roots)
        put_tail("ga.batch_ms_p50", batches, 50.0, 1e3)
        put_tail("ga.batch_ms_p95", batches, 95.0, 1e3)
        put_ratio("ga.batch_width_mean", _sum(traced, "batch_candidates"),
                  _sum(traced, "batch_calls"))
        put_ratio("ga.parallel_efficiency", layer.get("single_worker_wall_s", 0.0),
                  workers * untraced_wall)
        put("stats.service_overhead_s", median(
            [job["counters"]["service_batch_s"] - job["counters"]["backend_s"]
             for job in traced]))
        put("parallel.pool_busy_frac", median(
            [s / (job["wall_s"] * workers) for s, job in zip(stage_s, traced)]),
            workers=workers)

    if workload == "islands_mc":
        lanes = raw["threads"].get("stream_lanes", 1)
        put("ga.island_steps", median(_c(traced, "island_steps")))
        put("ga.migrations", median(_c(traced, "migrations")))
        put("ga.budget_overshoot", median(
            [job["counters"]["evaluations"] - job["counters"]["budget"] for job in traced]))
        put_ratio("stats.stream_claim_width", _sum(traced, "stream_completed"),
                  _sum(traced, "stream_dispatch_rounds"))
        put("stats.stream_inflight_merges", median(_c(traced, "stream_inflight_merges")))
        put("stats.service_overhead_s", median(
            [job["counters"]["service_batch_s"] - s for s, job in zip(stage_s, traced)]))
        put("parallel.lane_busy_frac", median(
            [s / (job["wall_s"] * lanes) for s, job in zip(stage_s, traced)]),
            lanes=lanes)

    if workload == "genome_scan":
        words_per_snp = layer.get("words_per_snp", 0)
        put("genomics.store_open_s", median(_setups(raw)))
        put("genomics.plane_words", median(_c(traced, "plane_words")),
            label="computed: words handed out by low_plane/high_plane")
        sweep = median([job["counters"]["sweep_s"] - job["counters"]["sink_s"]
                        for job in traced])
        pairs = median(_c(traced, "pairs"))
        put("analysis.prefilter_sweep_s", sweep)
        put("analysis.prefilter_pairs", pairs)
        put("analysis.prefilter_mpairs_per_s", pairs / sweep / 1e6 if sweep else 0.0)
        windows = _span_durations(spans, "analysis.prefilter_window", roots)
        put_tail("analysis.prefilter_window_us_p50", windows, 50.0, 1e6)
        put_tail("analysis.prefilter_window_us_p99", windows, 99.0, 1e6)
        words = prefilter_words(pairs, words_per_snp)
        put("analysis.prefilter_words_per_ns", words / (sweep * 1e9) if sweep else 0.0,
            label=f"computed words: {KERNEL_CALLS_PER_PAIR} x {OPERANDS_PER_CALL} "
                  f"x {words_per_snp} per pair")
        put_ratio("analysis.prefilter_roofline_frac",
                  metrics["analysis.prefilter_words_per_ns"]["value"],
                  layer.get("popcount_words_per_ns", 0.0))
        put("analysis.admission_offer_s", layer.get("admission_offer_s", 0.0),
            label="replayed over the run's scores")
        put_ratio("analysis.first_admit_frac",
                  median([job["counters"]["first_admit_index"] + 1 for job in traced]),
                  median(_c(traced, "windows")))
        put("analysis.scan_tail_s", median(_c(traced, "scan_tail_s")))
        window_ga = layer.get("window_ga_s", 0.0)
        put("ga.window_ga_s", window_ga, label="each selected window replayed alone")
        put("analysis.overlap_s", median(
            [job["counters"]["sweep_s"] + window_ga - job["wall_s"] for job in traced]))

    informational = raw["threads"].get("compute_threads", 1) > raw["machine"]["cores"] \
        or raw["machine"]["cores"] < 2
    for name in PARALLEL_METRICS:
        metrics[name]["informational"] = informational
    return metrics


def by_cohort(numbers, prefix):
    """{cohort: {size: value}} from names "<prefix><size>_c<cohort>"."""
    out = {}
    for name, value in numbers.items():
        if not name.startswith(prefix) or "_c" not in name:
            continue
        size, cohort = name[len(prefix):].split("_c")
        out.setdefault(int(cohort), {})[int(size)] = value
    return out


def job_optimum_gap(optimum, counters):
    """Mean over a job's cohorts of each cohort's optimum_gap."""
    champions = by_cohort(counters, "champion_size")
    gaps = [optimum_gap(optimum[c], champions.get(c, {})) for c in optimum]
    return sum(gaps) / len(gaps) if gaps else 0.0


def cohort_recall(lists):
    """(found, planted) summed over the cohorts' "planted_c<k>" and
    "champion_c<k>" lists."""
    found = planted = 0
    for name, snps in lists.items():
        if name.startswith("planted_c"):
            cohort = name[len("planted_c"):]
            parts = signal_recall(snps, lists.get("champion_c" + cohort, []))
            found += parts["numerator"]
            planted += parts["denominator"]
    return found, planted


def summarize(raw):
    """The run's metrics, full detail (bases, sample counts)."""
    attempted, failed = failure_counts(raw)
    correct = all(gate["passed"] for gate in raw["gates"])
    if raw["trace"]:
        spans, instants = load_trace(raw.get("trace_file"))
        metrics = per_layer(raw, spans)
        metrics["trace.overhead_frac"]["instant_events"] = instants
    else:
        metrics = end_to_end(raw)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def result_line(summary):
    """The one-line result: value and unit per metric, nothing else."""
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in summary["metrics"].items()
        },
    }
