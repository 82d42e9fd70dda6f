"""Every metric the benchmark reports: unit, direction, and intent.

Timings are at the reference speed of :mod:`perfbench.speed`: each is
the measured time scaled by how fast the host ran a fixed kernel at the
same moment, so runs on slow and fast phases of a shared host compare.

``BENCHMARK.json`` at the repository root mirrors these tables (the
benchmark's tests check that the two agree).  End-to-end metrics are
printed by untraced runs and carry the bound by which a change may
worsen them; per-layer metrics are printed by traced runs and name the
end-to-end metric each should move and the workload that shows it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from perfbench.stats import summarize


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    description: str
    bound: float | None = None
    moves: str = ""
    on: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "Ingest the corpus and build the index (http_broad: server "
           "start until /readyz answers 200); median of 3 set-ups, at "
           "the reference speed.",
           bound=0.25),
    Metric("search_qps", "1/s", "higher",
           "Searches answered correctly per second spent searching, at "
           "the reference speed (open loop: achieved per second of the "
           "window, against the fixed offered rate).",
           bound=0.25),
    Metric("search_p50_ms", "ms", "lower",
           "Median search latency at the reference speed; a failed "
           "search counts as the whole window.",
           bound=0.25),
    Metric("search_tail_ms", "ms", "lower",
           "Highest ladder percentile with >= 10 samples beyond it, at "
           "the reference speed.",
           bound=0.25),
    Metric("within_slo_frac", "ratio", "higher",
           "Share of attempted searches answered correctly within the "
           "0.25 s slow_query_seconds default (measured time, not "
           "scaled).",
           bound=0.05),
    Metric("p_at_10", "ratio", "higher",
           "Mean ground-truth precision@10 (grade-2 answers) over the "
           "run's searches; a failed search scores 0.",
           bound=0.05),
    Metric("peak_rss_mb", "MiB", "lower",
           "Peak resident set size of the serving process.",
           bound=0.1),
    Metric("disk_mb", "MiB", "lower",
           "Repository database plus on-disk index segments at the end "
           "of the run.",
           bound=0.1),
)

PER_LAYER = (
    Metric("parsers.parse_query.ms", "ms", "lower",
           "parse_query self time per search.",
           moves="search_p50_ms", on="zipf_warm"),
    Metric("index.search.ms", "ms", "lower",
           "IndexSearcher.search self time per call (http_broad: the "
           "server's candidate_extraction phase).",
           moves="search_p50_ms, within_slo_frac", on="http_broad"),
    Metric("index.docs_scored", "count", "lower",
           "Documents entering the phase-1 accumulator per search.",
           moves="search_p50_ms, within_slo_frac", on="http_broad"),
    Metric("index.query_cache.hit_ratio", "ratio", "higher",
           "Phase-1 query cache hits / lookups in the timed window.",
           moves="search_p50_ms", on="zipf_warm"),
    Metric("index.first_search_after_refresh_ms", "ms", "lower",
           "Latency of the first search started after each refresh.",
           moves="search_tail_ms", on="write_mix"),
    Metric("index.segments.count", "count", "lower",
           "Mean live segment count after each refresh.",
           moves="repository.write_visible_tail_ms, search_tail_ms",
           on="write_mix"),
    Metric("index.segments.merges", "count", "lower",
           "Refreshes that lowered the segment count.",
           moves="repository.write_visible_tail_ms, search_tail_ms",
           on="write_mix"),
    Metric("index.segments.base_merges", "count", "lower",
           "Merges whose output outgrew every earlier segment (the "
           "large base segment was rewritten).",
           moves="search_tail_ms", on="write_mix"),
    Metric("index.segments.merge_refresh_ms", "ms", "lower",
           "Mean duration of the refreshes that merged.",
           moves="repository.write_visible_tail_ms, search_tail_ms",
           on="write_mix"),
    Metric("matching.profile_store.hit_ratio", "ratio", "higher",
           "ProfileStore hits / lookups in the timed window.",
           moves="search_p50_ms (peak_rss_mb as the trade)",
           on="zipf_warm, http_broad"),
    Metric("matching.profile_store.misses_per_search", "count", "lower",
           "ProfileStore misses per search.",
           moves="search_p50_ms", on="zipf_warm, http_broad"),
    Metric("matching.profile_store.evictions", "count", "lower",
           "ProfileStore LRU evictions in the timed window.",
           moves="search_p50_ms (peak_rss_mb as the trade)",
           on="zipf_warm, http_broad"),
    Metric("matching.profile_store.ms", "ms", "lower",
           "Self time inside get_profile + get_schema per search.",
           moves="search_p50_ms", on="zipf_warm, http_broad"),
    Metric("matching.name.ms", "ms", "lower",
           "Name matcher .match self time per search.",
           moves="search_p50_ms", on="all"),
    Metric("matching.context.ms", "ms", "lower",
           "Context matcher .match self time per search.",
           moves="search_p50_ms", on="all"),
    Metric("core.match_and_score.self_ms", "ms", "lower",
           "match_and_score minus its child spans: tightness and glue.",
           moves="search_p50_ms", on="all"),
    Metric("core.candidates", "count", "lower",
           "Phase-1 pool size per search.",
           moves="search_p50_ms", on="all"),
    Metric("service.server_search_ms", "ms", "lower",
           "Server-side search time per search (/metrics "
           "schemr_search_seconds delta).",
           moves="search_tail_ms, within_slo_frac", on="http_broad"),
    Metric("service.server_phase.query_parse_ms", "ms", "lower",
           "Server query_parse phase per search (/metrics delta).",
           moves="search_tail_ms", on="http_broad"),
    Metric("service.server_phase.candidate_extraction_ms", "ms", "lower",
           "Server candidate_extraction phase per search.",
           moves="search_tail_ms, within_slo_frac", on="http_broad"),
    Metric("service.server_phase.schema_matching_ms", "ms", "lower",
           "Server schema_matching phase per search.",
           moves="search_tail_ms, within_slo_frac", on="http_broad"),
    Metric("service.server_phase.tightness_of_fit_ms", "ms", "lower",
           "Server tightness_of_fit phase per search.",
           moves="search_tail_ms", on="http_broad"),
    Metric("service.front_ms", "ms", "lower",
           "Client latency minus server search time minus client XML "
           "parsing: HTTP, admission, serialization.",
           moves="search_tail_ms, within_slo_frac", on="http_broad"),
    Metric("service.parse_results_xml_ms", "ms", "lower",
           "Client-side parse_results_xml self time per search.",
           moves="search_p50_ms", on="http_broad"),
    Metric("resilience.admission.rejected", "count", "lower",
           "Admission rejections in the window (/metrics delta).",
           moves="failed, within_slo_frac", on="http_broad"),
    Metric("resilience.admission.timeouts", "count", "lower",
           "Admission queue timeouts in the window (/metrics delta).",
           moves="failed, within_slo_frac", on="http_broad"),
    Metric("repository.write_ms", "ms", "lower",
           "Time per add/update/delete repository call.",
           moves="repository.write_visible_p50_ms", on="write_mix"),
    Metric("repository.refresh_ms", "ms", "lower",
           "RepositoryIndexer.refresh time per call.",
           moves="repository.write_visible_p50_ms", on="write_mix"),
    Metric("repository.refresh_applied", "count", "higher",
           "Index operations applied per refresh.",
           moves="repository.write_visible_p50_ms", on="write_mix"),
    Metric("repository.write_visible_p50_ms", "ms", "lower",
           "Median time from a write's repository commit to the end of "
           "the refresh that makes it searchable.",
           moves="(end to end)", on="write_mix"),
    Metric("repository.write_visible_tail_ms", "ms", "lower",
           "Tail of the same (ladder percentile with >= 10 beyond).",
           moves="(end to end)", on="write_mix"),
    Metric("trace.unattributed_share", "ratio", "lower",
           "Share of traced search time not inside any layer span.",
           moves="(benchmark health)", on="all"),
    Metric("trace.overhead_share", "ratio", "lower",
           "Mean traced over mean untraced search latency, minus one.",
           moves="(benchmark health)", on="all"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


def end_to_end_metrics(setup_seconds: list[float], ledger,
                       scales: list[float], qps: float, p_at_10: float,
                       peak_rss: float, disk: float) -> dict[str, float]:
    """The end-to-end metrics of one run, from its measurements.

    ``scales`` holds each request's factor from :mod:`perfbench.speed`,
    which brings its latency to the reference speed.  The set-up times
    and ``qps`` come already scaled.
    """
    summary = summarize(latency * scale for latency, scale
                        in zip(ledger.effective_latencies(), scales))
    return {
        "setup_s": statistics.median(setup_seconds),
        "search_qps": qps,
        "search_p50_ms": summary.p50 * 1000.0,
        "search_tail_ms": summary.tail * 1000.0,
        "within_slo_frac": ledger.within_slo_frac(),
        "p_at_10": p_at_10,
        "peak_rss_mb": peak_rss,
        "disk_mb": disk,
    }


def closed_loop_qps(ledger, scales: list[float]) -> float:
    """Searches answered per second spent searching, at the reference
    speed."""
    answered = ledger.attempted - ledger.failed
    return answered / sum(r.latency * scale for r, scale
                          in zip(ledger.requests, scales))


def complete_layers(measured: dict[str, float]) -> tuple[dict, list[str]]:
    """Every per-layer metric, 0.0 where the workload has no such layer.

    Returns the full mapping and the names that were filled in, which
    the run record lists as not applicable.
    """
    unknown = set(measured) - set(PER_LAYER_NAMES)
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    missing = [name for name in PER_LAYER_NAMES if name not in measured]
    full = {name: float(measured.get(name, 0.0)) for name in PER_LAYER_NAMES}
    return full, missing
