"""``zipf_warm``: repeated Zipf catalog queries against ~5k schemas.

In process, one closed-loop client, in-memory index.  About 30% of the
queries carry a DDL fragment.  Repeated queries hit the phase-1 query
cache, so the time goes to matching and the ProfileStore: this is where
a match-phase change shows and a phase-1 change should not.
"""

from __future__ import annotations

import gc
import time

from repro.repository.store import SchemaRepository

from perfbench.common import (RunResult, WORK_DIR, disk_mb, fresh_dir,
                              peak_rss_mb, repository_files)
from perfbench.inproc import (Reader, cache_metrics, close, counters,
                              hook_matchers, hook_profile_store,
                              reference_engine, search_scales,
                              timed_setups)
from perfbench.inputs import (SMALL_RAW, catalog, check_numbering,
                              make_corpus, zipf_stream)
from perfbench.metrics import closed_loop_qps, end_to_end_metrics
from perfbench.speed import Gauge
from perfbench.speed import record as speed_record
from perfbench.spans import SpanRecorder
from perfbench.stats import ledger_record, run_is_correct

#: Untimed searches (from their own stream) before the window opens.
WARMUP_SEARCHES = 100


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    corpus = make_corpus(SMALL_RAW)
    query_catalog = catalog(corpus)
    recorder = SpanRecorder() if trace else None

    def build(directory, clock):
        repository = SchemaRepository(directory / "repository.db")
        if recorder is not None:
            hook_profile_store(repository, recorder)
        for generated in corpus:
            repository.add_schema(generated.schema)
            clock.tick()
        return repository.engine(), repository

    setup_times, setup_record, (engine, repository, directory) = timed_setups(
        build, fresh_dir(WORK_DIR / "zipf_warm"))
    try:
        check_numbering(corpus, repository.list_schema_ids())
        # The served heap should be the program's: drop the benchmark's
        # copy of the corpus before the window.
        kept = len(corpus)
        del corpus
        if recorder is not None:
            hook_matchers(engine, recorder)
        Reader(engine).run(zipf_stream(query_catalog, seed, "warmup"),
                           seconds=60.0, count=WARMUP_SEARCHES)
        gauge = None if trace else Gauge()
        reader = Reader(engine, recorder, failure_latency=seconds,
                        gauge=gauge)
        gc.collect()
        before = counters(engine, repository)
        window_start = time.perf_counter()
        reader.run(zipf_stream(query_catalog, seed), seconds)
        window = time.perf_counter() - window_start
        after = counters(engine, repository)
        rss = peak_rss_mb()

        # Correctness, outside the window: every distinct query's page
        # must equal an uncached engine's page on the same corpus.
        reference = reference_engine(engine, repository)
        try:
            mismatched = reader.check_against(reference)
        finally:
            reference.close()
        reader.ledger.mark_mismatch(mismatched)
        disk = disk_mb(*repository_files(directory / "repository.db"))
    finally:
        close(engine, repository)

    ledger = reader.ledger
    scales = search_scales(ledger, gauge)
    end_to_end = end_to_end_metrics(
        setup_times, ledger, scales, closed_loop_qps(ledger, scales),
        reader.p_at_10(), rss, disk)
    layers, cache_record = cache_metrics(before, after, ledger.attempted)
    record = {
        "corpus": {"raw": SMALL_RAW, "kept": kept},
        "catalog_intents": len(query_catalog),
        "clients": 1, "loop": "closed",
        "setup_seconds": setup_times, "setup": setup_record,
        "speed": speed_record(gauge.samples, scales) if gauge else None,
        "window_seconds": window,
        "distinct_queries": len({q.key for q in reader.queries}),
        "mismatched_queries": len(mismatched),
        "cache_counters": cache_record,
        "errors": reader.errors,
    }
    if recorder is not None:
        traced, table = reader.layer_metrics()
        layers.update(traced)
        record["attribution"] = table
    record["requests"] = ledger_record(ledger)
    return RunResult(
        correct=run_is_correct(ledger), attempted=ledger.attempted,
        failed=ledger.failed, end_to_end=end_to_end, per_layer=layers,
        record=record, spans=recorder)
