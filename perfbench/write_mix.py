"""``write_mix``: zipf_warm reads while a writer mutates the repository.

~5k schemas in segment mode, in process, two threads.  The reader runs
the zipf_warm query stream in a closed loop; the writer applies
add/update/delete batches at a fixed pace, each ending in
``RepositoryIndexer.refresh()`` (flush, then the tiered merge).  Every
mutation bumps the index generation, which invalidates the caches, and
merges hold the index lock: a read-path gain that slows refreshes or
merges shows here.
"""

from __future__ import annotations

import gc
import threading
import time
import traceback
from contextlib import nullcontext

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.index.segments.verify import verify_directory
from repro.matching.profile import ProfileStore
from repro.model.schema import Schema
from repro.repository.indexer import RepositoryIndexer
from repro.repository.store import SchemaRepository

from perfbench.common import (RunResult, WORK_DIR, disk_mb, fresh_dir,
                              peak_rss_mb, repository_files)
from perfbench.inproc import (Reader, cache_metrics, close, counters,
                              hook_matchers, hook_profile_store,
                              reference_engine, search_scales,
                              timed_setups)
from perfbench.inputs import (SMALL_RAW, TOP_N, catalog, check_numbering,
                              make_corpus, write_batches, zipf_stream)
from perfbench.metrics import closed_loop_qps, end_to_end_metrics
from perfbench.speed import Gauge
from perfbench.speed import record as speed_record
from perfbench.spans import SpanRecorder, attribute
from perfbench.stats import ledger_record, run_is_correct, summarize

#: The corpus is ingested in chunks of this many schemas, one refresh
#: each, as a repository that grew over time.  Under the default
#: TieredMergePolicy (floor 1024 docs, tier factor 10, 4 per tier) that
#: leaves four tier-1 segments of 1045 documents and one 897-document
#: tier-0 segment.  The writer's flushes fold into the tier-0 segment
#: until it passes 1024 live documents; tier 1 then holds five segments
#: and the next merge rewrites the ~5000-document base.
INGEST_CHUNK = 1045
#: One write batch starts every BATCH_PACE seconds.
BATCH_PACE = 0.4
BATCH_SIZE = 12
WARMUP_SEARCHES = 100
WRITE_ROOT = "write_batch"


class Writer:
    """Applies the write stream at a fixed pace; one refresh per batch."""

    def __init__(self, repository: SchemaRepository,
                 indexer: RepositoryIndexer, batches: list[list[dict]],
                 recorder: SpanRecorder | None = None) -> None:
        self._repository = repository
        self._indexer = indexer
        self._batches = batches
        self._recorder = recorder
        self.write_seconds: list[float] = []
        self.visible_seconds: list[float] = []
        self.refreshes: list[dict] = []
        self.writes_attempted = 0
        self.writes_failed = 0
        self.errors: list[str] = []

    def _span(self, name: str):
        return self._recorder.span(name) if self._recorder else nullcontext()

    def _apply(self, op: dict) -> None:
        if op["op"] == "delete":
            self._repository.delete_schema(op["schema_id"])
            return
        schema = Schema.from_dict(op["schema"])
        if op["op"] == "add":
            self._repository.add_schema(schema)
        else:
            schema.schema_id = op["schema_id"]
            self._repository.update_schema(schema)

    def _segment_bytes(self) -> dict[str, int]:
        manifest = self._indexer.index.directory.read_manifest()
        return {entry["file"]: entry["bytes"]
                for entry in manifest["segments"]}

    def run(self, start: float, seconds: float) -> None:
        try:
            for number, batch in enumerate(self._batches):
                due = start + number * BATCH_PACE
                if due >= start + seconds:
                    break
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                root = (self._recorder.request(WRITE_ROOT)
                        if self._recorder else nullcontext())
                with root:
                    self._batch(batch)
        except Exception:  # keep the traceback; the run is marked failed
            self.errors.append(traceback.format_exc())

    def _batch(self, batch: list[dict]) -> None:
        commits = []
        for op in batch:
            self.writes_attempted += 1
            started = time.perf_counter()
            try:
                with self._span("repository.write"):
                    self._apply(op)
            except Exception:  # a failed write is counted, not fatal
                self.writes_failed += 1
                self.errors.append(traceback.format_exc())
                continue
            committed = time.perf_counter()
            self.write_seconds.append(committed - started)
            commits.append(committed)
        index = self._indexer.index
        segments_before = index.segment_count
        bytes_before = self._segment_bytes()
        started = time.perf_counter()
        with self._span("repository.refresh"):
            applied = self._indexer.refresh()
        ended = time.perf_counter()
        bytes_after = self._segment_bytes()
        written = [size for name, size in bytes_after.items()
                   if name not in bytes_before]
        self.visible_seconds.extend(ended - commit for commit in commits)
        self.refreshes.append({
            "start": started, "end": ended, "applied": applied,
            "segments_before": segments_before,
            "segments_after": index.segment_count,
            "base_merge": bool(written) and max(written) > max(
                bytes_before.values(), default=0),
        })


def first_search_after(refreshes: list[dict], reader: Reader) -> list[float]:
    """Latency of the first search started after each refresh ended."""
    requests = reader.ledger.requests
    out = []
    position = 0
    for refresh in refreshes:
        while position < len(requests) \
                and requests[position].started < refresh["end"]:
            position += 1
        if position < len(requests):
            out.append(requests[position].latency)
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    corpus = make_corpus(SMALL_RAW)
    query_catalog = catalog(corpus)
    batches = write_batches(corpus, seed, int(seconds / BATCH_PACE) + 2,
                            BATCH_SIZE)
    recorder = SpanRecorder() if trace else None

    def build(directory, clock):
        repository = SchemaRepository(directory / "repository.db")
        if recorder is not None:
            hook_profile_store(repository, recorder)
        segment_dir = str(directory / "segments")
        indexer = repository.indexer(segment_dir=segment_dir)
        for start in range(0, len(corpus), INGEST_CHUNK):
            for generated in corpus[start:start + INGEST_CHUNK]:
                repository.add_schema(generated.schema)
                clock.tick()
            indexer.refresh()
        engine = repository.engine(
            config=SchemrConfig(segment_dir=segment_dir))
        return engine, repository

    setup_times, setup_record, (engine, repository, directory) = timed_setups(
        build, fresh_dir(WORK_DIR / "write_mix"))
    try:
        check_numbering(corpus, repository.list_schema_ids())
        # The served heap should be the program's: drop the benchmark's
        # copy of the corpus before the window.
        kept = len(corpus)
        del corpus
        indexer = repository.indexer()
        initial_segments = indexer.index.segment_count
        if recorder is not None:
            hook_matchers(engine, recorder)
        Reader(engine).run(zipf_stream(query_catalog, seed, "warmup"),
                           seconds=60.0, count=WARMUP_SEARCHES)
        gauge = None if trace else Gauge()
        reader = Reader(engine, recorder, failure_latency=seconds,
                        gauge=gauge)
        writer = Writer(repository, indexer, batches, recorder)
        gc.collect()
        before = counters(engine, repository)
        window_start = time.perf_counter()
        thread = threading.Thread(target=writer.run,
                                  args=(window_start, seconds),
                                  name="perfbench-writer")
        thread.start()
        try:
            reader.run(zipf_stream(query_catalog, seed), seconds)
        finally:
            thread.join()
        window = time.perf_counter() - window_start
        after = counters(engine, repository)
        rss = peak_rss_mb()
        checks = final_checks(engine, repository, reader, directory)
        disk = disk_mb(*repository_files(directory / "repository.db"),
                       directory / "segments")
    finally:
        close(engine, repository)

    ledger = reader.ledger
    scales = search_scales(ledger, gauge)
    end_to_end = end_to_end_metrics(
        setup_times, ledger, scales, closed_loop_qps(ledger, scales),
        reader.p_at_10(), rss, disk)
    # A run whose writer never got to commit reports zero visibility
    # latency rather than no number.
    visible = summarize(writer.visible_seconds or [0.0])
    refreshes = writer.refreshes
    merging = [r for r in refreshes
               if r["segments_after"] < r["segments_before"]]
    layers, cache_record = cache_metrics(before, after, ledger.attempted)
    layers.update({
        "index.first_search_after_refresh_ms":
            _mean(first_search_after(refreshes, reader)) * 1000.0,
        "index.segments.count": _mean(r["segments_after"]
                                      for r in refreshes),
        "index.segments.merges": float(len(merging)),
        "index.segments.base_merges":
            float(sum(r["base_merge"] for r in refreshes)),
        "index.segments.merge_refresh_ms":
            _mean(r["end"] - r["start"] for r in merging) * 1000.0,
        "repository.write_ms": _mean(writer.write_seconds) * 1000.0,
        "repository.refresh_ms":
            _mean(r["end"] - r["start"] for r in refreshes) * 1000.0,
        "repository.refresh_applied": _mean(r["applied"]
                                            for r in refreshes),
        "repository.write_visible_p50_ms": visible.p50 * 1000.0,
        "repository.write_visible_tail_ms": visible.tail * 1000.0,
    })
    record = {
        "corpus": {"raw": SMALL_RAW, "kept": kept},
        "threads": 2, "loop": "closed reader + paced writer",
        "batch_pace_s": BATCH_PACE, "batch_size": BATCH_SIZE,
        "initial_segments": initial_segments,
        "setup_seconds": setup_times, "setup": setup_record,
        "speed": speed_record(gauge.samples, scales) if gauge else None,
        "window_seconds": window,
        "cache_counters": cache_record,
        "writes": {"attempted": writer.writes_attempted,
                   "failed": writer.writes_failed,
                   "samples_ms": [s * 1000.0
                                  for s in writer.write_seconds]},
        "write_visible_ms": {**visible.as_dict(scale=1000.0),
                             "samples_ms": [s * 1000.0 for s in
                                            writer.visible_seconds]},
        "refreshes": [{**r, "start": r["start"] - window_start,
                       "end": r["end"] - window_start}
                      for r in refreshes],
        "checks": checks,
        "errors": reader.errors + writer.errors,
    }
    if recorder is not None:
        traced, table = reader.layer_metrics()
        layers.update(traced)
        record["attribution"] = table
        writes = attribute(recorder.spans, WRITE_ROOT)
        record["write_attribution"] = {
            name: {"self_ms_per_batch": writes.per_request_ms(name),
                   "share": writes.share(name)}
            for name in sorted(writes.self_seconds)}
    record["requests"] = ledger_record(ledger)
    mismatched = checks.get("mismatched_queries", 0)
    correct = (run_is_correct(ledger) and not writer.errors
               and checks.get("verify_problems") == [] and not mismatched)
    return RunResult(
        correct=correct,
        attempted=ledger.attempted + writer.writes_attempted
        + checks.get("checked_queries", 0),
        failed=ledger.failed + writer.writes_failed + mismatched,
        end_to_end=end_to_end, per_layer=layers, record=record,
        spans=recorder)


def final_checks(engine: SchemrEngine, repository: SchemaRepository,
                 reader: Reader, directory) -> dict:
    """After the final refresh: the live segmented index must rank
    exactly like an index rebuilt from the repository, and the segment
    directory must verify clean."""
    indexer = repository.indexer()
    indexer.refresh()
    report = verify_directory(directory / "segments")
    rebuilt = RepositoryIndexer(repository)
    rebuilt.rebuild()
    live = reference_engine(engine, repository)
    fresh = SchemrEngine(
        index=rebuilt.index,
        source=ProfileStore(repository,
                            capacity=repository.profile_store().capacity),
        config=SchemrConfig(query_cache_size=0))
    queries = {query.key: query for query in reader.queries}
    mismatched = 0
    try:
        for query in queries.values():
            kwargs = {"keywords": query.keywords,
                      "fragment": query.fragment, "top_n": TOP_N}
            if live.search(**kwargs) != fresh.search(**kwargs):
                mismatched += 1
    finally:
        live.close()
        fresh.close()
    return {"verify_problems": [list(p) for p in report.problems],
            "verify_segments": report.segments_checked,
            "checked_queries": len(queries),
            "mismatched_queries": mismatched}
