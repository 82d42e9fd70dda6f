"""The scatter-gather front: a sharded engine with single-engine bytes.

:class:`ShardedEngine` serves the same three-phase pipeline as
:class:`~repro.core.engine.SchemrEngine`, but phases 1 and 2 run in a
pool of worker *processes* (one per shard of the segment layout) so
CPU-bound scoring escapes the GIL:

* **phase 1** — the front :meth:`~repro.index.searcher.IndexSearcher.prepare`-s
  the query once against the *global* corpus statistics and broadcasts
  the prepared form; each worker returns its shard's top-``pool_n``
  and the front merges with the searcher's exact selection key.
  Because shards partition the doc-id space, each shard's local top
  ``pool_n`` is a superset of the global winners living there, so the
  merge equals the single-index ranking exactly.
* **phase 2** — the merged pool is bucketed back to the shards that own
  each candidate; workers run the engine's own
  :meth:`~repro.core.engine.SchemrEngine.match_and_score` and the front
  restores pool order before applying the engine's final stable sort,
  so the page is byte-identical to single-process serving.

Failures never change the bytes, only the latency and the
``shards_used`` stamp on the query profile: when a worker dies, stalls
past ``shard_timeout_seconds``, or errors, the front *repairs locally*
— it re-runs the failed work against its own union index with the same
code and the same floats — respawns the worker, and keeps serving.
Per-shard circuit breakers keep a flapping worker from taxing every
query; they deliberately do **not** surface through :attr:`breakers`,
because a degraded-but-serving pool must stay ready (the per-shard
health is exported via :meth:`shard_status` and the
``schemr_shard_*`` metric families instead).
"""

from __future__ import annotations

import dataclasses
import heapq
import logging
import threading
import time
from typing import Callable

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.core.pipeline import (
    PHASE_CANDIDATES,
    PHASE_MATCHING,
    PHASE_PARSE,
    PHASE_TIGHTNESS,
    PipelineTrace,
    timed_phase,
)
from repro.core.results import SearchResult
from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    QueryError,
    ServiceError,
)
from repro.index.searcher import IndexHit, IndexSearcher
from repro.index.segments import ShardedSegmentIndex, shard_of
from repro.model.query import QueryGraph
from repro.model.schema import Schema
from repro.parsers.query_parser import parse_query
from repro.resilience.breaker import STATE_OPEN
from repro.resilience.deadline import (
    DEGRADE_NAME_ONLY,
    DEGRADE_PHASE1_ONLY,
    DEGRADE_REDUCED_POOL,
    Deadline,
    DegradationLadder,
    degradation_name,
)
from repro.resilience.faults import FAULTS
from repro.sharding.pool import (
    STATE_DEAD,
    STATE_READY,
    ShardDied,
    ShardError,
    ShardTimeout,
    WorkerPool,
)
from repro.sharding.protocol import TAG_PHASE1, TAG_PHASE2, TAG_REOPEN
from repro.sharding.worker import WorkerSpec
from repro.telemetry import (
    DEFAULT_COUNT_BUCKETS,
    EMPTY_ALL_FILTERED,
    EMPTY_NO_INDEX_HITS,
    EMPTY_OFFSET_BEYOND,
    QueryProfile,
    Telemetry,
)

logger = logging.getLogger(__name__)

def _merge_key(hit: IndexHit) -> tuple[float, int]:
    """The phase-1 merge selection key — the same (score, -doc_id)
    ranking ``IndexSearcher._top_hits`` uses, so merged per-shard
    rankings tie-break exactly like the single index."""
    return (hit.score, -hit.doc_id)


@dataclasses.dataclass
class _QueryState:
    """Per-query scatter bookkeeping feeding the profile."""

    strategy: str = ""
    cache_hit: bool = False
    pruned_early: bool = False
    docs_scored: int = 0
    #: Shards whose worker failed this query (served via local repair).
    failed: set[int] = dataclasses.field(default_factory=set)


class ShardedEngine:
    """Process-sharded serving over a doc-id-sharded segment layout.

    Parameters
    ----------
    repository:
        A **file-backed** :class:`~repro.repository.store.SchemaRepository`
        — each worker opens its own sqlite connection (WAL mode makes
        that multi-process safe), so ``:memory:`` repositories cannot
        shard.
    config:
        Must carry ``segment_dir`` (the sharded layout root) and the
        ``shards`` count; ``shard_timeout_seconds`` bounds every worker
        round-trip.
    telemetry:
        Shared facade; built from ``config`` (and then owned) when
        omitted.  Workers run with telemetry disabled — the front owns
        every metric.
    clock:
        Injectable monotonic clock for deadlines and breakers.
    """

    def __init__(self, repository, config: SchemrConfig | None = None,
                 telemetry: Telemetry | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        self._config = config or SchemrConfig()
        if self._config.segment_dir is None:
            raise ServiceError(
                "sharded serving requires segment_dir (the sharded "
                "segment layout workers mmap)")
        db_path = getattr(repository, "path", ":memory:")
        if db_path == ":memory:":
            raise ServiceError(
                "sharded serving requires a file-backed repository; "
                "workers open their own database connections")
        self._clock = clock or time.monotonic
        self._owns_telemetry = telemetry is None
        self._telemetry = telemetry or Telemetry.from_config(self._config)
        self._repository = repository
        self._indexer = repository.indexer(
            segment_dir=self._config.segment_dir,
            merge_policy=self._config.merge_policy,
            shards=self._config.shards)
        if self._indexer.telemetry is None:
            self._indexer.telemetry = self._telemetry
        self._indexer.refresh()
        index = self._indexer.index
        if not isinstance(index, ShardedSegmentIndex):
            raise ServiceError(
                f"{self._config.segment_dir} is not a sharded layout; "
                "rebuild it with shards set (schemr index --shards N)")
        if index.shard_count != self._config.shards:
            raise ServiceError(
                f"{self._config.segment_dir} holds "
                f"{index.shard_count} shard(s) but config requests "
                f"{self._config.shards}; a layout's shard count is "
                "fixed at creation")
        self._index = index
        fuzzy = None
        if self._config.use_fuzzy_expansion:
            from repro.index.fuzzy import TrigramIndex
            fuzzy = TrigramIndex.from_terms(index.vocabulary())
        self._fuzzy_generation = index.generation
        query_cache = None
        if self._config.query_cache_size > 0:
            from repro.index.cache import QueryCache
            query_cache = QueryCache(self._config.query_cache_size)
        self._searcher = IndexSearcher(
            index, use_coordination=self._config.use_coordination,
            fuzzy=fuzzy, query_cache=query_cache)
        self._ladder = DegradationLadder(
            reduced_pool_fraction=self._config.degrade_reduced_pool_fraction,
            name_only_fraction=self._config.degrade_name_only_fraction,
            phase1_fraction=self._config.degrade_phase1_fraction)
        # Workers run the same pipeline knobs minus everything the
        # front owns: telemetry, history, fuzzy expansion (the prepared
        # query already carries the expansions), budgets (per-request),
        # and of course sharding itself.
        self._worker_config = dataclasses.replace(
            self._config, telemetry_enabled=False, history_path=None,
            use_fuzzy_expansion=False, match_workers=1, shards=1,
            segment_dir=None, search_budget_seconds=None)
        specs = [
            WorkerSpec(shard_id=i, shard_count=index.shard_count,
                       db_path=db_path, shard_dir=str(shard_dir),
                       config=self._worker_config)
            for i, shard_dir in enumerate(index.shard_dirs)
        ]
        self._pool = WorkerPool(
            specs,
            breaker_failure_threshold=self._config.breaker_failure_threshold,
            breaker_reset_seconds=self._config.breaker_reset_seconds,
            clock=self._clock)
        self._qid_lock = threading.Lock()
        self._next_qid = 1
        self._epoch_lock = threading.Lock()
        self._served_generation = index.generation
        self._reopening = False
        self._fallback_lock = threading.Lock()
        self._fallback_engine: SchemrEngine | None = None
        self._closed = False
        self.last_trace: PipelineTrace | None = None
        self.last_profile: QueryProfile | None = None
        self._thread_profile = threading.local()
        self._register_instruments()

    # -- telemetry wiring ----------------------------------------------

    def _register_instruments(self) -> None:
        """Resolve hot-path instruments and wire per-shard gauges.

        The engine-level families are the same ones
        :class:`SchemrEngine` exports, so dashboards work unchanged;
        the ``schemr_shard_*`` families add the per-worker view.
        """
        m = self._telemetry.metrics
        self._m_searches = m.counter(
            "schemr_searches_total", "Searches executed")
        self._m_search_seconds = m.histogram(
            "schemr_search_seconds", "End-to-end search latency")
        self._m_phase = {
            name: m.histogram("schemr_phase_seconds",
                              "Per-phase wall time", phase=name)
            for name in (PHASE_PARSE, PHASE_CANDIDATES, PHASE_MATCHING,
                         PHASE_TIGHTNESS)
        }
        self._m_candidates = m.histogram(
            "schemr_phase1_candidates", "Phase-1 candidates per query",
            buckets=DEFAULT_COUNT_BUCKETS)
        self._m_results = m.counter(
            "schemr_results_total", "Results returned")
        self._m_docs_scored = m.counter(
            "schemr_phase1_docs_scored_total",
            "Documents entering the phase-1 accumulator")
        self._m_pruned_early = m.counter(
            "schemr_phase1_pruned_early_total",
            "Queries where MaxScore pruning reached AND-mode")
        self._m_slow = m.counter(
            "schemr_slow_queries_total",
            "Searches above the slow-query threshold")
        self._m_degraded = {
            level: m.counter("schemr_degraded_searches_total",
                             "Searches answered below full fidelity",
                             level=degradation_name(level))
            for level in (DEGRADE_REDUCED_POOL, DEGRADE_NAME_ONLY,
                          DEGRADE_PHASE1_ONLY)
        }
        self._m_deadline_expired = m.counter(
            "schemr_deadline_expired_total",
            "Searches whose wall-clock budget ran out mid-pipeline")
        self._m_shard_wait = {
            phase: m.histogram("schemr_shard_wait_seconds",
                               "Front wait per worker round-trip",
                               phase=phase)
            for phase in ("phase1", "phase2")
        }
        self._m_degraded_merges = m.counter(
            "schemr_shard_degraded_merges_total",
            "Queries merged without every shard (served via local repair)")
        self._m_hung = m.counter(
            "schemr_shard_hung_workers_total",
            "Workers terminated because they stopped answering")
        self._m_shard_requests = {
            sid: m.counter("schemr_shard_requests_total",
                           "Worker round-trips completed", shard=str(sid))
            for sid in range(self._index.shard_count)
        }
        if not m.enabled:
            return
        index = self._index
        m.gauge("schemr_index_documents", "Indexed documents",
                callback=lambda: index.document_count)
        m.gauge("schemr_index_terms", "Distinct index terms",
                callback=lambda: index.term_count)
        m.gauge("schemr_index_generation", "Index generation",
                callback=lambda: index.generation)
        m.gauge("schemr_segment_count", "Live mmapped segments",
                callback=lambda: index.segment_count)
        m.gauge("schemr_segment_mmap_bytes",
                "Bytes memory-mapped across live segments",
                callback=lambda: index.mmap_bytes)
        m.gauge("schemr_segment_delta_docs",
                "Documents in the in-memory delta segment",
                callback=lambda: index.delta_document_count)
        m.gauge("schemr_segment_deleted_docs",
                "Tombstoned documents awaiting a merge",
                callback=lambda: index.deleted_count)
        cache = self._searcher.query_cache
        if cache is not None:
            m.counter("schemr_query_cache_hits_total",
                      "Query-cache hits", callback=lambda: cache.hits)
            m.counter("schemr_query_cache_misses_total",
                      "Query-cache misses", callback=lambda: cache.misses)
            m.counter("schemr_query_cache_evictions_total",
                      "Query-cache LRU evictions",
                      callback=lambda: cache.evictions)
            m.counter("schemr_query_cache_stale_evictions_total",
                      "Query-cache stale-generation sweeps",
                      callback=lambda: cache.stale_evictions)
            m.gauge("schemr_query_cache_entries",
                    "Query-cache live entries",
                    callback=lambda: len(cache))
        for sid in range(index.shard_count):
            handle = self._pool.workers[sid]
            shard = index.shard(sid)
            m.gauge("schemr_shard_up",
                    "Whether the shard's worker is serving (1) or not (0)",
                    callback=lambda h=handle:
                        1.0 if h.state == STATE_READY else 0.0,
                    shard=str(sid))
            m.gauge("schemr_shard_documents",
                    "Documents owned by the shard",
                    callback=lambda s=shard: s.document_count,
                    shard=str(sid))
            m.counter("schemr_shard_restarts_total",
                      "Times the shard's worker process was respawned",
                      callback=lambda h=handle: h.restarts,
                      shard=str(sid))

    def _count_failure(self, shard_id: int, kind: str) -> None:
        self._telemetry.metrics.counter(
            "schemr_shard_failures_total",
            "Worker round-trips that failed, by kind",
            shard=str(shard_id), kind=kind).inc()

    # -- properties the server and tests use ---------------------------

    @property
    def config(self) -> SchemrConfig:
        return self._config

    @property
    def searcher(self) -> IndexSearcher:
        """The front's searcher over the union index (suggest, repair)."""
        return self._searcher

    @property
    def telemetry(self) -> Telemetry:
        return self._telemetry

    @property
    def index(self) -> ShardedSegmentIndex:
        return self._index

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    @property
    def breakers(self) -> dict:
        """Engine-level breakers: none.

        The per-shard breakers intentionally do not surface here — the
        readiness probe treats any open engine breaker as not-ready,
        but a pool serving degraded from the survivors (with local
        repair keeping the bytes identical) *is* ready.  Per-shard
        health is exported via :meth:`shard_status` instead.
        """
        return {}

    @property
    def thread_profile(self) -> QueryProfile | None:
        """The calling thread's most recent search profile."""
        return getattr(self._thread_profile, "profile", None)

    @property
    def reopening(self) -> bool:  # lint: unlocked (GIL-atomic bool read for readiness reporting)
        """Whether a reopen broadcast is mid-flight (readiness input)."""
        return self._reopening

    def shard_status(self) -> list[dict]:
        """Per-shard health for ``/readyz`` and operators."""
        out = []
        for sid in range(self._index.shard_count):
            handle = self._pool.workers[sid]
            out.append({
                "shard": sid,
                "state": handle.state,
                "pid": handle.pid,
                "restarts": handle.restarts,
                "documents": self._index.shard(sid).document_count,
                "breaker": self._pool.breakers[sid].state,
            })
        return out

    def ready(self, handshake_timeout: float = 0.25) -> bool:
        """Whether the pool is past startup/reopen transitions.

        Opening workers are given a bounded chance to finish their
        handshake (they open in milliseconds).  Dead workers do *not*
        make the engine unready — the front serves their documents via
        local repair until the respawn lands — so this is "no shard is
        mid-transition", not "every shard is healthy".
        """
        if self._reopening:  # lint: unlocked (advisory readiness snapshot)
            return False
        for handle in self._pool.workers:
            if handle.state == "opening":
                if not handle.ensure_ready(handshake_timeout):
                    return False
        return True

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool, repair engine, and owned telemetry.

        Idempotent.  Workers that do not exit on request are terminated
        and counted as hung (``schemr_shard_hung_workers_total``) —
        the process-pool mirror of the server's hung-serve-thread
        accounting.  No orphans survive: worker processes are daemonic
        *and* explicitly joined here.
        """
        if self._closed:
            return
        self._closed = True
        outcomes = self._pool.shutdown(self._config.shard_timeout_seconds)
        for outcome in outcomes:
            if outcome != "clean":
                self._m_hung.inc()
                logger.warning("shard worker shutdown outcome: %s", outcome)
        with self._fallback_lock:
            fallback = self._fallback_engine
            self._fallback_engine = None
        if fallback is not None:
            fallback.close()
        if self._owns_telemetry:
            self._telemetry.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public API -----------------------------------------------------

    def search(self, keywords: str | list[str] | None = None,
               fragment: "str | Schema | list[str | Schema] | None" = None,
               top_n: int = 10, offset: int = 0) -> list[SearchResult]:
        """Search with raw user input; same contract as the single engine."""
        trace = PipelineTrace()
        deadline = Deadline(self._config.search_budget_seconds,
                            clock=self._clock)
        tracer = self._telemetry.tracer
        with tracer.span("search"):
            with timed_phase(trace, PHASE_PARSE) as phase, \
                    tracer.span(PHASE_PARSE):
                query = parse_query(keywords=keywords, fragment=fragment)
                phase.items_out = len(query)
            results = self._run(query, top_n, trace, offset, deadline)
        self.last_trace = trace
        return results

    def search_graph(self, query: QueryGraph, top_n: int = 10,
                     offset: int = 0) -> list[SearchResult]:
        """Search with a pre-built query graph."""
        if query.is_empty():
            raise QueryError("query graph is empty")
        trace = PipelineTrace()
        deadline = Deadline(self._config.search_budget_seconds,
                            clock=self._clock)
        with self._telemetry.tracer.span("search"):
            results = self._run(query, top_n, trace, offset, deadline)
        self.last_trace = trace
        return results

    # -- epoch sync -----------------------------------------------------

    def _sync_epoch(self) -> None:
        """Make the workers' view catch up with the union index.

        The union generation moves only on mutation, so the common case
        is one O(1) integer compare.  On change: flush the union (seals
        every shard's delta durably, preserving the change-log cursor),
        broadcast ``reopen`` so each worker swaps in a fresh mmap of
        its shard, and only then adopt the new generation — a query
        never scatters against workers serving the previous epoch.
        """
        if self._index.generation == self._served_generation:  # lint: unlocked (double-checked fast path; re-read under _epoch_lock below)
            return
        with self._epoch_lock:
            generation = self._index.generation
            if generation == self._served_generation:
                return
            self._reopening = True
            try:
                self._index.flush(
                    last_change_id=self._index.last_change_id)
                self._broadcast_reopen()
                self._served_generation = generation
            finally:
                self._reopening = False

    def _broadcast_reopen(self) -> None:  # lint: unlocked (caller holds self._epoch_lock)
        timeout = self._config.shard_timeout_seconds
        pending: list[tuple[int, int]] = []
        for sid in range(self._index.shard_count):
            handle = self._pool.workers[sid]
            # Opening workers must handshake first so the reopen is not
            # racing their initial manifest read.
            if handle.state == "opening" and not handle.ensure_ready(timeout):
                continue
            if handle.state != STATE_READY:
                continue  # dead/stopped: a respawn opens fresh anyway
            qid = self._qid()
            try:
                handle.send(TAG_REOPEN, qid, None)
            except ShardDied:
                self._count_failure(sid, "send")
                handle.respawn()
                continue
            pending.append((sid, qid))
        for sid, qid in pending:
            handle = self._pool.workers[sid]
            try:
                handle.collect(TAG_REOPEN, qid, timeout)
            except ShardDied:
                self._count_failure(sid, "died")
                handle.respawn()
            except (ShardTimeout, ShardError):
                # A worker that cannot reopen would keep serving the
                # stale epoch; replace it rather than risk torn reads.
                self._count_failure(sid, "timeout")
                self._m_hung.inc()
                handle.respawn()

    # -- scatter plumbing ------------------------------------------------

    def _qid(self) -> int:
        with self._qid_lock:
            qid = self._next_qid
            self._next_qid += 1
            return qid

    def _wait_budget(self, deadline: Deadline) -> float:
        timeout = self._config.shard_timeout_seconds
        if deadline.limited:
            timeout = min(timeout, max(deadline.remaining(), 0.001))
        return timeout

    def _handle_failure(self, shard_id: int, kind: str,
                        state: _QueryState) -> None:
        """Book a worker failure: breaker, metrics, respawn policy."""
        state.failed.add(shard_id)
        breaker = self._pool.breakers[shard_id]
        breaker.record_failure()
        self._count_failure(shard_id, kind)
        handle = self._pool.workers[shard_id]
        if kind in ("died", "send"):
            handle.respawn()
        elif kind == "timeout" and breaker.state == STATE_OPEN:
            # Enough consecutive stalls to trip the breaker: the worker
            # is wedged, not slow.  Same policy as the server's hung
            # serve-thread check, applied to a process.
            self._m_hung.inc()
            logger.warning("shard %d worker unresponsive; respawning",
                           shard_id)
            handle.respawn()

    def _handle_unusable(self, shard_id: int, state: _QueryState) -> None:
        """A shard excluded at the scatter gate.

        A worker found *dead* here (it died before ever answering —
        e.g. killed while still opening) still gets the died-respawn
        policy; a merely not-ready or breaker-excluded shard is only
        counted, its worker left alone.
        """
        if self._pool.workers[shard_id].state == STATE_DEAD:
            self._handle_failure(shard_id, "died", state)
            return
        state.failed.add(shard_id)
        self._count_failure(shard_id, "unavailable")

    def _ensure_fuzzy_current(self) -> None:
        fuzzy = self._searcher.fuzzy
        if fuzzy is None:
            return
        generation = self._index.generation
        if generation != self._fuzzy_generation:
            fuzzy.update_from(self._index.vocabulary())
            self._fuzzy_generation = generation

    def _fallback(self) -> SchemrEngine:
        """The local-repair engine over the union index, built lazily.

        Shares the repository's profile store and the worker config, so
        anything it scores produces exactly the floats a worker would
        have — repair changes latency, never bytes.
        """
        with self._fallback_lock:
            if self._fallback_engine is None:
                self._fallback_engine = SchemrEngine(
                    index=self._index,
                    source=self._repository.profile_store(),
                    config=self._worker_config, clock=self._clock)
            return self._fallback_engine

    # -- phase 1: scatter, merge, cache ---------------------------------

    def _phase1(self, flattened: list[str], deadline: Deadline,
                state: _QueryState) -> list[IndexHit]:
        self._sync_epoch()
        self._ensure_fuzzy_current()
        searcher = self._searcher
        prepared = searcher.prepare(flattened)
        pool_n = self._config.candidate_pool
        cache = searcher.query_cache
        generation = self._index.generation
        key = (prepared, pool_n, generation)
        if cache is not None:
            hits = cache.get(key)
            if hits is not None:
                state.strategy = searcher.strategy
                state.cache_hit = True
                return hits
        responses = self._scatter_phase1(prepared, pool_n, deadline, state)
        if len(responses) < self._index.shard_count:
            # One or more shards missing: repair locally against the
            # union — the exact global ranking, straight from the same
            # searcher that prepared the query (this also caches it).
            self._m_degraded_merges.inc()
            hits = searcher.search_prepared(prepared, top_n=pool_n)
            stats = searcher.last_stats
            if stats is not None:
                state.strategy = stats.strategy
                state.cache_hit = stats.cache_hit
                state.pruned_early = stats.pruned_early
                state.docs_scored = stats.docs_scored
            return hits
        all_hits: list[IndexHit] = []
        strategies: set[str] = set()
        for sid in sorted(responses):
            payload = responses[sid]
            all_hits.extend(payload["hits"])
            if payload["strategy"]:
                strategies.add(payload["strategy"])
            state.docs_scored += payload["docs_scored"]
            state.pruned_early = state.pruned_early or payload["pruned_early"]
        merged = heapq.nlargest(pool_n, all_hits, key=_merge_key)
        state.strategy = "+".join(sorted(strategies)) or searcher.strategy
        if cache is not None:
            # Only a full-fidelity merge may populate the cache; this
            # branch is unreachable otherwise (degraded pools repair
            # locally above), but keep the invariant explicit.
            cache.put(key, merged)
        return merged

    def _scatter_phase1(self, prepared, pool_n: int, deadline: Deadline,
                        state: _QueryState) -> dict[int, dict]:
        ready_timeout = self._config.shard_timeout_seconds
        sent: list[tuple[int, int]] = []
        for sid in range(self._index.shard_count):
            if not self._pool.usable(sid, ready_timeout):
                self._handle_unusable(sid, state)
                continue
            qid = self._qid()
            try:
                self._pool.workers[sid].send(
                    TAG_PHASE1, qid,
                    {"prepared": prepared, "top_n": pool_n})
            except ShardDied:
                self._handle_failure(sid, "send", state)
                continue
            sent.append((sid, qid))
        responses: dict[int, dict] = {}
        for sid, qid in sent:
            handle = self._pool.workers[sid]
            started = self._clock()
            try:
                payload = handle.collect(TAG_PHASE1, qid,
                                         self._wait_budget(deadline))
            except ShardTimeout:
                self._handle_failure(sid, "timeout", state)
            except ShardDied:
                self._handle_failure(sid, "died", state)
            except ShardError:
                self._handle_failure(sid, "error", state)
            else:
                self._pool.breakers[sid].record_success()
                self._m_shard_requests[sid].inc()
                self._m_shard_wait["phase1"].observe(
                    self._clock() - started)
                responses[sid] = payload
        return responses

    # -- phase 2: bucket, scatter, repair -------------------------------

    def _phase2(self, query: QueryGraph, pool: list[IndexHit],
                deadline: Deadline, cheap_only: bool,
                state: _QueryState) -> list[SearchResult]:
        """Phases 2+3 work across the workers; unsorted concatenation.

        Raises exactly what the single engine's inner pipeline would:
        :class:`DeadlineExceeded` when any shard's budget died mid-pool
        and :class:`CircuitOpenError` when the schema source failed for
        every candidate everywhere.
        """
        shard_count = self._index.shard_count
        buckets: dict[int, list[IndexHit]] = {}
        for hit in pool:
            buckets.setdefault(shard_of(hit.doc_id, shard_count),
                               []).append(hit)
        budget = deadline.remaining() if deadline.limited else None
        ready_timeout = self._config.shard_timeout_seconds
        sent: list[tuple[int, int, list[IndexHit]]] = []
        repair: list[tuple[int, list[IndexHit]]] = []
        for sid in sorted(buckets):
            chunk = buckets[sid]
            if not self._pool.usable(sid, ready_timeout):
                self._handle_unusable(sid, state)
                repair.append((sid, chunk))
                continue
            qid = self._qid()
            try:
                self._pool.workers[sid].send(
                    TAG_PHASE2, qid,
                    {"query": query, "hits": chunk, "budget": budget,
                     "cheap_only": cheap_only})
            except ShardDied:
                self._handle_failure(sid, "send", state)
                repair.append((sid, chunk))
                continue
            sent.append((sid, qid, chunk))
        results: list[SearchResult] = []
        source_outage = False
        for sid, qid, chunk in sent:
            handle = self._pool.workers[sid]
            started = self._clock()
            try:
                payload = handle.collect(TAG_PHASE2, qid,
                                         self._wait_budget(deadline))
            except ShardTimeout:
                self._handle_failure(sid, "timeout", state)
                repair.append((sid, chunk))
            except ShardDied:
                self._handle_failure(sid, "died", state)
                repair.append((sid, chunk))
            except ShardError:
                self._handle_failure(sid, "error", state)
                repair.append((sid, chunk))
            else:
                self._pool.breakers[sid].record_success()
                self._m_shard_requests[sid].inc()
                self._m_shard_wait["phase2"].observe(
                    self._clock() - started)
                if payload["deadline_expired"]:
                    raise DeadlineExceeded(
                        f"shard {sid} exhausted the search budget in "
                        "the phase-2 candidate loop")
                if payload["all_failed"]:
                    # The shard's schema fetches all failed (a store
                    # outage seen from that process).  Mirror the
                    # single engine: candidates are skipped, and only
                    # a globally empty match raises.
                    source_outage = True
                else:
                    results.extend(payload["results"])
        if repair:
            self._m_degraded_merges.inc()
            fallback = self._fallback()
            for sid, chunk in repair:
                try:
                    results.extend(fallback.match_and_score(
                        query, chunk, deadline, cheap_only=cheap_only))
                except CircuitOpenError:
                    source_outage = True
        if not results and pool and source_outage:
            raise CircuitOpenError(
                "schema source failed for every candidate",
                breaker="schema_source")
        return results

    # -- pipeline --------------------------------------------------------

    def _run(self, query: QueryGraph, top_n: int, trace: PipelineTrace,
             offset: int = 0,
             deadline: Deadline | None = None) -> list[SearchResult]:
        if top_n <= 0:
            raise QueryError(f"top_n must be positive, got {top_n}")
        if offset < 0:
            raise QueryError(f"offset must be >= 0, got {offset}")
        if deadline is None:
            deadline = Deadline(self._config.search_budget_seconds,
                                clock=self._clock)
        tracer = self._telemetry.tracer
        state = _QueryState()

        with timed_phase(trace, PHASE_CANDIDATES) as phase, \
                tracer.span(PHASE_CANDIDATES):
            flattened = query.flatten()
            phase.items_in = len(flattened)
            FAULTS.hit("engine.phase1")
            hits = self._phase1(flattened, deadline, state)
            phase.items_out = len(hits)

        level = self._ladder.level_for(deadline)
        deadline_expired = deadline.expired()
        if level >= DEGRADE_PHASE1_ONLY:
            page = self._phase1_page(hits, top_n, offset)
            self._finish_search(flattened, trace, hits, len(hits), page,
                                top_n, offset, state, level=level,
                                deadline=deadline,
                                deadline_expired=deadline_expired)
            return page

        pool = hits
        if level >= DEGRADE_REDUCED_POOL:
            keep = max(top_n + offset, self._config.candidate_pool // 4)
            pool = hits[:keep]
        cheap_only = level >= DEGRADE_NAME_ONLY

        try:
            with timed_phase(trace, PHASE_MATCHING) as phase, \
                    tracer.span(PHASE_MATCHING):
                phase.items_in = len(pool)
                scored = self._phase2(query, pool, deadline, cheap_only,
                                      state)
                phase.items_out = len(scored)
            with timed_phase(trace, PHASE_TIGHTNESS) as phase, \
                    tracer.span(PHASE_TIGHTNESS):
                phase.items_in = len(scored)
                # Restore pool order (what a single engine's matcher
                # emits), then apply its stable final sort — the merged
                # page is byte-identical to single-process serving.
                position = {hit.doc_id: i for i, hit in enumerate(pool)}
                scored.sort(key=lambda r: position[r.schema_id])
                scored.sort(
                    key=lambda r: (-r.score, -r.coarse_score, r.name))
                page = scored[offset:offset + top_n]
                for result in page:
                    result.element_matches  # build the page's drill-ins
                phase.items_out = len(page)
        except DeadlineExceeded as exc:
            logger.warning("sharded search degraded to phase-1 "
                           "ranking: %s", exc)
            page = self._phase1_page(hits, top_n, offset)
            self._finish_search(flattened, trace, hits, len(hits), page,
                                top_n, offset, state,
                                level=DEGRADE_PHASE1_ONLY,
                                deadline=deadline, deadline_expired=True)
            return page
        except CircuitOpenError as exc:
            logger.warning("sharded search degraded to phase-1 ranking "
                           "(breaker %s open)", exc.breaker)
            page = self._phase1_page(hits, top_n, offset)
            self._finish_search(flattened, trace, hits, len(hits), page,
                                top_n, offset, state,
                                level=DEGRADE_PHASE1_ONLY,
                                deadline=deadline,
                                deadline_expired=deadline.expired())
            return page
        self._finish_search(flattened, trace, hits, len(scored), page,
                            top_n, offset, state, level=level,
                            deadline=deadline,
                            deadline_expired=deadline.expired())
        return page

    def _phase1_page(self, hits: list[IndexHit], top_n: int,
                     offset: int) -> list[SearchResult]:
        """The ``phase1_only`` fallback page (same bytes as the engine's)."""
        return [
            SearchResult(
                schema_id=hit.doc_id,
                name=hit.title,
                score=hit.score,
                match_count=hit.matched_terms,
                entity_count=0,
                attribute_count=0,
                coarse_score=hit.score,
            )
            for hit in hits[offset:offset + top_n]
        ]

    def _finish_search(self, flattened: list[str], trace: PipelineTrace,
                       hits: list[IndexHit], matched_count: int,
                       results: list[SearchResult], top_n: int,
                       offset: int, state: _QueryState, level: int = 0,
                       deadline: Deadline | None = None,
                       deadline_expired: bool = False) -> None:
        """Build the profile (with the shard stamp) and feed telemetry."""
        empty_reason = None
        if not results:
            if not hits:
                empty_reason = EMPTY_NO_INDEX_HITS
            elif matched_count == 0:
                empty_reason = EMPTY_ALL_FILTERED
            else:
                empty_reason = EMPTY_OFFSET_BEYOND
        shards_total = self._index.shard_count
        profile = QueryProfile(
            query_terms=tuple(flattened),
            started_at=self._telemetry.wall_clock() - trace.total_seconds,
            total_seconds=trace.total_seconds,
            phase_seconds={phase.name: phase.seconds
                           for phase in trace.phases},
            candidate_count=len(hits),
            matched_count=matched_count,
            result_count=len(results),
            top_n=top_n,
            offset=offset,
            strategy=state.strategy,
            cache_hit=state.cache_hit,
            pruned_early=state.pruned_early,
            docs_scored=state.docs_scored,
            empty_reason=empty_reason,
            degradation_level=level,
            degradation=degradation_name(level),
            deadline_expired=deadline_expired,
            budget_seconds=(deadline.budget_seconds
                            if deadline is not None else None),
            shards_total=shards_total,
            shards_used=shards_total - len(state.failed),
        )
        self.last_profile = profile
        self._thread_profile.profile = profile
        telemetry = self._telemetry
        if not telemetry.enabled:
            return
        self._m_searches.inc()
        if level > 0:
            counter = self._m_degraded.get(level)
            if counter is not None:
                counter.inc()
        if deadline_expired:
            self._m_deadline_expired.inc()
        self._m_search_seconds.observe(profile.total_seconds)
        for name, seconds in profile.phase_seconds.items():
            hist = self._m_phase.get(name)
            if hist is not None:
                hist.observe(seconds)
        self._m_candidates.observe(profile.candidate_count)
        self._m_results.inc(profile.result_count)
        self._m_docs_scored.inc(profile.docs_scored)
        if profile.pruned_early:
            self._m_pruned_early.inc()
        telemetry.metrics.counter(
            "schemr_phase1_queries_total", "Phase-1 retrievals by path",
            strategy=profile.strategy or "unknown",
            cache="hit" if profile.cache_hit else "miss").inc()
        if profile.empty_reason is not None:
            telemetry.metrics.counter(
                "schemr_empty_results_total",
                "Empty result pages by reason",
                reason=profile.empty_reason).inc()
        if telemetry.profiles.record(profile):
            self._m_slow.inc()
            logger.warning(
                "slow query (%.1f ms >= %.1f ms): terms=%s candidates=%d "
                "results=%d", profile.total_seconds * 1000.0,
                telemetry.profiles.slow_threshold_seconds * 1000.0,
                " ".join(profile.query_terms), profile.candidate_count,
                profile.result_count)
        if telemetry.history is not None:
            telemetry.history.record(profile.query_terms, results,
                                     total_seconds=profile.total_seconds)
