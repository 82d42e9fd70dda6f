"""In-process pieces shared by ``zipf_warm`` and ``write_mix``.

Set-up builds a repository and an engine through the public API.  The
reader drives ``SchemrEngine.search`` in a closed loop; in a traced run
it alternates blocks of untraced ``search`` calls with blocks that run
the same three phases layer by layer (``parse_query`` ->
``searcher.search`` -> ``match_and_score`` -> rank and page) inside
spans, so per-layer self times can be attributed and the difference
between the two kinds of block is the tracing overhead.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
import traceback
from dataclasses import replace
from pathlib import Path

from repro.core.config import SchemrConfig
from repro.core.engine import SchemrEngine
from repro.eval.metrics import precision_at_k
from repro.parsers.query_parser import parse_query
from repro.repository.store import SchemaRepository

from perfbench.common import fresh_dir
from perfbench.inputs import TOP_N, Query
from perfbench.speed import Gauge, SetupClock, local_factors
from perfbench.spans import SpanRecorder, attribute
from perfbench.stats import ERROR, OK, Ledger

#: The repo's own slow-query threshold (``SchemrConfig`` default).
SLO_SECONDS = SchemrConfig().slow_query_seconds
#: Searches per traced/untraced block in a traced run.
TRACE_BLOCK = 8
#: The root span of a traced search, and the layer spans under it.
ROOT = "search"
LAYER_SPANS = ("parsers.parse_query", "index.search",
               "core.match_and_score", "matching.profile_store",
               "matching.name", "matching.context")
#: Set-ups per run; setup_s is their median.
SETUPS = 3


def hook_profile_store(repository: SchemaRepository,
                       recorder: SpanRecorder) -> None:
    """Span the ProfileStore getters.  Must run before the engine is
    built: the engine binds ``get_profile`` once, at construction."""
    store = repository.profile_store()
    for method in ("get_profile", "get_schema"):
        setattr(store, method, recorder.wrap(
            "matching.profile_store", getattr(store, method)))


def hook_matchers(engine: SchemrEngine, recorder: SpanRecorder) -> None:
    for matcher in engine.ensemble.matchers:
        matcher.match = recorder.wrap(f"matching.{matcher.name}",
                                      matcher.match)


def layered_search(engine: SchemrEngine, recorder: SpanRecorder,
                   query: Query) -> tuple[list, int]:
    """``engine.search`` phase by phase, one span per layer call.

    Returns the page and the phase-1 pool size.  The ranking rule is the
    engine's own (score, coarse score, name); the zipf_warm trace run
    checks that the pages equal ``engine.search``'s.
    """
    with recorder.span("parsers.parse_query"):
        graph = parse_query(keywords=query.keywords,
                            fragment=query.fragment)
    terms = graph.flatten()
    with recorder.span("index.search"):
        hits = engine.searcher.search(
            terms, top_n=engine.config.candidate_pool)
    with recorder.span("core.match_and_score"):
        scored = engine.match_and_score(graph, hits)
    scored.sort(key=lambda r: (-r.score, -r.coarse_score, r.name))
    return scored[:TOP_N], len(hits)


class Reader:
    """Closed-loop searcher over one engine; records every request."""

    def __init__(self, engine: SchemrEngine,
                 recorder: SpanRecorder | None = None,
                 failure_latency: float = 60.0,
                 gauge: Gauge | None = None) -> None:
        self.engine = engine
        self.recorder = recorder
        #: Samples the speed kernel after every search when given.
        self.gauge = gauge
        self.ledger = Ledger(SLO_SECONDS, failure_latency)
        self.queries: list[Query] = []
        self.pages: list[list | None] = []
        self.traced: list[bool] = []
        self.candidates = 0
        self.docs_scored = 0
        self.errors: list[str] = []

    def search(self, query: Query, traced: bool = False) -> None:
        started = time.perf_counter()
        page = None
        try:
            if traced:
                with self.recorder.request(ROOT):
                    page, pool = layered_search(
                        self.engine, self.recorder, query)
                stats = self.engine.searcher.last_stats
                self.candidates += pool
                self.docs_scored += stats.docs_scored if stats else 0
            else:
                page = self.engine.search(
                    keywords=query.keywords, fragment=query.fragment,
                    top_n=TOP_N)
            status = OK
        except Exception:  # a failed search is counted, never fatal
            status = ERROR
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())
        latency = time.perf_counter() - started
        self.ledger.record(query.key, started, latency, status)
        self.queries.append(query)
        self.pages.append(page)
        self.traced.append(traced)

    def run(self, stream, seconds: float, count: int | None = None) -> None:
        """Search until ``seconds`` pass (or ``count`` searches ran)."""
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline:
            if count is not None and index >= count:
                break
            traced = (self.recorder is not None
                      and (index // TRACE_BLOCK) % 2 == 1)
            self.search(next(stream), traced)
            if self.gauge is not None:
                self.gauge.sample()
            index += 1

    # -- after the timed window ----------------------------------------

    def check_against(self, reference: SchemrEngine) -> set:
        """Keys whose recorded pages differ from ``reference``'s."""
        expected: dict = {}
        bad = set()
        for query, page in zip(self.queries, self.pages):
            if page is None:
                continue
            if query.key not in expected:
                expected[query.key] = reference.search(
                    keywords=query.keywords, fragment=query.fragment,
                    top_n=TOP_N)
            if page != expected[query.key]:
                bad.add(query.key)
        return bad

    def p_at_10(self) -> float:
        """Mean precision@10 over every attempted search (a failed
        search scores 0)."""
        if not self.queries:
            return 0.0
        total = 0.0
        for query, page, request in zip(self.queries, self.pages,
                                        self.ledger.requests):
            if page is not None and request.status == OK:
                total += precision_at_k([r.schema_id for r in page],
                                        set(query.relevant), TOP_N)
        return total / len(self.queries)

    def overhead_share(self) -> float:
        """Median traced over median untraced latency, minus one."""
        return overhead_share(
            [r.latency for r, t in zip(self.ledger.requests, self.traced)
             if t and r.status == OK],
            [r.latency for r, t in zip(self.ledger.requests, self.traced)
             if not t and r.status == OK])

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics from the traced blocks, plus the attribution
        table (ms per search and share of the total for each layer)."""
        attribution = attribute(self.recorder.spans, ROOT)
        n = attribution.requests
        metrics = {
            "parsers.parse_query.ms":
                attribution.per_request_ms("parsers.parse_query"),
            "index.search.ms": attribution.per_request_ms("index.search"),
            "index.docs_scored": self.docs_scored / n if n else 0.0,
            "matching.profile_store.ms":
                attribution.per_request_ms("matching.profile_store"),
            "matching.name.ms": attribution.per_request_ms("matching.name"),
            "matching.context.ms":
                attribution.per_request_ms("matching.context"),
            "core.match_and_score.self_ms":
                attribution.per_request_ms("core.match_and_score"),
            "core.candidates": self.candidates / n if n else 0.0,
            "trace.unattributed_share":
                attribution.share(ROOT),
            "trace.overhead_share": self.overhead_share(),
        }
        table = {
            "traced_searches": n,
            "total_ms_per_search": attribution.total / n * 1000.0
            if n else 0.0,
            "layers": {name: {"self_ms_per_search":
                              attribution.per_request_ms(name),
                              "share": attribution.share(name)}
                       for name in LAYER_SPANS + (ROOT,)},
        }
        table["layers"]["unattributed"] = table["layers"].pop(ROOT)
        return metrics, table


def overhead_share(traced: list[float], plain: list[float]) -> float:
    """Median traced over median untraced latency, minus one (0.0 when
    either side is empty).  Medians, because a collector pause landing
    in one kind of block would swing a mean."""
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1.0


def reference_engine(engine: SchemrEngine,
                     repository: SchemaRepository) -> SchemrEngine:
    """An engine over the same index and store with the query cache
    disabled."""
    return SchemrEngine(
        index=engine.searcher.index, source=repository.profile_store(),
        config=replace(engine.config, query_cache_size=0))


def counters(engine: SchemrEngine, repository: SchemaRepository) -> dict:
    cache = engine.searcher.query_cache
    store = repository.profile_store()
    return {"query_cache_hits": cache.hits if cache else 0,
            "query_cache_misses": cache.misses if cache else 0,
            "profile_hits": store.hits, "profile_misses": store.misses,
            "profile_evictions": store.evictions}


def cache_metrics(before: dict, after: dict,
                  searches: int) -> tuple[dict, dict]:
    """Cache per-layer metrics over a window, plus the raw deltas."""
    delta = {key: after[key] - before[key] for key in before}
    lookups = delta["query_cache_hits"] + delta["query_cache_misses"]
    profile_lookups = delta["profile_hits"] + delta["profile_misses"]
    return {
        "index.query_cache.hit_ratio":
            delta["query_cache_hits"] / lookups if lookups else 0.0,
        "matching.profile_store.hit_ratio":
            delta["profile_hits"] / profile_lookups
            if profile_lookups else 0.0,
        "matching.profile_store.misses_per_search":
            delta["profile_misses"] / searches if searches else 0.0,
        "matching.profile_store.evictions":
            float(delta["profile_evictions"]),
    }, {"query_cache_lookups": lookups,
        "profile_store_lookups": profile_lookups, **delta}


def close(engine: SchemrEngine, repository: SchemaRepository) -> None:
    engine.close()
    repository.close()


def timed_setups(build, run_root: Path) -> tuple[list[float], dict, tuple]:
    """Run ``build(directory, clock)`` :data:`SETUPS` times in fresh
    directories; ``build`` calls ``clock.tick()`` once per schema it
    ingests.

    Returns the set-up times at the reference speed, their raw record
    and the last build's result; the earlier builds are closed and their
    directories removed, and the collector runs before each timed build
    so every build starts from the same heap.
    """
    scaled, raw, factors = [], [], []
    built = None
    for attempt in range(SETUPS):
        directory = fresh_dir(run_root / f"setup{attempt}")
        if built is not None:
            close(built[0], built[1])
            shutil.rmtree(built[2], ignore_errors=True)
        gc.collect()
        with SetupClock() as clock:
            engine, repository = build(directory, clock)
        scaled.append(clock.scaled())
        raw.append(clock.raw)
        factors.append(clock.gauge.factor())
        built = (engine, repository, directory)
    return scaled, {"raw_seconds": raw, "speed_factors": factors}, built


def search_scales(ledger: Ledger, gauge: Gauge | None) -> list[float]:
    """Each search's factor to the reference speed (1.0 untimed)."""
    if gauge is None:
        return [1.0] * ledger.attempted
    return local_factors([(r.started, r.started + r.latency)
                          for r in ledger.requests], gauge.samples)
