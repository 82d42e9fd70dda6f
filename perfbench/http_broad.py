"""``http_broad``: distinct noisy queries over HTTP against ~20k schemas.

``schemr serve`` runs in its own process over a segment-mode index; the
benchmark drives it through ``SchemrClient`` in an open loop: a fixed
Poisson schedule at a fixed offered rate, dispatched over
:data:`CONNECTIONS` connections.  Every query is distinct and drawn from
all five noise channels, so the query cache misses and phase 1 does
real work; the HTTP front end and the XML serialization are in the
path.  Latency is measured from each request's due time.

The server runs on one CPU and the benchmark on the other (one CPU for
both where only one is usable).  A :class:`perfbench.speed.Calibrator`
shares the server's CPU at idle priority, so each request's latency can
be scaled by the speed of that CPU around the time it was served.

The 20k-schema repository and its segment directory are built once per
checkout (keyed by a digest of the program sources) and copied for each
run; ``setup_s`` here is server start until ``/readyz`` answers 200.
Ingest and index build are measured by the other two workloads.
"""

from __future__ import annotations

import gc
import os
import queue
import select
import shutil
import subprocess
import sys
import threading
import time
import traceback
import urllib.error
import urllib.request
from pathlib import Path

import repro.service.client as client_module
from repro.core.config import SchemrConfig
from repro.errors import ServiceError
from repro.eval.metrics import precision_at_k
from repro.repository.store import SchemaRepository
from repro.service.client import SchemrClient
from repro.service.xmlresponse import parse_results_xml, results_to_xml

from perfbench.common import (CACHE_DIR, ROOT, RunResult, SRC, WORK_DIR,
                              disk_mb, fresh_dir, peak_rss_mb,
                              repository_files, source_digest)
from perfbench.inproc import (SETUPS, SLO_SECONDS, TRACE_BLOCK, Reader,
                              hook_matchers, hook_profile_store,
                              overhead_share)
from perfbench.inputs import (LARGE_RAW, TOP_N, broad_queries,
                              check_numbering, make_corpus,
                              poisson_arrivals, shuffled)
from perfbench.metrics import end_to_end_metrics
from perfbench.speed import Calibrator, Gauge, cpus, local_factors, pinned
from perfbench.speed import record as speed_record
from perfbench.spans import SpanRecorder, attribute
from perfbench.stats import (ERROR, MISMATCH, OK, REFUSED, TIMEOUT,
                             UNAVAILABLE, Ledger, ledger_record,
                             run_is_correct, summarize)

#: Offered load.  The server, on one CPU, sustained ~39 distinct broad
#: searches/s over two connections at the reference speed of
#: :mod:`perfbench.speed` at the commit that introduced this benchmark
#: (~29/s on the slowest phase seen).  10/s is 25-35% of that: at 15/s
#: two requests overlapped so often that the tail of a run depended on
#: how its seed bunched the arrivals more than on the program.
RATE_PER_SECOND = 10.0
CONNECTIONS = 2
#: The arrival schedule is one fixed draw of the Poisson process, like
#: the fixed query pool; the workload seed picks which query arrives
#: when.  With ~150 arrivals a run, the tail of a schedule drawn from
#: the workload seed depended on how bunched that schedule happened to
#: be more than on the program (tail spreads of 0.12-0.30 across seeds).
ARRIVALS_SEED = 31
WARMUP_QUERIES = 60
REQUEST_TIMEOUT_S = 10.0
#: Generator lateness tail above which a run is flagged as behind.
LATE_FLAG_S = 0.010
STARTUP_TIMEOUT_S = 120.0
#: Kernel samples on the server's CPU before and after each start.
SETUP_KERNELS = 20
CLIENT_ROOT = "http.search"
PHASES = ("query_parse", "candidate_extraction", "schema_matching",
          "tightness_of_fit")
#: Layers the server does not export; a traced run takes them from the
#: in-process reference pass over the same queries.
IN_PROCESS_LAYERS = ("matching.name.ms", "matching.context.ms",
                     "matching.profile_store.ms",
                     "core.match_and_score.self_ms", "core.candidates")


# -- the served repository ------------------------------------------------

def built_repository(corpus) -> Path:
    """The cached 20k repository + segment directory, built if missing."""
    target = CACHE_DIR / f"http_broad-{source_digest()[:16]}"
    if (target / "DONE").exists():
        return target
    staging = fresh_dir(CACHE_DIR / f"{target.name}.building")
    repository = SchemaRepository(staging / "repository.db")
    try:
        for generated in corpus:
            repository.add_schema(generated.schema)
        repository.indexer(segment_dir=str(staging / "segments")).refresh()
        check_numbering(corpus, repository.list_schema_ids())
    finally:
        repository.close()
    (staging / "DONE").write_text("built\n", encoding="ascii")
    shutil.rmtree(target, ignore_errors=True)
    staging.rename(target)
    return target


class Server:
    """One ``schemr serve`` process."""

    def __init__(self, directory: Path, log) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             str(directory / "repository.db"),
             "--segment-dir", str(directory / "segments"), "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
            text=True)
        try:
            self.url = self._read_url(started + STARTUP_TIMEOUT_S)
            self._wait_ready(started + STARTUP_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.startup_seconds = time.perf_counter() - started

    def _read_url(self, deadline: float) -> str:
        stdout = self.process.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.1)
            if ready:
                line = stdout.readline()
                if not line:
                    raise RuntimeError("schemr serve exited before "
                                       "announcing its address")
                return line.strip().split()[-1]
        raise RuntimeError("schemr serve did not announce its address")

    def _wait_ready(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("schemr serve exited during start-up")
            try:
                with urllib.request.urlopen(f"{self.url}/readyz",
                                            timeout=5) as response:
                    if response.status == 200:
                        return
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.005)
        raise RuntimeError("schemr serve never became ready")

    def metrics(self) -> dict[str, float]:
        with urllib.request.urlopen(f"{self.url}/metrics",
                                    timeout=10) as response:
            text = response.read().decode("utf-8")
        return parse_prometheus(text)

    def stop(self) -> None:
        process = self.process
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()


def parse_prometheus(text: str) -> dict[str, float]:
    """Sample line -> value (``name{labels}`` as written)."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


# -- the open loop ----------------------------------------------------------

def classify(exc: BaseException) -> str:
    if isinstance(exc, ServiceError):
        if exc.status == 429:
            return REFUSED
        if exc.status == 503:
            return UNAVAILABLE
        cause = exc.__cause__
        reason = getattr(cause, "reason", cause)
        if isinstance(reason, TimeoutError):
            return TIMEOUT
    return ERROR


class OpenLoop:
    """Poisson-scheduled requests over a fixed set of connections."""

    def __init__(self, url: str, queries, offsets: list[float],
                 recorder: SpanRecorder | None) -> None:
        self._url = url
        self._queries = queries
        self._offsets = offsets
        self._recorder = recorder
        count = len(queries)
        self.due = [0.0] * count
        self.dispatched = [0.0] * count
        self.sent = [0.0] * count
        self.done = [0.0] * count
        self.status = [OK] * count
        self.pages: list[list | None] = [None] * count
        self.traced = [False] * count
        self.errors: list[str] = []
        self._queue: queue.Queue = queue.Queue()

    def run(self) -> float:
        start = time.perf_counter()
        workers = [threading.Thread(target=self._work,
                                    name=f"perfbench-conn{i}")
                   for i in range(CONNECTIONS)]
        for worker in workers:
            worker.start()
        try:
            for index, offset in enumerate(self._offsets):
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.due[index] = due
                self.dispatched[index] = time.perf_counter()
                self._queue.put(index)
        finally:
            for _ in workers:
                self._queue.put(None)
            for worker in workers:
                worker.join()
        return start

    def _work(self) -> None:
        client = SchemrClient(self._url, timeout=REQUEST_TIMEOUT_S,
                              retry_policy=None)
        while True:
            index = self._queue.get()
            if index is None:
                return
            query = self._queries[index]
            traced = (self._recorder is not None
                      and (index // TRACE_BLOCK) % 2 == 1)
            self.traced[index] = traced
            self.sent[index] = time.perf_counter()
            try:
                if traced:
                    with self._recorder.request(CLIENT_ROOT):
                        page = client.search(query.keywords, top_n=TOP_N)
                else:
                    page = client.search(query.keywords, top_n=TOP_N)
                self.pages[index] = page
            except Exception as exc:  # counted per request, never fatal
                self.status[index] = classify(exc)
                if len(self.errors) < 5:
                    self.errors.append(traceback.format_exc())
            self.done[index] = time.perf_counter()


# -- the run ------------------------------------------------------------------

def _delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def server_layers(before: dict, after: dict) -> tuple[dict, dict]:
    """Per-layer metrics from two ``/metrics`` scrapes."""
    searches = _delta(before, after, "schemr_search_seconds_count")
    def per(value: float) -> float:
        return value / searches * 1000.0 if searches else 0.0

    phases = {
        phase: per(_delta(before, after,
                          f'schemr_phase_seconds_sum{{phase="{phase}"}}'))
        for phase in PHASES}
    hits = _delta(before, after, "schemr_query_cache_hits_total")
    misses = _delta(before, after, "schemr_query_cache_misses_total")
    profile_hits = _delta(before, after, "schemr_profile_cache_hits_total")
    profile_misses = _delta(before, after,
                            "schemr_profile_cache_misses_total")
    layers = {
        "service.server_search_ms":
            per(_delta(before, after, "schemr_search_seconds_sum")),
        "parsers.parse_query.ms": phases["query_parse"],
        "index.search.ms": phases["candidate_extraction"],
        "index.docs_scored":
            _delta(before, after, "schemr_phase1_docs_scored_total")
            / searches if searches else 0.0,
        "index.query_cache.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "matching.profile_store.hit_ratio":
            profile_hits / (profile_hits + profile_misses)
            if profile_hits + profile_misses else 0.0,
        "matching.profile_store.misses_per_search":
            profile_misses / searches if searches else 0.0,
        "matching.profile_store.evictions":
            _delta(before, after, "schemr_profile_cache_evictions_total"),
        "resilience.admission.rejected":
            _delta(before, after, "schemr_admission_rejected_total"),
        "resilience.admission.timeouts":
            _delta(before, after, "schemr_admission_timeouts_total"),
    }
    for phase, value in phases.items():
        layers[f"service.server_phase.{phase}_ms"] = value
    return layers, {"server_searches": searches,
                    "query_cache_lookups": hits + misses,
                    "profile_store_lookups": profile_hits + profile_misses}


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    corpus = make_corpus(LARGE_RAW)
    count = max(1, round(RATE_PER_SECOND * seconds))
    queries = broad_queries(corpus, WARMUP_QUERIES + count)
    warmup = queries[:WARMUP_QUERIES]
    measured = shuffled(queries[WARMUP_QUERIES:], seed)
    offsets = poisson_arrivals(ARRIVALS_SEED, count, seconds)
    cached = built_repository(corpus)
    kept = len(corpus)
    del corpus
    work = fresh_dir(WORK_DIR / "http_broad")
    served = work / "served"
    shutil.copytree(cached, served)
    recorder = SpanRecorder() if trace else None

    server_cpu, client_cpu = cpus()
    setup_times, setup_raw, setup_factors = [], [], []
    with open(work / "server.log", "w", encoding="utf-8") as log, \
            pinned(client_cpu):
        server = calibrator = None
        try:
            for _ in range(SETUPS):
                if server is not None:
                    server.stop()
                with pinned(server_cpu):
                    gauge = Gauge()
                    gauge.sample(SETUP_KERNELS)
                    server = Server(served, log)
                    gauge.sample(SETUP_KERNELS)
                setup_raw.append(server.startup_seconds)
                setup_factors.append(gauge.factor())
                setup_times.append(server.startup_seconds * gauge.factor())
            with pinned(server_cpu):
                calibrator = Calibrator(server_cpu, ROOT)
            warm_client = SchemrClient(server.url, timeout=REQUEST_TIMEOUT_S,
                                       retry_policy=None)
            for query in warmup:
                warm_client.search(query.keywords, top_n=TOP_N)
            if recorder is not None:
                client_module.parse_results_xml = recorder.wrap(
                    "service.parse_results_xml", parse_results_xml)
            gc.collect()
            before = server.metrics()
            loop = OpenLoop(server.url, measured, offsets, recorder)
            try:
                start = loop.run()
            finally:
                client_module.parse_results_xml = parse_results_xml
            window = max(loop.done) - start
            after = server.metrics()
            rss = peak_rss_mb(server.process.pid)
            calibration = calibrator.stop()
        finally:
            if calibrator is not None:
                calibrator.kill()
            if server is not None:
                server.stop()

    ledger = Ledger(SLO_SECONDS, failure_latency=seconds)
    for index, query in enumerate(measured):
        ledger.record(query.key, loop.due[index],
                      loop.done[index] - loop.due[index], loop.status[index])

    reference_pages, reference_reader = reference(served, measured,
                                                  recorder)
    mismatched = []
    precision = 0.0
    for index, query in enumerate(measured):
        page = loop.pages[index]
        if page is None:
            continue
        expected = reference_pages[index]
        if expected is None or page != parse_results_xml(
                results_to_xml(expected, query=query.keywords)):
            mismatched.append(index)
            ledger.requests[index].status = MISMATCH
            continue
        precision += precision_at_k([r.schema_id for r in page],
                                    set(query.relevant), TOP_N)

    answered = ledger.attempted - ledger.failed
    scales = local_factors([(r.started, r.started + r.latency)
                            for r in ledger.requests], calibration)
    end_to_end = end_to_end_metrics(
        setup_times, ledger, scales, answered / window,
        precision / len(measured), rss,
        disk_mb(*repository_files(served / "repository.db"),
                served / "segments"))
    lateness = [loop.dispatched[i] - loop.due[i] for i in range(count)]
    late = summarize(lateness)
    layers, server_record = server_layers(before, after)
    record = {
        "corpus": {"raw": LARGE_RAW, "kept": kept},
        "offered_rate_per_s": RATE_PER_SECOND, "connections": CONNECTIONS,
        "loop": "open (fixed Poisson schedule, latency from due time)",
        "arrivals_seed": ARRIVALS_SEED,
        "setup_seconds": setup_times,
        "setup": {"raw_seconds": setup_raw, "speed_factors": setup_factors},
        "cpus": {"server": server_cpu, "client": client_cpu},
        "speed": speed_record(calibration, scales),
        "window_seconds": window,
        "generator_lateness_ms": {
            **late.as_dict(scale=1000.0),
            "max": max(lateness) * 1000.0,
            "flag_threshold_ms": LATE_FLAG_S * 1000.0},
        "generator_behind": late.tail > LATE_FLAG_S,
        "connection_wait_ms": summarize(
            loop.sent[i] - loop.due[i] for i in range(count)
        ).as_dict(scale=1000.0),
        "server_counters": server_record,
        "mismatched_requests": len(mismatched),
        "errors": loop.errors,
    }
    if recorder is not None:
        client = client_layers(loop, recorder, layers)
        in_process, table = reference_reader.layer_metrics()
        record["in_process_attribution"] = table
        record["layer_sources"] = {
            "server /metrics deltas": sorted(layers),
            "client spans": sorted(client),
            "in-process traced reference pass": list(IN_PROCESS_LAYERS),
        }
        layers.update(client)
        layers.update((name, in_process[name]) for name in IN_PROCESS_LAYERS)
    record["requests"] = ledger_record(ledger)
    return RunResult(
        correct=run_is_correct(ledger), attempted=ledger.attempted,
        failed=ledger.failed, end_to_end=end_to_end, per_layer=layers,
        record=record, spans=recorder)


def client_layers(loop: OpenLoop, recorder: SpanRecorder,
                  server: dict) -> dict:
    """Client-side split of the traced requests' service time."""
    attribution = attribute(recorder.spans, CLIENT_ROOT)
    n = attribution.requests
    client_ms = attribution.total / n * 1000.0 if n else 0.0
    xml_ms = attribution.per_request_ms("service.parse_results_xml")
    server_ms = server["service.server_search_ms"]
    phases_ms = sum(server[f"service.server_phase.{phase}_ms"]
                    for phase in PHASES)
    service = [(loop.done[i] - loop.sent[i], loop.traced[i])
               for i in range(len(loop.done)) if loop.status[i] == OK]
    overhead = overhead_share([s for s, t in service if t],
                              [s for s, t in service if not t])
    return {
        "service.parse_results_xml_ms": xml_ms,
        "service.front_ms": client_ms - xml_ms - server_ms,
        "trace.unattributed_share":
            (server_ms - phases_ms) / client_ms if client_ms else 0.0,
        "trace.overhead_share": overhead,
    }


def reference(served: Path, measured, recorder: SpanRecorder | None):
    """In-process pages for the measured queries over the same files
    (None where the in-process search itself failed).

    In a traced run the pass runs layer by layer inside spans, which
    gives the split of matching time the server does not export.
    """
    repository = SchemaRepository(served / "repository.db")
    engine = None
    try:
        if recorder is not None:
            hook_profile_store(repository, recorder)
        engine = repository.engine(
            config=SchemrConfig(segment_dir=str(served / "segments")))
        if recorder is not None:
            hook_matchers(engine, recorder)
        reader = Reader(engine, recorder)
        for query in measured:
            reader.search(query, traced=recorder is not None)
        return reader.pages, reader
    finally:
        if engine is not None:
            engine.close()
        repository.close()
