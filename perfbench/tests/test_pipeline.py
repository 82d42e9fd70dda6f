"""The traced layer-by-layer pipeline answers exactly like the engine."""

import itertools

import pytest

from perfbench.inproc import (ROOT, Reader, hook_matchers,
                              hook_profile_store, layered_search)
from perfbench.inputs import catalog, make_corpus, zipf_stream
from perfbench.spans import SpanRecorder, attribute
from repro.repository.store import SchemaRepository


def test_layered_pages_equal_engine_search():
    corpus = make_corpus(400)
    query_catalog = catalog(corpus)
    recorder = SpanRecorder()
    repository = SchemaRepository(":memory:")
    hook_profile_store(repository, recorder)
    for generated in corpus:
        repository.add_schema(generated.schema)
    engine = repository.engine()
    try:
        hook_matchers(engine, recorder)
        queries = list(itertools.islice(zipf_stream(query_catalog, 1), 40))
        reader = Reader(engine, recorder)
        for query in queries:
            with recorder.request(ROOT):
                page, _ = layered_search(engine, recorder, query)
            assert page == engine.search(keywords=query.keywords,
                                         fragment=query.fragment)
            reader.search(query, traced=True)
        assert reader.ledger.failed == 0
        attribution = attribute(recorder.spans, ROOT)
        assert attribution.requests == 2 * len(queries)
        for name in ("parsers.parse_query", "index.search",
                     "core.match_and_score", "matching.profile_store",
                     "matching.name", "matching.context"):
            assert attribution.self_seconds.get(name, 0.0) > 0.0, name
        metrics, table = reader.layer_metrics()
        assert 0.0 <= metrics["trace.unattributed_share"] < 0.1
        assert sum(layer["share"] for layer in
                   table["layers"].values()) == pytest.approx(1.0)
    finally:
        engine.close()
        repository.close()
