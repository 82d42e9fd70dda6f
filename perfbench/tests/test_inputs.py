"""The same seed yields byte-identical query and write streams."""

import itertools
import json

import pytest

from perfbench.inputs import (Query, broad_queries, catalog, make_corpus,
                              poisson_arrivals, shuffled, write_batches,
                              zipf_stream)


def stream_bytes(items) -> bytes:
    """Canonical bytes of a query list or a write stream."""
    return json.dumps([item.as_dict() if isinstance(item, Query) else item
                       for item in items], sort_keys=True).encode("utf-8")


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(600)


def _zipf(corpus, seed, count=300):
    return list(itertools.islice(zipf_stream(catalog(corpus), seed), count))


def test_zipf_stream_is_byte_identical_per_seed(corpus):
    first = stream_bytes(_zipf(corpus, 5))
    assert first == stream_bytes(_zipf(make_corpus(600), 5))
    assert first != stream_bytes(_zipf(corpus, 6))


def test_zipf_stream_mixes_fragments_and_repeats(corpus):
    queries = _zipf(corpus, 5)
    with_fragment = sum(q.fragment is not None for q in queries)
    assert 0.2 < with_fragment / len(queries) < 0.4
    assert len({q.key for q in queries}) < len(queries) / 2
    assert all(q.relevant for q in queries)


def test_broad_stream_is_byte_identical_per_seed(corpus):
    pool = broad_queries(corpus, 80)
    assert stream_bytes(pool) == stream_bytes(broad_queries(corpus, 80))
    first = shuffled(pool, 3)
    assert stream_bytes(first) == stream_bytes(shuffled(pool, 3))
    assert stream_bytes(first) != stream_bytes(shuffled(pool, 4))
    assert sorted(q.keywords for q in first) == \
        sorted(q.keywords for q in pool)
    assert len({q.keywords for q in first}) == 80
    assert {q.channel for q in first} == {
        "clean", "abbreviated", "plural", "delimiter", "typo"}


def test_arrivals_are_seeded_and_fill_the_window():
    arrivals = poisson_arrivals(9, 120, 10.0)
    assert arrivals == poisson_arrivals(9, 120, 10.0)
    assert arrivals != poisson_arrivals(10, 120, 10.0)
    assert arrivals == sorted(arrivals)
    assert len(arrivals) == 120
    assert 0.0 <= arrivals[0] and arrivals[-1] <= 10.0


def test_write_stream_is_byte_identical_and_targets_live_schemas(corpus):
    first = write_batches(corpus, 2, batches=20, batch_size=12)
    assert stream_bytes(first) == stream_bytes(
        write_batches(make_corpus(600), 2, batches=20, batch_size=12))
    assert stream_bytes(first) != stream_bytes(
        write_batches(corpus, 3, batches=20, batch_size=12))
    deleted = set()
    kinds = set()
    for batch in first:
        assert len(batch) == 12
        for op in batch:
            kinds.add(op["op"])
            if op["op"] == "add":
                continue
            assert op["schema_id"] not in deleted
            if op["op"] == "delete":
                deleted.add(op["schema_id"])
    assert kinds == {"add", "update", "delete"}
