"""Seeded workload inputs: corpora, query streams, arrivals, writes.

The corpus is fixed (corpus seed 7, fixed raw sizes) so every run of a
workload searches the same repository, and so are the Zipf catalog,
the broad query pool and its arrival schedule.  ``--seed`` drives what
is asked of them: which catalog intents are drawn, in what order the
broad queries are sent, and which writes the writer applies.  The same seed
always yields the same inputs.

The program only ever receives these generated inputs: schemas from
:func:`repro.workload.regenerate_corpus`, queries from
:func:`repro.workload.build_catalog` and
:class:`repro.corpus.groundtruth.QuerySampler`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.corpus.domains import DOMAINS
from repro.corpus.generator import GeneratedSchema
from repro.corpus.groundtruth import QUERY_CHANNELS, QuerySampler
from repro.workload.catalog import QueryCatalog, build_catalog, \
    regenerate_corpus

CORPUS_SEED = 7
#: Raw schemas generated before the paper filter: 6000 -> 5077 kept.
SMALL_RAW = 6000
#: 24000 raw -> 20312 kept.
LARGE_RAW = 24000
CATALOG_SIZE = 50
#: The catalog (which intents exist, and their popularity order) is
#: fixed; the workload seed only drives the draws from it.
CATALOG_SEED = 23
FRAGMENT_FRACTION = 0.3
TOP_N = 10


@dataclass(frozen=True)
class Query:
    """One search as the workload issues it, with its ground truth."""

    keywords: str
    fragment: str | None
    channel: str
    #: Grade-2 (exact) answers, as ``repro.eval`` scores precision.
    relevant: frozenset[int]

    @property
    def key(self) -> tuple[str, str | None]:
        return (self.keywords, self.fragment)

    def as_dict(self) -> dict:
        return {"keywords": self.keywords, "fragment": self.fragment,
                "channel": self.channel}


def make_corpus(raw_count: int) -> list[GeneratedSchema]:
    """The fixed corpus, numbered as a fresh repository numbers it.

    Schema ids are assigned in insertion order (1..n) so queries can be
    sampled before ingest; the workloads check after ingest that the
    repository assigned exactly these ids.
    """
    corpus = regenerate_corpus(CORPUS_SEED, raw_count)
    for schema_id, generated in enumerate(corpus, start=1):
        generated.schema.schema_id = schema_id
    return corpus


def check_numbering(corpus: list[GeneratedSchema],
                    stored_ids: list[int]) -> None:
    """Raise unless a repository stored ``corpus`` under ids 1..n."""
    expected = list(range(1, len(corpus) + 1))
    if stored_ids != expected:
        raise RuntimeError(
            "repository assigned unexpected schema ids; the workload's "
            "ground truth would not line up with the stored corpus")


def catalog(corpus: list[GeneratedSchema]) -> QueryCatalog:
    return build_catalog(corpus, CATALOG_SIZE, seed=CATALOG_SEED)


def zipf_stream(query_catalog: QueryCatalog, seed: int,
                stream: str = "measure") -> Iterator[Query]:
    """Endless Zipf draws from the catalog; ~30% carry a DDL fragment."""
    rng = random.Random(f"zipf:{stream}:{seed}")
    relevant = [frozenset(entry.query.exact_ids)
                for entry in query_catalog.entries]
    while True:
        entry = query_catalog.sample_intent(rng)
        fragment = (entry.fragment if rng.random() < FRAGMENT_FRACTION
                    else None)
        yield Query(" ".join(entry.query.keywords), fragment,
                    entry.query.channel, relevant[entry.intent_id])


#: The broad query pool is fixed, like the Zipf catalog: every run asks
#: the same distinct queries, so quality (p@10) compares exactly across
#: runs and changes; the workload seed picks their order and arrivals.
BROAD_POOL_SEED = 29


def broad_queries(corpus: list[GeneratedSchema], count: int) -> list[Query]:
    """``count`` distinct keyword queries over all five noise channels."""
    rng = random.Random(f"broad:{BROAD_POOL_SEED}")
    sampler = QuerySampler(corpus, DOMAINS, seed=rng.randrange(2 ** 31))
    queries: list[Query] = []
    seen: set[str] = set()
    while len(queries) < count:
        channel = rng.choice(QUERY_CHANNELS)
        (sampled,) = sampler.sample(1, channel=channel)
        keywords = " ".join(sampled.keywords)
        if keywords in seen:
            continue
        seen.add(keywords)
        queries.append(Query(keywords, None, channel,
                             frozenset(sampled.exact_ids)))
    return queries


def shuffled(items: list, seed: int) -> list:
    """``items`` in a seed-determined order."""
    order = list(items)
    random.Random(f"order:{seed}").shuffle(order)
    return order


def poisson_arrivals(seed: int, count: int, seconds: float) -> list[float]:
    """Offsets of ``count`` Poisson arrivals within ``seconds``.

    A Poisson process conditioned on its arrival count: the arrival
    times are sorted uniform draws, so the offered rate is exactly
    ``count / seconds`` in every run and only the spacing varies.
    """
    rng = random.Random(f"arrivals:{seed}")
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


#: Write mix: share of adds, updates, deletes.
WRITE_MIX = (("add", 0.3), ("update", 0.5), ("delete", 0.2))


def write_batches(corpus: list[GeneratedSchema], seed: int,
                  batches: int, batch_size: int) -> list[list[dict]]:
    """The writer's add/update/delete batches, fully materialized.

    Adds are schemas from a corpus generated under a seed-derived
    generator seed; updates re-store a corpus schema with a revised
    description and one extra attribute; deletes remove corpus schemas.
    Updates and deletes only ever target schemas still live at that
    point of the stream, so no write fails.
    """
    rng = random.Random(f"writes:{seed}")
    total = batches * batch_size
    fresh = [generated.schema for generated in regenerate_corpus(
        100_000 + seed, total * 2)]
    live = [generated.schema for generated in corpus]
    live_ids = list(range(len(live)))
    ops = [name for name, _ in WRITE_MIX]
    weights = [share for _, share in WRITE_MIX]
    out: list[list[dict]] = []
    revision = 0
    for _ in range(batches):
        batch = []
        for _ in range(batch_size):
            op = rng.choices(ops, weights=weights, k=1)[0]
            if op == "add" and fresh:
                schema = fresh.pop()
                payload = schema.to_dict()
                payload["schema_id"] = None
                batch.append({"op": "add", "schema": payload})
                continue
            position = rng.randrange(len(live_ids))
            target = live[live_ids[position]]
            if op == "delete":
                live_ids[position] = live_ids[-1]
                live_ids.pop()
                batch.append({"op": "delete",
                              "schema_id": target.schema_id})
                continue
            revision += 1
            payload = target.to_dict()
            payload["description"] = (
                f"{payload.get('description', '')} revision "
                f"{revision}").strip()
            if payload["entities"]:
                payload["entities"][0]["attributes"].append(
                    {"name": f"revision_note_{revision}",
                     "data_type": "VARCHAR(100)"})
            batch.append({"op": "update", "schema_id": target.schema_id,
                          "schema": payload})
        out.append(batch)
    return out

