"""The match-phase acceleration layer: precomputed schema profiles.

Phases two and three of the pipeline used to re-derive everything per
candidate per query: re-parse the stored JSON payload, re-split and
re-normalize every element name, rebuild the entity adjacency map twice
(context matcher and tightness scorer), and re-run the foreign-key
transitive closure.  A :class:`SchemaMatchProfile` computes all of those
artifacts exactly once — at index/ingest time — so a query's match phase
collapses to dict lookups plus arithmetic:

* analyzed element words (abbreviation-expanded and plain) per element,
  shared with every other profile through the process-wide name memo
  (:func:`repro.matching.normalize.analyzed_name`);
* neighboring-element context term sets per element;
* the undirected entity adjacency map and the FK transitive closure
  (component map) feeding :class:`~repro.scoring.neighborhood.NeighborhoodIndex`;
* declared-type families and per-entity attribute word sets for the
  datatype and structure matchers.

N-gram profiles are not part of it: the name matcher takes them from
the process-wide gram cache (:func:`repro.matching.ngram.weighted_gram_profile`)
on first comparison.

:class:`ProfileStore` is the serving side: an LRU read-through cache of
profiles (each carrying its schema) fronting any ``SchemaSource``, so a
candidate fetched (and profiled) for one query is free for the next.  The
repository invalidates entries on ``update_schema``/``delete_schema``
and the changelog-driven :class:`~repro.repository.indexer.RepositoryIndexer`
rebuilds them on refresh.

:class:`MatchScratch` is the per-query companion: memoization shared
across the candidates (and worker threads) of one search — the query's
validated row axis, each matcher's similarity columns keyed by the
candidate-side key, and the query-side artifacts every matcher would
otherwise recompute per candidate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.errors import RepositoryError, SchemaError
from repro.matching.base import LabelAxis
from repro.matching.datatype import type_family
from repro.matching.normalize import analyzed_name
from repro.model.graph import entity_adjacency
from repro.model.schema import Schema
from repro.scoring.neighborhood import NeighborhoodIndex, entity_components

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.query import QueryGraph


@dataclass(slots=True)
class SchemaMatchProfile:
    """Per-schema artifacts every matcher needs, computed once.

    All fields are derived purely from the schema, so a profile is valid
    until the schema changes (the repository invalidates on mutation).
    The profile is serializable (:meth:`to_dict` / :meth:`from_dict`) so
    offline indexers can persist it next to the index segment; the
    :attr:`schema` reference is not serialized.
    """

    schema_id: int | None
    #: Element paths in canonical schema order — the similarity-matrix
    #: column labels.
    element_paths: list[str]
    #: path -> owning entity name (``patient.height`` -> ``patient``).
    entity_of: dict[str, str]
    #: path -> normalized words of the element's local name, with and
    #: without abbreviation expansion (both views exist because matchers
    #: are individually configurable).
    words_expanded: dict[str, tuple[str, ...]]
    words_plain: dict[str, tuple[str, ...]]
    #: path -> neighboring-element context term set (the context
    #: matcher's per-element neighborhood).
    context_terms: dict[str, frozenset[str]]
    #: Undirected entity-level FK adjacency.
    adjacency: dict[str, frozenset[str]]
    #: entity -> connected-component id (FK transitive closure).
    component_of: dict[str, int]
    #: attribute path -> declared-type family (datatype matcher).
    type_families: dict[str, str | None]
    #: entity -> union of its attributes' words (structure matcher).
    entity_attr_words: dict[str, frozenset[str]]
    #: The schema the profile was built from, so one store lookup
    #: yields both (None for a deserialized profile; not serialized).
    schema: Schema | None = field(default=None, repr=False, compare=False)
    #: Lazily rehydrated NeighborhoodIndex (not serialized).
    _neighborhoods: NeighborhoodIndex | None = field(
        default=None, repr=False, compare=False)
    #: Lazily validated column axis (not serialized).
    _columns: LabelAxis | None = field(
        default=None, repr=False, compare=False)

    @classmethod
    def build(cls, schema: Schema) -> "SchemaMatchProfile":
        """Derive every artifact from ``schema`` in one pass."""
        adjacency = entity_adjacency(schema)
        component_of: dict[str, int] = {}
        components = entity_components(schema, adjacency=adjacency)
        for component_id, component in enumerate(components):
            for entity in component:
                component_of[entity] = component_id

        element_paths: list[str] = []
        entity_of: dict[str, str] = {}
        words_expanded: dict[str, tuple[str, ...]] = {}
        words_plain: dict[str, tuple[str, ...]] = {}
        context_terms: dict[str, frozenset[str]] = {}
        type_families: dict[str, str | None] = {}
        entity_attr_words: dict[str, frozenset[str]] = {}
        for entity in schema.entities.values():
            name = entity.name
            entity_words = analyzed_name(name)
            element_paths.append(name)
            entity_of[name] = name
            words_expanded[name], words_plain[name] = entity_words
            attr_paths: list[str] = []
            attr_words: set[str] = set()
            for attr in entity.attributes:
                path = f"{name}.{attr.name}"
                expanded, plain = analyzed_name(attr.name)
                element_paths.append(path)
                entity_of[path] = name
                words_expanded[path] = expanded
                words_plain[path] = plain
                attr_words.update(expanded)
                type_families[path] = type_family(attr.data_type)
                attr_paths.append(path)
            entity_attr_words[name] = frozenset(attr_words)
            # Every attribute of an entity shares one context set: the
            # entity's name words plus all sibling attribute words.
            shared = frozenset(attr_words.union(entity_words[0]))
            for path in attr_paths:
                context_terms[path] = shared
            # The entity element additionally sees FK-adjacent entity
            # name words.
            entity_terms = set(shared)
            for neighbor in adjacency.get(name, ()):
                entity_terms.update(analyzed_name(neighbor)[0])
            context_terms[name] = frozenset(entity_terms)

        return cls(
            schema_id=schema.schema_id,
            element_paths=element_paths,
            entity_of=entity_of,
            words_expanded=words_expanded,
            words_plain=words_plain,
            context_terms=context_terms,
            adjacency={name: frozenset(neighbors)
                       for name, neighbors in adjacency.items()},
            component_of=component_of,
            type_families=type_families,
            entity_attr_words=entity_attr_words,
            schema=schema,
        )

    # -- fast-path accessors -------------------------------------------

    def words(self, path: str, expand: bool = True) -> tuple[str, ...]:
        """Normalized words of one element's local name."""
        table = self.words_expanded if expand else self.words_plain
        try:
            return table[path]
        except KeyError:
            raise SchemaError(f"profile has no element {path!r}") from None

    def neighborhood_index(self) -> NeighborhoodIndex:
        """The schema's (cached) NeighborhoodIndex, rehydrated from the
        precomputed component map — no graph traversal per query."""
        index = self._neighborhoods
        if index is None:
            index = NeighborhoodIndex.from_component_map(self.component_of)
            self._neighborhoods = index
        return index

    def column_axis(self) -> LabelAxis:
        """:attr:`element_paths` as a validated similarity-matrix axis,
        checked for duplicates and indexed once per profile."""
        axis = self._columns
        if axis is None:
            axis = LabelAxis(self.element_paths, "column")
            self._columns = axis
        return axis

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form (sets become sorted lists)."""
        return {
            "schema_id": self.schema_id,
            "element_paths": list(self.element_paths),
            "entity_of": dict(self.entity_of),
            "words_expanded": {path: list(words)
                               for path, words in self.words_expanded.items()},
            "words_plain": {path: list(words)
                            for path, words in self.words_plain.items()},
            "context_terms": {path: sorted(terms)
                              for path, terms in self.context_terms.items()},
            "adjacency": {name: sorted(neighbors)
                          for name, neighbors in self.adjacency.items()},
            "component_of": dict(self.component_of),
            "type_families": dict(self.type_families),
            "entity_attr_words": {
                name: sorted(words)
                for name, words in self.entity_attr_words.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SchemaMatchProfile":
        """Inverse of :meth:`to_dict` (the result has no :attr:`schema`)."""
        try:
            return cls(
                schema_id=data["schema_id"],
                element_paths=list(data["element_paths"]),
                entity_of=dict(data["entity_of"]),
                words_expanded={path: tuple(words) for path, words
                                in data["words_expanded"].items()},
                words_plain={path: tuple(words) for path, words
                             in data["words_plain"].items()},
                context_terms={path: frozenset(terms) for path, terms
                               in data["context_terms"].items()},
                adjacency={name: frozenset(neighbors) for name, neighbors
                           in data["adjacency"].items()},
                component_of={name: int(component) for name, component
                              in data["component_of"].items()},
                type_families=dict(data["type_families"]),
                entity_attr_words={name: frozenset(words) for name, words
                                   in data["entity_attr_words"].items()},
            )
        except KeyError as exc:
            raise SchemaError(f"profile dict missing key {exc}") from exc


class MatchScratch:
    """Per-query memoization shared across candidates and workers.

    Holds the query's validated row axis and, per matcher, the memo of
    similarity-matrix columns keyed by the candidate-side key (see
    :meth:`~repro.matching.base.Matcher.column_matrix`).  Columns are
    pure functions of (query, key), so sharing one scratch across the
    worker threads of a parallel match phase is safe: a racing
    recomputation produces the identical value (CPython dict
    reads/writes are atomic under the GIL).
    """

    __slots__ = ("matcher_memo", "_rows", "_columns")

    def __init__(self) -> None:
        #: matcher name -> its prepared query-side artifact.
        self.matcher_memo: dict[str, object] = {}
        self._rows: LabelAxis | None = None
        self._columns: dict[str, dict] = {}

    def rows(self, query: "QueryGraph") -> LabelAxis:
        """The query's element labels as a validated axis, built once
        per search."""
        rows = self._rows
        if rows is None:
            rows = LabelAxis(query.element_labels(), "row")
            self._rows = rows
        return rows

    def columns(self, matcher_name: str) -> dict:
        """One matcher's column memo: candidate key -> column values."""
        return self._columns.setdefault(matcher_name, {})


class SchemaSourceLike(Protocol):  # pragma: no cover - typing only
    """Anything that resolves schema ids to schemas."""

    def get_schema(self, schema_id: int) -> Schema:
        ...


class ProfileStore:
    """LRU read-through cache of match profiles and their schemas.

    Fronts any ``SchemaSource``: :meth:`get_schema` satisfies the engine
    protocol from cache, falling through to the underlying source on a
    miss; :meth:`get_profile` serves the precomputed artifacts, and the
    profile's :attr:`~SchemaMatchProfile.schema` is the cached schema,
    so one lookup (one lock, one hit or miss counted) serves both.  The
    schema and its profile live in one entry, so they can never drift
    apart.  Mutation paths call :meth:`invalidate` (repository CRUD) or
    :meth:`put` (indexer refresh) to keep the cache honest.

    Thread-safe: the engine's parallel match phase reads from worker
    threads while the scheduled indexer refreshes from another.
    """

    def __init__(self, source: SchemaSourceLike,
                 capacity: int = 1024) -> None:
        if capacity <= 0:
            raise RepositoryError(
                f"profile cache capacity must be positive, got {capacity}")
        self._source = source
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[int, SchemaMatchProfile]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- SchemaSource protocol -----------------------------------------

    def get_schema(self, schema_id: int) -> Schema:
        """The cached schema (read-through on miss).

        Returned objects are shared across callers — treat as
        immutable; use :meth:`repro.model.schema.Schema.copy` before
        mutating.
        """
        schema = self._entry(schema_id).schema
        assert schema is not None  # entries are built from schemas
        return schema

    def get_profile(self, schema_id: int) -> SchemaMatchProfile:
        """The cached match profile (read-through on miss); its
        :attr:`~SchemaMatchProfile.schema` is the cached schema."""
        return self._entry(schema_id)

    # -- cache management ----------------------------------------------

    def put(self, schema: Schema) -> SchemaMatchProfile:
        """Eagerly (re)build the entry for ``schema`` — the ingest path.

        Called by the repository indexer while applying changelog
        entries, so profiles are ready before the first query needs
        them.
        """
        if schema.schema_id is None:
            raise RepositoryError(
                "cannot profile a schema without an id; store it first")
        return self._admit(schema)

    def invalidate(self, schema_id: int) -> bool:
        """Drop one entry; returns whether it was cached."""
        with self._lock:
            return self._entries.pop(schema_id, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, schema_id: int) -> bool:
        with self._lock:
            return schema_id in self._entries

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def hits(self) -> int:
        """Lookups served from cache."""
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        """Lookups that fell through to the source (and rebuilt)."""
        with self._lock:
            return self._misses

    @property
    def evictions(self) -> int:
        """Entries dropped to stay within capacity (LRU overflow)."""
        with self._lock:
            return self._evictions

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    # -- internals -----------------------------------------------------

    def _entry(self, schema_id: int) -> SchemaMatchProfile:
        with self._lock:
            entry = self._entries.get(schema_id)
            if entry is not None:
                self._entries.move_to_end(schema_id)
                self._hits += 1
                return entry
            self._misses += 1
        # Fetch and build outside the lock: sqlite and profile building
        # are the slow parts, and a racing double-build is benign.
        from repro.resilience.faults import FAULTS
        FAULTS.hit("profile_store.lookup")
        schema = self._source.get_schema(schema_id)
        return self._admit(schema)

    def _admit(self, schema: Schema) -> SchemaMatchProfile:
        profile = SchemaMatchProfile.build(schema)
        assert schema.schema_id is not None
        with self._lock:
            self._entries[schema.schema_id] = profile
            self._entries.move_to_end(schema.schema_id)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
        return profile
