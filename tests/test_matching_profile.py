"""Tests for the match-phase acceleration layer.

Covers :class:`SchemaMatchProfile` correctness against the from-scratch
computations, :class:`ProfileStore` cache behaviour, the golden
equivalence of the cold / profiled / parallel engine paths (on the
worked-example schemas and on a generated corpus, down to matrix
bytes), the one-adjacency-build-per-candidate regression, the checks
the validate-once kernel must keep, and the ensemble's cheap container
properties.
"""

import sys
import threading

import pytest

import repro.matching.context as context_mod
import repro.matching.profile as profile_mod
import repro.scoring.neighborhood as neighborhood_mod
from repro.core.config import SchemrConfig
from repro.corpus.generator import CorpusGenerator
from repro.core.engine import DictSchemaSource, SchemrEngine
from repro.core.results import SearchResult
from repro.errors import MatchError, RepositoryError, SchemaError
from repro.index.documents import document_from_schema
from repro.index.inverted import InvertedIndex
from repro.matching.base import LabelAxis, SimilarityMatrix
from repro.matching.context import ContextMatcher, element_context
from repro.matching.datatype import type_family
from repro.matching.ensemble import MatcherEnsemble
from repro.matching.name import NameMatcher
from repro.matching.normalize import normalize_words
from repro.matching.profile import (
    MatchScratch,
    ProfileStore,
    SchemaMatchProfile,
)
from repro.model.graph import entity_adjacency
from repro.model.query import QueryGraph
from repro.parsers.query_parser import parse_query
from repro.repository.exporter import export_ddl, export_entity_ddl
from repro.resilience.deadline import Deadline
from repro.scoring.neighborhood import NeighborhoodIndex
from repro.scoring.tightness import TightnessScorer

from tests.conftest import (
    PAPER_KEYWORDS,
    build_clinic_schema,
    build_conservation_schema,
    build_hr_schema,
)


@pytest.fixture
def clinic_profile(clinic_schema) -> SchemaMatchProfile:
    clinic_schema.schema_id = 1
    return SchemaMatchProfile.build(clinic_schema)


class TestSchemaMatchProfile:
    def test_element_paths_in_schema_order(self, clinic_schema,
                                           clinic_profile):
        assert clinic_profile.element_paths == \
            [ref.path for ref in clinic_schema.elements()]

    def test_words_match_from_scratch_normalization(self, clinic_schema,
                                                    clinic_profile):
        for ref in clinic_schema.elements():
            assert clinic_profile.words(ref.path) == \
                tuple(normalize_words(ref.local_name, expand=True))
            assert clinic_profile.words(ref.path, expand=False) == \
                tuple(normalize_words(ref.local_name, expand=False))

    def test_unknown_path_rejected(self, clinic_profile):
        with pytest.raises(SchemaError):
            clinic_profile.words("no.such.element")

    def test_context_terms_match_element_context(self, clinic_schema,
                                                 clinic_profile):
        adjacency = entity_adjacency(clinic_schema)
        for ref in clinic_schema.elements():
            assert clinic_profile.context_terms[ref.path] == \
                element_context(clinic_schema, ref, adjacency)

    def test_component_map_matches_neighborhood_index(self, clinic_schema,
                                                      clinic_profile):
        cold = NeighborhoodIndex(clinic_schema)
        fast = clinic_profile.neighborhood_index()
        entities = list(clinic_schema.entities)
        for a in entities:
            for b in entities:
                assert fast.relation(a, b) == cold.relation(a, b)

    def test_neighborhood_index_is_cached(self, clinic_profile):
        assert clinic_profile.neighborhood_index() is \
            clinic_profile.neighborhood_index()

    def test_type_families_match(self, clinic_schema, clinic_profile):
        for entity in clinic_schema.entities.values():
            for attr in entity.attributes:
                path = f"{entity.name}.{attr.name}"
                assert clinic_profile.type_families[path] == \
                    type_family(attr.data_type)

    def test_entity_attr_words(self, clinic_schema, clinic_profile):
        for entity in clinic_schema.entities.values():
            expected = set()
            for attr in entity.attributes:
                expected.update(normalize_words(attr.name))
            assert clinic_profile.entity_attr_words[entity.name] == expected

    def test_serialization_round_trip(self, clinic_profile):
        restored = SchemaMatchProfile.from_dict(clinic_profile.to_dict())
        assert restored.schema_id == clinic_profile.schema_id
        assert restored.element_paths == clinic_profile.element_paths
        assert restored.words_expanded == clinic_profile.words_expanded
        assert restored.words_plain == clinic_profile.words_plain
        assert restored.context_terms == clinic_profile.context_terms
        assert restored.adjacency == clinic_profile.adjacency
        assert restored.component_of == clinic_profile.component_of
        assert restored.type_families == clinic_profile.type_families
        assert restored.entity_attr_words == clinic_profile.entity_attr_words
        # The schema reference stays in process.
        assert clinic_profile.schema is not None
        assert restored.schema is None

    def test_round_trip_is_json_safe(self, clinic_profile):
        import json
        payload = json.dumps(clinic_profile.to_dict())
        restored = SchemaMatchProfile.from_dict(json.loads(payload))
        assert restored.element_paths == clinic_profile.element_paths

    def test_from_dict_missing_key_rejected(self):
        with pytest.raises(SchemaError, match="missing key"):
            SchemaMatchProfile.from_dict({"schema_id": 1})


class _CountingSource(DictSchemaSource):
    def __init__(self, schemas):
        super().__init__(schemas)
        self.calls = 0

    def get_schema(self, schema_id):
        self.calls += 1
        return super().get_schema(schema_id)


def _schemas_by_id():
    schemas = {}
    for i, builder in enumerate([build_clinic_schema, build_hr_schema,
                                 build_conservation_schema], start=1):
        schema = builder()
        schema.schema_id = i
        schemas[i] = schema
    return schemas


class TestProfileStore:
    def test_read_through_get_schema(self):
        source = _CountingSource(_schemas_by_id())
        store = ProfileStore(source)
        assert store.get_schema(1).name == "clinic_emr"
        assert store.get_schema(1).name == "clinic_emr"
        assert source.calls == 1  # second read was a cache hit
        assert store.hits == 1 and store.misses == 1

    def test_profile_and_schema_share_one_entry(self):
        source = _CountingSource(_schemas_by_id())
        store = ProfileStore(source)
        profile = store.get_profile(2)
        assert profile.schema_id == 2
        assert store.get_schema(2).schema_id == 2
        assert source.calls == 1

    def test_put_is_eager(self):
        source = _CountingSource(_schemas_by_id())
        store = ProfileStore(source)
        schema = source.get_schema(3)
        source.calls = 0
        store.put(schema)
        assert 3 in store
        assert store.get_profile(3).schema_id == 3
        assert source.calls == 0  # served from the eager entry

    def test_put_requires_schema_id(self):
        store = ProfileStore(DictSchemaSource({}))
        with pytest.raises(RepositoryError):
            store.put(build_clinic_schema())  # no id assigned

    def test_invalidate(self):
        store = ProfileStore(DictSchemaSource(_schemas_by_id()))
        store.get_profile(1)
        assert store.invalidate(1) is True
        assert store.invalidate(1) is False
        assert 1 not in store

    def test_clear(self):
        store = ProfileStore(DictSchemaSource(_schemas_by_id()))
        store.get_profile(1)
        store.get_profile(2)
        store.clear()
        assert len(store) == 0

    def test_lru_eviction(self):
        store = ProfileStore(DictSchemaSource(_schemas_by_id()), capacity=2)
        store.get_profile(1)
        store.get_profile(2)
        store.get_schema(1)   # touch 1 so 2 is the LRU entry
        store.get_profile(3)  # evicts 2
        assert 1 in store and 3 in store
        assert 2 not in store
        assert len(store) == 2

    def test_bad_capacity_rejected(self):
        with pytest.raises(RepositoryError):
            ProfileStore(DictSchemaSource({}), capacity=0)

    def test_profile_carries_its_schema(self):
        source = _CountingSource(_schemas_by_id())
        store = ProfileStore(source)
        profile = store.get_profile(1)
        assert profile.schema is store.get_schema(1)
        assert source.calls == 1

    def test_one_counted_lookup_per_candidate(self):
        """A cold search counts exactly one store lookup (a miss) per
        phase-1 candidate; the schema comes with the profile."""
        schemas = _schemas_by_id()
        index = InvertedIndex()
        for schema in schemas.values():
            index.add(document_from_schema(schema))
        source = _CountingSource(schemas)
        store = ProfileStore(source)
        engine = SchemrEngine(index=index, source=store)
        engine.search(keywords="patient name date species")
        candidates = engine.last_profile.candidate_count
        assert candidates == len(schemas)
        assert store.hits + store.misses == candidates
        assert store.misses == candidates and source.calls == candidates
        engine.search(keywords="patient name date")  # warm: all hits
        assert store.hits == engine.last_profile.candidate_count


def _build_engine(config=None, profiled=False):
    schemas = _schemas_by_id()
    index = InvertedIndex()
    for schema in schemas.values():
        index.add(document_from_schema(schema))
    source = DictSchemaSource(schemas)
    if profiled:
        source = ProfileStore(source)
    return SchemrEngine(index=index, source=source, config=config)


def _result_fingerprint(results):
    return [(r.schema_id, r.name, r.score, r.coarse_score, r.match_count,
             r.best_anchor, r.element_scores,
             [(m.query_label, m.element_path, m.score)
              for m in r.element_matches])
            for r in results]


class TestGoldenEquivalence:
    QUERIES = [
        {"keywords": PAPER_KEYWORDS},
        {"keywords": "employee salary department"},
        {"keywords": "species site observation date"},
        {"fragment": "CREATE TABLE patient (height DECIMAL, "
                     "gender CHAR(1));"},
        {"keywords": "diagnosis",
         "fragment": "CREATE TABLE patient (height DECIMAL);"},
    ]

    def test_profiled_path_matches_cold_path(self):
        cold = _build_engine()
        fast = _build_engine(profiled=True)
        for query in self.QUERIES:
            assert _result_fingerprint(fast.search(**query)) == \
                _result_fingerprint(cold.search(**query))

    def test_parallel_path_matches_cold_path(self):
        cold = _build_engine()
        parallel = _build_engine(profiled=True,
                                 config=SchemrConfig(match_workers=4))
        try:
            for query in self.QUERIES:
                assert _result_fingerprint(parallel.search(**query)) == \
                    _result_fingerprint(cold.search(**query))
        finally:
            parallel.close()

    def test_parallel_without_profiles_matches_cold_path(self):
        cold = _build_engine()
        with _build_engine(config=SchemrConfig(match_workers=3)) as parallel:
            for query in self.QUERIES:
                assert _result_fingerprint(parallel.search(**query)) == \
                    _result_fingerprint(cold.search(**query))

    def test_full_ensemble_equivalence(self):
        from repro.matching.datatype import DataTypeMatcher
        from repro.matching.exact import ExactMatcher
        from repro.matching.structure import StructureMatcher
        from repro.matching.synonym import SynonymMatcher
        ensemble = MatcherEnsemble(matchers=[
            ExactMatcher(), SynonymMatcher(), DataTypeMatcher(),
            StructureMatcher(),
        ])
        schemas = _schemas_by_id()
        query_kwargs = {"keywords": "patient stature sex",
                        "fragment": "CREATE TABLE patient "
                                    "(height DECIMAL, gender CHAR(1));"}
        index = InvertedIndex()
        for schema in schemas.values():
            index.add(document_from_schema(schema))
        cold = SchemrEngine(index=index,
                            source=DictSchemaSource(schemas),
                            ensemble=ensemble)
        fast = SchemrEngine(index=index,
                            source=ProfileStore(DictSchemaSource(schemas)),
                            ensemble=ensemble)
        assert _result_fingerprint(fast.search(**query_kwargs)) == \
            _result_fingerprint(cold.search(**query_kwargs))

    def test_matcher_level_equivalence(self, clinic_schema):
        from repro.model.query import QueryGraph
        clinic_schema.schema_id = 1
        profile = SchemaMatchProfile.build(clinic_schema)
        query = QueryGraph.build(keywords=PAPER_KEYWORDS)
        ensemble = MatcherEnsemble.default()
        cold = ensemble.match(query, clinic_schema)
        fast = ensemble.match(query, clinic_schema,
                              profile=profile, scratch=MatchScratch())
        assert cold.combined.row_labels == fast.combined.row_labels
        assert cold.combined.col_labels == fast.combined.col_labels
        assert (cold.combined.values == fast.combined.values).all()
        for name, matrix in cold.per_matcher.items():
            assert (matrix.values == fast.per_matcher[name].values).all()


class TestAdjacencySharing:
    def test_one_adjacency_build_per_candidate(self, monkeypatch):
        """With profiles, the FK adjacency is built once per candidate
        (at ingest) instead of twice per candidate per query (context
        matcher + tightness scorer)."""
        calls = {"n": 0}
        real = entity_adjacency

        def counting(schema):
            calls["n"] += 1
            return real(schema)

        for module in (profile_mod, context_mod, neighborhood_mod):
            monkeypatch.setattr(module, "entity_adjacency", counting)

        engine = _build_engine(profiled=True)
        assert calls["n"] == 0  # profiles are built lazily, none yet
        engine.search(keywords="name gender salary species")
        candidates = engine.last_trace.phase("schema_matching").items_in
        assert candidates > 1
        assert calls["n"] == candidates  # one build per candidate
        engine.search(keywords="name gender salary species")
        assert calls["n"] == candidates  # repeat queries build nothing

    def test_cold_path_builds_twice_per_candidate(self, monkeypatch):
        calls = {"n": 0}
        real = entity_adjacency

        def counting(schema):
            calls["n"] += 1
            return real(schema)

        for module in (profile_mod, context_mod, neighborhood_mod):
            monkeypatch.setattr(module, "entity_adjacency", counting)

        engine = _build_engine()
        engine.search(keywords="name gender salary species")
        candidates = engine.last_trace.phase("schema_matching").items_in
        assert candidates > 1
        assert calls["n"] == 2 * candidates


class TestEnsembleCheapProperties:
    def test_matchers_not_copied_per_access(self):
        ensemble = MatcherEnsemble.default()
        assert ensemble.matchers is ensemble.matchers
        assert isinstance(ensemble.matchers, tuple)

    def test_matcher_names_not_copied_per_access(self):
        ensemble = MatcherEnsemble.default()
        assert ensemble.matcher_names is ensemble.matcher_names

    def test_weights_view_is_live_and_read_only(self):
        ensemble = MatcherEnsemble.default()
        view = ensemble.weights
        assert view is ensemble.weights
        ensemble.set_weights({"name": 2.0})
        assert view["name"] == 2.0  # live view reflects the update
        with pytest.raises(TypeError):
            view["name"] = 5.0  # type: ignore[index]

    def test_rejected_update_leaves_weights_untouched(self):
        ensemble = MatcherEnsemble.default()
        before = dict(ensemble.weights)
        with pytest.raises(MatchError):
            ensemble.set_weights({"name": 0.0, "context": 0.0})
        assert dict(ensemble.weights) == before


# -- the match-phase kernel ------------------------------------------------

def _generated_schemas():
    schemas = {}
    generator = CorpusGenerator(seed=11)
    for schema_id, generated in enumerate(
            generator.stream(60, include_junk=True), start=1):
        generated.schema.schema_id = schema_id
        schemas[schema_id] = generated.schema
    return schemas


def _generated_queries():
    fragments = CorpusGenerator(seed=29).generate(3)
    return [
        {"keywords": PAPER_KEYWORDS},
        {"keywords": "employee salary department manager"},
        {"keywords": "species site observation date latitude"},
        {"keywords": "customer order product price quantity"},
        {"fragment": export_ddl(fragments[0].schema)},
        {"fragment": export_entity_ddl(
            next(iter(fragments[1].schema.entities.values())))},
        {"keywords": "name address",
         "fragment": export_ddl(fragments[2].schema)},
    ]


def _assert_same_matrix(fast, cold):
    assert fast.row_labels == cold.row_labels
    assert fast.col_labels == cold.col_labels
    assert fast.values.dtype == cold.values.dtype
    assert fast.values.tobytes() == cold.values.tobytes()


class TestGeneratedCorpusGoldenEquivalence:
    """The profiled kernel, the two-worker engine path and the cold path
    give byte-identical matrices over a generated corpus, for keyword
    and DDL-fragment queries alike."""

    @pytest.fixture(scope="class")
    def corpus(self):
        schemas = _generated_schemas()
        index = InvertedIndex()
        for schema in schemas.values():
            index.add(document_from_schema(schema))
        return schemas, index

    def test_profiled_kernel_matches_cold_path(self, corpus):
        schemas, _index = corpus
        ensemble = MatcherEnsemble.default()
        scorer = TightnessScorer()
        profiles = {schema_id: SchemaMatchProfile.build(schema)
                    for schema_id, schema in schemas.items()}
        compared = 0
        for kwargs in _generated_queries():
            query = parse_query(**kwargs)
            scratch = MatchScratch()
            for schema_id, schema in schemas.items():
                profile = profiles[schema_id]
                cold = ensemble.match(query, schema)
                fast = ensemble.match(query, schema, profile=profile,
                                      scratch=scratch)
                assert set(fast.per_matcher) == {"name", "context"}
                for name, matrix in cold.per_matcher.items():
                    _assert_same_matrix(fast.per_matcher[name], matrix)
                _assert_same_matrix(fast.combined, cold.combined)
                cold_scores = cold.combined.max_per_column()
                fast_scores = fast.combined.max_per_column()
                assert fast_scores == cold_scores
                cold_tight = scorer.score(schema, cold_scores)
                fast_tight = scorer.score(schema, fast_scores,
                                          profile=profile)
                assert fast_tight.score == cold_tight.score
                assert fast_tight.best_anchor == cold_tight.best_anchor
                compared += cold_tight.best_anchor is not None
        assert compared > 20  # the queries really match the corpus

    def test_two_worker_path_matches_cold_path(self, corpus):
        schemas, index = corpus
        ensemble = MatcherEnsemble.default()
        scorer = TightnessScorer()
        engine = SchemrEngine(
            index=index, source=ProfileStore(DictSchemaSource(schemas)),
            config=SchemrConfig(match_workers=2))
        try:
            for kwargs in _generated_queries():
                query = parse_query(**kwargs)
                hits = engine.searcher.search(
                    query.flatten(), top_n=engine.config.candidate_pool)
                assert len(hits) > 2
                matched = engine._match_candidates(query, hits,
                                                   Deadline(None))
                assert [entry[0] for entry in matched] == hits
                for hit, candidate, result, scores, profile in matched:
                    cold = ensemble.match(query, schemas[hit.doc_id])
                    for name, matrix in cold.per_matcher.items():
                        _assert_same_matrix(result.per_matcher[name],
                                            matrix)
                    _assert_same_matrix(result.combined, cold.combined)
                    cold_scores = cold.combined.max_per_column()
                    assert scores == cold_scores
                    cold_tight = scorer.score(candidate, cold_scores)
                    fast_tight = scorer.score(candidate, scores,
                                              profile=profile)
                    assert fast_tight.score == cold_tight.score
                    assert fast_tight.best_anchor == cold_tight.best_anchor
        finally:
            engine.close()

    def test_engine_results_match_across_paths(self, corpus):
        schemas, index = corpus
        cold = SchemrEngine(index=index, source=DictSchemaSource(schemas))
        fast = SchemrEngine(index=index,
                            source=ProfileStore(DictSchemaSource(schemas)))
        parallel = SchemrEngine(
            index=index, source=ProfileStore(DictSchemaSource(schemas)),
            config=SchemrConfig(match_workers=2))
        try:
            for kwargs in _generated_queries():
                expected = _result_fingerprint(cold.search(**kwargs))
                assert expected
                assert _result_fingerprint(fast.search(**kwargs)) == expected
                assert _result_fingerprint(
                    parallel.search(**kwargs)) == expected
        finally:
            parallel.close()


class TestKernelChecksSurviveFastPath:
    """Validate-once construction keeps every check the per-matrix path
    made."""

    MATCHERS = (NameMatcher, ContextMatcher)

    @pytest.fixture
    def query(self):
        return QueryGraph.build(keywords=PAPER_KEYWORDS)

    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_duplicate_row_label_raises(self, matcher_cls, query,
                                        clinic_profile, clinic_schema,
                                        monkeypatch):
        monkeypatch.setattr(QueryGraph, "element_labels",
                            lambda self: ["kw:dup"] * len(self.items))
        with pytest.raises(MatchError, match="duplicate row labels"):
            matcher_cls().match(query, clinic_schema,
                                profile=clinic_profile,
                                scratch=MatchScratch())

    @pytest.mark.parametrize("matcher_cls", MATCHERS)
    def test_duplicate_column_label_raises(self, matcher_cls, query,
                                           clinic_profile, clinic_schema):
        clinic_profile.element_paths.append(clinic_profile.element_paths[0])
        with pytest.raises(MatchError, match="duplicate column labels"):
            matcher_cls().match(query, clinic_schema,
                                profile=clinic_profile,
                                scratch=MatchScratch())

    @pytest.mark.parametrize("profiled", [True, False])
    def test_out_of_range_value_raises(self, profiled, query,
                                       clinic_profile, clinic_schema,
                                       monkeypatch):
        monkeypatch.setattr(context_mod, "_jaccard", lambda a, b: 1.5)
        kwargs = ({"profile": clinic_profile, "scratch": MatchScratch()}
                  if profiled else {})
        with pytest.raises(MatchError, match=r"must be in \[0, 1\]"):
            ContextMatcher().match(query, clinic_schema, **kwargs)

    def test_set_still_range_checks(self, clinic_profile):
        matrix = SimilarityMatrix.from_axes(
            LabelAxis(["kw:a"]), clinic_profile.column_axis())
        with pytest.raises(MatchError):
            matrix.set("kw:a", "patient", -0.1)

    def test_profiled_tightness_rejects_unknown_path(self, clinic_schema,
                                                     clinic_profile):
        with pytest.raises(MatchError, match="does not exist"):
            TightnessScorer().score(clinic_schema, {"ghost.height": 0.9},
                                    profile=clinic_profile)

    def test_axes_are_built_once(self, query, clinic_profile,
                                 clinic_schema):
        scratch = MatchScratch()
        assert scratch.rows(query) is scratch.rows(query)
        assert clinic_profile.column_axis() is clinic_profile.column_axis()
        fast = MatcherEnsemble.default().match(
            query, clinic_schema, profile=clinic_profile, scratch=scratch)
        for matrix in [fast.combined, *fast.per_matcher.values()]:
            assert matrix.row_labels is scratch.rows(query).labels
            assert matrix.col_labels is clinic_profile.column_axis().labels

    def test_context_columns_memoized_per_distinct_context(
            self, query, clinic_profile, clinic_schema):
        scratch = MatchScratch()
        ContextMatcher().match(query, clinic_schema, profile=clinic_profile,
                               scratch=scratch)
        distinct = set(clinic_profile.context_terms.values())
        assert len(scratch.columns("context")) == len(distinct)
        assert len(distinct) < len(clinic_profile.element_paths)


class TestSharedStateUnderContention:
    """The column memo and the lazy drill-in are shared between threads
    (``match_workers`` > 1, concurrent HTTP readers); racing fills must
    leave every reader with the cold path's values."""

    THREADS = 8

    def _run_threads(self, work):
        errors = []

        def guarded(i):
            try:
                work(i)
            except BaseException as exc:  # reported by the assert below
                errors.append(exc)
                raise

        threads = [threading.Thread(target=guarded, args=(i,))
                   for i in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_shared_scratch_gives_cold_values(self):
        schemas = _generated_schemas()
        profiles = {schema_id: SchemaMatchProfile.build(schema)
                    for schema_id, schema in schemas.items()}
        ensemble = MatcherEnsemble.default()
        query = parse_query(keywords="name date site species employee "
                                     "patient height")
        cold = {schema_id: ensemble.match(query, schema).combined
                for schema_id, schema in schemas.items()}
        scratch = MatchScratch()
        order = list(schemas)

        def work(i):
            for schema_id in order[i::2] + order[:i]:
                fast = ensemble.match(query, schemas[schema_id],
                                      profile=profiles[schema_id],
                                      scratch=scratch).combined
                _assert_same_matrix(fast, cold[schema_id])

        self._run_threads(work)

    def test_concurrent_drill_in_reads_agree(self, clinic_schema,
                                             clinic_profile):
        query = QueryGraph.build(keywords=PAPER_KEYWORDS)
        combined = MatcherEnsemble.default().match(query,
                                                   clinic_schema).combined
        expected = [(row, col, value)
                    for row, col, value in combined.nonzero_pairs(0.25)]
        assert expected
        lazy = SearchResult(
            schema_id=1, name="clinic", score=1.0, match_count=1,
            entity_count=3, attribute_count=12,
            match_cells=(combined.row_labels, combined.col_labels,
                         *combined.cells_above(0.25)))
        seen = [None] * self.THREADS

        def work(i):
            seen[i] = [(m.query_label, m.element_path, m.score)
                       for m in lazy.element_matches]

        self._run_threads(work)
        assert seen == [expected] * self.THREADS
