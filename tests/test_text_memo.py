"""The process-wide analysis memos: split identifiers, Porter stems,
analyzed element names and declared-type families.

Golden equivalence on a generated corpus (memoized analyzer output and
profiles equal the cold ``split_identifier`` / ``porter_stem`` /
``normalize_words`` derivation), copy semantics of returned lists, the
memo bounds, and identical results while a refresh thread analyzes
schemas at the same time as searches run.
"""

import sys
import threading

import pytest

import repro.matching.normalize as normalize_mod
import repro.text.splitter as splitter_mod
import repro.text.stemmer as stemmer_mod
from repro.corpus.generator import CorpusGenerator
from repro.index.documents import document_from_schema
from repro.matching.context import element_context
from repro.matching.datatype import type_family
from repro.matching.normalize import analyzed_name, normalize_words
from repro.matching.profile import ProfileStore, SchemaMatchProfile
from repro.model.graph import entity_adjacency
from repro.repository.indexer import RepositoryIndexer
from repro.repository.store import SchemaRepository
from repro.text.analysis import SCHEMA_ANALYZER, SIMPLE_ANALYZER, Analyzer
from repro.text.splitter import split_identifier
from repro.text.stemmer import porter_stem
from repro.text.stopwords import is_stopword

from tests.conftest import PAPER_KEYWORDS


def _cold_analyze(analyzer: Analyzer, text: str) -> list[str]:
    """The analyzer chain without any memo."""
    terms = []
    for word in split_identifier(text):
        token = word.lower()
        if analyzer.remove_stopwords and is_stopword(token):
            continue
        if not (analyzer.min_length <= len(token) <= analyzer.max_length):
            continue
        if analyzer.stem:
            token = porter_stem(token)
        if token:
            terms.append(token)
    return terms


def _cold_document_terms(schema) -> list[str]:
    terms = _cold_analyze(SCHEMA_ANALYZER, schema.name)
    terms += _cold_analyze(SCHEMA_ANALYZER, schema.description)
    for text in schema.terms():
        terms += _cold_analyze(SCHEMA_ANALYZER, text)
    return terms


def _generated_schemas(seed: int = 11, count: int = 80):
    schemas = []
    for schema_id, generated in enumerate(
            CorpusGenerator(seed=seed).stream(count, include_junk=True),
            start=1):
        generated.schema.schema_id = schema_id
        schemas.append(generated.schema)
    return schemas


def _corpus_texts(schemas) -> list[str]:
    texts = []
    for schema in schemas:
        texts.append(schema.name)
        texts.append(schema.description)
        texts.extend(schema.terms())
    return texts


def _assert_profile_is_cold(profile: SchemaMatchProfile, schema) -> None:
    adjacency = entity_adjacency(schema)
    for ref in schema.elements():
        name = ref.local_name
        assert profile.words_expanded[ref.path] == \
            tuple(normalize_words(name, expand=True))
        assert profile.words_plain[ref.path] == \
            tuple(normalize_words(name, expand=False))
        assert profile.context_terms[ref.path] == \
            element_context(schema, ref, adjacency)
    for entity in schema.entities.values():
        expected = set()
        for attr in entity.attributes:
            expected.update(normalize_words(attr.name))
            assert profile.type_families[f"{entity.name}.{attr.name}"] == \
                type_family.__wrapped__(attr.data_type)
        assert profile.entity_attr_words[entity.name] == expected


@pytest.fixture
def small_memos(monkeypatch):
    """Every memo empty and bounded to a handful of entries, so clears
    happen constantly."""
    monkeypatch.setattr(splitter_mod, "_SPLIT_CACHE", {})
    monkeypatch.setattr(splitter_mod, "_SPLIT_CACHE_MAX", 16)
    monkeypatch.setattr(stemmer_mod, "_STEM_CACHE", {})
    monkeypatch.setattr(stemmer_mod, "_STEM_CACHE_MAX", 16)
    monkeypatch.setattr(normalize_mod, "_NAME_CACHE", {})
    monkeypatch.setattr(normalize_mod, "_NAME_CACHE_MAX", 16)
    return 16


class TestGoldenEquivalence:
    """Memoized output equals the cold derivation on a generated corpus."""

    @pytest.fixture(scope="class")
    def schemas(self):
        return _generated_schemas()

    def test_analyzer_output_matches_cold_chain(self, schemas):
        texts = _corpus_texts(schemas) + [" ".join(PAPER_KEYWORDS),
                                         "XMLHttpRequest2"]
        # Twice: the first pass fills the memos, the second reads them.
        for _ in range(2):
            for text in texts:
                for analyzer in (SCHEMA_ANALYZER, SIMPLE_ANALYZER):
                    assert analyzer.analyze(text) == \
                        _cold_analyze(analyzer, text)

    def test_documents_match_cold_chain(self, schemas):
        for schema in schemas:
            assert document_from_schema(schema).terms == \
                _cold_document_terms(schema)

    def test_profiles_match_cold_normalization(self, schemas):
        for schema in schemas:
            _assert_profile_is_cold(SchemaMatchProfile.build(schema),
                                    schema)

    def test_cached_stem_matches_porter(self, schemas):
        for text in _corpus_texts(schemas):
            for word in split_identifier(text):
                token = word.lower()
                assert stemmer_mod.cached_stem(token) == porter_stem(token)


class TestSharingAndCopies:
    def test_analyze_returns_independent_lists(self):
        first = SCHEMA_ANALYZER.analyze("PatientHeight")
        second = SCHEMA_ANALYZER.analyze("PatientHeight")
        assert first == second and first is not second
        first.extend(["mutated"])
        assert SCHEMA_ANALYZER.analyze("PatientHeight") == \
            ["patient", "height"]

    def test_analyzed_name_is_shared(self):
        first = analyzed_name("patient_height")
        assert analyzed_name("patient_height") is first
        expanded, plain = first
        assert plain is expanded  # no abbreviation: one tuple
        assert expanded == ("patient", "height")

    def test_abbreviated_name_has_two_views(self):
        expanded, plain = analyzed_name("pat_ht")
        assert expanded == ("pat", "height")
        assert plain == ("pat", "ht")

    def test_profiles_share_word_tuples(self):
        seen = {}
        elements = 0
        for schema in _generated_schemas(count=20):
            profile = SchemaMatchProfile.build(schema)
            for ref in schema.elements():
                words = profile.words_expanded[ref.path]
                assert seen.setdefault(ref.local_name, words) is words
                elements += 1
        assert elements > len(seen)  # some names repeat across schemas


class TestBounds:
    def test_memos_stay_within_bound(self, small_memos):
        schemas = _generated_schemas(count=40)
        texts = _corpus_texts(schemas)
        for text in texts:
            assert SCHEMA_ANALYZER.analyze(text) == \
                _cold_analyze(SCHEMA_ANALYZER, text)
            assert len(splitter_mod._SPLIT_CACHE) <= small_memos
            assert len(stemmer_mod._STEM_CACHE) <= small_memos
        for schema in schemas:
            _assert_profile_is_cold(SchemaMatchProfile.build(schema),
                                    schema)
            assert len(normalize_mod._NAME_CACHE) <= small_memos

    def test_long_texts_are_not_memoized(self, small_memos):
        text = "patient height " * 20
        assert SCHEMA_ANALYZER.analyze(text) == \
            _cold_analyze(SCHEMA_ANALYZER, text)
        assert text not in splitter_mod._SPLIT_CACHE
        analyzed_name("x" * 100)
        assert "x" * 100 not in normalize_mod._NAME_CACHE

    def test_type_family_memo_is_bounded(self):
        assert type_family.cache_info().maxsize is not None


class TestConcurrentRefreshAndSearch:
    """A refresh thread analyzing new schemas while search threads run
    over another repository: both sides see the cold results, with
    memos small enough to be cleared under contention."""

    QUERIES = [
        {"keywords": PAPER_KEYWORDS},
        {"keywords": "employee salary department manager"},
        {"keywords": "species site observation date latitude"},
        {"keywords": "customer order product price qty"},
        {"fragment": "CREATE TABLE patient (height DECIMAL, dob DATE);"},
    ]

    @staticmethod
    def _fingerprint(results):
        return [(r.schema_id, r.score, r.coarse_score, r.best_anchor,
                 r.element_scores) for r in results]

    def test_refresh_and_searches_agree(self, small_memos):
        served_schemas = _generated_schemas(seed=11, count=60)
        ingested_schemas = _generated_schemas(seed=23, count=60)
        served = SchemaRepository.in_memory()
        ingesting = SchemaRepository.in_memory()
        try:
            served.profile_store(capacity=4)  # misses rebuild profiles
            for schema in served_schemas:
                served.add_schema(schema)
            engine = served.engine()
            expected = [self._fingerprint(engine.search(**query))
                        for query in self.QUERIES]
            assert any(expected)
            store = ProfileStore(ingesting, capacity=8)
            indexer = RepositoryIndexer(ingesting, profile_store=store)
            errors = []
            mismatches = []

            def refresh():
                try:
                    for start in range(0, len(ingested_schemas), 6):
                        for schema in ingested_schemas[start:start + 6]:
                            ingesting.add_schema(schema)
                        indexer.refresh()
                except BaseException as exc:  # reported below
                    errors.append(exc)
                    raise

            def search():
                try:
                    for _ in range(3):
                        for query, want in zip(self.QUERIES, expected):
                            got = self._fingerprint(engine.search(**query))
                            if got != want:
                                mismatches.append(query)
                except BaseException as exc:  # reported below
                    errors.append(exc)
                    raise

            threads = [threading.Thread(target=refresh)] + \
                [threading.Thread(target=search) for _ in range(2)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == [] and mismatches == []
            for schema in ingested_schemas:
                document = indexer.index.document(schema.schema_id)
                assert document.terms == _cold_document_terms(schema)
                if schema.schema_id in store:
                    _assert_profile_is_cold(
                        store.get_profile(schema.schema_id), schema)
            engine.close()
        finally:
            served.close()
            ingesting.close()
