"""Unit tests for result formatting, lazy drill-ins and pipeline tracing."""

import pickle
import time

import pytest

import repro.core.results as results_mod
from repro.core.pipeline import PipelineTrace, timed_phase
from repro.core.results import ElementMatch, SearchResult, format_result_table
from repro.corpus.generator import CorpusGenerator
from repro.parsers.query_parser import parse_query
from repro.repository.store import SchemaRepository
from repro.service.xmlresponse import parse_results_xml, results_to_xml

from tests.conftest import (
    build_clinic_schema,
    build_conservation_schema,
    build_hr_schema,
)


def make_result(name: str = "clinic", score: float = 0.5,
                description: str = "desc") -> SearchResult:
    return SearchResult(schema_id=1, name=name, score=score, match_count=3,
                        entity_count=2, attribute_count=8,
                        description=description)


class TestFormatResultTable:
    def test_header_and_separator(self):
        table = format_result_table([make_result()])
        lines = table.splitlines()
        assert "Name" in lines[0]
        assert "Score" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_figure2_columns_present(self):
        """Figure 2: name, score, matches, entities, attributes,
        description columns."""
        header = format_result_table([]).splitlines()[0].lower()
        for column in ("name", "score", "matches", "entities",
                       "attributes", "description"):
            assert column in header

    def test_rows_numbered(self):
        table = format_result_table([make_result("a"), make_result("b")])
        rows = table.splitlines()[2:]
        assert rows[0].startswith("1 ")
        assert rows[1].startswith("2 ")

    def test_long_description_truncated(self):
        result = make_result(description="x" * 100)
        table = format_result_table([result], max_description=20)
        assert "x" * 21 not in table
        assert "..." in table

    def test_score_formatting(self):
        table = format_result_table([make_result(score=0.123456)])
        assert "0.1235" in table

    def test_empty_results(self):
        table = format_result_table([])
        assert len(table.splitlines()) == 2  # header + separator


class TestSearchResultHelpers:
    def test_top_matches_limit_and_order(self):
        result = make_result()
        result.element_matches = [
            ElementMatch("q", "e1", 0.2),
            ElementMatch("q", "e2", 0.9),
            ElementMatch("q", "e3", 0.5),
        ]
        top = result.top_matches(2)
        assert [m.element_path for m in top] == ["e2", "e3"]


class TestPipelineTrace:
    def test_timed_phase_records_duration(self):
        trace = PipelineTrace()
        with timed_phase(trace, "work") as phase:
            phase.items_in = 10
            time.sleep(0.01)
            phase.items_out = 5
        recorded = trace.phase("work")
        assert recorded.seconds >= 0.01
        assert recorded.items_in == 10
        assert recorded.items_out == 5

    def test_total_seconds_sums(self):
        trace = PipelineTrace()
        with timed_phase(trace, "a"):
            pass
        with timed_phase(trace, "b"):
            pass
        assert trace.total_seconds == pytest.approx(
            sum(p.seconds for p in trace.phases))

    def test_missing_phase_raises(self):
        with pytest.raises(KeyError):
            PipelineTrace().phase("ghost")

    def test_summary_contains_every_phase(self):
        trace = PipelineTrace()
        with timed_phase(trace, "alpha"):
            pass
        summary = trace.summary()
        assert "alpha" in summary
        assert "total" in summary


@pytest.fixture(scope="module")
def drill_repository():
    repo = SchemaRepository.in_memory()
    for schema in (build_clinic_schema(), build_hr_schema(),
                   build_conservation_schema()):
        repo.add_schema(schema)
    for generated in CorpusGenerator(seed=5).generate(40):
        repo.add_schema(generated.schema)
    repo.reindex()
    yield repo
    repo.close()


QUERY = {"keywords": "patient name height gender diagnosis date"}


def _pool_results(engine):
    """Unpaged, still-lazy results for every phase-1 candidate."""
    query = parse_query(**QUERY)
    hits = engine.searcher.search(query.flatten(),
                                  top_n=engine.config.candidate_pool)
    return query, engine.match_and_score(query, hits)


def _eager_matches(engine, repo, query, result):
    """The drill-in as the engine built it before it was deferred."""
    combined = engine.ensemble.match(
        query, repo.get_schema(result.schema_id)).combined
    floor = engine.config.penalties.match_floor
    return [ElementMatch(query_label=row, element_path=col, score=value)
            for row, col, value in combined.nonzero_pairs(threshold=floor)]


def _eager_copy(result, matches):
    return SearchResult(
        schema_id=result.schema_id, name=result.name, score=result.score,
        match_count=result.match_count, entity_count=result.entity_count,
        attribute_count=result.attribute_count,
        description=result.description, coarse_score=result.coarse_score,
        best_anchor=result.best_anchor,
        element_scores=dict(result.element_scores),
        element_matches=list(matches))


class TestLazyDrillIns:
    def test_matches_equal_eager_construction(self, drill_repository):
        engine = drill_repository.engine()
        query, results = _pool_results(engine)
        assert len(results) > 10
        assert sum(bool(r.element_matches) for r in results) > 10
        for result in results:
            assert result.element_matches == _eager_matches(
                engine, drill_repository, query, result)
        # Once built, a result holds the list only, not the cells too.
        assert all(result._match_cells is None for result in results)
        for result in engine.search(**QUERY):
            assert result.element_matches == _eager_matches(
                engine, drill_repository, query, result)

    def test_equality_repr_pickle_and_xml_unchanged(self, drill_repository):
        engine = drill_repository.engine()
        query, lazy = _pool_results(engine)
        eager = [_eager_copy(r, _eager_matches(engine, drill_repository,
                                               query, r))
                 for r in lazy]
        # Before any drill-in is read: repr, pickling and XML.
        assert [repr(r) for r in _pool_results(engine)[1]] == \
            [repr(r) for r in eager]
        unpickled = pickle.loads(pickle.dumps(_pool_results(engine)[1]))
        assert unpickled == eager
        xml = results_to_xml(_pool_results(engine)[1], query="q")
        assert xml == results_to_xml(eager, query="q")
        assert parse_results_xml(xml) == parse_results_xml(
            results_to_xml(eager, query="q"))
        # Equality, and pickling once the drill-ins are built.
        assert lazy == eager
        assert pickle.loads(pickle.dumps(lazy)) == eager
        assert lazy[0] != _eager_copy(lazy[0], [])

    def test_search_builds_drill_ins_for_the_page_only(
            self, drill_repository, monkeypatch):
        engine = drill_repository.engine()
        engine.search(**QUERY)  # warm the profile store
        built = {"n": 0}
        real = ElementMatch

        def counting(*args, **kwargs):
            built["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(results_mod, "ElementMatch", counting)
        page = engine.search(**QUERY, top_n=3)
        built_by_search = built["n"]
        on_page = sum(len(result.element_matches) for result in page)
        assert on_page > 0
        assert built_by_search == on_page  # built before search() returned
        assert built["n"] == on_page  # and not again on read
        assert engine.last_profile.matched_count > len(page)
        _query, pool = _pool_results(engine)
        assert built["n"] == on_page  # match_and_score stays lazy
        assert sum(len(r.element_matches) for r in pool) > on_page
