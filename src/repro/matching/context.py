"""The context matcher: neighboring-element term sets.

"A context matcher builds a set of terms from neighboring elements, and
tries to capture matches when neighboring-element sets are similar to
each other."  (The technique the paper cites from Rahm & Bernstein's
survey.)

Neighborhood definition:

* for an *attribute* — its own words, its entity's name words, and the
  words of its sibling attributes;
* for an *entity* — its name words, its attributes' words, and the name
  words of FK-adjacent entities.

For the query side, keywords have no structure, so a keyword's context
is the whole query term set (all keywords and fragment element names
share one query "neighborhood"); fragment elements get real neighborhoods
from their fragment.  Similarity is Jaccard over analyzed word sets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.matching.base import (
    Matcher,
    SimilarityMatrix,
    checked_similarity,
)
from repro.matching.normalize import normalize_words
from repro.model.elements import ElementRef
from repro.model.graph import entity_adjacency
from repro.model.query import QueryGraph, QueryItemKind
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.profile import MatchScratch, SchemaMatchProfile


def _jaccard(a: set[str], b: set[str]) -> float:
    if not a or not b:
        return 0.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def element_context(schema: Schema, ref: ElementRef,
                    adjacency: dict[str, set[str]] | None = None) -> set[str]:
    """The neighborhood term set of one schema element."""
    if adjacency is None:
        adjacency = entity_adjacency(schema)
    entity = schema.entity(ref.entity)
    terms: set[str] = set(normalize_words(entity.name))
    for attr in entity.attributes:
        terms.update(normalize_words(attr.name))
    if ref.attribute is None:
        for neighbor in adjacency.get(entity.name, ()):
            terms.update(normalize_words(neighbor))
    return terms


class ContextMatcher(Matcher):
    """Scores element pairs by Jaccard similarity of neighborhood terms."""

    name = "context"

    def __init__(self, threshold: float = 0.1) -> None:
        if not 0.0 <= threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {threshold}")
        self._threshold = threshold

    def match(self, query: QueryGraph, candidate: Schema,
              profile: "SchemaMatchProfile | None" = None,
              scratch: "MatchScratch | None" = None) -> SimilarityMatrix:
        query_contexts = self._memoized_query_contexts(query, scratch)
        if profile is not None:
            # Fast path: neighborhood term sets were derived once at
            # ingest time; no adjacency rebuild, no re-normalization.
            contexts_of = profile.context_terms
            candidate_contexts = [contexts_of[path]
                                  for path in profile.element_paths]
        else:
            adjacency = entity_adjacency(candidate)
            candidate_contexts = [
                frozenset(element_context(candidate, ref, adjacency))
                for ref in candidate.elements()
            ]
        threshold = self._threshold

        def score_column(cand_context: frozenset[str]) -> tuple[float, ...]:
            # Keyword rows all share the flat query context: score each
            # distinct query context once per column.
            scores: dict[frozenset[str], float] = {}
            column = []
            for row_label, query_context in query_contexts:
                score = scores.get(query_context)
                if score is None:
                    score = 0.0
                    if query_context:
                        similarity = _jaccard(query_context, cand_context)
                        if similarity >= threshold:
                            score = checked_similarity(
                                similarity, row_label, cand_context)
                    scores[query_context] = score
                column.append(score)
            return tuple(column)

        # An entity's attributes share one context set, so a schema has
        # far fewer distinct columns than elements.
        return self.column_matrix(query, candidate, candidate_contexts,
                                  score_column, profile=profile,
                                  scratch=scratch)

    def _memoized_query_contexts(self, query: QueryGraph,
                                 scratch: "MatchScratch | None"
                                 ) -> list[tuple[str, frozenset[str]]]:
        """Query-side contexts, computed once per search when a scratch
        is available (they are a function of the query alone)."""
        if scratch is not None:
            cached = scratch.matcher_memo.get(self.name)
            if cached is not None:
                return cached  # type: ignore[return-value]
        contexts = self._query_contexts(query)
        if scratch is not None:
            scratch.matcher_memo[self.name] = contexts
        return contexts

    def _query_contexts(self, query: QueryGraph) \
            -> list[tuple[str, frozenset[str]]]:
        labels = query.element_labels()
        contexts: list[tuple[str, frozenset[str]]] = []
        # Keywords share the flat query term set as their context.
        keyword_terms: set[str] = set()
        for name in query.element_names():
            keyword_terms.update(normalize_words(name))
        # Frozen so the query contexts can key ``score_column``'s
        # per-row dedupe (every keyword row shares this one set).
        keyword_context = frozenset(keyword_terms)
        label_iter = iter(labels)
        for item in query.items:
            if item.kind is QueryItemKind.KEYWORD:
                label = next(label_iter)
                contexts.append((label, keyword_context))
            else:
                assert item.fragment is not None
                adjacency = entity_adjacency(item.fragment)
                for ref in item.fragment.elements():
                    label = next(label_iter)
                    contexts.append(
                        (label,
                         frozenset(element_context(item.fragment, ref,
                                                   adjacency))))
        return contexts
