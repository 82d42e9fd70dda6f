"""Data-type matcher: type-family compatibility for attribute pairs.

Schemr's OpenII integration sketch mentions "a codebook that contains
data types like units, date/time, and geographic location".  This
matcher implements the data-type leg: declared SQL/XSD types are mapped
into families (numeric, text, temporal, boolean, binary, identifier)
and attribute pairs are scored by a family-compatibility table.  Pairs
where either side lacks a declared type, and any pair involving an
entity, score 0 — the matcher abstains rather than guessing.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.matching.base import Matcher, SimilarityMatrix
from repro.model.elements import ElementKind, ElementRef
from repro.model.query import QueryGraph, QueryItemKind
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.profile import MatchScratch, SchemaMatchProfile

#: type-name (lowercased, parameters stripped) -> family
_TYPE_FAMILIES: dict[str, str] = {
    # numeric
    "int": "numeric", "integer": "numeric", "smallint": "numeric",
    "bigint": "numeric", "tinyint": "numeric", "decimal": "numeric",
    "numeric": "numeric", "float": "numeric", "real": "numeric",
    "double": "numeric", "double precision": "numeric", "number": "numeric",
    "byte": "numeric", "short": "numeric", "long": "numeric",
    # text
    "char": "text", "varchar": "text", "text": "text", "string": "text",
    "clob": "text", "nvarchar": "text", "nchar": "text", "token": "text",
    "normalizedstring": "text",
    # temporal
    "date": "temporal", "time": "temporal", "datetime": "temporal",
    "timestamp": "temporal", "year": "temporal", "duration": "temporal",
    "gyear": "temporal", "gmonth": "temporal", "gday": "temporal",
    # boolean
    "bool": "boolean", "boolean": "boolean", "bit": "boolean",
    # binary
    "blob": "binary", "binary": "binary", "varbinary": "binary",
    "bytea": "binary", "base64binary": "binary", "hexbinary": "binary",
    # identifiers
    "id": "identifier", "idref": "identifier", "uuid": "identifier",
    "serial": "identifier", "bigserial": "identifier",
}

#: (family, family) -> score; symmetric, same-family pairs handled apart.
_CROSS_FAMILY: dict[frozenset[str], float] = {
    frozenset({"numeric", "identifier"}): 0.6,
    frozenset({"text", "identifier"}): 0.4,
    frozenset({"numeric", "temporal"}): 0.2,
    frozenset({"text", "temporal"}): 0.2,
    frozenset({"numeric", "boolean"}): 0.2,
}

_PARAMS = re.compile(r"\(.*\)$")


@lru_cache(maxsize=1 << 12)
def type_family(declared: str) -> str | None:
    """Map a declared type string to its family, or None when unknown.

    Memoized: a corpus repeats a small set of declared types.
    """
    cleaned = _PARAMS.sub("", declared.strip().lower()).strip()
    if not cleaned:
        return None
    return _TYPE_FAMILIES.get(cleaned)


def family_similarity(a: str | None, b: str | None) -> float:
    """Compatibility score between two type families."""
    if a is None or b is None:
        return 0.0
    if a == b:
        return 1.0
    return _CROSS_FAMILY.get(frozenset({a, b}), 0.0)


class DataTypeMatcher(Matcher):
    """Scores attribute pairs by declared-type family compatibility.

    Only fragment attributes carry declared types on the query side, so
    keyword rows always stay 0 — this matcher refines fragment queries
    and abstains otherwise, which is the behaviour the ensemble
    weighting expects.
    """

    name = "datatype"

    def match(self, query: QueryGraph, candidate: Schema,
              profile: "SchemaMatchProfile | None" = None,
              scratch: "MatchScratch | None" = None) -> SimilarityMatrix:
        matrix = self.empty_matrix(query, candidate,
                                   profile=profile, scratch=scratch)
        if profile is not None:
            candidate_families = list(profile.type_families.items())
        else:
            candidate_families = self._attribute_families(candidate)
        for label, family in self._query_families(query, scratch):
            if family is None:
                continue
            for path, cand_family in candidate_families:
                score = family_similarity(family, cand_family)
                if score > 0.0:
                    matrix.set(label, path, score)
        return matrix

    def _query_families(self, query: QueryGraph,
                        scratch: "MatchScratch | None"
                        ) -> list[tuple[str, str | None]]:
        """(label, declared-type family) per fragment element, memoized
        per search; keyword rows are omitted (they carry no type)."""
        if scratch is not None:
            cached = scratch.matcher_memo.get(self.name)
            if cached is not None:
                return cached  # type: ignore[return-value]
        families: list[tuple[str, str | None]] = []
        labels = iter(query.element_labels())
        for item in query.items:
            if item.kind is QueryItemKind.KEYWORD:
                next(labels)  # keywords have no declared type
                continue
            assert item.fragment is not None
            for ref in item.fragment.elements():
                label = next(labels)
                families.append(
                    (label, self._ref_family(item.fragment, ref)))
        if scratch is not None:
            scratch.matcher_memo[self.name] = families
        return families

    @staticmethod
    def _ref_family(schema: Schema, ref: ElementRef) -> str | None:
        if ref.kind is ElementKind.ENTITY:
            return None
        attribute = schema.entity(ref.entity).attribute(ref.attribute or "")
        return type_family(attribute.data_type)

    @staticmethod
    def _attribute_families(schema: Schema) -> list[tuple[str, str | None]]:
        out: list[tuple[str, str | None]] = []
        for entity in schema.entities.values():
            for attr in entity.attributes:
                out.append((f"{entity.name}.{attr.name}",
                            type_family(attr.data_type)))
        return out
