"""Search results and the Figure 2 tabular view.

"Schemr returns a ranked list of n results, presented in a tabular
format, including columns for name, score, matches, entities,
attributes, and description."
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ElementMatch:
    """One matched (query element, schema element) pair for drill-in."""

    query_label: str
    element_path: str
    score: float


#: Above-floor cells of a combined similarity matrix, best first:
#: ``(row labels, column labels, row indexes, column indexes, values)``.
MatchCells = tuple[list[str], list[str], list[int], list[int], list[float]]

_FIELDS = ("schema_id", "name", "score", "match_count", "entity_count",
           "attribute_count", "description", "coarse_score", "best_anchor",
           "element_scores", "element_matches")


class SearchResult:
    """One row of the ranked result list.

    The ``element_matches`` drill-in can be given as a list or, by the
    engine, as the matrix cells it is built from (``match_cells``, used
    when ``element_matches`` is not given): the :class:`ElementMatch`
    list is then built on first read, so results that never reach a
    page never build one.  Equality and ``repr`` read the same list
    either way; a pickled result carries whichever form it holds.
    """

    __slots__ = _FIELDS[:-1] + ("_element_matches", "_match_cells")
    __hash__ = None  # type: ignore[assignment]  # mutable, like a dataclass

    def __init__(self, schema_id: int, name: str, score: float,
                 match_count: int, entity_count: int, attribute_count: int,
                 description: str = "", coarse_score: float = 0.0,
                 best_anchor: str | None = None,
                 element_scores: dict[str, float] | None = None,
                 element_matches: list[ElementMatch] | None = None,
                 *, match_cells: MatchCells | None = None) -> None:
        self.schema_id = schema_id
        self.name = name
        self.score = score
        self.match_count = match_count
        self.entity_count = entity_count
        self.attribute_count = attribute_count
        self.description = description
        self.coarse_score = coarse_score
        self.best_anchor = best_anchor
        self.element_scores = {} if element_scores is None else element_scores
        if element_matches is None and match_cells is None:
            element_matches = []
        self._element_matches = element_matches
        self._match_cells = match_cells

    @property
    def element_matches(self) -> list[ElementMatch]:
        """Matched (query element, schema element) pairs, best first."""
        matches = self._element_matches
        if matches is None:
            cells = self._match_cells
            if cells is None:
                # Another thread built the list between the two reads;
                # it stores the list before it drops the cells.
                return self._element_matches  # type: ignore[return-value]
            row_labels, col_labels, rows, cols, values = cells
            matches = [ElementMatch(row_labels[i], col_labels[j], value)
                       for i, j, value in zip(rows, cols, values)]
            self._element_matches = matches
            self._match_cells = None  # hold one form, not both
        return matches

    @element_matches.setter
    def element_matches(self, matches: list[ElementMatch]) -> None:
        self._element_matches = matches
        self._match_cells = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in _FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[union-attr]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(_FIELDS, self._values()))
        return f"{type(self).__name__}({fields})"

    def top_matches(self, limit: int = 5) -> list[ElementMatch]:
        """Best element matches for display, highest score first."""
        ranked = sorted(self.element_matches,
                        key=lambda m: (-m.score, m.element_path))
        return ranked[:limit]


_COLUMNS = ("rank", "name", "score", "matches", "entities", "attributes",
            "description")


def format_result_table(results: list[SearchResult],
                        max_description: int = 40) -> str:
    """Render results as the fixed-width table of the Figure 2 GUI panel."""
    rows: list[tuple[str, ...]] = [tuple(c.title() for c in _COLUMNS)]
    for rank, result in enumerate(results, start=1):
        description = result.description
        if len(description) > max_description:
            description = description[:max_description - 3] + "..."
        rows.append((
            str(rank),
            result.name,
            f"{result.score:.4f}",
            str(result.match_count),
            str(result.entity_count),
            str(result.attribute_count),
            description,
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))]
    lines = []
    for i, row in enumerate(rows):
        line = "  ".join(cell.ljust(width)
                         for cell, width in zip(row, widths)).rstrip()
        lines.append(line)
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
