"""Matcher interface and the similarity matrix they all produce.

"Each (query element, schema element) pair has a corresponding value
which describes the match quality — a value between 0 and 1."
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator

import numpy as np

from repro.errors import MatchError
from repro.model.elements import ElementKind, ElementRef
from repro.model.query import QueryGraph
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.profile import MatchScratch, SchemaMatchProfile


class LabelAxis:
    """The validated, indexed labels of one side of a similarity matrix.

    Building an axis checks the labels for duplicates and builds the
    label -> position index once.  Matrices that share an axis share
    both (the profiled match phase builds one row axis per query and one
    column axis per schema profile), so neither the check nor the index
    is repeated per matrix.  Treat the labels as read-only.
    """

    __slots__ = ("labels", "index")

    def __init__(self, labels: list[str], side: str = "row") -> None:
        index = {label: i for i, label in enumerate(labels)}
        if len(index) != len(labels):
            raise MatchError(f"duplicate {side} labels in similarity matrix")
        self.labels = list(labels)
        self.index = index


def checked_similarity(value: float, row: object, col: object) -> float:
    """``value`` if it is a valid similarity, else :class:`MatchError`."""
    if not 0.0 <= value <= 1.0:
        raise MatchError(
            f"similarity must be in [0, 1], got {value} "
            f"for ({row!r}, {col!r})")
    return value


class SimilarityMatrix:
    """Query elements x schema elements, values in [0, 1].

    Rows are labelled with query element labels (keyword text or
    fragment element path); columns with candidate element paths.
    Backed by a numpy array so ensemble combination and the max-per-
    element collapse are vectorized.
    """

    def __init__(self, row_labels: list[str], col_labels: list[str],
                 values: np.ndarray | None = None) -> None:
        rows = LabelAxis(row_labels, "row")
        cols = LabelAxis(col_labels, "column")
        if values is not None:
            values = np.asarray(values, dtype=float)
        self._init(rows, cols, values)

    @classmethod
    def from_axes(cls, rows: LabelAxis, cols: LabelAxis,
                  values: np.ndarray | None = None) -> "SimilarityMatrix":
        """A matrix over already-validated axes (no label re-check).

        ``values``, when given, must be a float array; it is used as is.
        """
        matrix = cls.__new__(cls)
        matrix._init(rows, cols, values)
        return matrix

    def _init(self, rows: LabelAxis, cols: LabelAxis,
              values: np.ndarray | None) -> None:
        self._rows = rows
        self._cols = cols
        self.row_labels = rows.labels
        self.col_labels = cols.labels
        shape = (len(rows.labels), len(cols.labels))
        if values is None:
            self.values = np.zeros(shape)
        else:
            if values.shape != shape:
                raise MatchError(
                    f"matrix shape {values.shape} does not match labels "
                    f"{shape}")
            self.values = values

    # -- element access ----------------------------------------------------

    def get(self, row: str, col: str) -> float:
        return float(self.values[self._rows.index[row],
                                 self._cols.index[col]])

    def set(self, row: str, col: str, value: float) -> None:
        checked_similarity(value, row, col)
        self.values[self._rows.index[row], self._cols.index[col]] = value

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    # -- reductions used by tightness-of-fit -------------------------------

    def max_per_column(self) -> dict[str, float]:
        """Best query-element score for each schema element.

        This is the paper's "selecting the maximum value of each schema
        element's entry in the matrix as the final match score for that
        element".  Empty row set yields zeros.
        """
        if not self.row_labels:
            return {label: 0.0 for label in self.col_labels}
        return dict(zip(self.col_labels, self.values.max(axis=0).tolist()))

    def max_per_row(self) -> dict[str, float]:
        """Best schema-element score for each query element."""
        if not self.col_labels:
            return {label: 0.0 for label in self.row_labels}
        best = self.values.max(axis=1)
        return {label: float(best[i])
                for i, label in enumerate(self.row_labels)}

    def cells_above(self, threshold: float = 0.0) \
            -> tuple[list[int], list[int], list[float]]:
        """Row indexes, column indexes and values of the cells above
        ``threshold``, best first (the order :meth:`nonzero_pairs`
        yields)."""
        rows, cols = np.nonzero(self.values > threshold)
        values = self.values[rows, cols]
        order = np.argsort(-values)
        return (rows[order].tolist(), cols[order].tolist(),
                values[order].tolist())

    def nonzero_pairs(self, threshold: float = 0.0) \
            -> Iterator[tuple[str, str, float]]:
        """(row, col, value) triples with value > threshold, best first."""
        rows, cols, values = self.cells_above(threshold)
        row_labels, col_labels = self.row_labels, self.col_labels
        for i, j, value in zip(rows, cols, values):
            yield (row_labels[i], col_labels[j], value)

    # -- combination -------------------------------------------------------

    @staticmethod
    def combine(matrices: list["SimilarityMatrix"],
                weights: list[float] | None = None) -> "SimilarityMatrix":
        """Weighted average of same-shaped matrices.

        Weights are normalized to sum to 1 (uniform when omitted), so the
        result stays within [0, 1].  The result reuses the first
        matrix's (already validated) axes.
        """
        if not matrices:
            raise MatchError("cannot combine zero matrices")
        first = matrices[0]
        for other in matrices[1:]:
            if ((other._rows is not first._rows
                 and other.row_labels != first.row_labels)
                    or (other._cols is not first._cols
                        and other.col_labels != first.col_labels)):
                raise MatchError("matrices have mismatched labels")
        if weights is None:
            weights = [1.0] * len(matrices)
        if len(weights) != len(matrices):
            raise MatchError(
                f"{len(weights)} weights for {len(matrices)} matrices")
        if any(w < 0 for w in weights):
            raise MatchError("weights must be non-negative")
        total = sum(weights)
        if total <= 0:
            raise MatchError("weights sum to zero")
        combined = np.zeros(first.shape)
        for matrix, weight in zip(matrices, weights):
            combined += (weight / total) * matrix.values
        return SimilarityMatrix.from_axes(first._rows, first._cols, combined)


class Matcher(abc.ABC):
    """One fine-grained matcher of the ensemble."""

    #: Short identifier used in ensemble reports and learned weights.
    name: str = "matcher"

    @abc.abstractmethod
    def match(self, query: QueryGraph, candidate: Schema,
              profile: "SchemaMatchProfile | None" = None,
              scratch: "MatchScratch | None" = None) -> SimilarityMatrix:
        """Score every (query element, candidate element) pair.

        ``profile`` carries the candidate's precomputed artifacts (the
        acceleration layer); ``scratch`` carries per-query memoization
        shared across candidates.  Both are optional: without them a
        matcher derives everything from scratch, and the two paths must
        produce identical matrices (the golden-equivalence tests hold
        them to it).
        """

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def query_elements(query: QueryGraph) -> list[tuple[str, str]]:
        """(label, name) pairs for every query element."""
        return list(zip(query.element_labels(), query.element_names()))

    @staticmethod
    def candidate_elements(candidate: Schema) \
            -> list[tuple[str, str, ElementKind]]:
        """(path, local name, kind) triples for every candidate element."""
        out = []
        for ref in candidate.elements():
            out.append((ref.path, ref.local_name, ref.kind))
        return out

    def empty_matrix(self, query: QueryGraph, candidate: Schema,
                     profile: "SchemaMatchProfile | None" = None,
                     scratch: "MatchScratch | None" = None
                     ) -> SimilarityMatrix:
        """A zero matrix with the canonical labels for this pair.

        With a profile/scratch available the labels come from the
        precomputed artifacts instead of re-walking the schema and
        query; with both, the matrix reuses their validated axes.
        """
        return self._matrix(query, candidate, profile, scratch, None)

    def column_matrix(self, query: QueryGraph, candidate: Schema,
                      candidate_keys: Iterable[Hashable],
                      score_column: Callable[[Hashable], tuple[float, ...]],
                      profile: "SchemaMatchProfile | None" = None,
                      scratch: "MatchScratch | None" = None
                      ) -> SimilarityMatrix:
        """A matrix built in one pass, one column per candidate element.

        ``candidate_keys`` yields each element's candidate-side key in
        column order; ``score_column(key)`` returns that column's values,
        one per query element, each already range-checked (see
        :func:`checked_similarity`).  Elements with equal keys share a
        column, so each distinct key is scored once: once per search when
        ``scratch`` memoizes the columns, otherwise once per candidate.
        """
        memo = scratch.columns(self.name) if scratch is not None else {}
        columns = []
        for key in candidate_keys:
            column = memo.get(key)
            if column is None:
                column = score_column(key)
                memo[key] = column
            columns.append(column)
        return self._matrix(query, candidate, profile, scratch, columns)

    @staticmethod
    def _matrix(query: QueryGraph, candidate: Schema,
                profile: "SchemaMatchProfile | None",
                scratch: "MatchScratch | None",
                columns: list[tuple[float, ...]] | None
                ) -> SimilarityMatrix:
        if scratch is not None:
            rows = scratch.rows(query)
            if profile is not None:
                values = (None if columns is None
                          else _stack_columns(columns, len(rows.labels)))
                return SimilarityMatrix.from_axes(
                    rows, profile.column_axis(), values)
            row_labels = rows.labels
        else:
            row_labels = query.element_labels()
        if profile is not None:
            col_labels = profile.element_paths
        else:
            col_labels = [ref.path for ref in candidate.elements()]
        values = (None if columns is None
                  else _stack_columns(columns, len(row_labels)))
        return SimilarityMatrix(row_labels=row_labels, col_labels=col_labels,
                                values=values)


def _stack_columns(columns: list[tuple[float, ...]],
                   row_count: int) -> np.ndarray:
    """The (rows x columns) array whose column j is ``columns[j]``."""
    return np.array(columns, dtype=float).reshape(
        len(columns), row_count).T
