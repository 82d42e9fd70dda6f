"""Tightness-of-fit: the paper's structurally-aware final score.

Given the per-element match scores S (the max of each schema element's
column in the combined similarity matrix), pick an *anchor entity* A and
penalize each matched element by its structural distance to the anchor:

* element in the anchor entity            -> no penalty
* element in the anchor's FK neighborhood -> small penalty
* element in an unrelated entity          -> larger penalty

The anchored score aggregates the penalized element scores (sum by
default, mean as an option — see :class:`PenaltyPolicy.aggregation`);
the final schema score is the maximum over all candidate anchors:

    t_max = max_A aggregate(S - P_A)

Only *matched* elements (score above a floor) participate — Figure 4
shows "an example schema showing only matched schema elements", and
aggregating over every unmatched element of a 200-column schema would
drown any signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import MatchError
from repro.model.elements import ElementRef
from repro.model.schema import Schema
from repro.scoring.neighborhood import NeighborhoodIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.profile import SchemaMatchProfile


#: Valid values of :attr:`PenaltyPolicy.aggregation`.
AGGREGATION_SUM = "sum"
AGGREGATION_MEAN = "mean"


@dataclass(frozen=True, slots=True)
class PenaltyPolicy:
    """The distance-bucket penalties.

    Defaults follow the paper's qualitative spec (small vs larger); the
    exact magnitudes are the knobs the E3 ablation bench sweeps.
    ``match_floor`` is the minimum combined similarity for a schema
    element to count as *matched* — Figure 4 scores "only matched schema
    elements", and without a floor the n-gram haze every word pair
    shares would flood the aggregate.

    ``aggregation`` resolves an ambiguity in the paper: the prose says
    the penalized scores are "averaged", but the displayed formula is
    ``t_max = max_A Σ(S − P_A)`` — a sum.  The sum (default) rewards
    schemas that match more of the query, which matches the ranking
    behaviour Figure 2 shows; the mean is available for the E3 ablation.
    """

    neighborhood_penalty: float = 0.1
    unrelated_penalty: float = 0.3
    match_floor: float = 0.25
    aggregation: str = AGGREGATION_SUM

    def __post_init__(self) -> None:
        if not 0.0 <= self.neighborhood_penalty <= 1.0:
            raise MatchError("neighborhood_penalty must be in [0, 1]")
        if not 0.0 <= self.unrelated_penalty <= 1.0:
            raise MatchError("unrelated_penalty must be in [0, 1]")
        if self.neighborhood_penalty > self.unrelated_penalty:
            raise MatchError(
                "neighborhood penalty must not exceed unrelated penalty")
        if self.aggregation not in (AGGREGATION_SUM, AGGREGATION_MEAN):
            raise MatchError(
                f"aggregation must be {AGGREGATION_SUM!r} or "
                f"{AGGREGATION_MEAN!r}, got {self.aggregation!r}")


@dataclass(slots=True)
class AnchorScore:
    """The penalized-and-averaged score for one anchor choice."""

    anchor: str
    score: float
    penalized_elements: dict[str, float] = field(default_factory=dict)


@dataclass(slots=True)
class TightnessResult:
    """Outcome of scoring one candidate schema."""

    score: float
    best_anchor: str | None
    anchors: list[AnchorScore] = field(default_factory=list)
    matched_elements: dict[str, float] = field(default_factory=dict)

    @property
    def element_count(self) -> int:
        return len(self.matched_elements)


class TightnessScorer:
    """Computes ``t_max`` for candidate schemas."""

    def __init__(self, policy: PenaltyPolicy | None = None) -> None:
        self._policy = policy or PenaltyPolicy()

    @property
    def policy(self) -> PenaltyPolicy:
        return self._policy

    def score(self, schema: Schema,
              element_scores: dict[str, float],
              profile: "SchemaMatchProfile | None" = None
              ) -> TightnessResult:
        """Score ``schema`` given per-element match scores.

        ``element_scores`` maps element paths (``patient.height``,
        ``patient``) to combined similarity in [0, 1] — normally the
        ``max_per_column`` of the ensemble's combined matrix.  Unknown
        paths raise :class:`MatchError`; a mismatched matrix is a
        programming error worth failing loudly on.

        ``profile``, the schema's match profile, saves the per-candidate
        derivations: a matched path resolves to its entity by one lookup
        in ``profile.entity_of`` instead of a path parse and a scan of the
        schema, and the FK transitive closure comes from the profile's
        cached :class:`NeighborhoodIndex`.
        """
        if profile is not None:
            entity_for = profile.entity_of.get
            neighborhoods = profile.neighborhood_index()
        else:
            def entity_for(path: str) -> str | None:
                ref = ElementRef.parse(path)
                return ref.entity if schema.has_element(ref) else None
            neighborhoods = None
        floor = self._policy.match_floor
        matched: dict[str, float] = {}
        entity_of: dict[str, str] = {}
        for path, value in element_scores.items():
            if value <= floor:
                continue
            entity = entity_for(path)
            if entity is None:
                raise MatchError(
                    f"element {path!r} does not exist in schema "
                    f"{schema.name!r}")
            matched[path] = min(value, 1.0)
            entity_of[path] = entity
        if not matched:
            return TightnessResult(score=0.0, best_anchor=None)

        if neighborhoods is None:
            neighborhoods = NeighborhoodIndex(schema)
        # Candidate anchors: every entity that contains a matched element.
        # An anchor with no matched element of its own is dominated by one
        # that has (penalties only grow), so restricting is safe and keeps
        # the loop linear in matched entities.
        anchors = sorted(set(entity_of.values()))
        anchor_scores: list[AnchorScore] = []
        for anchor in anchors:
            penalized: dict[str, float] = {}
            total = 0.0
            for path, value in matched.items():
                relation = neighborhoods.relation(anchor, entity_of[path])
                if relation == NeighborhoodIndex.SAME_ENTITY:
                    penalty = 0.0
                elif relation == NeighborhoodIndex.SAME_NEIGHBORHOOD:
                    penalty = self._policy.neighborhood_penalty
                else:
                    penalty = self._policy.unrelated_penalty
                adjusted = max(value - penalty, 0.0)
                penalized[path] = adjusted
                total += adjusted
            if self._policy.aggregation == AGGREGATION_MEAN:
                total /= len(matched)
            anchor_scores.append(AnchorScore(
                anchor=anchor,
                score=total,
                penalized_elements=penalized,
            ))
        best = max(anchor_scores, key=lambda a: (a.score, a.anchor))
        return TightnessResult(
            score=best.score,
            best_anchor=best.anchor,
            anchors=anchor_scores,
            matched_elements=matched,
        )
