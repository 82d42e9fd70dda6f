"""Schema matching: the fine-grained ensemble of phase two.

"The top candidate schemas are evaluated against the query-graph and
ranked using an ensemble of fine-grained matchers. ... Each matcher
produces a similarity matrix between query graph elements and schema
elements. ... the similarity matrices of the different matchers are
combined into a single matrix containing total similarity scores [with]
a weighting scheme, which is initially uniform."

Matchers provided (the paper's two plus the "other matchers may be used
as well" extension set):

* :class:`~repro.matching.name.NameMatcher` — normalized n-gram overlap
  (the paper's most useful matcher);
* :class:`~repro.matching.context.ContextMatcher` — neighboring-element
  term sets (Rahm & Bernstein-style context);
* :class:`~repro.matching.exact.ExactMatcher` — normalized equality;
* :class:`~repro.matching.synonym.SynonymMatcher` — thesaurus lookup;
* :class:`~repro.matching.datatype.DataTypeMatcher` — type-family
  compatibility for attribute/attribute pairs;
* :class:`~repro.matching.structure.StructureMatcher` — entity shape
  similarity for fragment queries.

:class:`~repro.matching.ensemble.MatcherEnsemble` combines them;
:class:`~repro.matching.learner.WeightLearner` trains the weighting
scheme from recorded search history with logistic regression, as the
paper proposes via Madhavan et al.'s corpus-based meta-learner.
"""

from repro.matching.base import Matcher, SimilarityMatrix
from repro.matching.context import ContextMatcher
from repro.matching.datatype import DataTypeMatcher
from repro.matching.ensemble import MatcherEnsemble
from repro.matching.exact import ExactMatcher
from repro.matching.learner import TrainingExample, WeightLearner
from repro.matching.name import NameMatcher
from repro.matching.ngram import (
    dice_similarity,
    ngrams,
    weighted_gram_profile,
    weighted_ngram_similarity,
)
from repro.matching.normalize import expand_abbreviations, normalize_name
from repro.matching.profile import MatchScratch, ProfileStore, SchemaMatchProfile
from repro.matching.structure import StructureMatcher
from repro.matching.synonym import SynonymMatcher

__all__ = [
    "ContextMatcher",
    "DataTypeMatcher",
    "ExactMatcher",
    "MatchScratch",
    "Matcher",
    "MatcherEnsemble",
    "NameMatcher",
    "ProfileStore",
    "SchemaMatchProfile",
    "SimilarityMatrix",
    "StructureMatcher",
    "SynonymMatcher",
    "TrainingExample",
    "WeightLearner",
    "dice_similarity",
    "expand_abbreviations",
    "ngrams",
    "normalize_name",
    "weighted_gram_profile",
    "weighted_ngram_similarity",
]
