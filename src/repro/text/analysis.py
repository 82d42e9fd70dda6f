"""Analyzer chains: identifier text -> index terms.

An :class:`Analyzer` is a configurable pipeline:

    split -> lowercase -> [stopword filter] -> [length filter] -> [stem]

Two ready-made instances cover the library's needs:

* :data:`SCHEMA_ANALYZER` — the full chain used when indexing schema
  documents and analyzing queries (matches the paper's Lucene setup);
* :data:`SIMPLE_ANALYZER` — split + lowercase only, used where stemming
  would hurt (n-gram name matching works on surface forms).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.text.splitter import split_lower_cached
from repro.text.stemmer import cached_stem
from repro.text.stopwords import is_stopword


@dataclass(frozen=True, slots=True)
class Analyzer:
    """Configurable identifier-to-terms pipeline.

    Parameters
    ----------
    remove_stopwords:
        Drop English/schema stopwords after lowercasing.
    stem:
        Apply Porter stemming as the final stage.
    min_length / max_length:
        Tokens outside the byte-length band are dropped (single letters
        are noise; absurdly long tokens are usually junk data).
    """

    remove_stopwords: bool = True
    stem: bool = True
    min_length: int = 1
    max_length: int = 64

    def analyze(self, text: str) -> list[str]:
        """Produce the term list for one piece of text.

        Splits and stems come from process-wide memos; the returned list
        is always a fresh one, so callers may extend it.
        """
        terms: list[str] = []
        for token in split_lower_cached(text):
            if self.remove_stopwords and is_stopword(token):
                continue
            if not (self.min_length <= len(token) <= self.max_length):
                continue
            if self.stem:
                token = cached_stem(token)
            if token:
                terms.append(token)
        return terms

    def analyze_all(self, texts: list[str]) -> list[str]:
        """Analyze several texts and concatenate the term lists in order."""
        terms: list[str] = []
        for text in texts:
            terms.extend(self.analyze(text))
        return terms

    def unique_terms(self, text: str) -> set[str]:
        """Set view of :meth:`analyze` (used by set-based matchers)."""
        return set(self.analyze(text))


#: Full pipeline used by the inverted index.
SCHEMA_ANALYZER = Analyzer()

#: Splitting + lowercasing only, for surface-form matchers.
SIMPLE_ANALYZER = Analyzer(remove_stopwords=False, stem=False)
