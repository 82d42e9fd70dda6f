"""Identifier word splitting.

Schema element names arrive as ``patient_height``, ``PatientHeight``,
``patient-height``, ``patientHeight2``...  The splitter breaks them into
word tokens at delimiter characters, camelCase humps and letter/digit
boundaries, which is what lets the name matcher relate ``pat_ht`` to
``patient height`` downstream.
"""

from __future__ import annotations

import re
import sys

#: Characters treated as hard word delimiters inside identifiers.
_DELIMITERS = re.compile(r"[\s_\-./:,;|#@()\[\]{}'\"`~!?&*+=<>\\$%^]+")

#: camelCase hump: lower-or-digit followed by upper.
_CAMEL_HUMP = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")

#: Acronym boundary: run of uppers followed by Upper+lower (``XMLFile``).
_ACRONYM_BOUNDARY = re.compile(r"(?<=[A-Z])(?=[A-Z][a-z])")

#: Letter/digit boundary in either direction (``addr2`` -> ``addr 2``).
_ALNUM_BOUNDARY = re.compile(r"(?<=[A-Za-z])(?=[0-9])|(?<=[0-9])(?=[A-Za-z])")


def split_identifier(identifier: str) -> list[str]:
    """Split one identifier into word tokens, preserving original case.

    >>> split_identifier("PatientHeight_cm")
    ['Patient', 'Height', 'cm']
    >>> split_identifier("XMLHttpRequest")
    ['XML', 'Http', 'Request']
    >>> split_identifier("addr2")
    ['addr', '2']
    """
    pieces = _DELIMITERS.split(identifier)
    words: list[str] = []
    for piece in pieces:
        if not piece:
            continue
        piece = _ACRONYM_BOUNDARY.sub(" ", piece)
        piece = _CAMEL_HUMP.sub(" ", piece)
        piece = _ALNUM_BOUNDARY.sub(" ", piece)
        words.extend(w for w in piece.split(" ") if w)
    return words


def split_words_lower(identifier: str) -> list[str]:
    """Split and lowercase in one step (the common caller need)."""
    return [word.lower() for word in split_identifier(identifier)]


#: Process-wide memo of :func:`split_lower_cached`, in the style of the
#: n-gram cache: a plain dict, cleared when it reaches its bound.
#: Element names and schema terms repeat across a corpus, so ingest,
#: profile builds and query analysis split each distinct one once.
_SPLIT_CACHE: dict[str, tuple[str, ...]] = {}
_SPLIT_CACHE_MAX = 1 << 16
#: Longer texts (free-text descriptions) are split but not memoized:
#: they rarely repeat, and the entry bound is only a memory bound while
#: keys stay short.
_SPLIT_CACHE_MAX_TEXT = 64


def split_lower_cached(identifier: str) -> tuple[str, ...]:
    """Memoized :func:`split_words_lower` as a tuple of interned words.

    The tuple is shared between callers; copy it before mutating.
    """
    words = _SPLIT_CACHE.get(identifier)
    if words is None:
        words = tuple(sys.intern(word)
                      for word in split_words_lower(identifier))
        if len(identifier) <= _SPLIT_CACHE_MAX_TEXT:
            if len(_SPLIT_CACHE) >= _SPLIT_CACHE_MAX:
                _SPLIT_CACHE.clear()
            _SPLIT_CACHE[identifier] = words
    return words
