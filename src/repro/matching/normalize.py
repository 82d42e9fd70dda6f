"""Term normalization for name matching.

"A name matcher normalizes terms and computes n-gram overlap..."
Normalization here means: identifier splitting, lowercasing, and
expansion of the abbreviations that plague real schema names (``qty``,
``amt``, ``dob``, ``addr``...).  The abbreviation table is intentionally
conservative — only unambiguous, widely used short forms — because a
wrong expansion costs more than a missed one (the n-gram overlap still
catches prefix abbreviations like ``pat`` vs ``patient`` on its own).
"""

from __future__ import annotations

import sys
from typing import Iterable

from repro.text.splitter import split_lower_cached, split_words_lower

#: Unambiguous schema-name abbreviations -> expansions.
ABBREVIATIONS: dict[str, str] = {
    "abbr": "abbreviation",
    "acct": "account",
    "addr": "address",
    "amt": "amount",
    "avg": "average",
    "bal": "balance",
    "cat": "category",
    "cnt": "count",
    "ctry": "country",
    "curr": "currency",
    "desc": "description",
    "dept": "department",
    "dob": "date of birth",
    "emp": "employee",
    "fname": "first name",
    "gend": "gender",
    "govt": "government",
    "hosp": "hospital",
    "hr": "hour",
    "ht": "height",
    "lang": "language",
    "lname": "last name",
    "loc": "location",
    "max": "maximum",
    "med": "medication",
    "min": "minimum",
    "mgr": "manager",
    "msg": "message",
    "nbr": "number",
    "num": "number",
    "org": "organization",
    "pct": "percent",
    "phn": "phone",
    "pos": "position",
    "prod": "product",
    "pwd": "password",
    "qty": "quantity",
    "ref": "reference",
    "sal": "salary",
    "ssn": "social security number",
    "st": "street",
    "stat": "status",
    "tel": "telephone",
    "temp": "temperature",
    "tot": "total",
    "usr": "user",
    "wt": "weight",
    "yr": "year",
}


def expand_abbreviations(words: Iterable[str]) -> list[str]:
    """Replace each known abbreviation with its expansion words."""
    out: list[str] = []
    for word in words:
        expansion = ABBREVIATIONS.get(word)
        if expansion is None:
            out.append(word)
        else:
            out.extend(expansion.split())
    return out


def normalize_name(name: str, expand: bool = True) -> str:
    """Canonical single-string form of an element name.

    Splits the identifier, lowercases, optionally expands abbreviations,
    and rejoins without separators.  Removing separators is what lets
    pure n-gram overlap see through "delimiter characters not in the
    original query" (the paper's example failure mode).

    >>> normalize_name("Patient_Height")
    'patientheight'
    >>> normalize_name("pat_ht")  # 'pat' is not in the table; 'ht' is
    'patheight'
    """
    words = split_words_lower(name)
    if expand:
        words = expand_abbreviations(words)
    return "".join(words)


def normalize_words(name: str, expand: bool = True) -> list[str]:
    """Word-list form of :func:`normalize_name` (for set matchers)."""
    words = split_words_lower(name)
    if expand:
        words = expand_abbreviations(words)
    return words


#: Process-wide memo of :func:`analyzed_name`, a plain dict cleared
#: when it reaches its bound (a corpus repeats a few thousand distinct
#: element names across all its schemas).
_NAME_CACHE: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
_NAME_CACHE_MAX = 1 << 15
#: Longer names are analyzed but not memoized, which keeps the entry
#: bound a memory bound.
_NAME_CACHE_MAX_TEXT = 64


def analyzed_name(name: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(expanded, plain)`` :func:`normalize_words` of ``name``, memoized.

    The tuples and their interned words are shared by every caller (and
    every schema profile) that analyzes the same name.  When no word is
    an abbreviation, the plain tuple is the expanded tuple.
    """
    hit = _NAME_CACHE.get(name)
    if hit is None:
        plain = split_lower_cached(name)
        expanded = tuple(sys.intern(word)
                         for word in expand_abbreviations(plain))
        if expanded == plain:
            expanded = plain
        hit = (expanded, plain)
        if len(name) <= _NAME_CACHE_MAX_TEXT:
            if len(_NAME_CACHE) >= _NAME_CACHE_MAX:
                _NAME_CACHE.clear()
            _NAME_CACHE[name] = hit
    return hit
