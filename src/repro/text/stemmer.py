"""Porter stemming algorithm, implemented from the 1980 paper.

M.F. Porter, "An algorithm for suffix stripping", Program 14(3) 1980.
This is the classic 5-step rule cascade; it matches the reference
implementation's output on the standard vocabulary for the cases our
tests exercise (plurals, -ed/-ing, y->i, double suffixes, -full/-ness,
-ant/-ence, final -e removal, -ll reduction).

Only lowercase ASCII words should be passed in; the analyzer chain
guarantees that.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a consonant at the start or after a vowel sound boundary:
        # it is a consonant iff the previous letter is NOT a consonant.
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """The m in Porter's [C](VC)^m[V] decomposition of ``stem``."""
    m = 0
    prev_was_vowel = False
    for i in range(len(stem)):
        is_vowel = not _is_consonant(stem, i)
        if prev_was_vowel and not is_vowel:
            m += 1
        prev_was_vowel = is_vowel
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_consonant(word, len(word) - 1))


def _ends_cvc(word: str) -> bool:
    """*o condition: stem ends cvc where the final c is not w, x or y."""
    if len(word) < 3:
        return False
    return (_is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy")


def _replace_suffix(word: str, suffix: str, replacement: str) -> str:
    return word[: len(word) - len(suffix)] + replacement


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return _replace_suffix(word, "sses", "ss")
    if word.endswith("ies"):
        return _replace_suffix(word, "ies", "i")
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return word[:-1]
        return word
    flag = False
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
        flag = True
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
        flag = True
    if flag:
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if _ends_double_consonant(word) and not word.endswith(("l", "s", "z")):
            return word[:-1]
        if _measure(word) == 1 and _ends_cvc(word):
            return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _apply_rules(word: str, rules: tuple[tuple[str, str], ...],
                 min_measure: int) -> str:
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure - 1:
                return stem + replacement
            return word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                return stem
            return word
    # (m>1 and (*S or *T)) ION
    if word.endswith("ion"):
        stem = word[:-3]
        if _measure(stem) > 1 and stem and stem[-1] in "st":
            return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and word.endswith("ll"):
        return word[:-1]
    return word


def porter_stem(word: str) -> str:
    """Stem one lowercase word.  Words of length <= 2 pass through."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2_RULES, min_measure=1)
    word = _apply_rules(word, _STEP3_RULES, min_measure=1)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word


#: Process-wide memo of :func:`cached_stem`: token -> stem, a plain
#: dict cleared when it reaches its bound.  Tokens arrive through the
#: analyzer's length filter (64 characters by default), so the entry
#: bound is a memory bound.
_STEM_CACHE: dict[str, str] = {}
_STEM_CACHE_MAX = 1 << 16


def cached_stem(word: str) -> str:
    """Memoized :func:`porter_stem` (tokens repeat across a corpus)."""
    stem = _STEM_CACHE.get(word)
    if stem is None:
        stem = porter_stem(word)
        if len(_STEM_CACHE) >= _STEM_CACHE_MAX:
            _STEM_CACHE.clear()
        _STEM_CACHE[word] = stem
    return stem
