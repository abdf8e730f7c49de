"""Reference marker lookup: the straightforward version.

``match_span`` looks every candidate span up through ``Lexicon.lookup``, so
each joined span is normalized again although its surfaces already are.  It
serves only as the oracle the differential tests compare
``pausecue.lexicon`` against.
"""

from __future__ import annotations


def match_span(lexicon, surfaces, start):
    limit = min(lexicon.max_words, len(surfaces) - start)
    for width in range(limit, 0, -1):
        entry = lexicon.lookup(" ".join(surfaces[start:start + width]))
        if entry is not None:
            return entry, width
    return None
