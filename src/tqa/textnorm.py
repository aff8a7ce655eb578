"""Shared text normalization: tokenizing and backend key normalization."""

from __future__ import annotations

import re

# A run of word characters and apostrophes that starts and ends with a word
# character.
_TOKEN = re.compile(r"\w(?:[\w']*\w)?")


def tokenize(text: str) -> list[str]:
    """Casefolded word tokens; punctuation splits, edge apostrophes drop."""
    return _TOKEN.findall(text.casefold())


def normalize_key(text: str) -> str:
    """Lowercase, strip punctuation and collapse whitespace (backend keys)."""
    return " ".join(tokenize(text))
