"""Text parsing shared by response verification and metric scoring."""

from __future__ import annotations

import re
from typing import Sequence

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?")
_TOKEN = re.compile(r"[0-9a-z]+")


def extract_numbers(text: str) -> list[float]:
    """All maximal number substrings, in reading order.

    A number is an optional sign, digits, and an optional decimal fraction;
    anything else, including scientific notation, splits into parts.
    """
    return [float(m) for m in _NUMBER.findall(text)]


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on runs of non-alphanumeric characters."""
    return _TOKEN.findall(text.lower())


def count_mentions(tokens: list[str], needle: Sequence[str]) -> int:
    """Occurrences of the token sequence ``needle``, a tokenized label, inside
    the token list; an empty needle occurs nowhere."""
    if not needle:
        return 0
    if len(needle) == 1:
        return tokens.count(needle[0])
    return list(zip(*(tokens[i:] for i in range(len(needle))))).count(tuple(needle))
