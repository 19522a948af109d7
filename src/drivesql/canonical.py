"""Canonical JSON writing, where byte determinism matters, and JSON and JSONL
reading that names the file in every error."""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Any, Callable, TypeVar

from .errors import DriveSqlError

T = TypeVar("T")


def canonical_dumps(obj: Any) -> str:
    """Serialize with sorted keys and compact separators.

    Floats go through ``repr``, which round-trips exactly, so re-serializing
    a loaded document reproduces the original bytes. NaN and infinity are
    not JSON and raise ``ValueError``.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_jsonl(rows: list[Any]) -> str:
    """One canonical JSON object per line, with a trailing newline."""
    return "".join(canonical_dumps(row) + "\n" for row in rows)


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 through a temporary file beside ``path`` and a rename.

    A reader sees the old file or the complete new one; a failed write
    leaves the old file as it was and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text; undecodable bytes raise ``DriveSqlError`` naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise DriveSqlError(f"{path}: not UTF-8: {err}") from None


def read_json(path: str | Path) -> Any:
    """A whole JSON file's value; bad bytes or bad JSON raise ``DriveSqlError`` naming the path."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as err:
        raise DriveSqlError(f"{path}: invalid JSON: {err}") from None


def read_jsonl(path: str | Path, convert: Callable[[Any], T]) -> list[T]:
    """Convert each non-blank line of a JSONL file.

    A line that is not JSON or does not convert raises ``DriveSqlError``
    reading ``<path>:<line>: <missing field or reason>``.
    """
    rows = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(convert(json.loads(line)))
        except KeyError as err:
            raise DriveSqlError(f"{path}:{lineno}: missing field {err.args[0]!r}") from None
        except (TypeError, ValueError, AttributeError, OverflowError) as err:
            raise DriveSqlError(f"{path}:{lineno}: {err}") from None
    return rows
