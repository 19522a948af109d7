"""Canonical JSON writing, where byte determinism matters, and JSON and JSONL
reading that names the file in every error."""

from __future__ import annotations

import json
import math
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


def json_text(value: Any, field: str) -> str:
    """``value`` if it is a string; anything else raises ``ValueError`` naming ``field``."""
    if not isinstance(value, str):
        raise ValueError(f"{field}: expected a string, got {type(value).__name__}")
    return value


def json_int(value: Any, field: str) -> int:
    """``value`` if it is an int, not a bool; anything else, a float with an
    integral value included, raises ``ValueError`` naming ``field``."""
    if type(value) is not int:
        raise ValueError(f"{field}: expected an integer, got {type(value).__name__}")
    return value


def json_bool(value: Any, field: str) -> bool:
    """``value`` if it is ``true`` or ``false``; anything else raises
    ``ValueError`` naming ``field``."""
    if type(value) is not bool:
        raise ValueError(f"{field}: expected true or false, got {type(value).__name__}")
    return value


def json_number(value: Any, field: str) -> float:
    """``value`` as a float if it is a finite int or float, not a bool;
    anything else raises ``ValueError`` naming ``field``."""
    # An exact type test: JSON decodes to plain int and float, and it keeps
    # bool, an int subclass, out in one comparison.
    if type(value) not in (int, float):
        raise ValueError(f"{field}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{field}: number too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{field}: expected a finite number, got {number!r}")
    return number


def json_array(values: Any, field: str, item: Callable[[Any, str], T]) -> list[T]:
    """Each item of the JSON array ``values`` through ``item``; a bad item
    raises ``ValueError`` naming ``field[i]``."""
    if not isinstance(values, list):
        raise ValueError(f"{field}: expected an array, got {type(values).__name__}")
    try:
        return [item(value, field) for value in values]
    except ValueError:
        # Format the index only on failure: check again, naming each item.
        for i, value in enumerate(values):
            item(value, f"{field}[{i}]")
        raise


def _refuse_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a finite number")


_JSONL_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def read_jsonl(path: str | Path, convert: Callable[[Any], T]) -> list[T]:
    """Convert each non-blank line of a JSONL file.

    A line that is not JSON, holds ``NaN`` or an infinity, or does not
    convert raises ``DriveSqlError`` reading
    ``<path>:<line>: <missing field or reason>``.
    """
    rows = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(convert(_JSONL_DECODER.decode(line)))
        except KeyError as err:
            raise DriveSqlError(f"{path}:{lineno}: missing field {err.args[0]!r}") from None
        except (TypeError, ValueError, AttributeError, OverflowError) as err:
            raise DriveSqlError(f"{path}:{lineno}: {err}") from None
    return rows
