"""Canonical JSON writing, where byte determinism matters, and JSON and JSONL
reading that names the file in every error."""

from __future__ import annotations

import gc
import json
import os
import secrets
from contextlib import contextmanager
from functools import partial
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DriveSqlError

T = TypeVar("T")


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector in the block. Reading or writing a
    document allocates hundreds of thousands of containers, none of them in
    a cycle, and the collector would walk the growing heap again and again
    while they pile up: about a fifth of a database load's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# One C encoder for every call. ``json.dumps`` with options builds a new
# ``JSONEncoder`` on every call, and ``JSONEncoder.encode`` a new C encoder
# with a dict of the containers it is inside: about a third and a fifth of
# a pairs line's encoding. The arguments are those ``iterencode`` passes for
# ``sort_keys=True, separators=(",", ":"), allow_nan=False``, in its order
# (markers, default, string encoder, indent, key separator, item separator,
# sort_keys, skipkeys, allow_nan), but with no markers dict.
_C_ENCODE = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, False
)


def canonical_dumps(obj: Any) -> str:
    """Serialize with sorted keys and compact separators.

    Floats go through ``repr``, which round-trips exactly, so re-serializing
    a loaded document reproduces the original bytes. NaN and infinity are
    not JSON and raise ``ValueError``. Containers are not checked for
    cycles: a document that contains itself raises ``RecursionError``, not
    ``json.dumps``'s ``ValueError``.
    """
    return "".join(_C_ENCODE(obj, 0))


def write_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or an iterable of string chunks, as UTF-8
    through a temporary file beside ``path`` and a rename.

    A reader sees the old file or the complete new one. A failed write, a
    chunk that fails to serialize included, leaves the old file as it was
    and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            # A bare string is one chunk, not an iterable of characters.
            if isinstance(text, str):
                handle.write(text)
            else:
                handle.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@collector_paused()
def write_json(path: str | Path, doc: Any) -> None:
    """Write ``doc`` as canonical JSON and a newline, atomically."""
    write_atomic(path, (canonical_dumps(doc), "\n"))


def jsonl_lines(rows: Iterable[Any]) -> Iterator[str]:
    """One canonical JSON line per row, each serialized only when taken."""
    return (canonical_dumps(row) + "\n" for row in rows)


@collector_paused()
def write_jsonl(path: str | Path, rows: Iterable[Any]) -> None:
    """Write one canonical JSON line per row, atomically, serializing each
    row only as the file takes it."""
    write_atomic(path, jsonl_lines(rows))


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text; undecodable bytes raise ``DriveSqlError`` naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise DriveSqlError(f"{path}: not UTF-8: {err}") from None


# A document nested deeper than the decoder can recurse; Python's recursion
# limit sets the depth, about a thousand levels.
_TOO_DEEP = "invalid JSON: nested too deeply"


def read_json(path: str | Path) -> Any:
    """A whole JSON file's value; bad bytes or bad JSON, nesting too deep
    included, raise ``DriveSqlError`` naming the path."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as err:
        raise DriveSqlError(f"{path}: invalid JSON: {err}") from None
    except RecursionError:
        raise DriveSqlError(f"{path}: {_TOO_DEEP}") from None


def _refuse_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a finite number")


_JSONL_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)

# The decoder's C scanner: ``(value, end)`` of the JSON value that starts at
# an index, with none of ``decode``'s whitespace skipping and end check.
_SCAN = _JSONL_DECODER.scan_once


def decode_json(text: str) -> Any:
    """The value of the JSON text ``text``. Text that is not JSON, holds
    ``NaN`` or an infinity, or nests too deeply raises ``ValueError``."""
    try:
        return _JSONL_DECODER.decode(text)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


# Rows per block of a column read, a table's or a file's: a block's values
# stay in the CPU cache through every pass its column forms make over them.
# 256 pairs lines read in 0.8-0.96x the time of 1024; table rows, in the same time.
_BLOCK_ROWS = 256


def read_by_blocks(
    items: Sequence[Any],
    column: Callable[[Sequence[Any]], list[T] | None],
    read: Callable[[int, Any], T | None],
    repeated: Callable[[int, Any, int], Exception],
) -> dict[Any, T]:
    """The records of ``items``, tuples whose first field is their id, keyed
    by id in item order, read by ``column`` a block of ``_BLOCK_ROWS`` items
    at a time. A block that it declines, or that repeats an id, is read
    again item by item by ``read(i, item)``, which alone names a refusal and
    gives None for an item that holds no record. The first repeated id
    raises ``repeated(i, id, first)``, where ``first`` is the index of the
    item that held it."""
    records: dict[Any, T] = {}
    for start in range(0, len(items), _BLOCK_ROWS):
        block = items[start : start + _BLOCK_ROWS]
        if (read_block := column(block)) is not None:
            held = len(records)
            records.update(zip(map(itemgetter(0), read_block), read_block))
            if len(records) == held + len(read_block):
                continue
            # An id repeats. Take out the ids the block added; the item
            # loop meets the repeat again and names it.
            for row_id in list(records)[held:]:
                del records[row_id]
        for i, item in enumerate(block, start):
            record = read(i, item)
            if record is not None and records.setdefault(record[0], record) is not record:
                # The first item that held the id, found by reading again the
                # items before this one, all of which ``read`` accepts.
                earlier = map(read, range(i), items[:i])
                first = next(j for j, held in enumerate(earlier) if held and held[0] == record[0])
                raise repeated(i, record[0], first)
    return records


def _read_block(lines: list[str], column: Callable[[list[Any]], list[T] | None]) -> list[T] | None:
    """The rows of ``lines`` read by ``column``, or None if a line does not
    decode whole on its own (a blank one included) or ``column`` declines."""
    try:
        scanned = list(map(_SCAN, lines, repeat(0)))
    except (ValueError, StopIteration, RecursionError):
        return None
    if list(map(itemgetter(1), scanned)) != list(map(len, lines)):
        return None
    return column(list(map(itemgetter(0), scanned)))


@collector_paused()
def read_jsonl(path: str | Path, read: Callable[[Any], T]) -> list[T]:
    """Read each non-blank line of a JSONL file into a row.

    Only ``\\n`` ends a line: a JSON string may hold the other breaks that
    ``str.splitlines`` splits on. Each line is decoded on its own, never
    joined to the next. ``read_by_blocks`` reads the lines through
    ``read.column``, the column form of ``read``; a block that it declines,
    or that holds a line that is blank or does not decode whole, is read
    again line by line through ``read``, which alone names refusals.

    ``read`` names a refused field by its path from the line. A line that is
    not JSON, holds ``NaN`` or an infinity, nests too deeply, or that
    ``read`` refuses with a ``ValueError`` raises ``DriveSqlError`` reading
    ``<path>:<line>: <field path>: <reason>``. So does a row whose first
    field, ``pair_id``, repeats an earlier row's, naming the earlier line.
    """
    lines = read_text(path).split("\n")
    if not lines[-1].strip():
        lines.pop()  # the end of the last line, or a blank last line

    def read_line(i: int, line: str) -> T | None:
        if not line.strip():
            return None
        try:
            return read(decode_json(line))
        except ValueError as err:
            raise DriveSqlError(f"{path}:{i + 1}: {err}") from None

    def repeated(i: int, pair_id: Any, first: int) -> DriveSqlError:
        message = f"pair_id: {pair_id!r} is repeated, first on line {first + 1}"
        return DriveSqlError(f"{path}:{i + 1}: {message}")

    rows = read_by_blocks(lines, partial(_read_block, column=read.column), read_line, repeated)
    return list(rows.values())
