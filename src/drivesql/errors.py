"""Shared exception types.

Everything raised on purpose by this package derives from DriveSqlError, so
callers can catch one base class at CLI boundaries while tests can still
assert on the precise subtype.
"""

from __future__ import annotations


class DriveSqlError(Exception):
    """Base class for all errors raised by this package."""


class AnnotationSchemaError(DriveSqlError, ValueError):
    """Input violates its declared schema.

    ``path`` locates the offending record and field, for example
    ``frames[id=f3].timestamp`` or, in a JSONL line, ``ground_truth.items[0]``;
    the empty path is the whole value, and the message then stands alone. A
    check refuses with a path relative to the value it was given, and each
    container the refusal passes through puts its own step in front.
    """

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.reason = message

    def within(self, step: str) -> AnnotationSchemaError:
        """This error with ``step``, the container's name for the refused value, before its path."""
        self.path = step + ("" if self.path[:1] in "[ " else ".") + self.path
        self.args = (f"{self.path}: {self.reason}",)
        return self


class RecordNotFound(DriveSqlError, LookupError):
    """A table lookup missed; carries the table name and the record id."""

    def __init__(self, table: str, record_id: str) -> None:
        super().__init__(f"no {table} record with id {record_id!r}")
        self.table = table
        self.record_id = record_id


class NonConsecutiveFrames(DriveSqlError, ValueError):
    """Frames passed to a windowed operation are not consecutive keyframes."""


class IneligibleScene(DriveSqlError, ValueError):
    """Scene is too short to host a three-keyframe window."""


class QuaternionError(DriveSqlError, ValueError):
    """Rotation input is outside the unit-quaternion domain."""


class TemplateError(DriveSqlError, ValueError):
    """A rendering template was invoked with a missing context field."""


class UndefinedScore(DriveSqlError, ValueError):
    """A metric was asked to score an empty or fully unscorable input."""
