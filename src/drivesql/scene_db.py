"""Four-table scene store built from canonical annotation JSON.

The store keeps one row per scene, per keyframe, per ego pose, and per
instance appearance, plus an index from ``(instance_id, frame_id)`` to the
appearance row. Construction validates the input, drops instances whose
planar distance from the ego exceeds the importance radius, and freezes the
result; treat a built database as immutable and share it freely across
worker processes. Every row is a named tuple. A table is read a block of
rows at a time: a block whose values all pass the checks' exact-type
shortcuts is built column by column, and any other block row by row.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from enum import Enum
from itertools import chain, compress, islice, repeat, starmap
from operator import contains, is_not, itemgetter, lt
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

from .canonical import collector_paused, read_by_blocks, read_json, write_json
from .errors import AnnotationSchemaError, RecordNotFound
from .geometry import UNIT_NORM_TOLERANCE, Quaternion, Vec3, planar_norm

DEFAULT_IMPORTANT_RADIUS = 20.0

# Pixel bounds shared by every synthetic camera; 2D boxes live inside them.
IMAGE_WIDTH = 1600.0
IMAGE_HEIGHT = 900.0


class View(Enum):
    """Camera views around the ego car, plus the union view ``ALL``."""

    FRONT_LEFT = "front_left"
    FRONT = "front"
    FRONT_RIGHT = "front_right"
    BACK_LEFT = "back_left"
    BACK = "back"
    BACK_RIGHT = "back_right"
    ALL = "all"

    # Members are singletons, equal only to themselves, so their identity
    # hashes them; ``Enum``'s own hash runs Python code for every lookup.
    __hash__ = object.__hash__

    def __init__(self, value: str) -> None:
        # Lowercase wording used inside rendered text.
        self.phrase = value.replace("_", " ")


REAL_VIEWS: tuple[View, ...] = tuple(v for v in View if v is not View.ALL)


class _Corners(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float


class BBox2D(_Corners):
    """Axis-aligned pixel box with x1 < x2 and y1 < y2. Built by name it
    refuses any other box; the loader builds the boxes it has checked with
    ``tuple.__new__``, past this check."""

    __slots__ = ()

    def __new__(cls, x1: float, y1: float, x2: float, y2: float) -> "BBox2D":
        if not (x1 < x2 and y1 < y2):
            raise ValueError(
                f"degenerate box ({x1}, {y1}, {x2}, {y2}): needs x1 < x2 and y1 < y2"
            )
        return tuple.__new__(cls, (x1, y1, x2, y2))

    def as_list(self) -> list[float]:
        x1, y1, x2, y2 = self
        return [x1, y1, x2, y2]

    def area(self) -> float:
        x1, y1, x2, y2 = self
        return (x2 - x1) * (y2 - y1)


# The records of the four tables. Each is a named tuple whose first field is
# its row id, the first field of its table too.


class SceneRecord(NamedTuple):
    scene_id: str
    frame_ids: tuple[str, ...]


class FrameRecord(NamedTuple):
    frame_id: str
    ego_info_id: str
    instance_info_ids: tuple[str, ...]
    timestamp: float


class EgoInfo(NamedTuple):
    info_id: str
    pose: Vec3
    rotation: Quaternion
    velocity: float
    road_info: dict[str, str]
    camera_info: dict[str, str]


class InstanceInfo(NamedTuple):
    info_id: str
    instance_id: str
    category: str
    attribute: str
    global_t: Vec3
    global_r: Quaternion
    local_t: Vec3
    local_r: Quaternion
    velocity: float
    road_info: dict[str, str]
    camera_pos: dict[View, BBox2D]


class SceneDatabase(NamedTuple):
    """Immutable lookup structure over the four annotation tables."""

    scenes: dict[str, SceneRecord]
    frames: dict[str, FrameRecord]
    ego: dict[str, EgoInfo]
    instances: dict[str, InstanceInfo]
    instance_frame_index: dict[tuple[str, str], str]
    important_radius: float
    frame_to_scene: dict[str, str]

    def frame(self, frame_id: str) -> FrameRecord:
        try:
            return self.frames[frame_id]
        except KeyError:
            raise RecordNotFound("frame", frame_id) from None

    def instance(self, info_id: str) -> InstanceInfo:
        try:
            return self.instances[info_id]
        except KeyError:
            raise RecordNotFound("instance", info_id) from None

    def instance_at_frame(self, instance_id: str, frame_id: str) -> InstanceInfo | None:
        """Appearance row of a persistent instance at one frame, if any."""
        info_id = self.instance_frame_index.get((instance_id, frame_id))
        if info_id is None:
            self.frame(frame_id)  # only a miss checks the frame: a hit shows it exists
            return None
        return self.instances[info_id]

    def instances_in_frame(self, frame_id: str) -> tuple[InstanceInfo, ...]:
        return tuple(self.instances[i] for i in self.frame(frame_id).instance_info_ids)

    def ego_in_frame(self, frame_id: str) -> EgoInfo:
        return self.ego[self.frame(frame_id).ego_info_id]

    def scene_of_frame(self, frame_id: str) -> SceneRecord:
        self.frame(frame_id)
        return self.scenes[self.frame_to_scene[frame_id]]

    def are_consecutive(self, *frame_ids: str) -> bool:
        """True when the frames sit adjacently, in order, in one scene."""
        if not frame_ids:
            return False
        order = self.scene_of_frame(frame_ids[0]).frame_ids
        start = order.index(frame_ids[0])
        return order[start : start + len(frame_ids)] == tuple(frame_ids)


# --------------------------------------------------------------------------
# Validated parsing, shared by every JSON boundary. Every check reads one
# JSON value, and all but an ``_optional`` one refuse null. A refusal names a
# path relative to the checked value; each container it passes through puts
# its step in front (``[i]``, ``[key]``, `` key``, ``.field``). A check whose
# result is not the JSON value itself carries, as ``save``, the inverse that
# writes the result back; a value without one saves as it is.
#
# A check that a database table or a line format uses carries, as ``column``,
# its column form. It reads a whole column of values with builtins, and
# returns their results in order, or None as soon as a value leaves the
# check's exact-type shortcut: an int for a float, a non-dict mapping, a
# value the check refuses, or one it may refuse. It accepts only what the
# check accepts, as the same result, and names no refusal. Tables and line
# files alike are read by ``canonical.read_by_blocks``: on None, that block
# of rows or lines alone is read row by row, and the checks alone decide.
# An object's column form builds a record through the record's own
# ``__new__`` when it has one, so a check made there runs on both paths.

Check = Callable[[Any], Any]


def _of_type(values: Any, kind: type) -> bool:
    """Whether every value of the iterable ``values`` has exactly type ``kind``."""
    return set(map(type, values)) <= {kind}


def _expect_mapping(value: Any) -> Mapping[str, Any]:
    if type(value) is dict or isinstance(value, Mapping):
        return value
    raise AnnotationSchemaError("", f"expected an object, got {type(value).__name__}")


def _expect_list(value: Any) -> list[Any]:
    if not isinstance(value, list):
        raise AnnotationSchemaError("", f"expected an array, got {type(value).__name__}")
    return value


def _as_str(value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise AnnotationSchemaError("", "expected a non-empty string")
    return value


def _str_column(values: Sequence[Any]) -> Sequence[str] | None:
    return values if _of_type(values, str) and all(values) else None


_as_str.column = _str_column


def _as_text(value: Any) -> str:
    """Any string, the empty one included."""
    if not isinstance(value, str):
        raise AnnotationSchemaError("", f"expected a string, got {type(value).__name__}")
    return value


_as_text.column = lambda values: values if _of_type(values, str) else None


def json_int(value: Any) -> int:
    """``value`` if it is an int, not a bool; anything else, a float with an
    integral value included, is refused."""
    if type(value) is not int:
        raise AnnotationSchemaError("", f"expected an integer, got {type(value).__name__}")
    return value


def json_bool(value: Any) -> bool:
    """``value`` if it is ``true`` or ``false``; anything else is refused."""
    if type(value) is not bool:
        raise AnnotationSchemaError("", f"expected true or false, got {type(value).__name__}")
    return value


def _as_float(value: Any) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AnnotationSchemaError("", "expected a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise AnnotationSchemaError("", f"expected a finite number, got {number!r}")
    return number


def _float_column(values: Sequence[Any]) -> Sequence[float] | None:
    # A sum of finite floats is finite unless it overflows, which only sends
    # the column to the row loop.
    return values if _of_type(values, float) and math.isfinite(sum(values)) else None


_as_float.column = _float_column


def _as_positive(value: Any) -> float:
    number = _as_float(value)
    if number <= 0:
        raise AnnotationSchemaError("", "expected a positive number")
    return number


_as_positive.column = lambda values: (
    values if _float_column(values) is not None and min(values, default=1.0) > 0 else None
)


def _as_speed(value: Any) -> float:
    speed = _as_float(value)
    if speed < 0:
        raise AnnotationSchemaError("", "speed must be non-negative")
    return speed


_as_speed.column = lambda values: (
    values if _float_column(values) is not None and min(values, default=0.0) >= 0 else None
)


def _as_floats(value: Any, count: int, noun: str) -> list[float]:
    items = _expect_list(value)
    if len(items) != count:
        raise AnnotationSchemaError("", f"expected {count} {noun}, got {len(items)}")
    for item in items:
        if type(item) is not float or not math.isfinite(item):
            # Off the shortcut: read each item, naming a refused one.
            return _read_floats(items)
    return items


def _float_lists(values: Sequence[Any], count: int) -> bool:
    """Whether every value is a list of ``count`` finite floats: the column
    form of ``_as_floats``, each record then built from its list as it is."""
    return (
        _of_type(values, list)
        and set(map(len, values)) <= {count}
        and _of_type(chain.from_iterable(values), float)
        and math.isfinite(sum(chain.from_iterable(values)))
    )


def _as_vec3(value: Any) -> Vec3:
    return Vec3(*_as_floats(value, 3, "components"))


_as_vec3.save = Vec3.as_list
_as_vec3.column = lambda values: (
    list(map(tuple.__new__, repeat(Vec3), values)) if _float_lists(values, 3) else None
)


def _as_quaternion(value: Any) -> Quaternion:
    q = Quaternion(*_as_floats(value, 4, "components"))
    try:
        norm = q.norm()
    except OverflowError:  # squaring a finite component overflowed
        norm = math.inf
    if abs(norm - 1.0) > UNIT_NORM_TOLERANCE:
        raise AnnotationSchemaError("", f"quaternion norm {norm:.6f} is not within 1e-3 of 1")
    return q


_as_quaternion.save = Quaternion.as_list

# Norms the column form accepts: inside the tolerance by a margin far wider
# than the rounding by which ``math.hypot`` and ``Quaternion.norm`` may differ.
_SURELY_UNIT = (1.0 - UNIT_NORM_TOLERANCE + 1e-9, 1.0 + UNIT_NORM_TOLERANCE - 1e-9)


def _quaternion_column(values: Sequence[Any]) -> list[Quaternion] | None:
    if not _float_lists(values, 4):
        return None
    norms = list(starmap(math.hypot, values))
    low, high = _SURELY_UNIT
    if not low <= min(norms, default=1.0) <= max(norms, default=1.0) <= high:
        return None
    return list(map(tuple.__new__, repeat(Quaternion), values))


_as_quaternion.column = _quaternion_column


def _as_str_map(value: Any) -> dict[str, str]:
    mapping = _expect_mapping(value)
    for key, item in mapping.items():
        try:
            _as_str(item)
        except AnnotationSchemaError as err:
            raise err.within(f"[{key}]")
        if not isinstance(key, str) or not key:
            raise AnnotationSchemaError(" key", "expected a non-empty string")
    return dict(mapping)


def _str_map_column(values: Sequence[Any]) -> list[dict[str, str]] | None:
    if (
        _of_type(values, dict)
        and _str_column(list(chain.from_iterable(values))) is not None
        and _str_column(list(chain.from_iterable(map(dict.values, values)))) is not None
    ):
        return list(map(dict.copy, values))
    return None


_as_str_map.column = _str_map_column


def _as_bbox(value: Any) -> BBox2D:
    x1, y1, x2, y2 = _as_floats(value, 4, "coordinates")
    if not (x1 < x2 and y1 < y2):
        raise AnnotationSchemaError("", "box requires x1 < x2 and y1 < y2")
    return BBox2D(x1, y1, x2, y2)


_as_bbox.save = BBox2D.as_list


def _bbox_column(values: Sequence[Any]) -> list[BBox2D] | None:
    if not _float_lists(values, 4):
        return None
    x1, y1, x2, y2 = (map(itemgetter(i), values) for i in range(4))
    if not (all(map(lt, x1, x2)) and all(map(lt, y1, y2))):
        return None
    return list(map(tuple.__new__, repeat(BBox2D), values))


_as_bbox.column = _bbox_column


_BOX_VIEWS = {view.value: view for view in REAL_VIEWS}


def _as_view(value: Any) -> View:
    view = _BOX_VIEWS.get(value)
    if view is None:
        if value == View.ALL.value:
            raise AnnotationSchemaError("", "the union view cannot carry a box")
        raise AnnotationSchemaError("", "unknown view name")
    return view


def _member_of(enum: type[Enum]) -> Check:
    """The check of a string naming a member of ``enum`` by its value."""
    members = {member.value: member for member in enum}

    def read_member(value: Any) -> Any:
        if type(value) is str and value in members:
            return members[value]
        raise AnnotationSchemaError("", f"{value!r} is not a valid {enum.__name__}")

    def read_member_column(values: Sequence[Any]) -> list[Any] | None:
        # Strings first: a list or a dict is not a set member.
        if _of_type(values, str) and members.keys() >= set(values):
            return list(map(members.__getitem__, values))
        return None

    read_member.save = {member: value for value, member in members.items()}.__getitem__
    read_member.column = read_member_column
    return read_member


# A view named outside a database, where the union view may stand.
_as_any_view = _member_of(View)


def _in_view_order(boxes: dict[View, BBox2D]) -> dict[View, BBox2D]:
    if len(boxes) == 1:  # most rows: nothing to reorder
        return boxes
    return {view: boxes[view] for view in REAL_VIEWS if view in boxes}


def _as_camera_pos(value: Any) -> dict[View, BBox2D]:
    """An instance's boxes, checked in input order so a refusal names the
    first bad key, and held in ``View`` order: the first box is the view a
    pair's text names the instance by."""
    mapping = _expect_mapping(value)
    if not mapping:
        raise AnnotationSchemaError("", "an instance must be visible in at least one view")
    boxes: dict[View, BBox2D] = {}
    for key, item in mapping.items():
        try:
            view = _as_view(key)  # before the box, so a bad view is named first
            boxes[view] = _as_bbox(item)
        except AnnotationSchemaError as err:
            raise err.within(f"[{key}]")
    return _in_view_order(boxes)


_as_camera_pos.save = lambda boxes: {view.value: box.as_list() for view, box in boxes.items()}


def _camera_pos_column(values: Sequence[Any]) -> list[dict[View, BBox2D]] | None:
    if not (_of_type(values, dict) and all(values)):
        return None
    names = list(chain.from_iterable(values))
    if not set(names).issubset(_BOX_VIEWS):
        return None
    boxes = _bbox_column(list(chain.from_iterable(map(dict.values, values))))
    if boxes is None:
        return None
    # Each row takes the next ``len(row)`` of the (view, box) pairs.
    pairs = zip(map(_BOX_VIEWS.__getitem__, names), boxes)
    return [_in_view_order(dict(islice(pairs, len(row)))) for row in values]


_as_camera_pos.column = _camera_pos_column


# --------------------------------------------------------------------------
# Field tables: a dict from each field's name to its check, in check order.
# A table both reads its format and, through its checks' inverses, writes it.


def _array(item: Check, non_empty: bool = False) -> Check:
    """The check of an array whose items ``item`` checks, read as a tuple and
    saved as a list; with ``non_empty``, the empty array is refused."""

    def read_array(value: Any) -> tuple[Any, ...]:
        items = value if type(value) is list else _expect_list(value)
        if non_empty and not items:
            raise AnnotationSchemaError("", "expected a non-empty array")
        out = []
        try:
            for v in items:
                out.append(item(v))
        except AnnotationSchemaError as err:
            raise err.within(f"[{len(out)}]")
        return tuple(out)

    save = getattr(item, "save", None)
    read_array.save = list if save is None else lambda items: list(map(save, items))
    item_column = getattr(item, "column", None)
    if item_column is not None:

        def read_array_column(values: Sequence[Any]) -> list[tuple[Any, ...]] | None:
            if not (_of_type(values, list) and (not non_empty or all(values))):
                return None
            items = item_column(list(chain.from_iterable(values)))
            if items is None:
                return None
            # Each array takes the next ``len(array)`` of the checked items.
            rest = iter(items)
            return [tuple(islice(rest, n)) for n in map(len, values)]

        read_array.column = read_array_column
    return read_array


_read_floats = _array(_as_float)


def _optional(kind: Check, default: Any = None) -> Check:
    """The check of a field that may be absent or null, read as ``default``."""

    def read_optional(value: Any) -> Any:
        return default if value is None else kind(value)

    read_optional.save = getattr(kind, "save", None)
    kind_column = getattr(kind, "column", None)
    if kind_column is not None:

        def read_optional_column(values: Sequence[Any]) -> list[Any] | None:
            held = list(map(is_not, values, repeat(None)))
            checked = kind_column(list(compress(values, held)))
            if checked is None:
                return None
            # A null takes the default, a held value the next checked one.
            return list(map(next, map((repeat(default), iter(checked)).__getitem__, held)))

        read_optional.column = read_optional_column
    return read_optional


def _object(record: Callable[..., Any], fields: dict[str, Check]) -> Check:
    """The check of an object read through the field table ``fields`` into
    ``record``, which takes the fields as keyword arguments, and saved from
    the record's attributes of the same names."""

    def read_object(value: Any) -> Any:
        return record(**_read_fields(value, fields))

    read_object.record = record
    read_object.save = _fields_saver(fields)
    columns = _fields_column(fields)
    names = getattr(record, "_fields", None)  # a named tuple's, in its order
    if columns is not None and names is not None and set(names) == fields.keys():

        def read_object_column(values: Sequence[Any], keys_beside: int = 0) -> list[Any] | None:
            checked = columns(values, keys_beside)
            return None if checked is None else _records(record, checked)

        read_object.column = read_object_column
    return read_object


def _tagged(tag: str, variants: dict[str, Check]) -> Check:
    """The check of an object whose ``tag`` field names the ``_object``
    variant that reads its other fields; a record saves with its variant's
    name as the tag."""

    def read_tagged(value: Any) -> Any:
        fields = dict(value if type(value) is dict else _expect_mapping(value))
        name = fields.pop(tag, None)
        variant = variants.get(name) if type(name) is str else None
        if variant is None:
            reason = f"expected one of {', '.join(variants)}, got {name!r}"
            if tag not in value:
                reason = "missing required field"
            raise AnnotationSchemaError(tag, reason)
        return variant(fields)

    by_record = {variant.record: (name, variant.save) for name, variant in variants.items()}

    def save_tagged(record: Any) -> dict[str, Any]:
        name, save = by_record[type(record)]
        return {tag: name, **save(record)}

    read_tagged.save = save_tagged
    forms = {name: getattr(variant, "column", None) for name, variant in variants.items()}
    if None not in forms.values():

        def read_tagged_column(values: Sequence[Any]) -> list[Any] | None:
            if not _of_type(values, dict):
                return None
            tags = list(map(dict.get, values, repeat(tag)))
            # Strings first: a list or a dict is not a set member.
            if not (_of_type(tags, str) and forms.keys() >= set(tags)):
                return None
            # Each variant's rows, each holding the tag beside its fields.
            groups: dict[str, list[Any]] = {name: [] for name in tags}
            for value, name in zip(values, tags):
                groups[name].append(value)
            read = {}
            for name, rows in groups.items():
                checked = forms[name](rows, 1)
                if checked is None:
                    return None
                read[name] = iter(checked)
            # Each row takes the next record of its variant.
            return list(map(next, map(read.__getitem__, tags)))

        read_tagged.column = read_tagged_column
    return read_tagged


def _read_fields(raw: Any, checks: dict[str, Check]) -> dict[str, Any]:
    """The field values of the object ``raw``, each read by its check. An
    absent field reads as null, and is missing if its check refuses null; a
    refused field's name goes in front of the refusal's path. Once every
    declared field is read, the first key that ``checks`` does not declare
    is refused: no table is open to keys it does not name."""
    rec = raw if type(raw) is dict else _expect_mapping(raw)
    values: dict[str, Any] = {}
    for name, check in checks.items():
        value = rec.get(name)
        try:
            values[name] = check(value)
        except AnnotationSchemaError as err:
            if name not in rec:
                raise AnnotationSchemaError(name, "missing required field") from None
            raise err.within(name)
    if not rec.keys() <= checks.keys():
        key = str(next(key for key in rec if key not in checks))
        # Quoted, a key that ``within`` would read as a step is named as it is.
        raise AnnotationSchemaError(f'"{key}"' if key[:1] in "[ " else key, "unexpected field")
    return values


def _accepts_null(check: Check) -> bool:
    try:
        check(None)
    except AnnotationSchemaError:
        return False
    return True


def _fields_column(
    checks: dict[str, Check]
) -> Callable[[Sequence[Any], int], dict[str, Any] | None] | None:
    """The column form of ``_read_fields(..., checks)``, if every check has
    one. It reads objects to their checked columns by field name, or gives
    None as soon as a value is not a dict, a field's column form declines,
    or an object holds a key the table does not declare. ``keys_beside``
    more keys per object, a tag that the caller has read, are allowed."""
    forms = {name: getattr(check, "column", None) for name, check in checks.items()}
    if None in forms.values():
        return None
    # The fields that may be absent: those whose check accepts null.
    nullable = [name for name, check in checks.items() if _accepts_null(check)]

    def read_fields_column(values: Sequence[Any], keys_beside: int = 0) -> dict[str, Any] | None:
        if not _of_type(values, dict):
            return None
        # Every field whose form accepts its column is held by every object,
        # unless its check accepts null. So the objects hold exactly their
        # declared keys if they hold this many keys in all.
        declared = (len(forms) + keys_beside) * len(values) - sum(
            len(values) - sum(map(contains, values, repeat(name))) for name in nullable
        )
        if sum(map(len, values)) != declared:
            return None
        checked = {}
        for name, form in forms.items():
            # An absent field reads as null, as in ``_read_fields``.
            column = form(list(map(dict.get, values, repeat(name))))
            if column is None:
                return None
            checked[name] = column
        return checked

    return read_fields_column


def _records(record: type, checked: dict[str, Any]) -> list[Any] | None:
    """The named tuples ``record`` of the checked columns. A plain named
    tuple, whose ``__new__`` checks nothing, is built past it; a subclass,
    which may override ``__new__``, is built through it, so that its own
    check runs, and gives None if that check refuses a row."""
    columns = map(checked.__getitem__, record._fields)
    if tuple in record.__bases__:
        return list(map(tuple.__new__, repeat(record), zip(*columns)))
    try:
        return list(map(record, *columns))
    except ValueError:
        return None


def _fields_saver(checks: dict[str, Check]) -> Callable[[Any], dict[str, Any]]:
    """The inverse of ``_read_fields(..., checks)``: the object of a record's
    attributes named in ``checks``, in table order, each saved by its check.
    A None attribute is left out, as an absent field reads as null."""
    savers = tuple((name, getattr(check, "save", None)) for name, check in checks.items())

    def save_fields(record: Any) -> dict[str, Any]:
        doc = {}
        for name, save in savers:
            value = getattr(record, name)
            if value is not None:
                doc[name] = value if save is None else save(value)
        return doc

    return save_fields


# --------------------------------------------------------------------------
# The database format, declared once: the tables below both load the
# document and save it.


class _Table(NamedTuple):
    """A table: its key in the document and in ``SceneDatabase``, whether a
    row's error paths name it by id once the id is read (or keep its index),
    and its row check, an ``_object`` of its fields in check order, id first."""

    key: str
    by_id: bool
    row: Check


_TABLES: tuple[_Table, ...] = (
    _Table("scenes", False, _object(SceneRecord, {
        "scene_id": _as_str,
        "frame_ids": _array(_as_str),
    })),
    _Table("frames", True, _object(FrameRecord, {
        "frame_id": _as_str,
        "ego_info_id": _as_str,
        "instance_info_ids": _array(_as_str),
        "timestamp": _as_float,
    })),
    _Table("ego", True, _object(EgoInfo, {
        "info_id": _as_str,
        "velocity": _as_speed,
        "pose": _as_vec3,
        "rotation": _as_quaternion,
        "road_info": _as_str_map,
        "camera_info": _as_str_map,
    })),
    _Table("instances", True, _object(InstanceInfo, {
        "info_id": _as_str,
        "velocity": _as_speed,
        "instance_id": _as_str,
        "category": _as_str,
        "attribute": _as_str,
        "global_t": _as_vec3,
        "global_r": _as_quaternion,
        "local_t": _as_vec3,
        "local_r": _as_quaternion,
        "road_info": _as_str_map,
        "camera_pos": _as_camera_pos,
    })),
)

# The top level of an annotations document: the four tables.
_DOCUMENT: dict[str, Check] = {table.key: _expect_list for table in _TABLES}


def _parse_table(rows: list[Any], table: _Table) -> dict[str, Any]:
    """The rows of ``table`` keyed by row id, read by ``read_by_blocks``. In
    a block read row by row, each field's check decides what is accepted and
    names what is refused."""
    key, by_id, row = table
    id_name = row.record._fields[0]

    def read_row(i: int, raw: Any) -> Any:
        try:
            return row(raw)
        except AnnotationSchemaError as err:
            # A row is named by its id once the id, its first field, is read.
            if by_id and err.path not in ("", id_name):
                raise err.within(f"{key}[id={raw[id_name]}]")
            raise err.within(f"{key}[{i}]")

    def repeated(i: int, row_id: str, first: int) -> AnnotationSchemaError:
        return AnnotationSchemaError(f"{key}[{i}]", f"duplicate id {row_id!r}")

    return read_by_blocks(rows, row.column, read_row, repeated)


def build_database(
    annotations: Mapping[str, Any],
    important_radius: float = DEFAULT_IMPORTANT_RADIUS,
) -> SceneDatabase:
    """Validate annotations, apply the importance filter, and freeze.

    Instances whose planar ego distance exceeds ``important_radius`` are
    dropped from the instance table and from the owning frame's list.
    Schema violations, dangling references, orphan rows, and duplicate
    ``(instance_id, frame_id)`` appearances are all rejected.
    """
    if (
        isinstance(important_radius, bool)
        or not isinstance(important_radius, (int, float))
        or not 0 < important_radius <= sys.float_info.max
    ):
        raise ValueError(
            f"important_radius must be a positive finite number, got {important_radius!r}"
        )
    try:
        tables = _read_fields(annotations, _DOCUMENT)
    except AnnotationSchemaError as err:
        raise err.within("annotations")

    with collector_paused():
        scenes, frames, ego, instances = (_parse_table(tables[t.key], t) for t in _TABLES)

    # Referential integrity: every listed id resolves, every info row is
    # referenced exactly once, and every frame belongs to exactly one scene.
    frame_to_scene: dict[str, str] = {}
    for scene in scenes.values():
        for frame_id in scene.frame_ids:
            if frame_id not in frames:
                raise AnnotationSchemaError(
                    f"scenes[id={scene.scene_id}].frame_ids", f"unknown frame {frame_id!r}"
                )
            if frame_id in frame_to_scene:
                raise AnnotationSchemaError(
                    f"scenes[id={scene.scene_id}].frame_ids",
                    f"frame {frame_id!r} already belongs to scene {frame_to_scene[frame_id]!r}",
                )
            frame_to_scene[frame_id] = scene.scene_id
    for frame_id in frames:
        if frame_id not in frame_to_scene:
            raise AnnotationSchemaError(f"frames[id={frame_id}]", "frame not listed by any scene")

    seen_ego: set[str] = set()
    seen_info: set[str] = set()
    index: dict[tuple[str, str], str] = {}
    for frame in frames.values():
        fpath = f"frames[id={frame.frame_id}]"
        if frame.ego_info_id not in ego:
            raise AnnotationSchemaError(
                f"{fpath}.ego_info_id", f"unknown ego row {frame.ego_info_id!r}"
            )
        if frame.ego_info_id in seen_ego:
            raise AnnotationSchemaError(
                f"{fpath}.ego_info_id", f"ego row {frame.ego_info_id!r} reused across frames"
            )
        seen_ego.add(frame.ego_info_id)
        for info_id in frame.instance_info_ids:
            if info_id not in instances:
                raise AnnotationSchemaError(
                    f"{fpath}.instance_info_ids", f"unknown instance row {info_id!r}"
                )
            if info_id in seen_info:
                raise AnnotationSchemaError(
                    f"{fpath}.instance_info_ids", f"instance row {info_id!r} reused across frames"
                )
            seen_info.add(info_id)
            key = (instances[info_id].instance_id, frame.frame_id)
            if key in index:
                raise AnnotationSchemaError(
                    f"{fpath}.instance_info_ids",
                    f"instance {key[0]!r} appears twice in the frame",
                )
            index[key] = info_id
    for info_id in ego:
        if info_id not in seen_ego:
            raise AnnotationSchemaError(f"ego[id={info_id}]", "row not referenced by any frame")
    for info_id in instances:
        if info_id not in seen_info:
            raise AnnotationSchemaError(
                f"instances[id={info_id}]", "row not referenced by any frame"
            )

    # Importance filter on the planar ego distance.
    kept = {
        info_id: row
        for info_id, row in instances.items()
        if planar_norm(row.local_t) <= important_radius
    }
    filtered_frames = {
        frame_id: frame._replace(
            instance_info_ids=tuple(i for i in frame.instance_info_ids if i in kept)
        )
        for frame_id, frame in frames.items()
    }
    filtered_index = {
        key: info_id for key, info_id in index.items() if info_id in kept
    }

    return SceneDatabase(
        scenes=scenes,
        frames=filtered_frames,
        ego=ego,
        instances=kept,
        instance_frame_index=filtered_index,
        important_radius=float(important_radius),
        frame_to_scene=frame_to_scene,
    )


# --------------------------------------------------------------------------
# Persistence. The on-disk form is the annotation schema plus the radius the
# database was built with, emitted with sorted keys so equal databases save
# to identical bytes.


def database_to_document(db: SceneDatabase) -> dict[str, Any]:
    """The saved document of ``db``: each table's rows in id order, each
    row saved through its table's row check."""
    doc: dict[str, Any] = {"important_radius": db.important_radius}
    for key, _, row in _TABLES:
        rows = getattr(db, key)
        doc[key] = [row.save(rows[row_id]) for row_id in sorted(rows)]
    return doc


@collector_paused()
def save_database(db: SceneDatabase, path: str | Path) -> None:
    write_json(path, database_to_document(db))


@contextmanager
def naming_file(path: str | Path) -> Iterator[None]:
    """Prefix ``<path>: `` to a schema error raised in the block; its ``.path``
    still names the field."""
    try:
        yield
    except AnnotationSchemaError as err:
        err.args = (f"{path}: {err}",)
        raise


def load_database(path: str | Path) -> SceneDatabase:
    with naming_file(path), collector_paused():
        try:
            tables = _read_fields(read_json(path), {"important_radius": _as_positive, **_DOCUMENT})
        except AnnotationSchemaError as err:
            raise err.within("database")
        radius = tables.pop("important_radius")
        return build_database(tables, important_radius=radius)
