"""Four-table scene store built from canonical annotation JSON.

The store keeps one row per scene, per keyframe, per ego pose, and per
instance appearance, plus an index from ``(instance_id, frame_id)`` to the
appearance row. Construction validates the input, drops instances whose
planar distance from the ego exceeds the importance radius, and freezes the
result; treat a built database as immutable and share it freely across
worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

from .canonical import canonical_dumps, read_json, write_atomic
from .errors import AnnotationSchemaError, RecordNotFound
from .geometry import Quaternion, Vec3, planar_norm

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

    @property
    def phrase(self) -> str:
        """Lowercase wording used inside rendered text."""
        return self.value.replace("_", " ")


REAL_VIEWS: tuple[View, ...] = tuple(v for v in View if v is not View.ALL)


class TableKind(Enum):
    SCENE = "scene"
    FRAME = "frame"
    EGO = "ego"
    INSTANCE = "instance"


@dataclass(frozen=True)
class BBox2D:
    """Axis-aligned pixel box with x1 < x2 and y1 < y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(
                f"degenerate box ({self.x1}, {self.y1}, {self.x2}, {self.y2}): "
                "needs x1 < x2 and y1 < y2"
            )

    def as_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]

    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True)
class SceneRecord:
    scene_id: str
    frame_ids: tuple[str, ...]


@dataclass(frozen=True)
class FrameRecord:
    frame_id: str
    ego_info_id: str
    instance_info_ids: tuple[str, ...]
    timestamp: float


@dataclass(frozen=True)
class EgoInfo:
    info_id: str
    pose: Vec3
    rotation: Quaternion
    velocity: float
    road_info: dict[str, str]
    camera_info: dict[str, str]


@dataclass(frozen=True)
class InstanceInfo:
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


@dataclass(frozen=True)
class SceneDatabase:
    """Immutable lookup structure over the four annotation tables."""

    scenes: dict[str, SceneRecord]
    frames: dict[str, FrameRecord]
    ego: dict[str, EgoInfo]
    instances: dict[str, InstanceInfo]
    instance_frame_index: dict[tuple[str, str], str]
    important_radius: float
    frame_to_scene: dict[str, str]

    def query(self, table: TableKind | str, record_id: str):
        kind = TableKind(table) if isinstance(table, str) else table
        store: Mapping[str, Any] = {
            TableKind.SCENE: self.scenes,
            TableKind.FRAME: self.frames,
            TableKind.EGO: self.ego,
            TableKind.INSTANCE: self.instances,
        }[kind]
        try:
            return store[record_id]
        except KeyError:
            raise RecordNotFound(kind.value, record_id) from None

    def instance_at_frame(self, instance_id: str, frame_id: str) -> InstanceInfo | None:
        """Appearance row of a persistent instance at one frame, if any."""
        if frame_id not in self.frames:
            raise RecordNotFound(TableKind.FRAME.value, frame_id)
        info_id = self.instance_frame_index.get((instance_id, frame_id))
        if info_id is None:
            return None
        return self.instances[info_id]

    def instances_in_frame(self, frame_id: str) -> tuple[InstanceInfo, ...]:
        frame: FrameRecord = self.query(TableKind.FRAME, frame_id)
        return tuple(self.instances[i] for i in frame.instance_info_ids)

    def ego_in_frame(self, frame_id: str) -> EgoInfo:
        frame: FrameRecord = self.query(TableKind.FRAME, frame_id)
        return self.ego[frame.ego_info_id]

    def scene_of_frame(self, frame_id: str) -> SceneRecord:
        if frame_id not in self.frames:
            raise RecordNotFound(TableKind.FRAME.value, frame_id)
        return self.scenes[self.frame_to_scene[frame_id]]

    def are_consecutive(self, *frame_ids: str) -> bool:
        """True when the frames sit adjacently, in order, in one scene."""
        if not frame_ids:
            return False
        scene = self.scene_of_frame(frame_ids[0])
        order = scene.frame_ids
        try:
            start = order.index(frame_ids[0])
        except ValueError:
            return False
        return order[start : start + len(frame_ids)] == tuple(frame_ids)


# --------------------------------------------------------------------------
# Validated parsing. Every helper threads a path string so rejections name
# the record and field that broke the contract.


def _expect_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise AnnotationSchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value: Any, path: str) -> list[Any]:
    if not isinstance(value, list):
        raise AnnotationSchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def _field(record: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in record:
        raise AnnotationSchemaError(f"{path}.{key}", "missing required field")
    return record[key]


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise AnnotationSchemaError(path, "expected a non-empty string")
    return value


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AnnotationSchemaError(path, "expected a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise AnnotationSchemaError(path, f"expected a finite number, got {number!r}")
    return number


def _as_vec3(value: Any, path: str) -> Vec3:
    items = _expect_list(value, path)
    if len(items) != 3:
        raise AnnotationSchemaError(path, f"expected 3 components, got {len(items)}")
    x, y, z = (_as_float(c, f"{path}[{i}]") for i, c in enumerate(items))
    return Vec3(x, y, z)


def _as_quaternion(value: Any, path: str) -> Quaternion:
    items = _expect_list(value, path)
    if len(items) != 4:
        raise AnnotationSchemaError(path, f"expected 4 components, got {len(items)}")
    w, x, y, z = (_as_float(c, f"{path}[{i}]") for i, c in enumerate(items))
    q = Quaternion(w, x, y, z)
    if abs(q.norm() - 1.0) > 1e-3:
        raise AnnotationSchemaError(path, f"quaternion norm {q.norm():.6f} is not within 1e-3 of 1")
    return q


def _as_str_map(value: Any, path: str) -> dict[str, str]:
    mapping = _expect_mapping(value, path)
    out: dict[str, str] = {}
    for key, item in mapping.items():
        out[_as_str(key, f"{path} key")] = _as_str(item, f"{path}[{key}]")
    return out


def _as_bbox(value: Any, path: str) -> BBox2D:
    items = _expect_list(value, path)
    if len(items) != 4:
        raise AnnotationSchemaError(path, f"expected 4 coordinates, got {len(items)}")
    x1, y1, x2, y2 = (_as_float(c, f"{path}[{i}]") for i, c in enumerate(items))
    if not (x1 < x2 and y1 < y2):
        raise AnnotationSchemaError(path, "box requires x1 < x2 and y1 < y2")
    return BBox2D(x1, y1, x2, y2)


def _as_camera_pos(value: Any, path: str) -> dict[View, BBox2D]:
    mapping = _expect_mapping(value, path)
    out: dict[View, BBox2D] = {}
    for key, item in mapping.items():
        try:
            view = View(key)
        except ValueError:
            raise AnnotationSchemaError(f"{path}[{key}]", "unknown view name") from None
        if view is View.ALL:
            raise AnnotationSchemaError(f"{path}[{key}]", "the union view cannot carry a box")
        out[view] = _as_bbox(item, f"{path}[{key}]")
    if not out:
        raise AnnotationSchemaError(path, "an instance must be visible in at least one view")
    return out


def _parse_scene(record: Any, path: str) -> SceneRecord:
    rec = _expect_mapping(record, path)
    scene_id = _as_str(_field(rec, "scene_id", path), f"{path}.scene_id")
    raw_frames = _expect_list(_field(rec, "frame_ids", path), f"{path}.frame_ids")
    frame_ids = tuple(
        _as_str(f, f"{path}.frame_ids[{i}]") for i, f in enumerate(raw_frames)
    )
    return SceneRecord(scene_id=scene_id, frame_ids=frame_ids)


def _parse_frame(record: Any, path: str) -> FrameRecord:
    rec = _expect_mapping(record, path)
    frame_id = _as_str(_field(rec, "frame_id", path), f"{path}.frame_id")
    path = f"frames[id={frame_id}]"
    ego_info_id = _as_str(_field(rec, "ego_info_id", path), f"{path}.ego_info_id")
    raw = _expect_list(_field(rec, "instance_info_ids", path), f"{path}.instance_info_ids")
    info_ids = tuple(
        _as_str(i, f"{path}.instance_info_ids[{k}]") for k, i in enumerate(raw)
    )
    timestamp = _as_float(_field(rec, "timestamp", path), f"{path}.timestamp")
    return FrameRecord(
        frame_id=frame_id,
        ego_info_id=ego_info_id,
        instance_info_ids=info_ids,
        timestamp=timestamp,
    )


def _parse_ego(record: Any, path: str) -> EgoInfo:
    rec = _expect_mapping(record, path)
    info_id = _as_str(_field(rec, "info_id", path), f"{path}.info_id")
    path = f"ego[id={info_id}]"
    velocity = _as_float(_field(rec, "velocity", path), f"{path}.velocity")
    if velocity < 0:
        raise AnnotationSchemaError(f"{path}.velocity", "speed must be non-negative")
    return EgoInfo(
        info_id=info_id,
        pose=_as_vec3(_field(rec, "pose", path), f"{path}.pose"),
        rotation=_as_quaternion(_field(rec, "rotation", path), f"{path}.rotation"),
        velocity=velocity,
        road_info=_as_str_map(_field(rec, "road_info", path), f"{path}.road_info"),
        camera_info=_as_str_map(_field(rec, "camera_info", path), f"{path}.camera_info"),
    )


def _parse_instance(record: Any, path: str) -> InstanceInfo:
    rec = _expect_mapping(record, path)
    info_id = _as_str(_field(rec, "info_id", path), f"{path}.info_id")
    path = f"instances[id={info_id}]"
    velocity = _as_float(_field(rec, "velocity", path), f"{path}.velocity")
    if velocity < 0:
        raise AnnotationSchemaError(f"{path}.velocity", "speed must be non-negative")
    return InstanceInfo(
        info_id=info_id,
        instance_id=_as_str(_field(rec, "instance_id", path), f"{path}.instance_id"),
        category=_as_str(_field(rec, "category", path), f"{path}.category"),
        attribute=_as_str(_field(rec, "attribute", path), f"{path}.attribute"),
        global_t=_as_vec3(_field(rec, "global_t", path), f"{path}.global_t"),
        global_r=_as_quaternion(_field(rec, "global_r", path), f"{path}.global_r"),
        local_t=_as_vec3(_field(rec, "local_t", path), f"{path}.local_t"),
        local_r=_as_quaternion(_field(rec, "local_r", path), f"{path}.local_r"),
        velocity=velocity,
        road_info=_as_str_map(_field(rec, "road_info", path), f"{path}.road_info"),
        camera_pos=_as_camera_pos(_field(rec, "camera_pos", path), f"{path}.camera_pos"),
    )


def _parse_table(doc: Mapping[str, Any], key: str, parser, id_getter) -> dict[str, Any]:
    rows = _expect_list(_field(doc, key, "annotations"), f"annotations.{key}")
    table: dict[str, Any] = {}
    for i, raw in enumerate(rows):
        row = parser(raw, f"{key}[{i}]")
        row_id = id_getter(row)
        if row_id in table:
            raise AnnotationSchemaError(f"{key}[{i}]", f"duplicate id {row_id!r}")
        table[row_id] = row
    return table


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
    if not isinstance(important_radius, (int, float)) or important_radius <= 0:
        raise ValueError("important_radius must be a positive number")
    doc = _expect_mapping(annotations, "annotations")

    scenes = _parse_table(doc, "scenes", _parse_scene, lambda r: r.scene_id)
    frames = _parse_table(doc, "frames", _parse_frame, lambda r: r.frame_id)
    ego = _parse_table(doc, "ego", _parse_ego, lambda r: r.info_id)
    instances = _parse_table(doc, "instances", _parse_instance, lambda r: r.info_id)

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
        frame_id: FrameRecord(
            frame_id=frame.frame_id,
            ego_info_id=frame.ego_info_id,
            instance_info_ids=tuple(i for i in frame.instance_info_ids if i in kept),
            timestamp=frame.timestamp,
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
    return {
        "important_radius": db.important_radius,
        "scenes": [
            {"scene_id": s.scene_id, "frame_ids": list(s.frame_ids)}
            for s in sorted(db.scenes.values(), key=lambda s: s.scene_id)
        ],
        "frames": [
            {
                "frame_id": f.frame_id,
                "ego_info_id": f.ego_info_id,
                "instance_info_ids": list(f.instance_info_ids),
                "timestamp": f.timestamp,
            }
            for f in sorted(db.frames.values(), key=lambda f: f.frame_id)
        ],
        "ego": [
            {
                "info_id": e.info_id,
                "pose": e.pose.as_list(),
                "rotation": e.rotation.as_list(),
                "velocity": e.velocity,
                "road_info": e.road_info,
                "camera_info": e.camera_info,
            }
            for e in sorted(db.ego.values(), key=lambda e: e.info_id)
        ],
        "instances": [
            {
                "info_id": r.info_id,
                "instance_id": r.instance_id,
                "category": r.category,
                "attribute": r.attribute,
                "global_t": r.global_t.as_list(),
                "global_r": r.global_r.as_list(),
                "local_t": r.local_t.as_list(),
                "local_r": r.local_r.as_list(),
                "velocity": r.velocity,
                "road_info": r.road_info,
                "camera_pos": {v.value: b.as_list() for v, b in sorted(r.camera_pos.items(), key=lambda kv: kv[0].value)},
            }
            for r in sorted(db.instances.values(), key=lambda r: r.info_id)
        ],
    }


def save_database(db: SceneDatabase, path: str | Path) -> None:
    write_atomic(path, canonical_dumps(database_to_document(db)) + "\n")


def load_database(path: str | Path) -> SceneDatabase:
    doc = read_json(path)
    doc = _expect_mapping(doc, "database")
    radius = _as_float(_field(doc, "important_radius", "database"), "database.important_radius")
    if radius <= 0:
        raise AnnotationSchemaError("database.important_radius", "expected a positive number")
    return build_database(doc, important_radius=radius)


def load_annotations(path: str | Path) -> dict[str, Any]:
    """Read a canonical annotations JSON document."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise AnnotationSchemaError("annotations", "top level must be an object")
    return doc
