"""Scripted synthetic scenes with known ground truth.

A scenario script is a waypoint track for one instance. The builder drives
the ego on a straight constant-speed path, interpolates each script at the
keyframe times, derives local poses by the inverse ego transform, assigns
camera boxes from the bearing of the instance, and sets the movement
attribute from speed. Scenes are deterministic in their inputs and seed.
``read_synth_request`` reads the request file of ``drivesql synth``.
"""

from __future__ import annotations

import math
import random
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .errors import AnnotationSchemaError
from .generation import derive_scene_seed
from .geometry import Quaternion, Vec3, planar_norm, rotate, rotate_inverse
from .scene_db import (
    IMAGE_HEIGHT,
    IMAGE_WIDTH,
    REAL_VIEWS,
    View,
    _array,
    _as_float,
    _as_speed,
    _as_text,
    _object,
    _optional,
    _read_fields,
    json_bool,
    json_int,
    naming_file,
)
from .task_sql import RISK_SUBTASKS, Subtask

FRAME_PERIOD_S = 0.5

# Camera sectors: six bearings at 60 degree spacing, each camera seeing 40
# degrees to either side of its axis, so neighbouring views overlap.
SECTOR_CENTERS_DEG: dict[View, float] = {
    View.FRONT: 0.0,
    View.FRONT_LEFT: 60.0,
    View.BACK_LEFT: 120.0,
    View.BACK: 180.0,
    View.BACK_RIGHT: -120.0,
    View.FRONT_RIGHT: -60.0,
}
SECTOR_HALF_WIDTH_DEG = 40.0

EGO_ROAD = {"road": "main", "lane": "1"}

# Speed gates for annotated movement attributes, in meters per second.
MOVING_SPEED = 0.5


class Waypoint(NamedTuple):
    """State of a scripted instance at one time.

    ``lane`` optionally switches the road map from this waypoint onward;
    earlier frames fall back to the script lane.
    """

    t: float
    pos: Vec3
    yaw: float = 0.0
    speed: float = 0.0
    lane: str | None = None


class ScenarioScript(NamedTuple):
    """One instance track; ``kind`` is a risk subtask or None for benign."""

    kind: Subtask | None
    waypoints: tuple[Waypoint, ...]
    category: str = "car"
    lane: str = "2"


def _angdiff_deg(a: float, b: float) -> float:
    d = (a - b) % 360.0
    return d - 360.0 if d > 180.0 else d


def views_for_bearing(bearing_deg: float) -> list[View]:
    """Views whose sector contains the bearing, in declaration order."""
    out = []
    for view in REAL_VIEWS:
        if abs(_angdiff_deg(bearing_deg, SECTOR_CENTERS_DEG[view])) <= SECTOR_HALF_WIDTH_DEG:
            out.append(view)
    return out


def _camera_boxes(local: Vec3, rng: random.Random) -> dict[str, list[float]]:
    """Deterministic pixel boxes for every view that sees the instance."""
    bearing = math.degrees(math.atan2(local.y, local.x))
    dist = max(planar_norm(local), 1.0)
    boxes: dict[str, list[float]] = {}
    for view in views_for_bearing(bearing):
        rel = _angdiff_deg(bearing, SECTOR_CENTERS_DEG[view]) / SECTOR_HALF_WIDTH_DEG
        # Left of the axis lands left of the image center.
        cx = IMAGE_WIDTH / 2 - rel * (IMAGE_WIDTH / 2 - 220.0) + rng.uniform(-20.0, 20.0)
        cy = IMAGE_HEIGHT / 2 + rng.uniform(-15.0, 15.0)
        size = min(400.0, max(40.0, 2400.0 / dist))
        x1 = min(max(cx - size / 2, 0.0), IMAGE_WIDTH - size)
        y1 = min(max(cy - size * 0.4, 0.0), IMAGE_HEIGHT - size * 0.8)
        boxes[view.value] = [
            round(x1, 1),
            round(y1, 1),
            round(x1 + size, 1),
            round(y1 + size * 0.8, 1),
        ]
    return boxes


def _attribute(category: str, speed: float) -> str:
    if speed > MOVING_SPEED:
        return "moving"
    if "pedestrian" in category:
        return "standing"
    return "parked" if speed == 0 else "stopped"


def _interpolate(script: ScenarioScript, t: float) -> Waypoint | None:
    """Piecewise linear state at time ``t``; None outside the track span."""
    wps = script.waypoints
    if not wps or t < wps[0].t - 1e-9 or t > wps[-1].t + 1e-9:
        return None
    lane = None
    for wp in wps:
        if wp.t <= t + 1e-9 and wp.lane is not None:
            lane = wp.lane
    prev = wps[0]
    for wp in wps[1:]:
        if t <= wp.t + 1e-9:
            span = wp.t - prev.t
            if span <= 0:
                return Waypoint(t, wp.pos, wp.yaw, wp.speed, lane)
            a = (t - prev.t) / span
            pos = Vec3(
                prev.pos.x + a * (wp.pos.x - prev.pos.x),
                prev.pos.y + a * (wp.pos.y - prev.pos.y),
                prev.pos.z + a * (wp.pos.z - prev.pos.z),
            )
            yaw = prev.yaw + a * (wp.yaw - prev.yaw)
            speed = prev.speed + a * (wp.speed - prev.speed)
            return Waypoint(t, pos, yaw, speed, lane)
        prev = wp
    return Waypoint(t, prev.pos, prev.yaw, prev.speed, lane)


def synth_scene(
    scripts: list[ScenarioScript] | tuple[ScenarioScript, ...],
    n_frames: int,
    seed: int,
    *,
    scene_id: str = "scene_0000",
    ego_speed: float = 5.0,
    ego_yaw: float = 0.0,
) -> dict[str, Any]:
    """Build one canonical annotation scene from scripts.

    The ego starts at the origin and drives straight along its yaw at a
    constant speed, one keyframe every half second.
    """
    if n_frames < 1:
        raise ValueError("a scene needs at least one frame")
    rng = random.Random(derive_scene_seed(seed, scene_id))
    ego_rot = Quaternion.from_yaw(ego_yaw)
    heading = rotate(ego_rot, Vec3(1.0, 0.0, 0.0))

    frames = []
    ego_rows = []
    instance_rows = []
    frame_ids = []
    for k in range(n_frames):
        t = k * FRAME_PERIOD_S
        frame_id = f"{scene_id}_f{k:03d}"
        ego_info_id = f"{scene_id}_ego{k:03d}"
        ego_pos = Vec3(heading.x * ego_speed * t, heading.y * ego_speed * t, 0.0)
        ego_rows.append(
            {
                "info_id": ego_info_id,
                "pose": ego_pos.as_list(),
                "rotation": ego_rot.as_list(),
                "velocity": ego_speed,
                "road_info": dict(EGO_ROAD),
                "camera_info": {"channel_count": "6"},
            }
        )
        info_ids = []
        for s_idx, script in enumerate(scripts):
            state = _interpolate(script, t)
            if state is None:
                continue
            track_id = f"{scene_id}_track{s_idx:02d}"
            info_id = f"{scene_id}_i{s_idx:02d}_{k:03d}"
            local_t = rotate_inverse(ego_rot, state.pos - ego_pos)
            local_r = ego_rot.conjugate() * Quaternion.from_yaw(state.yaw)
            lane = state.lane if state.lane is not None else script.lane
            instance_rows.append(
                {
                    "info_id": info_id,
                    "instance_id": track_id,
                    "category": script.category,
                    "attribute": _attribute(script.category, state.speed),
                    "global_t": state.pos.as_list(),
                    "global_r": Quaternion.from_yaw(state.yaw).as_list(),
                    "local_t": local_t.as_list(),
                    "local_r": local_r.as_list(),
                    "velocity": state.speed,
                    "road_info": {"road": "main", "lane": lane},
                    "camera_pos": _camera_boxes(local_t, rng),
                }
            )
            info_ids.append(info_id)
        frames.append(
            {
                "frame_id": frame_id,
                "ego_info_id": ego_info_id,
                "instance_info_ids": info_ids,
                "timestamp": t,
            }
        )
        frame_ids.append(frame_id)

    return {
        "scenes": [{"scene_id": scene_id, "frame_ids": frame_ids}],
        "frames": frames,
        "ego": ego_rows,
        "instances": instance_rows,
    }


def merge_scenes(scene_docs: list[dict[str, Any]]) -> dict[str, Any]:
    """Concatenate single-scene documents into one corpus document."""
    merged: dict[str, Any] = {"scenes": [], "frames": [], "ego": [], "instances": []}
    for doc in scene_docs:
        for key in merged:
            merged[key].extend(doc[key])
    return merged


# --------------------------------------------------------------------------
# Curated scenarios. Each one isolates a single risk kind on a three-frame
# window, or deliberately breaks one clause of a predicate. The oncoming
# scenario also expects an approaching detection because the approaching
# predicate is a strict relaxation of the oncoming one.


class CuratedScenario(NamedTuple):
    name: str
    scripts: tuple[ScenarioScript, ...]
    expected: dict[Subtask, frozenset[str]]
    n_frames: int = 3
    ego_speed: float = 5.0
    window: tuple[int, int, int] = (0, 1, 2)
    seed: int = 11

    def scene_id(self) -> str:
        return f"curated_{self.name}"

    def build(self) -> dict[str, Any]:
        return synth_scene(
            list(self.scripts),
            self.n_frames,
            self.seed,
            scene_id=self.scene_id(),
            ego_speed=self.ego_speed,
        )

    def window_frame_ids(self) -> tuple[str, str, str]:
        a, b, c = self.window
        sid = self.scene_id()
        return (f"{sid}_f{a:03d}", f"{sid}_f{b:03d}", f"{sid}_f{c:03d}")

    def track_id(self, index: int = 0) -> str:
        return f"{self.scene_id()}_track{index:02d}"


def _track(points: list[tuple[float, float, float, float]], **kw: Any) -> ScenarioScript:
    """Script from (t, x, y, speed) tuples, yaw fixed at zero."""
    waypoints = tuple(Waypoint(t=t, pos=Vec3(x, y, 0.0), speed=v) for t, x, y, v in points)
    return ScenarioScript(waypoints=waypoints, **kw)


def curated_scenarios() -> tuple[CuratedScenario, ...]:
    """Fourteen scripted windows: one positive and one near miss per risk
    kind, plus two benign controls."""

    scenarios: list[CuratedScenario] = []

    def add(name, script, expected_kinds, ego_speed=5.0):
        track = f"curated_{name}_track00"
        scenarios.append(
            CuratedScenario(
                name=name,
                scripts=(script,),
                expected={kind: frozenset({track}) for kind in expected_kinds},
                ego_speed=ego_speed,
            )
        )

    # A car pulling past in the next lane: behind its current spot at the
    # previous frame, ahead of it at the next one.
    add(
        "overtaking",
        _track([(0.0, 0.0, 2.0, 10.0), (0.5, 5.0, 2.0, 10.0), (1.0, 10.0, 2.0, 10.0)], kind=Subtask.OVERTAKING),
        [Subtask.OVERTAKING],
    )
    # Same shape but stalled between the middle and last frames, which
    # breaks the forward half of the sign flip.
    add(
        "overtaking_negative",
        _track([(0.0, 0.0, 2.0, 10.0), (0.5, 5.0, 2.0, 2.0), (1.0, 5.0, 2.0, 0.0)], kind=None),
        [],
    )
    # Both neighbouring positions sit ahead of the current one, the later
    # one nearer, so the oncoming row holds; approaching follows for free.
    add(
        "on_coming",
        _track([(0.0, 18.0, -2.0, 5.0), (0.5, 12.0, -2.0, 5.0), (1.0, 17.0, -2.0, 5.0)], kind=Subtask.ON_COMING),
        [Subtask.ON_COMING, Subtask.APPROACHING],
    )
    # The later displacement is no smaller than the earlier one.
    add(
        "on_coming_negative",
        _track([(0.0, 18.0, -2.0, 5.0), (0.5, 12.0, -2.0, 5.0), (1.0, 19.0, -2.0, 5.0)], kind=None),
        [],
    )
    # Longitudinal displacement shrinking through zero: approaching without
    # the strictly-positive pair the oncoming row needs.
    add(
        "approaching",
        _track([(0.0, 18.0, -2.0, 5.0), (0.5, 12.0, -2.0, 5.0), (1.0, 11.0, -2.0, 5.0)], kind=Subtask.APPROACHING),
        [Subtask.APPROACHING],
    )
    add(
        "approaching_negative",
        _track([(0.0, 18.0, -2.0, 5.0), (0.5, 12.0, -2.0, 5.0), (1.0, 18.0, -2.0, 5.0)], kind=None),
        [],
    )
    # A runner cutting across the lane ahead: pure lateral displacement in
    # its own frame, four meters of it across the window.
    add(
        "crossing",
        _track(
            [(0.0, 8.0, -2.0, 4.0), (0.5, 8.0, 0.0, 4.0), (1.0, 8.0, 2.0, 4.0)],
            kind=Subtask.CROSSING,
            category="pedestrian",
            lane="crosswalk",
        ),
        [Subtask.CROSSING],
    )
    # Only two meters of lateral travel: under the crossing gate.
    add(
        "crossing_negative",
        _track(
            [(0.0, 8.0, -1.0, 2.0), (0.5, 8.0, 0.0, 2.0), (1.0, 8.0, 1.0, 2.0)],
            kind=None,
            category="pedestrian",
            lane="crosswalk",
        ),
        [],
    )
    # A car ahead in the same lane that stops dead while the faster ego
    # closes in; the longitudinal displacement jumps by four meters.
    add(
        "braking",
        _track(
            [(0.0, 14.0, 0.0, 8.0), (0.5, 18.0, 0.0, 0.2), (1.0, 18.0, 0.0, 0.0)],
            kind=Subtask.BRAKING,
            lane="1",
        ),
        [Subtask.BRAKING],
        ego_speed=10.0,
    )
    # Still rolling above the slow gate at the middle frame.
    add(
        "braking_negative",
        _track(
            [(0.0, 14.0, 0.0, 8.0), (0.5, 18.0, 0.0, 1.0), (1.0, 18.0, 0.0, 1.0)],
            kind=None,
            lane="1",
        ),
        [],
        ego_speed=10.0,
    )
    # A slow car ahead that flips its road map into the ego lane at the
    # middle frame while wobbling in place, so no other predicate fires.
    lane_change = ScenarioScript(
        kind=Subtask.LANE_CHANGING,
        waypoints=(
            Waypoint(0.0, Vec3(17.0, 1.0, 0.0), speed=1.0, lane="2"),
            Waypoint(0.5, Vec3(16.5, 1.0, 0.0), speed=1.0, lane="1"),
            Waypoint(1.0, Vec3(17.0, 1.0, 0.0), speed=1.0, lane="1"),
        ),
    )
    add("lane_changing", lane_change, [Subtask.LANE_CHANGING])
    lane_keep = ScenarioScript(
        kind=None,
        waypoints=(
            Waypoint(0.0, Vec3(17.0, 1.0, 0.0), speed=1.0, lane="1"),
            Waypoint(0.5, Vec3(16.5, 1.0, 0.0), speed=1.0, lane="1"),
            Waypoint(1.0, Vec3(17.0, 1.0, 0.0), speed=1.0, lane="1"),
        ),
    )
    add("lane_changing_negative", lane_keep, [])
    # Benign controls: nothing moves, nothing fires.
    add(
        "benign_parked",
        _track([(0.0, 10.0, -3.0, 0.0), (0.5, 10.0, -3.0, 0.0), (1.0, 10.0, -3.0, 0.0)], kind=None),
        [],
    )
    add(
        "benign_standing",
        _track(
            [(0.0, 6.0, 3.0, 0.0), (0.5, 6.0, 3.0, 0.0), (1.0, 6.0, 3.0, 0.0)],
            kind=None,
            category="pedestrian",
            lane="crosswalk",
        ),
        [],
    )
    return tuple(scenarios)


# --------------------------------------------------------------------------
# Random corpora for property and equivalence testing.

_CATEGORIES = (
    "car",
    "truck",
    "bus",
    "pedestrian",
    "bicycle",
    "construction_vehicle",
    "barrier",
    "traffic_cone",
)


def random_scene(seed: int, *, scene_id: str, n_frames: int | None = None) -> dict[str, Any]:
    """A scene full of random waypoint tracks around a straight ego path."""
    rng = random.Random(derive_scene_seed(seed, f"random:{scene_id}"))
    frames = n_frames if n_frames is not None else rng.randint(3, 6)
    ego_speed = rng.uniform(0.0, 12.0)
    ego_yaw = rng.uniform(-math.pi, math.pi)
    end_t = (frames - 1) * FRAME_PERIOD_S

    scripts: list[ScenarioScript] = []
    for _ in range(rng.randint(2, 6)):
        category = rng.choice(_CATEGORIES)
        lane = rng.choice(["1", "2", "crosswalk"])
        start = Vec3(rng.uniform(-25.0, 25.0), rng.uniform(-25.0, 25.0), 0.0)
        # Tracks may start late or end early to exercise the skip paths.
        t0 = rng.choice([0.0, FRAME_PERIOD_S])
        t1 = end_t if rng.random() < 0.8 else max(t0, end_t - FRAME_PERIOD_S)
        waypoints = []
        pos = start
        speed = rng.uniform(0.0, 12.0)
        t = t0
        while t <= t1 + 1e-9:
            waypoints.append(
                Waypoint(t=t, pos=pos, yaw=rng.uniform(-math.pi, math.pi), speed=speed)
            )
            pos = Vec3(pos.x + rng.uniform(-4.0, 4.0), pos.y + rng.uniform(-4.0, 4.0), 0.0)
            speed = max(0.0, speed + rng.uniform(-3.0, 3.0))
            t += FRAME_PERIOD_S
        scripts.append(
            ScenarioScript(kind=None, waypoints=tuple(waypoints), category=category, lane=lane)
        )
    return synth_scene(
        scripts,
        frames,
        seed,
        scene_id=scene_id,
        ego_speed=ego_speed,
        ego_yaw=ego_yaw,
    )


def random_corpus(n_scenes: int, seed: int) -> dict[str, Any]:
    """Concatenation of ``n_scenes`` random scenes."""
    docs = [
        random_scene(seed, scene_id=f"rand_{seed:04d}_{i:04d}") for i in range(n_scenes)
    ]
    return merge_scenes(docs)


def demo_corpus(n_random: int, seed: int, *, include_curated: bool = True) -> dict[str, Any]:
    """Curated scenarios plus random filler; the default desk-run corpus."""
    docs = [sc.build() for sc in curated_scenarios()] if include_curated else []
    docs.extend(
        random_scene(seed, scene_id=f"demo_{seed:04d}_{i:04d}") for i in range(n_random)
    )
    return merge_scenes(docs)


# --------------------------------------------------------------------------
# The request of ``drivesql synth``, declared once as field tables: a sample
# of the demo corpus, or scripted scenes. An absent or null optional field
# takes the default given here.


# The largest counts a request may ask for. 10,000 random scenes hold about
# half the instance rows of the reference scale (850 scenes, 321k rows), and
# 1,000 keyframes are 25 times a 40-keyframe scene.
MAX_RANDOM_SCENES = 10_000
MAX_SCENE_FRAMES = 1_000


def _count(low: int, high: int, too_few: str) -> Callable[[Any], int]:
    """The check of an integer from ``low`` to ``high``; ``too_few`` words the
    refusal of a smaller one, with ``{}`` standing for the value."""

    def read_count(value: Any) -> int:
        count = json_int(value)
        if count < low:
            raise AnnotationSchemaError("", too_few.format(count))
        if count > high:
            raise AnnotationSchemaError("", f"expected at most {high}, got {count}")
        return count

    return read_count


_as_scene_count = _count(0, MAX_RANDOM_SCENES, "expected a non-negative count, got {}")
_as_frame_count = _count(1, MAX_SCENE_FRAMES, "a scene needs at least one frame")


_RISK_KINDS = {subtask.value: subtask for subtask in RISK_SUBTASKS}


def _as_risk_kind(value: Any) -> Subtask:
    name = _as_text(value)
    if name not in _RISK_KINDS:
        raise AnnotationSchemaError("", f"expected a risk kind, got {name!r}")
    return _RISK_KINDS[name]


def _waypoint(t: float, x: float, y: float, z: float, **rest: Any) -> Waypoint:
    return Waypoint(t=t, pos=Vec3(x, y, z), **rest)


_SAMPLE = _object(demo_corpus, {
    "n_random": _optional(_as_scene_count, 20),
    "seed": _optional(json_int, 0),
    "include_curated": _optional(json_bool, True),
})

# Each scene reads as ``synth_scene``'s arguments; a scene without an id is
# named by its index.
_SCENES = _array(_object(dict, {
    "scripts": _optional(_array(_object(ScenarioScript, {
        "kind": _optional(_as_risk_kind),
        "category": _optional(_as_text, "car"),
        "lane": _optional(_as_text, "2"),
        "waypoints": _array(_object(_waypoint, {
            "t": _as_float,
            "x": _as_float,
            "y": _as_float,
            "z": _optional(_as_float, 0.0),
            "yaw": _optional(_as_float, 0.0),
            "speed": _optional(_as_speed, 0.0),
            "lane": _optional(_as_text),
        }), non_empty=True),
    })), ()),
    "n_frames": _optional(_as_frame_count, 3),
    "seed": _optional(json_int, 0),
    "scene_id": _optional(_as_text),
    "ego_speed": _optional(_as_speed, 5.0),
    "ego_yaw": _optional(_as_float, 0.0),
}), non_empty=True)


def read_synth_request(doc: Any, path: str | Path) -> dict[str, Any]:
    """The annotations a synth request asks for: its ``sample`` if it has
    one, else its ``scenes``. A request holding both is refused."""
    with naming_file(path):
        if type(doc) is dict and "sample" in doc:
            return _read_fields(doc, {"sample": _SAMPLE})["sample"]
        scenes = _read_fields(doc, {"scenes": _SCENES})["scenes"]
    for i, scene in enumerate(scenes):
        if scene["scene_id"] is None:
            scene["scene_id"] = f"scene_{i:04d}"
    return merge_scenes([synth_scene(**scene) for scene in scenes])
