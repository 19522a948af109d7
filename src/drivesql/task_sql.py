"""Windowed query operations over the scene database.

Each public function answers one subtask for a window of up to three
consecutive keyframes (previous, current, next). Perception subtasks read
the current frame, prediction subtasks relate the current frame to the next
one, and risk detection relates all three. ``nearest_first`` is the one
ranking of a frame's rows, by planar range and then info id; ``closest``
and ``instance_number`` wrap the row-level ``first_per_view`` and
``category_counts`` that generation calls on a window's rows. A
``WindowContext`` holds a window's facts, each computed on its first read:
the current rows and the ego move with the window check, the follower sweep
and the risk inputs when a subtask reads them. The risk predicates and
planning read them from there. The prediction operations and the context
share one follower sweep (``_followers``) and one ego move (``status_ego``).
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import NonConsecutiveFrames
from .geometry import Vec3, planar_norm, relative_motion
from .scene_db import InstanceInfo, SceneDatabase, View


class Task(Enum):
    PERCEPTION = "perception"
    PREDICTION = "prediction"
    RISK = "risk"
    PLANNING_WITH_REASONING = "planning_with_reasoning"

    __hash__ = object.__hash__  # as ``View``'s


class Subtask(Enum):
    DISTANCE = "distance"
    CLOSEST = "closest"
    INSTANCE_NUMBER = "instance_number"
    SPEEDS = "speeds"
    STATUS = "status"
    SAME_ROAD = "same_road"
    MOTION_EGO = "motion_ego"
    MOTION_OTHERS = "motion_others"
    STATUS_EGO = "status_ego"
    STATUS_OTHERS = "status_others"
    OVERTAKING = "overtaking"
    ON_COMING = "on_coming"
    APPROACHING = "approaching"
    CROSSING = "crossing"
    BRAKING = "braking"
    LANE_CHANGING = "lane_changing"
    PLANNING_WITH_REASONING = "planning_with_reasoning"

    __hash__ = object.__hash__  # as ``View``'s

    # Plain attributes, each set once: ``Enum.value`` and a property would
    # each run Python code on every read. ``text`` is the value, ``task`` the
    # subtask's task and ``task_text`` that task's value.
    text: str
    task: Task
    task_text: str

    def __init__(self, value: str) -> None:
        self.text = value


RISK_SUBTASKS: tuple[Subtask, ...] = (
    Subtask.OVERTAKING,
    Subtask.ON_COMING,
    Subtask.APPROACHING,
    Subtask.CROSSING,
    Subtask.BRAKING,
    Subtask.LANE_CHANGING,
)

_TASK_OF = {
    Subtask.DISTANCE: Task.PERCEPTION,
    Subtask.CLOSEST: Task.PERCEPTION,
    Subtask.INSTANCE_NUMBER: Task.PERCEPTION,
    Subtask.SPEEDS: Task.PERCEPTION,
    Subtask.STATUS: Task.PERCEPTION,
    Subtask.SAME_ROAD: Task.PERCEPTION,
    Subtask.MOTION_EGO: Task.PREDICTION,
    Subtask.MOTION_OTHERS: Task.PREDICTION,
    Subtask.STATUS_EGO: Task.PREDICTION,
    Subtask.STATUS_OTHERS: Task.PREDICTION,
    **{kind: Task.RISK for kind in RISK_SUBTASKS},
    Subtask.PLANNING_WITH_REASONING: Task.PLANNING_WITH_REASONING,
}
for _subtask, _task in _TASK_OF.items():
    _subtask.task, _subtask.task_text = _task, _task.value
del _subtask, _task


class _Gates(NamedTuple):
    dis: float
    dis_x: float
    dis_y: float
    s: float


class RiskThresholds(_Gates):
    """Distance and speed gates shared by the six risk predicates.

    ``dis`` bounds lateral offsets and planar ranges in meters, ``dis_x``
    and ``dis_y`` bound longitudinal and lateral displacement deltas, and
    ``s`` splits slow from moving in meters per second. Each gate must be
    a positive finite int or float; any other value is refused, whether the
    set is built by name, by ``_replace`` or by unpickling.
    """

    __slots__ = ()

    def __new__(
        cls, dis: float = 20.0, dis_x: float = 3.0, dis_y: float = 3.0, s: float = 0.5
    ) -> "RiskThresholds":
        gates = (dis, dis_x, dis_y, s)
        for name, value in zip(cls._fields, gates):
            if type(value) not in (int, float) or not 0 < value < math.inf:
                raise ValueError(f"threshold {name} must be positive and finite, got {value!r}")
        return tuple.__new__(cls, gates)

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> "RiskThresholds":
        # ``_replace`` builds through ``_make``, so the check runs there too.
        return cls(*iterable)

    def as_dict(self) -> dict[str, float]:
        return self._asdict()


class PlanningResult(NamedTuple):
    """Risk summary plus the ego's own speed change and next displacement."""

    risks: dict[Subtask, tuple[InstanceInfo, ...]]
    ego_speed_delta: float
    ego_motion: Vec3


# ---------------------------------------------------------------- perception


def distance(db: SceneDatabase, instance_info_id: str) -> tuple[float, float, float]:
    """Planar offsets of an instance in the ego frame plus their norm."""
    info = db.instance(instance_info_id)
    x, y = info.local_t.x, info.local_t.y
    return x, y, planar_norm(info.local_t)


def nearest_first(rows: Iterable[InstanceInfo]) -> list[InstanceInfo]:
    """Rows ranked by planar ego range; ties go to the smaller info id."""
    return sorted(rows, key=lambda info: (planar_norm(info.local_t), info.info_id))


def first_per_view(ranked: Iterable[InstanceInfo]) -> dict[View, InstanceInfo]:
    """Each view's first row of ``ranked``, including the union view. Views
    with no visible row are absent from the result."""
    best: dict[View, InstanceInfo] = {}
    for info in ranked:
        for view in (*info.camera_pos, View.ALL):
            best.setdefault(view, info)
    return best


def category_counts(rows: Iterable[InstanceInfo]) -> dict[View, dict[str, int]]:
    """Category counts of ``rows`` per view; a missing category means a
    count of zero. The union view counts each row exactly once, regardless
    of how many cameras see it."""
    counts: dict[View, dict[str, int]] = {view: {} for view in View}
    for info in rows:
        for view in info.camera_pos:
            per_view = counts[view]
            per_view[info.category] = per_view.get(info.category, 0) + 1
        union = counts[View.ALL]
        union[info.category] = union.get(info.category, 0) + 1
    return counts


def closest(db: SceneDatabase, frame_id: str) -> dict[View, InstanceInfo]:
    """Nearest instance per view of the frame, ranked by ``nearest_first``."""
    return first_per_view(nearest_first(db.instances_in_frame(frame_id)))


def instance_number(db: SceneDatabase, frame_id: str) -> dict[View, dict[str, int]]:
    """Category counts per view of the frame's instances."""
    return category_counts(db.instances_in_frame(frame_id))


def speeds(db: SceneDatabase, instance_info_id: str) -> float:
    """Annotated speed of the appearance row, in meters per second."""
    return db.instance(instance_info_id).velocity


def status(db: SceneDatabase, instance_info_id: str) -> str:
    """Annotated movement attribute of the appearance row."""
    return db.instance(instance_info_id).attribute


def same_road(db: SceneDatabase, instance_info_id: str, frame_id: str) -> bool:
    """Whether the instance's road map equals the ego's at this frame."""
    return db.instance(instance_info_id).road_info == db.ego_in_frame(frame_id).road_info


# ---------------------------------------------------------------- prediction


def _followers(
    db: SceneDatabase, rows: tuple[InstanceInfo, ...], frame_next: str
) -> dict[str, tuple[InstanceInfo, Vec3]]:
    """Each row with an appearance at ``frame_next``: that appearance and the
    displacement toward it in the row's own frame, keyed by info id in row order."""
    out: dict[str, tuple[InstanceInfo, Vec3]] = {}
    for info in rows:
        target = db.instance_at_frame(info.instance_id, frame_next)
        if target is not None:
            motion = relative_motion(info.global_t, info.global_r, target.global_t)
            out[info.info_id] = (target, motion)
    return out


def motion_ego(db: SceneDatabase, frame_i: str, frame_next: str) -> Vec3:
    """Ego displacement to the target frame, in the current ego frame."""
    return status_ego(db, frame_i, frame_next)[1]


def motion_others(db: SceneDatabase, frame_i: str, frame_next: str) -> dict[str, Vec3]:
    """Per-instance displacement to the target frame, in each own frame.

    Keys are the instance info ids at ``frame_i``. Instances with no
    appearance at the target frame are omitted.
    """
    followers = _followers(db, db.instances_in_frame(frame_i), frame_next)
    return {info_id: motion for info_id, (_, motion) in followers.items()}


def status_ego(db: SceneDatabase, frame_i: str, frame_next: str) -> tuple[float, Vec3]:
    """Ego speed change and displacement toward the target frame, in the
    current ego frame."""
    ego_i, ego_next = db.ego_in_frame(frame_i), db.ego_in_frame(frame_next)
    motion = relative_motion(ego_i.pose, ego_i.rotation, ego_next.pose)
    return ego_next.velocity - ego_i.velocity, motion


def status_others(
    db: SceneDatabase, frame_i: str, frame_next: str
) -> tuple[dict[str, float], dict[str, Vec3]]:
    """Speed deltas and displacements for instances shared by both frames.

    Both maps are keyed by the ``frame_i`` info id and always hold exactly
    the same keys.
    """
    followers = _followers(db, db.instances_in_frame(frame_i), frame_next)
    deltas = {i: target.velocity - db.instances[i].velocity for i, (target, _) in followers.items()}
    return deltas, {i: motion for i, (_, motion) in followers.items()}


# ---------------------------------------------------------------------- risk


def _check_window(db: SceneDatabase, *frame_ids: str) -> None:
    for frame_id in frame_ids:
        db.frame(frame_id)
    if not db.are_consecutive(*frame_ids):
        raise NonConsecutiveFrames(
            f"frames {frame_ids!r} are not consecutive keyframes of one scene"
        )


class _RiskContext(NamedTuple):
    """One row's risk predicate inputs; a window builds one per row."""

    m_prev: Vec3
    m_next: Vec3 | None
    l_i: float
    l_prev: float
    v_i: float
    v_prev: float
    same_now: bool
    same_prev: bool


def _overtaking(c: _RiskContext, t: RiskThresholds) -> bool:
    assert c.m_next is not None
    return (
        c.m_prev.x < 0
        and c.m_next.x > 0
        and abs(c.m_prev.y) < t.dis
        and abs(c.m_next.y) < t.dis
        and c.v_i > 0
        and c.v_prev > 0
    )


def _on_coming(c: _RiskContext, t: RiskThresholds) -> bool:
    assert c.m_next is not None
    return (
        c.m_prev.x > 0
        and c.m_next.x > 0
        and c.m_next.x < c.m_prev.x
        and abs(c.m_prev.y) < t.dis
        and abs(c.m_next.y) < t.dis
        and abs(c.m_next.y - c.m_prev.y) < t.dis
        and c.v_i > 0
        and c.v_prev > 0
    )


def _approaching(c: _RiskContext, t: RiskThresholds) -> bool:
    assert c.m_next is not None
    return (
        c.m_next.x < c.m_prev.x
        and abs(c.m_prev.y) < t.dis
        and abs(c.m_next.y) < t.dis
        and abs(c.m_next.y - c.m_prev.y) < t.dis
        and c.v_i > 0
        and c.v_prev > 0
    )


def _crossing(c: _RiskContext, t: RiskThresholds) -> bool:
    assert c.m_next is not None
    return (
        c.l_i < t.dis
        and c.l_prev < t.dis
        and abs(c.m_next.x - c.m_prev.x) < t.dis_x
        and abs(c.m_next.y - c.m_prev.y) > t.dis_y
        and c.v_i > 0
        and c.v_prev > 0
    )


def _braking(c: _RiskContext, t: RiskThresholds) -> bool:
    assert c.m_next is not None
    return (
        c.l_i < c.l_prev < t.dis
        and abs(c.m_next.x - c.m_prev.x) > t.dis_x
        and abs(c.m_next.y) < t.dis_y
        and abs(c.m_prev.y) < t.dis_y
        and c.v_prev > t.s
        and c.v_i < t.s
    )


def _lane_changing(c: _RiskContext, t: RiskThresholds) -> bool:
    return (
        c.l_i < c.l_prev < t.dis
        and c.same_now
        and not c.same_prev
        and c.v_prev > t.s
        and c.v_i > t.s
    )


# Departs from the published table: its overtaking row contradicts itself
# (x < 0 and x > 0 of one displacement), and lateral bounds here compare abs values.
_PREDICATES = {
    Subtask.OVERTAKING: _overtaking,
    Subtask.ON_COMING: _on_coming,
    Subtask.APPROACHING: _approaching,
    Subtask.CROSSING: _crossing,
    Subtask.BRAKING: _braking,
    Subtask.LANE_CHANGING: _lane_changing,
}

# Lane changing only compares the current frame against the previous one;
# every other predicate also needs the instance at the next frame.
_NEEDS_NEXT = {kind: kind is not Subtask.LANE_CHANGING for kind in RISK_SUBTASKS}


class WindowContext:
    """Facts of one (previous, current, next) window of consecutive
    keyframes, each computed once and only when first read.

    ``current`` and the ego move are computed with the window check.
    ``followers`` maps each current info id with an appearance at the next
    frame to that row and the displacement toward it; ``risk_rows`` pairs
    each current row that has a previous appearance with its predicate
    inputs. Both keep the current frame's row order.
    """

    def __init__(self, db: SceneDatabase, frame_prev: str, frame_i: str, frame_next: str):
        _check_window(db, frame_prev, frame_i, frame_next)
        self._db, self._window = db, (frame_prev, frame_i, frame_next)
        self.current = db.instances_in_frame(frame_i)
        self.ego_speed_delta, self.ego_motion = status_ego(db, frame_i, frame_next)

    @cached_property
    def followers(self) -> dict[str, tuple[InstanceInfo, Vec3]]:
        return _followers(self._db, self.current, self._window[2])

    @cached_property
    def risk_rows(self) -> tuple[tuple[InstanceInfo, _RiskContext], ...]:
        db, (frame_prev, frame_i, _) = self._db, self._window
        ego_prev, ego_i = db.ego_in_frame(frame_prev), db.ego_in_frame(frame_i)
        rows: list[tuple[InstanceInfo, _RiskContext]] = []
        for info in self.current:
            prev = db.instance_at_frame(info.instance_id, frame_prev)
            if prev is None:
                continue
            follower = self.followers.get(info.info_id)
            risk = _RiskContext(
                m_prev=relative_motion(info.global_t, info.global_r, prev.global_t),
                m_next=None if follower is None else follower[1],
                l_i=planar_norm(info.local_t),
                l_prev=planar_norm(prev.local_t),
                v_i=info.velocity,
                v_prev=prev.velocity,
                same_now=info.road_info == ego_i.road_info,
                same_prev=prev.road_info == ego_prev.road_info,
            )
            rows.append((info, risk))
        return tuple(rows)

    @property
    def full_window_rows(self) -> int:
        """Current rows that appear at all three frames."""
        return sum(1 for _, c in self.risk_rows if c.m_next is not None)

    def risk_hits(self, kind: Subtask, thresholds: RiskThresholds) -> list[InstanceInfo]:
        """Rows matching one risk kind, in the current frame's order."""
        predicate, needs_next = _PREDICATES[kind], _NEEDS_NEXT[kind]
        return [
            info
            for info, c in self.risk_rows
            if not (needs_next and c.m_next is None) and predicate(c, thresholds)
        ]

    def plan(self, thresholds: RiskThresholds) -> PlanningResult:
        """All six risk hit lists plus the ego's own next move."""
        risks = {
            kind: tuple(self.risk_hits(kind, thresholds)) for kind in RISK_SUBTASKS
        }
        return PlanningResult(
            risks=risks, ego_speed_delta=self.ego_speed_delta, ego_motion=self.ego_motion
        )


def detect_risk(
    db: SceneDatabase,
    kind: Subtask,
    frame_prev: str,
    frame_i: str,
    frame_next: str,
    thresholds: RiskThresholds = RiskThresholds(),
) -> list[InstanceInfo]:
    """Instances at the current frame whose window matches one risk kind.

    Instances missing an appearance at a frame the predicate needs are
    skipped.
    """
    if kind not in RISK_SUBTASKS:
        raise ValueError(f"{kind} is not a risk kind")
    return WindowContext(db, frame_prev, frame_i, frame_next).risk_hits(kind, thresholds)


def planning_with_reasoning(
    db: SceneDatabase,
    frame_prev: str,
    frame_i: str,
    frame_next: str,
    thresholds: RiskThresholds = RiskThresholds(),
) -> PlanningResult:
    """Combine all six risk detections with the ego's own next move."""
    return WindowContext(db, frame_prev, frame_i, frame_next).plan(thresholds)
