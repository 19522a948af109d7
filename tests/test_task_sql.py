import math
import pickle
import re

import pytest

from drivesql.errors import NonConsecutiveFrames, RecordNotFound
from drivesql.geometry import Vec3
from drivesql.scene_db import View, build_database
from drivesql.synth import ScenarioScript, Waypoint, random_corpus, synth_scene
from drivesql.task_sql import (
    RISK_SUBTASKS,
    RiskThresholds,
    Subtask,
    Task,
    closest,
    detect_risk,
    distance,
    instance_number,
    motion_ego,
    motion_others,
    planning_with_reasoning,
    same_road,
    speeds,
    status,
    status_ego,
    status_others,
)

from _oracles import SceneOracle


def _windows(db, scene_id):
    ids = db.scenes[scene_id].frame_ids
    return [tuple(ids[i : i + 3]) for i in range(len(ids) - 2)]


@pytest.fixture(scope="module")
def corpus():
    ann = random_corpus(15, seed=21)
    return ann, build_database(ann), SceneOracle(ann)


def test_subtask_enum_contract():
    assert len(Subtask) == 17
    assert [s.value for s in Subtask] == [
        "distance",
        "closest",
        "instance_number",
        "speeds",
        "status",
        "same_road",
        "motion_ego",
        "motion_others",
        "status_ego",
        "status_others",
        "overtaking",
        "on_coming",
        "approaching",
        "crossing",
        "braking",
        "lane_changing",
        "planning_with_reasoning",
    ]
    assert Subtask.DISTANCE.task is Task.PERCEPTION
    assert Subtask.MOTION_EGO.task is Task.PREDICTION
    assert Subtask.BRAKING.task is Task.RISK
    assert Subtask.PLANNING_WITH_REASONING.task is Task.PLANNING_WITH_REASONING
    assert len(RISK_SUBTASKS) == 6


def test_distance_trivial():
    ann = synth_scene(
        [
            ScenarioScript(
                kind=None,
                waypoints=tuple(Waypoint(t, Vec3(3, 4, 0)) for t in (0.0, 0.5, 1.0)),
            )
        ],
        n_frames=3,
        seed=1,
        scene_id="s0",
    )
    db = build_database(ann)
    info_id = "s0_i00_000"
    x, y, l = distance(db, info_id)
    assert (x, y) == (3.0, 4.0)
    assert l == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(RecordNotFound):
        distance(db, "nope")


def test_distance_matches_oracle(corpus):
    _, db, oracle = corpus
    for info_id in db.instances:
        want = oracle.distance(info_id)
        got = distance(db, info_id)
        assert got[0] == want[0] and got[1] == want[1]
        assert got[2] == pytest.approx(want[2], abs=1e-9)


def test_closest_matches_oracle(corpus):
    _, db, oracle = corpus
    for frame_id in db.frames:
        want = oracle.closest(frame_id)
        got = closest(db, frame_id)
        got_ids = {view.value: info.info_id for view, info in got.items()}
        assert got_ids == want


def test_closest_minimality(corpus):
    _, db, _ = corpus
    for frame_id in db.frames:
        rows = db.instances_in_frame(frame_id)
        for view, info in closest(db, frame_id).items():
            rivals = [
                r
                for r in rows
                if view is View.ALL or view in r.camera_pos
            ]
            best = min(math.hypot(r.local_t.x, r.local_t.y) for r in rivals)
            assert math.hypot(info.local_t.x, info.local_t.y) <= best + 1e-12


def test_instance_number_matches_oracle(corpus):
    _, db, oracle = corpus
    for frame_id in db.frames:
        want = oracle.counts(frame_id)
        got = instance_number(db, frame_id)
        assert {v.value: dict(c) for v, c in got.items()} == want


def test_instance_number_invariants(corpus):
    _, db, _ = corpus
    for frame_id in db.frames:
        rows = db.instances_in_frame(frame_id)
        counts = instance_number(db, frame_id)
        total = len(rows)
        for view, per_category in counts.items():
            assert sum(per_category.values()) <= total or view is View.ALL
        by_category = {}
        for row in rows:
            by_category[row.category] = by_category.get(row.category, 0) + 1
        assert dict(counts[View.ALL]) == by_category


def test_speeds_status_same_road_match_oracle(corpus):
    _, db, oracle = corpus
    for info_id, info in db.instances.items():
        assert speeds(db, info_id) == oracle.speed(info_id)
        assert status(db, info_id) == oracle.status(info_id)
    for frame_id, frame in db.frames.items():
        for info_id in frame.instance_info_ids:
            want = "yes" if oracle.same_road(info_id, frame_id) else "no"
            got = "yes" if same_road(db, info_id, frame_id) else "no"
            assert got == want


def test_motion_ego_trivial_and_oracle(corpus):
    _, db, oracle = corpus
    for scene_id in db.scenes:
        ids = db.scenes[scene_id].frame_ids
        same = motion_ego(db, ids[0], ids[0])
        assert (same.x, same.y, same.z) == pytest.approx((0, 0, 0), abs=1e-12)
        for a, b in zip(ids, ids[1:]):
            want = oracle.motion_ego(a, b)
            got = motion_ego(db, a, b)
            assert (got.x, got.y, got.z) == pytest.approx(want, abs=1e-9)


def test_motion_others_matches_oracle(corpus):
    _, db, oracle = corpus
    for scene_id in db.scenes:
        ids = db.scenes[scene_id].frame_ids
        for a, b in zip(ids, ids[1:]):
            want = oracle.motion_others(a, b)
            got = motion_others(db, a, b)
            assert set(got) == set(want)
            for info_id, vec in got.items():
                assert (vec.x, vec.y, vec.z) == pytest.approx(want[info_id], abs=1e-9)


def test_status_ego_and_others_match_oracle(corpus):
    _, db, oracle = corpus
    for scene_id in db.scenes:
        ids = db.scenes[scene_id].frame_ids
        for a, b in zip(ids, ids[1:]):
            want_dv, want_motion = oracle.status_ego(a, b)
            got_dv, got_motion = status_ego(db, a, b)
            assert got_dv == pytest.approx(want_dv, abs=1e-12)
            assert (got_motion.x, got_motion.y, got_motion.z) == pytest.approx(
                want_motion, abs=1e-9
            )
            want_deltas, want_motions = oracle.status_others(a, b)
            got_deltas, got_motions = status_others(db, a, b)
            assert set(got_deltas) == set(got_motions) == set(want_deltas)
            frame_instances = set(db.frames[a].instance_info_ids)
            assert set(got_deltas) <= frame_instances
            for info_id in got_deltas:
                assert got_deltas[info_id] == pytest.approx(want_deltas[info_id], abs=1e-12)


def test_detect_risk_matches_oracle(corpus):
    _, db, oracle = corpus
    th = RiskThresholds()
    raw = (th.dis, th.dis_x, th.dis_y, th.s)
    for scene_id in db.scenes:
        for window in _windows(db, scene_id):
            for kind in RISK_SUBTASKS:
                want = oracle.risk(kind.value, *window, thresholds=raw)
                got = [i.info_id for i in detect_risk(db, kind, *window, th)]
                assert got == want, f"{kind.value} differs on {window}"


def test_detect_risk_rejects_non_consecutive(corpus):
    _, db, _ = corpus
    scene = next(s for s in db.scenes.values() if len(s.frame_ids) >= 4)
    ids = scene.frame_ids
    with pytest.raises(NonConsecutiveFrames):
        detect_risk(db, Subtask.BRAKING, ids[0], ids[1], ids[3], RiskThresholds())
    with pytest.raises(NonConsecutiveFrames):
        detect_risk(db, Subtask.BRAKING, ids[2], ids[1], ids[0], RiskThresholds())


def test_planning_composes_detect_risk(corpus):
    _, db, _ = corpus
    th = RiskThresholds()
    for scene_id in sorted(db.scenes)[:5]:
        for window in _windows(db, scene_id):
            plan = planning_with_reasoning(db, *window, th)
            assert set(plan.risks) == set(RISK_SUBTASKS)
            for kind in RISK_SUBTASKS:
                direct = detect_risk(db, kind, *window, th)
                assert [i.info_id for i in plan.risks[kind]] == [i.info_id for i in direct]
            dv, motion = status_ego(db, window[1], window[2])
            assert plan.ego_speed_delta == dv
            got = plan.ego_motion
            assert (got.x, got.y, got.z) == (motion.x, motion.y, motion.z)


def test_planning_empty_scene():
    ann = synth_scene([], n_frames=3, seed=2, scene_id="quiet", ego_speed=0.0)
    db = build_database(ann)
    ids = db.scenes["quiet"].frame_ids
    plan = planning_with_reasoning(db, *ids, RiskThresholds())
    assert all(not hits for hits in plan.risks.values())
    assert plan.ego_speed_delta == 0.0
    assert (plan.ego_motion.x, plan.ego_motion.y, plan.ego_motion.z) == (0.0, 0.0, 0.0)


def test_thresholds_validation():
    for value in (0, 0.0, -1.0, -3, math.nan, math.inf, -math.inf, True, "1.0"):
        for name in RiskThresholds._fields:
            reason = f"threshold {name} must be positive and finite, got {value!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
                RiskThresholds(**{name: value})
            with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
                RiskThresholds()._replace(**{name: value})
    assert RiskThresholds().as_dict() == {"dis": 20.0, "dis_x": 3.0, "dis_y": 3.0, "s": 0.5}


def test_thresholds_are_checked_again_when_unpickled():
    thresholds = RiskThresholds(dis=12.5, s=1)
    back = pickle.loads(pickle.dumps(thresholds))
    assert type(back) is RiskThresholds and back == thresholds
    forged = tuple.__new__(RiskThresholds, (20.0, 3.0, 3.0, 0.0))
    with pytest.raises(ValueError, match="^threshold s must be positive and finite, got 0.0$"):
        pickle.loads(pickle.dumps(forged))
