"""Curated scripted scenarios pin each risk predicate's behavior.

Every scenario is built to trip exactly one predicate (or none), with
hand-checked kinematics; the oncoming scenario also trips approaching
because its predicate relaxes the oncoming one clause for clause.
"""

import pytest

from drivesql.scene_db import build_database
from drivesql.synth import curated_scenarios
from drivesql.task_sql import RISK_SUBTASKS, RiskThresholds, Subtask, detect_risk

from _oracles import SceneOracle

SCENARIOS = curated_scenarios()


def _detections(db, window, thresholds=None):
    th = thresholds or RiskThresholds()
    found = {}
    for kind in RISK_SUBTASKS:
        hits = detect_risk(db, kind, *window, th)
        if hits:
            found[kind] = [i.instance_id for i in hits]
    return found


def test_scenario_coverage():
    names = [sc.name for sc in SCENARIOS]
    assert len(names) == len(set(names))
    assert len(SCENARIOS) >= 12
    positives = {kind for sc in SCENARIOS for kind in sc.expected}
    assert positives == set(RISK_SUBTASKS)
    negatives = [sc for sc in SCENARIOS if not sc.expected]
    assert len(negatives) >= 6


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: sc.name)
def test_curated_scenario_fires_exact_kinds(scenario):
    db = build_database(scenario.build())
    window = scenario.window_frame_ids()
    found = _detections(db, window)
    assert set(found) == set(scenario.expected), (
        f"{scenario.name}: wanted {sorted(k.value for k in scenario.expected)}, "
        f"got {sorted(k.value for k in found)}"
    )
    for kind, tracks in scenario.expected.items():
        assert set(found[kind]) == set(tracks)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda sc: sc.name)
def test_curated_scenario_matches_oracle(scenario):
    annotations = scenario.build()
    db = build_database(annotations)
    oracle = SceneOracle(annotations)
    window = scenario.window_frame_ids()
    for kind in RISK_SUBTASKS:
        want = oracle.risk(kind.value, *window)
        got = [i.info_id for i in detect_risk(db, kind, *window, RiskThresholds())]
        assert got == want


def test_thresholds_gate_detection():
    braking = next(sc for sc in SCENARIOS if sc.name == "braking")
    db = build_database(braking.build())
    window = braking.window_frame_ids()
    assert detect_risk(db, Subtask.BRAKING, *window, RiskThresholds())
    # A slow-speed gate below the scripted initial speed suppresses the hit.
    tight = RiskThresholds(s=0.05)
    assert detect_risk(db, Subtask.BRAKING, *window, tight) == []
    # A huge longitudinal gate makes the displacement delta insufficient.
    wide = RiskThresholds(dis_x=50.0)
    assert detect_risk(db, Subtask.BRAKING, *window, wide) == []


def test_empty_frame_yields_no_risks():
    from drivesql.synth import synth_scene

    ann = synth_scene([], n_frames=3, seed=4, scene_id="empty")
    db = build_database(ann)
    window = tuple(db.scenes["empty"].frame_ids)
    for kind in RISK_SUBTASKS:
        assert detect_risk(db, kind, *window, RiskThresholds()) == []
