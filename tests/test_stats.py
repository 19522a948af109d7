import random

import pytest

from drivesql.errors import RecordNotFound
from drivesql.scene_db import REAL_VIEWS, View, build_database
from drivesql.stats import average_instances_per_keyframe, compute_stats, view_percent_csv
from drivesql.synth import ScenarioScript, Waypoint, synth_scene
from drivesql.task_sql import Subtask, Task
from drivesql.generation import GenerationConfig, generate_pairs
from drivesql.geometry import Vec3


def test_average_instances_per_keyframe_reference_figures():
    value = average_instances_per_keyframe(295828, 11850)
    assert round(value, 2) == 24.96


def test_average_instances_per_keyframe_validation():
    with pytest.raises(ValueError):
        average_instances_per_keyframe(10, 0)
    with pytest.raises(ValueError):
        average_instances_per_keyframe(-1, 10)


def test_compute_stats_totals(demo_db, demo_pairs):
    stats = compute_stats(demo_pairs, demo_db)
    assert stats.pairs_total == len(demo_pairs)
    assert sum(stats.pairs_per_subtask.values()) == len(demo_pairs)
    assert set(stats.pairs_per_subtask) == set(Subtask)
    assert sum(stats.task_proportions.values()) == pytest.approx(1.0, abs=1e-9)
    assert stats.keyframes == len(demo_db.frames)
    assert stats.instance_appearances == len(demo_db.instance_frame_index)
    assert stats.instances_total == len({i for i, _ in demo_db.instance_frame_index})
    assert stats.avg_instances_per_keyframe == pytest.approx(
        stats.instance_appearances / stats.keyframes, abs=1e-12
    )


def test_compute_stats_view_axes(demo_db, demo_pairs):
    stats = compute_stats(demo_pairs, demo_db)
    assert set(stats.responses_per_view) == set(REAL_VIEWS)
    assert View.ALL not in stats.responses_per_view
    for task in Task:
        row = stats.view_percent_per_task[task]
        assert set(row) == set(REAL_VIEWS)
        row_sum = sum(row.values())
        if any(row.values()):
            assert row_sum == pytest.approx(100.0, abs=1e-9)
        else:
            assert row_sum == 0.0


def test_compute_stats_order_free(demo_db, demo_pairs):
    shuffled = list(demo_pairs)
    random.Random(8).shuffle(shuffled)
    assert compute_stats(shuffled, demo_db).as_dict() == compute_stats(demo_pairs, demo_db).as_dict()


def test_compute_stats_rejects_dangling_frames(demo_db, demo_pairs):
    broken = demo_pairs[0]._replace(frame_ids=("ghost_a", "ghost_b", "ghost_c"))
    with pytest.raises(RecordNotFound):
        compute_stats([broken], demo_db)


def test_front_only_corpus_masses_on_front_column():
    track = tuple(Waypoint(0.5 * k, Vec3(6.0, 0.0, 0.0)) for k in range(3))
    ann = synth_scene([ScenarioScript(kind=None, waypoints=track)], n_frames=3, seed=2, scene_id="solo")
    db = build_database(ann)
    pairs, _ = generate_pairs(db, GenerationConfig())
    stats = compute_stats(pairs, db)
    for view in REAL_VIEWS:
        if view is View.FRONT:
            assert stats.responses_per_view[view] == stats.pairs_total
        else:
            assert stats.responses_per_view[view] == 0
    for task in Task:
        row = stats.view_percent_per_task[task]
        if any(row.values()):
            assert row[View.FRONT] == pytest.approx(100.0, abs=1e-9)


def test_view_percent_csv_layout(tmp_path, demo_db, demo_pairs):
    stats = compute_stats(demo_pairs, demo_db)
    out = tmp_path / "views.csv"
    text = view_percent_csv(stats, out)
    assert out.read_text(encoding="utf-8") == text
    lines = text.strip().splitlines()
    assert lines[0] == "task," + ",".join(v.value for v in REAL_VIEWS)
    assert len(lines) == 1 + len(Task)
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 1 + len(REAL_VIEWS)
        for cell in cells[1:]:
            float(cell)
            assert len(cell.split(".")[1]) == 2


def test_stats_as_dict_round_trips_to_json(demo_db, demo_pairs):
    import json

    doc = compute_stats(demo_pairs, demo_db).as_dict()
    encoded = json.dumps(doc, sort_keys=True)
    assert json.loads(encoded) == doc
