import copy
import gc
import hashlib
import json
import math
import random
from pathlib import Path
from unittest import mock

import pytest

from drivesql import canonical, scene_db, synth
from drivesql.canonical import canonical_dumps, write_jsonl
from drivesql.cli import run
from drivesql.errors import AnnotationSchemaError, DriveSqlError, RecordNotFound
from drivesql.evaluation import (
    predictions_from_pairs,
    read_predictions_jsonl,
    write_predictions_jsonl,
)
from drivesql.generation import DetectionList, pair_to_dict, read_pairs_jsonl
from drivesql.geometry import Quaternion, Vec3
from drivesql.scene_db import (
    BBox2D,
    EgoInfo,
    FrameRecord,
    InstanceInfo,
    SceneRecord,
    View,
    build_database,
    database_to_document,
    load_database,
    save_database,
)
from drivesql.synth import (
    ScenarioScript,
    Waypoint,
    demo_corpus,
    merge_scenes,
    random_corpus,
    synth_scene,
)

from _oracles import SceneOracle
from test_loader_properties import (
    _REMOVE,
    _SYNTH_SAMPLE,
    _SYNTH_SCENES,
    _built,
    _mutated,
    _node_paths,
    _read_synth_request,
    _row_loop_only,
)


def _static_track(x, y, *, speed=0.0, category="car", lane="2"):
    waypoints = tuple(
        Waypoint(t=t, pos=Vec3(x, y, 0.0), speed=speed) for t in (0.0, 0.5, 1.0)
    )
    return ScenarioScript(kind=None, waypoints=waypoints, category=category, lane=lane)


@pytest.fixture()
def small_annotations():
    return synth_scene(
        [_static_track(5, 0), _static_track(8, 2)], n_frames=3, seed=1, scene_id="s0"
    )


def test_build_keeps_near_instances(small_annotations):
    db = build_database(small_annotations, important_radius=20.0)
    assert len(db.scenes) == 1
    assert len(db.frames) == 3
    assert len(db.instances) == 6
    for info in db.instances.values():
        assert math.hypot(info.local_t.x, info.local_t.y) <= 20.0


def test_build_filters_far_instance():
    ann = synth_scene(
        [_static_track(5, 0), _static_track(30, 0)], n_frames=3, seed=1, scene_id="s0"
    )
    db = build_database(ann, important_radius=20.0)
    kept_tracks = {info.instance_id for info in db.instances.values()}
    assert kept_tracks == {"s0_track00"}
    for frame in db.frames.values():
        assert len(frame.instance_info_ids) == 1


def test_filter_matches_brute_force_oracle():
    ann = random_corpus(12, seed=5)
    db = build_database(ann, important_radius=20.0)
    oracle = SceneOracle(ann, radius=20.0)
    assert set(db.instances) == set(oracle.instances)
    for frame_id, frame in db.frames.items():
        assert list(frame.instance_info_ids) == oracle.frames[frame_id]["instance_info_ids"]


def test_lookups_return_rows_and_name_missing_ids(small_annotations):
    db = build_database(small_annotations)
    frame_id, info_id = next(iter(db.frames)), next(iter(db.instances))
    assert db.frame(frame_id) is db.frames[frame_id]
    assert db.instance(info_id) is db.instances[info_id]
    with pytest.raises(RecordNotFound, match="^no instance record with id 'missing'$"):
        db.instance("missing")
    frame_lookups = (
        db.frame,
        db.instances_in_frame,
        db.ego_in_frame,
        lambda frame_id: db.instance_at_frame("any", frame_id),
        db.scene_of_frame,
    )
    for lookup in frame_lookups:
        with pytest.raises(RecordNotFound, match="^no frame record with id 'missing'$") as err:
            lookup("missing")
        assert (err.value.table, err.value.record_id) == ("frame", "missing")


def test_instance_at_frame_matches_linear_scan():
    ann = random_corpus(8, seed=9)
    db = build_database(ann)
    oracle = SceneOracle(ann)
    rng = random.Random(0)
    instance_ids = sorted({i.instance_id for i in db.instances.values()})
    for frame_id in db.frames:
        for instance_id in rng.sample(instance_ids, min(5, len(instance_ids))):
            got = db.instance_at_frame(instance_id, frame_id)
            want = oracle.find(instance_id, frame_id)
            if want is None:
                assert got is None
            else:
                assert got is not None and got.info_id == want["info_id"]
    with pytest.raises(RecordNotFound):
        db.instance_at_frame(instance_ids[0], "no_such_frame")


def test_schema_violation_names_record_and_field(small_annotations):
    bad = copy.deepcopy(small_annotations)
    del bad["frames"][2]["timestamp"]
    with pytest.raises(AnnotationSchemaError) as err:
        build_database(bad)
    assert "frames[id=s0_f002].timestamp" in str(err.value)

    bad = copy.deepcopy(small_annotations)
    bad["instances"][0]["velocity"] = "fast"
    with pytest.raises(AnnotationSchemaError) as err:
        build_database(bad)
    assert "velocity" in str(err.value) and "instances[id=" in str(err.value)


def test_dangling_reference_rejected(small_annotations):
    bad = copy.deepcopy(small_annotations)
    bad["frames"][0]["instance_info_ids"].append("ghost")
    with pytest.raises(AnnotationSchemaError) as err:
        build_database(bad)
    assert "ghost" in str(err.value)

    bad = copy.deepcopy(small_annotations)
    bad["scenes"][0]["frame_ids"].append("ghost_frame")
    with pytest.raises(AnnotationSchemaError):
        build_database(bad)


def test_orphan_rows_rejected(small_annotations):
    bad = copy.deepcopy(small_annotations)
    extra = copy.deepcopy(bad["ego"][0])
    extra["info_id"] = "orphan_ego"
    bad["ego"].append(extra)
    with pytest.raises(AnnotationSchemaError):
        build_database(bad)


def test_non_unit_quaternion_rejected(small_annotations):
    bad = copy.deepcopy(small_annotations)
    bad["instances"][0]["global_r"] = [1.01, 0.0, 0.0, 0.0]
    with pytest.raises(AnnotationSchemaError) as err:
        build_database(bad)
    assert "global_r" in str(err.value)
    # Drift at exactly 1e-3 must still be accepted.
    ok = copy.deepcopy(small_annotations)
    ok["instances"][0]["global_r"] = [1.0005, 0.0, 0.0, 0.0]
    build_database(ok)


def test_quaternion_whose_norm_overflows_is_refused(small_annotations):
    bad = copy.deepcopy(small_annotations)
    bad["instances"][0]["global_r"] = [1e200, 0.0, 0.0, 0.0]
    with pytest.raises(AnnotationSchemaError) as err:
        build_database(bad)
    assert err.value.path == f"instances[id={bad['instances'][0]['info_id']}].global_r"
    assert "quaternion norm inf" in str(err.value)


def test_duplicate_ids_rejected(small_annotations):
    bad = copy.deepcopy(small_annotations)
    bad["frames"].append(copy.deepcopy(bad["frames"][0]))
    with pytest.raises(AnnotationSchemaError) as err:
        build_database(bad)
    assert "duplicate" in str(err.value).lower()


def test_duplicate_instance_frame_pair_rejected(small_annotations):
    bad = copy.deepcopy(small_annotations)
    clone = copy.deepcopy(bad["instances"][0])
    clone["info_id"] = "dup_row"
    bad["instances"].append(clone)
    bad["frames"][0]["instance_info_ids"].append("dup_row")
    with pytest.raises(AnnotationSchemaError) as err:
        build_database(bad)
    assert bad["instances"][0]["instance_id"] in str(err.value)


def test_camera_pos_rejects_wildcard_view(small_annotations):
    bad = copy.deepcopy(small_annotations)
    box = next(iter(bad["instances"][0]["camera_pos"].values()))
    bad["instances"][0]["camera_pos"]["all"] = box
    with pytest.raises(AnnotationSchemaError) as err:
        build_database(bad)
    assert "all" in str(err.value)


def test_degenerate_bbox_rejected(small_annotations):
    bad = copy.deepcopy(small_annotations)
    view = next(iter(bad["instances"][0]["camera_pos"]))
    bad["instances"][0]["camera_pos"][view] = [100.0, 50.0, 100.0, 80.0]
    with pytest.raises(AnnotationSchemaError):
        build_database(bad)


def test_negative_radius_rejected(small_annotations):
    with pytest.raises(ValueError):
        build_database(small_annotations, important_radius=0.0)


@pytest.mark.parametrize("radius", [True, math.nan, math.inf, -math.inf, 10**400, "20"])
def test_radius_must_be_a_positive_finite_number(small_annotations, radius):
    with pytest.raises(ValueError, match="important_radius must be a positive finite number"):
        build_database(small_annotations, important_radius=radius)


@pytest.mark.parametrize("enabled", [True, False])
def test_loading_leaves_the_garbage_collector_as_it_found_it(small_annotations, tmp_path, enabled):
    path = tmp_path / "db.json"
    save_database(build_database(small_annotations), path)
    bad = copy.deepcopy(small_annotations)
    del bad["frames"][0]["timestamp"]
    if not enabled:
        gc.disable()
    try:
        load_database(path)
        with pytest.raises(AnnotationSchemaError):
            build_database(bad)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("refused", ["database", "jsonl line"])
def test_a_refused_read_leaves_the_garbage_collector_as_it_found_it(
    small_annotations, tmp_path, enabled, refused
):
    path = tmp_path / "bad"
    if refused == "database":
        bad = copy.deepcopy(small_annotations)
        bad["important_radius"] = 20.0
        del bad["frames"][0]["timestamp"]
        path.write_text(json.dumps(bad), encoding="utf-8")
        read, error = (lambda: load_database(path)), AnnotationSchemaError
    else:
        path.write_text('{"pair_id": "a"}\n{"pair_id": 7}\n', encoding="utf-8")
        read, error = (lambda: read_pairs_jsonl(path)), DriveSqlError
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(error):
            read()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_persistence_round_trip(tmp_path):
    ann = random_corpus(6, seed=3)
    db = build_database(ann, important_radius=17.5)
    path = tmp_path / "db.json"
    save_database(db, path)
    loaded = load_database(path)
    assert loaded.important_radius == db.important_radius
    assert loaded.scenes == db.scenes
    assert loaded.frames == db.frames
    assert loaded.ego == db.ego
    assert loaded.instances == db.instances
    assert loaded.instance_frame_index == db.instance_frame_index
    # Saving the reloaded database reproduces the bytes exactly.
    second = tmp_path / "db2.json"
    save_database(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_a_row_beyond_the_saved_radius_is_refused_by_its_id(lowered_radius_db):
    path, far = lowered_radius_db
    with pytest.raises(AnnotationSchemaError) as err:
        load_database(path)
    assert str(err.value) == (
        f"{path}: instances[id={far}].local_t: lies beyond the saved important_radius 5.0"
    )


def test_loading_builds_no_frame_record_again(tmp_path):
    """A saved database holds only rows within its radius, so a load keeps
    the frames, instances and index it parsed."""
    built = build_database(demo_corpus(2, seed=2))
    path = tmp_path / "db.json"
    save_database(built, path)

    def rebuilt(*args, **kwargs):
        raise AssertionError("a loaded frame was rebuilt")

    with mock.patch.object(FrameRecord, "_replace", rebuilt):
        loaded = load_database(path)
    assert loaded == built


def _views_shuffled():
    """A corpus whose rows hold their boxes' views in a random order."""
    ann = random_corpus(6, seed=3)
    rng = random.Random(5)
    for row in ann["instances"]:
        keys = list(row["camera_pos"])
        rng.shuffle(keys)
        row["camera_pos"] = {key: row["camera_pos"][key] for key in keys}
    assert any(len(row["camera_pos"]) > 1 for row in ann["instances"])
    return ann


def test_boxes_are_held_in_view_order(tmp_path):
    built, path = build_database(_views_shuffled()), tmp_path / "db.json"
    save_database(built, path)
    # A saved database holds each row's boxes with their keys sorted.
    for db in (built, load_database(path)):
        for info in db.instances.values():
            assert list(info.camera_pos) == [v for v in View if v in info.camera_pos]


def test_document_order_is_canonical():
    ann = random_corpus(4, seed=8)
    db = build_database(ann)
    doc = database_to_document(db)
    scene_ids = [s["scene_id"] for s in doc["scenes"]]
    assert scene_ids == sorted(scene_ids)
    frame_ids = [f["frame_id"] for f in doc["frames"]]
    assert frame_ids == sorted(frame_ids)


def test_are_consecutive(demo_db):
    scene = next(iter(demo_db.scenes.values()))
    ids = scene.frame_ids
    assert demo_db.are_consecutive(*ids[:3])
    if len(ids) >= 4:
        assert not demo_db.are_consecutive(ids[0], ids[1], ids[3])
    assert not demo_db.are_consecutive(ids[1], ids[0], ids[2])


def test_bbox_validation():
    with pytest.raises(ValueError):
        BBox2D(10, 10, 5, 20)
    box = BBox2D(0, 0, 10, 5)
    assert box.area() == 50
    assert box.as_list() == [0, 0, 10, 5]


def _counting(table, calls):
    """``table`` with a row check that records each row it reads, and the
    same record and column form."""

    def read_row(raw):
        calls.append(raw)
        return table.row(raw)

    read_row.record, read_row.column = table.row.record, table.row.column
    return table._replace(row=read_row)


def test_a_valid_table_reads_the_same_by_columns_and_by_rows():
    ann = _views_shuffled()
    for table in scene_db._TABLES:
        calls = []
        by_columns = scene_db._parse_table(ann[table.key], _counting(table, calls))
        assert calls == [], table.key
        with _row_loop_only():
            by_rows = scene_db._parse_table(ann[table.key], table)
        # The reprs show each record's type, each float's every digit and
        # each row's views in their order.
        assert repr(by_columns) == repr(by_rows), table.key


def test_a_value_off_the_shortcut_sends_only_its_block_to_the_row_loop(
    demo_annotations, demo_db
):
    """One int for a float in a kept instance row: read in blocks of three
    rows, only that row's block reaches the per-row check, and the database
    is the one the row loop alone builds."""
    ann = copy.deepcopy(demo_annotations)
    rows = ann["instances"]
    row = next(r for r in rows[len(rows) // 2 :] if r["info_id"] in demo_db.instances)
    row["velocity"] = int(row["velocity"])
    calls = []
    counted = tuple(_counting(table, calls) for table in scene_db._TABLES)
    with mock.patch.object(canonical, "_BLOCK_ROWS", 3):
        with mock.patch.object(scene_db, "_TABLES", counted):
            by_blocks = build_database(ann)
        with _row_loop_only():
            by_rows = build_database(ann)
    assert row in calls and len(calls) <= 3
    assert type(by_blocks.instances[row["info_id"]].velocity) is float
    assert repr(by_blocks) == repr(by_rows)


def test_every_database_record_refuses_assignment_and_deletion(demo_annotations, tmp_path):
    path = tmp_path / "db.json"
    save_database(build_database(demo_annotations), path)
    with _row_loop_only():
        by_rows = build_database(demo_annotations)
    for db in (build_database(demo_annotations), load_database(path), by_rows):
        info = next(iter(db.instances.values()))
        frame = db.frame(next(iter(db.frames)))
        records = (
            db.scene_of_frame(frame.frame_id),
            frame,
            db.ego_in_frame(frame.frame_id),
            info,
            next(iter(info.camera_pos.values())),
            info.local_t,
            info.global_r,
        )
        assert tuple(map(type, records)) == (
            SceneRecord, FrameRecord, EgoInfo, InstanceInfo, BBox2D, Vec3, Quaternion
        )
        for record in records:
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))
                with pytest.raises(AttributeError):
                    delattr(record, name)
            with pytest.raises(AttributeError):
                record.undeclared = 1


def test_view_enum_contract():
    assert [v.value for v in View] == [
        "front_left",
        "front",
        "front_right",
        "back_left",
        "back",
        "back_right",
        "all",
    ]
    assert View.FRONT_LEFT.phrase == "front left"


def _set_velocity_nan(row):
    row["velocity"] = math.nan
    return "velocity"


def _set_local_t_nan(row):
    row["local_t"][0] = math.nan
    return "local_t[0]"


def _clear_camera_pos(row):
    row["camera_pos"] = {}
    return "camera_pos"


@pytest.mark.parametrize("corrupt", [_set_velocity_nan, _set_local_t_nan, _clear_camera_pos])
def test_bad_instance_row_is_refused_with_its_path(small_annotations, corrupt, tmp_path, capsys):
    ann = copy.deepcopy(small_annotations)
    row = ann["instances"][0]
    field = corrupt(row)
    with pytest.raises(AnnotationSchemaError) as err:
        build_database(ann)
    assert err.value.path == f"instances[id={row['info_id']}].{field}"

    src = tmp_path / "annotations.json"
    src.write_text(json.dumps(ann), encoding="utf-8")
    assert run(["build-db", str(src), "-o", str(tmp_path / "db.json")]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "db.json").exists()


def test_canonical_dumps_refuses_non_finite_numbers():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            canonical_dumps({"x": value})


def test_canonical_dumps_writes_what_json_dumps_writes():
    doc = {"b": [1, 2.5, -0.0, 1e300, None, True], "a": {"\u00e9": "x\"\n\u2028", "": {}}, "c": []}
    for value in (doc, "\u00e9", 0.1, None, []):
        assert canonical_dumps(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )


def test_write_jsonl_that_fails_partway_leaves_the_old_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"a": 1}])
    with pytest.raises(ValueError):
        write_jsonl(path, ({"a": 2}, {"b": math.nan}, {"c": 3}))
    assert path.read_text(encoding="utf-8") == '{"a":1}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


# --------------------------------------------------------------------------
# Golden digests of the database format: the saved bytes of a fixed corpus,
# every loader message over a fixed corruption corpus, and the saved bytes
# of every corruption the loader accepts, ints in place of floats included.
# A change to any digest is a change of the format, of its messages or of
# the values it accepts.

SAVED_DATABASE_SHA256 = "70d998e1542c20a03aab9bd4be6aec595d36bf01182e40b171618407246ae749"
LOADER_MESSAGES_SHA256 = "234ae260e104a8f582d4ec11a15ed8fbc049ae77767e762611af5446fcb8cd6d"
ACCEPTED_DATABASES_SHA256 = "e04aa642387958459b359e56423fc257e5a13b9db6e13f4285d3db739ff99310"
# The saved document or the loader message of every ``_FLOAT_EDGES`` corruption.
FLOAT_EDGES_SHA256 = "2cb16ce9c57e56b7045b475d61783c194cdc1468fff137c8cb094b2cb05f2c2f"

# Values that break some check, or sit on its boundary, for a field of any type.
_BAD_VALUES = (
    None, True, False, 0, -1, 2.5, 10**400, math.nan, math.inf, -math.inf,
    "", "x", [], ["x"], [0.0] * 3, [1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 5,
    [10.0, 10.0, 5.0, 20.0], {}, {"k": 1}, {"": "v"}, {"front": [0.0, 0.0, 1.0, 1.0]},
    {"all": [0.0, 0.0, 1.0, 1.0]}, {"bogus": [0.0, 0.0, 1.0, 1.0]},
)


# Floats on the boundary of a float check's shortcut that ``_BAD_VALUES`` lacks.
_FLOAT_EDGES = (
    -1.5, -0.0, 1e308, [1e200, 0.0, 0.0, 0.0], [1.0, 2.0, 1.0, 2.0], [0.0, 0.0, 1.0005, 0.0],
    [0.0, 0.0, 1.0015, 0.0], [1.001, 0.0, 0.0, 0.0], [0.0, 0.999, 0.0, 0.0],
)


def _corruptions(doc, values=_BAD_VALUES):
    """Copies of ``doc`` each broken in one place: the whole document, each
    table, the first two rows of each table and every node below them, and
    one duplicated row per table."""
    yield from values
    for table in ("scenes", "frames", "ego", "instances"):
        paths = [(table,)]
        for i in (0, 1):
            paths += [(table, i), *_node_paths(doc[table][i], (table, i))]
        for path in paths:
            for value in values + (_REMOVE,):
                yield _mutated(doc, path, value)
        yield {**doc, table: doc[table] + doc[table][:1]}


def _two_scenes():
    return merge_scenes(
        [
            synth_scene(
                [_static_track(5, 0), _static_track(8, 2)], n_frames=3, seed=s, scene_id=f"s{s}"
            )
            for s in (0, 1)
        ]
    )


def _int_valued(doc):
    """Copies of ``doc`` with ints where the format has floats: a velocity,
    a timestamp, vec3s, a rotation and a box, whole or mixed with floats."""
    yield _mutated(doc, ("instances", 0, "velocity"), 3)
    yield _mutated(doc, ("ego", 0, "velocity"), 3)
    yield _mutated(doc, ("frames", 0, "timestamp"), 3)
    yield _mutated(doc, ("instances", 0, "global_t"), [3, -4, 0])
    yield _mutated(doc, ("instances", 1, "local_t"), [3, 4.5, 0])
    yield _mutated(doc, ("ego", 1, "pose"), [3, 0, 0])
    yield _mutated(doc, ("ego", 1, "rotation"), [1, 0, 0.0, 0])
    view = next(iter(doc["instances"][0]["camera_pos"]))
    yield _mutated(doc, ("instances", 0, "camera_pos", view), [3, 3, 300, 300.5])


def _loader_messages():
    for bad in _corruptions(_two_scenes()):
        try:
            build_database(bad)
        except AnnotationSchemaError as err:
            yield str(err)
        else:
            yield "accepted"


def test_saved_database_bytes_match_golden_digest(tmp_path):
    path = tmp_path / "db.json"
    save_database(build_database(demo_corpus(3, seed=2)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_DATABASE_SHA256


def test_loader_messages_match_golden_digest():
    messages = list(_loader_messages())
    joined = "\n".join(messages).encode("utf-8")
    assert len(messages) > 1000
    assert hashlib.sha256(joined).hexdigest() == LOADER_MESSAGES_SHA256


def test_accepted_values_match_golden_digest(tmp_path):
    doc = _two_scenes()
    path = tmp_path / "db.json"
    digest = hashlib.sha256()
    accepted = 0
    for bad in _corruptions(doc):
        try:
            db = build_database(bad)
        except AnnotationSchemaError:
            continue
        save_database(db, path)
        digest.update(path.read_bytes())
        accepted += 1
    for variant in _int_valued(doc):
        save_database(build_database(variant), path)
        digest.update(path.read_bytes())
    assert accepted > 100
    assert digest.hexdigest() == ACCEPTED_DATABASES_SHA256


def test_float_edges_match_golden_digest():
    built = [_built(bad) for bad in _corruptions(_two_scenes(), _FLOAT_EDGES)]
    joined = "\n".join(built).encode("utf-8")
    assert sum(not b.startswith("{") for b in built) > 1000
    assert hashlib.sha256(joined).hexdigest() == FLOAT_EDGES_SHA256


# --------------------------------------------------------------------------
# Golden digests of the line and request readers' messages: the refusal, or
# ``accepted``, of every ``_BAD_VALUES`` corruption of one pairs line per
# ground-truth kind, one predictions line with detections, and each synth
# request form. A change to a digest is a change of a reader's messages or
# of the values it accepts.

READER_MESSAGES_SHA256 = {
    "pairs": "3c30d8420962afc50afbf3ee4a9601b538763d47eb5106a332b61345b5e5ca68",
    "predictions": "dc6beb8c6ce4932648aba8b6a613185cfdc3066b8ad7a9084df9a350d443036f",
    "synth-sample": "a3be7b233814b63c90d65e325d22e7496bffc079706b70a3fd08a5774558d48e",
    "synth-scenes": "cf058a5878c8874108a286166db50206250c93c461f1d8c9a5b9b4e8e45b7b27",
}


def _every_corruption(doc):
    """Copies of ``doc`` with the whole value, or one node below it,
    replaced by a bad value or removed."""
    yield from _BAD_VALUES
    for path in _node_paths(doc):
        for value in _BAD_VALUES + (_REMOVE,):
            yield _mutated(doc, path, value)


class _Synthesized(Exception):
    """Raised in place of synthesizing a scene from an accepted request."""


def _synthesized(*args, **kwargs):
    raise _Synthesized


def _reader_docs(pairs, tmp_path):
    """Per form: its reader and the valid inputs whose corruptions it reads."""
    by_kind = {}
    for pair in pairs:
        if getattr(pair.ground_truth, "items", True):
            by_kind.setdefault(type(pair.ground_truth), pair)
    preds = tmp_path / "preds.jsonl"
    write_predictions_jsonl(predictions_from_pairs([by_kind[DetectionList]]), preds)
    return {
        "pairs": (read_pairs_jsonl, [pair_to_dict(p) for p in by_kind.values()]),
        "predictions": (read_predictions_jsonl, [json.loads(preds.read_text(encoding="utf-8"))]),
        "synth-sample": (_read_synth_request, [_SYNTH_SAMPLE]),
        "synth-scenes": (_read_synth_request, [_SYNTH_SCENES]),
    }


def _reader_messages(reader, docs):
    """The refusal, or ``accepted``, of each corruption of each of ``docs``
    read from ``line.json`` in the working directory. An accepted synth
    request stops before any scene is synthesized."""
    path = Path("line.json")
    messages = []
    with mock.patch.object(synth, "synth_scene", _synthesized), mock.patch.object(
        synth, "random_scene", _synthesized
    ):
        for doc in docs:
            for bad in _every_corruption(doc):
                path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
                try:
                    reader(path)
                    messages.append("accepted")
                except _Synthesized:
                    messages.append("accepted")
                except DriveSqlError as err:
                    messages.append(str(err))
    return messages


@pytest.mark.parametrize("form", list(READER_MESSAGES_SHA256))
def test_reader_messages_match_golden_digest(demo_pairs, tmp_path, monkeypatch, form):
    reader, docs = _reader_docs(demo_pairs, tmp_path)[form]
    # A relative path keeps the messages free of the temporary directory.
    monkeypatch.chdir(tmp_path)
    messages = _reader_messages(reader, docs)
    joined = "\n".join(messages).encode("utf-8")
    assert sum(m != "accepted" for m in messages) > 100
    assert hashlib.sha256(joined).hexdigest() == READER_MESSAGES_SHA256[form]
