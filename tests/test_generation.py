import hashlib
import math
import pickle
import random
from collections import Counter

import pytest

from drivesql import generation, task_sql
from drivesql.canonical import canonical_dumps
from drivesql.errors import IneligibleScene, TemplateError
from drivesql.generation import (
    EGO_MOVING_DISPLACEMENT,
    DetectionList,
    FreeText,
    GenerationConfig,
    GenerationDiagnostics,
    Label,
    Numeric,
    derive_scene_seed,
    format_grounding,
    generate_dataset,
    generate_pairs,
    pair_from_dict,
    pair_to_dict,
    read_pairs_jsonl,
    render_instruction,
    render_response,
    sample_window,
    _pair_id,
    _pairs_for_window,
    write_pairs_jsonl,
)
from drivesql.geometry import Vec3, planar_norm, relative_motion
from drivesql.scene_db import (
    BBox2D,
    SceneDatabase,
    SceneRecord,
    View,
    build_database,
    load_database,
    save_database,
)
from drivesql.synth import ScenarioScript, Waypoint, demo_corpus, random_corpus, synth_scene
from drivesql.task_sql import (
    RISK_SUBTASKS,
    RiskThresholds,
    Subtask,
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


# ----------------------------------------------------------------- sampling


def test_sample_window_three_frame_scene_is_forced():
    scene = SceneRecord(scene_id="s", frame_ids=("a", "b", "c"))
    for seed in range(5):
        assert sample_window(scene, random.Random(seed)) == ("a", "b", "c")


def test_sample_window_deterministic():
    scene = SceneRecord(scene_id="s", frame_ids=tuple(f"f{i}" for i in range(10)))
    assert sample_window(scene, random.Random(3)) == sample_window(scene, random.Random(3))


def test_sample_window_uniform():
    scene = SceneRecord(scene_id="s", frame_ids=tuple(f"f{i}" for i in range(10)))
    rng = random.Random(123)
    counts = Counter(sample_window(scene, rng) for _ in range(10_000))
    assert len(counts) == 8
    for window, count in counts.items():
        assert abs(count / 10_000 - 0.125) <= 0.02, window


def test_sample_window_too_short():
    scene = SceneRecord(scene_id="s", frame_ids=("a", "b"))
    with pytest.raises(IneligibleScene):
        sample_window(scene, random.Random(0))


def test_scene_seed_derivation_is_stable():
    assert derive_scene_seed(7, "scene_a") == derive_scene_seed(7, "scene_a")
    assert derive_scene_seed(7, "scene_a") != derive_scene_seed(8, "scene_a")
    assert derive_scene_seed(7, "scene_a") != derive_scene_seed(7, "scene_b")


# ---------------------------------------------------------------- templates


def test_distance_instruction_golden():
    grounding = format_grounding(View.FRONT, BBox2D(100, 200, 150, 260))
    text = render_instruction(Subtask.DISTANCE, {"grounding": grounding})
    assert text == (
        "What is the distance between <front, 100.0, 200.0, 150.0, 260.0> and "
        "the ego car? Please use the format as (x,y) where x and y are the "
        "forward and leftward offsets in meters."
    )


def test_planning_instruction_golden():
    assert (
        render_instruction(Subtask.PLANNING_WITH_REASONING, {})
        == "Please give the next plan for the ego car with reasons."
    )


def test_instruction_is_deterministic_and_validated():
    context = {"grounding": "<front, 1.0, 2.0, 3.0, 4.0>"}
    a = render_instruction(Subtask.SPEEDS, context)
    b = render_instruction(Subtask.SPEEDS, context)
    assert a == b
    with pytest.raises(TemplateError):
        render_instruction(Subtask.DISTANCE, {})


def _assert_same_truth(got, want):
    """Named tuples of different types compare equal on equal fields, so a
    ground truth's type is checked besides its value."""
    assert type(got) is type(want) and got == want, (got, want)


def test_distance_response_golden():
    text, truth = render_response(Subtask.DISTANCE, (3.0, 4.0, 5.0))
    assert text == "(3.0, 4.0)"
    _assert_same_truth(truth, Numeric((3.0, 4.0)))


def test_same_road_response_golden():
    for result, text, label in ((True, "Yes", "yes"), (False, "No", "no")):
        got_text, truth = render_response(Subtask.SAME_ROAD, result)
        assert got_text == text
        _assert_same_truth(truth, Label(label))


def test_numbers_render_one_decimal_untruncated_truth():
    text, truth = render_response(Subtask.MOTION_EGO, Vec3(1.23456, -0.98765, 0.0))
    assert text == "(1.2, -1.0)"
    _assert_same_truth(truth, Numeric((1.23456, -0.98765)))


def test_empty_risk_response_is_no():
    text, truth = render_response(Subtask.CROSSING, ())
    assert text == "No."
    _assert_same_truth(truth, DetectionList(()))


def test_status_ego_threshold_rule():
    text, truth = render_response(Subtask.STATUS_EGO, (0.0, Vec3(0.4, 0.0, 0.0)))
    _assert_same_truth(truth, Label("stationary"))
    text, truth = render_response(Subtask.STATUS_EGO, (0.0, Vec3(0.0, 0.6, 0.0)))
    _assert_same_truth(truth, Label("moving"))
    assert EGO_MOVING_DISPLACEMENT == 0.5


# ------------------------------------------------------------- full dataset


def _forced_window_corpus():
    """Scenes with exactly three frames so the sampled window is forced."""
    docs = []
    rng = random.Random(5)
    from drivesql.synth import random_scene

    for k in range(8):
        docs.append(random_scene(rng.randrange(1 << 30), scene_id=f"fixed_{k:02d}", n_frames=3))
    from drivesql.synth import merge_scenes

    return merge_scenes(docs)


def test_pair_count_matches_analytic_formula():
    ann = _forced_window_corpus()
    db = build_database(ann)
    oracle = SceneOracle(ann)
    cap = 3
    config = GenerationConfig(master_seed=1, windows_per_scene=1, max_instances_per_subtask=cap)
    pairs, diag = generate_pairs(db, config)

    expected = 0
    for scene_id in sorted(db.scenes):
        f_prev, f_i, f_next = db.scenes[scene_id].frame_ids
        n_here = len(oracle.frames[f_i]["instance_info_ids"])
        shared = len(oracle.motion_others(f_i, f_next))
        expected += 4 * min(cap, n_here)
        expected += len(oracle.closest(f_i))
        expected += sum(len(cats) for cats in oracle.counts(f_i).values())
        expected += 2  # motion_ego + status_ego
        expected += 2 * min(cap, shared)
        expected += len(RISK_SUBTASKS) + 1
    assert len(pairs) == expected
    assert diag.windows_unique == len(db.scenes)


def test_only_distance_two_instances_two_pairs():
    ann = synth_scene(
        [
            ScenarioScript(kind=None, waypoints=tuple(Waypoint(t, Vec3(5, 1, 0)) for t in (0, 0.5, 1.0))),
            ScenarioScript(kind=None, waypoints=tuple(Waypoint(t, Vec3(8, -2, 0)) for t in (0, 0.5, 1.0))),
        ],
        n_frames=3,
        seed=1,
        scene_id="duo",
    )
    db = build_database(ann)
    config = GenerationConfig(enabled_subtasks=frozenset({Subtask.DISTANCE}))
    pairs, _ = generate_pairs(db, config)
    assert len(pairs) == 2
    assert {p.subtask for p in pairs} == {Subtask.DISTANCE}


def test_identical_seed_byte_identical_output(tmp_path, demo_db):
    config = GenerationConfig(master_seed=11, windows_per_scene=2)
    first, _ = generate_dataset(demo_db, config)
    second, _ = generate_dataset(demo_db, config)
    assert first == second
    a = tmp_path / "a.jsonl"
    write_pairs_jsonl(generate_pairs(demo_db, config)[0], a)
    assert a.read_text(encoding="utf-8") == "".join(first)
    third, _ = generate_dataset(demo_db, GenerationConfig(master_seed=12, windows_per_scene=2))
    assert "".join(first) != "".join(third)


def test_parallel_jobs_equal_serial(demo_db):
    config = GenerationConfig(master_seed=4, windows_per_scene=2)
    serial, serial_diag = generate_dataset(demo_db, config, jobs=1)
    parallel, parallel_diag = generate_dataset(demo_db, config, jobs=4)
    assert serial == parallel
    assert serial_diag.as_dict() == parallel_diag.as_dict()


def test_pool_pickles_the_database_at_most_once_per_worker(demo_db, monkeypatch):
    config = GenerationConfig(master_seed=4, windows_per_scene=2)
    serial, _ = generate_dataset(demo_db, config, jobs=1)
    pickles = []
    original = SceneDatabase.__reduce_ex__

    def counted(self, protocol):
        pickles.append(protocol)
        return original(self, protocol)

    monkeypatch.setattr(SceneDatabase, "__reduce_ex__", counted)
    pooled, _ = generate_dataset(demo_db, config, jobs=2)
    assert len(demo_db.scenes) > 2
    assert len(pickles) <= 2
    assert pooled == serial


def test_what_a_spawned_worker_receives_comes_back_equal_through_pickle(tmp_path, demo_db):
    """A spawned worker receives the database and the config pickled, and
    sends back each scene's text and diagnostics, never a pair record."""
    config = GenerationConfig(
        master_seed=9,
        windows_per_scene=4,
        max_instances_per_subtask=2,
        thresholds=RiskThresholds(dis=15.0, s=0.25),
        enabled_subtasks=frozenset(RISK_SUBTASKS),
    )
    save_database(demo_db, tmp_path / "scene.db.json")
    db = load_database(tmp_path / "scene.db.json")
    scene_id = min(db.scenes)
    sent = generation._scene_text(db, scene_id, config)
    sent[1].pair_failures, sent[1].failure_messages = 1, [f"{scene_id}/(...): boom"]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(config, protocol))
        assert type(back) is GenerationConfig and back == config
        assert type(back.thresholds) is RiskThresholds
        text, diag = pickle.loads(pickle.dumps(sent, protocol))
        assert text == sent[0] and diag.as_dict() == sent[1].as_dict()
    back = pickle.loads(pickle.dumps(db))
    assert type(back) is SceneDatabase and back == db == demo_db


def test_jobs_below_one_rejected(demo_db):
    with pytest.raises(ValueError, match="jobs"):
        generate_dataset(demo_db, GenerationConfig(), jobs=0)


EMISSION_ORDER = (
    Subtask.DISTANCE,
    Subtask.SPEEDS,
    Subtask.STATUS,
    Subtask.SAME_ROAD,
    Subtask.CLOSEST,
    Subtask.INSTANCE_NUMBER,
    Subtask.MOTION_EGO,
    Subtask.MOTION_OTHERS,
    Subtask.STATUS_EGO,
    Subtask.STATUS_OTHERS,
    *RISK_SUBTASKS,
    Subtask.PLANNING_WITH_REASONING,
)


def test_output_ordering(demo_pairs):
    scene_order = [p.scene_id for p in demo_pairs]
    assert scene_order == sorted(scene_order)
    for scene_id in set(scene_order):
        scoped = [p for p in demo_pairs if p.scene_id == scene_id]
        window_order = []
        for pair in scoped:
            if pair.frame_ids not in window_order:
                window_order.append(pair.frame_ids)
        for window in window_order:
            in_window = [p.subtask for p in scoped if p.frame_ids == window]
            indices = [EMISSION_ORDER.index(s) for s in in_window]
            assert indices == sorted(indices)


def test_pair_ids_unique_and_hex(demo_pairs):
    ids = [p.pair_id for p in demo_pairs]
    assert len(ids) == len(set(ids))
    for pid in ids:
        assert len(pid) == 16
        int(pid, 16)


def test_pairs_reference_consecutive_frames(demo_db, demo_pairs):
    for pair in demo_pairs:
        assert len(pair.frame_ids) == 3
        assert demo_db.are_consecutive(*pair.frame_ids)
        assert pair.views_used
        assert pair.task == pair.subtask.task.value


def test_enabled_subtasks_filter(demo_db):
    enabled = frozenset({Subtask.BRAKING, Subtask.MOTION_EGO})
    pairs, _ = generate_pairs(demo_db, GenerationConfig(enabled_subtasks=enabled))
    assert pairs
    assert {p.subtask for p in pairs} <= enabled


def test_per_instance_cap_nearest_first(demo_db):
    config = GenerationConfig(master_seed=2, max_instances_per_subtask=1)
    pairs, _ = generate_pairs(demo_db, config)
    for pair in pairs:
        if pair.subtask is not Subtask.DISTANCE:
            continue
        frame_id = pair.frame_ids[1]
        rows = demo_db.instances_in_frame(frame_id)
        nearest = min(rows, key=lambda r: (planar_norm(r.local_t), r.info_id))
        # The single emitted distance pair must describe the nearest instance.
        x, y = pair.ground_truth.values
        assert (x, y) == (nearest.local_t.x, nearest.local_t.y)


def _pair_instance(db, pair):
    """The current-frame row whose info id a grounded pair's id was hashed from."""
    rows = [
        info
        for info in db.instances_in_frame(pair.frame_ids[1])
        if _pair_id(pair.scene_id, pair.frame_ids, pair.subtask, info.info_id) == pair.pair_id
    ]
    assert len(rows) == 1
    return rows[0]


def _expected_truth(db, pair, thresholds):
    subtask = pair.subtask
    f_prev, f_i, f_next = pair.frame_ids
    if subtask is Subtask.DISTANCE:
        x, y, _ = distance(db, _pair_instance(db, pair).info_id)
        return Numeric((x, y))
    if subtask is Subtask.MOTION_EGO:
        vec = motion_ego(db, f_i, f_next)
        return Numeric((vec.x, vec.y))
    if subtask is Subtask.MOTION_OTHERS:
        vec = motion_others(db, f_i, f_next)[_pair_instance(db, pair).info_id]
        return Numeric((vec.x, vec.y))
    if subtask is Subtask.STATUS_EGO:
        _, vec = status_ego(db, f_i, f_next)
        label = "moving" if planar_norm(vec) > EGO_MOVING_DISPLACEMENT else "stationary"
        return Label(label)
    if subtask is Subtask.STATUS_OTHERS:
        # The label is the next appearance's attribute, which exists exactly
        # when status_others reports the instance.
        info = _pair_instance(db, pair)
        deltas, motions = status_others(db, f_i, f_next)
        assert info.info_id in deltas and info.info_id in motions
        return Label(db.instance_at_frame(info.instance_id, f_next).attribute)
    if subtask in RISK_SUBTASKS:
        hits = detect_risk(db, subtask, f_prev, f_i, f_next, thresholds)
        return {info.instance_id for info in hits}
    if subtask is Subtask.PLANNING_WITH_REASONING:
        return FreeText(pair.response)
    return None


def test_ground_truth_fidelity(demo_db, demo_pairs):
    """Re-running the matching retrieval op reproduces each ground truth."""
    thresholds = RiskThresholds()
    checked = Counter()
    for pair in demo_pairs:
        want = _expected_truth(demo_db, pair, thresholds)
        if want is None:
            continue
        if isinstance(want, set):
            got = {d.instance_id for d in pair.ground_truth.items}
            assert got == want
        else:
            _assert_same_truth(pair.ground_truth, want)
        checked[pair.subtask] += 1
    assert sum(checked.values()) > 50
    for subtask in (Subtask.DISTANCE, Subtask.MOTION_OTHERS, Subtask.STATUS_OTHERS):
        assert checked[subtask] > 10


def test_risk_pairs_carry_thresholds(demo_pairs):
    for pair in demo_pairs:
        needs = pair.subtask in RISK_SUBTASKS or pair.subtask is Subtask.PLANNING_WITH_REASONING
        assert (pair.thresholds_used is not None) == needs


def test_planning_text_structure(demo_pairs):
    for pair in demo_pairs:
        if pair.subtask is not Subtask.PLANNING_WITH_REASONING:
            continue
        text = pair.response
        assert text.startswith("There are ")
        assert " Hence the ego car should be " in text
        assert text.endswith((" move to the front.", " move to the left.", " move to the right."))
        assert isinstance(pair.ground_truth, FreeText)
        assert pair.ground_truth.text == text


def test_serialization_round_trip(tmp_path, demo_pairs):
    path = tmp_path / "pairs.jsonl"
    write_pairs_jsonl(demo_pairs, path)
    loaded = read_pairs_jsonl(path)
    assert loaded == list(demo_pairs)
    for got, want in zip(loaded, demo_pairs):
        _assert_same_truth(got.ground_truth, want.ground_truth)
        assert type(got.thresholds_used) is type(want.thresholds_used)
    for pair in demo_pairs[:20]:
        doc = pair_to_dict(pair)
        assert pair_from_dict(doc) == pair
        line = canonical_dumps(doc)
        assert '"pair_id"' in line


def test_jsonl_keys_sorted(tmp_path, demo_pairs):
    path = tmp_path / "pairs.jsonl"
    write_pairs_jsonl(demo_pairs[:5], path)
    import json

    for line in path.read_text().splitlines():
        doc = json.loads(line)
        assert list(doc) == sorted(doc)


def test_windows_deduped(demo_db):
    config = GenerationConfig(master_seed=0, windows_per_scene=50)
    pairs, diag = generate_pairs(demo_db, config)
    assert diag.windows_sampled >= diag.windows_unique
    for scene_id in demo_db.scenes:
        n_possible = len(demo_db.scenes[scene_id].frame_ids) - 2
        windows = {p.frame_ids for p in pairs if p.scene_id == scene_id}
        assert len(windows) <= n_possible
    ids = [p.pair_id for p in pairs]
    assert len(ids) == len(set(ids))


def test_grounding_format():
    text = format_grounding(View.BACK_LEFT, BBox2D(0.25, 1.0, 10.75, 20.5))
    assert text == "<back left, 0.2, 1.0, 10.8, 20.5>"


# Measured before the per-window facts moved into one window context; any
# drift in the generated bytes or the skip count shows here.
GOLDEN_DEMO_SHA256 = "92da29c33b3f143544dd65e16f38de9b5d87e208e5cdd7a041aa113a8e434782"


def test_demo_output_matches_golden_digest(demo_db):
    config = GenerationConfig(master_seed=3, windows_per_scene=2)
    texts, diag = generate_dataset(demo_db, config)
    text = "".join(texts)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_DEMO_SHA256
    assert diag.skipped_instances == 13
    pairs, pairs_diag = generate_pairs(demo_db, config)
    assert "".join(canonical_dumps(pair_to_dict(p)) + "\n" for p in pairs) == text
    assert len(pairs) == text.count("\n") == 512
    assert pairs_diag.as_dict() == diag.as_dict()


def test_each_window_computes_each_motion_once(demo_db, monkeypatch):
    calls = []
    counted = lambda *args: calls.append(args) or relative_motion(*args)  # noqa: E731
    monkeypatch.setattr(task_sql, "relative_motion", counted)
    # Per enabled set: its last subtask and the most motions a window computes
    # for ``n`` current rows. The ego move alone sweeps no row.
    for enabled, last, most in (
        (frozenset(Subtask), Subtask.PLANNING_WITH_REASONING, lambda n: 2 * n + 1),
        (frozenset({Subtask.MOTION_EGO}), Subtask.MOTION_EGO, lambda n: 1),
    ):
        config = GenerationConfig(enabled_subtasks=enabled)
        for scene in demo_db.scenes.values():
            for start in range(len(scene.frame_ids) - 2):
                window = tuple(scene.frame_ids[start : start + 3])
                calls.clear()
                diag = GenerationDiagnostics()
                pairs = _pairs_for_window(demo_db, scene.scene_id, window, config, diag)
                assert pairs[-1].subtask is last
                assert len(calls) <= most(len(demo_db.instances_in_frame(window[1])))


def test_each_window_reads_and_ranks_its_current_frame_once(demo_db, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    monkeypatch.setattr(
        SceneDatabase,
        "instances_in_frame",
        counted("read", SceneDatabase.instances_in_frame),
    )
    ranked = counted("rank", task_sql.nearest_first)
    monkeypatch.setattr(task_sql, "nearest_first", ranked)
    monkeypatch.setattr(generation, "nearest_first", ranked)
    for scene in demo_db.scenes.values():
        for start in range(len(scene.frame_ids) - 2):
            window = tuple(scene.frame_ids[start : start + 3])
            calls.clear()
            _pairs_for_window(
                demo_db, scene.scene_id, window, GenerationConfig(), GenerationDiagnostics()
            )
            assert calls == {"read": 1, "rank": 1}, window


def test_a_window_checks_a_frame_only_for_an_appearance_it_misses(demo_db, monkeypatch):
    calls = Counter()
    frame, instance_at_frame = SceneDatabase.frame, SceneDatabase.instance_at_frame

    def counted_frame(self, frame_id):
        calls["frame"] += 1
        return frame(self, frame_id)

    def counted_lookup(self, instance_id, frame_id):
        before = calls["frame"]
        row = instance_at_frame(self, instance_id, frame_id)
        calls["lookup"] += 1
        calls["miss"] += row is None
        calls["frame in lookup"] += calls["frame"] - before
        return row

    monkeypatch.setattr(SceneDatabase, "frame", counted_frame)
    monkeypatch.setattr(SceneDatabase, "instance_at_frame", counted_lookup)
    config = GenerationConfig()
    totals = Counter()
    for scene in demo_db.scenes.values():
        for start in range(len(scene.frame_ids) - 2):
            window = tuple(scene.frame_ids[start : start + 3])
            calls.clear()
            _pairs_for_window(demo_db, scene.scene_id, window, config, GenerationDiagnostics())
            # An index hit shows the frame exists; only a miss checks it.
            assert calls["frame in lookup"] == calls["miss"], window
            # The rest: the window check (three frames and their scene), the
            # current rows, two ego rows each for the ego move and the risk
            # sweep, and the ego row of each same-road pair.
            assert calls["frame"] - calls["miss"] <= 9 + config.max_instances_per_subtask, window
            totals.update(calls)
    assert totals["lookup"] > totals["miss"] > 0  # both a hit and a miss were counted
