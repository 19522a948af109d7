import gc
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from _reviewer import mock_reviewer
from drivesql import generation
from drivesql.cli import run
from drivesql.evaluation import (
    predictions_from_pairs,
    read_predictions_jsonl,
    write_predictions_jsonl,
)
from drivesql.generation import DetectionList, pair_to_dict, read_pairs_jsonl, write_pairs_jsonl
from drivesql.geometry import Vec3
from drivesql.scene_db import build_database, save_database
from drivesql.stats import compute_stats, view_percent_csv
from drivesql.synth import synth_scene
from drivesql.canonical import canonical_dumps


def _sample_request(n_random=4, seed=9):
    return {"sample": {"n_random": n_random, "seed": seed, "include_curated": True}}


@pytest.fixture()
def pipeline(tmp_path):
    """Annotations, database, and pairs produced through the CLI itself."""
    scripts = tmp_path / "scripts.json"
    scripts.write_text(json.dumps(_sample_request()), encoding="utf-8")
    ann = tmp_path / "annotations.json"
    db = tmp_path / "scene.db.json"
    pairs = tmp_path / "pairs.jsonl"
    assert run(["synth", str(scripts), "-o", str(ann)]) == 0
    assert run(["build-db", str(ann), "-o", str(db)]) == 0
    assert run(["generate", str(db), "-o", str(pairs), "--seed", "3", "--jobs", "1"]) == 0
    return tmp_path, ann, db, pairs


def test_full_pipeline_exit_codes(pipeline, capsys):
    tmp_path, ann, db, pairs = pipeline
    kept = tmp_path / "kept.jsonl"
    assert run(["verify", str(pairs), "-o", str(kept), "--db", str(db)]) == 0
    report = json.loads((tmp_path / "kept.jsonl.report.json").read_text())
    assert report["rejected"] == [] and report["kept"] > 0

    splits = tmp_path / "splits"
    assert run(["split", str(kept), "-o", str(splits)]) == 0
    for name in ("train", "val", "test"):
        assert (splits / f"{name}.jsonl").exists()

    stats_out = tmp_path / "stats.json"
    assert run(["stats", str(kept), str(db), "-o", str(stats_out)]) == 0
    assert (tmp_path / "stats.json.views.csv").exists()
    stats = json.loads(stats_out.read_text())
    assert stats["pairs_total"] == report["kept"]

    preds = tmp_path / "preds.jsonl"
    write_predictions_jsonl(predictions_from_pairs(read_pairs_jsonl(kept)), preds)
    eval_out = tmp_path / "eval.json"
    assert run(["eval", str(kept), str(preds), "-o", str(eval_out)]) == 0
    captured = capsys.readouterr()
    assert "risk_map: 1.0000" in captured.out
    groups = json.loads(eval_out.read_text())["groups"]
    assert groups["reasoning_bleu"] == 1.0


def test_a_stage_freezes_what_it_loaded_and_hands_it_back(pipeline, monkeypatch):
    """The load phase moves what it read out of the collector's sight; the
    run unfreezes it on return, so an in-process caller gets its heap back."""
    from drivesql import cli

    tmp_path, _, db, pairs = pipeline
    frozen = []

    def counted_stats(*args):
        frozen.append((gc.isenabled(), gc.get_freeze_count()))
        return compute_stats(*args)

    monkeypatch.setattr(cli, "compute_stats", counted_stats, raising=False)
    assert run(["stats", str(pairs), str(db), "-o", str(tmp_path / "stats.json")]) == 0
    [(enabled, count)] = frozen
    assert enabled and count > 0
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_generate_is_deterministic(pipeline):
    tmp_path, _, db, pairs = pipeline
    again = tmp_path / "again.jsonl"
    assert run(["generate", str(db), "-o", str(again), "--seed", "3", "--jobs", "4"]) == 0
    assert hashlib.sha256(pairs.read_bytes()).hexdigest() == hashlib.sha256(
        again.read_bytes()
    ).hexdigest()


def _broken_at_a_window(db, config, scene_index, **row_fields):
    """``db`` with ``row_fields`` set on every row of the current frame of
    the first window that ``config`` samples in the scene at
    ``scene_index``. Only that window has that frame as its current one."""
    scene_id = sorted(db.scenes)[scene_index]
    pairs, _ = generation.generate_pairs(db, config)
    current = next(p.frame_ids[1] for p in pairs if p.scene_id == scene_id)
    rows = db.frames[current].instance_info_ids
    instances = {**db.instances, **{i: db.instances[i]._replace(**row_fields) for i in rows}}
    return db._replace(instances=instances), scene_id


def test_a_failed_window_is_warned_and_written_alike_by_every_job_count(
    pipeline, monkeypatch, capsys
):
    """One window raises. The broken database is built here and handed to
    the CLI through a patched ``load_database``. The pool's workers inherit
    it under ``fork`` and receive it pickled under ``spawn`` (macOS), so the
    window fails in a worker under either start method; a patched function
    would not reach a spawned worker."""
    from drivesql import cli

    tmp_path, _, db_path, _ = pipeline
    config = generation.GenerationConfig(master_seed=3, windows_per_scene=2)
    # Scene 1 goes to a worker at --jobs 2 and 3, not to this process.
    broken, scene_id = _broken_at_a_window(
        cli.load_database(db_path), config, 1, camera_pos=None
    )
    serial, serial_diag = generation.generate_dataset(broken, config, jobs=1)
    pooled, pooled_diag = generation.generate_dataset(broken, config, jobs=2)
    assert pooled == serial
    assert pooled_diag.as_dict() == serial_diag.as_dict()
    assert serial_diag.pair_failures == 1
    [message] = serial_diag.failure_messages
    assert message.startswith(f"{scene_id}/(") and "'NoneType'" in message

    monkeypatch.setattr(cli, "load_database", lambda path: broken)
    outputs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}.jsonl"
        assert run(["generate", str(db_path), "-o", str(out), "--seed", "3", "--windows", "2",
                    "--jobs", jobs]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr()))
    assert outputs[0][0] == "".join(serial).encode("utf-8")
    warning = (
        f"warning: 1 of {serial_diag.windows_unique} windows failed; first: {message}\n"
    )
    for data, captured in outputs:
        assert data == outputs[0][0]
        assert captured.err == warning
        assert f"({serial_diag.windows_unique} windows)" in captured.out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_scene_that_cannot_be_encoded_fails_the_run_in_any_process(
    pipeline, monkeypatch, capsys, jobs
):
    """A non-finite value is no pairs line: the process that encodes the
    scene raises, a worker's exception is raised again by the parent, and
    nothing is written."""
    from drivesql import cli

    tmp_path, _, db_path, _ = pipeline
    config = generation.GenerationConfig(master_seed=3)
    nan = float("nan")
    broken, _ = _broken_at_a_window(
        cli.load_database(db_path), config, 1, local_t=Vec3(nan, nan, 0.0)
    )
    monkeypatch.setattr(cli, "load_database", lambda path: broken)
    out = tmp_path / "nan.jsonl"
    assert run(["generate", str(db_path), "-o", str(out), "--seed", "3", "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err == "error: Out of range float values are not JSON compliant\n"
    assert not out.exists()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a patch made in this process reaches a worker only under fork",
)
def test_a_worker_that_dies_without_sending_is_an_error(pipeline, monkeypatch, capsys):
    tmp_path, _, db_path, _ = pipeline
    parent, scene_text = os.getpid(), generation._scene_text

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return scene_text(*args)

    monkeypatch.setattr(generation, "_scene_text", dying)
    out = tmp_path / "died.jsonl"
    assert run(["generate", str(db_path), "-o", str(out), "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "i/o error: generation worker exited with code 3 before sending its scenes\n"
    assert not out.exists()


@pytest.mark.parametrize("subtask", list(generation.Subtask), ids=lambda s: s.value)
def test_generate_writes_the_lines_of_the_record_path_for_every_subtask(
    tmp_path, demo_db, subtask
):
    db_path, out, expected = tmp_path / "db.json", tmp_path / "cli.jsonl", tmp_path / "rec.jsonl"
    save_database(demo_db, db_path)
    argv = ["generate", str(db_path), "-o", str(out), "--seed", "5", "--windows", "2"]
    assert run([*argv, "--subtasks", subtask.value, "--jobs", "2"]) == 0
    config = generation.GenerationConfig(
        master_seed=5, windows_per_scene=2, enabled_subtasks=frozenset({subtask})
    )
    pairs, _ = generation.generate_pairs(demo_db, config)
    assert pairs
    write_pairs_jsonl(pairs, expected)
    assert out.read_bytes() == expected.read_bytes()


def test_split_sizes_on_large_synthetic_corpus(tmp_path, demo_pairs):
    template = pair_to_dict(demo_pairs[0])
    lines = []
    for i in range(850):
        doc = dict(template)
        doc["scene_id"] = f"scene_{i:04d}"
        doc["pair_id"] = f"{i:016x}"
        lines.append(canonical_dumps(doc))
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "splits"
    assert run(["split", str(pairs), "-o", str(out)]) == 0
    sizes = {}
    for name in ("train", "val", "test"):
        scenes = {p.scene_id for p in read_pairs_jsonl(out / f"{name}.jsonl")}
        sizes[name] = len(scenes)
    assert sizes == {"train": 607, "val": 122, "test": 121}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "split"


def test_manifest_contents(pipeline):
    tmp_path, ann, db, pairs = pipeline
    manifest = json.loads((tmp_path / "pairs.jsonl.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["tool_version"] == "0.1.0"
    assert manifest["output_paths"] == [str(pairs)]
    digest = hashlib.sha256(db.read_bytes()).hexdigest()
    assert manifest["input_digests"] == {str(db): digest}
    assert manifest["wall_time_s"] >= 0
    assert len(manifest["config_digest"]) == 64
    assert "reviewer" not in manifest

    kept = tmp_path / "kept.jsonl"
    stats = tmp_path / "stats.json"
    splits = tmp_path / "splits"
    preds = tmp_path / "preds.jsonl"
    scores = tmp_path / "eval.json"
    assert run(["verify", str(pairs), "-o", str(kept), "--db", str(db)]) == 0
    assert run(["stats", str(kept), str(db), "-o", str(stats)]) == 0
    assert run(["split", str(kept), "-o", str(splits)]) == 0
    write_predictions_jsonl(predictions_from_pairs(read_pairs_jsonl(kept)), preds)
    assert run(["eval", str(kept), str(preds), "-o", str(scores)]) == 0
    phases = {
        ann: ["synth", "write"],
        db: ["load", "write"],
        pairs: ["generate", "load", "write"],
        kept: ["load", "verify", "write"],
        splits: ["load", "split", "write"],
        stats: ["load", "stats", "write"],
        scores: ["eval", "load", "write"],
    }
    for output, names in phases.items():
        path = output / "manifest.json" if output.is_dir() else Path(f"{output}.manifest.json")
        manifest = json.loads(path.read_text())
        assert "reviewer" not in manifest
        timings = manifest["timings"]
        assert sorted(timings) == names
        assert all(math.isfinite(s) and s >= 0 for s in timings.values())


def test_environment_does_not_configure_a_run(pipeline, monkeypatch):
    tmp_path, _, _, pairs = pipeline
    assert run(["split", str(pairs), "-o", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("DRIVESQL_SEED", "3")
    monkeypatch.setenv("DRIVESQL_RATIOS", "1,0,0")
    assert run(["split", str(pairs), "-o", str(tmp_path / "env")]) == 0
    for name in ("train", "val", "test"):
        plain = (tmp_path / "plain" / f"{name}.jsonl").read_bytes()
        assert (tmp_path / "env" / f"{name}.jsonl").read_bytes() == plain


def test_thresholds_file_controls_generation(pipeline, capsys):
    tmp_path, _, db, _ = pipeline
    thresholds = tmp_path / "thresholds.txt"
    thresholds.write_text("dis=20\ndis_x=3\ndis_y=3 # lateral gate\ns=0.5\n", encoding="utf-8")
    out = tmp_path / "gated.jsonl"
    assert run(["generate", str(db), "-o", str(out), "--thresholds", str(thresholds)]) == 0
    manifest = json.loads((tmp_path / "gated.jsonl.manifest.json").read_text())
    assert str(thresholds) in manifest["input_digests"]

    bad = tmp_path / "bad.txt"
    bad.write_text("radius=9\n", encoding="utf-8")
    assert run(["generate", str(db), "-o", str(out), "--thresholds", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "unknown threshold" in captured.err


def test_subtask_filter_and_validation(pipeline, capsys):
    tmp_path, _, db, _ = pipeline
    out = tmp_path / "subset.jsonl"
    assert run(["generate", str(db), "-o", str(out), "--subtasks", "distance,closest"]) == 0
    subtasks = {p.subtask.value for p in read_pairs_jsonl(out)}
    assert subtasks == {"distance", "closest"}

    assert run(["generate", str(db), "-o", str(out), "--subtasks", "bogus"]) == 1
    assert "unknown subtask 'bogus'" in capsys.readouterr().err


def test_eval_fails_when_a_group_is_undefined(pipeline, capsys):
    tmp_path, _, db, _ = pipeline
    narrow = tmp_path / "narrow.jsonl"
    assert run(["generate", str(db), "-o", str(narrow), "--subtasks", "distance"]) == 0
    preds = tmp_path / "narrow_preds.jsonl"
    write_predictions_jsonl(predictions_from_pairs(read_pairs_jsonl(narrow)), preds)
    out = tmp_path / "narrow_eval.json"
    assert run(["eval", str(narrow), str(preds), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert "undefined metric groups" in captured.err
    assert "risk_map: undefined" in captured.out


def test_verify_with_db_catches_unknown_instance(pipeline):
    from drivesql.generation import DetectionList, write_pairs_jsonl

    tmp_path, _, db, pairs_path = pipeline
    pairs = read_pairs_jsonl(pairs_path)
    risky = next(
        p for p in pairs if isinstance(p.ground_truth, DetectionList) and p.ground_truth.items
    )
    ghost = risky._replace(
        ground_truth=DetectionList(
            tuple(d._replace(instance_id="ghost") for d in risky.ground_truth.items)
        ),
    )
    tampered = tmp_path / "tampered.jsonl"
    write_pairs_jsonl([ghost], tampered)
    kept = tmp_path / "tampered_kept.jsonl"
    assert run(["verify", str(tampered), "-o", str(kept), "--db", str(db)]) == 0
    report = json.loads((tmp_path / "tampered_kept.jsonl.report.json").read_text())
    assert report["kept"] == 0
    assert report["rejected"][0]["reason"].startswith("format contract: ")
    assert "unknown instance" in report["rejected"][0]["reason"]


def test_exit_codes_for_bad_input(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["build-db", str(missing), "-o", str(tmp_path / "db.json")]) == 2
    assert "i/o error" in capsys.readouterr().err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    assert run(["synth", str(garbage), "-o", str(tmp_path / "ann.json")]) == 1
    assert "invalid JSON" in capsys.readouterr().err

    assert run(["split"]) == 1
    assert run(["not-a-command"]) == 1


def test_build_db_names_annotations_that_are_not_an_object_once(tmp_path, capsys):
    ann = tmp_path / "ann.json"
    ann.write_text("[]\n", encoding="utf-8")
    assert run(["build-db", str(ann), "-o", str(tmp_path / "db.json")]) == 1
    assert capsys.readouterr().err == f"error: {ann}: annotations: expected an object, got list\n"


def test_build_db_refuses_annotations_holding_a_radius(pipeline, capsys):
    # ``--radius`` sets the radius; only a saved database holds one.
    tmp_path, ann, _, _ = pipeline
    doc = json.loads(ann.read_text(encoding="utf-8"))
    ann.write_text(json.dumps({**doc, "important_radius": 30.0}), encoding="utf-8")
    out = tmp_path / "x.json"
    assert run(["build-db", str(ann), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {ann}: annotations.important_radius: unexpected field\n"
    assert not out.exists()


def test_bad_radius_is_a_usage_error(pipeline, capsys):
    tmp_path, ann, _, _ = pipeline
    assert run(["build-db", str(ann), "-o", str(tmp_path / "x.json"), "--radius", "0"]) == 1
    assert "--radius" in capsys.readouterr().err


def test_scripted_synth_scene(tmp_path):
    request = {
        "scenes": [
            {
                "scene_id": "scripted",
                "n_frames": 3,
                "seed": 5,
                "ego_speed": 4.0,
                "scripts": [
                    {
                        "kind": "braking",
                        "category": "car",
                        "lane": "2",
                        "waypoints": [
                            {"t": 0.0, "x": 14.0, "y": 0.0, "speed": 4.0},
                            {"t": 0.5, "x": 11.0, "y": 0.0, "speed": 2.0},
                            {"t": 1.0, "x": 10.5, "y": 0.0, "speed": 0.0},
                        ],
                    }
                ],
            }
        ]
    }
    scripts = tmp_path / "scripted.json"
    scripts.write_text(json.dumps(request), encoding="utf-8")
    ann = tmp_path / "scripted_ann.json"
    assert run(["synth", str(scripts), "-o", str(ann)]) == 0
    doc = json.loads(ann.read_text())
    assert [s["scene_id"] for s in doc["scenes"]] == ["scripted"]
    assert len(doc["frames"]) == 3

    bad = dict(request)
    bad["scenes"] = [dict(request["scenes"][0], scripts=[{"kind": "distance", "waypoints": []}])]
    scripts.write_text(json.dumps(bad), encoding="utf-8")
    assert run(["synth", str(scripts), "-o", str(ann)]) == 1


def test_readme_scripted_synthesis_example_is_accepted(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Scripted synthesis", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    scripts = tmp_path / "example.json"
    scripts.write_text(example, encoding="utf-8")
    ann = tmp_path / "annotations.json"
    assert run(["synth", str(scripts), "-o", str(ann)]) == 0
    assert [s["scene_id"] for s in json.loads(ann.read_text())["scenes"]] == ["braking_demo"]


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "drivesql", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def test_cli_import_leaves_out_the_reviewer_client_and_the_pools():
    deferred = ["http.client", "urllib.request", "concurrent.futures", "multiprocessing"]
    probe = f"import sys, drivesql.cli; print([m for m in {deferred!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_each_stage_loads_only_the_modules_it_runs(pipeline):
    tmp_path, ann, db, pairs = pipeline
    preds = tmp_path / "preds.jsonl"
    write_predictions_jsonl(predictions_from_pairs(read_pairs_jsonl(pairs)), preds)
    stages = {
        "build-db": ["build-db", ann, "-o", tmp_path / "again.db.json"],
        "generate": ["generate", db, "-o", tmp_path / "again.jsonl"],
        "verify": ["verify", pairs, "-o", tmp_path / "kept.jsonl", "--db", db],
        "split": ["split", pairs, "-o", tmp_path / "splits"],
        "stats": ["stats", pairs, db, "-o", tmp_path / "stats.json"],
        "eval": ["eval", pairs, preds, "-o", tmp_path / "eval.json"],
        "synth": ["synth", tmp_path / "scripts.json", "-o", tmp_path / "again.json"],
    }
    probe = (
        "import json, sys; from drivesql.cli import run; "
        "code = run(sys.argv[1:]); print(json.dumps([code, sorted(sys.modules)]))"
    )
    loaded = {}
    for stage, argv in stages.items():
        proc = subprocess.run(
            [sys.executable, "-c", probe, *map(str, argv)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, (stage, proc.stdout)
        loaded[stage] = set(modules)
        # Every record is a named tuple: ``dataclasses`` alone would pull in
        # ``inspect`` (and ``ast``, ``dis``, ``tokenize``) at each start.
        assert not loaded[stage] & {"numpy", "dataclasses", "inspect"}, stage
    unused = {f"drivesql.{name}" for name in ("evaluation", "stats", "synth")}
    assert not loaded["build-db"] & (unused | {"drivesql.generation"})
    assert not loaded["generate"] & unused
    assert "drivesql.generation" in loaded["generate"]


def _jsonl_with_bad_line_2(path, docs, bad_line):
    lines = [canonical_dumps(doc) for doc in docs]
    lines[1] = bad_line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _without(doc, key):
    return canonical_dumps({k: v for k, v in doc.items() if k != key})


def _assert_line_2_error(code, capsys, field):
    err = capsys.readouterr().err
    assert code == 1
    assert ":2:" in err and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mangle, reason",
    [
        (lambda doc: _without(doc, "frame_ids"), "frame_ids"),
        (lambda doc: '{"pair_id": ', "Expecting value"),
        (
            lambda doc: canonical_dumps({**doc, "ground_truth": []}),
            "ground_truth: expected an object, got list",
        ),
        (
            lambda doc: canonical_dumps({**doc, "thresholds_used": "abc"}),
            "thresholds_used: expected an object, got str",
        ),
        (
            lambda doc: canonical_dumps({**doc, "subtask": "bogus"}),
            "subtask: 'bogus' is not a valid Subtask",
        ),
        (lambda doc: canonical_dumps({**doc, "task": "risk"}), "does not match subtask"),
        (
            lambda doc: canonical_dumps({**doc, "views_used": {"front": 1}}),
            "views_used: expected an array, got dict",
        ),
        (
            lambda doc: canonical_dumps(
                {**doc, "ground_truth": {"kind": "detection", "items": {}}}
            ),
            "ground_truth.items: expected an array, got dict",
        ),
    ],
)
def test_verify_names_line_of_bad_pair(tmp_path, demo_pairs, capsys, mangle, reason):
    docs = [pair_to_dict(p) for p in demo_pairs[:3]]
    pairs = tmp_path / "pairs.jsonl"
    _jsonl_with_bad_line_2(pairs, docs, mangle(docs[1]))
    code = run(["verify", str(pairs), "-o", str(tmp_path / "kept.jsonl")])
    _assert_line_2_error(code, capsys, reason)


def _unreadable_input_cases():
    whole_json = {
        "build-db": lambda bad, db, pairs, out: ["build-db", bad, "-o", out],
        "generate": lambda bad, db, pairs, out: ["generate", bad, "-o", out],
        "verify-db": lambda bad, db, pairs, out: ["verify", pairs, "-o", out, "--db", bad],
        "stats-db": lambda bad, db, pairs, out: ["stats", pairs, bad, "-o", out],
    }
    for name, argv in whole_json.items():
        yield pytest.param(argv, b"not json", id=f"{name}-not-json")
        yield pytest.param(argv, b'{"scenes": "\xff"}', id=f"{name}-not-utf8")
    other_text = {
        "synth": lambda bad, db, pairs, out: ["synth", bad, "-o", out],
        "verify-pairs": lambda bad, db, pairs, out: ["verify", bad, "-o", out],
        "stats-pairs": lambda bad, db, pairs, out: ["stats", bad, db, "-o", out],
        "eval-predictions": lambda bad, db, pairs, out: ["eval", pairs, bad, "-o", out],
        "thresholds": lambda bad, db, pairs, out: ["generate", db, "-o", out, "--thresholds", bad],
    }
    for name, argv in other_text.items():
        yield pytest.param(argv, b"\xff\n", id=f"{name}-not-utf8")
    # Valid JSON that breaks the schema at the top: the file is named too.
    yield pytest.param(whole_json["verify-db"], b"[1, 2]", id="verify-db-not-an-object")
    yield pytest.param(whole_json["build-db"], b'{"scenes": 3}', id="build-db-scenes-not-an-array")


@pytest.mark.parametrize("argv, content", _unreadable_input_cases())
def test_unreadable_input_file_is_named(pipeline, capsys, argv, content):
    tmp_path, _, db, pairs = pipeline
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "out"
    code = run([str(a) for a in argv(bad, db, pairs, out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {bad}")
    assert "Traceback" not in err
    assert not out.exists()


# Per boundary: the command with the deep document in place of its input,
# and what follows the document's path in the refusal.
_DEEP_BOUNDARIES = {
    "annotations": (lambda deep, db, pairs, out: ["build-db", deep, "-o", out], ""),
    "database": (lambda deep, db, pairs, out: ["verify", pairs, "-o", out, "--db", deep], ""),
    "pairs": (lambda deep, db, pairs, out: ["verify", deep, "-o", out], ":1"),
    "predictions": (lambda deep, db, pairs, out: ["eval", pairs, deep, "-o", out], ":1"),
    "synth-request": (lambda deep, db, pairs, out: ["synth", deep, "-o", out], ""),
}


@pytest.mark.parametrize("boundary", _DEEP_BOUNDARIES)
@pytest.mark.parametrize("opening", ["[", '{"a":'])
def test_a_document_nested_too_deeply_is_refused_naming_its_file(
    pipeline, capsys, boundary, opening
):
    tmp_path, _, db, pairs = pipeline
    deep = tmp_path / "deep.json"
    deep.write_text(opening * 100_000 + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv, line = _DEEP_BOUNDARIES[boundary]
    assert run([str(a) for a in argv(deep, db, pairs, out)]) == 1
    assert capsys.readouterr().err == f"error: {deep}{line}: invalid JSON: nested too deeply\n"
    assert not out.exists()


def test_verify_keeps_unverified_a_pair_whose_reply_nests_too_deeply(
    tmp_path, demo_pairs, capsys, monkeypatch
):
    monkeypatch.setattr(generation.time, "sleep", lambda _: None)
    pairs = tmp_path / "pairs.jsonl"
    write_pairs_jsonl(demo_pairs[:1], pairs)
    kept = tmp_path / "kept.jsonl"
    with mock_reviewer(lambda payload: b"[" * 100_000) as (server, url):
        assert _verify_http(pairs, kept, url, capsys) == 0
    assert kept.read_bytes() == pairs.read_bytes()
    # Each attempt failed, so every retry was made.
    assert len(server.requests) == generation.REVIEW_RETRIES + 1
    report = json.loads(Path(f"{kept}.report.json").read_text())
    assert report["unverified"] == [demo_pairs[0].pair_id]


def test_eval_names_line_of_prediction_missing_a_field(tmp_path, demo_pairs, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(canonical_dumps(pair_to_dict(p)) + "\n" for p in demo_pairs))
    preds = tmp_path / "preds.jsonl"
    write_predictions_jsonl(predictions_from_pairs(demo_pairs), preds)
    docs = [json.loads(line) for line in preds.read_text().splitlines()]
    _jsonl_with_bad_line_2(preds, docs, _without(docs[1], "response_text"))
    code = run(["eval", str(pairs), str(preds), "-o", str(tmp_path / "report.json")])
    _assert_line_2_error(code, capsys, "response_text")


def _numeric_truth(doc, text):
    """The pair's line with a numeric ground truth whose one value is ``text``."""
    line = json.dumps({**doc, "ground_truth": {"kind": "numeric", "values": [0.125]}})
    return line.replace("[0.125]", f"[{text}]")


def _detection_truth(doc, item):
    """The pair's line with one detection, ``item`` or a good one updated by it."""
    good = {"view": "front", "bbox": [1.0, 1.0, 5.0, 5.0], "instance_id": "i"}
    detection = {**good, **item} if isinstance(item, dict) else item
    return json.dumps({**doc, "ground_truth": {"kind": "detection", "items": [detection]}})


_BAD_PAIRS = [
    (lambda doc: _numeric_truth(doc, "NaN"), "NaN is not a finite number"),
    (lambda doc: _numeric_truth(doc, "-Infinity"), "-Infinity is not a finite number"),
    (lambda doc: _numeric_truth(doc, "1e400"), "ground_truth.values[0]: expected a finite number"),
    (lambda doc: _numeric_truth(doc, "true"), "ground_truth.values[0]: expected a number"),
    (lambda doc: json.dumps({**doc, "instruction": None}), "instruction: expected a string"),
    (lambda doc: json.dumps({**doc, "pair_id": 12345}), "pair_id: expected a string"),
    (lambda doc: json.dumps({**doc, "frame_ids": "abc"}), "frame_ids: expected an array"),
    (
        lambda doc: json.dumps({**doc, "views_used": ["front", "bogus"]}),
        "views_used[1]: 'bogus' is not a valid View",
    ),
    (
        lambda doc: _detection_truth(doc, {"view": "bogus"}),
        "ground_truth.items[0].view: 'bogus' is not a valid View",
    ),
    (
        lambda doc: _detection_truth(doc, "abc"),
        "ground_truth.items[0]: expected an object, got str",
    ),
    (
        lambda doc: _detection_truth(doc, {"bbox": [5, 5, 1, 1]}),
        "ground_truth.items[0].bbox: box requires x1 < x2 and y1 < y2",
    ),
    (
        lambda doc: json.dumps({**doc, "thresholds_usd": {"dis": 1.0}}),
        "thresholds_usd: unexpected field",
    ),
    (
        lambda doc: _detection_truth(doc, {"score": 1.0}),
        "ground_truth.items[0].score: unexpected field",
    ),
]

_PAIRS_READERS = {
    "verify": lambda pairs, db, preds, out: ["verify", pairs, "-o", out],
    "eval": lambda pairs, db, preds, out: ["eval", pairs, preds, "-o", out],
    "split": lambda pairs, db, preds, out: ["split", pairs, "-o", out],
    "stats": lambda pairs, db, preds, out: ["stats", pairs, db, "-o", out],
}


@pytest.fixture()
def read_side(tmp_path, demo_db, demo_pairs):
    """A database, pairs and echo predictions for the commands that read pairs."""
    db = tmp_path / "db.json"
    save_database(demo_db, db)
    preds = tmp_path / "preds.jsonl"
    write_predictions_jsonl(predictions_from_pairs(demo_pairs[:3]), preds)
    return tmp_path, db, [pair_to_dict(p) for p in demo_pairs[:3]], preds


@pytest.mark.parametrize("command", _PAIRS_READERS)
@pytest.mark.parametrize(
    "mangle, reason",
    _BAD_PAIRS,
    ids=[
        "nan", "minus-infinity", "1e400", "bool", "null-instruction", "int-pair-id", "str-frames",
        "bogus-view", "bogus-detection-view", "str-detection", "degenerate-box",
        "misspelled-thresholds", "undeclared-detection-field",
    ],
)
def test_pairs_readers_refuse_non_finite_numbers_and_non_text(
    read_side, capsys, command, mangle, reason
):
    tmp_path, db, docs, preds = read_side
    pairs = tmp_path / "pairs.jsonl"
    _jsonl_with_bad_line_2(pairs, docs, mangle(docs[1]))
    out = tmp_path / "out"
    code = run([str(a) for a in _PAIRS_READERS[command](pairs, db, preds, out)])
    _assert_line_2_error(code, capsys, f"{pairs}:2: {reason}")
    assert not out.exists()


@pytest.mark.parametrize("command", _PAIRS_READERS)
def test_pairs_readers_refuse_a_repeated_pair_id(read_side, capsys, command):
    tmp_path, db, docs, preds = read_side
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(canonical_dumps(d) + "\n" for d in (*docs, docs[0])), encoding="utf-8")
    out = tmp_path / "out"
    assert run([str(a) for a in _PAIRS_READERS[command](pairs, db, preds, out)]) == 1
    repeated = f"pair_id: {docs[0]['pair_id']!r} is repeated, first on line 1"
    assert capsys.readouterr().err == f"error: {pairs}:4: {repeated}\n"
    assert not out.exists()


def test_eval_refuses_a_repeated_pair_id_in_the_predictions(read_side, capsys):
    tmp_path, db, docs, preds = read_side
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(canonical_dumps(d) + "\n" for d in docs), encoding="utf-8")
    lines = preds.read_text(encoding="utf-8").splitlines(keepends=True)
    preds.write_text("".join((*lines, lines[1])), encoding="utf-8")
    out = tmp_path / "out"
    assert run(["eval", str(pairs), str(preds), "-o", str(out)]) == 1
    repeated = f"pair_id: {docs[1]['pair_id']!r} is repeated, first on line 2"
    assert capsys.readouterr().err == f"error: {preds}:4: {repeated}\n"
    assert not out.exists()


def _one_detection(doc, update):
    """The prediction's line with its first detection updated by ``update``."""
    return json.dumps({**doc, "detections": [{**doc["detections"][0], **update}]})


@pytest.mark.parametrize(
    "mangle, reason",
    [
        (lambda doc: json.dumps(doc).replace('"score": 1.0', '"score": NaN', 1), "NaN is not"),
        (lambda doc: json.dumps(doc).replace('"score": 1.0', '"score": 1e400', 1),
         "detections[0].score: expected a finite number"),
        (lambda doc: json.dumps({**doc, "response_text": None}), "response_text: expected"),
        (lambda doc: json.dumps({**doc, "pair_id": 7}), "pair_id: expected a string"),
        (lambda doc: json.dumps({**doc, "detections": {}}), "detections: expected an array"),
        (lambda doc: _one_detection(doc, {"view": "bogus"}),
         "detections[0].view: 'bogus' is not a valid View"),
        (lambda doc: json.dumps({**doc, "detections": ["abc"]}),
         "detections[0]: expected an object, got str"),
        (lambda doc: _one_detection(doc, {"bbox": [5, 5, 1, 1]}),
         "detections[0].bbox: box requires x1 < x2 and y1 < y2"),
        # Read as absent, the misspelled key would score the risk line 0.
        (lambda doc: json.dumps(doc).replace('"detections":', '"detection":'),
         "detection: unexpected field"),
        (lambda doc: _one_detection(doc, {"label": "car"}),
         "detections[0].label: unexpected field"),
    ],
    ids=[
        "nan-score", "1e400-score", "null-response-text", "int-pair-id", "object-detections",
        "bogus-view", "str-detection", "degenerate-box", "misspelled-detections",
        "undeclared-detection-field",
    ],
)
def test_eval_refuses_non_finite_and_non_text_predictions(
    tmp_path, demo_pairs, capsys, mangle, reason
):
    detected = [
        p for p in demo_pairs if isinstance(p.ground_truth, DetectionList) and p.ground_truth.items
    ]
    pairs = tmp_path / "pairs.jsonl"
    write_pairs_jsonl(detected[:3], pairs)
    preds = tmp_path / "preds.jsonl"
    write_predictions_jsonl(predictions_from_pairs(detected[:3]), preds)
    docs = [json.loads(line) for line in preds.read_text().splitlines()]
    _jsonl_with_bad_line_2(preds, docs, mangle(docs[1]))
    out = tmp_path / "report.json"
    code = run(["eval", str(pairs), str(preds), "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"error: {preds}:2: ") and reason in err
    assert "Traceback" not in err
    assert not out.exists()


def test_predictions_may_answer_with_empty_text(tmp_path):
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"pair_id": "p", "response_text": ""}) + "\n", encoding="utf-8")
    assert read_predictions_jsonl(preds)[0].response_text == ""


@pytest.mark.parametrize("value", ["inf", "1e400", "nan", "0", "-2"])
def test_thresholds_file_refuses_non_finite_and_non_positive_values(pipeline, capsys, value):
    tmp_path, _, db, _ = pipeline
    thresholds = tmp_path / "thresholds.txt"
    thresholds.write_text(f"dis_x=3\ndis={value}\n", encoding="utf-8")
    out = tmp_path / "gated.jsonl"
    assert run(["generate", str(db), "-o", str(out), "--thresholds", str(thresholds)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {thresholds}:2: threshold dis must be a positive finite number")
    assert not out.exists()


def test_thresholds_file_refuses_a_repeated_key(pipeline, capsys):
    tmp_path, _, db, _ = pipeline
    thresholds = tmp_path / "thresholds.txt"
    thresholds.write_text("dis=1\ndis=50\n", encoding="utf-8")
    out = tmp_path / "gated.jsonl"
    assert run(["generate", str(db), "-o", str(out), "--thresholds", str(thresholds)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {thresholds}:2: threshold dis is already set on line 1\n"
    assert not out.exists()


def test_stats_names_the_pair_its_database_lacks(read_side, capsys):
    tmp_path, db, docs, _ = read_side
    docs[1]["frame_ids"] = ["ghost_a", "ghost_b", "ghost_c"]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(canonical_dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    out = tmp_path / "stats.json"
    assert run(["stats", str(pairs), str(db), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    pair_id = docs[1]["pair_id"]
    assert err == f"error: {pairs}: pair {pair_id}: no frame record with id 'ghost_a'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "request_text, where",
    [
        ('{"scenes": [{"scripts": [{"waypoints": [{"t": 0, "x": NaN, "y": 0}]}]}]}',
         "scenes[0].scripts[0].waypoints[0].x: expected a finite number, got nan"),
        ('{"scenes": [{"scripts": [{"waypoints": [{"t": 0, "x": 1, "y": 1e400}]}]}]}',
         "scenes[0].scripts[0].waypoints[0].y: expected a finite number, got inf"),
        ('{"scenes": [{"ego_speed": Infinity, "scripts": []}]}',
         "scenes[0].ego_speed: expected a finite number, got inf"),
        ('{"scenes": [{"n_frames": 1e400, "scripts": []}]}', "scenes[0].n_frames: "),
        ('{"sample": {"n_random": 1e400}}', "sample.n_random: "),
    ],
    ids=["nan-x", "1e400-y", "infinite-ego-speed", "1e400-n-frames", "1e400-n-random"],
)
def test_synth_script_names_a_non_finite_number(tmp_path, capsys, request_text, where):
    scripts = tmp_path / "scripts.json"
    scripts.write_text(request_text, encoding="utf-8")
    out = tmp_path / "ann.json"
    assert run(["synth", str(scripts), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scripts}: {where}")
    assert "Traceback" not in err
    assert not out.exists()


def _wrong_type_cases():
    # The first eight cases keep the ids they were given when a reason
    # followed its field after ": ".
    named = [
        ({"sample": {"n_random": 2.7}}, "sample.n_random: expected an integer, got float",
         "sample: n_random: expected an integer, got float"),
        ({"sample": {"n_random": True}}, "sample.n_random: expected an integer, got bool",
         "sample: n_random: expected an integer, got bool"),
        ({"sample": {"seed": "3"}}, "sample.seed: expected an integer, got str",
         "sample: seed: expected an integer, got str"),
        ({"sample": {"include_curated": "no"}},
         "sample.include_curated: expected true or false, got str",
         "sample: include_curated: expected true or false, got str"),
        ({"sample": {"include_curated": 0}},
         "sample.include_curated: expected true or false, got int",
         "sample: include_curated: expected true or false, got int"),
        ({"scenes": [{"n_frames": 3.7, "scripts": []}]},
         "scenes[0].n_frames: expected an integer, got float",
         "scenes[0]: n_frames: expected an integer, got float"),
        ({"scenes": [{"seed": False, "scripts": []}]},
         "scenes[0].seed: expected an integer, got bool",
         "scenes[0]: seed: expected an integer, got bool"),
        ({"scenes": [{"scene_id": 5, "scripts": []}]},
         "scenes[0].scene_id: expected a string, got int",
         "scenes[0]: scene_id: expected a string, got int"),
    ]
    for i, (request_doc, where, name) in enumerate(named):
        yield pytest.param(request_doc, where, id=f"request_doc{i}-{name}")
    waypoint = {"t": 0, "x": 1, "y": 0}
    for request_doc, where in [
        ({"scenes": [{"scripts": [{"category": 1, "waypoints": []}]}]},
         "scenes[0].scripts[0].category: expected a string, got int"),
        ({"scenes": [{"scripts": [{"lane": 2, "waypoints": []}]}]},
         "scenes[0].scripts[0].lane: expected a string, got int"),
        ({"scenes": [{"scripts": [{"kind": ["braking"], "waypoints": []}]}]},
         "scenes[0].scripts[0].kind: expected a string, got list"),
        ({"scenes": [{"scripts": [{"waypoints": [{"t": 0, "x": 1, "y": 0, "lane": 1}]}]}]},
         "scenes[0].scripts[0].waypoints[0].lane: expected a string, got int"),
        ({"scenes": [{"scripts": [{"waypoints": [{"x": 1, "y": 0}]}]}]},
         "scenes[0].scripts[0].waypoints[0].t: missing required field"),
        ({"scenes": [{"scripts": [{"kind": "distance", "waypoints": [waypoint]}]}]},
         "scenes[0].scripts[0].kind: expected a risk kind, got 'distance'"),
        ({"scenes": [{"scripts": [{"waypoints": []}]}]},
         "scenes[0].scripts[0].waypoints: expected a non-empty array"),
        ({"scenes": [{"n_frames": 0, "scripts": []}]},
         "scenes[0].n_frames: a scene needs at least one frame"),
        ({"sample": [1]}, "sample: expected an object, got list"),
        ({"scenes": []}, "scenes: expected a non-empty array"),
        ({}, "scenes: missing required field"),
        ({"sample": {"n_random": -3, "include_curated": False}},
         "sample.n_random: expected a non-negative count, got -3"),
        ({"sample": {"n_random": 100000, "include_curated": False}},
         "sample.n_random: expected at most 10000, got 100000"),
        ({"scenes": [{"n_frames": 1001, "scripts": []}]},
         "scenes[0].n_frames: expected at most 1000, got 1001"),
        ({"sample": {"n_randm": 1, "include_curated": False}}, "sample.n_randm: unexpected field"),
        ({"sample": {"[0]": 1}}, 'sample."[0]": unexpected field'),
        ({"sample": {"n_random": 1}, "n_random": 1}, "n_random: unexpected field"),
        ({"sample": {"n_random": 1}, "scenes": [{"scripts": []}]}, "scenes: unexpected field"),
        ({"scenes": [{"n_frame": 5, "scripts": []}]}, "scenes[0].n_frame: unexpected field"),
        ({"scenes": [{"scripts": [{"waypoints": [{**waypoint, "speeed": 2}]}]}]},
         "scenes[0].scripts[0].waypoints[0].speeed: unexpected field"),
        ({"scenes": [{"ego_speed": -1.0, "scripts": [{"waypoints": [waypoint]}]}]},
         "scenes[0].ego_speed: speed must be non-negative"),
        ({"scenes": [{"scripts": [{"waypoints": [{**waypoint, "speed": -2.0}]}]}]},
         "scenes[0].scripts[0].waypoints[0].speed: speed must be non-negative"),
    ]:
        yield (request_doc, where)


@pytest.mark.parametrize("request_doc, where", _wrong_type_cases())
def test_synth_request_refuses_a_field_of_the_wrong_type(tmp_path, capsys, request_doc, where):
    scripts = tmp_path / "scripts.json"
    scripts.write_text(json.dumps(request_doc), encoding="utf-8")
    out = tmp_path / "ann.json"
    assert run(["synth", str(scripts), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scripts}: {where}")
    assert "Traceback" not in err
    assert not out.exists()


# Each id names the flag that carries the value.
@pytest.mark.parametrize(
    "radius", ["nan", "inf", "-inf", "0", "-1"], ids=lambda radius: f"flag-{radius}"
)
def test_non_finite_radius_is_refused_before_any_work(tmp_path, capsys, radius):
    argv = [
        "build-db", str(tmp_path / "missing.json"), "-o", str(tmp_path / "db.json"),
        f"--radius={radius}",
    ]
    # The annotations file does not exist: refusing the radius first exits 1, not 2.
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --radius: expected a positive finite number")
    assert not (tmp_path / "db.json").exists()


@pytest.mark.parametrize(
    "option, refusal",
    [
        ("--windows=0", "--windows must be at least 1, got 0"),
        ("--jobs=0", "--jobs must be at least 1, got 0"),
        ("--max-instances=-1", "--max-instances must be at least 1, got -1"),
        ("--thresholds={thresholds}",
         "{thresholds}:1: threshold dis must be a positive finite number, got 0.0"),
    ],
    ids=["windows", "jobs", "max-instances", "thresholds"],
)
def test_generate_refuses_a_bad_setting_before_any_work(tmp_path, capsys, option, refusal):
    thresholds = tmp_path / "thresholds.txt"
    thresholds.write_text("dis=0\n", encoding="utf-8")
    out = tmp_path / "pairs.jsonl"
    argv = [
        "generate", str(tmp_path / "missing.db.json"), "-o", str(out),
        option.format(thresholds=thresholds),
    ]
    # The database does not exist: refusing the setting first exits 1, not 2.
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {refusal.format(thresholds=thresholds)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["generate", "{missing}", "--subtasks="], "--subtasks"),
        (["generate", "{missing}", "--thresholds="], "--thresholds"),
        (["verify", "{missing}", "--db="], "--db"),
        (["verify", "{missing}", "--verifier="], "--verifier"),
    ],
    ids=["subtasks", "thresholds", "db", "verifier"],
)
def test_an_empty_flag_value_is_refused_before_any_work(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.jsonl"
    argv = [a.format(missing=tmp_path / "missing") for a in argv] + ["-o", str(out)]
    # The input does not exist: refusing the empty value first exits 1, not 2.
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: argument {flag}: ")
    assert not out.exists()


@pytest.mark.parametrize("verifier", ["notaurl", "ftp://x/y", "http:///review"])
def test_verify_refuses_a_verifier_that_is_not_an_http_url(tmp_path, capsys, verifier):
    out = tmp_path / "kept.jsonl"
    argv = ["verify", str(tmp_path / "missing.jsonl"), "-o", str(out), f"--verifier={verifier}"]
    # The pairs file does not exist: refusing the endpoint first exits 1, not 2.
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: argument --verifier: expected an http or https URL with a host, got {verifier!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("verifier", ["http://127.0.0.1:x/review", "http://127.0.0.1:99999/review"])
def test_verify_refuses_a_verifier_with_a_bad_port(tmp_path, capsys, verifier):
    out = tmp_path / "kept.jsonl"
    argv = ["verify", str(tmp_path / "missing.jsonl"), "-o", str(out), f"--verifier={verifier}"]
    # Refused at argument parsing, before the missing pairs file is read.
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: argument --verifier: expected a port from 0 to 65535, got {verifier!r}\n"
    )
    assert not out.exists()


def test_jsonl_lines_may_hold_unicode_line_breaks_in_strings(tmp_path, demo_pairs, capsys):
    # U+2028, U+2029 and U+0085 are legal raw inside a JSON string, and
    # ``ensure_ascii=False`` writes them raw; only ``\n`` ends a line.
    docs = [pair_to_dict(p) for p in demo_pairs]
    docs[0]["instruction"] += "\u0085\u2029"
    rows = [{"pair_id": d["pair_id"], "response_text": d["response"]} for d in docs]
    rows[0]["response_text"] += "\u2028"
    pairs, preds = tmp_path / "pairs.jsonl", tmp_path / "preds.jsonl"
    for path, lines in ((pairs, docs), (preds, rows)):
        path.write_text("".join(json.dumps(x, ensure_ascii=False) + "\n" for x in lines), "utf-8")
    assert read_pairs_jsonl(pairs)[0].instruction == docs[0]["instruction"]
    assert read_predictions_jsonl(preds)[0].response_text == rows[0]["response_text"]
    assert run(["verify", str(pairs), "-o", str(tmp_path / "kept.jsonl")]) == 0
    assert run(["eval", str(pairs), str(preds), "-o", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().err == ""


_RATIO_REFUSALS = {
    "1,1,nan": "finite numbers with a finite sum",
    "1,1,inf": "finite numbers with a finite sum",
    "1e308,1e308,1": "finite numbers with a finite sum",
    "-1,1,1": "non-negative numbers with a positive sum",
    "0,0,0": "non-negative numbers with a positive sum",
}


@pytest.mark.parametrize("ratios", list(_RATIO_REFUSALS))
def test_split_refuses_ratios_without_a_finite_sum(tmp_path, capsys, ratios):
    out = tmp_path / "splits"
    # The pairs file does not exist: refusing the ratios first exits 1, not 2.
    argv = ["split", str(tmp_path / "missing.jsonl"), "-o", str(out), f"--ratios={ratios}"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --ratios needs {_RATIO_REFUSALS[ratios]}")
    assert "Traceback" not in err
    assert not out.exists()


def test_generate_rejects_jobs_below_one(pipeline, capsys):
    tmp_path, _, db, _ = pipeline
    out = tmp_path / "none.jsonl"
    assert run(["generate", str(db), "-o", str(out), "--jobs", "0"]) == 1
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_pair_whose_truth_does_not_fit_its_subtask(tmp_path, demo_pairs, capsys):
    docs = [pair_to_dict(p) for p in demo_pairs]
    relabelled = next(d for d in docs if d["subtask"] == "status")
    relabelled["subtask"] = "distance"
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(canonical_dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    write_predictions_jsonl(predictions_from_pairs(demo_pairs), preds)
    code = run(["eval", str(pairs), str(preds), "-o", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert relabelled["pair_id"] in err and "does not fit subtask distance" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "write",
    [
        lambda db, pairs, path: write_pairs_jsonl(pairs, path),
        lambda db, pairs, path: save_database(db, path),
        lambda db, pairs, path: view_percent_csv(compute_stats(pairs, db), path),
        lambda db, pairs, path: write_predictions_jsonl(predictions_from_pairs(pairs), path),
    ],
    ids=["pairs", "database", "stats_csv", "predictions"],
)
def test_failed_write_keeps_previous_file_and_leaves_no_temporary(
    tmp_path, demo_db, demo_pairs, monkeypatch, write
):
    target = tmp_path / "output"
    target.write_text("previous\n", encoding="utf-8")

    def disk_full(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", disk_full)
    with pytest.raises(OSError):
        write(demo_db, demo_pairs, target)
    assert target.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["output"]


def _manifest(path):
    return json.loads(path.with_name(path.name + ".manifest.json").read_text())


def _verify_http(pairs, out, url, capsys):
    code = run(["verify", str(pairs), "-o", str(out), "--verifier", url])
    assert "Traceback" not in capsys.readouterr().err
    return code


def test_verify_with_reviewer_matches_one_request_at_a_time(
    tmp_path, demo_pairs, monkeypatch, capsys
):
    subset = demo_pairs[:24]
    pairs = tmp_path / "pairs.jsonl"
    write_pairs_jsonl(subset, pairs)
    rank = {p.pair_id: i for i, p in enumerate(subset)}

    def route(payload):
        # Earlier pairs answer later, and verdicts vary by pair.
        time.sleep(0.001 * (len(subset) - rank[payload["pair_id"]]))
        bucket = rank[payload["pair_id"]] % 3
        if bucket == 0:
            return {"verdict": "drop", "reason": "no"}
        if bucket == 1:
            return {"verdict": "revise", "revised_response": payload["response"] + "!"}
        return {"verdict": "keep"}

    pooled, serial = tmp_path / "pooled.jsonl", tmp_path / "serial.jsonl"
    with mock_reviewer(route) as (_, url):
        assert _verify_http(pairs, pooled, url, capsys) == 0
        monkeypatch.setattr(generation, "MAX_IN_FLIGHT", 1)
        assert _verify_http(pairs, serial, url, capsys) == 0
    assert pooled.read_bytes() == serial.read_bytes()
    pooled_report = Path(f"{pooled}.report.json").read_bytes()
    assert pooled_report == Path(f"{serial}.report.json").read_bytes()
    report = json.loads(pooled_report)
    assert set(report) == {"kept", "rejected", "unverified", "revised"}
    # Two of the eight revisions turn an empty detection answer "No." into
    # "No.!", which fails the offline rules again, so they are rejected.
    assert (report["kept"], len(report["rejected"]), len(report["revised"])) == (14, 10, 6)
    revised_away = [r["reason"] for r in report["rejected"] if "revised response" in r["reason"]]
    assert revised_away == [
        "format contract: revised response: empty detection list requires the response 'No.'"
    ] * 2
    manifest = _manifest(pooled)
    assert manifest["reviewer"] == {"requests": 24, "retries": 0, "unverified": 0}


@pytest.mark.parametrize("reply", [["keep"], "keep", None, 3])
def test_verify_survives_a_reply_that_is_not_an_object(tmp_path, demo_pairs, capsys, reply):
    pairs = tmp_path / "pairs.jsonl"
    write_pairs_jsonl(demo_pairs[:3], pairs)
    kept = tmp_path / "kept.jsonl"
    with mock_reviewer(lambda payload: reply) as (_, url):
        assert _verify_http(pairs, kept, url, capsys) == 0
    assert kept.read_bytes() == pairs.read_bytes()
    report = json.loads(Path(f"{kept}.report.json").read_text())
    assert report["unverified"] == sorted(p.pair_id for p in demo_pairs[:3])
    assert _manifest(kept)["reviewer"] == {"requests": 3, "retries": 0, "unverified": 3}


def test_verify_db_rejects_pairs_whose_frames_it_does_not_hold(pipeline):
    tmp_path, _, _, pairs = pipeline
    other = tmp_path / "other.db.json"
    save_database(build_database(synth_scene([], 3, 0, scene_id="elsewhere")), other)
    kept = tmp_path / "kept.jsonl"
    assert run(["verify", str(pairs), "-o", str(kept), "--db", str(other)]) == 0
    report = json.loads(Path(f"{kept}.report.json").read_text())
    assert report["kept"] == 0
    assert report["rejected"] == [
        {
            "pair_id": p.pair_id,
            "reason": f"format contract: pair references unknown frame {p.frame_ids[0]!r}",
        }
        for p in read_pairs_jsonl(pairs)
    ]


def test_verify_db_rejects_pairs_whose_frames_are_not_a_window_of_their_scene(pipeline):
    tmp_path, _, db, pairs_path = pipeline
    pairs = read_pairs_jsonl(pairs_path)
    relabelled, reordered, foreign = [p for p in pairs if p.subtask.value == "distance"][:3]
    there = next(p for p in pairs if p.scene_id not in (relabelled.scene_id, foreign.scene_id))
    first, mid, _ = foreign.frame_ids
    edited = tmp_path / "edited.jsonl"
    write_pairs_jsonl(
        [
            relabelled._replace(scene_id=there.scene_id),
            reordered._replace(frame_ids=reordered.frame_ids[::-1]),
            foreign._replace(frame_ids=(first, mid, there.frame_ids[0])),
        ],
        edited,
    )
    kept = tmp_path / "kept.jsonl"
    assert run(["verify", str(edited), "-o", str(kept), "--db", str(db)]) == 0
    report = json.loads(Path(f"{kept}.report.json").read_text())
    assert report["kept"] == 0
    consecutive = "format contract: pair frames are not consecutive keyframes of one scene"
    assert [r["reason"] for r in report["rejected"]] == [
        f"format contract: pair frames belong to scene {relabelled.scene_id!r}, "
        f"not {there.scene_id!r}",
        consecutive,
        consecutive,
    ]


def test_verify_manifest_counts_retries_to_an_unreachable_reviewer(tmp_path, demo_pairs, capsys):
    pairs = tmp_path / "pairs.jsonl"
    write_pairs_jsonl(demo_pairs[:3], pairs)
    kept = tmp_path / "kept.jsonl"
    assert _verify_http(pairs, kept, "http://127.0.0.1:9/review", capsys) == 0
    # REVIEW_RETRIES = 2 gives three attempts per pair.
    assert _manifest(kept)["reviewer"] == {"requests": 9, "retries": 6, "unverified": 3}

    offline = tmp_path / "offline.jsonl"
    assert run(["verify", str(pairs), "-o", str(offline)]) == 0
    assert "reviewer" not in _manifest(offline)
