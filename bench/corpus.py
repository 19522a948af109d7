"""Seeded benchmark inputs: annotation corpora and perturbed predictions.

Corpora are random-walk tracks rendered through the public ``synth_scene``.
Each scene has 40 keyframes; tracks wander around the moving ego inside a
disk slightly wider than the 20 m importance radius, so about 26 rows per
keyframe survive the filter, the per-keyframe density of the reference
corpus (295,828 rows over 11,850 keyframes).

The prediction perturber turns a pairs file into a predictions file whose
mix makes every metric family do real matching work while every metric
group stays defined.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path
from typing import Any

from drivesql import synth
from drivesql.geometry import Vec3
from drivesql.scene_db import DEFAULT_IMPORTANT_RADIUS
from drivesql.synth import FRAME_PERIOD_S, ScenarioScript, Waypoint

KEYFRAMES = 40
TRACKS_PER_SCENE = 38
# Tracks stay inside this ego-relative disk, so about three quarters of the
# ~35 rows per keyframe fall inside the 20 m importance radius.
WANDER_RADIUS = 23.0
STEP_M = 1.0
# Share of tracks that cover the whole scene; the rest start late or end
# early so the skip paths of the window operations run too.
FULL_SPAN_SHARE = 0.85
LANE_SWITCH_PROBABILITY = 0.05
CATEGORIES = (
    "car",
    "truck",
    "bus",
    "pedestrian",
    "bicycle",
    "construction_vehicle",
    "barrier",
    "traffic_cone",
)
LANES = ("1", "2", "3")


def seeded_rng(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_walk_scene(seed: int, scene_id: str, n_frames: int = KEYFRAMES) -> dict[str, Any]:
    """One annotation scene of random-walk tracks around a straight ego path."""
    rng = seeded_rng(seed, scene_id)
    ego_speed = rng.uniform(2.0, 10.0)
    ego_yaw = rng.uniform(-math.pi, math.pi)
    cos_y, sin_y = math.cos(ego_yaw), math.sin(ego_yaw)

    # Start radii are stratified and the number of partial tracks is fixed,
    # so the density varies little from one seed to the next.
    partial = set(rng.sample(range(TRACKS_PER_SCENE), round(TRACKS_PER_SCENE * (1 - FULL_SPAN_SHARE))))
    scripts = []
    for i in range(TRACKS_PER_SCENE):
        r = WANDER_RADIUS * math.sqrt((i + rng.random()) / TRACKS_PER_SCENE)
        a = rng.uniform(-math.pi, math.pi)
        ox, oy = r * math.cos(a), r * math.sin(a)
        first, last = 0, n_frames - 1
        if i in partial:
            if rng.random() < 0.5:
                first = rng.randrange(n_frames - 2)
            else:
                last = rng.randrange(2, n_frames)
        speed = rng.uniform(0.0, 10.0)
        yaw = rng.uniform(-math.pi, math.pi)
        lane = rng.choice(LANES)
        category = rng.choice(CATEGORIES)
        waypoints = []
        for k in range(first, last + 1):
            t = k * FRAME_PERIOD_S
            ex, ey = cos_y * ego_speed * t, sin_y * ego_speed * t
            world = Vec3(ex + cos_y * ox - sin_y * oy, ey + sin_y * ox + cos_y * oy, 0.0)
            if rng.random() < LANE_SWITCH_PROBABILITY:
                lane = rng.choice(LANES)
            waypoints.append(Waypoint(t=t, pos=world, yaw=yaw, speed=speed, lane=lane))
            ox += rng.uniform(-STEP_M, STEP_M)
            oy += rng.uniform(-STEP_M, STEP_M)
            d = math.hypot(ox, oy)
            if d > WANDER_RADIUS:
                # Reflect off the rim of the disk.
                scale = (2.0 * WANDER_RADIUS - d) / d
                ox, oy = ox * scale, oy * scale
            speed = max(0.0, speed + rng.uniform(-1.5, 1.5))
            yaw += rng.uniform(-0.2, 0.2)
        scripts.append(
            ScenarioScript(
                kind=None, waypoints=tuple(waypoints), category=category, lane=waypoints[0].lane
            )
        )
    # Looked up on the module so a traced run sees the call.
    return synth.synth_scene(
        scripts, n_frames, seed, scene_id=scene_id, ego_speed=ego_speed, ego_yaw=ego_yaw
    )


def corpus(seed: int, n_scenes: int, n_frames: int = KEYFRAMES) -> dict[str, Any]:
    """``n_scenes`` random-walk scenes merged into one annotation document."""
    return synth.merge_scenes(
        [random_walk_scene(seed, f"bench_{seed}_{i:03d}", n_frames) for i in range(n_scenes)]
    )


def density(doc: dict[str, Any]) -> tuple[float, float]:
    """Instance rows per keyframe, before and after the importance filter."""
    frames = len(doc["frames"])
    kept = sum(
        1
        for row in doc["instances"]
        if math.hypot(row["local_t"][0], row["local_t"][1]) <= DEFAULT_IMPORTANT_RADIUS
    )
    return len(doc["instances"]) / frames, kept / frames


# --------------------------------------------------------------------------
# Predictions.

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?")
UNPARSEABLE = "I cannot tell from these views."


def echo(pair: dict[str, Any]) -> dict[str, Any]:
    pred: dict[str, Any] = {"pair_id": pair["pair_id"], "response_text": pair["response"]}
    truth = pair["ground_truth"]
    if truth["kind"] == "detection":
        pred["detections"] = [
            {"view": d["view"], "bbox": d["bbox"], "score": 1.0} for d in truth["items"]
        ]
    return pred


def _jitter_box(box: list[float], rng: random.Random) -> list[float]:
    x1, y1, x2, y2 = (c + rng.uniform(-15.0, 15.0) for c in box)
    return [round(x1, 1), round(y1, 1), round(max(x2, x1 + 1.0), 1), round(max(y2, y1 + 1.0), 1)]


def perturb(pairs: list[dict[str, Any]], seed: int) -> tuple[list[dict[str, Any]], dict[str, int]]:
    """Predictions for ``pairs`` plus a tally of what was done to them.

    Per family: numeric answers are echoed, get noise on every number, or
    become unparseable; labels are echoed, swapped for another pair's label
    of the same subtask, or emptied; detections are echoed or jittered with
    random scores, sometimes with an extra false box; plans are echoed or
    lose words. The tally's ``numeric_unparseable`` over ``numeric`` is the
    extraction failure rate the evaluator must report.
    """
    responses_by_label: dict[str, dict[str, str]] = {}
    for pair in pairs:
        truth = pair["ground_truth"]
        if truth["kind"] == "label":
            responses_by_label.setdefault(pair["subtask"], {})[truth["value"]] = pair["response"]

    tally = {"numeric": 0, "numeric_unparseable": 0, "echo": 0, "perturbed": 0}
    preds = []
    for pair in pairs:
        rng = seeded_rng(seed, pair["pair_id"])
        truth = pair["ground_truth"]
        pred = echo(pair)
        roll = rng.random()
        if truth["kind"] == "numeric":
            tally["numeric"] += 1
            if roll < 0.2:
                pred["response_text"] = UNPARSEABLE
                tally["numeric_unparseable"] += 1
            elif roll < 0.6:
                pred["response_text"] = _NUMBER.sub(
                    lambda m: f"{float(m.group()) + rng.gauss(0.0, 1.0):.1f}", pair["response"]
                )
        elif truth["kind"] == "label":
            others = [r for v, r in responses_by_label[pair["subtask"]].items() if v != truth["value"]]
            if roll < 0.1:
                pred["response_text"] = ""
            elif roll < 0.5 and others:
                pred["response_text"] = rng.choice(sorted(others))
        elif truth["kind"] == "detection":
            if roll < 0.6:
                pred["detections"] = [
                    {"view": d["view"], "bbox": _jitter_box(d["bbox"], rng), "score": rng.random()}
                    for d in truth["items"]
                ]
                if roll < 0.2:
                    pred["detections"].append(
                        {"view": "front", "bbox": _jitter_box([700.0, 400.0, 800.0, 480.0], rng), "score": rng.random()}
                    )
        elif truth["kind"] == "free_text" and roll < 0.5:
            words = pair["response"].split()
            pred["response_text"] = " ".join(w for w in words if rng.random() > 0.2)
        tally["echo" if pred == echo(pair) else "perturbed"] += 1
        preds.append(pred)
    return preds, tally


def read_jsonl(path: Path) -> list[dict[str, Any]]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def write_jsonl(rows: list[dict[str, Any]], path: Path) -> None:
    path.write_text(
        "".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n" for row in rows),
        encoding="utf-8",
    )
