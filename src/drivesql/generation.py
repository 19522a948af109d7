"""Instruction-response pair generation and verification.

For every eligible scene the generator samples three-keyframe windows,
runs each enabled subtask against the database, and renders deterministic
instruction and response text. Rendering quantizes numbers to one decimal
while ground truths keep the untruncated values. Verification applies
offline format rules and, optionally, an external reviewing service.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import random
import time
from collections import deque
from operator import attrgetter, eq
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

# The reviewer's HTTP client and the worker pools are imported where they are
# used, so that a stage that needs neither does not pay to load them.

from .canonical import decode_json, jsonl_lines, read_jsonl, write_jsonl
from .errors import AnnotationSchemaError, TemplateError
from .geometry import planar_norm
from .scene_db import (
    IMAGE_HEIGHT,
    IMAGE_WIDTH,
    REAL_VIEWS,
    BBox2D,
    Check,
    InstanceInfo,
    SceneDatabase,
    SceneRecord,
    View,
    _array,
    _as_any_view,
    _as_bbox,
    _as_float,
    _as_positive,
    _as_str,
    _as_text,
    _fields_column,
    _fields_saver,
    _member_of,
    _object,
    _optional,
    _read_fields,
    _records,
    _tagged,
)
from .task_sql import (
    RISK_SUBTASKS,
    PlanningResult,
    RiskThresholds,
    Subtask,
    WindowContext,
    category_counts,
    distance,
    first_per_view,
    nearest_first,
    same_road,
    speeds,
    status,
)
from .textutil import count_mentions, extract_numbers, tokenize

# Ego displacement (meters per window step) above which the ego counts as
# moving when a status label has to be derived from motion alone.
EGO_MOVING_DISPLACEMENT = 0.5

# Reviewer requests in flight at once. The stdlib ``socketserver`` listen
# backlog is 5; above it a stdlib reviewer stalls connections.
MAX_IN_FLIGHT = 4

# First pause before re-sending a failed reviewer request; each later pause
# doubles it (0.05 s, 0.1 s, 0.2 s, ...).
RETRY_BACKOFF_S = 0.05

# Seconds to wait for one reviewer reply, and re-sends after a failed one.
REVIEW_TIMEOUT_S = 10.0
REVIEW_RETRIES = 2


# --------------------------------------------------------------------------
# Ground truth variants. Exactly one per metric family.


class Numeric(NamedTuple):
    values: tuple[float, ...]


class Label(NamedTuple):
    value: str


class DetectionRef(NamedTuple):
    view: View
    bbox: BBox2D
    instance_id: str


class DetectionList(NamedTuple):
    items: tuple[DetectionRef, ...]


class FreeText(NamedTuple):
    text: str


# Named tuples of different types compare equal when their fields do, so a
# ground truth is told apart by its type (``_FAMILY_OF_TRUTH``), never by
# ``==`` against another variant.
GroundTruth = Numeric | Label | DetectionList | FreeText


class InstructionResponsePair(NamedTuple):
    pair_id: str
    scene_id: str
    frame_ids: tuple[str, str, str]
    subtask: Subtask
    views_used: tuple[View, ...]
    instruction: str
    response: str
    ground_truth: GroundTruth
    thresholds_used: RiskThresholds | None = None

    @property
    def task(self) -> str:
        return self.subtask.task_text


class GenerationConfig(NamedTuple):
    master_seed: int = 0
    windows_per_scene: int = 1
    max_instances_per_subtask: int = 3
    thresholds: RiskThresholds = RiskThresholds()
    enabled_subtasks: frozenset[Subtask] = frozenset(Subtask)


class GenerationDiagnostics:
    """What a generation run did and skipped, counted scene by scene and
    merged in scene order."""

    def __init__(self) -> None:
        self.eligible_scenes = 0
        self.ineligible_scenes = 0
        self.windows_sampled = 0
        self.windows_unique = 0
        self.skipped_instances = 0
        self.pair_failures = 0
        self.failure_messages: list[str] = []

    def merge(self, other: "GenerationDiagnostics") -> None:
        self.eligible_scenes += other.eligible_scenes
        self.ineligible_scenes += other.ineligible_scenes
        self.windows_sampled += other.windows_sampled
        self.windows_unique += other.windows_unique
        self.skipped_instances += other.skipped_instances
        self.pair_failures += other.pair_failures
        self.failure_messages.extend(other.failure_messages)

    def as_dict(self) -> dict[str, Any]:
        return {**vars(self), "failure_messages": list(self.failure_messages)}


# --------------------------------------------------------------------------
# Window sampling.


def sample_window(scene: SceneRecord, rng: random.Random) -> tuple[str, str, str]:
    """Three consecutive keyframes with a uniformly random start index."""
    n = len(scene.frame_ids)
    if n < 3:
        from .errors import IneligibleScene

        raise IneligibleScene(f"scene {scene.scene_id!r} has {n} keyframes, needs 3")
    start = rng.randrange(n - 2)
    return tuple(scene.frame_ids[start : start + 3])  # type: ignore[return-value]


def derive_scene_seed(master_seed: int, scene_id: str) -> int:
    """Stable seed for one named scene, so worker order cannot change the
    output; the synthesizer seeds its scenes with it too."""
    digest = hashlib.sha256(f"{master_seed}:{scene_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# --------------------------------------------------------------------------
# Rendering.


def format_grounding(view: View, bbox: BBox2D) -> str:
    """Instance reference of the form ``<front, x1, y1, x2, y2>``."""
    # ``%`` formats a float as ``format(x, ".1f")`` does, in less time.
    return "<%s, %.1f, %.1f, %.1f, %.1f>" % (view.phrase, *bbox)


_VIEW_PHRASES = {
    view: "all views" if view is View.ALL else f"the {view.phrase} view" for view in View
}


@functools.lru_cache(maxsize=1024)
def _category_phrase(category: str) -> str:
    """A category or attribute as words; a dataset has a few dozen of them,
    each rendered into thousands of pairs."""
    return category.replace("_", " ").replace(".", " ")


_COORD_FORMAT_HINT = (
    "Please use the format as (x,y) where x and y are the forward and "
    "leftward {unit} in meters."
)

_INSTRUCTIONS: dict[Subtask, str] = {
    Subtask.DISTANCE: (
        "What is the distance between {grounding} and the ego car? "
        + _COORD_FORMAT_HINT.format(unit="offsets")
    ),
    Subtask.CLOSEST: "What are the closest objects in {view_phrase} of the ego car?",
    Subtask.INSTANCE_NUMBER: (
        "How many instances of {category} are there in {view_phrase} of the ego car?"
    ),
    Subtask.SPEEDS: "What is the speed for {grounding}?",
    Subtask.STATUS: "What is the status for {grounding}?",
    Subtask.SAME_ROAD: "Is {grounding} in the same road with the ego car?",
    Subtask.MOTION_EGO: (
        "What is the next motion for the ego car? "
        + _COORD_FORMAT_HINT.format(unit="displacements")
    ),
    Subtask.MOTION_OTHERS: (
        "What is the next motion for {grounding}? "
        + _COORD_FORMAT_HINT.format(unit="displacements")
    ),
    Subtask.STATUS_EGO: "What's the next status for the ego car?",
    Subtask.STATUS_OTHERS: "What's the next status for {grounding}?",
    Subtask.OVERTAKING: "Do any objects overtake the ego car?",
    Subtask.ON_COMING: "Do any objects go on coming to the ego car?",
    Subtask.APPROACHING: "Do any objects approach the ego car?",
    Subtask.CROSSING: "Do any objects cross the head of the ego car?",
    Subtask.BRAKING: "Do any objects brake ahead of the ego car?",
    Subtask.LANE_CHANGING: "Do any objects change to the same lane of the ego car?",
    Subtask.PLANNING_WITH_REASONING: "Please give the next plan for the ego car with reasons.",
}

_RISK_CLAUSE: dict[Subtask, str] = {
    Subtask.OVERTAKING: "overtaking",
    Subtask.ON_COMING: "on coming",
    Subtask.APPROACHING: "approaching",
    Subtask.CROSSING: "crossing",
    Subtask.BRAKING: "braking",
    Subtask.LANE_CHANGING: "changing lanes",
}


def render_instruction(subtask: Subtask, context: Mapping[str, Any]) -> str:
    template = _INSTRUCTIONS[subtask]
    try:
        return template.format_map(context)
    except KeyError as exc:
        raise TemplateError(
            f"instruction for {subtask.value} is missing context field {exc.args[0]!r}"
        ) from None


def _join_clauses(clauses: list[str]) -> str:
    if len(clauses) == 1:
        return clauses[0]
    return ", ".join(clauses[:-1]) + " and " + clauses[-1]


def render_response(subtask: Subtask, result: Any) -> tuple[str, GroundTruth]:
    """Deterministic response text plus the matching ground truth.

    Real values are printed at one decimal; counts are printed exactly; the
    ground truth always keeps full precision.
    """
    if subtask is Subtask.DISTANCE:
        x, y, _ = result
        return f"({x:.1f}, {y:.1f})", Numeric((x, y))
    if subtask is Subtask.CLOSEST:
        view, info = result
        text = (
            f"The closest object in {_VIEW_PHRASES[view]} is "
            f"a {_category_phrase(info.category)}."
        )
        return text, Label(info.category)
    if subtask is Subtask.INSTANCE_NUMBER:
        return _count_response(*result)
    if subtask is Subtask.SPEEDS:
        return f"{result:.1f} m/s", Numeric((result,))
    if subtask is Subtask.STATUS:
        return f"It is {_category_phrase(result)}.", Label(result)
    if subtask is Subtask.SAME_ROAD:
        return ("Yes" if result else "No"), Label("yes" if result else "no")
    if subtask in (Subtask.MOTION_EGO, Subtask.MOTION_OTHERS):
        return f"({result.x:.1f}, {result.y:.1f})", Numeric((result.x, result.y))
    if subtask is Subtask.STATUS_EGO:
        _, motion = result
        label = "moving" if planar_norm(motion) > EGO_MOVING_DISPLACEMENT else "stationary"
        return f"The ego car will be {label}.", Label(label)
    if subtask is Subtask.STATUS_OTHERS:
        _, _, next_attribute = result
        return f"It will be {_category_phrase(next_attribute)}.", Label(next_attribute)
    if subtask in RISK_SUBTASKS:
        items: tuple[DetectionRef, ...] = tuple(result)
        if not items:
            return "No.", DetectionList(())
        refs = _join_clauses([format_grounding(d.view, d.bbox) for d in items])
        return f"Yes, {refs}.", DetectionList(items)
    if subtask is Subtask.PLANNING_WITH_REASONING:
        return _render_planning(result)
    raise TemplateError(f"no response template for {subtask!r}")


# Half of a dataset's pairs are ``instance_number`` pairs, but they repeat a
# few hundred sentences at most (136 responses and 55 instructions in 4,021
# pairs on a 4-scene bench corpus), so each sentence is rendered once and its
# frozen ground truth shared.
@functools.lru_cache(maxsize=4096, typed=True)  # a count of 3.0 prints as 3.0
def _count_response(view: View, category: str, count: int) -> tuple[str, Numeric]:
    text = f"There are {count} instances of {_category_phrase(category)} in {_VIEW_PHRASES[view]}."
    return text, Numeric((float(count),))


@functools.lru_cache(maxsize=4096)
def _count_instruction(category: str, view_phrase: str) -> str:
    context = {"category": _category_phrase(category), "view_phrase": view_phrase}
    return render_instruction(Subtask.INSTANCE_NUMBER, context)


def _render_planning(result: PlanningResult) -> tuple[str, FreeText]:
    clauses: list[str] = []
    for kind in RISK_SUBTASKS:
        for info in result.risks.get(kind, ()):
            clauses.append(f"a {_category_phrase(info.category)} {_RISK_CLAUSE[kind]}")
    if clauses:
        lead = f"There are {_join_clauses(clauses)} the ego car."
    else:
        lead = "There are no risky objects around the ego car."
    dv = result.ego_speed_delta
    if dv > 0.1:
        speed_phrase = "speeding up"
    elif dv < -0.1:
        speed_phrase = "slowing down"
    else:
        speed_phrase = "keeping the current speed"
    if result.ego_motion.y > 0.5:
        direction = "the left"
    elif result.ego_motion.y < -0.5:
        direction = "the right"
    else:
        direction = "the front"
    text = f"{lead} Hence the ego car should be {speed_phrase} and move to {direction}."
    return text, FreeText(text)


# --------------------------------------------------------------------------
# Pair assembly.


def _pair_id(scene_id: str, window: tuple[str, str, str], subtask: Subtask, target: str) -> str:
    key = "|".join((scene_id, *window, subtask.text, target))
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


# Risk and planning pairs record the thresholds their detections used.
_THRESHOLD_SUBTASKS = frozenset((*RISK_SUBTASKS, Subtask.PLANNING_WITH_REASONING))


def _pairs_for_window(
    db: SceneDatabase,
    scene_id: str,
    window: tuple[str, str, str],
    config: GenerationConfig,
    diag: GenerationDiagnostics,
) -> list[InstructionResponsePair]:
    frame_i = window[1]
    cap = config.max_instances_per_subtask
    enabled = config.enabled_subtasks
    ctx = WindowContext(db, *window)
    current = ctx.current
    ranked = nearest_first(current)
    pairs: list[InstructionResponsePair] = []

    def emit(
        subtask: Subtask, target: str, views: tuple[View, ...], instruction: str, result: Any
    ) -> None:
        response, truth = render_response(subtask, result)
        thresholds = config.thresholds if subtask in _THRESHOLD_SUBTASKS else None
        # Positional: a keyword call costs a third of a microsecond more.
        pairs.append(
            InstructionResponsePair(
                _pair_id(scene_id, window, subtask, target),
                scene_id,
                window,
                subtask,
                views,
                instruction,
                response,
                truth,
                thresholds,
            )
        )

    # Each grounded row's view and reference text, rendered on its first pair.
    groundings: dict[str, tuple[View, str]] = {}

    def emit_grounded(subtask: Subtask, info: InstanceInfo, result: Any) -> None:
        grounding = groundings.get(info.info_id)
        if grounding is None:
            view, box = next(iter(info.camera_pos.items()))
            grounding = groundings[info.info_id] = (view, format_grounding(view, box))
        view, text = grounding
        instruction = render_instruction(subtask, {"grounding": text})
        emit(subtask, info.info_id, (view,), instruction, result)

    selected = ranked[:cap]
    per_instance_perception = (
        (Subtask.DISTANCE, lambda info: distance(db, info.info_id)),
        (Subtask.SPEEDS, lambda info: speeds(db, info.info_id)),
        (Subtask.STATUS, lambda info: status(db, info.info_id)),
        (Subtask.SAME_ROAD, lambda info: same_road(db, info.info_id, frame_i)),
    )
    for subtask, op in per_instance_perception:
        if subtask in enabled:
            for info in selected:
                emit_grounded(subtask, info, op(info))

    if enabled & {Subtask.CLOSEST, Subtask.INSTANCE_NUMBER}:
        counts = category_counts(current)
        all_views = tuple(view for view in REAL_VIEWS if counts[view]) or (View.FRONT,)

    if Subtask.CLOSEST in enabled:
        nearest = first_per_view(ranked)
        for view, view_phrase in _VIEW_PHRASES.items():
            info = nearest.get(view)
            if info is None:
                continue
            instruction = render_instruction(Subtask.CLOSEST, {"view_phrase": view_phrase})
            views = all_views if view is View.ALL else (view,)
            emit(Subtask.CLOSEST, view.value, views, instruction, (view, info))

    if Subtask.INSTANCE_NUMBER in enabled:
        for view, view_phrase in _VIEW_PHRASES.items():
            per_view = counts[view]
            views = all_views if view is View.ALL else (view,)
            view_key = view.value
            for category in sorted(per_view):
                instruction = _count_instruction(category, view_phrase)
                result = (view, category, per_view[category])
                emit(Subtask.INSTANCE_NUMBER, f"{view_key}:{category}", views, instruction, result)

    if enabled & {Subtask.MOTION_OTHERS, Subtask.STATUS_OTHERS}:
        diag.skipped_instances += len(current) - len(ctx.followers)
        movers = [info for info in ranked if info.info_id in ctx.followers][:cap]

    if Subtask.MOTION_EGO in enabled:
        instruction = render_instruction(Subtask.MOTION_EGO, {})
        emit(Subtask.MOTION_EGO, "ego", (View.FRONT,), instruction, ctx.ego_motion)

    if Subtask.MOTION_OTHERS in enabled:
        for info in movers:
            emit_grounded(Subtask.MOTION_OTHERS, info, ctx.followers[info.info_id][1])

    if Subtask.STATUS_EGO in enabled:
        instruction = render_instruction(Subtask.STATUS_EGO, {})
        result = (ctx.ego_speed_delta, ctx.ego_motion)
        emit(Subtask.STATUS_EGO, "ego", (View.FRONT,), instruction, result)

    if Subtask.STATUS_OTHERS in enabled:
        for info in movers:
            follower, motion = ctx.followers[info.info_id]
            result = (follower.velocity - info.velocity, motion, follower.attribute)
            emit_grounded(Subtask.STATUS_OTHERS, info, result)

    risk_enabled = [k for k in RISK_SUBTASKS if k in enabled]
    if not risk_enabled and Subtask.PLANNING_WITH_REASONING not in enabled:
        return pairs
    diag.skipped_instances += len(current) - ctx.full_window_rows
    plan = ctx.plan(config.thresholds)

    for kind in risk_enabled:
        items = tuple(
            DetectionRef(*next(iter(info.camera_pos.items())), info.instance_id)
            for info in plan.risks[kind]
        )
        views = tuple(dict.fromkeys(d.view for d in items)) or (View.FRONT,)
        emit(kind, "risk", views, render_instruction(kind, {}), items)

    if Subtask.PLANNING_WITH_REASONING in enabled:
        hits = (info for kind_hits in plan.risks.values() for info in kind_hits)
        contributing = tuple(dict.fromkeys(next(iter(info.camera_pos)) for info in hits))
        instruction = render_instruction(Subtask.PLANNING_WITH_REASONING, {})
        views = contributing or (View.FRONT,)
        emit(Subtask.PLANNING_WITH_REASONING, "plan", views, instruction, plan)

    return pairs


def _window_pairs(
    db: SceneDatabase, scene_id: str, config: GenerationConfig, diag: GenerationDiagnostics
) -> Iterator[list[InstructionResponsePair]]:
    """The pairs of each unique window the scene's seed samples, a window at
    a time in sampling order. A window that raises is counted in ``diag``
    as a failure and yields nothing."""
    scene = db.scenes[scene_id]
    rng = random.Random(derive_scene_seed(config.master_seed, scene_id))
    windows: list[tuple[str, str, str]] = []
    for _ in range(config.windows_per_scene):
        window = sample_window(scene, rng)
        diag.windows_sampled += 1
        if window not in windows:
            windows.append(window)
    diag.windows_unique += len(windows)

    for window in windows:
        try:
            pairs = _pairs_for_window(db, scene_id, window, config, diag)
        except Exception as exc:  # noqa: BLE001 - diagnosed, not fatal
            diag.pair_failures += 1
            diag.failure_messages.append(f"{scene_id}/{window}: {exc}")
            continue
        yield pairs


def _scene_text(
    db: SceneDatabase, scene_id: str, config: GenerationConfig
) -> tuple[str, GenerationDiagnostics]:
    """One scene's pairs file text and diagnostics. Each window's records
    are dropped once their lines are encoded, so no pair list is kept."""
    diag = GenerationDiagnostics()
    lines = jsonl_lines(
        pair_to_dict(pair) for pairs in _window_pairs(db, scene_id, config, diag) for pair in pairs
    )
    return "".join(lines), diag


def _eligible_scenes(
    db: SceneDatabase, config: GenerationConfig, diag: GenerationDiagnostics
) -> list[str]:
    """The ids of the scenes with a window, in sorted order, counted in
    ``diag`` with the rest. The config is checked first."""
    if config.windows_per_scene < 1:
        raise ValueError("windows_per_scene must be at least 1")
    if config.max_instances_per_subtask < 1:
        raise ValueError("max_instances_per_subtask must be at least 1")
    eligible = []
    for scene_id in sorted(db.scenes):
        if len(db.scenes[scene_id].frame_ids) >= 3:
            eligible.append(scene_id)
        else:
            diag.ineligible_scenes += 1
    diag.eligible_scenes = len(eligible)
    return eligible


def generate_pairs(
    db: SceneDatabase, config: GenerationConfig
) -> tuple[list[InstructionResponsePair], GenerationDiagnostics]:
    """Every eligible scene's pairs, in one process: scenes in sorted order,
    windows in sampling order, subtasks in declaration order. These are the
    records whose lines ``generate_dataset`` returns."""
    diag = GenerationDiagnostics()
    pairs = [
        pair
        for scene_id in _eligible_scenes(db, config, diag)
        for window in _window_pairs(db, scene_id, config, diag)
        for pair in window
    ]
    return pairs, diag


def _send_texts(
    conn: Any, db: SceneDatabase, config: GenerationConfig, scene_ids: list[str]
) -> None:
    """A worker process: send the ``_scene_text`` of each scene through
    ``conn``, or the exception that stopped them."""
    # The worker's heap is the database it inherited or unpickled. Frozen,
    # it is never walked by the worker's collections, which under ``fork``
    # would otherwise copy every page of it they touch.
    gc.freeze()
    try:
        results: Any = [_scene_text(db, scene_id, config) for scene_id in scene_ids]
    except BaseException as exc:  # noqa: BLE001 - raised again by the parent
        results = exc
    conn.send(results)
    conn.close()


def _pooled_texts(
    db: SceneDatabase, config: GenerationConfig, scene_ids: list[str], jobs: int
) -> list[tuple[str, GenerationDiagnostics]]:
    """``_scene_text`` of each scene, in order, from ``jobs`` processes: this
    one and ``jobs - 1`` workers, the scenes dealt out to them in turn. A
    worker's exception is raised again here; a worker that dies without
    sending raises ``ChildProcessError``."""
    import multiprocessing

    context = multiprocessing.get_context()
    workers = []
    try:
        for i in range(1, jobs):
            reader, writer = context.Pipe(duplex=False)
            worker = context.Process(
                target=_send_texts, args=(writer, db, config, scene_ids[i::jobs])
            )
            worker.start()
            writer.close()
            workers.append((worker, reader))
        results: list[Any] = [None] * len(scene_ids)
        results[0::jobs] = [_scene_text(db, scene_id, config) for scene_id in scene_ids[0::jobs]]
        for i, (worker, reader) in enumerate(workers, 1):
            try:
                sent = reader.recv()
            except EOFError:
                worker.join()
                raise ChildProcessError(
                    f"generation worker exited with code {worker.exitcode} "
                    "before sending its scenes"
                ) from None
            if isinstance(sent, BaseException):
                raise sent
            results[i::jobs] = sent
        return results
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, reader in workers:
            reader.close()
            worker.join()


def generate_dataset(
    db: SceneDatabase, config: GenerationConfig, *, jobs: int = 1
) -> tuple[list[str], GenerationDiagnostics]:
    """The pairs file text of every eligible scene, one string per scene,
    and the run's diagnostics.

    Joined in order, the texts are the canonical JSONL of
    ``generate_pairs``, whatever ``jobs`` is: each scene is generated from
    its own derived seed and encoded by ``_scene_text`` in the process that
    generated it. With ``jobs > 1`` this process takes every ``jobs``-th
    scene and ``jobs - 1`` worker processes the rest; each worker receives
    the database once (inherited under ``fork``, pickled once under
    ``spawn``), and sends back only its scenes' texts and diagnostics, never
    a pair record.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    diag = GenerationDiagnostics()
    eligible = _eligible_scenes(db, config, diag)
    jobs = min(jobs, len(eligible))
    if jobs <= 1:
        results = [_scene_text(db, scene_id, config) for scene_id in eligible]
    else:
        results = _pooled_texts(db, config, eligible, jobs)
    for _, scene_diag in results:
        diag.merge(scene_diag)
    return [text for text, _ in results], diag


# --------------------------------------------------------------------------
# JSON serialization of pairs.


# A pairs line, declared once: its fields, each field's check, and the
# ground truth chosen by its ``kind``. The table both reads the line and,
# through ``pair_to_dict``, writes it; ``task`` is the pair's property.
_PAIR_FIELDS: dict[str, Check] = {
    "pair_id": _as_text,
    "scene_id": _as_text,
    "frame_ids": _array(_as_text),
    "task": _as_text,
    "subtask": _member_of(Subtask),
    "views_used": _array(_as_any_view),
    "instruction": _as_text,
    "response": _as_text,
    "ground_truth": _tagged("kind", {
        "numeric": _object(Numeric, {"values": _array(_as_float)}),
        "label": _object(Label, {"value": _as_text}),
        "detection": _object(DetectionList, {"items": _array(_object(DetectionRef, {
            "view": _as_any_view,
            "bbox": _as_bbox,
            "instance_id": _as_text,
        }))}),
        "free_text": _object(FreeText, {"text": _as_text}),
    }),
    "thresholds_used": _optional(_object(
        RiskThresholds, dict.fromkeys(("dis", "dis_x", "dis_y", "s"), _as_positive)
    )),
}

# The pairs line of a pair, each field saved by its check.
pair_to_dict = _fields_saver(_PAIR_FIELDS)

# A reviewer reply, declared once: each verdict reads as its name and its
# text, the drop reason or the revised response.
_REPLY = _tagged("verdict", {
    "keep": _object(lambda: ("keep", None), {}),
    "drop": _object(lambda reason: ("drop", reason), {
        "reason": _optional(_as_text, "dropped by verifier"),
    }),
    "revise": _object(lambda revised_response: ("revise", revised_response), {
        "revised_response": _as_str,
    }),
})


def pair_from_dict(doc: Any) -> InstructionResponsePair:
    """The pair a pairs line declares; a refusal names the field by its path."""
    values = _read_fields(doc, _PAIR_FIELDS)
    task, subtask, frame_ids = values.pop("task"), values["subtask"], values["frame_ids"]
    if task != subtask.task_text:
        raise AnnotationSchemaError("task", f"{task!r} does not match subtask {subtask.value}")
    if len(frame_ids) != 3:
        raise AnnotationSchemaError("frame_ids", f"expected 3 frame ids, got {len(frame_ids)}")
    return InstructionResponsePair(**values)


_PAIR_COLUMNS = _fields_column(_PAIR_FIELDS)
assert _PAIR_COLUMNS is not None, "every pairs field has a column form"


def _pairs_from_dicts(docs: list[Any]) -> list[InstructionResponsePair] | None:
    """The column form of ``pair_from_dict``, its two cross-checks included."""
    checked = _PAIR_COLUMNS(docs)
    if not (
        checked is not None
        and all(map(eq, checked["task"], map(attrgetter("task_text"), checked["subtask"])))
        and set(map(len, checked["frame_ids"])) <= {3}
    ):
        return None
    return _records(InstructionResponsePair, checked)


pair_from_dict.column = _pairs_from_dicts


def write_pairs_jsonl(pairs: Iterable[InstructionResponsePair], path: str | Path) -> None:
    write_jsonl(path, (pair_to_dict(p) for p in pairs))


def read_pairs_jsonl(path: str | Path) -> list[InstructionResponsePair]:
    """The pairs of a JSONL file; a repeated ``pair_id`` is refused."""
    return read_jsonl(path, pair_from_dict)


# --------------------------------------------------------------------------
# Verification.


class VerificationResult:
    """The pairs ``verify_pairs`` kept, the ``(pair_id, reason)`` of each it
    rejected, and the ids it kept unverified or revised. ``requests`` counts
    the reviewer POSTs made, and ``retries`` those that re-sent a failed one."""

    def __init__(self) -> None:
        self.kept: list[InstructionResponsePair] = []
        self.rejected: list[tuple[str, str]] = []
        self.unverified: set[str] = set()
        self.revised: set[str] = set()
        self.requests = 0
        self.retries = 0


_FAMILY_OF_TRUTH = {
    Numeric: (
        Subtask.DISTANCE,
        Subtask.INSTANCE_NUMBER,
        Subtask.SPEEDS,
        Subtask.MOTION_EGO,
        Subtask.MOTION_OTHERS,
    ),
    Label: (
        Subtask.CLOSEST,
        Subtask.STATUS,
        Subtask.SAME_ROAD,
        Subtask.STATUS_EGO,
        Subtask.STATUS_OTHERS,
    ),
    DetectionList: RISK_SUBTASKS,
    FreeText: (Subtask.PLANNING_WITH_REASONING,),
}


def _truth_fits_subtask(pair: InstructionResponsePair) -> bool:
    return pair.subtask in _FAMILY_OF_TRUTH.get(type(pair.ground_truth), ())


def _window_reason(db: SceneDatabase, scene_id: str, *frame_ids: str) -> str | None:
    """Reason three frames are not a window of the scene ``scene_id`` in
    ``db``, or None when they are."""
    for frame_id in frame_ids:
        if frame_id not in db.frames:
            return f"pair references unknown frame {frame_id!r}"
    if not db.are_consecutive(*frame_ids):
        return "pair frames are not consecutive keyframes of one scene"
    actual = db.scene_of_frame(frame_ids[0]).scene_id
    if actual != scene_id:
        return f"pair frames belong to scene {actual!r}, not {scene_id!r}"
    return None


def offline_check(
    pair: InstructionResponsePair,
    db: SceneDatabase | None = None,
    windows: dict[tuple[str, ...], str | None] | None = None,
) -> str | None:
    """Reason the pair breaks a format rule, or None when it is clean.

    ``windows``, if given, holds the window check against ``db`` of each
    ``(scene_id, *frame_ids)`` already checked with it, and gains this
    pair's, so pairs of one window share one check."""
    if len(pair.frame_ids) != 3:
        return "pair must reference exactly three frames"
    if db is not None:
        window = (pair.scene_id, *pair.frame_ids)
        windows = {} if windows is None else windows
        if window not in windows:
            windows[window] = _window_reason(db, *window)
        if (reason := windows[window]) is not None:
            return reason
    if not _truth_fits_subtask(pair):
        return f"ground truth type does not fit subtask {pair.subtask.value}"
    truth = pair.ground_truth
    if isinstance(truth, Numeric):
        if any(not math.isfinite(v) for v in truth.values):
            return "ground truth contains a non-finite value"
        found = extract_numbers(pair.response)
        if len(found) < len(truth.values):
            return (
                f"response has {len(found)} parseable numbers, "
                f"needs {len(truth.values)}"
            )
        if any(not math.isfinite(v) for v in found[: len(truth.values)]):
            return "response numbers are not finite"
    elif isinstance(truth, Label):
        if not truth.value:
            return "empty reference label"
        mentions = count_mentions(tokenize(pair.response), tokenize(truth.value))
        if mentions != 1:
            return f"response mentions the reference label {mentions} times, needs exactly 1"
    elif isinstance(truth, DetectionList):
        if pair.thresholds_used is None:
            return "risk pair is missing its thresholds"
        if not truth.items and pair.response != "No.":
            return "empty detection list requires the response 'No.'"
        if truth.items and pair.response == "No.":
            return "non-empty detection list contradicts the response 'No.'"
        for det in truth.items:
            if det.view is View.ALL:
                return "detections must name a concrete view"
            box = det.bbox
            if not (
                0.0 <= box.x1 < box.x2 <= IMAGE_WIDTH and 0.0 <= box.y1 < box.y2 <= IMAGE_HEIGHT
            ):
                return "detection box leaves the image bounds"
            if not det.instance_id:
                return "detection references an empty instance id"
            # A risk hit is a row of the window's current frame.
            if db is not None and db.instance_at_frame(det.instance_id, pair.frame_ids[1]) is None:
                return (
                    f"detection references unknown instance {det.instance_id!r} "
                    f"at the current frame {pair.frame_ids[1]!r}"
                )
            if format_grounding(det.view, det.bbox) not in pair.response:
                return "response does not mention every detection"
    elif isinstance(truth, FreeText):
        if pair.thresholds_used is None:
            return "planning pair is missing its thresholds"
        if pair.response != truth.text:
            return "free text ground truth must equal the response"
    return None


def _post_json(url: str, payload: dict[str, Any]) -> Any:
    import urllib.request

    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    with urllib.request.urlopen(request, timeout=REVIEW_TIMEOUT_S) as response:
        return decode_json(response.read().decode("utf-8"))


def _consult_external(endpoint: str, pair: InstructionResponsePair) -> tuple[Any, int]:
    """The reviewer's decoded reply, or None once every attempt failed, and
    the number of attempts made. A reply that is not JSON, holds ``NaN`` or
    an infinity, or nests too deeply fails its attempt."""
    import http.client
    import urllib.error

    payload = {
        "pair_id": pair.pair_id,
        "instruction": pair.instruction,
        "response": pair.response,
        "subtask": pair.subtask.value,
        "ground_truth": _PAIR_FIELDS["ground_truth"].save(pair.ground_truth),
    }
    for attempt in range(REVIEW_RETRIES + 1):
        try:
            return _post_json(endpoint, payload), attempt + 1
        except (urllib.error.URLError, http.client.HTTPException, OSError, ValueError):
            if attempt < REVIEW_RETRIES:
                time.sleep(RETRY_BACKOFF_S * 2**attempt)
    return None, REVIEW_RETRIES + 1


def _consult_in_order(
    endpoint: str, pairs: list[InstructionResponsePair]
) -> Iterator[tuple[InstructionResponsePair, Any, int]]:
    """Each pair with its ``_consult_external`` reply and attempt count, in
    input order, with up to ``MAX_IN_FLIGHT`` requests in flight.

    At most ``4 * MAX_IN_FLIGHT`` requests are queued or waiting to be read,
    so memory does not grow with the number of pairs.
    """
    from concurrent.futures import Future, ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT) as pool:
        pending: deque[tuple[InstructionResponsePair, Future[tuple[Any, int]]]] = deque()
        for pair in pairs:
            if len(pending) == 4 * MAX_IN_FLIGHT:
                done, future = pending.popleft()
                yield done, *future.result()
            pending.append((pair, pool.submit(_consult_external, endpoint, pair)))
        while pending:
            done, future = pending.popleft()
            yield done, *future.result()


def verify_pairs(
    pairs: Iterable[InstructionResponsePair],
    endpoint: str | None = None,
    db: SceneDatabase | None = None,
) -> VerificationResult:
    """Apply offline format rules, then the reviewer at ``endpoint`` if one is given.

    A pair that fails an offline rule is rejected with a reason. The
    reviewer gets up to ``MAX_IN_FLIGHT`` requests at once, but verdicts are
    applied in input order, so the result does not depend on reply timing.
    A revised pair must pass the offline rules again, or it is rejected. A
    pair whose reply ``_REPLY`` refuses, or whose reviewer stays unreachable
    through all retries, is kept and flagged unverified.
    """
    result = VerificationResult()
    windows: dict[tuple[str, ...], str | None] = {}
    survivors: list[InstructionResponsePair] = []
    for pair in pairs:
        reason = offline_check(pair, db, windows)
        if reason is None:
            survivors.append(pair)
        else:
            result.rejected.append((pair.pair_id, f"format contract: {reason}"))
    if endpoint is None:
        result.kept = survivors
        return result

    for pair, reply, attempts in _consult_in_order(endpoint, survivors):
        result.requests += attempts
        result.retries += attempts - 1
        try:
            # An unreachable reviewer leaves the reply None, which is refused
            # like any other reply that is not an object.
            verdict, text = _REPLY(reply)
        except AnnotationSchemaError:
            result.unverified.add(pair.pair_id)
            result.kept.append(pair)
            continue
        if verdict == "drop":
            result.rejected.append((pair.pair_id, text))
            continue
        if verdict == "revise":
            truth = FreeText(text) if isinstance(pair.ground_truth, FreeText) else pair.ground_truth
            pair = pair._replace(response=text, ground_truth=truth)
            reason = offline_check(pair, db, windows)
            if reason is not None:
                result.rejected.append(
                    (pair.pair_id, f"format contract: revised response: {reason}")
                )
                continue
            result.revised.add(pair.pair_id)
        result.kept.append(pair)
    return result
