"""Descriptive statistics over a generated dataset and its scene database."""

from __future__ import annotations

import csv
import io
from collections import Counter
from typing import Any, Iterable, NamedTuple, Sequence

from .generation import InstructionResponsePair
from .scene_db import REAL_VIEWS, SceneDatabase, View
from .task_sql import Subtask, Task

__all__ = [
    "DatasetStats",
    "average_instances_per_keyframe",
    "compute_stats",
    "view_percent_csv",
]


def average_instances_per_keyframe(appearances: int, keyframes: int) -> float:
    """Mean number of instance observations per annotated keyframe."""
    if keyframes <= 0:
        raise ValueError("keyframes must be positive")
    if appearances < 0:
        raise ValueError("appearances must be non-negative")
    return appearances / keyframes


class DatasetStats(NamedTuple):
    pairs_total: int
    pairs_per_subtask: dict[Subtask, int]
    task_proportions: dict[Task, float]
    responses_per_view: dict[View, int]
    view_percent_per_task: dict[Task, dict[View, float]]
    instances_total: int
    instance_appearances: int
    keyframes: int
    avg_instances_per_keyframe: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "pairs_total": self.pairs_total,
            "pairs_per_subtask": {s.value: n for s, n in self.pairs_per_subtask.items()},
            "task_proportions": {t.value: p for t, p in self.task_proportions.items()},
            "responses_per_view": {v.value: n for v, n in self.responses_per_view.items()},
            "view_percent_per_task": {
                t.value: {v.value: p for v, p in row.items()}
                for t, row in self.view_percent_per_task.items()
            },
            "instances_total": self.instances_total,
            "instance_appearances": self.instance_appearances,
            "keyframes": self.keyframes,
            "avg_instances_per_keyframe": self.avg_instances_per_keyframe,
        }


def compute_stats(
    pairs: Sequence[InstructionResponsePair], db: SceneDatabase
) -> DatasetStats:
    """Aggregate counts and proportions for a pair corpus over its database.

    Every frame a pair references must resolve in the database; a dangling
    reference raises the usual lookup error. View counts attribute each
    pair to every view it used.
    """
    per_subtask: Counter[Subtask] = Counter()
    per_task: Counter[Task] = Counter()
    per_view: Counter[View] = Counter()
    task_view: dict[Task, Counter[View]] = {task: Counter() for task in Task}
    for pair in pairs:
        for frame_id in pair.frame_ids:
            db.frame(frame_id)
        per_subtask[pair.subtask] += 1
        task = pair.subtask.task
        per_task[task] += 1
        for view in pair.views_used:
            per_view[view] += 1
            task_view[task][view] += 1

    total = len(pairs)
    proportions = {
        task: (per_task[task] / total if total else 0.0) for task in Task
    }
    percent_matrix: dict[Task, dict[View, float]] = {}
    for task in Task:
        row_total = sum(task_view[task].values())
        percent_matrix[task] = {
            view: (100.0 * task_view[task][view] / row_total if row_total else 0.0)
            for view in REAL_VIEWS
        }

    appearances = len(db.instances)
    distinct_instances = {info.instance_id for info in db.instances.values()}
    return DatasetStats(
        pairs_total=total,
        pairs_per_subtask={s: per_subtask[s] for s in Subtask},
        task_proportions=proportions,
        responses_per_view={v: per_view[v] for v in REAL_VIEWS},
        view_percent_per_task=percent_matrix,
        instances_total=len(distinct_instances),
        instance_appearances=appearances,
        keyframes=len(db.frames),
        avg_instances_per_keyframe=average_instances_per_keyframe(
            appearances, len(db.frames)
        )
        if db.frames
        else 0.0,
    )


def view_percent_csv(stats: DatasetStats) -> str:
    """Render the per-task view percentage matrix as CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["task", *[view.value for view in REAL_VIEWS]])
    for task in Task:
        row = stats.view_percent_per_task.get(task, {})
        writer.writerow(
            [task.value, *[f"{row.get(view, 0.0):.2f}" for view in REAL_VIEWS]]
        )
    return buffer.getvalue()
