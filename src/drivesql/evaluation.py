"""Scoring of model predictions against generated pairs.

Four metric families: mean absolute error over extracted numbers, label
accuracy by containment, mean average precision over grounded detections,
and corpus BLEU for free-text plans. A deterministic scene-level splitter
rounds out the toolbox.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import accumulate, count, repeat
from operator import sub, truediv
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .canonical import collector_paused, read_jsonl, write_jsonl
from .errors import UndefinedScore
from .generation import (
    DetectionList,
    InstructionResponsePair,
    Label,
    Numeric,
    _truth_fits_subtask,
)
from .scene_db import (
    BBox2D,
    View,
    _array,
    _as_any_view,
    _as_bbox,
    _as_float,
    _as_text,
    _object,
    _optional,
)
from .task_sql import RISK_SUBTASKS, Subtask, Task
from .textutil import count_mentions, extract_numbers, tokenize

__all__ = [
    "extract_numbers",
    "MaeResult",
    "mae",
    "accuracy",
    "iou",
    "RankedDetection",
    "ReferenceBox",
    "average_precision",
    "map_score",
    "bleu",
    "clipped_ngram_counts",
    "Split",
    "split_dataset",
    "DetectionPred",
    "Prediction",
    "MetricReport",
    "evaluate",
    "predictions_from_pairs",
    "read_predictions_jsonl",
    "write_predictions_jsonl",
]

# Overlap a detection needs with a reference box to count as a hit, and the
# longest n-gram BLEU scores; the paper's box-overlap and BLEU-4 definitions.
IOU_THRESHOLD = 0.5
BLEU_ORDER = 4

# Built-in candidate labels per label subtask; reference labels seen in the
# evaluation corpus are always added on top.
_BUILTIN_LABELS: dict[Subtask, frozenset[str]] = {
    Subtask.SAME_ROAD: frozenset({"yes", "no"}),
    Subtask.STATUS_EGO: frozenset({"moving", "stationary"}),
    Subtask.STATUS: frozenset({"moving", "stopped", "parked", "standing", "sitting"}),
    Subtask.STATUS_OTHERS: frozenset({"moving", "stopped", "parked", "standing", "sitting"}),
    Subtask.CLOSEST: frozenset(),
}


# ------------------------------------------------------------------- numbers


class MaeResult(NamedTuple):
    value: float
    extraction_failure_rate: float
    scored: int
    failed: int


def _abs_errors(
    predictions: Sequence[str], references: Sequence[Sequence[float]]
) -> tuple[list[float], int]:
    """Per-pair mean absolute errors of the scorable pairs, plus the failures."""
    if len(predictions) != len(references):
        raise ValueError("predictions and references must align one to one")
    per_pair: list[float] = []
    failed = 0
    for text, refs in zip(predictions, references):
        k = len(refs)
        if not k:
            raise ValueError("reference value lists must be non-empty")
        found = extract_numbers(text)
        if len(found) < k or not all(map(math.isfinite, found[:k])):
            failed += 1
            continue
        per_pair.append(sum(map(abs, map(sub, found, refs))) / k)
    return per_pair, failed


def mae(predictions: Sequence[str], references: Sequence[Sequence[float]]) -> MaeResult:
    """Mean absolute error between extracted numbers and references.

    Per pair, the first k extracted numbers align with the k reference
    values. Pairs with fewer numbers are excluded and counted into the
    extraction failure rate. With nothing scorable the MAE is undefined.
    """
    per_pair, failed = _abs_errors(predictions, references)
    if not per_pair:
        raise UndefinedScore("no pair yielded enough numbers to score")
    return MaeResult(
        value=sum(per_pair) / len(per_pair),
        extraction_failure_rate=failed / len(predictions),
        scored=len(per_pair),
        failed=failed,
    )


# -------------------------------------------------------------------- labels


def accuracy(
    predictions: Sequence[str],
    references: Sequence[str],
    label_set: Iterable[str] | None = None,
) -> float:
    """Fraction of predictions containing exactly the reference label.

    A prediction is correct when, across the candidate label set, it
    mentions exactly one label exactly once, and that label equals the
    reference. Matching is case-insensitive on whitespace-normalized
    tokens. Each candidate label is tokenized once per call, and each
    prediction once.
    """
    if len(predictions) != len(references):
        raise ValueError("predictions and references must align one to one")
    if not references:
        raise UndefinedScore("no labelled pairs to score")
    labels = {r.lower() for r in references}
    if label_set is not None:
        labels |= {l.lower() for l in label_set}
    needles = {label: tokenize(label) for label in labels}
    # The other labels of each reference, whose mentions make a prediction wrong.
    others = {label: [n for other, n in needles.items() if other != label] for label in labels}
    correct = 0
    for text, ref in zip(predictions, references):
        ref = ref.lower()
        tokens = tokenize(text)
        if count_mentions(tokens, needles[ref]) == 1 and not any(
            count_mentions(tokens, needle) for needle in others[ref]
        ):
            correct += 1
    return correct / len(references)


# ---------------------------------------------------------------- detections


def iou(a: BBox2D, b: BBox2D) -> float:
    """Intersection over union of two pixel boxes."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    # Conditional expressions rather than min and max: this runs for every
    # detection against every reference box of its pair and view.
    ix = (ax2 if ax2 < bx2 else bx2) - (ax1 if ax1 > bx1 else bx1)
    iy = (ay2 if ay2 < by2 else by2) - (ay1 if ay1 > by1 else by1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


class RankedDetection(NamedTuple):
    pair_id: str
    view: View
    bbox: BBox2D
    score: float


class ReferenceBox(NamedTuple):
    pair_id: str
    view: View
    bbox: BBox2D


def average_precision(
    detections: Sequence[RankedDetection],
    references: Sequence[ReferenceBox],
) -> float:
    """Area under the all-point interpolated precision-recall curve.

    Detections rank by descending score, ties broken by pair id and then
    input order. A detection is a true positive when it overlaps an
    unmatched reference in the same pair and view at or above
    ``IOU_THRESHOLD``; among candidates the highest overlap wins.
    """
    if not references:
        raise UndefinedScore("average precision needs at least one reference")
    ranked = sorted(
        enumerate(detections), key=lambda item: (-item[1].score, item[1].pair_id, item[0])
    )
    boxes = [ref.bbox for ref in references]
    by_group: dict[tuple[str, View], list[int]] = {}
    for idx, ref in enumerate(references):
        by_group.setdefault((ref.pair_id, ref.view), []).append(idx)
    matched: set[int] = set()
    flags: list[bool] = []
    for _, det in ranked:
        best_idx = -1
        best_overlap = 0.0
        for ref_idx in by_group.get((det.pair_id, det.view), ()):
            if ref_idx in matched:
                continue
            overlap = iou(det.bbox, boxes[ref_idx])
            if overlap >= IOU_THRESHOLD and overlap > best_overlap:
                best_idx, best_overlap = ref_idx, overlap
        if best_idx >= 0:
            matched.add(best_idx)
        flags.append(best_idx >= 0)
    # True positives after each ranked detection; all-point interpolation
    # with boundary sentinels.
    tps = list(accumulate(flags))
    n_refs = len(references)
    mrec = [0.0, *(tp / n_refs for tp in tps), 1.0]
    mpre = [0.0, *map(truediv, tps, count(1)), 0.0]
    mpre = list(accumulate(reversed(mpre), max))[::-1]
    return sum(
        (rec - prev) * pre for prev, rec, pre in zip(mrec, mrec[1:], mpre[1:]) if rec != prev
    )


def map_score(
    detections_by_kind: Mapping[Subtask, Sequence[RankedDetection]],
    references_by_kind: Mapping[Subtask, Sequence[ReferenceBox]],
) -> float:
    """Mean AP over the risk kinds that have at least one reference."""
    scores = []
    for kind in RISK_SUBTASKS:
        refs = references_by_kind.get(kind, ())
        if not refs:
            continue
        scores.append(average_precision(detections_by_kind.get(kind, ()), refs))
    if not scores:
        raise UndefinedScore("no risk kind has any reference detection")
    return sum(scores) / len(scores)


# ---------------------------------------------------------------------- bleu


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    """The n-grams of ``tokens`` by count; unigrams are keyed by the token itself."""
    return Counter(tokens if n == 1 else zip(*(tokens[i:] for i in range(n))))


def _clipped_counts(
    cand_tokens: Sequence[list[str]], ref_tokens: Sequence[list[str]], n: int
) -> tuple[int, int]:
    """``clipped_ngram_counts`` over texts already tokenized."""
    matches = 0
    total = 0
    for cand, ref in zip(cand_tokens, ref_tokens):
        if len(cand) < n:
            continue
        cand_counts = _ngram_counts(cand, n)
        in_ref = map(_ngram_counts(ref, n).get, cand_counts, repeat(0))
        matches += sum(map(min, cand_counts.values(), in_ref))
        total += len(cand) - n + 1
    return matches, total


def clipped_ngram_counts(
    candidates: Sequence[str], references: Sequence[str], n: int
) -> tuple[int, int]:
    """Corpus-level clipped n-gram matches and candidate n-gram total; each
    text is tokenized once."""
    return _clipped_counts(
        [tokenize(c) for c in candidates], [tokenize(r) for r in references], n
    )


def bleu(
    candidates: Sequence[str],
    references: Sequence[str],
    smooth: bool = False,
) -> float:
    """Corpus BLEU with uniform weights up to ``BLEU_ORDER``-grams.

    Precisions clip per n-gram against the single reference, the brevity
    penalty is exp(1 - r/c) when the candidate corpus is shorter, and any
    zero precision floors the score at zero unless add-one smoothing is on.
    Orders longer than every candidate are treated as perfectly matched so
    that scoring a corpus against itself is exactly 1. Each text is
    tokenized once, and its lengths and every order's n-grams come from
    that one token list.
    """
    if len(candidates) != len(references):
        raise ValueError("candidates and references must align one to one")
    if not candidates:
        raise UndefinedScore("cannot score an empty corpus")
    cand_tokens = [tokenize(c) for c in candidates]
    ref_tokens = [tokenize(r) for r in references]
    cand_len = sum(map(len, cand_tokens))
    ref_len = sum(map(len, ref_tokens))
    if cand_len == 0:
        return 1.0 if ref_len == 0 else 0.0
    log_sum = 0.0
    for n in range(1, BLEU_ORDER + 1):
        matches, total = _clipped_counts(cand_tokens, ref_tokens, n)
        if smooth:
            matches, total = matches + 1, total + 1
        if total == 0:
            continue  # no candidate n-grams of this order to get wrong
        if matches == 0:
            return 0.0
        log_sum += math.log(matches / total) / BLEU_ORDER
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_sum)


# --------------------------------------------------------------------- split


class Split(NamedTuple):
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]


def split_dataset(
    scene_ids: Iterable[str],
    ratios: tuple[float, float, float] = (7.5, 1.5, 1.5),
    seed: int = 0,
) -> Split:
    """Deterministic scene-level split.

    The sorted id list is shuffled with the seed, sizes come from the
    normalized ratios by floor plus largest remainder (ties resolved in
    train, val, test order), and the shuffled list is sliced in that order.
    """
    ids = sorted(scene_ids)
    if not ids:
        raise ValueError("cannot split an empty id list")
    if len(set(ids)) != len(ids):
        raise ValueError("scene ids must be unique")
    total = sum(ratios)
    if any(r < 0 for r in ratios) or not 0 < total < math.inf:
        raise ValueError(f"ratios must be non-negative with a positive finite sum, got {ratios!r}")
    rng = random.Random(seed)
    rng.shuffle(ids)
    quotas = [len(ids) * r / total for r in ratios]
    sizes = [math.floor(q) for q in quotas]
    leftover = len(ids) - sum(sizes)
    order = sorted(range(3), key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in order[:leftover]:
        sizes[i] += 1
    train = tuple(ids[: sizes[0]])
    val = tuple(ids[sizes[0] : sizes[0] + sizes[1]])
    test = tuple(ids[sizes[0] + sizes[1] :])
    return Split(train=train, val=val, test=test)


# ----------------------------------------------------------------- evaluate


class DetectionPred(NamedTuple):
    view: View
    bbox: BBox2D
    score: float


class Prediction(NamedTuple):
    """One model answer; detections only accompany risk subtasks."""

    pair_id: str
    response_text: str
    detections: tuple[DetectionPred, ...] | None = None


class MetricReport(NamedTuple):
    per_subtask: dict[Subtask, float]
    groups: dict[str, float | None]
    extraction_failure_rate: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "per_subtask": {s.value: v for s, v in self.per_subtask.items()},
            "groups": dict(self.groups),
            "extraction_failure_rate": self.extraction_failure_rate,
        }


@collector_paused()
def evaluate(
    pairs: Sequence[InstructionResponsePair],
    predictions: Sequence[Prediction],
) -> MetricReport:
    """Score predictions against their pairs, worst-casing missing ones.

    A missing prediction counts as an extraction failure, an incorrect
    label, no detections, or an empty plan, depending on the family.
    Duplicate or unknown prediction ids, and pairs whose ground truth type
    does not fit their subtask, are rejected. Scoring allocates a container
    or more per pair, none of them in a cycle, so the collector is paused.
    """
    by_id: dict[str, InstructionResponsePair] = {}
    # Each subtask's pairs, subtasks in order of first appearance; a subtask's
    # ground truth type, and so its metric family, is fixed.
    by_subtask: dict[Subtask, list[InstructionResponsePair]] = {}
    for pair in pairs:
        if pair.pair_id in by_id:
            raise ValueError(f"duplicate pair id {pair.pair_id!r} in the dataset")
        if not _truth_fits_subtask(pair):
            raise ValueError(
                f"pair {pair.pair_id!r}: ground truth type does not fit subtask "
                f"{pair.subtask.value}"
            )
        by_id[pair.pair_id] = pair
        by_subtask.setdefault(pair.subtask, []).append(pair)
    pred_map: dict[str, Prediction] = {}
    for pred in predictions:
        if pred.pair_id in pred_map:
            raise ValueError(f"duplicate prediction for pair {pred.pair_id!r}")
        if pred.pair_id not in by_id:
            raise ValueError(f"prediction references unknown pair {pred.pair_id!r}")
        target = by_id[pred.pair_id]
        if pred.detections is not None and target.subtask not in RISK_SUBTASKS:
            raise ValueError(
                f"prediction for {target.subtask.value} pair {pred.pair_id!r} "
                "must not carry detections"
            )
        pred_map[pred.pair_id] = pred
    text_of = {pair_id: pred.response_text for pair_id, pred in pred_map.items()}

    scores: dict[Subtask, float] = {}
    errors: dict[Subtask, list[float]] = {}
    labelled: dict[Subtask, int] = {}
    failures = 0
    mae_pair_count = 0
    for subtask, members in by_subtask.items():
        texts = [text_of.get(pair.pair_id, "") for pair in members]
        truths = [pair.ground_truth for pair in members]
        family = type(truths[0])
        if family is Numeric:
            errs, failed = _abs_errors(texts, [truth.values for truth in truths])
            errors[subtask] = errs
            failures += failed
            mae_pair_count += len(members)
            if errs:
                scores[subtask] = sum(errs) / len(errs)
        elif family is Label:
            refs = [truth.value for truth in truths]
            scores[subtask] = accuracy(texts, refs, _BUILTIN_LABELS[subtask])
            labelled[subtask] = len(members)
        elif family is DetectionList:
            boxes = [
                ReferenceBox(pair.pair_id, ref.view, ref.bbox)
                for pair in members
                for ref in pair.ground_truth.items
            ]
            if boxes:
                ranked = [
                    RankedDetection(pair.pair_id, det.view, det.bbox, det.score)
                    for pair in members
                    if (pred := pred_map.get(pair.pair_id)) is not None and pred.detections
                    for det in pred.detections
                ]
                scores[subtask] = average_precision(ranked, boxes)
        else:  # FreeText, the plans
            scores[subtask] = bleu(texts, [truth.text for truth in truths])
    per_subtask = {subtask: scores[subtask] for subtask in Subtask if subtask in scores}

    # Groups reuse the per-subtask numbers, so each score is computed once.
    groups: dict[str, float | None] = {}
    for task in (Task.PERCEPTION, Task.PREDICTION):
        pooled = [e for s, errs in errors.items() if s.task is task for e in errs]
        groups[f"{task.value}_mae"] = sum(pooled) / len(pooled) if pooled else None
    for task in (Task.PERCEPTION, Task.PREDICTION):
        members = [s for s in labelled if s.task is task]
        # Each pair is judged with its own subtask's label set, then pooled.
        total = sum(labelled[s] for s in members)
        weighted = sum(per_subtask[s] * labelled[s] for s in members)
        groups[f"{task.value}_acc"] = weighted / total if total else None
    aps = [per_subtask[kind] for kind in RISK_SUBTASKS if kind in per_subtask]
    groups["risk_map"] = sum(aps) / len(aps) if aps else None
    groups["reasoning_bleu"] = per_subtask.get(Subtask.PLANNING_WITH_REASONING)

    rate = failures / mae_pair_count if mae_pair_count else 0.0
    return MetricReport(
        per_subtask=per_subtask, groups=groups, extraction_failure_rate=rate
    )


def predictions_from_pairs(pairs: Iterable[InstructionResponsePair]) -> list[Prediction]:
    """Echo every pair's own response and ground truth as a prediction.

    Useful as the round-trip baseline: a perfect model should score
    perfectly against the dataset it was generated from.
    """
    out = []
    for pair in pairs:
        detections = None
        if isinstance(pair.ground_truth, DetectionList):
            detections = tuple(
                DetectionPred(view=d.view, bbox=d.bbox, score=1.0)
                for d in pair.ground_truth.items
            )
        out.append(
            Prediction(pair_id=pair.pair_id, response_text=pair.response, detections=detections)
        )
    return out


# ----------------------------------------------------------------- file I/O


# A predictions line, declared once: the table both reads the line and, in
# ``write_predictions_jsonl``, writes it.
_PREDICTION_LINE = _object(Prediction, {
    "pair_id": _as_text,
    "response_text": _as_text,
    "detections": _optional(_array(_object(DetectionPred, {
        "view": _as_any_view,
        "bbox": _as_bbox,
        "score": _as_float,
    }))),
})


def read_predictions_jsonl(path: str | Path) -> list[Prediction]:
    """The predictions of a JSONL file; a repeated ``pair_id`` is refused."""
    return read_jsonl(path, _PREDICTION_LINE)


def write_predictions_jsonl(preds: Iterable[Prediction], path: str | Path) -> None:
    write_jsonl(path, map(_PREDICTION_LINE.save, preds))
