import hashlib
import json
import math
import random

import pytest

from drivesql import evaluation, textutil
from drivesql.canonical import canonical_dumps
from drivesql.errors import UndefinedScore
from drivesql.evaluation import (
    DetectionPred,
    MetricReport,
    Prediction,
    RankedDetection,
    ReferenceBox,
    accuracy,
    average_precision,
    bleu,
    clipped_ngram_counts,
    evaluate,
    iou,
    mae,
    map_score,
    predictions_from_pairs,
    read_predictions_jsonl,
    split_dataset,
    write_predictions_jsonl,
)
from drivesql.evaluation import _BUILTIN_LABELS
from drivesql.generation import DetectionList, FreeText, Label, Numeric
from drivesql.scene_db import BBox2D, View
from drivesql.task_sql import RISK_SUBTASKS, Subtask
from drivesql.textutil import extract_numbers

from _oracles import (
    accuracy_oracle,
    ap_oracle,
    bleu_oracle,
    iou_oracle,
    mae_oracle,
    split_sizes_oracle,
)


# ------------------------------------------------------------------ numbers


def test_extract_numbers_examples():
    assert extract_numbers("The car is 12.5m ahead, moving at -3 m/s") == [12.5, -3.0]
    assert extract_numbers("(3.0, 4.0)") == [3.0, 4.0]
    assert extract_numbers("no digits at all") == []
    assert extract_numbers("+7 then 0.25") == [7.0, 0.25]


def test_mae_single_pair():
    result = mae(["7.0"], [[5.0]])
    assert result.value == 2.0
    assert result.extraction_failure_rate == 0.0
    assert result.scored == 1 and result.failed == 0


def test_mae_first_k_alignment():
    result = mae(["(1.0, 2.0, 99.0)"], [[1.5, 2.5]])
    assert result.value == pytest.approx(0.5, abs=1e-12)


def test_mae_insufficient_numbers_excluded():
    result = mae(["nothing", "(3.0, 4.0)"], [[1.0], [3.0, 4.0]])
    assert result.value == 0.0
    assert result.failed == 1 and result.scored == 1
    assert result.extraction_failure_rate == 0.5


def test_mae_undefined_when_nothing_scorable():
    with pytest.raises(UndefinedScore):
        mae(["nope", "still nope"], [[1.0], [2.0]])


def test_mae_rejects_misaligned_inputs():
    with pytest.raises(ValueError):
        mae(["1"], [[1.0], [2.0]])


def test_mae_perturbation_oracle():
    rng = random.Random(99)
    texts, refs, expected = [], [], []
    for _ in range(300):
        ref = [rng.uniform(-30, 30) for _ in range(2)]
        noise = [rng.uniform(-0.05, 0.05) for _ in range(2)]
        rendered = [f"{r + e:.6f}" for r, e in zip(ref, noise)]
        texts.append(f"({rendered[0]}, {rendered[1]})")
        refs.append(ref)
        expected.append(
            sum(abs(float(s) - r) for s, r in zip(rendered, ref)) / 2
        )
    result = mae(texts, refs)
    assert result.value == pytest.approx(sum(expected) / len(expected), abs=1e-12)
    assert result.value <= 0.051


def _random_number_text(rng):
    """Numbers among words and punctuation: signs, fractions, exponents that
    split, dots that end nothing, and now and then one too large for a float."""
    parts = []
    for _ in range(rng.randint(0, 5)):
        parts.append(rng.choice([
            f"{rng.uniform(-50, 50):.{rng.randint(0, 3)}f}",
            f"+{rng.randint(0, 99)}",
            f"{rng.randint(1, 9)}e{rng.randint(1, 5)}",
            f"{rng.randint(0, 9)}.",
            "-.",
            "m/s",
            "ahead,",
            "9" * 400 if rng.random() < 0.1 else "(",
        ]))
    return rng.choice([" ", ", ", ""]).join(parts)


def test_mae_matches_oracle():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 8)
        texts = [_random_number_text(rng) for _ in range(n)]
        refs = [[rng.uniform(-30, 30) for _ in range(rng.randint(1, 3))] for _ in range(n)]
        value, rate, scored, failed = mae_oracle(texts, refs)
        if value is None:
            with pytest.raises(UndefinedScore):
                mae(texts, refs)
            continue
        result = mae(texts, refs)
        assert result.value == pytest.approx(value, rel=1e-12, abs=1e-12)
        assert (result.extraction_failure_rate, result.scored, result.failed) == (
            rate, scored, failed
        )


# ------------------------------------------------------------------- labels


def test_accuracy_exact_single_mention():
    assert accuracy(["Yes."], ["yes"], {"yes", "no"}) == 1.0
    assert accuracy(["yes or no"], ["yes"], {"yes", "no"}) == 0.0
    assert accuracy(["yes yes"], ["yes"], {"yes", "no"}) == 0.0
    assert accuracy(["no"], ["yes"], {"yes", "no"}) == 0.0


def test_accuracy_case_and_punctuation():
    assert accuracy(["It is MOVING."], ["moving"], {"moving", "stopped"}) == 1.0


def test_accuracy_reference_labels_always_candidates():
    assert accuracy(["a car ahead"], ["car"]) == 1.0
    assert accuracy(["a car and a truck"], ["car"], {"truck"}) == 0.0


def test_accuracy_corruption_oracle():
    rng = random.Random(5)
    labels = ["moving", "stopped"]
    n = 200
    refs = [rng.choice(labels) for _ in range(n)]
    preds = []
    flipped = 0
    for i, ref in enumerate(refs):
        if i < n // 4:
            other = "stopped" if ref == "moving" else "moving"
            preds.append(f"It will be {other}.")
            flipped += 1
        else:
            preds.append(f"It will be {ref}.")
    score = accuracy(preds, refs, {"moving", "stopped"})
    assert score == (n - flipped) / n == 0.75


# Candidate labels with several tokens, one a token prefix of another, one
# with no token at all, and written with mixed case and punctuation.
_LABELS = ["moving", "Stopped", "parked", "parked car", "Traffic-Cone", "cone", "yes", "no", "--"]


def _random_response(rng):
    words = _LABELS + ["the", "car", "is", "not", "traffic", "It", "PARKED", "cone."]
    if rng.random() < 0.1:
        return rng.choice(["", "...", "  "])
    seps = [" ", ", ", "; ", "! ", " -- "]
    return "".join(rng.choice(words) + rng.choice(seps) for _ in range(rng.randint(1, 7)))


def test_accuracy_matches_oracle():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 10)
        refs = [rng.choice(_LABELS + ["CAR", "traffic cone"]) for _ in range(n)]
        preds = [_random_response(rng) for _ in range(n)]
        # A prediction that is exactly its reference, repeated or not.
        for i in range(n):
            if rng.random() < 0.3:
                preds[i] = " ".join([refs[i].upper()] * rng.choice([1, 1, 2]))
        label_set = None if rng.random() < 0.2 else set(rng.sample(_LABELS, rng.randint(0, 5)))
        assert accuracy(preds, refs, label_set) == accuracy_oracle(preds, refs, label_set)


def test_accuracy_labels_with_several_tokens():
    labels = {"parked", "parked car"}
    assert accuracy(["A parked car."], ["parked car"], labels) == 0.0  # "parked" too
    assert accuracy(["A PARKED-car."], ["parked car"], {"car park"}) == 1.0
    assert accuracy(["parked car, parked car"], ["parked car"]) == 0.0
    assert accuracy([""], ["parked car"], labels) == 0.0


def test_accuracy_undefined_on_empty():
    with pytest.raises(UndefinedScore):
        accuracy([], [])


# --------------------------------------------------------------- detections


def test_iou_basic():
    a = BBox2D(0, 0, 2, 2)
    assert iou(a, a) == 1.0
    assert iou(a, BBox2D(10, 10, 12, 12)) == 0.0
    assert iou(a, BBox2D(1, 0, 3, 2)) == pytest.approx(1 / 3, abs=1e-12)


def test_iou_matches_oracle_on_disjoint_touching_and_nested_boxes():
    rng = random.Random(53)
    for _ in range(2000):
        # Coordinates on a coarse grid, so boxes often share an edge or a corner.
        x1, y1, x2, y2 = (rng.randint(0, 8) for _ in range(4))
        a = BBox2D(x1, y1, x1 + rng.randint(1, 4), y1 + rng.randint(1, 4))
        b = BBox2D(x2, y2, x2 + rng.randint(1, 4), y2 + rng.randint(1, 4))
        assert iou(a, b) == iou_oracle(a, b) == iou(b, a)


BOX = BBox2D(0.0, 0.0, 10.0, 10.0)
FAR = BBox2D(500.0, 500.0, 600.0, 600.0)


def test_average_precision_one_tp_one_fp():
    refs = [ReferenceBox("p1", View.FRONT, BOX), ReferenceBox("p2", View.FRONT, BOX)]
    dets = [
        RankedDetection("p1", View.FRONT, BOX, 0.9),
        RankedDetection("p1", View.FRONT, FAR, 0.8),
    ]
    assert average_precision(dets, refs) == pytest.approx(0.5, abs=1e-12)


def test_average_precision_duplicate_hits_same_reference():
    refs = [ReferenceBox("p1", View.FRONT, BOX)]
    dets = [
        RankedDetection("p1", View.FRONT, BOX, 0.9),
        RankedDetection("p1", View.FRONT, BOX, 0.8),
    ]
    assert average_precision(dets, refs) == pytest.approx(1.0, abs=1e-12)


def test_average_precision_view_must_match():
    refs = [ReferenceBox("p1", View.FRONT, BOX)]
    dets = [RankedDetection("p1", View.BACK, BOX, 0.9)]
    assert average_precision(dets, refs) == 0.0


def test_average_precision_no_detections():
    refs = [ReferenceBox("p1", View.FRONT, BOX)]
    assert average_precision([], refs) == 0.0


def test_average_precision_needs_references():
    with pytest.raises(UndefinedScore):
        average_precision([RankedDetection("p1", View.FRONT, BOX, 0.9)], [])


def _random_detection_corpus(rng, n_pairs=6, n_refs=8, n_dets=12):
    views = [View.FRONT, View.BACK, View.FRONT_LEFT]
    pair_ids = [f"p{k}" for k in range(n_pairs)]

    def box():
        x1 = rng.uniform(0, 800)
        y1 = rng.uniform(0, 400)
        return BBox2D(x1, y1, x1 + rng.uniform(5, 300), y1 + rng.uniform(5, 200))

    refs = [ReferenceBox(rng.choice(pair_ids), rng.choice(views), box()) for _ in range(n_refs)]
    dets = []
    for _ in range(n_dets):
        if rng.random() < 0.5 and refs:
            target = rng.choice(refs)
            jitter = rng.uniform(0, 40)
            b = BBox2D(
                target.bbox.x1 + jitter,
                target.bbox.y1,
                target.bbox.x2 + jitter,
                target.bbox.y2,
            )
            dets.append(RankedDetection(target.pair_id, target.view, b, rng.random()))
        else:
            dets.append(RankedDetection(rng.choice(pair_ids), rng.choice(views), box(), rng.random()))
    return dets, refs


def _as_tuples(dets, refs):
    d = [(x.pair_id, x.view.value, (x.bbox.x1, x.bbox.y1, x.bbox.x2, x.bbox.y2), x.score) for x in dets]
    r = [(x.pair_id, x.view.value, (x.bbox.x1, x.bbox.y1, x.bbox.x2, x.bbox.y2)) for x in refs]
    return d, r


def test_average_precision_matches_oracle():
    rng = random.Random(17)
    for _ in range(50):
        dets, refs = _random_detection_corpus(rng)
        got = average_precision(dets, refs)
        d, r = _as_tuples(dets, refs)
        assert got == pytest.approx(ap_oracle(d, r), abs=1e-9)


def test_average_precision_monotonicity():
    rng = random.Random(23)
    for _ in range(20):
        dets, refs = _random_detection_corpus(rng)
        base = average_precision(dets, refs)
        lowest = min((d.score for d in dets), default=1.0)
        with_fp = dets + [RankedDetection("zz_new", View.FRONT, FAR, lowest - 0.1)]
        assert average_precision(with_fp, refs + [ReferenceBox("zz_new", View.BACK, BOX)]) <= base + 1e-12
        top = max((d.score for d in dets), default=0.0)
        extra_ref = ReferenceBox("aa_new", View.FRONT, BOX)
        with_tp = dets + [RankedDetection("aa_new", View.FRONT, BOX, top + 1.0)]
        assert average_precision(with_tp, refs + [extra_ref]) >= average_precision(dets, refs + [extra_ref]) - 1e-12


def test_average_precision_input_order_invariant():
    refs = [ReferenceBox("p1", View.FRONT, BOX), ReferenceBox("p2", View.FRONT, BOX)]
    dets = [
        RankedDetection("p1", View.FRONT, BOX, 0.5),
        RankedDetection("p2", View.FRONT, BOX, 0.5),
    ]
    assert average_precision(dets, refs) == average_precision(dets[::-1], refs)


def test_map_score_means_over_kinds_with_references():
    refs = {k: [] for k in RISK_SUBTASKS}
    dets = {k: [] for k in RISK_SUBTASKS}
    refs[Subtask.BRAKING] = [ReferenceBox("p1", View.FRONT, BOX)]
    dets[Subtask.BRAKING] = [RankedDetection("p1", View.FRONT, BOX, 0.9)]
    refs[Subtask.CROSSING] = [ReferenceBox("p2", View.FRONT, BOX)]
    dets[Subtask.ON_COMING] = [RankedDetection("p3", View.FRONT, BOX, 0.9)]
    assert map_score(dets, refs) == pytest.approx(0.5, abs=1e-12)


def test_map_score_undefined_without_references():
    refs = {k: [] for k in RISK_SUBTASKS}
    dets = {k: [] for k in RISK_SUBTASKS}
    with pytest.raises(UndefinedScore):
        map_score(dets, refs)


# --------------------------------------------------------------------- bleu


def test_clipped_unigram_example():
    cand = "the the the the the the the"
    ref = "the cat is on the mat"
    assert clipped_ngram_counts([cand], [ref], 1) == (2, 7)


def test_bleu_identity_is_one():
    corpus = ["a short line", "another line with more words in it"]
    assert bleu(corpus, corpus) == 1.0
    assert bleu(["hi"], ["hi"]) == 1.0


def test_bleu_zero_without_overlap():
    assert bleu(["dog"], ["cat"]) == 0.0


def test_bleu_brevity_penalty():
    got = bleu(["the cat"], ["the cat sat"])
    assert got == pytest.approx(math.exp(1 - 3 / 2), abs=1e-12)


def test_bleu_smoothing_rescues_sparse_overlap():
    assert bleu(["the cat"], ["the dog"], smooth=True) > 0.0
    assert bleu(["the cat"], ["the dog"]) == 0.0


def _random_sentences(rng, n):
    vocab = ["car", "truck", "slow", "fast", "lane", "merge", "stop", "go", "left", "right"]
    out = []
    for _ in range(n):
        out.append(" ".join(rng.choice(vocab) for _ in range(rng.randint(3, 14))))
    return out


def test_bleu_matches_oracle():
    rng = random.Random(31)
    for _ in range(30):
        refs = _random_sentences(rng, 5)
        cands = [
            ref if rng.random() < 0.4 else " ".join(rng.sample(ref.split(), len(ref.split())))
            for ref in refs
        ]
        for smooth in (False, True):
            got = bleu(cands, refs, smooth=smooth)
            want = bleu_oracle(cands, refs, smooth=smooth)
            assert got == pytest.approx(want, abs=1e-9)


def test_bleu_matches_oracle_on_candidates_shorter_than_the_longest_order():
    rng = random.Random(37)
    for _ in range(60):
        refs = _random_sentences(rng, 5)
        # Candidates of zero to three tokens, with case and punctuation, among longer ones.
        cands = [
            ", ".join(rng.sample(ref.split(), rng.randint(0, 3))).upper()
            if rng.random() < 0.7
            else ref
            for ref in refs
        ]
        for smooth in (False, True):
            got = bleu(cands, refs, smooth=smooth)
            want = bleu_oracle(cands, refs, smooth=smooth)
            assert got == pytest.approx(want, abs=1e-9)


def test_bleu_rejects_misaligned_corpora():
    with pytest.raises(ValueError):
        bleu(["a"], ["a", "b"])


# -------------------------------------------------------------------- split


def test_split_sizes_documented_cases():
    ids_850 = [f"scene_{i:04d}" for i in range(850)]
    split = split_dataset(ids_850)
    assert (len(split.train), len(split.val), len(split.test)) == (607, 122, 121)

    ids_10 = [f"s{i}" for i in range(10)]
    split = split_dataset(ids_10)
    assert (len(split.train), len(split.val), len(split.test)) == (7, 2, 1)


def test_split_sizes_match_apportionment_oracle():
    with pytest.raises(ValueError):
        split_dataset([])
    for n in range(1, 120):
        ids = [f"x{i}" for i in range(n)]
        split = split_dataset(ids)
        want = split_sizes_oracle(n, (7.5, 1.5, 1.5))
        assert (len(split.train), len(split.val), len(split.test)) == tuple(want)


def test_split_partition_properties():
    ids = [f"scene_{i}" for i in range(97)]
    split = split_dataset(ids, seed=4)
    buckets = [set(split.train), set(split.val), set(split.test)]
    assert buckets[0] | buckets[1] | buckets[2] == set(ids)
    assert not (buckets[0] & buckets[1] or buckets[0] & buckets[2] or buckets[1] & buckets[2])


def test_split_deterministic_and_order_free():
    ids = [f"scene_{i}" for i in range(50)]
    a = split_dataset(ids, seed=9)
    shuffled = list(ids)
    random.Random(0).shuffle(shuffled)
    b = split_dataset(shuffled, seed=9)
    assert a == b
    c = split_dataset(ids, seed=10)
    assert a != c


def test_split_ratio_scale_invariance():
    ids = [f"scene_{i}" for i in range(61)]
    assert split_dataset(ids, ratios=(75, 15, 15)) == split_dataset(ids, ratios=(7.5, 1.5, 1.5))


def test_split_rejects_bad_inputs():
    with pytest.raises(ValueError):
        split_dataset(["a", "a"])
    with pytest.raises(ValueError):
        split_dataset(["a"], ratios=(1.0, -1.0, 0.0))


@pytest.mark.parametrize(
    "ratios", [(1.0, 1.0, math.nan), (1.0, 1.0, math.inf), (1e308, 1e308, 1.0)]
)
def test_split_rejects_ratios_without_a_finite_sum(ratios):
    with pytest.raises(ValueError, match="positive finite sum"):
        split_dataset(["a", "b"], ratios=ratios)


# ------------------------------------------------------------ full pipeline


def test_evaluate_round_trip_is_near_perfect(demo_pairs):
    report = evaluate(demo_pairs, predictions_from_pairs(demo_pairs))
    groups = report.groups
    assert groups["perception_acc"] == 1.0
    assert groups["prediction_acc"] == 1.0
    assert groups["risk_map"] == 1.0
    assert groups["reasoning_bleu"] == 1.0
    assert groups["perception_mae"] is not None and groups["perception_mae"] <= 0.05
    assert groups["prediction_mae"] is not None and groups["prediction_mae"] <= 0.05
    assert report.extraction_failure_rate == 0.0


def test_evaluate_missing_predictions_worst_case(demo_pairs):
    report = evaluate(demo_pairs, [])
    groups = report.groups
    assert groups["perception_mae"] is None
    assert groups["perception_acc"] == 0.0
    assert groups["prediction_acc"] == 0.0
    assert groups["risk_map"] == 0.0
    assert groups["reasoning_bleu"] == 0.0
    assert report.extraction_failure_rate == 1.0


def test_evaluate_rejects_duplicates_and_strays(demo_pairs):
    preds = predictions_from_pairs(demo_pairs[:3])
    with pytest.raises(ValueError, match="duplicate prediction"):
        evaluate(demo_pairs[:3], preds + [preds[0]])
    with pytest.raises(ValueError, match="unknown pair"):
        evaluate(demo_pairs[:3], [Prediction(pair_id="nope", response_text="x")])
    with pytest.raises(ValueError, match="duplicate pair id"):
        evaluate([demo_pairs[0], demo_pairs[0]], [])


def test_evaluate_rejects_detections_on_non_risk(demo_pairs):
    target = next(p for p in demo_pairs if p.subtask not in RISK_SUBTASKS)
    stray = Prediction(
        pair_id=target.pair_id,
        response_text=target.response,
        detections=[DetectionPred(View.FRONT, BOX, 0.5)],
    )
    with pytest.raises(ValueError, match="must not carry detections"):
        evaluate(demo_pairs, [stray])


def test_evaluate_extraction_failure_rate_counts_mae_family(demo_pairs):
    numeric = [p for p in demo_pairs if isinstance(p.ground_truth, Numeric)]
    preds = predictions_from_pairs(demo_pairs)
    broken_ids = {p.pair_id for p in numeric[:5]}
    patched = [
        Prediction(p.pair_id, "no digits", p.detections) if p.pair_id in broken_ids else p
        for p in preds
    ]
    report = evaluate(demo_pairs, patched)
    assert report.extraction_failure_rate == pytest.approx(5 / len(numeric), abs=1e-12)


def test_predictions_jsonl_round_trip(tmp_path, demo_pairs):
    preds = predictions_from_pairs(demo_pairs)
    path = tmp_path / "preds.jsonl"
    write_predictions_jsonl(preds, path)
    loaded = read_predictions_jsonl(path)
    assert loaded == preds


# The bytes of the demo echo predictions, detection lines and the others
# alike; taken before the writer was derived from the predictions line table.
GOLDEN_PREDICTIONS_SHA256 = "6d1006a7360ea81f68525296b43db2ce022d0928c0d119fb356bdea2421be7b4"


def test_demo_predictions_match_golden_digest(tmp_path, demo_pairs):
    path = tmp_path / "preds.jsonl"
    write_predictions_jsonl(predictions_from_pairs(demo_pairs), path)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert {"detections" in line for line in lines} == {True, False}
    assert any(line.get("detections") for line in lines)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_PREDICTIONS_SHA256


def test_report_as_dict(demo_pairs):
    report = evaluate(demo_pairs, predictions_from_pairs(demo_pairs))
    doc = report.as_dict()
    assert set(doc["groups"]) == {
        "perception_mae",
        "perception_acc",
        "prediction_mae",
        "prediction_acc",
        "risk_map",
        "reasoning_bleu",
    }
    assert all(isinstance(k, str) for k in doc["per_subtask"])
    assert isinstance(report, MetricReport)


def _corrupted_predictions(pairs, seed):
    """Echoes with dropped or shifted numbers and wrong or doubled labels."""
    rng = random.Random(seed)
    preds = []
    for pred, pair in zip(predictions_from_pairs(pairs), pairs):
        text = pred.response_text
        truth = pair.ground_truth
        roll = rng.random()
        if isinstance(truth, Numeric):
            if roll < 0.25:
                text = "I cannot tell."
            elif roll < 0.6:
                text = " ".join(f"{v + rng.uniform(-2, 2):.1f}" for v in truth.values)
        elif isinstance(truth, Label):
            other = "stationary" if truth.value != "stationary" else "moving"
            if roll < 0.3:
                text = f"It is {other}."
            elif roll < 0.5:
                text = f"It is {truth.value} or {other}."
        preds.append(Prediction(pair.pair_id, text, pred.detections))
    return preds


def test_pooled_groups_equal_metrics_over_pooled_lists(demo_pairs):
    preds = {p.pair_id: p for p in _corrupted_predictions(demo_pairs, seed=5)}
    report = evaluate(demo_pairs, list(preds.values()))

    # Pooled lists are grouped by subtask, subtasks in order of first appearance.
    by_subtask = {}
    for pair in demo_pairs:
        by_subtask.setdefault(pair.subtask, []).append(pair)
    for group, members in (
        ("perception_mae", {Subtask.DISTANCE, Subtask.SPEEDS, Subtask.INSTANCE_NUMBER}),
        ("prediction_mae", {Subtask.MOTION_EGO, Subtask.MOTION_OTHERS}),
    ):
        pooled = [p for s, ps in by_subtask.items() if s in members for p in ps]
        texts = [preds[p.pair_id].response_text for p in pooled]
        expected = mae(texts, [p.ground_truth.values for p in pooled]).value
        assert report.groups[group] == expected
    for group, members in (
        ("perception_acc", {Subtask.CLOSEST, Subtask.STATUS, Subtask.SAME_ROAD}),
        ("prediction_acc", {Subtask.STATUS_EGO, Subtask.STATUS_OTHERS}),
    ):
        weighted = 0.0
        total = 0
        for subtask, ps in by_subtask.items():
            if subtask not in members:
                continue
            texts = [preds[p.pair_id].response_text for p in ps]
            score = accuracy(texts, [p.ground_truth.value for p in ps], _BUILTIN_LABELS[subtask])
            weighted += score * len(ps)
            total += len(ps)
        assert report.groups[group] == weighted / total
    assert 0.0 < report.groups["perception_acc"] < 1.0
    assert 0.0 < report.extraction_failure_rate < 1.0


def test_evaluate_tokenizes_each_text_once(demo_pairs, monkeypatch):
    calls = []
    tokenize = textutil.tokenize

    def counted_tokenize(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(evaluation, "tokenize", counted_tokenize)
    monkeypatch.setattr(textutil, "tokenize", counted_tokenize)
    evaluate(demo_pairs, _corrupted_predictions(demo_pairs, seed=5))

    labelled = [p for p in demo_pairs if isinstance(p.ground_truth, Label)]
    plans = [p for p in demo_pairs if isinstance(p.ground_truth, FreeText)]
    candidates = sum(
        len(_BUILTIN_LABELS[s] | {p.ground_truth.value.lower() for p in labelled if p.subtask is s})
        for s in {p.subtask for p in labelled}
    )
    assert labelled and plans
    assert len(calls) <= len(labelled) + 2 * len(plans) + candidates


# The canonical bytes of the demo reports, on corrupted and on echoed
# predictions; taken before the metrics tokenized each text only once.
GOLDEN_CORRUPTED_REPORT_SHA256 = "7503e0dae0aedb0dd334291f3021f53c90bd85bf1df7cf80de855182b236bcd5"
GOLDEN_ECHO_REPORT_SHA256 = "0bed9d4a91eda1e7924b9396c9946d1120aaf22e3b856484c72ae04a191b41d1"


@pytest.mark.parametrize(
    ("predict", "digest"),
    [
        (lambda pairs: _corrupted_predictions(pairs, seed=5), GOLDEN_CORRUPTED_REPORT_SHA256),
        (predictions_from_pairs, GOLDEN_ECHO_REPORT_SHA256),
    ],
    ids=["corrupted", "echo"],
)
def test_demo_report_matches_golden_digest(demo_pairs, predict, digest):
    report = canonical_dumps(evaluate(demo_pairs, predict(demo_pairs)).as_dict())
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest


def test_evaluate_scores_each_risk_kind_and_the_plans_once(demo_pairs, monkeypatch):
    subtask_of = {p.pair_id: p.subtask for p in demo_pairs}
    ap_kinds = []
    bleu_calls = []

    def counted_ap(detections, references, *args):
        ap_kinds.append(subtask_of[references[0].pair_id])
        return average_precision(detections, references, *args)

    def counted_bleu(*args):
        bleu_calls.append(args)
        return bleu(*args)

    monkeypatch.setattr(evaluation, "average_precision", counted_ap)
    monkeypatch.setattr(evaluation, "bleu", counted_bleu)
    report = evaluate(demo_pairs, _corrupted_predictions(demo_pairs, seed=5))

    with_refs = {
        p.subtask for p in demo_pairs if p.subtask in RISK_SUBTASKS and p.ground_truth.items
    }
    assert len(with_refs) >= 2
    assert sorted(ap_kinds, key=RISK_SUBTASKS.index) == sorted(with_refs, key=RISK_SUBTASKS.index)
    assert len(bleu_calls) == 1
    aps = [report.per_subtask[kind] for kind in RISK_SUBTASKS if kind in with_refs]
    assert report.groups["risk_map"] == sum(aps) / len(aps)
    assert report.groups["reasoning_bleu"] == report.per_subtask[Subtask.PLANNING_WITH_REASONING]
