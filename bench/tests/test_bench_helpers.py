"""Tests for the benchmark's own helpers: python3 -m pytest bench/tests"""

import json
import threading
import urllib.request

import pytest

import corpus
import spans
import stub_reviewer
from spans import Span


# ------------------------------------------------------------------ corpus


def test_corpus_is_deterministic_per_seed():
    assert corpus.corpus(5, 2) == corpus.corpus(5, 2)
    assert corpus.corpus(5, 2) != corpus.corpus(6, 2)


def test_corpus_reaches_reference_density():
    doc = corpus.corpus(3, 4)
    assert len(doc["frames"]) == 4 * corpus.KEYFRAMES
    _, kept = corpus.density(doc)
    assert 25.0 <= kept <= 28.0


def _pairs():
    rows = []
    for i in range(40):
        pid = f"p{i:03d}"
        kind = i % 4
        if kind == 0:
            truth = {"kind": "numeric", "values": [1.25, -2.0]}
            response = "(1.2, -2.0)"
        elif kind == 1:
            value = ("moving", "parked")[i % 2]
            truth = {"kind": "label", "value": value}
            response = f"It is {value}."
        elif kind == 2:
            truth = {"kind": "detection", "items": [
                {"view": "front", "bbox": [10.0, 20.0, 110.0, 100.0], "instance_id": "t1"}]}
            response = "Yes, <front, 10.0, 20.0, 110.0, 100.0>."
        else:
            truth = {"kind": "free_text", "text": "There are no risky objects around the ego car."}
            response = truth["text"]
        subtask = ("distance", "status", "braking", "planning_with_reasoning")[kind]
        rows.append({"pair_id": pid, "subtask": subtask, "response": response, "ground_truth": truth})
    return rows


def test_perturber_is_deterministic_and_tallies_unparseable():
    first, tally = corpus.perturb(_pairs(), 9)
    again, _ = corpus.perturb(_pairs(), 9)
    assert first == again
    unparseable = [p for p in first if p["response_text"] == corpus.UNPARSEABLE]
    assert tally["numeric"] == 10
    assert tally["numeric_unparseable"] == len(unparseable)
    assert tally["echo"] + tally["perturbed"] == 40
    assert tally["perturbed"] > 0 and tally["echo"] > 0
    for pred in first:
        for det in pred.get("detections", []):
            x1, y1, x2, y2 = det["bbox"]
            assert x1 < x2 and y1 < y2 and 0.0 <= det["score"] <= 1.0


# ------------------------------------------------------------------- spans


def _tree():
    # root [0, 10] has two children that overlap in time (as from two
    # threads): a [1, 4] and b [3, 6]; a has a child c [2, 3]; d [8, 12]
    # runs past the end of root, so only [8, 10] of it counts.
    return [
        Span("cli.x", "cli", 0.0, 10.0, -1),
        Span("task_sql.a", "task_sql", 1.0, 4.0, 0),
        Span("task_sql.b", "task_sql", 3.0, 6.0, 0),
        Span("task_sql.a", "task_sql", 2.0, 3.0, 1),
        Span("geometry.d", "geometry", 8.0, 12.0, 0),
        Span("other", "bench", 20.0, 21.0, -1),
    ]


def test_self_time_subtracts_the_union_of_children():
    own = spans.self_times(_tree())
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 7
    assert own == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0, 1.0])


def test_summary_counts_nested_calls_once_in_inclusive_time():
    tree = _tree()
    summary = spans.Summary(tree, spans.self_times(tree), spans.within(tree, 0))
    assert summary.count("task_sql.a") == 2
    assert summary.seconds("task_sql.a") == pytest.approx(3.0)
    assert summary.seconds("task_sql.a", "task_sql.b") == pytest.approx(6.0)
    assert summary.self_seconds("task_sql") == pytest.approx(6.0)
    assert summary.self_seconds("cli") == pytest.approx(3.0)
    assert summary.count("other") == 0


def test_tracer_wraps_and_restores():
    import drivesql.geometry as geometry

    original = geometry.planar_norm
    tracer = spans.Tracer()
    tracer.wrap("drivesql.geometry:planar_norm", "geometry.planar_norm",
                lambda t, args, kwargs, result: t.add("calls", 1))
    with tracer.span("root", "bench"):
        geometry.planar_norm(geometry.Vec3(3.0, 4.0, 0.0))
    tracer.restore()
    assert geometry.planar_norm is original
    recorded = tracer.finished()
    assert [s.name for s in recorded] == ["root", "geometry.planar_norm"]
    assert recorded[1].parent == 0
    assert tracer.counters == {"calls": 1}


# -------------------------------------------------------------------- stub


def test_stub_verdicts_are_deterministic():
    ids = [f"{i:016x}" for i in range(400)]
    first = [stub_reviewer.verdict_for(i) for i in ids]
    assert first == [stub_reviewer.verdict_for(i) for i in ids]
    assert set(first) == {"keep", "drop", "revise"}


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def test_stub_answers_with_the_verdict_and_counts_requests():
    stats = stub_reviewer.ReviewerStats()
    server = stub_reviewer.make_server(0.0, stats)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/review"
        ids = [f"{i:016x}" for i in range(12)]
        replies = [_post(url, {"pair_id": pid, "response": "No."}) for pid in ids]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert [r["verdict"] for r in replies] == [stub_reviewer.verdict_for(i) for i in ids]
    assert all(r["revised_response"] == "No." for r in replies if r["verdict"] == "revise")
    summary = stats.as_dict()
    assert summary["served"] == 12
    assert summary["inflight_max"] == 1
    assert sum(summary["tally"].values()) == 12 and summary["tally"]["error"] == 0
