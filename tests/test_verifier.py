import math
import socketserver
import threading
import time

import pytest

from _reviewer import mock_reviewer
from drivesql import generation
from drivesql.generation import (
    DetectionList,
    FreeText,
    Label,
    Numeric,
    offline_check,
    pair_to_dict,
    verify_pairs,
)
from drivesql.scene_db import BBox2D, View
from drivesql.task_sql import RISK_SUBTASKS, Subtask


def _first(pairs, predicate):
    for pair in pairs:
        if predicate(pair):
            return pair
    raise AssertionError("corpus is missing an expected pair shape")


@pytest.fixture(scope="module")
def samples(demo_pairs):
    return {
        "numeric": _first(demo_pairs, lambda p: isinstance(p.ground_truth, Numeric)),
        "label": _first(demo_pairs, lambda p: isinstance(p.ground_truth, Label)),
        "risk_hit": _first(
            demo_pairs,
            lambda p: isinstance(p.ground_truth, DetectionList) and p.ground_truth.items,
        ),
        "risk_empty": _first(
            demo_pairs,
            lambda p: isinstance(p.ground_truth, DetectionList) and not p.ground_truth.items,
        ),
        "planning": _first(demo_pairs, lambda p: isinstance(p.ground_truth, FreeText)),
    }


# ------------------------------------------------------------ offline rules


def test_generated_pairs_pass_offline_rules(demo_db, demo_pairs):
    for pair in demo_pairs:
        assert offline_check(pair, demo_db) is None, pair.pair_id


def test_numeric_response_missing_numbers(samples):
    broken = samples["numeric"]._replace(response="no values here")
    reason = offline_check(broken)
    assert "parseable numbers" in reason


def test_numeric_non_finite_truth(samples):
    broken = samples["numeric"]._replace(ground_truth=Numeric((float("nan"),)))
    assert "non-finite" in offline_check(broken)


def test_label_mentioned_twice(samples):
    pair = samples["label"]
    word = pair.ground_truth.value
    broken = pair._replace(response=f"{word} and {word} again")
    assert "needs exactly 1" in offline_check(broken)


def test_label_never_mentioned(samples):
    broken = samples["label"]._replace(response="nothing relevant")
    assert "0 times" in offline_check(broken)


def test_truth_type_must_fit_subtask(samples):
    broken = samples["numeric"]._replace(ground_truth=Label("car"))
    assert "does not fit subtask" in offline_check(broken)


def test_detection_box_outside_image(samples):
    pair = samples["risk_hit"]
    det = pair.ground_truth.items[0]._replace(bbox=BBox2D(-5.0, 10.0, 50.0, 60.0))
    broken = pair._replace(ground_truth=DetectionList((det,)))
    assert "image bounds" in offline_check(broken)


def test_detection_requires_concrete_view(samples):
    pair = samples["risk_hit"]
    det = pair.ground_truth.items[0]._replace(view=View.ALL)
    broken = pair._replace(ground_truth=DetectionList((det,)))
    assert "concrete view" in offline_check(broken)


def test_detection_missing_from_response(samples):
    broken = samples["risk_hit"]._replace(response="Yes, something vague.")
    assert "mention every detection" in offline_check(broken)


def test_detection_unknown_instance(demo_db, samples):
    pair = samples["risk_hit"]
    det = pair.ground_truth.items[0]._replace(instance_id="ghost")
    broken = pair._replace(ground_truth=DetectionList((det,)))
    assert offline_check(broken) is None  # without a database the id is unchecked
    assert "unknown instance 'ghost'" in offline_check(broken, demo_db)


def test_detection_of_an_instance_off_the_current_frame(demo_db, demo_pairs):
    # Risk hits are rows of the current frame; an instance seen only at
    # another frame of the window is not one.
    pair = _first(
        demo_pairs,
        lambda p: p.subtask is Subtask.CROSSING and p.frame_ids[1] == "demo_0007_0001_f003",
    )
    ghost = "demo_0007_0001_track00"
    assert demo_db.instance_at_frame(ghost, pair.frame_ids[0]) is not None
    assert demo_db.instance_at_frame(ghost, pair.frame_ids[1]) is None
    det = pair.ground_truth.items[0]._replace(instance_id=ghost)
    broken = pair._replace(ground_truth=DetectionList((det,)))
    assert offline_check(broken, demo_db) == (
        f"detection references unknown instance {ghost!r} at the current frame {pair.frame_ids[1]!r}"
    )


def test_pair_with_a_frame_outside_the_database(demo_db, samples):
    for pair in (samples["numeric"], samples["risk_hit"]):
        broken = pair._replace(frame_ids=("nowhere", *pair.frame_ids[1:]))
        assert offline_check(broken) is None  # without a database frames are unchecked
        assert offline_check(broken, demo_db) == "pair references unknown frame 'nowhere'"


def test_pair_whose_frames_are_not_a_window_of_its_scene(demo_db, samples):
    pair = samples["numeric"]
    here = demo_db.scenes[pair.scene_id]
    there = next(scene for scene in demo_db.scenes.values() if scene is not here)
    first, mid, last = pair.frame_ids
    consecutive = "pair frames are not consecutive keyframes of one scene"
    for broken, reason in (
        (
            pair._replace(scene_id=there.scene_id),
            f"pair frames belong to scene {here.scene_id!r}, not {there.scene_id!r}",
        ),
        (pair._replace(frame_ids=(mid, first, last)), consecutive),
        (pair._replace(frame_ids=(first, mid, there.frame_ids[0])), consecutive),
    ):
        assert offline_check(broken) is None  # without a database frames are unchecked
        assert offline_check(broken, demo_db) == reason


def test_verify_checks_each_window_once_and_keeps_every_reason(demo_db, demo_pairs, monkeypatch):
    """One ``verify_pairs`` call checks each ``(scene_id, frame_ids)``
    against the database once; every pair still gets the reason that
    ``offline_check`` alone gives it, in input order."""
    pair = demo_pairs[0]
    there = next(s for s in demo_db.scenes.values() if s.scene_id != pair.scene_id)
    first, mid, last = pair.frame_ids
    broken = [
        pair._replace(frame_ids=("nowhere", mid, last)),
        pair._replace(frame_ids=(mid, first, last)),
        pair._replace(scene_id=there.scene_id),
        pair._replace(frame_ids=(first, mid, there.frame_ids[0]), response="no values here"),
    ]
    pairs = [p for both in zip(demo_pairs, broken * len(demo_pairs)) for p in both]
    expected = [(p.pair_id, offline_check(p, demo_db)) for p in pairs]
    checked = []
    window_reason = generation._window_reason
    monkeypatch.setattr(
        generation,
        "_window_reason",
        lambda db, *window: checked.append(window) or window_reason(db, *window),
    )
    result = verify_pairs(pairs, db=demo_db)
    assert len(checked) == len(set(checked)) == len({(p.scene_id, *p.frame_ids) for p in pairs})
    assert result.kept == [p for p, (_, reason) in zip(pairs, expected) if reason is None]
    assert result.rejected == [
        (pid, f"format contract: {reason}") for pid, reason in expected if reason is not None
    ]
    assert {reason for _, reason in expected} >= {
        "pair references unknown frame 'nowhere'",
        "pair frames are not consecutive keyframes of one scene",
        f"pair frames belong to scene {pair.scene_id!r}, not {there.scene_id!r}",
    }


def test_risk_pair_requires_thresholds(samples):
    broken = samples["risk_empty"]._replace(thresholds_used=None)
    assert "thresholds" in offline_check(broken)


def test_empty_detection_list_requires_no(samples):
    broken = samples["risk_empty"]._replace(response="Yes, a car.")
    assert "requires the response 'No.'" in offline_check(broken)


def test_planning_text_must_match_truth(samples):
    broken = samples["planning"]._replace(response="Drive safely.")
    assert "must equal the response" in offline_check(broken)


def test_offline_rejections_are_prefixed(demo_pairs):
    broken = demo_pairs[0]._replace(response="no values here")
    result = verify_pairs([broken])
    assert result.kept == []
    assert len(result.rejected) == 1
    pair_id, reason = result.rejected[0]
    assert pair_id == broken.pair_id
    assert reason.startswith("format contract: ")


def test_offline_keeps_clean_pairs(demo_pairs):
    result = verify_pairs(demo_pairs)
    assert [p.pair_id for p in result.kept] == [p.pair_id for p in demo_pairs]
    assert result.rejected == []
    assert result.unverified == set()
    assert result.revised == set()


# --------------------------------------------------------- external service


def test_external_keep_and_payload_shape(demo_pairs):
    subset = demo_pairs[:5]
    with mock_reviewer(lambda payload: {"verdict": "keep"}) as (server, url):
        result = verify_pairs(subset, url)
    assert [p.pair_id for p in result.kept] == [p.pair_id for p in subset]
    assert result.unverified == set()
    # Requests overlap, so they may arrive in any order: match each payload
    # to its pair by id, exactly one request per pair.
    sent_by_id = {sent["pair_id"]: sent for sent in server.requests}
    assert len(server.requests) == len(subset)
    assert set(sent_by_id) == {p.pair_id for p in subset}
    for pair in subset:
        sent = sent_by_id[pair.pair_id]
        assert set(sent) == {"pair_id", "instruction", "response", "subtask", "ground_truth"}
        assert sent["pair_id"] == pair.pair_id
        assert sent["subtask"] == pair.subtask.value
        assert sent["response"] == pair.response


def test_external_payload_carries_the_ground_truth_as_the_pairs_line_writes_it(samples):
    # One pair of each kind: numeric, label, detection with and without
    # items, and free text.
    pairs = list(samples.values())
    with mock_reviewer(lambda payload: {"verdict": "keep"}) as (server, url):
        verify_pairs(pairs, url)
    sent_by_id = {sent["pair_id"]: sent for sent in server.requests}
    assert len(server.requests) == len(pairs)
    for pair in pairs:
        assert sent_by_id[pair.pair_id]["ground_truth"] == pair_to_dict(pair)["ground_truth"]


def test_external_drop_records_reason(demo_pairs):
    subset = demo_pairs[:4]
    victim = subset[2].pair_id

    def route(payload):
        if payload["pair_id"] == victim:
            return {"verdict": "drop", "reason": "sounds wrong"}
        return {"verdict": "keep"}

    with mock_reviewer(route) as (_, url):
        result = verify_pairs(subset, url)
    assert victim not in {p.pair_id for p in result.kept}
    assert (victim, "sounds wrong") in result.rejected
    assert len(result.kept) == 3


def test_external_revise_updates_planning_truth(demo_pairs, samples):
    pair = samples["planning"]
    new_text = "There are no risky objects around the ego car. Hence hold."

    def route(payload):
        if payload["pair_id"] == pair.pair_id:
            return {"verdict": "revise", "revised_response": new_text}
        return {"verdict": "keep"}

    with mock_reviewer(route) as (_, url):
        result = verify_pairs([pair], url)
    assert result.revised == {pair.pair_id}
    (kept,) = result.kept
    assert kept.response == new_text
    assert type(kept.ground_truth) is FreeText and kept.ground_truth == FreeText(new_text)


def test_external_revise_keeps_structured_truth(samples):
    pair = samples["numeric"]
    with mock_reviewer(
        lambda payload: {"verdict": "revise", "revised_response": pair.response + " exactly"}
    ) as (_, url):
        result = verify_pairs([pair], url)
    (kept,) = result.kept
    assert kept.response.endswith("exactly")
    assert type(kept.ground_truth) is type(pair.ground_truth)
    assert kept.ground_truth == pair.ground_truth
    assert result.revised == {pair.pair_id}


def test_external_revision_that_breaks_a_format_rule_is_rejected(samples):
    pair = samples["numeric"]
    with mock_reviewer(
        lambda payload: {"verdict": "revise", "revised_response": "no idea"}
    ) as (_, url):
        result = verify_pairs([pair], url)
    assert result.kept == [] and result.revised == set()
    needs = len(pair.ground_truth.values)
    assert result.rejected == [(
        pair.pair_id,
        f"format contract: revised response: response has 0 parseable numbers, needs {needs}",
    )]


def test_external_unknown_verdict_keeps_unverified(samples):
    pair = samples["label"]
    with mock_reviewer(lambda payload: {"verdict": "maybe"}) as (_, url):
        result = verify_pairs([pair], url)
    assert [p.pair_id for p in result.kept] == [pair.pair_id]
    assert result.unverified == {pair.pair_id}


def test_external_revise_without_text_keeps_unverified(samples):
    pair = samples["label"]
    with mock_reviewer(lambda payload: {"verdict": "revise"}) as (_, url):
        result = verify_pairs([pair], url)
    assert [p.pair_id for p in result.kept] == [pair.pair_id]
    assert result.unverified == {pair.pair_id}
    assert result.kept[0].response == pair.response


def test_external_unreachable_keeps_all_unverified(demo_pairs, monkeypatch):
    monkeypatch.setattr(generation, "REVIEW_TIMEOUT_S", 0.2)
    monkeypatch.setattr(generation, "REVIEW_RETRIES", 1)
    subset = demo_pairs[:3]
    result = verify_pairs(subset, "http://127.0.0.1:9/review")
    assert [p.pair_id for p in result.kept] == [p.pair_id for p in subset]
    assert result.unverified == {p.pair_id for p in subset}


def test_offline_rejection_skips_external_call(demo_pairs):
    broken = demo_pairs[0]._replace(response="no numbers")
    with mock_reviewer(lambda payload: {"verdict": "keep"}) as (server, url):
        result = verify_pairs([broken], url)
    assert server.requests == []
    assert result.kept == []
    assert result.rejected[0][1].startswith("format contract: ")


def _mixed_verdicts(payload):
    """Drop, revise or keep by the pair id's last hex digit."""
    digit = int(payload["pair_id"][-1], 16)
    if digit % 3 == 0:
        return {"verdict": "drop", "reason": f"drop {payload['pair_id']}"}
    if digit % 3 == 1:
        return {"verdict": "revise", "revised_response": payload["response"] + " (revised)"}
    return {"verdict": "keep"}


def test_external_results_keep_input_order_when_replies_finish_out_of_order(demo_pairs):
    subset = demo_pairs[:24]
    with mock_reviewer(_mixed_verdicts) as (_, url):
        reference = [verify_pairs([pair], url) for pair in subset]
    rank = {pair.pair_id: i for i, pair in enumerate(subset)}
    finished = []

    def slow_early_pairs(payload):
        # Earlier pairs wait longer, so later ones overtake them.
        time.sleep(0.002 * (len(subset) - rank[payload["pair_id"]]))
        finished.append(rank[payload["pair_id"]])
        return _mixed_verdicts(payload)

    with mock_reviewer(slow_early_pairs) as (_, url):
        result = verify_pairs(subset, url)
    assert finished != sorted(finished)
    assert result.kept == [k for r in reference for k in r.kept]
    assert result.rejected == [x for r in reference for x in r.rejected]
    assert result.revised == set().union(*(r.revised for r in reference))
    assert result.unverified == set()
    assert result.kept and result.rejected and result.revised


def test_external_in_flight_requests_are_bounded(demo_pairs):
    subset = demo_pairs[:4 * generation.MAX_IN_FLIGHT]

    def slow_keep(payload):
        time.sleep(0.02)
        return {"verdict": "keep"}

    with mock_reviewer(slow_keep) as (server, url):
        result = verify_pairs(subset, url)
    assert 1 < server.inflight_max <= generation.MAX_IN_FLIGHT
    assert len(server.requests) == len(subset)
    assert (result.requests, result.retries) == (len(subset), 0)


def test_external_retries_back_off_on_a_fixed_schedule(monkeypatch, samples):
    delays = []
    monkeypatch.setattr(generation.time, "sleep", delays.append)
    monkeypatch.setattr(generation, "REVIEW_TIMEOUT_S", 0.2)
    result = verify_pairs([samples["label"]], "http://127.0.0.1:9/review")
    assert delays == [0.05, 0.1]
    assert (result.requests, result.retries) == (3, 2)
    assert result.unverified == {samples["label"].pair_id}


@pytest.mark.parametrize("reply", [["keep"], "keep", None, 3, 2.5, True])
def test_external_non_object_reply_keeps_unverified(samples, reply):
    pair = samples["label"]
    with mock_reviewer(lambda payload: reply) as (server, url):
        result = verify_pairs([pair], url)
    assert [p.pair_id for p in result.kept] == [pair.pair_id]
    assert result.kept[0] == pair
    assert result.unverified == {pair.pair_id}
    assert result.rejected == []
    assert len(server.requests) == 1


@pytest.mark.parametrize(
    "reply",
    [
        {"verdict": "keep", "note": "looks fine"},
        {"verdict": "drop", "reason": "no", "revised_response": "no"},
        {"verdict": "drop", "reason": {"a": 1}},
        {"verdict": "drop", "reason": 3},
        {"verdict": "revise", "revised_response": ""},
        {"verdict": "revise", "revised_response": "Yes.", "reason": "typo"},
    ],
    ids=["keep-extra-key", "drop-extra-key", "object-reason", "int-reason", "empty-revision",
         "revise-extra-key"],
)
def test_external_reply_the_reply_table_refuses_keeps_unverified(samples, reply):
    pair = samples["label"]
    with mock_reviewer(lambda payload: reply) as (server, url):
        result = verify_pairs([pair], url)
    assert result.kept == [pair] and result.rejected == []
    assert result.unverified == {pair.pair_id}
    assert (result.requests, result.retries) == (1, 0)


def test_external_reply_holding_nan_is_not_json_and_is_retried(samples, monkeypatch):
    monkeypatch.setattr(generation, "REVIEW_RETRIES", 1)
    monkeypatch.setattr(generation.time, "sleep", lambda _: None)
    pair = samples["label"]
    # The stdlib encoder writes NaN, which is not JSON.
    with mock_reviewer(lambda payload: {"verdict": "drop", "reason": math.nan}) as (_, url):
        result = verify_pairs([pair], url)
    assert result.kept == [pair] and result.rejected == []
    assert result.unverified == {pair.pair_id}
    assert (result.requests, result.retries) == (2, 1)


def test_external_malformed_http_reply_keeps_unverified(samples, monkeypatch):
    monkeypatch.setattr(generation, "REVIEW_RETRIES", 1)
    pair = samples["label"]

    class Garbage(socketserver.StreamRequestHandler):
        def handle(self):
            self.rfile.readline()
            self.wfile.write(b"not an http status line\r\n\r\n")

    with socketserver.ThreadingTCPServer(("127.0.0.1", 0), Garbage) as server:
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/review"
            result = verify_pairs([pair], url)
        finally:
            server.shutdown()
            thread.join(timeout=2)
    assert [p.pair_id for p in result.kept] == [pair.pair_id]
    assert result.unverified == {pair.pair_id}
    assert (result.requests, result.retries) == (2, 1)
