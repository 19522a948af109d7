"""Independent brute-force oracles the tests compare the library against.

Everything in this module is deliberately re-derived from first principles
over raw annotation documents and plain Python arithmetic. It shares no
code with the package: rotations go through explicit 3x3 matrices, scans
are exhaustive, and metric curves are enumerated point by point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

REAL_VIEW_NAMES = ("front_left", "front", "front_right", "back_left", "back", "back_right")


# ----------------------------------------------------------------- rotations


def quat_to_matrix(q):
    """Row-major rotation matrix of a (w, x, y, z) quaternion."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]


def mat_vec(m, v):
    return tuple(sum(m[r][c] * v[c] for c in range(3)) for r in range(3))


def mat_transpose(m):
    return [[m[c][r] for c in range(3)] for r in range(3)]


def rotate_oracle(q, v):
    return mat_vec(quat_to_matrix(q), v)


def rotate_inverse_oracle(q, v):
    return mat_vec(mat_transpose(quat_to_matrix(q)), v)


def relative_motion_oracle(p_from, r_from, p_to):
    delta = tuple(p_to[k] - p_from[k] for k in range(3))
    return rotate_inverse_oracle(r_from, delta)


# ------------------------------------------------------ raw annotation views


def _planar(v):
    return math.sqrt(v[0] * v[0] + v[1] * v[1])


class SceneOracle:
    """Exhaustive-scan reimplementation of the retrieval procedures.

    Built straight from a raw annotation document; the importance filter
    is applied here independently so database construction itself is under
    test as well.
    """

    def __init__(self, annotations, radius=20.0):
        keep = {
            row["info_id"]
            for row in annotations["instances"]
            if _planar(row["local_t"]) <= radius
        }
        self.instances = {
            row["info_id"]: row for row in annotations["instances"] if row["info_id"] in keep
        }
        self.frames = {}
        for frame in annotations["frames"]:
            ids = [i for i in frame["instance_info_ids"] if i in keep]
            self.frames[frame["frame_id"]] = dict(frame, instance_info_ids=ids)
        self.ego = {row["info_id"]: row for row in annotations["ego"]}
        self.scenes = {row["scene_id"]: row for row in annotations["scenes"]}

    # -- primitives --------------------------------------------------------

    def rows_in_frame(self, frame_id):
        return [self.instances[i] for i in self.frames[frame_id]["instance_info_ids"]]

    def ego_in_frame(self, frame_id):
        return self.ego[self.frames[frame_id]["ego_info_id"]]

    def find(self, instance_id, frame_id):
        for row in self.rows_in_frame(frame_id):
            if row["instance_id"] == instance_id:
                return row
        return None

    # -- perception --------------------------------------------------------

    def distance(self, info_id):
        t = self.instances[info_id]["local_t"]
        return (t[0], t[1], _planar(t))

    def closest(self, frame_id):
        """Map view name -> winning info_id, including the 'all' wildcard."""
        rows = self.rows_in_frame(frame_id)
        result = {}
        for view in REAL_VIEW_NAMES:
            best = None
            for row in rows:
                if view not in row["camera_pos"]:
                    continue
                key = (_planar(row["local_t"]), row["info_id"])
                if best is None or key < best:
                    best = key
            if best is not None:
                result[view] = best[1]
        best = None
        for row in rows:
            key = (_planar(row["local_t"]), row["info_id"])
            if best is None or key < best:
                best = key
        if best is not None:
            result["all"] = best[1]
        return result

    def counts(self, frame_id):
        """Map view name -> {category: count}; 'all' counts each row once."""
        rows = self.rows_in_frame(frame_id)
        result = {view: {} for view in (*REAL_VIEW_NAMES, "all")}
        for row in rows:
            for view in REAL_VIEW_NAMES:
                if view in row["camera_pos"]:
                    result[view][row["category"]] = result[view].get(row["category"], 0) + 1
            result["all"][row["category"]] = result["all"].get(row["category"], 0) + 1
        return result

    def speed(self, info_id):
        return self.instances[info_id]["velocity"]

    def status(self, info_id):
        return self.instances[info_id]["attribute"]

    def same_road(self, info_id, frame_id):
        return self.instances[info_id]["road_info"] == self.ego_in_frame(frame_id)["road_info"]

    # -- prediction --------------------------------------------------------

    def motion_ego(self, frame_i, frame_next):
        a = self.ego_in_frame(frame_i)
        b = self.ego_in_frame(frame_next)
        return relative_motion_oracle(a["pose"], a["rotation"], b["pose"])

    def motion_others(self, frame_i, frame_next):
        out = {}
        for row in self.rows_in_frame(frame_i):
            other = self.find(row["instance_id"], frame_next)
            if other is None:
                continue
            out[row["info_id"]] = relative_motion_oracle(
                row["global_t"], row["global_r"], other["global_t"]
            )
        return out

    def status_ego(self, frame_i, frame_next):
        dv = self.ego_in_frame(frame_next)["velocity"] - self.ego_in_frame(frame_i)["velocity"]
        return dv, self.motion_ego(frame_i, frame_next)

    def status_others(self, frame_i, frame_next):
        deltas = {}
        motions = self.motion_others(frame_i, frame_next)
        for info_id in motions:
            row = self.instances[info_id]
            other = self.find(row["instance_id"], frame_next)
            deltas[info_id] = other["velocity"] - row["velocity"]
        return deltas, motions

    # -- risk ---------------------------------------------------------------

    def risk(self, kind, frame_prev, frame_i, frame_next, thresholds=(20.0, 3.0, 3.0, 0.5)):
        """Info ids (frame order) satisfying the kind's predicate."""
        dis, dis_x, dis_y, s = thresholds
        hits = []
        for row in self.rows_in_frame(frame_i):
            instance_id = row["instance_id"]
            prev = self.find(instance_id, frame_prev)
            if prev is None:
                continue
            nxt = self.find(instance_id, frame_next)
            if kind != "lane_changing" and nxt is None:
                continue
            m_prev = relative_motion_oracle(row["global_t"], row["global_r"], prev["global_t"])
            m_next = (
                relative_motion_oracle(row["global_t"], row["global_r"], nxt["global_t"])
                if nxt is not None
                else None
            )
            l_i = _planar(row["local_t"])
            l_prev = _planar(prev["local_t"])
            v_i = row["velocity"]
            v_prev = prev["velocity"]

            if kind == "overtaking":
                ok = (
                    m_prev[0] < 0
                    and m_next[0] > 0
                    and abs(m_prev[1]) < dis
                    and abs(m_next[1]) < dis
                    and v_i > 0
                    and v_prev > 0
                )
            elif kind == "on_coming":
                ok = (
                    m_prev[0] > 0
                    and m_next[0] > 0
                    and m_next[0] < m_prev[0]
                    and abs(m_prev[1]) < dis
                    and abs(m_next[1]) < dis
                    and abs(m_next[1] - m_prev[1]) < dis
                    and v_i > 0
                    and v_prev > 0
                )
            elif kind == "approaching":
                ok = (
                    m_next[0] < m_prev[0]
                    and abs(m_prev[1]) < dis
                    and abs(m_next[1]) < dis
                    and abs(m_next[1] - m_prev[1]) < dis
                    and v_i > 0
                    and v_prev > 0
                )
            elif kind == "crossing":
                ok = (
                    l_i < dis
                    and l_prev < dis
                    and abs(m_next[0] - m_prev[0]) < dis_x
                    and abs(m_next[1] - m_prev[1]) > dis_y
                    and v_i > 0
                    and v_prev > 0
                )
            elif kind == "braking":
                ok = (
                    l_i < l_prev < dis
                    and abs(m_next[0] - m_prev[0]) > dis_x
                    and abs(m_next[1]) < dis_y
                    and abs(m_prev[1]) < dis_y
                    and v_prev > s
                    and v_i < s
                )
            elif kind == "lane_changing":
                ego_now = self.ego_in_frame(frame_i)["road_info"]
                ego_prev = self.ego_in_frame(frame_prev)["road_info"]
                ok = (
                    l_i < l_prev < dis
                    and row["road_info"] == ego_now
                    and prev["road_info"] != ego_prev
                    and v_prev > s
                    and v_i > s
                )
            else:
                raise ValueError(f"unknown risk kind {kind!r}")
            if ok:
                hits.append(row["info_id"])
        return hits


# -------------------------------------------------------------- AP / ranking


def iou_oracle(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def ap_oracle(detections, references, iou_threshold=0.5):
    """All-point interpolated AP by direct precision-recall enumeration.

    detections: (pair_id, view, box, score) tuples in submission order.
    references: (pair_id, view, box) tuples. Boxes are (x1, y1, x2, y2).
    """
    if not references:
        raise ValueError("no references")
    order = sorted(
        range(len(detections)),
        key=lambda i: (-detections[i][3], detections[i][0], i),
    )
    available = set(range(len(references)))
    flags = []
    for i in order:
        pair_id, view, box, _ = detections[i]
        best = None
        best_overlap = 0.0
        for j in sorted(available):
            ref = references[j]
            if ref[0] != pair_id or ref[1] != view:
                continue
            overlap = iou_oracle(box, ref[2])
            if overlap >= iou_threshold and overlap > best_overlap:
                best, best_overlap = j, overlap
        if best is None:
            flags.append(False)
        else:
            available.remove(best)
            flags.append(True)
    precisions = []
    recalls = []
    tp = 0
    for rank, flag in enumerate(flags, start=1):
        tp += int(flag)
        precisions.append(tp / rank)
        recalls.append(tp / len(references))
    area = 0.0
    prev_recall = 0.0
    for k, flag in enumerate(flags):
        if flag:
            area += (recalls[k] - prev_recall) * max(precisions[k:])
            prev_recall = recalls[k]
    return area


# ------------------------------------------------------------ numbers, labels


_ALNUM = frozenset("0123456789abcdefghijklmnopqrstuvwxyz")


def _words(text):
    """Lowercased runs of ASCII letters and digits, scanned one character at a time."""
    words, current = [], ""
    for ch in text.lower() + " ":
        if ch in _ALNUM:
            current += ch
        elif current:
            words.append(current)
            current = ""
    return words


def _numbers(text):
    """Maximal ``[sign] digits [. digits]`` substrings as floats, scanned by hand."""
    found = []
    i = 0
    while i < len(text):
        start = i
        if text[i] in "+-" and i + 1 < len(text) and text[i + 1].isdecimal():
            i += 1
        if not text[i].isdecimal():
            i = start + 1
            continue
        while i < len(text) and text[i].isdecimal():
            i += 1
        if i + 1 < len(text) and text[i] == "." and text[i + 1].isdecimal():
            i += 1
            while i < len(text) and text[i].isdecimal():
                i += 1
        found.append(float(text[start:i]))
    return found


def mae_oracle(predictions, references):
    """(value, failure rate, scored, failed) of the documented MAE, value None
    when nothing is scorable.

    A pair scores when its text holds at least as many numbers as it has
    references and the first that many are finite; its error is the mean of
    the absolute differences, in order. The value is the mean over scored
    pairs, the failure rate the share of pairs that did not score.
    """
    errors = []
    for text, refs in zip(predictions, references):
        nums = _numbers(text)[: len(refs)]
        if len(nums) < len(refs) or not all(math.isfinite(v) for v in nums):
            continue
        errors.append(math.fsum(abs(p - r) for p, r in zip(nums, refs)) / len(refs))
    failed = len(predictions) - len(errors)
    value = math.fsum(errors) / len(errors) if errors else None
    return value, failed / len(predictions), len(errors), failed


def accuracy_oracle(predictions, references, label_set=None):
    """The documented label accuracy, re-tokenizing every label for every
    prediction and sliding a window over the prediction's words.

    A prediction is correct when, over the candidate labels (the lowercased
    references plus ``label_set``), it mentions exactly one label exactly
    once and that label is its reference. A label that tokenizes to nothing
    is never mentioned.
    """
    labels = {r.lower() for r in references} | {l.lower() for l in label_set or ()}
    correct = 0
    for text, ref in zip(predictions, references):
        words = _words(text)
        mentions = {}
        for label in labels:
            needle = _words(label)
            mentions[label] = sum(
                1
                for start in range(len(words) - len(needle) + 1)
                if needle and words[start : start + len(needle)] == needle
            )
        if sum(mentions.values()) == 1 and mentions[ref.lower()] == 1:
            correct += 1
    return correct / len(references)


# --------------------------------------------------------------------- bleu


def _bleu_tokens(text):
    return re.findall(r"[0-9a-z]+", text.lower())


def bleu_oracle(candidates, references, max_n=4, smooth=False):
    """Corpus BLEU re-derived with dict counting and explicit logs.

    Mirrors the published definition: per-order clipped precision summed
    over the corpus, uniform 1/max_n weights, brevity penalty when the
    candidate corpus is shorter. Orders with no candidate n-grams at all
    are skipped (treated as perfect) so identical corpora score 1.
    """
    cand_len = 0
    ref_len = 0
    stats = []
    for n in range(1, max_n + 1):
        matched = 0
        total = 0
        for cand, ref in zip(candidates, references):
            ct = _bleu_tokens(cand)
            rt = _bleu_tokens(ref)
            if n == 1:
                cand_len += len(ct)
                ref_len += len(rt)
            ref_counts = {}
            for i in range(len(rt) - n + 1):
                gram = tuple(rt[i : i + n])
                ref_counts[gram] = ref_counts.get(gram, 0) + 1
            cand_counts = {}
            for i in range(len(ct) - n + 1):
                gram = tuple(ct[i : i + n])
                cand_counts[gram] = cand_counts.get(gram, 0) + 1
            for gram, count in cand_counts.items():
                matched += min(count, ref_counts.get(gram, 0))
                total += count
        if smooth:
            matched, total = matched + 1, total + 1
        stats.append((matched, total))
    if cand_len == 0:
        return 1.0 if ref_len == 0 else 0.0
    log_sum = 0.0
    for matched, total in stats:
        if total == 0:
            continue
        if matched == 0:
            return 0.0
        log_sum += math.log(matched / total) / max_n
    penalty = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return penalty * math.exp(log_sum)


# -------------------------------------------------------------------- split


def split_sizes_oracle(n, ratios):
    """Largest-remainder apportionment with exact rational arithmetic."""
    fr = [Fraction(r) for r in ratios]
    total = sum(fr)
    quotas = [Fraction(n) * r / total for r in fr]
    sizes = [int(q) for q in quotas]
    remainders = [q - s for q, s in zip(quotas, sizes)]
    leftover = n - sum(sizes)
    order = sorted(range(len(ratios)), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        sizes[i] += 1
    return tuple(sizes)
