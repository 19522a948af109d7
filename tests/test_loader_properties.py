"""Every loader, given any JSON value, returns a typed result or raises
DriveSqlError, and nothing else.

Each boundary gets two properties: an arbitrary JSON value in place of the
whole input, and a valid input with one node replaced by an arbitrary JSON
value, removed, or given a key no field table declares, which reaches the
deeper field checks. The database and the two line formats get a third: a
table read a block of rows at a time gives what the row loop alone gives,
and a pairs or predictions file read a block of lines at a time gives what
its per-line reader alone gives, whichever row or line is broken. Two
relations of the database close over build-db, save and load: the order of
table rows and of ``camera_pos`` keys reaches neither the saved bytes nor
the pairs, and save, load, save of any database the loader accepts is a
fixed point.
"""

import ast
import inspect
import json
import os
from contextlib import ExitStack, contextmanager
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivesql import canonical, evaluation, generation, scene_db, synth
from drivesql.canonical import canonical_dumps
from drivesql.errors import AnnotationSchemaError, DriveSqlError
from drivesql.evaluation import (
    Prediction,
    predictions_from_pairs,
    read_predictions_jsonl,
    write_predictions_jsonl,
)
from drivesql.generation import (
    GenerationConfig,
    InstructionResponsePair,
    Numeric,
    generate_dataset,
    pair_to_dict,
    read_pairs_jsonl,
    verify_pairs,
    write_pairs_jsonl,
)
from drivesql.scene_db import (
    BBox2D,
    SceneDatabase,
    build_database,
    database_to_document,
    load_database,
    save_database,
)
from drivesql.task_sql import RiskThresholds
from drivesql.synth import demo_corpus

# Each property runs SCALE times its default number of examples. The
# default is 1; a deeper run sets LOADER_PROPERTIES_SCALE, for example to 40
# for at least 4000 examples per property.
SCALE = int(os.environ.get("LOADER_PROPERTIES_SCALE", "1"))

# Any value ``json.loads`` can return, NaN, the infinities and integers too
# large for a float included.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

# Values that sit on a boundary of some check, drawn more often than
# ``json_values`` would draw them.
edge_values = st.sampled_from(
    [10**400, float("nan"), float("inf"), -1, 0, 0.0, -0.0, "", "x", None, True, [], {}, [0.0] * 5]
)

_REMOVE = object()

# A key that no field table declares.
_UNDECLARED = "undeclared"


def _node_paths(doc, prefix=()):
    """Key paths to every node below the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _mutated(doc, path, value):
    """A deep copy of ``doc`` with the node at ``path`` replaced or removed."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _REMOVE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _mutations(doc):
    paths = list(_node_paths(doc))
    value = edge_values | json_values | st.just(_REMOVE)
    objects = [at for at in [(), *paths] if isinstance(_node(doc, at), dict)]
    return st.tuples(st.sampled_from(paths), value).map(
        lambda pv: _mutated(doc, *pv)
    ) | st.tuples(st.sampled_from(objects), json_values).map(
        lambda ov: _mutated(doc, ov[0] + (_UNDECLARED,), ov[1])
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders")


@pytest.fixture(scope="module")
def database_doc():
    return database_to_document(build_database(demo_corpus(1, seed=2), important_radius=30.0))


def _load_database_text(path, text):
    path.write_text(text, encoding="utf-8")
    try:
        assert isinstance(load_database(path), SceneDatabase)
    except DriveSqlError:
        pass


@settings(max_examples=100 * SCALE, deadline=None)
@given(value=json_values)
def test_load_database_on_any_json_value(workdir, value):
    _load_database_text(workdir / "any.db.json", json.dumps(value))


@settings(max_examples=200 * SCALE, deadline=None)
@given(data=st.data())
def test_load_database_on_a_mutated_database(workdir, database_doc, data):
    doc = data.draw(_mutations(database_doc))
    _load_database_text(workdir / "mutated.db.json", json.dumps(doc))


def _built(doc):
    """The saved document of ``build_database(doc)``, or its schema error."""
    try:
        return canonical_dumps(database_to_document(build_database(doc, important_radius=30.0)))
    except AnnotationSchemaError as err:
        return str(err)


@contextmanager
def _row_loop_only():
    """Each table's row check declines every block, so each table is read
    by the row loop alone. The row check's own column form is patched: it
    holds its fields' column forms from when it was built."""
    with ExitStack() as stack:
        for table in scene_db._TABLES:
            stack.enter_context(mock.patch.object(table.row, "column", lambda values: None))
        yield


def _is_float_list(node):
    return isinstance(node, list) and bool(node) and all(type(x) is float for x in node)


def _any_row_mutations(doc):
    """Copies of the annotations ``doc`` broken in one place in any row of
    any table: the row, or a node below it, replaced by a JSON value or
    removed; a float replaced by any float, its negation or a neighbour in
    its list; a list of floats (a position, rotation or box) scaled near the
    unit-norm tolerance; an object given an undeclared key; or the row's id
    set to another row's id."""
    tables = [(table.key, table.row.record._fields[0]) for table in scene_db._TABLES]
    scale = st.floats(0.998, 1.002) | st.sampled_from((0.999, 1.001, 0.999 + 2e-9, 1.001 - 2e-9))

    @st.composite
    def mutated(draw):
        key, id_name = draw(st.sampled_from(tables))
        row = (key, draw(st.integers(0, len(doc[key]) - 1)))
        paths = [row, *_node_paths(_node(doc, row), row)]
        floats = [path for path in paths if type(_node(doc, path)) is float]
        lists = [path for path in paths if _is_float_list(_node(doc, path))]
        kind = draw(st.sampled_from(("node", "float", "scale", "undeclared", "id")))
        if kind == "float" and floats:
            path = draw(st.sampled_from(floats))
            neighbours = _node(doc, path[:-1]) if isinstance(path[-1], int) else []
            value = st.sampled_from([-_node(doc, path), *neighbours]) | st.floats()
            return _mutated(doc, path, draw(value))
        if kind == "scale" and lists:
            path, factor = draw(st.sampled_from(lists)), draw(scale)
            return _mutated(doc, path, [x * factor for x in _node(doc, path)])
        if kind == "undeclared":
            objects = [path for path in paths if isinstance(_node(doc, path), dict)]
            return _mutated(doc, draw(st.sampled_from(objects)) + (_UNDECLARED,), draw(json_values))
        if kind == "id":
            return _mutated(doc, row + (id_name,), draw(st.sampled_from(doc[key]))[id_name])
        value = edge_values | json_values | st.just(_REMOVE)
        return _mutated(doc, draw(st.sampled_from(paths)), draw(value))

    return mutated()


@settings(max_examples=200 * SCALE, deadline=None)
@given(data=st.data())
def test_a_table_reads_by_columns_as_by_rows_whichever_row_is_broken(database_doc, data):
    annotations = {key: rows for key, rows in database_doc.items() if key != "important_radius"}
    doc = data.draw(_any_row_mutations(annotations))
    # Blocks of three rows, so a broken row falls at any place in a block
    # and an earlier row of a repeated id in an earlier block.
    with mock.patch.object(canonical, "_BLOCK_ROWS", 3):
        by_blocks = _built(doc)
        with _row_loop_only():
            assert _built(doc) == by_blocks


def _saved_and_pairs(doc, path):
    """The saved bytes of ``build_database(doc)`` and its pairs file text."""
    db = build_database(doc)
    save_database(db, path)
    texts, _ = generate_dataset(db, GenerationConfig(master_seed=3, windows_per_scene=2))
    return path.read_bytes(), "".join(texts)


@st.composite
def _permuted(draw, doc):
    """A copy of ``doc`` with the rows of each table and each instance's
    ``camera_pos`` keys in a drawn order."""
    doc = {key: draw(st.permutations(rows)) for key, rows in doc.items()}
    doc["instances"] = [
        {**row, "camera_pos": dict(draw(st.permutations(list(row["camera_pos"].items()))))}
        for row in doc["instances"]
    ]
    return doc


@pytest.fixture(scope="module")
def in_order(workdir):
    """Annotations in their generated order, with their saved bytes and pairs."""
    annotations = demo_corpus(1, seed=2)
    return annotations, _saved_and_pairs(annotations, workdir / "in-order.db.json")


@settings(max_examples=25 * SCALE, deadline=None)
@given(data=st.data())
def test_row_and_view_order_reach_neither_the_saved_bytes_nor_the_pairs(workdir, in_order, data):
    annotations, expected = in_order
    doc = data.draw(_permuted(annotations))
    assert _saved_and_pairs(doc, workdir / "permuted.db.json") == expected


@settings(max_examples=100 * SCALE, deadline=None)
@given(data=st.data())
def test_save_load_save_is_a_fixed_point(workdir, database_doc, data):
    doc = data.draw(
        st.just(database_doc) | _mutations(database_doc) | _any_row_mutations(database_doc)
    )
    path = workdir / "fixed-point.db.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        loaded = load_database(path)
    except DriveSqlError:
        return
    save_database(loaded, path)
    saved = path.read_bytes()
    reloaded = load_database(path)
    assert reloaded == loaded
    save_database(reloaded, path)
    assert path.read_bytes() == saved


@pytest.mark.parametrize("radius", [0, 0.0, -1.5])
def test_load_database_names_a_radius_that_is_not_positive(tmp_path, database_doc, radius):
    path = tmp_path / "db.json"
    path.write_text(json.dumps({**database_doc, "important_radius": radius}), encoding="utf-8")
    with pytest.raises(AnnotationSchemaError) as err:
        load_database(path)
    assert err.value.path == "database.important_radius"


def _read_line(reader, path, line, expected_type):
    path.write_text(line + "\n", encoding="utf-8")
    try:
        rows = reader(path)
    except DriveSqlError as err:
        assert str(err).startswith(f"{path}:1: ")
    else:
        assert len(rows) == 1 and isinstance(rows[0], expected_type)


@settings(max_examples=100 * SCALE, deadline=None)
@given(value=json_values)
def test_read_pairs_on_any_json_line(workdir, value):
    path = workdir / "any.pairs.jsonl"
    _read_line(read_pairs_jsonl, path, json.dumps(value), InstructionResponsePair)


@settings(max_examples=200 * SCALE, deadline=None)
@given(data=st.data())
def test_read_pairs_on_a_mutated_pair(workdir, demo_pairs, data):
    doc = pair_to_dict(data.draw(st.sampled_from(demo_pairs[:40])))
    line = json.dumps(data.draw(_mutations(doc)))
    _read_line(read_pairs_jsonl, workdir / "mutated.pairs.jsonl", line, InstructionResponsePair)


def test_read_pairs_names_a_number_too_large_for_a_float(workdir, demo_pairs):
    doc = pair_to_dict(next(p for p in demo_pairs if isinstance(p.ground_truth, Numeric)))
    doc["ground_truth"]["values"][0] = 10**400
    path = workdir / "huge.pairs.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    with pytest.raises(DriveSqlError) as err:
        read_pairs_jsonl(path)
    assert str(err.value) == f"{path}:1: ground_truth.values[0]: expected a finite number, got inf"


@pytest.fixture(scope="module")
def prediction_docs(demo_pairs, tmp_path_factory):
    path = tmp_path_factory.mktemp("preds") / "preds.jsonl"
    write_predictions_jsonl(predictions_from_pairs(demo_pairs[:40]), path)
    return [json.loads(line) for line in path.read_text().splitlines()]


@settings(max_examples=100 * SCALE, deadline=None)
@given(value=json_values)
def test_read_predictions_on_any_json_line(workdir, value):
    _read_line(read_predictions_jsonl, workdir / "any.preds.jsonl", json.dumps(value), Prediction)


@settings(max_examples=200 * SCALE, deadline=None)
@given(data=st.data())
def test_read_predictions_on_a_mutated_prediction(workdir, prediction_docs, data):
    doc = data.draw(st.sampled_from([d for d in prediction_docs if len(d) > 2]))
    line = json.dumps(data.draw(_mutations(doc)))
    _read_line(read_predictions_jsonl, workdir / "mutated.preds.jsonl", line, Prediction)


def test_read_predictions_names_a_number_too_large_for_a_float(workdir, prediction_docs):
    doc = next(d for d in prediction_docs if d.get("detections"))
    doc = _mutated(doc, ("detections", 0, "score"), 10**400)
    path = workdir / "huge.preds.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    with pytest.raises(DriveSqlError) as err:
        read_predictions_jsonl(path)
    assert str(err.value) == f"{path}:1: detections[0].score: expected a finite number, got inf"


@pytest.fixture(scope="module")
def line_docs(demo_pairs, prediction_docs):
    """Valid lines of each reader, with the reader."""
    return {
        "pairs": (read_pairs_jsonl, [pair_to_dict(p) for p in demo_pairs[:40]]),
        "predictions": (read_predictions_jsonl, [d for d in prediction_docs if len(d) > 2]),
    }


@pytest.fixture(scope="module")
def line_files(demo_pairs, prediction_docs):
    """Lines of each format, every ground truth kind and every optional
    field both held and absent among them, with the format's reader."""
    return {
        "pairs": (read_pairs_jsonl, [pair_to_dict(p) for p in demo_pairs[:40]]),
        "predictions": (read_predictions_jsonl, prediction_docs),
    }


def _any_line_mutations(docs):
    """The text of a file of ``docs``, one line a line, broken in one place
    at any line: the line mutated as ``_mutations`` mutates one, a float in
    it replaced by its negation, a zero or any float, its ``pair_id`` set to
    an earlier line's (with or without a blank line anywhere before it), or
    a blank line put in front of it."""

    @st.composite
    def mutated(draw):
        lines = [json.dumps(doc) for doc in docs]
        at = draw(st.integers(0, len(docs) - 1))
        floats = [path for path in _node_paths(docs[at]) if type(_node(docs[at], path)) is float]
        kind = draw(st.sampled_from(("node", "float", "repeat", "blank")))
        if kind == "float" and floats:
            path = draw(st.sampled_from(floats))
            value = st.sampled_from([-_node(docs[at], path), 0.0, -0.0]) | st.floats()
            lines[at] = json.dumps(_mutated(docs[at], path, draw(value)))
        elif kind == "repeat" and at:
            earlier = docs[draw(st.integers(0, at - 1))]["pair_id"]
            lines[at] = json.dumps({**docs[at], "pair_id": earlier})
            if draw(st.booleans()):
                lines.insert(draw(st.integers(0, at)), "")
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t", "\r"])))
        else:
            lines[at] = json.dumps(draw(_mutations(docs[at])))
        return "\n".join(lines) + "\n"

    return mutated()


def _records_or_refusal(reader, path):
    """Each record's type and ``repr``, or the refusal."""
    try:
        rows = reader(path)
    except DriveSqlError as err:
        return str(err)
    # The column forms build boxes past ``__new__``, and thresholds through
    # it: each must pass the check that building it by name makes.
    for row in rows:
        if isinstance(row, Prediction):
            detections = row.detections or ()
        else:
            detections = getattr(row.ground_truth, "items", ())
            if row.thresholds_used is not None:
                assert RiskThresholds(*row.thresholds_used) == row.thresholds_used
        for detection in detections:
            assert BBox2D(*detection.bbox) == detection.bbox
    return [(type(row), repr(row)) for row in rows]


@contextmanager
def _line_by_line_only():
    """Each line format's column form declines every block, so each line is
    read by the format's per-line reader alone."""
    with ExitStack() as stack:
        for reader in (generation.pair_from_dict, evaluation._PREDICTION_LINE):
            stack.enter_context(mock.patch.object(reader, "column", lambda docs: None))
        yield


@pytest.mark.parametrize("form", ["pairs", "predictions"])
@settings(max_examples=200 * SCALE, deadline=None)
@given(data=st.data())
def test_a_line_file_reads_by_blocks_as_line_by_line_whichever_line_is_broken(
    workdir, line_files, form, data
):
    reader, docs = line_files[form]
    path = workdir / f"blocks.{form}.jsonl"
    path.write_text(data.draw(_any_line_mutations(docs)), encoding="utf-8")
    # Blocks of three lines, so a broken line falls at any place in a block
    # and an earlier line of a repeated id in an earlier block.
    with mock.patch.object(canonical, "_BLOCK_ROWS", 3):
        by_blocks = _records_or_refusal(reader, path)
        with _line_by_line_only():
            assert _records_or_refusal(reader, path) == by_blocks
    _assert_a_repeat_names_its_first_line(path, by_blocks)


def _assert_a_repeat_names_its_first_line(path, refusal):
    """A repeated ``pair_id`` is refused on the line that repeats it, naming
    the first line that holds it, blank lines counted."""
    if not isinstance(refusal, str) or " is repeated, first on line " not in refusal:
        return
    where, _, rest = refusal.removeprefix(f"{path}:").partition(": pair_id: ")
    pair_id, _, first = rest.rpartition(" is repeated, first on line ")
    lines = path.read_text(encoding="utf-8").split("\n")[: int(where)]
    holding = [
        n for n, line in enumerate(lines, 1)
        if line.strip() and json.loads(line).get("pair_id") == ast.literal_eval(pair_id)
    ]
    assert holding[0] == int(first) and holding[1:] == [int(where)], refusal


def test_real_line_files_are_read_by_columns_alone(workdir, demo_pairs):
    """Demo pairs and their echoed predictions never reach a per-line
    reader: a column form that gave up on real files would fail here."""
    pairs, preds = workdir / "real.pairs.jsonl", workdir / "real.preds.jsonl"
    write_pairs_jsonl(demo_pairs, pairs)
    write_predictions_jsonl(predictions_from_pairs(demo_pairs), preds)
    read_lines = []

    def counted(reader):
        def read_line(doc):
            read_lines.append(doc)
            return reader(doc)

        read_line.column = reader.column
        return read_line

    with mock.patch.object(generation, "pair_from_dict", counted(generation.pair_from_dict)):
        assert read_pairs_jsonl(pairs) == demo_pairs
    with mock.patch.object(evaluation, "_PREDICTION_LINE", counted(evaluation._PREDICTION_LINE)):
        assert read_predictions_jsonl(preds) == predictions_from_pairs(demo_pairs)
    assert read_lines == []


class _Ends(NamedTuple):
    low: float
    high: float


class _Ordered(_Ends):
    """Ends put in order by ``__new__``, which refuses equal ones."""

    __slots__ = ()

    def __new__(cls, low: float, high: float) -> "_Ordered":
        if low == high:
            raise ValueError(f"equal ends {low}")
        return tuple.__new__(cls, (min(low, high), max(low, high)))


def test_an_object_column_builds_a_record_through_its_own_new():
    """A record that overrides ``__new__`` is built through it by the column
    form too: what it makes of a row shows, and a row it refuses sends the
    block back to the per-row check, which alone names the refusal."""
    read = scene_db._object(_Ordered, {"low": scene_db._as_float, "high": scene_db._as_float})
    rows = [{"low": 2.0, "high": 1.0}, {"low": 0.5, "high": 3.0}]
    assert read.column(rows) == list(map(read, rows)) == [(1.0, 2.0), (0.5, 3.0)]
    assert all(type(row) is _Ordered for row in read.column(rows))
    assert read.column([*rows, {"low": 1.0, "high": 1.0}]) is None


@pytest.mark.parametrize("block_rows", [1, 2, 3, canonical._BLOCK_ROWS])
def test_a_line_that_is_json_only_when_joined_to_the_next_is_refused(
    workdir, demo_pairs, block_rows
):
    """A pairs line cut after the first detection of its list, the rest on
    the next line: joined by a comma the two lines are one valid pair, but
    each line is decoded on its own, and the first is refused by its number."""
    pair = next(p for p in demo_pairs if len(getattr(p.ground_truth, "items", ())) > 1)
    line = canonical_dumps(pair_to_dict(pair))
    cut = line.index("},{", line.index('"items":[')) + 1
    head, tail = line[:cut], line[cut + 1 :]
    assert json.loads(f"[{head},{tail}]") == [pair_to_dict(pair)]
    with pytest.raises(ValueError) as not_json:
        json.loads(head)
    others = [canonical_dumps(pair_to_dict(p)) for p in demo_pairs[:2]]
    path = workdir / "joined.pairs.jsonl"
    path.write_text("\n".join([others[0], head, tail, others[1]]) + "\n", encoding="utf-8")
    with mock.patch.object(canonical, "_BLOCK_ROWS", block_rows):
        with pytest.raises(DriveSqlError) as err:
            read_pairs_jsonl(path)
    assert str(err.value) == f"{path}:2: {not_json.value}"


def _rows_or_refusal(reader, path, line):
    path.write_text(line + "\n", encoding="utf-8")
    try:
        return reader(path)
    except DriveSqlError as err:
        return str(err)


def _declared(fields, at=()):
    """``(key path, rule)`` for every field a field table declares, and
    below it: object fields, an array's first item, an optional field's
    value and every variant of a tagged object, read from the checks'
    closures. The rule is ``required``, ``optional`` or ``item``; and each
    table's object gets an ``undeclared`` key, which it refuses."""
    yield at + (_UNDECLARED,), "undeclared"
    for name, check in fields.items():
        yield at + (name,), "optional" if check.__name__ == "read_optional" else "required"
        yield from _below(check, at + (name,))


def _below(check, at):
    inner = inspect.getclosurevars(check).nonlocals
    if check.__name__ == "read_optional":
        yield from _below(inner["kind"], at)
    elif check.__name__ == "read_array":
        yield at + (0,), "item"
        yield from _below(inner["item"], at + (0,))
    elif check.__name__ == "read_object":
        yield from _declared(inner["fields"], at)
    elif check.__name__ == "read_tagged":
        yield at + (inner["tag"],), "required"
        for variant in inner["variants"].values():
            yield from _below(variant, at)


def _node(doc, at):
    for key in at:
        doc = doc[key]
    return doc


def _holds(doc, at):
    try:
        _node(doc, at)
    except (KeyError, IndexError, TypeError):
        return False
    return True


def _field_path(at):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in at).lstrip(".")


# A value of another JSON type than the valid one, for each valid type.
_WRONG_TYPE = {str: 7, int: "7", float: "7", bool: "7", list: {"x": 1}, dict: [1]}

# Synth requests that hold every field their form declares.
_SYNTH_SAMPLE = {"sample": {"n_random": 1, "seed": 3, "include_curated": False}}
_SYNTH_SCENES = {"scenes": [{
    "scripts": [{
        "kind": "braking",
        "category": "car",
        "lane": "2",
        "waypoints": [
            {"t": 0.0, "x": 14.0, "y": 0.0, "z": 0.0, "yaw": 0.0, "speed": 4.0, "lane": "3"},
            {"t": 1.0, "x": 10.5, "y": 0.0, "speed": 0.0},
        ],
    }],
    "n_frames": 3,
    "seed": 5,
    "scene_id": "every_field",
    "ego_speed": 4.0,
    "ego_yaw": 0.0,
}]}


def _read_synth_request(path):
    return synth.read_synth_request(json.loads(path.read_text(encoding="utf-8")), path)


def test_every_declared_field_is_refused_by_its_path(workdir, line_docs, database_doc):
    # Per boundary: its reader, valid inputs, its declared fields, and what
    # follows the file's path in a refusal.
    boundaries = {
        "pairs": (*line_docs["pairs"], _declared(generation._PAIR_FIELDS), ":1"),
        "predictions": (*line_docs["predictions"], _below(evaluation._PREDICTION_LINE, ()), ":1"),
        "synth-sample": (
            _read_synth_request, [_SYNTH_SAMPLE], _below(synth._SAMPLE, ("sample",)), ""
        ),
        "synth-scenes": (
            _read_synth_request, [_SYNTH_SCENES], _declared({"scenes": synth._SCENES}), ""
        ),
    }
    for name, (reader, docs, declared, line) in boundaries.items():
        path = workdir / f"declared.{name}"
        for at, rule in dict(declared).items():
            field = f"{path}{line}: {_field_path(at)}"
            if rule == "undeclared":
                # Every valid input that holds the object, so that each
                # variant of a tagged object is tried.
                holders = [d for d in docs if _holds(d, at[:-1])]
                assert holders, f"no valid {name} input holds {_field_path(at[:-1]) or 'a line'}"
                for doc in holders:
                    refusal = _rows_or_refusal(reader, path, json.dumps(_mutated(doc, at, 1)))
                    assert refusal == f"{field}: unexpected field"
                continue
            doc = next((d for d in docs if _holds(d, at)), None)
            assert doc is not None, f"no valid {name} input holds {_field_path(at)}"
            wrong = _WRONG_TYPE[type(_node(doc, at))]
            refusal = _rows_or_refusal(reader, path, json.dumps(_mutated(doc, at, wrong)))
            assert isinstance(refusal, str) and refusal.startswith(f"{field}: "), refusal
            if rule == "required":
                refusal = _rows_or_refusal(reader, path, json.dumps(_mutated(doc, at, _REMOVE)))
                assert refusal == f"{field}: missing required field"
            elif rule == "optional":
                assert not isinstance(_rows_or_refusal(reader, path, json.dumps(
                    _mutated(doc, at, _REMOVE))), str)

    # The database names a row by its id once the id is read, or by its
    # index in ``scenes``; its top level and every row refuse an undeclared key.
    path = workdir / "declared.db.json"
    undeclared = {(_UNDECLARED,): f"database.{_UNDECLARED}"}
    for table in scene_db._TABLES:
        key, first = table.key, database_doc[table.key][0]
        row = f"{key}[id={first[table.row.record._fields[0]]}]" if table.by_id else f"{key}[0]"
        undeclared[(key, 0, _UNDECLARED)] = f"{row}.{_UNDECLARED}"
    for at, name in undeclared.items():
        path.write_text(json.dumps(_mutated(database_doc, at, 1)), encoding="utf-8")
        with pytest.raises(AnnotationSchemaError) as err:
            load_database(path)
        assert str(err.value) == f"{path}: {name}: unexpected field"


replies = json_values | st.fixed_dictionaries(
    {"verdict": st.sampled_from(["keep", "drop", "revise", "maybe"]) | json_values},
    optional={
        "reason": json_values,
        "revised_response": st.text(max_size=8) | json_values,
        _UNDECLARED: json_values,
    },
)

# Per verdict, the fields beside ``verdict`` that a reply may hold, each with
# the types it may take, and whether it must be there.
_VERDICT_FIELDS = {
    "keep": {},
    "drop": {"reason": ((str, type(None)), False)},
    "revise": {"revised_response": ((str,), True)},
}


def _declared_reply(reply):
    """Whether ``reply`` is a verdict the reply table reads."""
    verdict = reply.get("verdict") if isinstance(reply, dict) else None
    fields = _VERDICT_FIELDS.get(verdict) if isinstance(verdict, str) else None
    if fields is None:
        return False
    rest = {key: value for key, value in reply.items() if key != "verdict"}
    return rest.keys() <= fields.keys() and all(
        isinstance(rest[name], types) if name in rest else not required
        for name, (types, required) in fields.items()
    ) and rest.get("revised_response") != ""


@settings(max_examples=100 * SCALE, deadline=None)
@given(reply=replies)
def test_any_reviewer_reply_keeps_rejects_or_flags_the_pair(demo_pairs, reply):
    pair = demo_pairs[0]
    with mock.patch.object(generation, "_consult_external", lambda endpoint, p: (reply, 1)):
        result = verify_pairs([pair], "http://127.0.0.1:9/review")
    kept_ids = [p.pair_id for p in result.kept]
    rejected_ids = [pid for pid, _ in result.rejected]
    assert sorted(kept_ids + rejected_ids) == [pair.pair_id]
    assert all(isinstance(reason, str) for _, reason in result.rejected)
    if not _declared_reply(reply):
        assert result.unverified == {pair.pair_id} and result.kept == [pair]
    else:
        assert result.unverified == set()
        if reply["verdict"] == "drop":
            reason = reply.get("reason")
            assert result.rejected == [
                (pair.pair_id, "dropped by verifier" if reason is None else reason)
            ]
    assert result.requests == 1
