import base64
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmm.harness import (
    MULTIPLY_METHODS,
    PREP_METHODS,
    READOUT_METHODS,
    ExperimentConfig,
    generate_matrix,
    generate_vector,
    run_experiment,
    verify_bounds,
)
from qmm.io import INSTANCE_FIELDS, REPORT_SCHEMA, load_report_json, save_report_json
from helpers import comparable_rows

TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal
BIG = sys.float_info.max
SPECIAL = [-0.0, 0.0, TINY, -TINY, sys.float_info.min / 2, BIG, -BIG]


def _report(method: str) -> dict:
    if method in PREP_METHODS:
        inputs = {"x": generate_vector(16, 4.0, seed=3)}
    else:
        inputs = {"a": generate_matrix(4, 2.0, seed=3), "b": generate_matrix(4, 2.0, seed=10_003)}
    return run_experiment(ExperimentConfig(method=method, eps=0.05, seed=3, inputs=inputs)).to_dict()


@pytest.mark.parametrize("method", MULTIPLY_METHODS + READOUT_METHODS + PREP_METHODS)
def test_report_round_trip_keeps_rows_and_verifies(tmp_path, method):
    report = _report(method)
    path = tmp_path / "r.json"
    save_report_json(path, report)
    loaded = load_report_json(path)
    assert comparable_rows(loaded["rows"]) == comparable_rows(report["rows"])
    assert verify_bounds(loaded) == (True, [])
    # instance fields are indices into the packed instance table on disk;
    # outputs stay readable lists
    raw = json.loads(path.read_text())
    assert raw["schema"] == REPORT_SCHEMA == 3
    for entry in raw["instances"]:
        assert sorted(entry) == ["f8", "shape"]
    for row in raw["rows"]:
        for name in INSTANCE_FIELDS:
            if name in row:
                assert type(row[name]) is int and 0 <= row[name] < len(raw["instances"])
        if "c_tilde" in row:
            assert isinstance(row["c_tilde"], list)
        assert isinstance(row["ledger"], dict)


def _pack(values) -> dict:
    arr = np.asarray(values, dtype="<f8")
    return {"shape": list(arr.shape), "f8": base64.b64encode(arr.tobytes()).decode("ascii")}


def _encoder_packed(report: dict) -> dict:
    """The report as json.dumps sees it: schema set, each distinct instance
    array packed once in "instances", in order of first use, and each
    instance field the index of its entry."""
    instances, rows = [], []
    for row in report["rows"]:
        row = dict(row)
        for k in INSTANCE_FIELDS:
            if k in row:
                packed = _pack(row[k])
                if packed not in instances:
                    instances.append(packed)
                row[k] = instances.index(packed)
        rows.append(row)
    return dict(report, schema=REPORT_SCHEMA, instances=instances, rows=rows)


@pytest.mark.parametrize("method", ["swap", "readout-hhl", "prep-signshift"])
def test_saved_report_is_the_encoder_text_byte_for_byte(tmp_path, method):
    report = _report(method)
    # strings that the encoder escapes: quotes, backslashes, control and non-ASCII characters
    report["config"] = {"note": 'a "quoted" \\ path\n\tμ→∞', "ключ": ["é", "\u2028", None, float("nan")]}
    report["method"] = "ünïcode \"method\""
    report["rows"][0]["details"] = {"ké\"y": "\x00\x1f\u00ff\U0001f600", "empty": {}, "list": []}
    report["rows"].append({"id": "no instance", "x": [], "a": np.zeros((2, 0))})
    report["rows"].append({})
    report["rows"].append(dict(report["rows"][0], id="repeat"))
    report["rows"].append({"id": "signed zeros", "a": [0.0], "b": [-0.0], "x": np.zeros(1)})
    path = tmp_path / "r.json"
    save_report_json(path, report)
    assert path.read_bytes() == json.dumps(_encoder_packed(report), sort_keys=True).encode("utf-8")
    save_report_json(path, {"method": "no rows", "config": {}})
    assert path.read_text(encoding="utf-8") == json.dumps({"config": {}, "method": "no rows", "schema": REPORT_SCHEMA}, sort_keys=True)


# top-level keys that sort before "config", between it and "instances",
# and after "instances"; a caller's own "instances" and "schema" included
TOP_KEYS = ["Z", "a", "config", "config0", "eps", "instances", "instances0", "method", "schema", "zz", "é"]
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False), st.text(max_size=3))
MEMBERS = st.one_of(LEAVES, st.lists(LEAVES, max_size=3), st.dictionaries(st.text(max_size=3), LEAVES, max_size=3))
POOL = [np.zeros(0), np.zeros((2, 0)), np.array([0.0]), np.array([-0.0]), np.arange(3.0), np.arange(6.0).reshape(2, 3)]


@st.composite
def _row(draw):
    row = {k: draw(MEMBERS) for k in draw(st.sets(st.sampled_from(["a0", "c_tilde", "id", "x0", "y"])))}
    for k in draw(st.sets(st.sampled_from(INSTANCE_FIELDS))):
        arr = POOL[draw(st.integers(0, len(POOL) - 1))]
        row[k] = arr.tolist() if draw(st.booleans()) else arr
    return row


@st.composite
def _reports(draw):
    report = {k: draw(MEMBERS) for k in draw(st.sets(st.sampled_from(TOP_KEYS)))}
    rows = draw(st.none() | st.lists(_row(), max_size=4))
    if rows is not None:
        report["rows"] = rows
    return report


@settings(max_examples=150)
@given(_reports())
@example({"Z": 1, "config": {}, "instances": [1, "t"], "zz": None})
@example({"instances": [None], "instances0": [], "rows": []})
@example({"instances": 5})
@example({"a": [], "rows": [{}, {"id": "r", "x": POOL[1]}, {"x": POOL[0], "a": POOL[1].tolist()}], "zz": 0})
def test_saved_report_is_the_encoder_text_for_any_key_set(tmp_path_factory, report):
    top, rows = dict(report), list(report.get("rows", []))
    row_items = [dict(row) for row in rows]
    path = tmp_path_factory.mktemp("keys") / "r.json"
    save_report_json(path, report)
    # the caller's report and rows keep their keys and their very objects
    assert report.keys() == top.keys() and all(report[k] is top[k] for k in top)
    assert len(report.get("rows", [])) == len(rows) and all(a is b for a, b in zip(report.get("rows", []), rows))
    for row, before in zip(rows, row_items):
        assert row.keys() == before.keys() and all(row[k] is before[k] for k in before)
    if "rows" in report:
        expected = _encoder_packed(report)
    else:  # no table, and a caller's own "instances" is not written either
        expected = dict(report, schema=REPORT_SCHEMA)
        expected.pop("instances", None)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(expected, sort_keys=True)
    loaded, plain = load_report_json(path), json.loads(text)
    plain.pop("instances", None)
    loaded_rows, plain_rows = loaded.pop("rows", []), plain.pop("rows", [])
    assert loaded == plain and len(loaded_rows) == len(rows)
    for got, want, row in zip(loaded_rows, plain_rows, rows):
        for k in INSTANCE_FIELDS:
            if k in row:
                assert_bit_exact_array(got.pop(k), np.asarray(row[k], dtype=np.float64))
                del want[k]
        assert got == want

def _float_array_shapes():
    vector = st.tuples(st.integers(0, 40))
    non_square = st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda s: s[0] != s[1])
    return st.one_of(vector, non_square)


INSTANCE_ARRAYS = arrays(
    np.float64,
    _float_array_shapes(),
    elements=st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False)),
)


@given(INSTANCE_ARRAYS)
@example(np.array(SPECIAL))
@example(np.array(SPECIAL[:6]).reshape(2, 3))
def test_packed_instance_round_trip_is_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("packed") / "r.json"
    save_report_json(path, {"rows": [{"id": "r", "x": values.tolist()}, {"id": "s", "x": values}]})
    for row in load_report_json(path)["rows"]:
        assert_bit_exact_array(row["x"], values)


def assert_bit_exact_array(got, values):
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == values.shape
    assert np.array_equal(got.view(np.uint64), values.view(np.uint64))


def test_save_load_save_is_byte_identical(tmp_path):
    report = _report("readout-sve")
    report["rows"] += _report("swap")["rows"] + _report("prep-signshift")["rows"] + report["rows"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_report_json(first, report)
    save_report_json(second, load_report_json(first))
    assert second.read_bytes() == first.read_bytes()


ROW_REFS = st.lists(st.dictionaries(st.sampled_from(INSTANCE_FIELDS), st.integers(0, 3)), min_size=1, max_size=5)


@given(st.lists(INSTANCE_ARRAYS, min_size=1, max_size=4), ROW_REFS)
@example(
    [np.array([0.0]), np.array([-0.0]), np.zeros(0), np.zeros((2, 0))],
    [{"a": 0, "b": 1}, {"x": 2}, {"a": 3, "x": 0}, {"b": 1, "x": 3}],
)
def test_instance_table_packs_each_distinct_array_once(tmp_path_factory, pool, refs):
    # each row holds its own copy, so rows share an entry by value, not identity
    rows = [{"id": str(i), **{k: pool[j % len(pool)].copy() for k, j in r.items()}} for i, r in enumerate(refs)]
    path = tmp_path_factory.mktemp("table") / "r.json"
    save_report_json(path, {"rows": rows})
    raw = json.loads(path.read_text())
    table = [(tuple(e["shape"]), base64.b64decode(e["f8"])) for e in raw["instances"]]
    distinct = {(row[k].shape, row[k].tobytes()) for row in rows for k in INSTANCE_FIELDS if k in row}
    assert len(table) == len(set(table)) and set(table) == distinct
    loaded = load_report_json(path)
    assert "instances" not in loaded
    shared = {}
    for row, saved, got in zip(rows, raw["rows"], loaded["rows"]):
        assert sorted(got) == sorted(row)
        for k in INSTANCE_FIELDS:
            if k in row:
                assert_bit_exact_array(got[k], row[k])
                assert not got[k].flags.writeable
                assert shared.setdefault(saved[k], got[k]) is got[k]
    assert len(shared) == len(table)


# each case's error, after the file, row and field that name where it is
PACKED_ERRORS = {
    "base64": "Only base64 data is allowed",
    "shape": "cannot reshape array of size 2 into shape (3,)",
    "byte count": "buffer size must be a multiple of element size",
    "no shape": "a packed array has no 'shape'",
    "negative size": "a shape is a list of non-negative integers, not [-1]",
    "negative second size": "a shape is a list of non-negative integers, not [2, -1]",
    "a bool size": "a shape is a list of non-negative integers, not [True]",
    "a float size": "a shape is a list of non-negative integers, not [2.0]",
    "a shape that is not a list": "a shape is a list of non-negative integers, not 1",
    "a list entry": "a packed array is a JSON object, not list",
    "no f8": "a packed array has no 'f8'",
    "an f8 that is not a string": "argument should be a bytes-like object or ASCII string, not 'int'",
}


@pytest.mark.parametrize(
    "packed, why",
    [
        ({"shape": [2], "f8": "not base64!"}, "base64"),
        ({"shape": [3], "f8": "AAAAAAAA8D8AAAAAAAAAQA=="}, "shape"),  # 2 floats, shape says 3
        ({"shape": [1], "f8": "AAAA"}, "byte count"),  # 3 bytes
        ({"f8": "AAAAAAAA8D8="}, "no shape"),
        (dict(_pack(np.arange(4.0)), shape=[-1]), "negative size"),
        (dict(_pack(np.arange(4.0)), shape=[2, -1]), "negative second size"),
        (dict(_pack([1.0]), shape=[True]), "a bool size"),
        (dict(_pack([1.0, 2.0]), shape=[2.0]), "a float size"),
        (dict(_pack([1.0]), shape=1), "a shape that is not a list"),
        ([1.0, 2.0], "a list entry"),
        ({"shape": [1]}, "no f8"),
        ({"shape": [1], "f8": 5}, "an f8 that is not a string"),
    ],
)
def test_undecodable_packed_field_names_file_row_and_field(tmp_path, packed, why):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 3, "instances": [packed], "rows": [{"id": "row-7", "b": 0}]}))
    with pytest.raises(ValueError) as exc:
        load_report_json(path)
    assert str(exc.value) == f"{path}: row 'row-7': field 'b' cannot be decoded: {PACKED_ERRORS[why]}"


@pytest.mark.parametrize(
    "ref, why",
    [
        (True, "a bool"),
        (0.0, "a float"),
        ("0", "a string"),
        (None, "null"),
        (-1, "negative"),
        (2, "past the table"),
        ([0], "a list"),
        (_pack([1.0, 2.0]), "an inline packed field"),
    ],
)
def test_bad_instance_reference_names_file_row_and_field(tmp_path, ref, why):
    path = tmp_path / "bad.json"
    # True and 0.0 equal valid indices in Python, so the table has two entries
    report = {"schema": 3, "instances": [_pack([1.0]), _pack([2.0])], "rows": [{"id": "row-3", "a": 0, "b": ref}]}
    path.write_text(json.dumps(report))
    with pytest.raises(ValueError) as exc:
        load_report_json(path)
    message = str(exc.value)
    assert str(path) in message and "'row-3'" in message and "'b'" in message, why


def test_undecodable_table_entry_names_the_row_that_refers_to_it(tmp_path):
    path = tmp_path / "bad.json"
    report = {"schema": 3, "instances": [_pack([1.0]), dict(_pack(np.arange(4.0)), shape=[-1])], "rows": [{"id": "row-5", "x": 1}]}
    path.write_text(json.dumps(report))
    with pytest.raises(ValueError, match=r"row 'row-5': field 'x' cannot be decoded: a shape is a list of non-negative"):
        load_report_json(path)
