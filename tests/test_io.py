import base64
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmm.cli import main
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
    # instance fields are packed on disk; outputs stay readable lists
    raw = json.loads(path.read_text())
    assert raw["schema"] == REPORT_SCHEMA == 2
    for row in raw["rows"]:
        for name in INSTANCE_FIELDS:
            if name in row:
                assert sorted(row[name]) == ["f8", "shape"]
        if "c_tilde" in row:
            assert isinstance(row["c_tilde"], list)
        assert isinstance(row["ledger"], dict)


def _encoder_packed(report: dict) -> dict:
    """The report as json.dumps sees it: schema set, instance fields packed."""
    def pack(values):
        arr = np.asarray(values, dtype="<f8")
        return {"shape": list(arr.shape), "f8": base64.b64encode(arr.tobytes()).decode("ascii")}

    rows = [{k: pack(v) if k in INSTANCE_FIELDS else v for k, v in row.items()} for row in report["rows"]]
    return dict(report, schema=REPORT_SCHEMA, rows=rows)


@pytest.mark.parametrize("method", ["swap", "readout-hhl", "prep-signshift"])
def test_saved_report_is_the_encoder_text_byte_for_byte(tmp_path, method):
    report = _report(method)
    # strings that the encoder escapes: quotes, backslashes, control and non-ASCII characters
    report["config"] = {"note": 'a "quoted" \\ path\n\tμ→∞', "ключ": ["é", "\u2028", None, float("nan")]}
    report["method"] = "ünïcode \"method\""
    report["rows"][0]["details"] = {"ké\"y": "\x00\x1f\u00ff\U0001f600", "empty": {}, "list": []}
    report["rows"].append({"id": "no instance", "x": [], "a": np.zeros((2, 0))})
    report["rows"].append({})
    path = tmp_path / "r.json"
    save_report_json(path, report)
    assert path.read_bytes() == json.dumps(_encoder_packed(report), sort_keys=True).encode("utf-8")
    save_report_json(path, {"method": "no rows", "config": {}})
    assert path.read_text(encoding="utf-8") == json.dumps({"config": {}, "method": "no rows", "schema": REPORT_SCHEMA}, sort_keys=True)


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


@given(INSTANCE_ARRAYS)
@example(np.array(SPECIAL))
@example(np.array(SPECIAL[:6]).reshape(2, 3))
def test_schema_1_instance_lists_load_as_bit_exact_arrays(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("schema1") / "r.json"
    path.write_text(json.dumps({"schema": 1, "rows": [{"id": "r", "x": values.tolist()}]}))
    assert_bit_exact_array(load_report_json(path)["rows"][0]["x"], values)


def assert_bit_exact_array(got, values):
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == values.shape
    assert np.array_equal(got.view(np.uint64), values.view(np.uint64))


def _schema_1(report: dict) -> dict:
    """The report as schema 1 wrote it: instance fields as plain lists."""
    rows = [{k: v.tolist() if k in INSTANCE_FIELDS else v for k, v in row.items()} for row in report["rows"]]
    return dict(report, schema=1, rows=rows)


def test_schema_1_report_loads_and_verifies(tmp_path, capsys):
    report = _report("sve")
    path = tmp_path / "old.json"
    path.write_text(json.dumps(_schema_1(report)))
    assert comparable_rows(load_report_json(path)["rows"]) == comparable_rows(report["rows"])
    assert main(["verify", str(path)]) == 0
    assert "pass" in capsys.readouterr().out


def test_resaved_schema_1_report_is_labelled_schema_2(tmp_path):
    report = _report("prep-dyadic")
    path = tmp_path / "r.json"
    path.write_text(json.dumps(_schema_1(report)))
    save_report_json(path, load_report_json(path))
    raw = json.loads(path.read_text())
    assert raw["schema"] == 2
    assert sorted(raw["rows"][0]["x"]) == ["f8", "shape"]
    assert comparable_rows(load_report_json(path)["rows"]) == comparable_rows(report["rows"])


@pytest.mark.parametrize(
    "packed, why",
    [
        ({"shape": [2], "f8": "not base64!"}, "base64"),
        ({"shape": [3], "f8": "AAAAAAAA8D8AAAAAAAAAQA=="}, "shape"),  # 2 floats, shape says 3
        ({"shape": [1], "f8": "AAAA"}, "byte count"),  # 3 bytes
        ({"f8": "AAAAAAAA8D8="}, "no shape"),
    ],
)
def test_undecodable_packed_field_names_file_row_and_field(tmp_path, packed, why):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 2, "rows": [{"id": "row-7", "b": packed}]}))
    with pytest.raises(ValueError) as exc:
        load_report_json(path)
    message = str(exc.value)
    assert str(path) in message and "'row-7'" in message and "'b'" in message, why
