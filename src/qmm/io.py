"""Flat-file formats: CSV matrices and vectors, JSON reports.

Matrices are one row per line, comma-separated decimal reals; any other
token, a complex one included, is an error naming its line. Reports are
versioned JSON (schema 3), the text of json.dumps with sorted keys. The
rows' instance fields (INSTANCE_FIELDS) are float64 arrays, stored once
per distinct array in the report's "instances" list, packed as {"shape":
[...], "f8": base64 of the little-endian float64 bytes}, in order of first
use; a row's field is the index of its entry. The rows are encoded as plain
dicts; only the table's base64 is written past the encoder. Loading gives
every row that refers to an entry the same read-only array, bit for bit,
and drops the list; outputs stay readable lists. A report of any other
schema is an error.
"""
from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

REPORT_SCHEMA = 3
INSTANCE_FIELDS = ("a", "b", "x")  # the inputs verify_bounds recomputes from


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = [p.strip() for p in text.split(",")]
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"{path}: line {lineno}: expected {width} columns, got {len(row)}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    return np.array(rows)


def save_matrix_csv(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(matrix):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_vector_csv(path) -> np.ndarray:
    """A vector is one line of comma-separated values or one value per line."""
    mat = load_matrix_csv(path)
    if 1 in mat.shape or mat.ndim == 1:
        return mat.reshape(-1)
    raise ValueError(f"{path}: expected a single row or column of values")


def _unpack(packed) -> np.ndarray:
    """The read-only array of a packed {"shape": [...], "f8": base64}."""
    if not isinstance(packed, dict):
        raise ValueError(f"a packed array is a JSON object, not {type(packed).__name__}")
    for key in ("shape", "f8"):
        if key not in packed:
            raise ValueError(f"a packed array has no {key!r}")
    shape = packed["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"a shape is a list of non-negative integers, not {shape!r}")
    raw = base64.b64decode(packed["f8"], validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def save_report_json(path, report: dict) -> None:
    """Write the report as json.dumps(report, sort_keys=True) would, byte
    for byte, with the rows' instance fields replaced by indices into an
    "instances" list that packs each distinct array once (arrays are
    distinct when their shapes or little-endian bytes differ). json.dumps
    encodes each other member; the table's base64 is written in pieces, so
    it is never copied into one string. Without rows, there is no table, and
    a caller's own "instances" member is not written either."""
    report = {k: v for k, v in report.items() if k != "instances"} | {"schema": REPORT_SCHEMA}
    if "rows" in report:
        table = {}  # (shape, bytes) -> index, in order of first use
        rows = [dict(row) for row in report["rows"]]
        for row in rows:
            for k in INSTANCE_FIELDS:
                if k in row:
                    arr = np.asarray(row[k], dtype="<f8")  # no copy for a float64 array
                    row[k] = table.setdefault((arr.shape, arr.tobytes()), len(table))
        report.update(rows=rows, instances=None)  # the instances' text is written below
    with open(path, "w", encoding="utf-8") as fh:
        for i, k in enumerate(sorted(report)):
            fh.write(", " if i else "{")
            if k == "instances":
                fh.write('"instances": [')
                for j, (shape, raw) in enumerate(table):
                    fh.writelines([", " if j else "", '{"f8": "', base64.b64encode(raw).decode("ascii"), '", "shape": ', json.dumps(list(shape)), "}"])
                fh.write("]")
            else:
                fh.write(json.dumps({k: report[k]}, sort_keys=True)[1:-1])
        fh.write("}")


def load_report_json(path) -> dict:
    """Read a schema 3 report; instance fields come back as float64 arrays.
    The "instances" list is dropped; each entry a row refers to is decoded
    once, and every row that refers to it gets the same read-only array."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(report, dict):
        raise ValueError(f"{path}: a report is a JSON object, not {type(report).__name__}")
    schema = report.get("schema")
    if type(schema) is not int or schema != REPORT_SCHEMA:  # 3.0 == 3, but it is not a schema
        raise ValueError(f"{path}: unsupported report schema {schema!r}")
    rows = report.get("rows", [])
    if not isinstance(rows, list):
        raise ValueError(f"{path}: the rows are a JSON list, not {type(rows).__name__}")
    table = report.pop("instances", [])
    if not isinstance(table, list):
        raise ValueError(f"{path}: the instances are a JSON list, not {type(table).__name__}")
    decoded = {}

    def instance(value) -> np.ndarray:
        if type(value) is not int:
            raise ValueError(f"an instance field is an index into the instances, not {type(value).__name__}")
        if not 0 <= value < len(table):
            raise ValueError(f"index {value} is outside the {len(table)} instances")
        if value not in decoded:
            decoded[value] = _unpack(table[value])
        return decoded[value]

    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: row {index}: a row is a JSON object, not {type(row).__name__}")
        for name in INSTANCE_FIELDS:
            if name in row:
                try:
                    row[name] = instance(row[name])
                except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
                    raise ValueError(
                        f"{path}: row {row.get('id', '?')!r}: field {name!r} cannot be decoded: {exc}"
                    ) from exc
    return report
