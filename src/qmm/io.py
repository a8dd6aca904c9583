"""Flat-file formats: CSV matrices and vectors, JSON reports.

Matrices are one row per line, comma-separated decimal reals; any other
token, a complex one included, is an error naming its line. Reports are
versioned JSON (schema 2). A row's instance fields (INSTANCE_FIELDS) are
float64 arrays, written packed as {"shape": [...], "f8": base64 of the
little-endian float64 bytes} and loaded back as arrays, bit for bit; outputs
stay readable lists. The loader also reads schema 1, whose instance fields
are plain lists, converting them to float64 arrays once.
"""
from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

REPORT_SCHEMA = 2
READABLE_SCHEMAS = (1, 2)
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
                raise ValueError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
                )
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


def _packed_json(values) -> list[str]:
    """The JSON text of {"shape": [...], "f8": base64}, in pieces, as
    json.dumps with sorted keys writes it. The base64 alphabet needs no
    escaping, so that text is not passed through the encoder."""
    arr = np.asarray(values, dtype="<f8")  # no copy for a float64 array
    f8 = base64.b64encode(arr.tobytes()).decode("ascii")
    return ['{"f8": "', f8, '", "shape": ', json.dumps(list(arr.shape)), "}"]


def _unpack(packed) -> np.ndarray:
    if not isinstance(packed, dict):  # schema 1: a (nested) list
        return np.array(packed, dtype=float)
    raw = base64.b64decode(packed["f8"], validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(packed["shape"])


def _separated(items: list) -> list[str]:
    """The pieces of every item, with ", " between items."""
    out = []
    for i, pieces in enumerate(items):
        if i:
            out.append(", ")
        out += pieces
    return out


def _json_object(obj: dict, texts: dict) -> list[str]:
    """json.dumps(obj, sort_keys=True) in pieces, except that the value of
    each key in texts is the list of pieces given there. The keys between
    those are encoded a run at a time."""
    members, run = [], {}
    for k in sorted(obj):
        if k in texts:
            if run:
                members.append([json.dumps(run, sort_keys=True)[1:-1]])
                run = {}
            members.append([json.dumps(k), ": ", *texts[k]])
        else:
            run[k] = obj[k]
    if run:
        members.append([json.dumps(run, sort_keys=True)[1:-1]])
    return ["{", *_separated(members), "}"]


def save_report_json(path, report: dict) -> None:
    """Write the report as json.dumps(report, sort_keys=True) would, byte
    for byte, with each row's instance fields packed. The text is written
    in pieces, so the large packed strings are never copied into one."""
    report = dict(report, schema=REPORT_SCHEMA)
    texts = {}
    if "rows" in report:
        rows = [_json_object(row, {k: _packed_json(row[k]) for k in INSTANCE_FIELDS if k in row}) for row in report["rows"]]
        texts["rows"] = ["[", *_separated(rows), "]"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_object(report, texts))


def load_report_json(path) -> dict:
    """Read a schema 1 or 2 report; instance fields come back as float64 arrays."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(report, dict):
        raise ValueError(f"{path}: a report is a JSON object, not {type(report).__name__}")
    if report.get("schema") not in READABLE_SCHEMAS:
        raise ValueError(f"{path}: unsupported report schema {report.get('schema')!r}")
    rows = report.get("rows", [])
    if not isinstance(rows, list):
        raise ValueError(f"{path}: the rows are a JSON list, not {type(rows).__name__}")
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: row {index}: a row is a JSON object, not {type(row).__name__}")
        for name in INSTANCE_FIELDS:
            if name in row:
                try:
                    row[name] = _unpack(row[name])
                except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
                    raise ValueError(
                        f"{path}: row {row.get('id', '?')!r}: field {name!r} cannot be decoded: {exc}"
                    ) from exc
    return report
