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


def _pack(values) -> dict:
    arr = np.asarray(values, dtype="<f8")  # no copy for a float64 array
    return {"shape": list(arr.shape), "f8": base64.b64encode(arr.tobytes()).decode("ascii")}


def _unpack(packed) -> np.ndarray:
    if not isinstance(packed, dict):  # schema 1: a (nested) list
        return np.array(packed, dtype=float)
    raw = base64.b64decode(packed["f8"], validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(packed["shape"])


def save_report_json(path, report: dict) -> None:
    report = dict(report, schema=REPORT_SCHEMA)
    if "rows" in report:
        report["rows"] = [
            {k: _pack(v) if k in INSTANCE_FIELDS else v for k, v in row.items()}
            for row in report["rows"]
        ]
    Path(path).write_text(json.dumps(report, sort_keys=True), encoding="utf-8")


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
