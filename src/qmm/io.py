"""Flat-file formats: CSV matrices and vectors, JSON reports.

Matrices are one row per line, comma-separated decimal reals; any other
token, a complex one included, is an error naming its line. Reports are
versioned JSON (schema 1).
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REPORT_SCHEMA = 1


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


def save_report_json(path, report: dict) -> None:
    report = dict(report)
    report.setdefault("schema", REPORT_SCHEMA)
    Path(path).write_text(json.dumps(report, sort_keys=True), encoding="utf-8")


def load_report_json(path) -> dict:
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if report.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"{path}: unsupported report schema {report.get('schema')!r}")
    return report
