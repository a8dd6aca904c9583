"""Re-run every case of harness_pinned.json and print each field that moved.

    python tests/data/record_pinned.py            # print the diff; exit 1 if a field moved
    python tests/data/record_pinned.py --write    # print it and re-record

A case names its method, its instance (n, kappa and seed, or explicit a and
b), its eps and its run options, and holds the row helpers.pinned_row
returns; a readout-sve or -hhl case also holds phase_widths, the sorted t1
of its kernel evaluations. One line per moved field: case id, field, pinned
value, new value and the relative move (a dash where the field is not a
float). A key added to or dropped from a dict is one field, "absent" on the
side that lacks it; the keys both sides share are compared field by field.
The file is rewritten only with --write, so a re-record is a reviewed change
whose printed diff goes into CHANGES.md.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent
PINNED = DATA / "harness_pinned.json"
sys.path[:0] = [str(DATA.parent), str(DATA.parents[1] / "src")]

import qmm.matmul  # noqa: E402
from helpers import pinned_row  # noqa: E402
from qmm.harness import PREP_METHODS  # noqa: E402

KERNELS = {"readout-sve": "_walk_components", "readout-hhl": "_dilation_components"}


def rerun(case: dict) -> dict:
    """The case with its row, and its phase_widths if it has a kernel, re-run."""
    name = KERNELS.get(case["method"])
    if name is None:
        return dict(case, row=pinned_row(case))
    kernel, widths = getattr(qmm.matmul, name), []

    def recording(sigmas, scale, t1, weights):
        widths.append(t1)
        return kernel(sigmas, scale, t1, weights)

    setattr(qmm.matmul, name, recording)
    try:
        row = pinned_row(case)
    finally:
        setattr(qmm.matmul, name, kernel)
    return dict(case, row=row, phase_widths=sorted(widths))


def case_id(case: dict) -> str:
    """The row's id (method, n and seed), then the kappa of a generated
    matrix pair other than 2, then each run option: -name for a set flag,
    -name<value> for a value."""
    ident = case["row"]["id"]
    if "kappa" in case and case["method"] not in PREP_METHODS and case["kappa"] != 2.0:
        ident += f"-k{case['kappa']}"
    return ident + "".join(f"-{k}" if v is True else f"-{k}{v}" for k, v in sorted(case["options"].items()))


def text(cases: list[dict]) -> str:
    """The file's layout: one case per line, keys sorted."""
    return '{"cases": [\n' + ",\n".join(json.dumps(case, sort_keys=True) for case in cases) + "\n]}\n"


class _Absent:
    """The side of a move on which a dict key is missing."""

    def __repr__(self) -> str:
        return "absent"


ABSENT = _Absent()


def moves(old, new, path: str = ""):
    """(field, old, new) for every leaf of old that new does not equal; a
    dict key on one side only is one field, ABSENT on the other side."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            yield from moves(old.get(key, ABSENT), new.get(key, ABSENT), f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (o, n) in enumerate(zip(old, new)):
            yield from moves(o, n, f"{path}[{k}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def relative_move(old, new) -> str:
    if isinstance(old, float) and isinstance(new, float) and old:
        return f"{abs(new - old) / abs(old):.1e}"
    return "-"


def moved_lines(ident: str, old, new) -> list[str]:
    """The printed lines of a case: one per moved field."""
    return [f"{ident}  {field}  {o!r}  {n!r}  {relative_move(o, n)}" for field, o, n in moves(old, new)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="re-record the file with the new cases")
    args = parser.parse_args(argv)
    cases = json.loads(PINNED.read_text())["cases"]
    new = [rerun(case) for case in cases]
    moved = 0
    for old, case in zip(cases, new):
        for line in moved_lines(case_id(old), old, case):
            print(line)
            moved += 1
    print(f"{moved} fields moved in {len(new)} cases")
    if args.write:
        PINNED.write_text(text(new))
        print(f"re-recorded {PINNED.name}")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
