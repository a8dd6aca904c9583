"""Re-run every case of harness_pinned.json and readout_pinned.json and print
each field that moved.

    python tests/data/record_pinned.py            # print the diff only
    python tests/data/record_pinned.py --write    # print it and re-record

One line per moved field: case id, field, pinned value, new value and the
relative move (a dash where the field is not a float). A key added to or
dropped from a dict is one field, "absent" on the side that lacks it;
the keys both sides share are compared field by field. A harness case's
fields are those of its row; a readout case's are its c_tilde entries, its
ledger and, for readout-sve and -hhl, phase_widths, the sorted t1 of the
kernel evaluations. The files are rewritten only with --write, so a
re-record is a reviewed change whose printed diff goes into CHANGES.md.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent
sys.path[:0] = [str(DATA.parent), str(DATA.parents[1] / "src")]

import qmm.matmul  # noqa: E402
from helpers import pinned_row  # noqa: E402
from qmm.harness import generate_matrix  # noqa: E402
from qmm.readout import readout_hhl, readout_sve, readout_swaptest  # noqa: E402

READOUTS = {"readout-swap": readout_swaptest, "readout-sve": readout_sve, "readout-hhl": readout_hhl}
KERNELS = {"readout-sve": "_walk_components", "readout-hhl": "_dilation_components"}


def harness_case(pinned: dict, case: dict) -> dict:
    return dict(case, row=pinned_row(pinned, case))


def harness_id(case: dict) -> str:
    return case["row"]["id"]


def harness_text(pinned: dict) -> str:
    return json.dumps(pinned, indent=1, sort_keys=True) + "\n"


def readout_case(pinned: dict, case: dict) -> dict:
    """The case re-run: its method on generate_matrix(n, kappa, seed) and
    seed + 10000, n the case's own or else the file's."""
    n, kappa, seed = case.get("n", pinned["n"]), case["kappa"], case["seed"]
    widths = []
    name = KERNELS.get(case["method"])
    kernel = getattr(qmm.matmul, name) if name else None

    def recording(sigmas, scale, t1, weights):
        widths.append(t1)
        return kernel(sigmas, scale, t1, weights)

    if name:
        setattr(qmm.matmul, name, recording)
    a, b = generate_matrix(n, kappa, seed), generate_matrix(n, kappa, seed + 10_000)
    try:
        rep = READOUTS[case["method"]](a, b, pinned["eps_abs"])
    finally:
        if name:
            setattr(qmm.matmul, name, kernel)
    new = dict(case, ledger=rep.ledger.to_dict(), c_tilde=rep.c_tilde.tolist())
    if name:
        new["phase_widths"] = sorted(widths)
    return new


def readout_id(case: dict) -> str:
    ident = f"{case['method']}-k{case['kappa']}-s{case['seed']}"
    return f"{ident}-n{case['n']}" if "n" in case else ident


def readout_text(pinned: dict) -> str:
    """readout_pinned.json's layout: a case's scalars and ledger on a line
    each, then one line per row of c_tilde."""
    cases = []
    for case in pinned["cases"]:
        head = ", ".join(f'"{k}": {json.dumps(case[k])}' for k in ("n", "kappa", "seed", "method") if k in case)
        lines = [head] + [f'"{k}": {json.dumps(case[k])}' for k in ("phase_widths", "ledger") if k in case]
        rows = ",\n".join(f"        {json.dumps(row)}" for row in case["c_tilde"])
        fields = "".join(f"      {line},\n" for line in lines)
        cases.append(f'    {{\n{fields}      "c_tilde": [\n{rows}\n      ]\n    }}')
    return (
        f'{{\n  "eps_abs": {json.dumps(pinned["eps_abs"])},\n  "n": {pinned["n"]},\n'
        + '  "cases": [\n' + ",\n".join(cases) + "\n  ]\n}\n"
    )


# file name, case re-run, case id, file text
FILES = (
    ("harness_pinned.json", harness_case, harness_id, harness_text),
    ("readout_pinned.json", readout_case, readout_id, readout_text),
)


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
    parser.add_argument("--write", action="store_true", help="re-record the files with the new cases")
    args = parser.parse_args(argv)
    for name, rerun, ident, text in FILES:
        path = DATA / name
        pinned = json.loads(path.read_text())
        new = [rerun(pinned, case) for case in pinned["cases"]]
        moved = 0
        for old, case in zip(pinned["cases"], new):
            for line in moved_lines(ident(old), old, case):
                print(line)
                moved += 1
        print(f"{name}: {moved} fields moved in {len(new)} cases")
        if args.write:
            pinned["cases"] = new
            path.write_text(text(pinned))
            print(f"re-recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
