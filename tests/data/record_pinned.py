"""Re-run every case of harness_pinned.json and print each field that moved.

    python tests/data/record_pinned.py            # print the diff only
    python tests/data/record_pinned.py --write    # print it and re-record

One line per moved field: row id, field, pinned value, new value and the
relative move (a dash where the field is not a float). The file is
rewritten only with --write, so a re-record is a reviewed change whose
printed diff goes into CHANGES.md.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent
sys.path[:0] = [str(DATA.parent), str(DATA.parents[1] / "src")]

from helpers import pinned_row  # noqa: E402

PINNED = DATA / "harness_pinned.json"


def moves(old, new, path: str = ""):
    """(field, old, new) for every leaf of old that new does not equal."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            yield from moves(old[key], new[key], f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (o, n) in enumerate(zip(old, new)):
            yield from moves(o, n, f"{path}[{k}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def relative_move(old, new) -> str:
    if isinstance(old, float) and isinstance(new, float) and old:
        return f"{abs(new - old) / abs(old):.1e}"
    return "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="re-record the file with the new rows")
    args = parser.parse_args(argv)
    pinned = json.loads(PINNED.read_text())
    moved = 0
    for case in pinned["cases"]:
        row = pinned_row(pinned, case)
        for field, old, new in moves(case["row"], row):
            print(f"{case['row']['id']}  {field}  {old!r}  {new!r}  {relative_move(old, new)}")
            moved += 1
        case["row"] = row
    print(f"{moved} fields moved in {len(pinned['cases'])} rows")
    if args.write:
        PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print(f"re-recorded {PINNED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
