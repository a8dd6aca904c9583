"""Command-line front end.

Verbs: multiply, readout, prepare, scaling, verify, gen. Exit status is
nonzero exactly when a bound was violated or an error occurred. Environment:
QMM_MAX_QUBITS caps the width of a simulated state and of a phase-estimation
register; it does not cap the closed-form sve/hhl kernel arrays, whose block
size matmul._KERNEL_BLOCK bounds.
"""
from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .harness import (
    MULTIPLY_METHODS,
    PREP_METHODS,
    READOUT_METHODS,
    ExperimentConfig,
    generate_matrix,
    run_experiment,
    scaling_study,
    verify_bounds,
)
from .io import load_matrix_csv, load_report_json, load_vector_csv, save_matrix_csv, save_report_json


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=0.05, help="target accuracy in (0,1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report output path")


def _emit_report(table, args) -> int:
    report = table.to_dict()
    if args.out:
        save_report_json(args.out, report)
    for row in report["rows"]:
        status = "VIOLATION" if row["id"] in report["violations"] else "ok"
        print(f"{row['id']}: realized={row['realized_error']:.3e} bound={row['bound']:.3e} {status}")
    if report["violations"]:
        print(f"{len(report['violations'])} bound violation(s): {report['violations']}", file=sys.stderr)
        return 1
    return 0


def _cmd_run(args) -> int:
    """multiply, readout and prepare: the verb's method on the CSV instance,
    with the option flags the verb defines."""
    if args.prefix == "prep-":
        inputs = {"x": load_vector_csv(args.x)}
    else:
        inputs = {"a": load_matrix_csv(args.a), "b": load_matrix_csv(args.b)}
    options = {k: v for k, v in vars(args).items() if k in ("phase_bits", "exact_phase", "strict_support")}
    cfg = ExperimentConfig(method=args.prefix + args.method, eps=args.eps, seed=args.seed, inputs=inputs, **options)
    table = run_experiment(cfg)
    if getattr(args, "entries_out", None):
        save_matrix_csv(args.entries_out, np.asarray(table.rows[0]["c_tilde"]))
    return _emit_report(table, args)


def _cmd_scaling(args) -> int:
    result = scaling_study(
        args.method,
        [int(v) for v in args.n_grid.split(",")],
        [float(v) for v in args.eps_grid.split(",")],
        [int(v) for v in args.seeds.split(",")],
        kappa=args.kappa,
    )
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(result["table"][0].keys()))
            writer.writeheader()
            for row in result["table"]:
                writer.writerow(row)
    for name, (slope, stderr) in result["slopes"].items():
        print(f"{name}: slope={slope:.3f} +- {1.96 * stderr:.3f}")
    return 0


def _cmd_verify(args) -> int:
    report = load_report_json(args.report)
    ok, findings = verify_bounds(report)
    for finding in findings:
        print(f"{finding['id']}: {finding['problem']}", file=sys.stderr)
    print("pass" if ok else f"fail ({len(findings)} problem(s))")
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    mat = generate_matrix(args.n, args.kappa, args.seed, sigma_max=args.sigma_max)
    save_matrix_csv(args.out, mat)
    print(f"wrote {args.n}x{args.n} matrix with kappa={args.kappa} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multiply", help="produce the product state of two matrices")
    p.add_argument("--method", choices=MULTIPLY_METHODS, required=True)
    p.add_argument("--a", required=True, help="CSV of the left matrix")
    p.add_argument("--b", required=True, help="CSV of the right matrix")
    p.add_argument("--phase-bits", type=int, default=None, help="phase register width override (swap, sve, hhl)")
    p.add_argument("--exact-phase", action="store_true", help="replace phase labels by exact angles (swap, sve, hhl)")
    p.add_argument("--strict-support", action="store_true", help="error out on support violations (sve, hhl)")
    _add_common(p)
    p.set_defaults(func=_cmd_run, prefix="")

    p = sub.add_parser("readout", help="entrywise product with absolute accuracy")
    p.add_argument("--method", choices=[m.split("-", 1)[1] for m in READOUT_METHODS], required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--entries-out", default=None, help="CSV path for the estimated entries")
    p.add_argument("--strict-support", action="store_true", help="error out on support violations (sve, hhl)")
    _add_common(p)
    p.set_defaults(func=_cmd_run, prefix="readout-")

    p = sub.add_parser("prepare", help="amplitude-encode a vector")
    p.add_argument("--method", choices=[m.split("-", 1)[1] for m in PREP_METHODS], required=True)
    p.add_argument("--x", required=True, help="CSV of the vector")
    _add_common(p)
    p.set_defaults(func=_cmd_run, prefix="prep-")

    p = sub.add_parser("scaling", help="cost table and fitted slopes over grids")
    p.add_argument("--method", required=True)
    p.add_argument("--n-grid", default="2,4,8")
    p.add_argument("--eps-grid", default="0.125,0.0625,0.03125")
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--kappa", type=float, default=2.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("verify", help="recheck all bounds stored in a report")
    p.add_argument("report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="seeded matrix with controlled condition number")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-max", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
