"""qmm benchmark runner.

    python3 bench/run.py --workload swap-lcu --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload readout --record 0-9

One process, one client, closed loop: each cycle runs the workload's op
kinds, in order, on the next of its seeded instances, and starts only
after the previous cycle has finished. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the run measures an untraced half and a traced half and
reports the per-layer metrics. ``--record`` rewrites the reference outputs
in ``reference/`` instead of measuring. See NOTES.md.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import tracer

# workloads imports qmm, so functions import it only after main() has put
# src/ on the path and timed the import of qmm.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3  # set-ups per run; setup_s reports their median
ROADMAP_BASELINE = {  # North-star baseline in ROADMAP.md, eps=0.05
    "swap": "1.35 s at n=16",
    "lcu": "82 s at n=64",
    "sve": "0.17 s at n=64",
    "hhl": "0.04 s at n=64",
    "readout-swap": "0.22 s at n=16",
    "readout-sve": "3.0 s at n=16",
    "readout-hhl": "2.6 s at n=16",
}
STAGES = {  # span name -> ROADMAP stage; other spans fall back to STAGE_OF_LAYER
    "linalg.compute_svd": "svd",
    "matmul.swaptest_error_bound": "bound",
    "matmul.sve_error_bound": "bound",
    "statevector.aligned_distance": "bound",
    "statevector.fidelity": "bound",
    "matmul._product_state": "assemble",
    "matmul._assemble_sve_state": "assemble",
    "matmul._sve_setup": "setup",
    "matmul._check_real_pair": "setup",
    "matmul._check_support": "setup",
    "matmul._resolve_phase_bits": "setup",
    "matmul.SVEOperators.from_matrix": "setup",
}
STAGE_OF_LAYER = {
    "matmul": "kernel",
    "qpe": "kernel",
    "swaptest": "kernel",
    "readout": "kernel",
    "linalg": "setup",
    "statevector": "assemble",
    "stateprep": "assemble",
}
FUNCTIONS = {  # per-function metrics: span name -> reported fields
    "qpe._controlled_powers": ("calls", "self_s"),
    "qpe.phase_estimate": ("calls", "self_s", "distinct_frac"),
    "matmul._qpe_rows": ("calls", "self_s", "distinct_frac"),
    "matmul._phase0_after_undo": ("self_s",),
    "matmul._sve_component": ("calls", "distinct_frac"),
    "matmul._hhl_component": ("calls", "distinct_frac"),
    "swaptest.estimate_real_overlap": ("calls", "self_s"),
    "linalg.compute_svd": ("calls", "self_s"),
    "statevector.aligned_distance": ("self_s",),
    "io.save_report_json": ("self_s",),
    "io.load_report_json": ("self_s",),
    "harness.verify_bounds": ("self_s",),
    "stateprep.synthesize_direct": ("self_s",),
}
UNITS = {"self_s": "s", "calls": "count", "distinct_frac": "frac"}


def metric_name(span_name: str, field: str) -> str:
    return f"{span_name.replace('._', '.')}.{field}"


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "QMM_WORKERS": os.environ.get("QMM_WORKERS"),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def percentile_beyond(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


class Run:
    """One benchmark run: set-up, measured cycles, checks and metrics."""

    def __init__(self, workload, seed: int, workdir: Path, reference: dict | None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.fixture = None

    def set_up(self) -> list[float]:
        import workloads

        times = []
        for _ in range(SETUPS):
            started = time.perf_counter()
            self.fixture = workloads.set_up(self.workload, self.seed, self.workdir)
            times.append(time.perf_counter() - started)
        return times

    def measure(self, seconds: float, tr=None) -> list[dict]:
        """Run whole cycles until the next one would pass ``seconds``."""
        ops, cycle_times = [], []
        began = time.perf_counter()
        cycle = 0
        while not cycle_times or time.perf_counter() - began + statistics.median(cycle_times) <= seconds:
            spent = 0.0
            for kind, repeats in zip(self.workload.kinds, self.workload.repeats):
                for k in range(repeats):
                    op = self.run_op(kind, (cycle * repeats + k) % self.workload.instances, tr, len(ops))
                    op["cycle"] = cycle
                    spent += op["seconds"]
                    ops.append(op)
            cycle_times.append(spent)
            cycle += 1
        return ops

    def run_op(self, kind: str, i: int, tr, op_id: int) -> dict:
        """Time one op on instance i, then check its outputs."""
        import workloads

        op = {"kind": kind, "instance": i, "bytes": 0, "digest": None}
        started = time.perf_counter()
        try:
            if tr is None:
                outputs, op["bytes"] = workloads.run_op(self.fixture, kind, i)
            else:
                with tr.op(op_id, kind):
                    outputs, op["bytes"] = workloads.run_op(self.fixture, kind, i)
            op["seconds"] = time.perf_counter() - started
            op["problems"] = self.check(kind, i, outputs)
            op["digest"] = workloads.digest(outputs)
        except Exception:  # an op that raises counts as failed; the run goes on
            op["seconds"] = time.perf_counter() - started
            op["problems"] = [traceback.format_exc(limit=3)]
        return op

    def check(self, kind: str, i: int, outputs) -> list[str]:
        import workloads

        outputs = json.loads(json.dumps(outputs))
        problems = workloads.contract_problems(self.fixture, kind, i, outputs)
        recorded = (self.reference or {}).get(str(self.seed), [])
        if i < len(recorded):
            problems += workloads.reference_problems(recorded[i][kind], outputs, kind)
        return problems


def end_to_end(run: Run, setup_times: list[float], import_s: float, ops: list[dict]) -> dict:
    ok = [op for op in ops if not op["problems"]]
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "ops_per_s": (len(ok) / sum(op["seconds"] for op in ops), "1/s"),
    }
    for slot, kind in enumerate(run.workload.kinds, start=1):
        metrics[f"op{slot}_s"] = (statistics.median(op["seconds"] for op in ops if op["kind"] == kind), "s")
    if "op3_s" not in metrics:  # a two-method workload: one cycle runs both on one instance
        cycles = defaultdict(float)
        for op in ops:
            cycles[op["cycle"]] += op["seconds"]
        metrics["op3_s"] = (statistics.median(cycles.values()), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(tr, traced: list[dict], untraced: list[dict]) -> dict:
    n_ops = len(traced)
    selfs = tr.self_times()
    fn_self, fn_calls, layer_self, layer_calls, stage = (defaultdict(float) for _ in range(5))
    root_time = 0.0
    for span, self_s in zip(tr.spans, selfs):
        name = span[tracer.NAME]
        layer = name.split(".", 1)[0]
        if layer == "bench":
            root_time += span[tracer.END] - span[tracer.START]
            continue
        fn_self[name] += self_s
        fn_calls[name] += 1
        layer_self[layer] += self_s
        layer_calls[layer] += 1
        key = STAGES.get(name, STAGE_OF_LAYER.get(layer))
        if key is not None:
            stage[key] += self_s

    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer] / n_ops, "s")
        metrics[f"{layer}.calls"] = (layer_calls[layer] / n_ops, "count")
    for name, fields in FUNCTIONS.items():
        for field in fields:
            if field == "distinct_frac":
                by_op = defaultdict(set)
                for op_id, key in tr.keys[name]:
                    by_op[op_id].add(key)
                calls = len(tr.keys[name])
                value = sum(len(s) for s in by_op.values()) / calls if calls else 0.0
            else:
                value = (fn_self if field == "self_s" else fn_calls)[name] / n_ops
            metrics[metric_name(name, field)] = (value, UNITS[field])
    # work of the controlled-power kernel, computed from argument shapes:
    # bit k multiplies the T/2 rows whose label has bit k set by a dim x dim
    # power (8 real flops per complex multiply-add) and squares the power
    # for the next bit; bytes count complex128 reads and writes of both
    rows = flops = nbytes = 0
    for _, (T, dim, t) in tr.shapes["qpe._controlled_powers"]:
        rows += T
        flops += t * 8 * (T // 2) * dim * dim + (t - 1) * 8 * dim**3
        nbytes += t * (2 * (T // 2) * dim + dim * dim) * 16 + (t - 1) * 3 * dim * dim * 16
    metrics["qpe.controlled_powers.label_rows"] = (rows / n_ops, "count")
    metrics["qpe.controlled_powers.flops"] = (flops / n_ops, "flop.computed")
    metrics["qpe.controlled_powers.bytes"] = (nbytes / n_ops, "B.computed")
    metrics["io.report_bytes"] = (sum(op["bytes"] for op in traced) / n_ops, "B")
    for key in ("setup", "svd", "kernel", "assemble", "bound"):
        metrics[f"stage.{key}_s"] = (stage[key] / n_ops, "s")
    attributed = sum(layer_self.values())
    metrics["attributed_frac"] = (attributed / root_time, "frac")
    # overhead over the cycles both halves ran, op for op on the same instances
    paired = min(len(traced), len(untraced))
    untraced_s = sum(op["seconds"] for op in untraced[:paired])
    traced_s = sum(op["seconds"] for op in traced[:paired])
    metrics["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    return metrics


def print_table(run: Run, ops: list[dict]) -> None:
    wl = run.workload
    print(f"{wl.name}: n={wl.n}, kappa={wl.kappa}, eps={wl.eps}, {wl.instances} instances")
    print(f"{'op':<14}{'median_s':>11}{'samples':>9}  {'tail':<18}roadmap baseline")
    for kind in wl.kinds:
        times = [op["seconds"] for op in ops if op["kind"] == kind]
        tail = percentile_beyond(times)
        tail_text = f"p{tail[0]}={tail[1]:.4f}" if tail else "-"
        print(
            f"{kind:<14}{statistics.median(times):>11.4f}{len(times):>9}  "
            f"{tail_text:<18}{ROADMAP_BASELINE.get(kind, '-')}"
        )
    failed = sum(1 for op in ops if op["problems"])
    print(f"failed_frac = {failed / len(ops):.4f} ({failed} of {len(ops)})")
    for op in ops:
        for problem in op["problems"][:3]:
            print(f"FAILED {op['kind']} cycle {op['cycle']}: {problem}", file=sys.stderr)


def load_reference(workload_name: str) -> dict | None:
    path = BENCH / "reference" / f"{workload_name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"]


def record(workload, seeds: list[int], workdir: Path) -> int:
    """Rewrite the workload's reference outputs for the given seeds."""
    import workloads

    out = {"tolerance": workloads.TOLERANCE, "seeds": {}}
    for seed in seeds:
        fx = workloads.set_up(workload, seed, workdir)
        per_instance = []
        for i in range(workload.instances):
            entry = {}
            for kind in workload.kinds:
                outputs = json.loads(json.dumps(workloads.run_op(fx, kind, i)[0]))
                problems = workloads.contract_problems(fx, kind, i, outputs)
                if problems:
                    print(f"seed {seed} instance {i} {kind}: {problems}", file=sys.stderr)
                    return 1
                entry[kind] = outputs
            per_instance.append(entry)
        out["seeds"][str(seed)] = per_instance
        print(f"recorded {workload.name} seed {seed}", flush=True)
    path = BENCH / "reference" / f"{workload.name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own process, one after another."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="seed range such as 0-9: rewrite the reference outputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmm" / "__init__.py").is_file():
        print(f"error: no qmm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import qmm  # noqa: F401

    import_s = time.perf_counter() - started
    import workloads

    if args.workload == "all":
        if args.record is not None:
            parser.error("--record takes one workload")
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    try:
        if args.record is not None:
            return record(workload, parse_seeds(args.record), workdir)
        run = Run(workload, args.seed, workdir, load_reference(workload.name))
        setup_times = run.set_up()
        print(json.dumps({"machine": machine_facts(), "workload": workload.name, "seed": args.seed}))
        if args.trace == 0:
            ops = run.measure(args.seconds)
            metrics = end_to_end(run, setup_times, import_s, ops)
        else:
            untraced = run.measure(args.seconds / 2)
            with tracer.Tracer() as tr:
                traced = run.measure(args.seconds / 2, tr=tr)
            for a, b in zip(untraced, traced):
                if a["digest"] != b["digest"]:
                    b["problems"].append(f"traced digest {b['digest']} != untraced {a['digest']}")
            ops = untraced + traced
            metrics = per_layer(tr, traced, untraced)
        print_table(run, ops)
        failed = sum(1 for op in ops if op["problems"])
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
