"""Benchmark workloads: seeded instances, the operations one cycle runs on
them, and the checks that decide whether an operation's outputs are right.

Every operation goes through the public calls the ``qmm`` command line
makes: ``harness.run_experiment`` then ``io.save_report_json`` for
``multiply``/``readout``/``prepare --out``, and ``io.load_report_json`` then
``harness.verify_bounds`` for ``verify``. Why each workload exists is in
``NOTES.md`` next to this file.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qmm import harness, io

PREP_DIRECT_N = 512  # synthesize_direct completes an n x n unitary, O(n^3)
VERIFY_REPORT_N = 8
TOLERANCE = 1e-12  # reference comparison, relative to max(1, |recorded value|)
OUTPUT_FIELDS = (
    "method",
    "realized_error",
    "bound",
    "success_probability",
    "expected_success_probability",
    "phase_bits",
    "ledger",
    "c_tilde",
    "epsilon0",
    "epsilon1",
)


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[str, ...]  # op kinds of one cycle, in order
    n: int
    kappa: float
    instances: int  # about the cycles one 25 s run completes
    repeats: tuple[int, ...]  # ops of each kind per cycle; more for the short ones
    eps: float = 0.05


WORKLOADS = {
    w.name: w
    for w in (
        Workload("swap-lcu", ("swap", "lcu"), n=8, kappa=4.0, instances=60, repeats=(1, 1)),
        Workload("spectral", ("sve", "hhl"), n=64, kappa=4.0, instances=50, repeats=(1, 1)),
        Workload("readout", ("readout-swap", "readout-sve", "readout-hhl"), n=8, kappa=2.0, instances=30, repeats=(8, 1, 1)),
        Workload("prep-verify", ("prep", "verify", "reload"), n=65536, kappa=4.0, instances=30, repeats=(1, 10, 1)),
    )
}


@dataclass
class Fixture:
    """Inputs of one run: the workload's instances for one seed, and where
    the run writes its reports."""

    workload: Workload
    seed: int
    workdir: Path
    instances: list[dict] = field(default_factory=list)

    def report_path(self, kind: str) -> Path:
        return self.workdir / f"{kind}.json"


def instance_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def set_up(workload: Workload, seed: int, workdir: Path) -> Fixture:
    """Generate the seeded instances; for prep-verify also build the mixed
    report that the ``verify`` op loads."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    workdir.mkdir(parents=True, exist_ok=True)
    fx = Fixture(workload, seed, workdir)
    for i in range(workload.instances):
        s = instance_seed(seed, i)
        if workload.name == "prep-verify":
            fx.instances.append(
                {
                    "seed": s,
                    "x": harness.generate_vector(workload.n, workload.kappa, s),
                    "x_direct": harness.generate_vector(PREP_DIRECT_N, workload.kappa, s),
                }
            )
        else:
            a = harness.generate_matrix(workload.n, workload.kappa, s)
            b = harness.generate_matrix(workload.n, workload.kappa, s + 10_000)
            fx.instances.append({"seed": s, "a": a, "b": b})
    if workload.name == "prep-verify":
        rows = []
        for method in harness.MULTIPLY_METHODS + harness.READOUT_METHODS:
            kappa = WORKLOADS["readout" if method.startswith("readout") else "swap-lcu"].kappa
            a = harness.generate_matrix(VERIFY_REPORT_N, kappa, seed)
            b = harness.generate_matrix(VERIFY_REPORT_N, kappa, seed + 10_000)
            cfg = harness.ExperimentConfig(method=method, eps=workload.eps, seed=seed, inputs={"a": a, "b": b})
            rows += harness.run_experiment(cfg).rows
        io.save_report_json(fx.report_path("verify"), {"method": "mixed", "config": {}, "rows": rows})
    return fx


def _outputs(rows: list[dict]) -> list[dict]:
    """Row fields compared against the reference. wall_time varies from
    run to run and is left out; sigma_eff is what the sve/hhl bound is
    evaluated on."""
    out = []
    for row in rows:
        kept = {k: row[k] for k in OUTPUT_FIELDS if k in row}
        if "sigma_eff" in row.get("details", {}):
            kept["sigma_eff"] = row["details"]["sigma_eff"]
        out.append(kept)
    return out


def _save(fx: Fixture, kind: str, report: dict) -> int:
    path = fx.report_path(kind)
    io.save_report_json(path, report)
    return path.stat().st_size


def _load_and_verify(path: Path) -> list[dict]:
    ok, findings = harness.verify_bounds(io.load_report_json(path))
    return [{"ok": ok, "findings": findings}]


def run_op(fx: Fixture, kind: str, i: int) -> tuple[list[dict], int]:
    """Run one operation on instance i; returns its outputs and the number
    of report bytes it wrote."""
    wl, inst = fx.workload, fx.instances[i]
    if kind == "prep":
        rows = []
        for method in harness.PREP_METHODS:
            x = inst["x_direct"] if method == "prep-direct" else inst["x"]
            cfg = harness.ExperimentConfig(method=method, eps=wl.eps, seed=inst["seed"], inputs={"x": x})
            rows += harness.run_experiment(cfg).rows
        report = {"method": kind, "config": {"eps": wl.eps, "seed": inst["seed"]}, "rows": rows}
        return _outputs(rows), _save(fx, kind, report)
    if kind == "verify":
        return _load_and_verify(fx.report_path("verify")), 0
    if kind == "reload":
        return _load_and_verify(fx.report_path("prep")), 0
    cfg = harness.ExperimentConfig(method=kind, eps=wl.eps, seed=inst["seed"], inputs={"a": inst["a"], "b": inst["b"]})
    report = harness.run_experiment(cfg).to_dict()
    return _outputs(report["rows"]), _save(fx, kind, report)


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# correctness

def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def _sve_bound(eps1, col_norms, alpha, sigma_eff, sigma_exact) -> float:
    weights = (col_norms**2)[None, :] * np.abs(alpha) ** 2
    z = float(np.sum(weights * (sigma_eff**2)[:, None]))
    w = float(np.sum(weights * (sigma_exact**2)[:, None]))
    b2 = float(np.sum(col_norms**2))
    max_sum = float(np.max(sigma_eff + sigma_exact))
    term2 = 2.0 * eps1**2 * b2**2 * max_sum**2 / (z * (math.sqrt(z) + math.sqrt(w)) ** 2)
    return math.sqrt(2.0 * eps1**2 * b2 / z + term2)


def _row_problems(row: dict, inst: dict, eps: float) -> list[str]:
    """Check one row against the contract its method states, with every
    bound recomputed here from the instance."""
    m = row["method"]
    realized, bound = row["realized_error"], row["bound"]
    problems = []
    if not realized <= bound:
        problems.append(f"{m}: realized {realized!r} exceeds bound {bound!r}")
    if "success_probability" in row and not 0.0 < row["success_probability"] <= 1.0 + 1e-12:
        problems.append(f"{m}: success probability {row['success_probability']!r} outside (0, 1]")
    want_bound = want_success = None
    if m.startswith("prep-"):
        if m == "prep-direct":
            want_bound = 1e-7
        elif m in ("prep-hamiltonian", "prep-sparse"):
            x = np.abs(inst["x"])
            kappa_f = float(x.max() / x[x > 0].min())
            eps1 = eps / math.sqrt(kappa_f)
            want_bound = math.sqrt(kappa_f / 3.0) * eps1
            if not _close(row["epsilon1"], eps1, 1e-9):
                problems.append(f"{m}: epsilon1 {row['epsilon1']!r} != {eps1!r}")
        else:
            want_bound = eps
    else:
        a, b = inst["a"], inst["b"]
        c = a @ b
        fa, fb, fc = (float(np.linalg.norm(v)) for v in (a, b, c))
        if m.startswith("readout-"):
            err = float(np.max(np.abs(np.asarray(row["c_tilde"]) - c)))
            want_bound = eps
            if not _close(realized, err, TOLERANCE) or not err <= eps:
                problems.append(f"{m}: max|c_tilde - AB| = {err!r}, reported {realized!r}, eps {eps!r}")
        elif m == "swap":
            r2 = (fa * fb / fc) ** 2
            want_bound = math.sqrt(2.0 * r2 + 2.0 * r2 * r2) * math.pi / (1 << row["phase_bits"])
            want_success = fc**2 / (fa * fb) ** 2
        elif m == "lcu":
            want_bound = eps
            want_success = fc**2 / float(np.sum(np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=1))) ** 2
        else:  # sve, hhl
            _, sigmas, vh = np.linalg.svd(a)
            col_norms = np.linalg.norm(b, axis=0)
            alpha = vh @ (b / col_norms[None, :])
            T = 1 << row["phase_bits"]
            eps1 = (2.0 * math.pi * fa if m == "sve" else 8.0 * sigmas[0]) / T
            sigma_eff = np.asarray(row["sigma_eff"])
            want_bound = _sve_bound(eps1, col_norms, alpha, sigma_eff, sigmas)
            want_success = fc**2 / (fb**2 * sigmas[0] ** 2)
            if np.max(np.abs(sigma_eff - sigmas)) > eps1:
                problems.append(f"{m}: a singular value is read off by more than {eps1!r}")
    if not _close(bound, want_bound, 1e-9):
        problems.append(f"{m}: bound {bound!r} != recomputed {want_bound!r}")
    if want_success is not None and not _close(row["expected_success_probability"], want_success, 1e-9):
        problems.append(f"{m}: expected success {row['expected_success_probability']!r} != {want_success!r}")
    return problems


def contract_problems(fx: Fixture, kind: str, i: int, outputs: list[dict]) -> list[str]:
    if kind in ("verify", "reload"):
        return [f"{kind}: {o['findings']}" for o in outputs if not o["ok"] or o["findings"]]
    problems = []
    for row in outputs:
        problems += _row_problems(row, fx.instances[i], fx.workload.eps)
    return problems


def reference_problems(recorded, got, path: str = "") -> list[str]:
    """Differences between recorded and new outputs beyond TOLERANCE.

    realized_error is sqrt(2 - 2|<a|b>|) (statevector.aligned_distance), so
    rounding in the fidelity, which depends on the BLAS summation order, is
    divided by the error itself; it is compared as 2 - 2|<a|b>| instead."""
    if isinstance(recorded, dict) and isinstance(got, dict):
        if recorded.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != recorded {sorted(recorded)}"]
        problems = []
        for k in recorded:
            if k == "realized_error" and not _close(got[k] ** 2, recorded[k] ** 2, TOLERANCE):
                problems.append(f"{path}.{k}: {got[k]!r} != recorded {recorded[k]!r}")
            elif k != "realized_error":
                problems += reference_problems(recorded[k], got[k], f"{path}.{k}")
        return problems
    if isinstance(recorded, list) and isinstance(got, list):
        if len(recorded) != len(got):
            return [f"{path}: length {len(got)} != recorded {len(recorded)}"]
        return [p for j, (r, g) in enumerate(zip(recorded, got)) for p in reference_problems(r, g, f"{path}[{j}]")]
    if isinstance(recorded, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if _close(got, recorded, TOLERANCE) else [f"{path}: {got!r} != recorded {recorded!r}"]
    return [] if recorded == got else [f"{path}: {got!r} != recorded {recorded!r}"]
