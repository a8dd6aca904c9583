"""Experiment driver: seeded fixture generation with controlled condition
number, pipeline execution with bound checking, scaling studies with fitted
cost slopes, and report verification.

Reports embed the instances they were produced from, so verify_bounds can
recompute every bound (and every readout's entry error) from them and flag
rows whose stored numbers do not hold up.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import matmul, readout, stateprep
from .io import REPORT_SCHEMA
from .linalg import exact_product
from .statevector import aligned_distance, from_vector

MULTIPLY_METHODS = ("swap", "sve", "hhl", "lcu")
READOUT_METHODS = ("readout-swap", "readout-sve", "readout-hhl")
PREP_METHODS = ("prep-direct", "prep-hamiltonian", "prep-sparse", "prep-dyadic", "prep-signshift")
PREP_DIRECT_BOUND = 1e-7  # the bound prep-direct rows report; the route is exact
# the options each method takes besides eps; setting any other one is an error
_METHOD_OPTIONS = {
    "swap": ("phase_bits", "exact_phase"),
    "sve": ("phase_bits", "exact_phase", "strict_support"),
    "hhl": ("phase_bits", "exact_phase", "strict_support"),
    "readout-sve": ("strict_support",),
    "readout-hhl": ("strict_support",),
}


@dataclass
class ExperimentConfig:
    method: str
    eps: float = 0.05
    phase_bits: int | None = None
    seed: int = 0
    strict_support: bool = False
    exact_phase: bool = False
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        known = MULTIPLY_METHODS + READOUT_METHODS + PREP_METHODS
        if self.method not in known:
            raise ValueError(f"unknown method {self.method!r}; choose from {known}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.phase_bits is not None:
            matmul._resolve_phase_bits(self.phase_bits, None)  # raises outside [2, MAX_PHASE_BITS]
        for name in ("phase_bits", "exact_phase", "strict_support"):  # unset: None or False
            if getattr(self, name) and name not in _METHOD_OPTIONS.get(self.method, ()):
                raise ValueError(f"method {self.method!r} takes no {name} option")

    def options(self) -> dict:
        """The keyword options this config's method is called with."""
        return {name: getattr(self, name) for name in _METHOD_OPTIONS.get(self.method, ())}


def exceeds_bound(realized: float | None, bound: float | None) -> bool:
    """The one bound-violation rule, of ReportTable.violations (which the
    CLI prints per row) and of verify_bounds: a realized error more than
    1e-15 above its bound. A missing number violates nothing here."""
    return realized is not None and bound is not None and realized > bound + 1e-15


@dataclass
class ReportTable:
    method: str
    config: dict
    rows: list[dict]

    @property
    def violations(self) -> list[str]:
        return [row["id"] for row in self.rows if exceeds_bound(row.get("realized_error"), row.get("bound"))]

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "method": self.method,
            "config": self.config,
            "rows": self.rows,
            "violations": self.violations,
        }


def _check_generator(n: int, kappa_target: float, single: str) -> None:
    """The sizes and condition numbers a generator can honour; single names
    the one-entry case, whose spread is 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if not math.isfinite(kappa_target):
        raise ValueError("condition number must be finite")
    if kappa_target < 1.0:
        raise ValueError("condition number is at least 1")
    if n == 1 and kappa_target != 1.0:
        raise ValueError(f"a {single} cannot have kappa > 1")


def generate_matrix(n: int, kappa_target: float, seed: int, sigma_max: float = 1.0) -> np.ndarray:
    """Random n x n matrix with condition number kappa_target (exact by
    construction): orthogonal factors from seeded Gaussians around
    log-spaced singular values. Deterministic per seed."""
    _check_generator(n, kappa_target, "1x1 matrix")
    if n == 1:
        return np.array([[sigma_max]])
    rng = np.random.default_rng(seed)
    sigmas = np.geomspace(sigma_max, sigma_max / kappa_target, n)

    def ortho() -> np.ndarray:
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        return q * np.sign(np.diagonal(r))

    return (ortho() * sigmas) @ ortho().T


def generate_vector(n: int, kappa_target: float, seed: int) -> np.ndarray:
    """Random signed vector whose nonzero-magnitude spread is exactly
    kappa_target."""
    _check_generator(n, kappa_target, "1-entry vector")
    rng = np.random.default_rng(seed)
    mags = np.geomspace(1.0, 1.0 / kappa_target, n)
    rng.shuffle(mags)
    return mags * rng.choice([-1.0, 1.0], size=n)


def _row(cfg: ExperimentConfig, inputs: dict, ident: str) -> dict:
    """Run cfg's method on its instance and report one row: the fields of
    the method's family, then those every row has. Each method function is
    looked up as a module attribute at call time, so a wrapper patched onto
    its module (bench/tracer.py) is the one that runs."""
    started = time.perf_counter()
    method = cfg.method
    if method in MULTIPLY_METHODS:
        res = {
            "swap": matmul.matmul_swaptest,
            "sve": matmul.matmul_sve,
            "hhl": matmul.matmul_hhl,
            "lcu": matmul.matmul_lcu,
        }[method](inputs["a"], inputs["b"], eps=cfg.eps, **cfg.options())
        ledger = res.ledger
        row = {
            "phase_bits": res.phase_bits,
            "realized_error": res.realized_error,
            "bound": res.predicted_bound,
            "success_probability": res.success_probability,
            "expected_success_probability": res.expected_success_probability,
            "details": res.details,
        }
    elif method in READOUT_METHODS:
        rep = {
            "readout-swap": readout.readout_swaptest,
            "readout-sve": readout.readout_sve,
            "readout-hhl": readout.readout_hhl,
        }[method](inputs["a"], inputs["b"], cfg.eps, **cfg.options())
        ledger = rep.ledger
        row = {"c_tilde": rep.c_tilde.tolist(), "realized_error": rep.max_observed_error, "bound": rep.entrywise_error_bound}
    elif method == "prep-direct":
        ps = stateprep.synthesize_direct(inputs["x"])
        ledger = ps.ledger
        row = {
            # the route is exact, so the distance is at rounding level; the
            # fixed bound is what reports record for it
            "realized_error": aligned_distance(ps.state, from_vector("x", inputs["x"])),
            "bound": PREP_DIRECT_BOUND,
            "success_probability": ps.success_probability,
        }
    else:
        rep = {
            "prep-hamiltonian": stateprep._prep_by_sign_base,
            "prep-sparse": stateprep.prep_sparse,
            "prep-dyadic": stateprep.prep_dyadic,
            "prep-signshift": stateprep.prep_signshift,
        }[method](inputs["x"], cfg.eps)
        ledger = rep.result.ledger
        row = {
            "realized_error": rep.realized_distance,
            "bound": rep.target_fidelity_bound,
            "success_probability": rep.result.success_probability,
            "epsilon0": rep.epsilon0,
            "epsilon1": rep.epsilon1,
        }
    row.update(inputs, id=ident, method=method, eps=cfg.eps, ledger=ledger.to_dict())
    row["wall_time"] = time.perf_counter() - started
    return row


def run_experiment(cfg: ExperimentConfig) -> ReportTable:
    """Run the configured method on its inputs and report one row per
    instance; rows carry the instance itself (a and b, or x), as read-only
    float64 arrays copied from cfg.inputs, for later verification."""
    names = ("x",) if cfg.method in PREP_METHODS else ("a", "b")
    inputs = {name: np.array(cfg.inputs[name], dtype=float) for name in names}
    for arr in inputs.values():
        arr.setflags(write=False)
    n = inputs["x"].size if "x" in inputs else inputs["a"].shape[0]
    rows = [_row(cfg, inputs, f"{cfg.method}-n{n}-seed{cfg.seed}")]
    config = {name: value for name, value in vars(cfg).items() if name != "inputs"}
    return ReportTable(method=cfg.method, config=config, rows=rows)


def fit_loglog_slope(x, y) -> tuple[float, float]:
    """Least-squares slope of log y against log x, with its standard error."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points for a slope")
    coeffs, residuals, *_ = np.polyfit(lx, ly, 1, full=True)
    slope = float(coeffs[0])
    dof = max(lx.size - 2, 1)
    resid = float(residuals[0]) if len(residuals) else 0.0
    denom = float(np.sum((lx - lx.mean()) ** 2))
    stderr = math.sqrt(resid / dof / denom) if denom > 0 else 0.0
    return slope, stderr


def _ledger_cost(row: dict) -> float:
    led = row["ledger"]
    return float(led["oracle_calls"] + led["controlled_oracle_calls"])


def scaling_study(
    method: str,
    n_grid,
    eps_grid,
    seeds,
    *,
    kappa: float = 2.0,
) -> dict:
    """Cost table over (n, eps, seed) cells plus fitted log-log slopes of
    cost against 1/eps (at the largest n) and against n (at the smallest
    eps)."""
    n_grid = list(n_grid)
    eps_grid = list(eps_grid)
    seeds = list(seeds)
    if not n_grid or not eps_grid or not seeds:
        raise ValueError("grids must be nonempty")

    def cell(n, eps, seed):
        if method.startswith("prep-"):
            x = generate_vector(n, kappa, seed)
            cfg = ExperimentConfig(method=method, eps=eps, seed=seed, inputs={"x": x})
        else:
            a = generate_matrix(n, kappa, seed)
            b = generate_matrix(n, kappa, seed + 10_000)
            cfg = ExperimentConfig(method=method, eps=eps, seed=seed, inputs={"a": a, "b": b})
        row = run_experiment(cfg).rows[0]
        return {
            "n": n,
            "eps": eps,
            "seed": seed,
            "cost": _ledger_cost(row),
            "amplification_rounds": row["ledger"]["amplification_rounds"],
            "realized_error": row.get("realized_error"),
            "bound": row.get("bound"),
        }

    table = [cell(n, eps, seed) for n in n_grid for eps in eps_grid for seed in seeds]
    table.sort(key=lambda r: (r["n"], -r["eps"], r["seed"]))

    slopes = {}
    n_big = max(n_grid)
    sub = [r for r in table if r["n"] == n_big]
    if len(eps_grid) >= 2:
        xs, ys = [], []
        for eps in eps_grid:
            costs = [r["cost"] for r in sub if r["eps"] == eps]
            xs.append(1.0 / eps)
            ys.append(float(np.mean(costs)))
        slopes["cost_vs_inv_eps"] = fit_loglog_slope(xs, ys)
    eps_small = min(eps_grid)
    sub = [r for r in table if r["eps"] == eps_small]
    if len(n_grid) >= 2:
        xs, ys = [], []
        for n in n_grid:
            costs = [r["cost"] for r in sub if r["n"] == n]
            xs.append(n)
            ys.append(float(np.mean(costs)))
        slopes["cost_vs_n"] = fit_loglog_slope(xs, ys)
    return {"method": method, "table": table, "slopes": slopes}


def _recompute_bound(row: dict) -> float | None:
    """Recompute a row's bound from its embedded instance."""
    method = row["method"]
    if method in READOUT_METHODS or method == "lcu":
        return float(row["eps"])
    if method == "swap":
        a, b = row["a"], row["b"]
        c = exact_product(a, b)
        eps_inner = math.pi / (1 << int(row["phase_bits"]))
        return matmul.swaptest_error_bound(
            float(np.linalg.norm(a)), float(np.linalg.norm(b)), float(np.linalg.norm(c)), eps_inner
        )
    if method in ("sve", "hhl"):
        a0, _, _, sigmas, col_norms, _, alpha = matmul._sve_setup(row["a"], row["b"])
        route_of = matmul.walk_route if method == "sve" else matmul.dilation_route
        route = route_of(float(np.linalg.norm(a0)), float(sigmas[0]))
        sigma_eff = np.asarray(row["details"]["sigma_eff"], dtype=float)
        return matmul.sve_error_bound(route.scale / (1 << int(row["phase_bits"])), col_norms, alpha, sigma_eff, sigmas)
    if method == "prep-direct":
        return PREP_DIRECT_BOUND
    if method in ("prep-hamiltonian", "prep-sparse"):
        x = np.abs(row["x"])
        return stateprep.small_angle_bound(float(row["eps"]), float(x.max() / x[x > 0].min()))
    if method in ("prep-dyadic", "prep-signshift"):
        return float(row["eps"])
    return None


def verify_bounds(report: dict) -> tuple[bool, list[dict]]:
    """Recompute every row's bound from its stored instance and re-check
    realized <= bound; a readout row's realized error is also recomputed as
    max |c_tilde - AB|. Returns (ok, findings)."""
    findings = []
    for row in report.get("rows", []):
        ident = row.get("id", "?")
        entry_error = None
        try:
            bound = _recompute_bound(row)
            if row["method"] in READOUT_METHODS:
                entry_error = float(np.max(np.abs(np.asarray(row["c_tilde"]) - exact_product(row["a"], row["b"]))))
        except Exception as exc:  # surface broken instance data per row
            findings.append({"id": ident, "problem": f"cannot recompute from the instance: {exc}"})
            continue
        if bound is None:
            findings.append({"id": ident, "problem": "unknown method"})
            continue
        stored = row.get("bound")
        if stored is None or abs(stored - bound) > 1e-9 * max(1.0, abs(bound)):
            findings.append(
                {"id": ident, "problem": f"stored bound {stored} != recomputed {bound}"}
            )
            continue
        realized = row.get("realized_error")
        if entry_error is not None and (realized is None or abs(realized - entry_error) > 1e-9 * max(1.0, entry_error)):
            findings.append({"id": ident, "problem": f"realized error {realized} != {entry_error} recomputed from c_tilde"})
        elif realized is None or exceeds_bound(realized, bound):
            findings.append(
                {"id": ident, "problem": f"realized error {realized} exceeds bound {bound}"}
            )
    return (not findings, findings)
