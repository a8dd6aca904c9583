"""Helpers shared by the test modules: bit-exact row comparison, the
pinned-row runs, the overlap oracles (the dense register, and one
normalized overlap per entry), the readouts run on them, the rank-one
swap pipeline matmul_lcu's terms are checked against, and degenerate
matrix instances."""
import json
import math
import warnings
from dataclasses import replace

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from qmm.harness import PREP_METHODS, ExperimentConfig, generate_matrix, generate_vector, run_experiment
from qmm.io import INSTANCE_FIELDS
from qmm.linalg import pad_dim
from qmm.matmul import (
    SupportViolationWarning,
    _check_real_pair,
    _check_support,
    _resolve_phase_bits,
    _sve_setup,
    dilation_route,
    matmul_swaptest,
    walk_route,
)
from qmm.circuits import (
    grover_rotation,
    marginal_probabilities,
    phase_estimate,
    superposed_pair_state,
)
from qmm.qpe import swap_value
from qmm.readout import _overlap_width
from qmm.statevector import CostLedger, Result
from qmm.swaptest import _modal_overlap


def comparable(row: dict) -> dict:
    """The row with each instance field replaced by its float64 bit patterns
    (nested lists of uint64), so that == and json.dumps compare it bit for bit."""
    return {
        k: np.asarray(v, dtype=np.float64).view(np.uint64).tolist() if k in INSTANCE_FIELDS else v
        for k, v in row.items()
    }


def comparable_rows(rows: list[dict]) -> list[dict]:
    return [comparable(row) for row in rows]


def pinned_row(case: dict) -> dict:
    """Re-run one case of tests/data/harness_pinned.json: its method at its
    eps and run options, on its explicit a and b or else on
    generate_vector(n, kappa, seed), or generate_matrix(n, kappa, seed) and
    seed + 10000. Returns the row as JSON reads it back, without wall_time
    and the instance."""
    method, seed = case["method"], case.get("seed", 0)
    if "a" in case:
        inputs = {"a": case["a"], "b": case["b"]}
    elif method in PREP_METHODS:
        inputs = {"x": generate_vector(case["n"], case["kappa"], seed)}
    else:
        n, kappa = case["n"], case["kappa"]
        inputs = {"a": generate_matrix(n, kappa, seed), "b": generate_matrix(n, kappa, seed + 10_000)}
    cfg = ExperimentConfig(method=method, eps=case["eps"], seed=seed, inputs=inputs, **case["options"])
    with warnings.catch_warnings():
        if "a" in case:  # the explicit pairs leave the support condition on purpose
            warnings.simplefilter("ignore", SupportViolationWarning)
        row = run_experiment(cfg).rows[0]
    return json.loads(json.dumps({k: v for k, v in row.items() if k != "wall_time" and k not in INSTANCE_FIELDS}))


def swap_closed_form(s: float, t: int) -> float:
    """The swap route's per-entry value, the label mean of the swap plane:
    ((T - 1) s - cos(2 theta (T - 1))) / T with sin^2 theta = (1 + s) / 2."""
    T = 1 << t
    theta = math.asin(math.sqrt((1.0 + s) / 2.0))
    return ((T - 1) * s - math.cos(2.0 * theta * (T - 1))) / T


def swap_closed_form_entries(a, b, t: int) -> np.ndarray:
    """The swap route's amplitude table of AB at width t, unnormalized: the
    entry of a nonzero row A_i. and column B_.j is ||A_i.|| ||B_.j|| times
    swap_closed_form of their clipped normalized overlap, every other entry 0."""
    rows, cols = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=0)
    want = np.zeros((a.shape[0], b.shape[1]))
    for i, j in np.ndindex(*want.shape):
        if rows[i] and cols[j]:
            s = float(np.clip(a[i] / rows[i] @ (b[:, j] / cols[j]), -1.0, 1.0))
            want[i, j] = rows[i] * cols[j] * swap_closed_form(s, t)
    return want


def dense_overlap_estimate(x, y, eps, ledger=None):
    """Reference estimator: the Grover rotation on the full register."""
    t = _resolve_phase_bits(None, eps)
    phi = superposed_pair_state(x, y)
    if ledger is not None:
        ledger.charge_oracle(2)
    est = phase_estimate(grover_rotation(phi), phi, t, ledger)
    label = int(np.argmax(marginal_probabilities(est, "phase")))
    return float(swap_value(label, t))


def inner_product_classical(x, y, eps_abs: float, ledger: CostLedger | None = None) -> float:
    """x . y to absolute accuracy eps_abs via the normalized overlap
    estimate run at accuracy eps_abs / (||x|| ||y||): readout-swap's
    per-entry oracle."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size:
        raise ValueError(f"dimension mismatch: {x.size} vs {y.size}")
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    t = _overlap_width(eps_abs, nx, ny)
    s = np.array([(x / nx) @ (y / ny)])
    return nx * ny * float(_modal_overlap(s, t, int(math.log2(pad_dim(x.size))), ledger)[0])


def rank_one_product(a_vec, b_vec, eps: float = 0.05) -> Result:
    """State of the rank-one product |a><b|: the swap-test pipeline on a
    column times a row. Branch angles sit exactly on the phase grid, so the
    result is exact and the cost is independent of any norm ratio; the
    oracle for matmul_lcu's directly assembled terms."""
    a_vec = np.asarray(a_vec, dtype=float).reshape(-1)
    b_vec = np.asarray(b_vec, dtype=float).reshape(-1)
    if not np.linalg.norm(a_vec) or not np.linalg.norm(b_vec):
        raise ValueError("rank-one factors must be nonzero")
    res = matmul_swaptest(a_vec.reshape(-1, 1), b_vec.reshape(1, -1), eps=eps)
    return replace(res, bound=min(res.bound, eps))


def dense_readout(method, a, b, eps_abs):
    """Reference readout: (c_tilde, ledger) of readout-swap, -sve or -hhl
    with every entry estimated by dense_overlap_estimate on the full padded
    pair. readout-swap pairs the normalized row and column; readout-sve and
    -hhl pair |i, rot=0> with the rotated column state, whose rot = 1 block
    and junk amplitude the production readouts never build."""
    if method == "readout-swap":
        a, b = _check_real_pair(a, b)
        ledger = CostLedger()
        ledger.classical_entries += a.size + b.size
        c_tilde = np.zeros((a.shape[0], b.shape[1]))
        dim = pad_dim(a.shape[1])
        for i, j in np.ndindex(*c_tilde.shape):
            nx, ny = float(np.linalg.norm(a[i])), float(np.linalg.norm(b[:, j]))
            if nx == 0.0 or ny == 0.0:
                continue
            xs, ys = np.zeros(dim), np.zeros(dim)
            xs[: a.shape[1]] = a[i] / nx
            ys[: a.shape[1]] = b[:, j] / ny
            c_tilde[i, j] = nx * ny * dense_overlap_estimate(xs, ys, min(eps_abs / (nx * ny), 0.5), ledger)
        return c_tilde, ledger
    a0, b0, bundle, sigmas, col_norms, frob_b, alpha = _sve_setup(a, b)
    _check_support(sigmas, alpha, col_norms, frob_b)
    route_of = walk_route if method == "readout-sve" else dilation_route
    route = route_of(float(np.linalg.norm(a0)), float(sigmas[0]))
    d, l, n = sigmas.size, a0.shape[0], b0.shape[1]
    ledger = CostLedger()
    ledger.classical_entries += a0.size + b0.size
    c_tilde = np.zeros((l, n))
    uvec = bundle.left_vectors
    for j in np.flatnonzero(col_norms):
        aj = alpha[:, j]
        colsum = np.abs(aj) @ np.abs(uvec[:l].T)
        eps1_req = eps_abs / (2.0 * col_norms[j] * max(float(np.max(colsum)), 1e-14))
        t1 = _resolve_phase_bits(None, eps1_req / 2.0, route.scale, 0)
        c_rot, w0 = route.rotation(t1)
        comp = route.components(sigmas, t1, np.stack([w0, np.sqrt(1.0 - w0**2)], axis=1))
        comp = np.where((np.abs(aj) > 1e-14)[:, None], comp, 0.0)
        y0, y1 = uvec @ (aj * comp[:, 0]), uvec @ (aj * comp[:, 1])  # rot = 0 and rot = 1 blocks
        yfull = np.zeros(pad_dim(2 * d + 1), dtype=complex)
        yfull[:d], yfull[d : 2 * d] = y0, y1
        yfull[2 * d] = math.sqrt(max(0.0, 1.0 - float(np.sum(np.abs(y0) ** 2) + np.sum(np.abs(y1) ** 2))))
        eps2_req = min(eps_abs / (2.0 * col_norms[j] / c_rot), 0.5)
        t2 = _resolve_phase_bits(None, eps2_req)
        for i in range(l):
            xfull = np.zeros(yfull.size)
            xfull[i] = 1.0
            c_tilde[i, j] = dense_overlap_estimate(xfull, yfull, eps2_req) * col_norms[j] / c_rot
            ledger.charge_controlled(((1 << t2) - 1) * ((1 << t1) - 1))
            ledger.use_phase_bits(max(t1, t2))
        ledger.charge_oracle(1)
    return c_tilde, ledger


@st.composite
def zero_row_pairs(draw):
    """A with zero rows (one row at least nonzero) times B, or a 1 x k by
    k x 1 product (l n = 1); AB != 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        l, m, n = 1, draw(st.integers(1, 5)), 1
    else:
        l, m, n = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a = rng.normal(size=(l, m))
    if l > 1:
        zero = draw(st.lists(st.integers(0, l - 1), min_size=1, max_size=l - 1, unique=True))
        a[zero] = 0.0
    b = rng.normal(size=(m, n))
    assume(np.linalg.norm(a @ b) > 1e-3)
    return a, b
