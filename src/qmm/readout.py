"""Classical (entrywise) matrix multiplication through the quantum
estimators, with absolute per-entry accuracy.

Every entry c_ij = ||A_i.|| ||B_.j|| <row_i|col_j> is recovered either from
a direct overlap estimate (swap route) or from the overlap of a basis state
with the singular-value-rotated column state (sve/hhl routes). The quantum
accuracy is budgeted per entry so that the absolute error never exceeds the
requested eps_abs; the n^2 classical norm precomputation is tracked
separately from oracle costs. A swap-test estimate depends only on the
overlap s, so the entries hand their s (the normalized row-column product,
or the rotated column state's amplitude on |i, rot=0>) to the swap-plane
kernel, all entries of one register width in one stack; no pair state is
built, but the qubit budget is the full register's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import exact_product, pad_dim
from .matmul import _check_real_pair, _check_support, _resolve_phase_bits, _sve_setup, dilation_route, walk_route
# unused here; bench/tests/test_bench.py checks that the tracer patches this
# import-time binding along with matmul._sve_component
from .matmul import _sve_component  # noqa: F401
from .statevector import CostLedger
from .swaptest import _modal_overlap


@dataclass(frozen=True)
class ReadoutReport:
    """Entrywise product estimate with its absolute-error contract.

    max_observed_error compares against the exact product and must not
    exceed entrywise_error_bound (= the requested eps_abs) on any run.
    """

    c_tilde: np.ndarray
    entrywise_error_bound: float
    max_observed_error: float
    ledger: CostLedger
    method: str

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "eps_abs": self.entrywise_error_bound,
            "max_observed_error": self.max_observed_error,
            "ledger": self.ledger.to_dict(),
        }


def _overlap_width(eps_abs: float, nx: float, ny: float) -> int:
    """Width of the overlap register that reads x . y to eps_abs: the
    normalized overlap is estimated to eps_abs / (||x|| ||y||)."""
    return _resolve_phase_bits(None, min(eps_abs / (nx * ny), 0.5))


def inner_product_classical(
    x, y, eps_abs: float, ledger: CostLedger | None = None
) -> float:
    """x . y to absolute accuracy eps_abs via the normalized overlap
    estimate run at accuracy eps_abs / (||x|| ||y||)."""
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


def _normalized_nonzero(vectors) -> list:
    """(index, norm, vector / norm) for each nonzero vector, its norm taken
    on its own as inner_product_classical takes it."""
    out = []
    for k, v in enumerate(vectors):
        norm = float(np.linalg.norm(v))
        if norm != 0.0:
            out.append((k, norm, v / norm))
    return out


def readout_swaptest(a, b, eps_abs: float) -> ReadoutReport:
    """Entrywise C = AB by one overlap estimation per entry; cost per entry
    scales with ||A_i.|| ||B_.j|| / eps_abs, plus the classical norm pass.
    The estimations are independent and run side by side: the entries whose
    norms give one register width t share one stacked modal decode, charged
    as one inner_product_classical call per entry."""
    a, b = _check_real_pair(a, b)
    ledger = CostLedger()
    ledger.classical_entries += a.size + b.size
    l, n = a.shape[0], b.shape[1]
    data_qubits = int(math.log2(pad_dim(a.shape[1])))
    cols = _normalized_nonzero(b.T)
    by_width = {}  # t -> (flat entry indices, norm products, overlaps)
    for i, nx, x in _normalized_nonzero(a):
        for j, ny, y in cols:
            flat, scale, s = by_width.setdefault(_overlap_width(eps_abs, nx, ny), ([], [], []))
            flat.append(i * n + j)
            scale.append(nx * ny)
            s.append(x @ y)
    c_tilde = np.zeros(l * n)
    for t, (flat, scale, s) in by_width.items():
        c_tilde[flat] = np.array(scale) * _modal_overlap(np.array(s), t, data_qubits, ledger)
    c_tilde = c_tilde.reshape(l, n)
    exact = exact_product(a, b)
    return ReadoutReport(
        c_tilde=c_tilde,
        entrywise_error_bound=eps_abs,
        max_observed_error=float(np.max(np.abs(c_tilde - exact))),
        ledger=ledger,
        method="readout-swap",
    )


def _readout_by_value_estimation(a, b, eps_abs: float, route_of, *, strict_support: bool) -> ReadoutReport:
    """Shared sve/hhl readout: per column j build the rotated state
    (1/sigma_ceiling) sum_k alpha_jk sigma~_k |u_k>|0> + junk, then estimate
    its overlap with each |i>|0> and rescale by ||B_.j|| sigma_ceiling.

    The error splits into the overlap part (estimated to eps_abs/2 after
    rescaling) and the singular-value part (sigma read to eps1 with
    eps1 ||B_.j|| sum_k |alpha_jk <i|u_k>| <= eps_abs/2).
    """
    a0, b0, bundle, sigmas, col_norms, frob_b, alpha = _sve_setup(a, b)
    if frob_b == 0:
        raise ValueError("B is zero")
    _check_support(sigmas, alpha, col_norms, frob_b, strict_support)
    route = route_of(float(np.linalg.norm(a0)), float(sigmas[0]))

    ledger = CostLedger()
    ledger.classical_entries += a0.size + b0.size
    l, n = a0.shape[0], b0.shape[1]
    c_tilde = np.zeros((l, n))
    uvec = bundle.left_vectors
    # the rotated column state: d (component, rot) pairs and a junk amplitude
    data_qubits = int(math.log2(pad_dim(2 * sigmas.size + 1)))
    # for every singular component k, the amplitude left on the rot = 0
    # block after a t1-bit estimation, rotation by c_rot times the decoded
    # value, and undo; it depends on the column only through t1, so columns
    # of equal width share one evaluation
    by_width = {}
    by_overlap_width = {}  # t2 -> (column, y0[:l].real, ||B_.j||, c_rot) per column
    for j in range(n):
        if col_norms[j] == 0.0:
            continue
        aj = alpha[:, j]
        # sigma-accuracy budget for this column, tightest over target rows
        colsum = np.abs(aj) @ np.abs(uvec[:l].T)  # sum_k |alpha_jk u_k[i]| per i
        eps1_req = eps_abs / (2.0 * col_norms[j] * max(float(np.max(colsum)), 1e-14))
        # sigma is read to route.scale / 2^t1 <= eps1_req / 2
        t1 = _resolve_phase_bits(None, eps1_req / 2.0, route.scale, 0)
        if t1 not in by_width:
            c_rot, weights0 = route.rotation(t1)
            by_width[t1] = c_rot, route.components(sigmas, t1, weights0[:, None])[:, 0]
        c_rot, comp0 = by_width[t1]
        # rot = 0 block of the rotated column state: y0[i] = <i, rot=0|state>
        y0 = uvec @ (aj * np.where(np.abs(aj) > 1e-14, comp0, 0.0))
        t2 = _resolve_phase_bits(None, min(eps_abs / (2.0 * col_norms[j] / c_rot), 0.5))
        by_overlap_width.setdefault(t2, []).append((j, y0[:l].real, col_norms[j], c_rot))
        # nested cost: one t2-bit overlap estimation per entry of the column,
        # each controlled step of which reruns the t1-bit inner pipeline
        ledger.charge_phase_estimation(t2, l * ((1 << t1) - 1))
        ledger.use_phase_bits(t1)
        ledger.charge_oracle(1)
    # the columns of one overlap width share one stacked decode
    for t2, columns in by_overlap_width.items():
        cols, s, norms, rots = zip(*columns)
        est = _modal_overlap(np.concatenate(s), t2, data_qubits, None).reshape(len(cols), l)
        c_tilde[:, cols] = (est * np.array(norms)[:, None] / np.array(rots)[:, None]).T
    exact = exact_product(a0, b0)
    return ReadoutReport(
        c_tilde=c_tilde,
        entrywise_error_bound=eps_abs,
        max_observed_error=float(np.max(np.abs(c_tilde - exact))),
        ledger=ledger,
        method="readout-" + route.method,
    )


def readout_sve(a, b, eps_abs: float, *, strict_support: bool = False) -> ReadoutReport:
    """Entrywise C = AB from overlaps with the singular-value-rotated column
    states of B, singular values estimated on the walk operator of A."""
    return _readout_by_value_estimation(a, b, eps_abs, walk_route, strict_support=strict_support)


def readout_hhl(a, b, eps_abs: float, *, strict_support: bool = False) -> ReadoutReport:
    """Entrywise C = AB with singular values estimated on the Hermitian
    dilation of A (accuracy relative to sigma_max instead of ||A||_F)."""
    return _readout_by_value_estimation(a, b, eps_abs, dilation_route, strict_support=strict_support)
