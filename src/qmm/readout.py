"""Classical (entrywise) matrix multiplication through the quantum
estimators, with absolute per-entry accuracy.

Every entry c_ij = ||A_i.|| ||B_.j|| <row_i|col_j> is recovered either from
a direct overlap estimate (swap route) or from the overlap of a basis state
with the singular-value-rotated column state (sve/hhl routes). The quantum
accuracy is budgeted per entry so that the absolute error never exceeds the
requested eps_abs; the n^2 classical norm precomputation is tracked
separately from oracle costs. A swap-test estimate depends only on the
overlap s, so each entry hands its s (the normalized row-column product, or
the rotated column state's amplitude on |i, rot=0>) to the swap-plane
kernel; no pair state is built, but the qubit budget is the full register's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import exact_product, pad_dim
from .matmul import MAX_PHASE_BITS, _check_real_pair, _check_support, _sve_setup, dilation_route, walk_route
# unused here; bench/tests/test_bench.py checks that the tracer patches this
# import-time binding along with matmul._sve_component
from .matmul import _sve_component  # noqa: F401
from .qpe import PhaseConfig
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
    eps_q = min(eps_abs / (nx * ny), 0.5)
    s = float((x / nx) @ (y / ny))
    return nx * ny * _modal_overlap(s, eps_q, int(math.log2(pad_dim(x.size))), ledger)


def readout_swaptest(a, b, eps_abs: float) -> ReadoutReport:
    """Entrywise C = AB by one overlap estimation per entry; cost per entry
    scales with ||A_i.|| ||B_.j|| / eps_abs, plus the classical norm pass."""
    a, b = _check_real_pair(a, b)
    ledger = CostLedger()
    ledger.classical_entries += a.size + b.size
    c_tilde = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            c_tilde[i, j] = inner_product_classical(a[i], b[:, j], eps_abs, ledger)
    exact = exact_product(a, b)
    return ReadoutReport(
        c_tilde=c_tilde,
        entrywise_error_bound=eps_abs,
        max_observed_error=float(np.max(np.abs(c_tilde - exact))),
        ledger=ledger,
        method="readout-swap",
    )


def _rotated_components(sigmas: np.ndarray, t1: int, route):
    """Rotation constant c_rot and, for every singular component k, the
    amplitude left on the rot = 0 block after a t1-bit estimation on the
    route, rotation by c_rot * decoded value, and undo. c_rot is the
    reciprocal of the largest value the grid can decode for sigma_max, so
    every rotation stays within [-1, 1].
    """
    c_rot, weights0 = route.rotation(t1)
    return c_rot, route.components(sigmas, t1, weights0[:, None])[:, 0]


def _readout_by_value_estimation(a, b, eps_abs: float, route_of, *, strict_support: bool) -> ReadoutReport:
    """Shared sve/hhl readout: per column j build the rotated state
    (1/sigma_ceiling) sum_k alpha_jk sigma~_k |u_k>|0> + junk, then estimate
    its overlap with each |i>|0> and rescale by ||B_.j|| sigma_ceiling.

    The error splits into the overlap part (estimated to eps_abs/2 after
    rescaling) and the singular-value part (sigma read to eps1 with
    eps1 ||B_.j|| sum_k |alpha_jk <i|u_k>| <= eps_abs/2).
    """
    a0, b0, l, m, n, d, ap, bundle, col_norms, frob_b, alpha = _sve_setup(a, b)
    if frob_b == 0:
        raise ValueError("B is zero")
    _check_support(bundle.sigmas, alpha, col_norms, frob_b, strict_support)
    route = route_of(float(np.linalg.norm(a0)), float(bundle.sigmas[0]))
    sigmas = np.zeros(d)
    sigmas[: bundle.sigmas.size] = bundle.sigmas

    ledger = CostLedger()
    ledger.classical_entries += a0.size + b0.size
    c_tilde = np.zeros((l, n))
    uvec = bundle.left_vectors
    # the rotated column state: d (component, rot) pairs and a junk amplitude
    data_qubits = int(math.log2(pad_dim(2 * d + 1)))
    # the components depend on the column only through t1, so columns of
    # equal width share one evaluation
    by_width = {}
    for j in range(n):
        if col_norms[j] == 0.0:
            continue
        aj = alpha[:, j]
        # sigma-accuracy budget for this column, tightest over target rows
        colsum = np.abs(aj) @ np.abs(uvec[:l].T)  # sum_k |alpha_jk u_k[i]| per i
        eps1_req = eps_abs / (2.0 * col_norms[j] * max(float(np.max(colsum)), 1e-14))
        # sigma is read to route.scale / 2^t1 <= eps1_req / 2
        t1 = math.ceil(math.log2(2.0 * route.scale / eps1_req))
        t1 = min(max(t1, 2), MAX_PHASE_BITS)
        if t1 not in by_width:
            by_width[t1] = _rotated_components(sigmas, t1, route)
        c_rot, comp0 = by_width[t1]
        # rot = 0 block of the rotated column state: y0[i] = <i, rot=0|state>
        y0 = uvec @ (aj * np.where(np.abs(aj) > 1e-14, comp0, 0.0))
        eps2_req = min(eps_abs / (2.0 * col_norms[j] / c_rot), 0.5)
        t2 = PhaseConfig.from_epsilon(eps2_req).phase_bits
        for i in range(l):
            est = _modal_overlap(float(y0[i].real), eps2_req, data_qubits, None)
            c_tilde[i, j] = est * col_norms[j] / c_rot
            # nested cost: each controlled step of the outer estimation
            # reruns the inner singular-value pipeline
            ledger.charge_controlled(((1 << t2) - 1) * ((1 << t1) - 1))
            ledger.use_phase_bits(max(t1, t2))
        ledger.charge_oracle(1)
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
