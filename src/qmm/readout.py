"""Classical (entrywise) matrix multiplication through the quantum
estimators, with absolute per-entry accuracy.

Every entry c_ij = ||A_i.|| ||B_.j|| <row_i|col_j> is recovered either from
a direct overlap estimate (swap route) or from the overlap of a basis state
with the singular-value-rotated column state (sve/hhl routes). The quantum
accuracy is budgeted per entry so that the absolute error never exceeds the
requested eps_abs; the n^2 classical norm precomputation is tracked
separately from oracle costs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, exact_product, pad_dim
from .matmul import MAX_PHASE_BITS, _check_support, _sve_setup, dilation_route, walk_route
# unused here; bench/tests/test_bench.py checks that the tracer patches this
# import-time binding along with matmul._sve_component
from .matmul import _sve_component  # noqa: F401
from .qpe import PhaseConfig
from .statevector import CostLedger
from .swaptest import estimate_real_overlap

_GUARD = 2


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
    dim = pad_dim(x.size)
    xs = np.zeros(dim)
    ys = np.zeros(dim)
    xs[: x.size] = x / nx
    ys[: y.size] = y / ny
    est = estimate_real_overlap(xs, ys, eps_q, ledger)
    return nx * ny * est


def readout_swaptest(a, b, eps_abs: float) -> ReadoutReport:
    """Entrywise C = AB by one overlap estimation per entry; cost per entry
    scales with ||A_i.|| ||B_.j|| / eps_abs, plus the classical norm pass."""
    a = as_matrix(a, allow_complex=False)
    b = as_matrix(b, allow_complex=False)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
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
    amplitudes left on the rot = 0 and rot = 1 blocks after a t1-bit
    estimation on the route, rotation by c_rot * decoded value, and undo.
    c_rot is the reciprocal of the largest value the grid can decode for
    sigma_max, so every rotation stays within [-1, 1].
    """
    c_rot, weights0 = route.rotation(t1)
    comp = route.components(sigmas, t1, np.stack([weights0, np.sqrt(1.0 - weights0**2)], axis=1))
    return c_rot, comp[:, 0], comp[:, 1]


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
        c_rot, comp0, comp1 = by_width[t1]
        support = np.abs(aj) > 1e-14
        comp0 = np.where(support, comp0, 0.0)
        comp1 = np.where(support, comp1, 0.0)
        y0 = uvec @ (aj * comp0)  # rot = 0 block
        y1 = uvec @ (aj * comp1)  # rot = 1 block
        junk = max(0.0, 1.0 - float(np.sum(np.abs(y0) ** 2) + np.sum(np.abs(y1) ** 2)))
        dim_y = pad_dim(2 * d + 1)
        yfull = np.zeros(dim_y, dtype=complex)
        yfull[:d] = y0
        yfull[d : 2 * d] = y1
        yfull[2 * d] = math.sqrt(junk)
        # outer overlap estimation against each |i, rot=0>
        eps2_req = min(eps_abs / (2.0 * col_norms[j] / c_rot), 0.5)
        t2 = PhaseConfig.from_epsilon(eps2_req, guard_bits=_GUARD).phase_bits
        for i in range(l):
            xfull = np.zeros(dim_y)
            xfull[i] = 1.0
            est = estimate_real_overlap(xfull, yfull, eps2_req, None)
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
