"""Classical (entrywise) matrix multiplication through the quantum
estimators, with absolute per-entry accuracy.

Every entry c_ij = ||A_i.|| ||B_.j|| <row_i|col_j> is recovered either from
a direct overlap estimate (swap route) or from the overlap of a basis state
with the singular-value-rotated column state (sve/hhl routes). The quantum
accuracy is budgeted per entry so that the absolute error never exceeds the
requested eps_abs; the n^2 classical norm precomputation is tracked
separately from oracle costs. Both readouts form their overlaps s as array
products and hand them to one stacked decode: a swap-test estimate depends
only on s, so no pair state is built, but the qubit budget is the full
register's.
"""
from __future__ import annotations

import math

import numpy as np

from .linalg import exact_product, pad_dim
from .matmul import _check_real_pair, _check_support, _resolve_phase_bits, _sve_setup, dilation_route, walk_route
# unused here; bench/tests/test_bench.py checks that the tracer patches this
# import-time binding along with matmul._sve_component
from .matmul import _sve_component  # noqa: F401
from .statevector import CostLedger, Result
from .swaptest import _modal_overlap


def _overlap_width(eps_abs: float, nx: float, ny: float) -> int:
    """Width of the overlap register that reads x . y to eps_abs: the
    normalized overlap is estimated to eps_abs / (||x|| ||y||)."""
    return _resolve_phase_bits(None, min(eps_abs / (nx * ny), 0.5))


def inner_product_classical(x, y, eps_abs: float, ledger: CostLedger | None = None) -> float:
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


def _stacked_estimates(shape, flat, widths, s, scale, data_qubits: int, ledger: CostLedger | None) -> np.ndarray:
    """Zeros of shape with scale * (the modal estimate of overlap s) at each
    flat index: the entries of one register width share one stacked decode.
    The one grouping by width of both readouts."""
    c_tilde = np.zeros(shape)
    for t in dict.fromkeys(widths.tolist()):  # in order of first use
        at = widths == t
        c_tilde.flat[flat[at]] = scale[at] * _modal_overlap(s[at], t, data_qubits, ledger)
    return c_tilde


def _report(c_tilde, a, b, eps_abs: float, ledger: CostLedger) -> Result:
    """The readout's result: its realized error max |c_tilde - AB| must not
    exceed its bound, the requested eps_abs, on any run."""
    error = float(np.max(np.abs(c_tilde - exact_product(a, b))))
    return Result(error, eps_abs, ledger, c_tilde=c_tilde)


def readout_swaptest(a, b, eps_abs: float) -> Result:
    """Entrywise C = AB by one overlap estimation per entry; cost per entry
    scales with ||A_i.|| ||B_.j|| / eps_abs, plus the classical norm pass.
    The estimations are independent and run side by side: the entries whose
    norms give one register width t share one stacked modal decode, charged
    as one inner_product_classical call per entry."""
    a, b = _check_real_pair(a, b)
    ledger = CostLedger(classical_entries=a.size + b.size)
    # each vector's norm taken on its own, as inner_product_classical takes it
    row_norms = np.array([np.linalg.norm(v) for v in a])
    col_norms = np.array([np.linalg.norm(v) for v in b.T])
    rows, cols = np.flatnonzero(row_norms), np.flatnonzero(col_norms)
    nx, ny = row_norms[rows], col_norms[cols]
    s = (a[rows] / nx[:, None]) @ (b[:, cols] / ny)
    widths = np.array([_overlap_width(eps_abs, x, y) for x in nx.tolist() for y in ny.tolist()], dtype=int)
    flat, scale = (b.shape[1] * rows[:, None] + cols).ravel(), (nx[:, None] * ny).ravel()
    data_qubits = int(math.log2(pad_dim(a.shape[1])))
    c_tilde = _stacked_estimates((a.shape[0], b.shape[1]), flat, widths, s.ravel(), scale, data_qubits, ledger)
    return _report(c_tilde, a, b, eps_abs, ledger)


def _readout_by_value_estimation(a, b, eps_abs: float, route_of) -> Result:
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
    if not a0.any():  # no singular direction for the route to scale by
        raise ValueError("A is zero")
    _check_support(sigmas, alpha, col_norms, frob_b)
    route = route_of(float(np.linalg.norm(a0)), float(sigmas[0]))
    ledger = CostLedger(classical_entries=a0.size + b0.size)
    l, n = a0.shape[0], b0.shape[1]
    uvec = bundle.left_vectors[:l]
    live = np.flatnonzero(col_norms)  # a zero column of B reads zero
    aj = alpha[:, live]
    # sigma-accuracy budget per column, tightest over the rows i of
    # sum_k |alpha_jk u_k[i]|; sigma is read to route.scale / 2^t1 <= eps1_req / 2
    eps1_req = eps_abs / (2.0 * col_norms[live] * np.maximum(np.max(np.abs(aj.T) @ np.abs(uvec.T), axis=1), 1e-14))
    t1 = np.array([_resolve_phase_bits(None, e / 2.0, route.scale, 0) for e in eps1_req.tolist()], dtype=int)
    c_rot, y0 = np.ones(n), np.empty((l, live.size))  # c_rot 1 on zero columns
    for t in dict.fromkeys(t1.tolist()):
        # every component's amplitude left on the rot = 0 block after a t-bit
        # estimation, rotation by c_rot times the decoded value, and undo
        at = t1 == t
        rot, weights0 = route.rotation(t)
        c_rot[live[at]] = rot
        comp0 = route.components(sigmas, t, weights0[:, None])[:, 0]
        # rot = 0 block of the rotated column states: y0[i] = <i, rot=0|state>
        y0[:, at] = (uvec @ (aj[:, at] * np.where(np.abs(aj[:, at]) > 1e-14, comp0[:, None], 0.0))).real
    t2 = [_resolve_phase_bits(None, min(eps_abs / (2.0 * col_norms[j] / c_rot[j]), 0.5)) for j in live.tolist()]
    for outer, inner in zip(t2, t1.tolist()):
        # nested cost: one t2-bit overlap estimation per entry of the column,
        # each controlled step of which reruns the t1-bit inner pipeline
        ledger.charge_phase_estimation(outer, l * ((1 << inner) - 1))
        ledger.use_phase_bits(inner)
        ledger.charge_oracle(1)
    # entry (i, j) at flat index n i + j, column by column; the rotated
    # column state has d (component, rot) pairs and a junk amplitude
    flat = (live[:, None] + n * np.arange(l)).ravel()
    data_qubits = int(math.log2(pad_dim(2 * sigmas.size + 1)))
    scale = np.repeat(col_norms[live], l)
    c_tilde = _stacked_estimates((l, n), flat, np.repeat(t2, l), y0.T.ravel(), scale, data_qubits, None) / c_rot
    return _report(c_tilde, a0, b0, eps_abs, ledger)


def readout_sve(a, b, eps_abs: float) -> Result:
    """Entrywise C = AB from overlaps with the singular-value-rotated column
    states of B, singular values estimated on the walk operator of A."""
    return _readout_by_value_estimation(a, b, eps_abs, walk_route)


def readout_hhl(a, b, eps_abs: float) -> Result:
    """Entrywise C = AB with singular values estimated on the Hermitian
    dilation of A (accuracy relative to sigma_max instead of ||A||_F)."""
    return _readout_by_value_estimation(a, b, eps_abs, dilation_route)
