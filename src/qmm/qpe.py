"""The phase-estimation kernel the production routes share: controlled
powers filled by doubling, the swap test's label decode, and the qubit
budget every estimation register is checked against.

Conventions. A t-bit phase register holds labels y in Z_{2^t}; label y
stands for eigenphase 2*pi*y/2^t. The dense phase-estimation circuit built
on this kernel is circuits.phase_estimate.
"""
from __future__ import annotations

import numpy as np

from .statevector import max_qubits


def swap_value(y, t: int):
    """Branch-amplitude decode of a phase label: 2*sin^2(pi*y/2^t) - 1.
    Even under the wrap y -> 2^t - y, so both signed branches agree; it is
    evaluated on min(y, 2^t - y) so that they agree to the last bit."""
    T = 1 << t
    y = np.asarray(y)
    return 2.0 * np.sin(np.pi * np.minimum(y, T - y) / T) ** 2 - 1.0


def _controlled_powers(rows: np.ndarray, u: np.ndarray, t: int) -> np.ndarray:
    """Controlled-u^(2^k) for each phase bit k of a forward estimation,
    powers by repeated squaring.

    A forward estimation starts every label from the same row, so rows is
    that start row, shape (..., 1, system_dim), with u of shape
    (..., system_dim, system_dim): a leading stack axis runs independent
    blocks side by side. The labels are filled by doubling into a new
    (..., system_dim, 2^t) array, label axis last so that each step is one
    (dim, dim) @ (dim, 2^k) product per block and the Fourier transform runs
    along contiguous memory: label y is u^(2^k) times label y - 2^k for the
    top bit k of y. That applies the same powers in the same order as one
    masked product per bit, with 2^t - 1 row products per block, and leaves
    the start rows unmodified."""
    p = u.copy()
    out = np.empty(rows.shape[:-2] + (rows.shape[-1], 1 << t), dtype=np.result_type(rows, u))
    out[..., 0] = rows[..., 0, :]
    for k in range(t):
        h = 1 << k
        np.matmul(p, out[..., :h], out=out[..., h : 2 * h])
        if k + 1 < t:
            p = p @ p
    return out


def _check_phase_budget(total: int) -> None:
    """Reject a phase estimation whose register, phase bits included, would
    exceed the QMM_MAX_QUBITS budget."""
    if total > max_qubits():
        raise ValueError(
            f"phase estimation needs {total} qubits, over the budget of {max_qubits()}"
        )
