"""The swap-test decode the readouts share.

The estimator prepares phi = (|+>|x> + |->|y>)/sqrt(2), whose |0>-branch
probability is (1 + <x|y>)/2, and phase-estimates the Grover rotation built
from phi; the branch angle read off the phase label gives the inner product
on a pi/2^t grid. The label distribution depends only on s = Re<x|y>, so
the readouts form their overlaps as array products and hand them to
_modal_overlap; no pair state is built. The estimators on states
(circuits.inner_product_estimate and circuits.complex_inner_product) and
their coherent generalizations, which write f(estimate) into a register
instead of measuring (circuits.generalized_swap_test and
circuits.coefficient_tag), live in circuits.
"""
from __future__ import annotations

import numpy as np

from .matmul import _swap_plane_probabilities
from .qpe import _check_phase_budget, swap_value
from .statevector import CostLedger


def _modal_overlap(s: np.ndarray, t: int, data_qubits: int, ledger: CostLedger | None) -> np.ndarray:
    """Modal label decodes of the t-bit swap tests of pairs of data_qubits-qubit
    states with overlaps s = Re<x|y>, budgeted for the full register and
    charged as one run per overlap; |error| <= pi/2^t. Shared by the
    readouts, which size t with matmul._resolve_phase_bits, and the
    estimators in circuits."""
    _check_phase_budget(t + 1 + data_qubits)
    if ledger is not None:
        ledger.charge_oracle(2 * s.size)  # one controlled preparation of each input
        ledger.charge_phase_estimation(t, s.size)
    modal = np.empty(s.size, dtype=np.int64)
    for rows, probs in _swap_plane_probabilities(s, t):
        modal[rows] = np.argmax(probs, axis=-1)
    # one label at a time: numpy's sine over an array can differ in the last
    # bit from its value on one label, which the single-entry decode reads
    return np.array([swap_value(y, t) for y in modal.tolist()])
