"""Inner-product estimation.

The estimator prepares phi = (|+>|x> + |->|y>)/sqrt(2), whose |0>-branch
probability is (1 + <x|y>)/2, and phase-estimates the Grover rotation built
from phi; the branch angle read off the phase label gives the inner product
on a pi/2^t grid. Its coherent generalizations, which write f(estimate)
into a register instead of measuring, are circuits.generalized_swap_test
and circuits.coefficient_tag.

Input states are Statevectors (qmm.from_vector normalizes, pads and checks
unit norm). Each stands for a state-preparation oracle: only its vector is
read, and every call is charged on the ledger. The label distribution
depends only on s = Re<x|y>, which the estimators hand to the swap-plane kernel.
"""
from __future__ import annotations

import numpy as np

from .matmul import _resolve_phase_bits, _swap_plane_probabilities
from .qpe import _check_phase_budget, swap_value
from .statevector import NORM_TOL, CostLedger, Statevector


def _require_real(vec: np.ndarray, what: str) -> np.ndarray:
    """Insist the state is real up to a global phase. Already-real vectors
    pass through untouched (their sign is part of the declared data); a
    complex carrier phase is stripped."""
    if np.max(np.abs(vec.imag)) <= 1e-10:
        return vec.real.astype(complex)
    nz = np.flatnonzero(np.abs(vec) > 1e-12)
    phase = vec[nz[0]] / abs(vec[nz[0]])
    aligned = vec / phase
    if np.max(np.abs(aligned.imag)) > 1e-10:
        raise ValueError(f"{what} must be real up to a global phase")
    return aligned.real.astype(complex)


def _check_accuracy(eps: float) -> None:
    """Reject a swap-test accuracy outside (0, 1), NaN included: the public
    estimators read an overlap in [-1, 1] to eps."""
    if not 0.0 < eps < 1.0:
        raise ValueError("target accuracy must lie in (0, 1)")


def _modal_overlap(s: np.ndarray, t: int, data_qubits: int, ledger: CostLedger | None) -> np.ndarray:
    """Modal label decodes of the t-bit swap tests of pairs of data_qubits-qubit
    states with overlaps s = Re<x|y>, budgeted for the full register and
    charged as one run per overlap. Shared by estimate_real_overlap and the
    readouts, which size t with matmul._resolve_phase_bits."""
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


def estimate_real_overlap(
    x: np.ndarray, y: np.ndarray, eps: float, ledger: CostLedger | None = None
) -> float:
    """Modal estimate of Re<x|y> from phase estimation of the Grover
    rotation; |error| <= pi/2^t <= eps/4 with the rule's two guard bits.

    phi = (|0>(x+y) + |1>(x-y))/2 has branch norms sin(theta) and
    cos(theta) with sin^2(theta) = (1 + Re<x|y>)/2, and the Grover rotation
    acts on the plane of the two branch states as a rotation by 2*theta.
    The label distribution therefore depends only on s = Re<x|y>, and is
    computed from s on that 2x2 block; phi is never built. x and y must be
    unit vectors of one power-of-two size. The dense register simulation
    (circuits.grover_rotation + circuits.phase_estimate) gives the same
    estimate.
    """
    x, y = np.asarray(x).reshape(-1), np.asarray(y).reshape(-1)
    if x.size != y.size:
        raise ValueError(f"dimension mismatch: {x.size} vs {y.size}")
    if x.size == 0 or x.size & (x.size - 1):
        raise ValueError(f"dimension {x.size} is not a power of two")
    for name, vec in (("x", x), ("y", y)):
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"{name} has norm {norm}, not 1 within {NORM_TOL}")
    _check_accuracy(eps)
    t = _resolve_phase_bits(None, eps)
    return float(_modal_overlap(np.array([np.vdot(x, y).real]), t, x.size.bit_length() - 1, ledger)[0])


def _amplitude_pair(sx: Statevector, sy: Statevector) -> tuple[np.ndarray, np.ndarray]:
    if sx.amplitudes.size != sy.amplitudes.size:
        raise ValueError("states act on different dimensions")
    return sx.amplitudes, sy.amplitudes


def inner_product_estimate(
    sx: Statevector, sy: Statevector, eps: float, ledger: CostLedger | None = None
) -> float:
    """Estimate <x|y> of two real states to within eps; cost scales as 1/eps."""
    x, y = _amplitude_pair(sx, sy)
    x, y = _require_real(x, "first state"), _require_real(y, "second state")
    return estimate_real_overlap(x, y, eps, ledger)


def complex_inner_product(
    sx: Statevector, sy: Statevector, eps: float, ledger: CostLedger | None = None
) -> complex:
    """<x|y> = sum_k conj(x_k) y_k for complex states, each part within eps.

    The real part comes from one overlap estimate; the imaginary part from
    the overlap of |x> with i|y>, since Re<x|iy> = -Im<x|y>.
    """
    x, y = _amplitude_pair(sx, sy)
    re = estimate_real_overlap(x, y, eps, ledger)
    im = -estimate_real_overlap(x, 1j * y, eps, ledger)
    return complex(re, im)
