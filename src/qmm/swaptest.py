"""Inner-product estimation and its coherent generalizations.

The estimator prepares phi = (|+>|x> + |->|y>)/sqrt(2), whose |0>-branch
probability is (1 + <x|y>)/2, and phase-estimates the Grover rotation built
from phi; the branch angle read off the phase label gives the inner product
on a pi/2^t grid. The generalized form writes f(estimate) into a register
coherently instead of measuring, which is what lets matrix pipelines consume
inner products in superposition.

Input states are Statevectors (qmm.from_vector normalizes, pads and checks
unit norm). Each stands for a state-preparation oracle: only its vector is
read, and every call is charged on the ledger. The label distribution
depends only on s = Re<x|y>, which the estimators hand to the swap-plane kernel.
"""
from __future__ import annotations

import math

import numpy as np

from .matmul import _resolve_phase_bits, _swap_plane_probabilities
from .qpe import (
    _check_phase_budget,
    decode_fixed,
    encode_fixed,
    grover_rotation,
    phase_estimate,
    swap_value,
    tag_even_function,
)
from .statevector import (
    NORM_TOL,
    CostLedger,
    Statevector,
    _owned,
    apply_unitary,
    marginal_probabilities,
)

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def superposed_pair_state(x: np.ndarray, y: np.ndarray) -> Statevector:
    """phi = (|+>|x> + |->|y>)/sqrt(2) on registers (ctrl, data).

    Equals (|0>(x+y) + |1>(x-y))/2; unit norm for any unit x, y, including
    the degenerate x = -y case where the |0> branch vanishes.
    """
    x = np.asarray(x, dtype=complex).reshape(-1)
    y = np.asarray(y, dtype=complex).reshape(-1)
    if x.size != y.size:
        raise ValueError(f"dimension mismatch: {x.size} vs {y.size}")
    data_qubits = int(math.log2(x.size))
    amps = np.concatenate([(x + y) / 2.0, (x - y) / 2.0])
    return _owned((("ctrl", 1), ("data", data_qubits)), amps)


def control_pair_state(x: np.ndarray, y: np.ndarray) -> Statevector:
    """(|0>|x> + |1>|y>)/sqrt(2) on registers (ctrl, data): the state
    generalized_swap_test restores, kept as the reference its tests use."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    y = np.asarray(y, dtype=complex).reshape(-1)
    data_qubits = int(math.log2(x.size))
    amps = np.concatenate([x, y]) / math.sqrt(2.0)
    return _owned((("ctrl", 1), ("data", data_qubits)), amps)


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
    (grover_rotation + phase_estimate) gives the same estimate.
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


def generalized_swap_test(
    sx: Statevector,
    sy: Statevector,
    f,
    eps: float,
    ledger: CostLedger | None = None,
) -> Statevector:
    """Map (|0>|x> + |1>|y>)/sqrt(2) to (almost) the same state tensored
    with |f(s)>, where s is within eps of <x|y>.

    Layout of the result: (tag, ctrl, data). The tag register holds f
    applied to the branch-amplitude decode of the phase label, with as many
    fractional bits as the phase register; evenness of that composite under
    label wrap-around is what keeps the +-theta pair consistent, so the
    control-and-data part is restored exactly on the surviving branch.
    """
    x, y = _amplitude_pair(sx, sy)
    x, y = _require_real(x, "first state"), _require_real(y, "second state")
    _check_accuracy(eps)
    t = _resolve_phase_bits(None, eps)
    phi = superposed_pair_state(x, y)
    g = grover_rotation(phi)
    if ledger is not None:
        ledger.charge_oracle(2)
    est = phase_estimate(g, phi, t, ledger)

    def composite(label: int) -> float:
        return float(f(float(swap_value(label, t))))

    tagged = tag_even_function(est, composite, g, ledger=ledger)
    # rotate the control qubit back: H maps phi to (|0>|x> + |1>|y>)/sqrt(2)
    return apply_unitary(tagged, _H, ["ctrl"])


def tag_modal_value(state: Statevector) -> float:
    """Decode the most likely outcome of the "tag" register back to a float.
    Kept for demo 02, which reads the coherent swap test's tag with it."""
    probs = marginal_probabilities(state, "tag")
    width = state.register_size("tag")
    return decode_fixed(int(np.argmax(probs)), width - 2, width)


def coefficient_tag(
    state: Statevector,
    f,
    eps: float,
    ledger: CostLedger | None = None,
) -> Statevector:
    """Tag every computational-basis coefficient of a real state with
    f(estimate): sum_j alpha_j |j> |f(alpha_j +- eps)>.

    Realized by the generalized swap test of the state against each basis
    vector, run coherently over j. The per-j blocks are independent, so the
    exact output is assembled from per-j label distributions; the cost model
    charges a single estimation run (the blocks execute in superposition).
    """
    psi = _require_real(state.amplitudes, "input state")
    dim = psi.size
    index_qubits = int(math.log2(dim))
    _check_accuracy(eps)
    t = _resolve_phase_bits(None, eps)
    frac = t
    width = frac + 2
    labels = np.arange(1 << t)
    svals = swap_value(labels, t)
    codes = np.array([encode_fixed(float(f(float(v))), frac, width) for v in svals])

    # the swap test of psi against |j> reads s = psi[j]; one estimation run
    # on the full register is charged for all j
    _check_phase_budget(t + 1 + index_qubits)
    if ledger is not None:
        ledger.charge_phase_estimation(t)
    amps = np.zeros((dim, 1 << width), dtype=complex)
    support = np.flatnonzero(np.abs(psi.real) >= 1e-14)
    for rows, probs in _swap_plane_probabilities(psi.real[support], t):
        # with an even tag the phase machinery uncomputes exactly per bin;
        # the per-bin branch amplitude is the label mass landing in the bin
        np.add.at(amps, (support[rows, None], codes), probs)
    amps[support] *= psi.real[support, None]
    total = float(np.sum(np.abs(amps) ** 2))
    if total <= 0:
        raise ValueError("input state has no support")
    if ledger is not None:
        ledger.charge_oracle(1)
        ledger.record_postselect(total)
    amps /= math.sqrt(total)
    layout = (("index", index_qubits), ("tag", width))
    return _owned(layout, amps.reshape(-1))


def discard_tag_fidelity(state: Statevector, reference: Statevector) -> float:
    """Fidelity sqrt(<ref| rho |ref>) of the state after tracing out the
    "tag" register, against a pure reference on the remaining registers.
    Kept, with control_pair_state, as the test reference for
    generalized_swap_test."""
    axis = state.register_index("tag")
    tens = np.moveaxis(state.reshaped(), axis, 0)
    rest = tens.reshape(tens.shape[0], -1)
    overlaps = rest @ reference.amplitudes.conj()
    return float(math.sqrt(np.sum(np.abs(overlaps) ** 2)))
