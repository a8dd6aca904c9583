"""The paper's circuits, simulated gate by gate on dense registers.

This module holds the quantum-data subroutines: the generalized swap test
(contribution 1) and the generalized singular-value estimation
(contribution 2), the phase estimation, Grover rotation and even-function
tagging they are built from, and the dense Statevector gates they act
with. They produce registers and states, not reported numbers.

qmm has two layers. The production layer (harness, matmul, readout,
swaptest, stateprep, qpe, statevector, linalg, io, cli) computes every
reported number from closed forms and per-block kernels, and never imports
this module. This module imports from that layer, never the reverse; the
demos, the tests and the public API call it, and the tests use it as the
gate-level reference the production kernels are checked against.

Phase-register conventions. A t-bit phase register holds labels y in
Z_{2^t}; label y stands for eigenphase 2*pi*y/2^t, so a rotation angle theta
sits at y = theta * 2^t / (2*pi) and its negative partner wraps to 2^t - y.
The phase grid resolution in the half-angle convention is pi/2^t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, compute_svd, pad_dim, pad_matrix
from .matmul import (
    _fejer_blocks,
    _mirrored,
    _mu_phases,
    _qpe_rows,
    _resolve_phase_bits,
    _swap_plane_probabilities,
    _walk_angles,
)
from .qpe import _check_phase_budget, swap_value
from .statevector import NORM_TOL, CostLedger, PreparedState, Statevector, _owned, from_vector
from .swaptest import _amplitude_pair, _check_accuracy, _require_real

UNITARY_TOL = 1e-10
PHASE_REGISTER = "phase"


# ---------------------------------------------------------------------------
# dense register gates

def basis_state(layout, indices) -> Statevector:
    """Computational basis state; indices maps register name to basis index."""
    layout = tuple((str(n), int(q)) for n, q in layout)
    shape = tuple(1 << q for _, q in layout)
    amps = np.zeros(shape, dtype=complex)
    pos = tuple(int(indices.get(n, 0)) for n, _ in layout)
    for (n, _), p, d in zip(layout, pos, shape):
        if not 0 <= p < d:
            raise ValueError(f"index {p} out of range for register {n!r}")
    amps[pos] = 1.0
    return _owned(layout, amps.reshape(-1))


def apply_unitary(s: Statevector, u: np.ndarray, targets) -> Statevector:
    """Apply a unitary to the named target registers, leaving others alone.

    u must act on the combined target space, ordered as listed in targets.
    """
    if isinstance(targets, str):
        targets = [targets]
    targets = list(targets)
    u = np.asarray(u, dtype=complex)
    axes = [s.register_index(name) for name in targets]
    dims = [1 << s.layout[a][1] for a in axes]
    dt = int(np.prod(dims))
    if u.shape != (dt, dt):
        raise ValueError(f"operator is {u.shape}, targets span dimension {dt}")
    err = np.max(np.abs(u.conj().T @ u - np.eye(dt)))
    if err > UNITARY_TOL:
        raise ValueError(f"operator is not unitary (deviation {err:.2e})")
    tens = s.reshaped()
    moved = np.moveaxis(tens, axes, range(len(axes)))
    kept = moved.shape[len(axes):]
    mat = moved.reshape(dt, -1)
    mat = u @ mat
    moved = mat.reshape(tuple(dims) + kept)
    tens = np.moveaxis(moved, range(len(axes)), axes)
    return _owned(s.layout, tens.reshape(-1))


def tensor(a: Statevector, b: Statevector) -> Statevector:
    """Tensor product; register names must not collide."""
    overlap = set(a.register_names()) & set(b.register_names())
    if overlap:
        raise ValueError(f"register name collision: {sorted(overlap)}")
    amps = np.outer(a.amplitudes, b.amplitudes).reshape(-1)
    return _owned(a.layout + b.layout, amps)


def postselect(
    s: Statevector, register: str, outcome: int, ledger: CostLedger | None = None
) -> PreparedState:
    """Project onto a basis outcome of one register and renormalize.

    The measured register is removed from the layout. The success
    probability is the exact squared norm of the surviving branch.
    """
    axis = s.register_index(register)
    dim = 1 << s.layout[axis][1]
    if not 0 <= outcome < dim:
        raise ValueError(f"outcome {outcome} out of range for {register!r}")
    tens = s.reshaped()
    branch = np.take(tens, outcome, axis=axis)
    prob = float(np.sum(np.abs(branch) ** 2))
    if prob <= NORM_TOL**2:
        raise ValueError(f"outcome {outcome} of {register!r} has zero probability")
    new_layout = s.layout[:axis] + s.layout[axis + 1 :]
    state = _owned(new_layout, branch.reshape(-1) / math.sqrt(prob))
    if ledger is None:
        ledger = CostLedger()
    ledger.record_postselect(prob)
    return PreparedState(state, prob, ledger)


def marginal_probabilities(s: Statevector, register: str) -> np.ndarray:
    """Exact outcome distribution of one register (others traced out)."""
    axis = s.register_index(register)
    probs = np.abs(s.reshaped()) ** 2
    other = tuple(i for i in range(len(s.layout)) if i != axis)
    return probs.sum(axis=other) if other else probs


def fidelity(a: Statevector, b: Statevector) -> float:
    """|<a|b>| for states on identical layouts."""
    if a.layout != b.layout:
        raise ValueError(f"layout mismatch: {a.layout} vs {b.layout}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def grover_amplify(s: Statevector, register: str, outcome: int) -> tuple[int, list[float]]:
    """Unrolled Grover amplification of one branch, for validating the
    ceil(1/sqrt(p)) charge model on small instances.

    Iterates G = (2|s><s| - I) R_good until the branch probability stops
    improving; returns the round count that first reaches the peak and the
    probability trace (index 0 is the unamplified probability).
    """
    axis = s.register_index(register)

    def good_prob(vec: np.ndarray) -> float:
        branch = np.take(vec.reshape(s.tensor_shape()), outcome, axis=axis)
        return float(np.sum(np.abs(branch) ** 2))

    psi0 = s.amplitudes.copy()
    vec = psi0.copy()
    mask = np.zeros(s.tensor_shape(), dtype=bool)
    idx = [slice(None)] * len(s.layout)
    idx[axis] = outcome
    mask[tuple(idx)] = True
    mask = mask.reshape(-1)

    trace = [good_prob(vec)]
    best_round, best_p = 0, trace[0]
    for k in range(1, 10001):  # the peak comes after about pi/(4 sqrt(p)) rounds
        vec = np.where(mask, -vec, vec)           # reflect about the bad subspace
        vec = 2.0 * np.vdot(psi0, vec) * psi0 - vec  # reflect about the start state
        p = good_prob(vec)
        trace.append(p)
        if p > best_p + 1e-15:
            best_round, best_p = k, p
        else:
            break
    return best_round, trace


# ---------------------------------------------------------------------------
# amplitude-encoded norm marginals

def row_marginal_state(a) -> Statevector:
    """Unit state whose amplitudes are the row norms over ||A||_F."""
    a = as_matrix(a)
    norms = np.linalg.norm(a, axis=1)
    if not norms.any():
        raise ValueError("cannot encode marginals of the zero matrix")
    return from_vector("row", norms)


def col_marginal_state(a) -> Statevector:
    """Unit state whose amplitudes are the column norms over ||A||_F."""
    a = as_matrix(a)
    norms = np.linalg.norm(a, axis=0)
    if not norms.any():
        raise ValueError("cannot encode marginals of the zero matrix")
    return from_vector("col", norms)


def pipeline_initial_state(a, b) -> Statevector:
    """Tensor of A's row-norm marginal and B's column-norm marginal, the
    initial state of the swap-test multiplication pipeline; demo 01 shows it."""
    return tensor(row_marginal_state(a), col_marginal_state(b))


# ---------------------------------------------------------------------------
# fixed-point value registers

def encode_fixed(value: float, frac_bits: int, width: int) -> int:
    """Two's-complement fixed-point encoding with round-half-to-even."""
    scaled = value * (1 << frac_bits)
    code = round(scaled)  # banker's rounding
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if not lo <= code <= hi:
        raise ValueError(
            f"value {value} does not fit in {width} bits with {frac_bits} fractional bits"
        )
    return code & ((1 << width) - 1)


def decode_fixed(code: int, frac_bits: int, width: int) -> float:
    half = 1 << (width - 1)
    signed = ((code + half) & ((1 << width) - 1)) - half
    return signed / (1 << frac_bits)


def wrap_even(f, t: int) -> bool:
    """Check f(y) == f(2^t - y) over the wrap-around encoding."""
    T = 1 << t
    y = np.arange(T)
    vals = np.asarray([f(int(v)) for v in y], dtype=float)
    mirrored = vals[(-y) % T]
    scale = max(1.0, float(np.max(np.abs(vals))))
    return bool(np.max(np.abs(vals - mirrored)) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# phase estimation, Grover rotation and even-function tagging

def grover_rotation(phi: Statevector) -> np.ndarray:
    """G = (2|phi><phi| - I)(Z x I) for a state whose leading register is a
    single qubit, with Z|0> = -|0>, Z|1> = |1>.

    On the plane spanned by the two branch states of
    phi = sin(theta)|0>|u> + cos(theta)|1>|v>, G rotates by 2*theta, so its
    eigenphases there are +-2*theta.
    """
    if not phi.layout or phi.layout[0][1] != 1:
        raise ValueError("leading register must be a single qubit")
    v = phi.amplitudes
    half = v.size // 2
    zdiag = np.concatenate([-np.ones(half), np.ones(half)])
    reflect = 2.0 * np.outer(v, v.conj()) - np.eye(v.size)
    return reflect * zdiag  # right-multiply by diag(zdiag)


def phase_estimate(
    u: np.ndarray,
    s: Statevector,
    t: int,
    ledger: CostLedger | None = None,
) -> Statevector:
    """Textbook phase estimation of u acting on the whole of s, t >= 1.

    Prepends a t-qubit register in |0..0>, Hadamards it, applies the
    controlled powers u^(2^k) (computed by repeated squaring), then the
    inverse Fourier transform on the new register: the rows of
    matmul._qpe_rows on the layout (phase, *s.layout). Charges 2^t - 1
    controlled applications of u; s is not mutated.
    """
    if t < 1:
        raise ValueError("phase register needs at least one bit")
    u = np.asarray(u, dtype=complex)
    dim = s.amplitudes.size
    if u.shape != (dim, dim):
        raise ValueError(f"operator is {u.shape}, state dimension is {dim}")
    err = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    if err > UNITARY_TOL:
        raise ValueError(f"operator is not unitary (deviation {err:.2e})")
    _check_phase_budget(t + s.total_qubits)
    rows = _qpe_rows(u, s.amplitudes, t)
    if ledger is not None:
        ledger.charge_phase_estimation(t)
    return _owned(((PHASE_REGISTER, t),) + s.layout, rows.reshape(-1))


def invert_phase_estimate(s: Statevector, u: np.ndarray) -> Statevector:
    """Exact inverse of phase_estimate: Fourier transform on the phase
    register, inverse controlled powers, then Hadamards. The phase register
    stays in the layout; on a clean round trip it returns to |0..0>."""
    idx = s.register_index(PHASE_REGISTER)
    if idx != 0:
        raise ValueError("phase register must be the leading register")
    t = s.layout[0][1]
    rows = s.amplitudes.reshape(1 << t, -1)
    rows = _unnormalized_invert(rows, np.asarray(u, dtype=complex), t)
    return _owned(s.layout, rows.reshape(-1))


def _inverse_powers(rows: np.ndarray, u: np.ndarray, t: int) -> np.ndarray:
    """Apply controlled-(u^dag)^(2^k) for each phase bit k to rows of shape
    (2^t, system_dim), indexed by label, in place: one masked product per
    bit, powers by repeated squaring."""
    p = u.conj().T.copy()
    labels = np.arange(1 << t)
    for k in range(t):
        mask = (labels >> k) & 1 == 1
        rows[mask] = rows[mask] @ p.T
        if k + 1 < t:
            p = p @ p
    return rows


def _unnormalized_invert(rows: np.ndarray, u: np.ndarray, t: int) -> np.ndarray:
    """invert_phase_estimate on raw (possibly unnormalized) row data."""
    T = 1 << t
    work = np.fft.ifft(rows, axis=0) * math.sqrt(T)
    work = _inverse_powers(work, u, t)
    # Hadamard transform on the phase register (bit-order symmetric)
    h = 1
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    while h < T:
        for i in range(0, T, 2 * h):
            top = work[i : i + h].copy()
            bot = work[i + h : i + 2 * h]
            work[i : i + h] = (top + bot) * inv_sqrt2
            work[i + h : i + 2 * h] = (top - bot) * inv_sqrt2
        h *= 2
    return work


def tag_even_function(
    s: Statevector,
    f,
    u: np.ndarray,
    *,
    tag_frac_bits: int | None = None,
    ledger: CostLedger | None = None,
) -> Statevector:
    """Write f(phase label) into a fresh "tag" register, then uncompute the phase
    estimation that produced s (undo with the same u) and postselect the
    phase register back on |0..0>.

    f must be even over the wrap-around label encoding, f(y) = f(2^t - y);
    otherwise the sign ambiguity of the paired labels would leak into the
    output and the call is rejected. Tag values are stored fixed point with
    tag_frac_bits fractional bits (default: the phase width) plus sign and
    integer bits. The returned layout is (tag, *rest); the phase register is
    gone and its residual mass is recorded on the ledger as a postselection.
    """
    if not s.layout or s.layout[0][0] != PHASE_REGISTER:
        raise ValueError("expected a state produced by phase_estimate")
    t = s.layout[0][1]
    T = 1 << t
    if not wrap_even(f, t):
        raise ValueError(
            "tag function is not even over the wrap-around encoding; "
            "the paired +-phase labels would decode inconsistently"
        )
    frac = t if tag_frac_bits is None else int(tag_frac_bits)
    width = frac + 2
    codes = np.array([encode_fixed(float(f(int(y))), frac, width) for y in range(T)])

    u = np.asarray(u, dtype=complex)
    rows = s.amplitudes.reshape(T, -1)
    rest_dim = rows.shape[1]
    out = np.zeros((1 << width, rest_dim), dtype=complex)
    for code in np.unique(codes):
        masked = np.where((codes == code)[:, None], rows, 0.0)
        undone = _unnormalized_invert(masked, u, t)
        out[code] = undone[0]  # phase register back at |0..0>
    prob = float(np.sum(np.abs(out) ** 2))
    if prob <= 1e-20:
        raise ValueError("uncomputation left no mass on the zero phase label")
    out /= math.sqrt(prob)
    if ledger is not None:
        ledger.record_postselect(prob)
    layout = (("tag", width),) + s.layout[1:]
    return _owned(layout, out.reshape(-1))


def rotation_block_unitary(values: np.ndarray) -> np.ndarray:
    """Block-diagonal unitary rotating a fresh ancilla by each encoded value:
    |v>|0> -> |v>(val|0> + sqrt(1-val^2)|1>). Requires |val| <= 1.

    The pipelines apply this rotation in closed form; the dense block
    simulations in the tests apply the unitary itself."""
    values = np.asarray(values, dtype=float)
    if np.any(np.abs(values) > 1.0 + 1e-12):
        raise ValueError("rotation values must have magnitude at most 1")
    values = np.clip(values, -1.0, 1.0)
    comp = np.sqrt(1.0 - values**2)
    dim = values.size * 2
    u = np.zeros((dim, dim))
    for i, (v, c) in enumerate(zip(values, comp)):
        u[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[v, -c], [c, v]]
    return u


# ---------------------------------------------------------------------------
# generalized swap test (contribution 1)

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


# ---------------------------------------------------------------------------
# generalized singular-value estimation (contribution 2)

@dataclass(frozen=True)
class SVEOperators:
    """Row isometry M|i> = |i>|A_i.>, column isometry N|j> = |A_F.>|j>, and
    the walk W = (2MM^dag - I)(2NN^dag - I). M^dag N = A/||A||_F."""

    iso_m: np.ndarray
    iso_n: np.ndarray
    walk: np.ndarray
    frobenius: float

    @classmethod
    def from_matrix(cls, a) -> "SVEOperators":
        a = as_matrix(a)
        ap = pad_matrix(a)
        rows, cols = ap.shape
        frob = float(np.linalg.norm(ap))
        if frob == 0:
            raise ValueError("zero matrix has no walk operator")
        row_norms = np.linalg.norm(ap, axis=1)
        m = np.zeros((rows * cols, rows), dtype=complex)
        for i in range(rows):
            if row_norms[i] > 0:
                m[i * cols : (i + 1) * cols, i] = ap[i] / row_norms[i]
            else:
                m[i * cols, i] = 1.0  # zero row: conditional state pinned to |0>
        marg = row_norms / frob
        n = np.zeros((rows * cols, cols), dtype=complex)
        for j in range(cols):
            n[j::cols, j] = marg
        eye = np.eye(rows * cols)
        walk = (2.0 * m @ m.conj().T - eye) @ (2.0 * n @ n.conj().T - eye)
        return cls(iso_m=m, iso_n=n, walk=walk, frobenius=frob)

    def plane_basis(self, u_vec: np.ndarray, v_vec: np.ndarray) -> np.ndarray:
        """Orthonormal basis of span{M u, N v} (one or two columns)."""
        b1 = self.iso_m @ u_vec
        b2 = self.iso_n @ v_vec
        b2 = b2 - (b1.conj() @ b2) * b1
        norm2 = np.linalg.norm(b2)
        if norm2 < 1e-9:
            return b1[:, None]
        return np.stack([b1, b2 / norm2], axis=1)


def walk_plane_eigenphases(ops: SVEOperators, u_vec, v_vec) -> np.ndarray:
    """Eigenphase magnitudes of the walk restricted to one invariant plane.
    Kept for acceptance criterion 1, the walk spectral identity
    cos(theta/2) = sigma/||A||_F."""
    basis = ops.plane_basis(np.asarray(u_vec, complex), np.asarray(v_vec, complex))
    block = basis.conj().T @ ops.walk @ basis
    vals = np.linalg.eigvals(block)
    return np.sort(np.abs(np.angle(vals)))


def sve_transform(
    a,
    input_state,
    eps: float | None = None,
    phase_bits: int | None = None,
) -> Statevector:
    """Rotate right-singular components into left-singular components while
    writing the singular value into a register:
    sum_k alpha_k |v_k> -> sum_k alpha_k |u_k> |sigma~_k>, with
    |sigma~_k - sigma_k| <= eps * ||A||_F per component.

    The register stores sigma~/||A||_F unsigned fixed point with phase_bits
    fractional bits; output layout is ("out", "sigma").
    """
    a = as_matrix(a, allow_complex=False)
    frob = float(np.linalg.norm(a))
    if frob == 0:
        raise ValueError("zero matrix has no singular-value transform")
    d = pad_dim(max(a.shape))
    ap = pad_matrix(a, d, d)
    bundle = compute_svd(ap)  # square, so all d singular values
    given = input_state.amplitudes if isinstance(input_state, Statevector) else np.asarray(input_state).reshape(-1)
    vec = np.zeros(d, dtype=complex)
    vec[: given.size] = given
    vec /= np.linalg.norm(vec)
    alphas = bundle.right_vectors.conj().T @ vec
    t = _resolve_phase_bits(phase_bits, eps)
    T = 1 << t
    live = np.flatnonzero(np.abs(alphas) >= 1e-14)
    sigmas = bundle.sigmas[live]
    # each live triple k adds alpha_k |u_k> (x) profile_k, the register profile
    # of its labels binned by the code they write
    lifted = bundle.left_vectors[:, live] * alphas[live][None, :]
    amps = np.zeros((d, T), dtype=complex)
    codes = np.minimum(np.round(np.abs(np.cos(np.pi * np.arange(T) / T)) * T), T - 1).astype(int)
    theta = _walk_angles(sigmas, frob)
    mu = _mu_phases(t)
    for rows, f in _fejer_blocks(theta, t):
        # per-label amplitude on M|u_k>: matmul._walk_components before the weights
        turn = np.exp(0.5j * theta[rows])[:, None]
        labels = 0.5 * mu * (turn * f + turn.conj() * _mirrored(f, axis=1))
        prof = np.zeros(labels.shape, dtype=complex)
        np.add.at(prof, (slice(None), codes), labels)
        amps += lifted[:, rows] @ prof
    total = float(np.sum(np.abs(amps) ** 2))
    if total <= 0:
        raise ValueError("no surviving amplitude")
    layout = (("out", int(math.log2(d))), ("sigma", t))
    return _owned(layout, (amps / math.sqrt(total)).reshape(-1))


def sigma_register_decode(code: int, phase_bits: int, frob: float) -> float:
    """Invert the singular-value register encoding of sve_transform; kept as
    the inverse its tests read that register with."""
    return code / (1 << phase_bits) * frob
