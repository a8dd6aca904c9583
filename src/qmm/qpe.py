"""Phase estimation and the machinery built directly on top of it: the
Grover rotation whose eigenphases encode branch amplitudes, coherent
tagging by even functions of the phase label, and the block unitary that
rotates an ancilla by register-encoded values.

Conventions. A t-bit phase register holds labels y in Z_{2^t}; label y
stands for eigenphase 2*pi*y/2^t, so a rotation angle theta sits at
y = theta * 2^t / (2*pi) and its negative partner wraps to 2^t - y. The
phase grid resolution in the half-angle convention is pi/2^t.
"""
from __future__ import annotations

import math

import numpy as np

from .statevector import CostLedger, Statevector, _owned, max_qubits

PHASE_REGISTER = "phase"


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


def swap_value(y, t: int):
    """Branch-amplitude decode of a phase label: 2*sin^2(pi*y/2^t) - 1.
    Even under the wrap y -> 2^t - y, so both signed branches agree; it is
    evaluated on min(y, 2^t - y) so that they agree to the last bit."""
    T = 1 << t
    y = np.asarray(y)
    return 2.0 * np.sin(np.pi * np.minimum(y, T - y) / T) ** 2 - 1.0


def wrap_even(f, t: int) -> bool:
    """Check f(y) == f(2^t - y) over the wrap-around encoding."""
    T = 1 << t
    y = np.arange(T)
    vals = np.asarray([f(int(v)) for v in y], dtype=float)
    mirrored = vals[(-y) % T]
    scale = max(1.0, float(np.max(np.abs(vals))))
    return bool(np.max(np.abs(vals - mirrored)) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# Grover rotation

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


# ---------------------------------------------------------------------------
# phase estimation circuit

def _controlled_powers(rows: np.ndarray, u: np.ndarray, t: int, dagger: bool = False) -> np.ndarray:
    """Apply controlled-u^(2^k) for each phase bit k to rows indexed by label;
    powers come from repeated squaring.

    rows has shape (2^t, system_dim) and is updated in place, one masked
    product per bit. A forward estimation starts every label from the same
    row, so rows may instead be that start row, shape (..., 1, system_dim),
    with u of shape (..., system_dim, system_dim): a leading stack axis runs
    independent blocks side by side. The labels are then filled by doubling
    into a new (..., system_dim, 2^t) array, label axis last so that each
    step is one (dim, dim) @ (dim, 2^k) product per block and the Fourier
    transform runs along contiguous memory: label y is u^(2^k) times label
    y - 2^k for the top bit k of y. That applies the same powers in the same
    order as the masked loop, with 2^t - 1 row products per block, and leaves
    the start rows unmodified."""
    p = np.swapaxes(u, -1, -2).conj().copy() if dagger else u.copy()
    if rows.shape[-2] == 1:
        out = np.empty(rows.shape[:-2] + (rows.shape[-1], 1 << t), dtype=np.result_type(rows, u))
        out[..., 0] = rows[..., 0, :]
        for k in range(t):
            h = 1 << k
            np.matmul(p, out[..., :h], out=out[..., h : 2 * h])
            if k + 1 < t:
                p = p @ p
        return out
    labels = np.arange(1 << t)
    for k in range(t):
        mask = (labels >> k) & 1 == 1
        rows[mask] = rows[mask] @ p.T
        if k + 1 < t:
            p = p @ p
    return rows


def _check_phase_budget(total: int) -> None:
    """Reject a phase estimation whose register, phase bits included, would
    exceed the QMM_MAX_QUBITS budget."""
    if total > max_qubits():
        raise ValueError(
            f"phase estimation needs {total} qubits, over the budget of {max_qubits()}"
        )


def phase_estimate(
    u: np.ndarray,
    s: Statevector,
    t: int,
    ledger: CostLedger | None = None,
) -> Statevector:
    """Textbook phase estimation of u acting on the whole of s, t >= 1.

    Prepends a t-qubit register in |0..0>, Hadamards it, applies the
    controlled powers u^(2^k) (computed by repeated squaring), then the
    inverse Fourier transform on the new register. Charges 2^t - 1
    controlled applications of u.

    After the Hadamards every label holds the same row s/sqrt(2^t), so
    only that (1, dim) start row is passed to the controlled powers, which
    fill the labels by doubling: the same powers in the same order as one
    masked product per bit, 2^t - 1 row products, and s is not mutated.
    """
    if t < 1:
        raise ValueError("phase register needs at least one bit")
    u = np.asarray(u, dtype=complex)
    dim = s.amplitudes.size
    if u.shape != (dim, dim):
        raise ValueError(f"operator is {u.shape}, state dimension is {dim}")
    err = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    if err > 1e-10:
        raise ValueError(f"operator is not unitary (deviation {err:.2e})")
    T = 1 << t
    layout = ((PHASE_REGISTER, t),) + s.layout
    _check_phase_budget(t + s.total_qubits)
    powers = _controlled_powers(s.amplitudes[None, :] / math.sqrt(T), u, t)
    rows = np.fft.fft(powers, axis=-1).T / math.sqrt(T)
    if ledger is not None:
        ledger.charge_phase_estimation(t)
    return _owned(layout, rows.reshape(-1))


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


# ---------------------------------------------------------------------------
# even-function tagging

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


def _unnormalized_invert(rows: np.ndarray, u: np.ndarray, t: int) -> np.ndarray:
    """invert_phase_estimate on raw (possibly unnormalized) row data."""
    T = 1 << t
    work = np.fft.ifft(rows, axis=0) * math.sqrt(T)
    work = _controlled_powers(work, u, t, dagger=True)
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


# ---------------------------------------------------------------------------
# value rotation

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
