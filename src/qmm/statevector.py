"""Multi-register statevectors with exact postselection and cost accounting.

States are dense complex amplitude vectors over a named register layout.
Measurement is replaced by exact-probability postselection, so every
downstream quantity is deterministic and nothing is sampled. Run costs (oracle calls, controlled powers,
amplification rounds) are tracked in a CostLedger instead of being unrolled.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

DEFAULT_MAX_QUBITS = 24

NORM_TOL = 1e-10
UNITARY_TOL = 1e-10


def max_qubits() -> int:
    """Total-qubit budget for any single state; QMM_MAX_QUBITS overrides."""
    return int(os.environ.get("QMM_MAX_QUBITS", DEFAULT_MAX_QUBITS))


@dataclass
class CostLedger:
    """Counters standing in for run-time claims of the simulated algorithms.

    oracle_calls counts plain applications of input-state-preparation
    unitaries (one unit per T_in). controlled_oracle_calls counts controlled
    applications charged by phase estimation. Amplification is charged as
    ceil(1/sqrt(p)) rounds rather than unrolled. gate_units holds gate-count
    models for synthesized unitaries; classical_entries counts classical
    precomputation (matrix entries touched).
    """

    oracle_calls: int = 0
    controlled_oracle_calls: int = 0
    phase_bits_used: int = 0
    amplification_rounds: int = 0
    postselect_probability: float = 1.0
    classical_entries: int = 0
    gate_units: float = 0.0

    def charge_oracle(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("oracle charge must be nonnegative")
        self.oracle_calls += n

    def charge_controlled(self, n: int) -> None:
        if n < 0:
            raise ValueError("controlled charge must be nonnegative")
        self.controlled_oracle_calls += n

    def use_phase_bits(self, t: int) -> None:
        # counters are monotone within a run; keep the widest register seen
        self.phase_bits_used = max(self.phase_bits_used, t)

    def record_postselect(self, p: float) -> None:
        if not 0.0 < p <= 1.0 + 1e-12:
            raise ValueError(f"postselect probability {p} outside (0, 1]")
        self.postselect_probability *= min(p, 1.0)

    def total_oracle_units(self) -> int:
        return self.oracle_calls + self.controlled_oracle_calls

    def merge(self, other: "CostLedger") -> None:
        self.oracle_calls += other.oracle_calls
        self.controlled_oracle_calls += other.controlled_oracle_calls
        self.phase_bits_used = max(self.phase_bits_used, other.phase_bits_used)
        self.amplification_rounds += other.amplification_rounds
        self.postselect_probability *= other.postselect_probability
        self.classical_entries += other.classical_entries
        self.gate_units += other.gate_units

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def charge_amplification(ledger: CostLedger, p: float) -> int:
    """Charge amplitude amplification for a branch of probability p.

    Cost model: ceil(1/sqrt(p)) repetitions of the underlying circuit.
    The pi/4 constant of a true Grover schedule is not asserted; see
    grover_amplify for an unrolled cross-check.
    """
    if p <= 0:
        raise ValueError("success probability must be positive")
    rounds = math.ceil(1.0 / math.sqrt(min(p, 1.0)) - 1e-12)
    rounds = max(rounds, 1)
    ledger.amplification_rounds += rounds
    return rounds


@dataclass(frozen=True)
class Statevector:
    """A unit-norm amplitude vector over an ordered multi-register layout.

    layout is a tuple of (register name, qubit count); the first register is
    the most significant block of the basis index. Instances are immutable.
    """

    layout: tuple[tuple[str, int], ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        layout = tuple((str(n), int(q)) for n, q in self.layout)
        object.__setattr__(self, "layout", layout)
        names = [n for n, _ in layout]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in layout {names}")
        for name, q in layout:
            if q < 0:
                raise ValueError(f"register {name!r} has negative size")
        total = sum(q for _, q in layout)
        if total > max_qubits():
            raise ValueError(
                f"layout needs {total} qubits, over the budget of {max_qubits()} "
                f"(set QMM_MAX_QUBITS to raise it)"
            )
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size != 1 << total:
            raise ValueError(
                f"{amps.size} amplitudes for a {total}-qubit layout "
                f"(expected {1 << total})"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("non-finite amplitude")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def total_qubits(self) -> int:
        return sum(q for _, q in self.layout)

    def register_names(self) -> list[str]:
        return [n for n, _ in self.layout]

    def register_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.layout):
            if n == name:
                return i
        raise KeyError(f"no register named {name!r} in {self.register_names()}")

    def register_size(self, name: str) -> int:
        return self.layout[self.register_index(name)][1]

    def register_dim(self, name: str) -> int:
        return 1 << self.register_size(name)

    def tensor_shape(self) -> tuple[int, ...]:
        return tuple(1 << q for _, q in self.layout)

    def reshaped(self) -> np.ndarray:
        return self.amplitudes.reshape(self.tensor_shape())


def from_vector(name: str, values, *, pad: bool = True) -> Statevector:
    """Amplitude-encode a vector on a single register, zero-padding to a
    power-of-two dimension and normalizing."""
    vec = np.asarray(values, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("cannot encode the zero vector as a state")
    vec = vec / norm
    qubits = max(1, math.ceil(math.log2(vec.size))) if pad else int(math.log2(vec.size))
    dim = 1 << qubits
    if vec.size > dim:
        raise ValueError("dimension is not a power of two and padding is off")
    out = np.zeros(dim, dtype=complex)
    out[: vec.size] = vec
    return Statevector(((name, qubits),), out)


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
    return Statevector(layout, amps.reshape(-1))


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
    return Statevector(s.layout, tens.reshape(-1))


def tensor(a: Statevector, b: Statevector) -> Statevector:
    """Tensor product; register names must not collide."""
    overlap = set(a.register_names()) & set(b.register_names())
    if overlap:
        raise ValueError(f"register name collision: {sorted(overlap)}")
    amps = np.outer(a.amplitudes, b.amplitudes).reshape(-1)
    return Statevector(a.layout + b.layout, amps)


@dataclass(frozen=True)
class PreparedState:
    """A state together with the exact probability of the postselected
    branch it came from, and the costs charged to produce it."""

    state: Statevector
    success_probability: float
    ledger: CostLedger


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
    state = Statevector(new_layout, branch.reshape(-1) / math.sqrt(prob))
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


def aligned_distance(a: Statevector, b: Statevector) -> float:
    """2-norm distance minimized over a global phase, ||a - e^(i phi) b||
    with e^(i phi) = <b|a>/|<b|a>|. Computed directly: the equal value
    sqrt(2 - 2|<a|b>|) cancels when the states nearly agree."""
    if a.layout != b.layout:
        raise ValueError(f"layout mismatch: {a.layout} vs {b.layout}")
    overlap = np.vdot(b.amplitudes, a.amplitudes)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(np.linalg.norm(a.amplitudes - phase * b.amplitudes))


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
