"""Multi-register statevectors, postselected states, cost accounting and
the result type every method returns.

States are dense complex amplitude vectors over a named register layout.
Measurement is replaced by exact-probability postselection, so every
downstream quantity is deterministic and nothing is sampled. Run costs (oracle calls, controlled powers,
amplification rounds) are tracked in a CostLedger instead of being unrolled.
The dense gates that act on these states are in circuits.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

DEFAULT_MAX_QUBITS = 24

NORM_TOL = 1e-10


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

    def charge_phase_estimation(self, t: int, per_step: int = 1) -> None:
        """A t-bit phase estimation: 2^t - 1 controlled steps of per_step
        controlled calls each, on a t-bit register."""
        self.charge_controlled(per_step * ((1 << t) - 1))
        self.use_phase_bits(t)

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
    circuits.grover_amplify for an unrolled cross-check.
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
    the most significant block of the basis index. Instances are immutable and
    the amplitudes read-only: Statevector(layout, amps) copies amps, which
    the caller may still hold; _owned takes qmm's fresh arrays uncopied.
    """

    layout: tuple[tuple[str, int], ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        self._adopt(self.layout, np.array(self.amplitudes, dtype=complex))

    def _adopt(self, layout, amps: np.ndarray):
        layout = tuple((str(n), int(q)) for n, q in layout)
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
        amps = amps.reshape(-1)
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

    def tensor_shape(self) -> tuple[int, ...]:
        return tuple(1 << q for _, q in self.layout)

    def reshaped(self) -> np.ndarray:
        return self.amplitudes.reshape(self.tensor_shape())


def _owned(layout, amps) -> Statevector:
    """A Statevector over an array qmm has just built and holds nowhere else:
    checked like the public constructor and marked read-only, not copied."""
    s = object.__new__(Statevector)
    s._adopt(layout, np.asarray(amps, dtype=complex))
    return s


def from_vector(name: str, values, *, pad: bool = True) -> Statevector:
    """Amplitude-encode a vector on a single register, zero-padding to a
    power-of-two dimension and normalizing."""
    vals = np.asarray(values).reshape(-1)
    size = max(vals.size, 1)
    qubits = max(1, math.ceil(math.log2(size))) if pad else int(math.log2(size))
    if vals.size > 1 << qubits:
        raise ValueError("dimension is not a power of two and padding is off")
    out = np.zeros(1 << qubits, dtype=complex)
    vec = out[: vals.size]
    vec[:] = vals
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("cannot encode the zero vector as a state")
    vec /= norm
    return _owned(((name, qubits),), out)


@dataclass(frozen=True)
class PreparedState:
    """A state together with the exact probability of the postselected
    branch it came from, and the costs charged to produce it."""

    state: Statevector
    success_probability: float
    ledger: CostLedger


@dataclass(frozen=True)
class Result:
    """What every method returns: the realized error against the exact
    answer, the instance-evaluated bound it must stay under, and the costs
    charged. The other fields are set (not None) only by the families that
    have them: state, success_probability and details by the product and
    prep routes, c_tilde by the readouts, phase_bits and
    expected_success_probability by the products, and epsilon0 and
    epsilon1 by the prep routes but synthesize_direct (0.0 on the dyadic
    and sign-shift routes, which have no small-angle window of their own)."""

    realized_error: float
    bound: float
    ledger: CostLedger
    state: Statevector | None = None
    success_probability: float | None = None
    c_tilde: np.ndarray | None = None
    phase_bits: int | None = None
    expected_success_probability: float | None = None
    epsilon0: float | None = None
    epsilon1: float | None = None
    details: dict | None = None


def aligned_distance(a: Statevector, b: Statevector) -> float:
    """2-norm distance minimized over a global phase, ||a - e^(i phi) b||
    with e^(i phi) = <b|a>/|<b|a>|. Computed directly: the equal value
    sqrt(2 - 2|<a|b>|) cancels when the states nearly agree."""
    if a.layout != b.layout:
        raise ValueError(f"layout mismatch: {a.layout} vs {b.layout}")
    overlap = np.vdot(b.amplitudes, a.amplitudes)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(np.linalg.norm(a.amplitudes - phase * b.amplitudes))
