"""Amplitude encoding of classical vectors: one generic synthesis route and
four structured routes built on diagonal-Hamiltonian evolution.

The core primitive evolves a base state under H = diag(f) for a short time
t, Hadamards the flag qubit, and postselects the sine branch:

    |1> sum_k b_k sin(f(k) t) |k>  ~  (1/sqrt(Z)) sum_k f(k) b_k |k>

valid while every |f(k) t| stays in the small-angle window. The distance to
the target is at most sqrt(kappa(f)/3) * eps1 where eps1 bounds |f(k) t|,
and the branch probability sits between the squared window edges. The
structured routes decompose awkward vectors (large magnitude spread) into
pieces the primitive handles well, then recombine them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import pad_dim
from .statevector import (
    NORM_TOL,
    CostLedger,
    PreparedState,
    Result,
    Statevector,
    _owned,
    aligned_distance,
    charge_amplification,
    from_vector,
)

SYNTH_LOG_CONST = 2  # exponent in the generic gate-count model
PREP_DIRECT_BOUND = 1e-7  # the bound synthesize_direct reports; the route is exact


@dataclass(frozen=True)
class VectorSpec:
    """A real vector with its support and magnitude-spread data.
    kappa_x = max|x_k| / min nonzero |x_k| over the support."""

    values: np.ndarray
    support: np.ndarray
    max_abs: float
    min_abs_nonzero: float
    kappa_x: float

    @classmethod
    def from_values(cls, values) -> "VectorSpec":
        vals = np.asarray(values, dtype=float).reshape(-1)
        if vals.size == 0 or not np.all(np.isfinite(vals)):
            raise ValueError("expected a nonempty finite vector")
        support = np.flatnonzero(vals)
        if support.size == 0:
            raise ValueError("vector has empty support")
        mags = np.abs(vals[support])
        return cls(
            values=vals,
            support=support,
            max_abs=float(mags.max()),
            min_abs_nonzero=float(mags.min()),
            kappa_x=float(mags.max() / mags.min()),
        )


def _as_spec(x) -> VectorSpec:
    return x if isinstance(x, VectorSpec) else VectorSpec.from_values(x)


def synthesize_direct(x) -> Result:
    """Exact preparation through a synthesized unitary with U|0> = |x>.

    Always available. The unitary is charged, not built: the gate count
    follows the generic synthesis model n^2 (log n)^2 log^c(n^2 (log n)^2 /
    precision), which is what makes the structured routes below worth having.
    """
    spec = _as_spec(x)
    state = from_vector("x", spec.values)
    ledger = CostLedger()
    n = spec.values.size
    logn = max(math.log2(max(n, 2)), 1.0)
    gates = n**2 * logn**2
    ledger.gate_units += gates * max(math.log2(gates / 1e-12), 1.0) ** SYNTH_LOG_CONST
    ledger.charge_oracle(1)
    # the state is |x> itself: its distance to the target is 0, under the
    # fixed bound reports record for the route
    return Result(0.0, PREP_DIRECT_BOUND, ledger, state=state, success_probability=1.0)


def prep_hamiltonian(f, base: Statevector, eps: float) -> Result:
    """Reweight a base state by f: produce ~ (1/sqrt(Z)) sum f(k) b_k |k>.

    f must be nonzero wherever the base has weight. The evolution time is
    t = eps1/max|f| with eps1 = eps/sqrt(kappa(f)), so every angle f(k) t
    lies in [eps0, eps1] with eps0 = eps1/kappa(f); the sine-branch distance
    is then at most sqrt(kappa(f)/3) eps1. Amplification is charged at the
    worst-case ceil(1/eps0) rounds. The postselected sine branch is built
    directly, bit for bit as staging and postselecting the 2 dim flag state
    would give it; that circuit stays in the tests as the oracle.
    """
    return _measured(*_sine_branch(f, base, eps), _target(f, base))


def _on_base(f, base: Statevector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f zero-padded to the base's register, the base's amplitudes and their populated mask."""
    fvals, b = np.asarray(f, dtype=float).reshape(-1), base.amplitudes.real
    if fvals.size != b.size:
        fvals = np.concatenate([fvals, np.zeros(b.size - fvals.size)])
    return fvals, b, np.abs(b) > 1e-14


def _target(f, base: Statevector) -> np.ndarray:
    """The unnormalized target f b of the sine branch, zero off the base's support."""
    fvals, b, populated = _on_base(f, base)
    return np.where(populated, fvals * b, 0.0)


def _measured(piece: PreparedState, window: dict, target: np.ndarray) -> Result:
    """The Result of a small-angle piece: its window (bound, epsilon0,
    epsilon1, details) and its realized distance to the normalized target."""
    want = from_vector(piece.state.layout[0][0], target, pad=False)
    realized = float(np.linalg.norm(piece.state.amplitudes - want.amplitudes))
    return Result(realized, ledger=piece.ledger, state=piece.state, success_probability=piece.success_probability, **window)


def small_angle_bound(eps: float, kappa_f: float) -> float:
    """The sine-branch distance bound sqrt(kappa_f / 3) eps / sqrt(kappa_f) that
    _sine_branch reports and harness.verify_bounds recomputes from the instance."""
    return math.sqrt(kappa_f / 3.0) * (eps / math.sqrt(kappa_f))


def _sine_branch(f, base: Statevector, eps: float) -> tuple[PreparedState, dict]:
    """prep_hamiltonian's branch as a PreparedState and its window (the
    Result fields bound, epsilon0, epsilon1 and details)."""
    if len(base.layout) != 1:
        raise ValueError("base state must live on a single register")
    if np.max(np.abs(base.amplitudes.imag)) > 1e-12:
        raise ValueError("base state must be real")
    fvals, b, populated = _on_base(f, base)
    f_on = np.abs(fvals[populated])
    if np.any(f_on < 1e-300):
        raise ValueError("f vanishes on the support of the base state")
    if not 0.0 < eps < 1.0:
        raise ValueError("accuracy must lie in (0, 1): larger values would push "
                         "evolution angles out of the small-angle window")
    fmax, fmin = float(np.max(f_on)), float(np.min(f_on))
    del f_on  # half a vector, not held across the branch below
    kappa_f = fmax / fmin
    eps1 = eps / math.sqrt(kappa_f)
    t_evo = eps1 / fmax

    # the flag = 1 branch i sum_k b_k sin(f(k) t)|k> without its global i,
    # scaled by 1/sqrt(p) as numpy's complex division by sqrt(p) scales it
    v = b * np.sin(np.where(populated, fvals * t_evo, 0.0))
    v += 0.0  # -0.0 to +0.0 off the support, as the staged branch rounds it
    prob = float(np.sum(v * v))
    if prob <= NORM_TOL**2:
        raise ValueError("outcome 1 of 'flag' has zero probability")
    ledger = CostLedger()
    ledger.record_postselect(prob)
    produced = _owned(base.layout, v * (1.0 / math.sqrt(prob)))

    eps0_raw = fmin * t_evo  # = eps1 / kappa(f)
    # exact floor of the branch amplitude; backed off by one part in 1e9 so
    # the unit-norm tolerance of the base state cannot break the sandwich
    eps0 = math.sin(eps0_raw) * (1.0 - 1e-9)
    rounds = math.ceil(1.0 / eps0)
    ledger.amplification_rounds += rounds
    ledger.charge_oracle(rounds)  # each round reruns base prep + evolution
    ledger.gate_units += rounds  # one diagonal-evolution unit per pass

    window = {
        "bound": small_angle_bound(eps, kappa_f),
        "epsilon0": eps0,
        "epsilon1": eps1,
        "details": {"kappa_f": kappa_f, "evolution_time": t_evo, "rounds": rounds},
    }
    return PreparedState(produced, prob, ledger), window


def prep_sparse(x, eps: float, support_known: bool = True) -> Result:
    """Prepare |x> by reweighting the uniform state on the support of x.

    With the support known the base is uniform on the support alone; when it
    is not, the same circuit starts from the uniform state over everything
    and amplification pays an extra sqrt(n/z) factor.
    """
    spec = _as_spec(x)
    base = _support_base(spec, 1.0)
    (piece, window), target = _sparse(spec, eps, base), _target(spec.values, base)
    del base  # the target, half its size, is all _measured needs of it
    if not support_known:
        penalty = math.ceil(math.sqrt(spec.values.size / spec.support.size))
        piece.ledger.amplification_rounds *= penalty
        piece.ledger.oracle_calls *= penalty
    return _measured(piece, window, target)


def _base_gates(spec: VectorSpec) -> int:
    """The ceil(log2 n) gate units charged for a base or sign state on x's register."""
    return math.ceil(math.log2(max(spec.values.size, 2)))


def _support_base(spec: VectorSpec, values) -> Statevector:
    """The base state values/sqrt(z) on the z-point support of x: the
    uniform base of _sparse's pieces (values 1), the sign base of _prep_by_sign_base."""
    dim = max(pad_dim(spec.values.size), 2)  # from_vector's register: one qubit at least
    base = np.zeros(dim, dtype=complex)
    base[spec.support] = values / math.sqrt(spec.support.size)
    return _owned((("x", int(math.log2(dim))),), base)


def _sparse(spec: VectorSpec, eps: float, base: Statevector) -> tuple[PreparedState, dict]:
    """prep_sparse's piece and window on the uniform base of x's support, as
    _sine_branch returns them; prep_dyadic and prep_signshift prepare their
    pieces with it."""
    piece, window = _sine_branch(spec.values, base, eps)
    piece.ledger.gate_units += _base_gates(spec)
    return piece, window


def _prep_by_sign_base(x, eps: float) -> Result:
    """prep_hamiltonian with f = |x| over the sign state sum_k sign(x_k)|k>/sqrt(z)
    on the support of x: the harness's prep-hamiltonian method."""
    spec = _as_spec(x)
    base = _support_base(spec, np.sign(spec.values[spec.support]))
    result = prep_hamiltonian(np.abs(spec.values), base, eps)
    result.ledger.gate_units += _base_gates(spec)
    return result


def dyadic_bands(spec: VectorSpec) -> list[VectorSpec]:
    """Split x into magnitude bands [2^(j-1) m, 2^j m) over the smallest
    nonzero magnitude m; each band vector has magnitude spread at most 2 and
    the bands' values sum back to x exactly; each spec is read off its members."""
    mags = np.abs(spec.values[spec.support])
    idx = np.floor(np.log2(mags / spec.min_abs_nonzero)).astype(int)
    bands = []
    for j in np.flatnonzero(np.bincount(idx)):
        members = spec.support[idx == j]
        y = np.zeros_like(spec.values)
        y[members] = spec.values[members]
        band = np.abs(y[members])
        hi, lo = float(band.max()), float(band.min())
        bands.append(VectorSpec(y, members, hi, lo, hi / lo))
    return bands


def prep_dyadic(x, eps: float) -> Result:
    """Prepare |x> by splitting it into magnitude-doubling bands, preparing
    each nearly-uniform band, and recombining with weights ||y_j||/||x||."""
    spec = _as_spec(x)
    bands = dyadic_bands(spec)
    q = len(bands)
    norm_x = float(np.linalg.norm(spec.values))
    eps_band = eps / (2.0 * math.sqrt(q))
    weights = [float(np.linalg.norm(band.values)) / norm_x for band in bands]
    # one band state alive at a time
    combined = lcu_combine((_sparse(band, eps_band, _support_base(band, 1.0))[0] for band in bands), weights)
    # selection-unitary synthesis for the q combination weights
    logq = max(math.log2(max(q, 2)), 1.0)
    cq = q**2 * logq**2
    combined.ledger.gate_units += cq * max(math.log2(max(cq, 2.0) / eps), 1.0) ** SYNTH_LOG_CONST
    return _composite(spec, eps, combined, {"bands": q, "weights": weights})


def prep_signshift(x, eps: float) -> Result:
    """Prepare |x> as the combination (||z||/||x||)|z> - (||y||/||x||)|y>
    with y = M sign(x) on the support and z = x + y.

    M = max|x| gives z a magnitude spread of at most 2, so it is cheap for the
    small-angle route, and the sign state y is exact. The recombination is
    the two-state interference circuit; success probability
    ||x||^2 / (2(||y||^2 + ||z||^2)).
    """
    spec = _as_spec(x)
    m_val = spec.max_abs
    y = np.zeros_like(spec.values)
    y[spec.support] = np.where(spec.values[spec.support] > 0.0, m_val, -m_val)
    # z keeps the support of x; its magnitudes |x_k| + M run from M + min|x| to 2M
    spread = 2.0 * m_val / (m_val + spec.min_abs_nonzero)
    z = VectorSpec(spec.values + y, spec.support, 2.0 * m_val, m_val + spec.min_abs_nonzero, spread)
    norm_x = float(np.linalg.norm(spec.values))
    norm_y = float(np.linalg.norm(y))
    norm_z = float(np.linalg.norm(z.values))

    eps_z = eps * norm_x / (2.0 * norm_z)
    z_prep = _sparse(z, eps_z, _support_base(z, 1.0))[0]
    del z

    lam = norm_z / norm_x
    mu = norm_y / norm_x
    success = norm_x**2 / (2.0 * (norm_y**2 + norm_z**2))
    # lam |z> - mu |y>, the exact sign state built only once |z> is consumed
    combined = lam * z_prep.state.amplitudes
    layout, ledger = z_prep.state.layout, z_prep.ledger
    del z_prep
    combined -= mu * from_vector("x", y).amplitudes
    del y
    nrm = np.linalg.norm(combined)
    if nrm < 1e-14:
        raise ValueError("combination cancelled exactly")
    ledger.gate_units += _base_gates(spec)  # the sign state
    ledger.record_postselect(success)
    charge_amplification(ledger, success)
    combined /= nrm
    return _composite(spec, eps, PreparedState(_owned(layout, combined), success, ledger),
                      {"shift": m_val, "spread": spread})


def _composite(spec: VectorSpec, eps: float, combined: PreparedState, details: dict) -> Result:
    """The Result of prep_dyadic or prep_signshift: the combined state's
    distance to |x> up to a global phase, under the bound eps. The pieces
    have small-angle windows of their own; the composite reports 0.0."""
    realized = aligned_distance(combined.state, from_vector("x", spec.values))
    return Result(realized, eps, combined.ledger, state=combined.state,
                  success_probability=combined.success_probability, epsilon0=0.0, epsilon1=0.0, details=details)


def lcu_combine(states, weights) -> PreparedState:
    """Combine prepared states into one proportional to sum_i w_i |s_i>.

    Each state is a PreparedState or a Result, of which only state and
    ledger are read. states may be any iterable, a generator included: it
    is walked once, so only the combination and the current state need be
    alive. Success probability ||sum w_i s_i||^2 / (sum |w_i|)^2 (the
    select-based combination; the two-state interference case divides by
    2(w1^2+w2^2) instead and is what prep_signshift records)."""
    weights = np.asarray(weights, dtype=float).reshape(-1)
    states = iter(states)
    combined, layout, ledger, count = None, None, CostLedger(), 0
    for w, ps in zip(weights, states):
        if combined is None:
            layout, combined = ps.state.layout, np.zeros_like(ps.state.amplitudes)
        elif ps.state.layout != layout:
            raise ValueError("all states must share one register layout")
        combined += w * ps.state.amplitudes
        ledger.merge(ps.ledger)
        count += 1
    extra = next(states, None) is not None
    if count == 0 and not extra:
        raise ValueError("nothing to combine")
    if extra or count != weights.size:
        raise ValueError("one weight per state required")
    if not np.any(weights != 0.0):
        raise ValueError("weights must not all vanish")
    nrm = float(np.linalg.norm(combined))
    wsum = float(np.sum(np.abs(weights)))
    if nrm < 1e-12 * wsum:
        raise ValueError("combination cancelled exactly")
    success = (nrm / wsum) ** 2
    ledger.record_postselect(min(success, 1.0))
    charge_amplification(ledger, min(success, 1.0))
    return PreparedState(_owned(layout, combined / nrm), min(success, 1.0), ledger)
