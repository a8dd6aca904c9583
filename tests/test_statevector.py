import math

import numpy as np
import pytest

from qmm.circuits import (
    apply_unitary,
    basis_state,
    fidelity,
    grover_amplify,
    marginal_probabilities,
    postselect,
    tensor,
)
from qmm.statevector import (
    CostLedger,
    Statevector,
    aligned_distance,
    charge_amplification,
    from_vector,
)


def haar_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_apply_unitary_bit_flip():
    s = basis_state((("q", 1),), {"q": 0})
    x = np.array([[0, 1], [1, 0]])
    out = apply_unitary(s, x, ["q"])
    assert np.allclose(out.amplitudes, [0, 1])


def test_apply_unitary_identity_is_exact():
    s = from_vector("q", [3, 4])
    out = apply_unitary(s, np.eye(2), ["q"])
    assert np.array_equal(out.amplitudes, s.amplitudes)


def test_apply_unitary_matches_direct_product():
    # oracle: direct matrix-vector multiplication on the full space
    u = haar_unitary(4, seed=9)
    s = basis_state((("a", 1), ("b", 1)), {})
    out = apply_unitary(s, u, ["a", "b"])
    assert np.allclose(out.amplitudes, u @ s.amplitudes, atol=1e-14)


def test_apply_unitary_leaves_other_registers_alone():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    s = Statevector((("a", 1), ("b", 1), ("c", 1)), amps / np.linalg.norm(amps))
    u = haar_unitary(2, seed=3)
    out = apply_unitary(s, u, ["b"])
    direct = np.kron(np.kron(np.eye(2), u), np.eye(2)) @ s.amplitudes
    assert np.allclose(out.amplitudes, direct, atol=1e-14)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_apply_unitary_rejects_nonunitary():
    s = from_vector("q", [1, 0])
    with pytest.raises(ValueError, match="not unitary"):
        apply_unitary(s, np.array([[1.0, 0.0], [0.0, 2.0]]), ["q"])


def test_apply_unitary_rejects_wrong_dimension():
    s = from_vector("q", [1, 0])
    with pytest.raises(ValueError, match="dimension"):
        apply_unitary(s, np.eye(4), ["q"])


def test_tensor_basis_states():
    a = basis_state((("x", 1),), {"x": 0})
    b = basis_state((("y", 1),), {"y": 1})
    out = tensor(a, b)
    assert out.layout == (("x", 1), ("y", 1))
    assert np.allclose(out.amplitudes, [0, 1, 0, 0])


def test_tensor_plus_states_uniform():
    plus = from_vector("x", [1, 1])
    out = tensor(plus, from_vector("y", [1, 1]))
    assert np.allclose(out.amplitudes, 0.5)


def test_tensor_rejects_name_collision():
    with pytest.raises(ValueError, match="collision"):
        tensor(from_vector("x", [1, 0]), from_vector("x", [0, 1]))


def test_postselect_plus_state():
    plus = from_vector("q", [1, 1])
    ps = postselect(plus, "q", 0)
    assert abs(ps.success_probability - 0.5) < 1e-12
    assert ps.state.layout == ()
    assert np.allclose(ps.state.amplitudes, [1.0])


def test_postselect_certain_outcome():
    one = basis_state((("q", 1),), {"q": 1})
    ps = postselect(one, "q", 1)
    assert abs(ps.success_probability - 1.0) < 1e-12


def test_postselect_zero_probability_rejected():
    one = basis_state((("q", 1),), {"q": 1})
    with pytest.raises(ValueError, match="zero probability"):
        postselect(one, "q", 0)


def test_postselect_small_angle_preparation_branch():
    # flag-qubit sine branch of the diagonal-evolution preparation circuit,
    # probability checked against direct summation
    f = np.array([1.0, 2.0])
    t = 0.1
    b = np.array([1.0, 1.0]) / math.sqrt(2.0)
    amps = np.concatenate([b * np.cos(f * t), 1j * b * np.sin(f * t)])
    staged = Statevector((("flag", 1), ("k", 1)), amps)
    ps = postselect(staged, "flag", 1)
    direct = float(np.sum(b**2 * np.sin(f * t) ** 2))
    assert abs(ps.success_probability - direct) < 1e-12


def test_probability_completeness():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    s = Statevector((("a", 2), ("b", 2)), amps / np.linalg.norm(amps))
    total = sum(postselect(s, "a", o).success_probability for o in range(4))
    assert abs(total - 1.0) < 1e-10


def test_postselect_then_reinflate_recovers_state():
    rng = np.random.default_rng(13)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    s = Statevector((("a", 1), ("b", 2)), amps / np.linalg.norm(amps))
    rebuilt = np.zeros((2, 4), dtype=complex)
    for o in range(2):
        ps = postselect(s, "a", o)
        rebuilt[o] = math.sqrt(ps.success_probability) * ps.state.amplitudes
    assert np.allclose(rebuilt.reshape(-1), s.amplitudes, atol=1e-12)


def test_fidelity_and_distance():
    x = from_vector("q", [1, 0])
    assert abs(fidelity(x, x) - 1.0) < 1e-14
    y = from_vector("q", [0, 1])
    assert fidelity(x, y) < 1e-14
    plus = from_vector("q", [1, 1])
    assert abs(fidelity(plus, x) - 1 / math.sqrt(2)) < 1e-12
    assert abs(aligned_distance(x, x)) < 1e-7
    # distance ignores a global phase
    phased = Statevector(x.layout, 1j * x.amplitudes)
    assert aligned_distance(x, phased) < 1e-7


def test_aligned_distance_has_no_cancellation_floor():
    rng = np.random.default_rng(3)
    a = from_vector("q", rng.normal(size=16) + 1j * rng.normal(size=16))
    assert aligned_distance(a, a) == 0.0
    # b = e^(0.3i) (cos(d) a + sin(d) w) with w orthogonal to a lies at
    # distance 2 sin(d/2) from a once the global phase is removed
    w = rng.normal(size=16) + 1j * rng.normal(size=16)
    w -= np.vdot(a.amplitudes, w) * a.amplitudes
    w /= np.linalg.norm(w)
    d = 1e-9
    b = Statevector(a.layout, np.exp(0.3j) * (math.cos(d) * a.amplitudes + math.sin(d) * w))
    assert aligned_distance(a, b) == pytest.approx(2.0 * math.sin(d / 2.0), rel=1e-6)


def test_fidelity_rejects_layout_mismatch():
    with pytest.raises(ValueError, match="layout"):
        fidelity(from_vector("a", [1, 0]), from_vector("b", [1, 0]))


def test_charge_amplification_examples():
    led = CostLedger()
    assert charge_amplification(led, 1.0) == 1
    assert charge_amplification(led, 0.25) == 2
    # kappa = 10 regime: p = 1/kappa^2 costs kappa rounds
    assert charge_amplification(led, 0.01) == 10
    assert led.amplification_rounds == 13
    with pytest.raises(ValueError):
        charge_amplification(led, 0.0)


def test_ledger_counters_monotone_and_merge():
    led = CostLedger()
    led.charge_oracle(3)
    led.charge_controlled(7)
    led.use_phase_bits(5)
    led.record_postselect(0.5)
    other = CostLedger(oracle_calls=1, phase_bits_used=3)
    led.merge(other)
    assert led.oracle_calls == 4
    assert led.phase_bits_used == 5
    assert abs(led.postselect_probability - 0.5) < 1e-15
    with pytest.raises(ValueError):
        led.record_postselect(0.0)


def test_qubit_budget_enforced(monkeypatch):
    monkeypatch.setenv("QMM_MAX_QUBITS", "3")
    with pytest.raises(ValueError, match="budget"):
        Statevector((("a", 4),), np.eye(16)[0])
    monkeypatch.delenv("QMM_MAX_QUBITS")
    Statevector((("a", 4),), np.eye(16)[0])


def test_norm_validation():
    with pytest.raises(ValueError, match="norm"):
        Statevector((("a", 1),), np.array([1.0, 1.0]))


def test_grover_rounds_match_charge_model_within_pi_over_2():
    # 5-qubit instances: true Grover unrolling versus the ceil(1/sqrt(p))
    # charge; p small enough that round granularity does not dominate
    for p in (0.002, 0.005, 0.02):
        amps = np.full(32, math.sqrt((1 - p) / 31))
        amps[7] = math.sqrt(p)
        s = Statevector((("q", 5),), amps)
        rounds, trace = grover_amplify(s, "q", 7)
        assert trace[rounds] > 0.9
        led = CostLedger()
        charged = charge_amplification(led, p)
        ratio = charged / (rounds + 1)
        assert 2 / math.pi * 0.8 <= ratio <= math.pi / 2


def test_marginal_probabilities():
    s = from_vector("q", [1, 1])
    probs = marginal_probabilities(tensor(s, basis_state((("r", 1),), {})), "q")
    assert np.allclose(probs, [0.5, 0.5])


# ---------------------------------------------------------------------------
# ownership of the amplitude array


def test_public_constructor_and_from_vector_snapshot_their_input():
    arr = np.array([0.6, 0.8j])
    s = Statevector((("a", 1),), arr)
    for vals in (np.array([3.0, 4.0, 0.0]), np.array([3.0, 4.0j])):
        v = from_vector("x", vals)
        before = v.amplitudes.copy()
        vals[:] = 7.0
        assert np.array_equal(v.amplitudes, before)
    arr[0] = 5.0
    assert np.array_equal(s.amplitudes, [0.6, 0.8j])


def test_from_vector_keeps_errors_and_normalizes_in_one_array():
    with pytest.raises(ValueError, match="zero vector"):
        from_vector("x", [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="zero vector"):
        from_vector("x", [])
    with pytest.raises(ValueError, match="padding is off"):
        from_vector("x", [1.0, 2.0, 3.0], pad=False)
    # the normalization is the complex division of the unpadded values
    vals = np.random.default_rng(5).normal(size=11)
    want = np.asarray(vals, dtype=complex) / np.linalg.norm(np.asarray(vals, dtype=complex))
    got = from_vector("x", vals).amplitudes
    assert np.array_equal(got[:11].view(np.uint64), want.view(np.uint64))
    assert not np.any(got[11:])


def test_owned_amplitudes_are_read_only():
    u = haar_unitary(2, 3)
    base = from_vector("a", [1.0, 2.0])
    staged = tensor(base, basis_state((("b", 1),), {"b": 1}))
    states = [
        Statevector((("a", 1),), np.array([1.0, 0.0])),
        base,
        staged,
        basis_state((("a", 2),), {"a": 3}),
        apply_unitary(staged, u, ["b"]),
        postselect(staged, "b", 1).state,
    ]
    for s in states:
        assert not s.amplitudes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s.amplitudes[0] = 0.0
