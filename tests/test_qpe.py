import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmm.matmul import MAX_PHASE_BITS, _qpe_rows, _resolve_phase_bits
from qmm.circuits import (
    _inverse_powers,
    apply_unitary,
    basis_state,
    coefficient_tag,
    complex_inner_product,
    decode_fixed,
    encode_fixed,
    fidelity,
    generalized_swap_test,
    grover_rotation,
    inner_product_estimate,
    invert_phase_estimate,
    marginal_probabilities,
    phase_estimate,
    postselect,
    rotation_block_unitary,
    superposed_pair_state,
    tag_even_function,
    tensor,
    wrap_even,
)
from qmm.qpe import _controlled_powers, swap_value
from qmm.statevector import CostLedger, Statevector, from_vector


def qpe_kernel(phase: float, t: int) -> np.ndarray:
    """Closed-form label distribution of phase estimation on an eigenstate
    with eigenphase `phase` (radians); the independent oracle for the exact
    circuit simulation."""
    T = 1 << t
    z = np.arange(T)
    delta = phase - 2 * np.pi * z / T
    amp = np.exp(1j * delta * (T - 1) / 2) * np.where(
        np.abs(np.angle(np.exp(1j * delta))) < 1e-12,
        1.0,
        np.sin(T * delta / 2) / (T * np.sin(delta / 2)),
    )
    return np.abs(amp) ** 2


# ---------------------------------------------------------------------------
# fixed point

def test_fixed_point_roundtrip():
    for frac, width in ((6, 8), (10, 12)):
        for v in (-1.0, -0.375, 0.0, 0.5, 0.999, 1.0):
            code = encode_fixed(v, frac, width)
            assert abs(decode_fixed(code, frac, width) - v) <= 2.0 ** (-frac - 1)


def test_fixed_point_rounds_half_to_even():
    assert encode_fixed(0.5 / 4, 2, 4) == encode_fixed(0.125, 2, 4)
    # 0.125 * 4 = 0.5 rounds to 0 (even), not 1
    assert decode_fixed(encode_fixed(0.125, 2, 4), 2, 4) == 0.0


def test_phase_width_rule():
    # an overlap register reads s on the pi/2^t grid with two guard bits
    assert _resolve_phase_bits(None, 2**-6) == math.ceil(math.log2(math.pi * 2**6)) + 2
    for eps in np.geomspace(0.999, 1.3e-5, 60):  # every width from 4 to MAX_PHASE_BITS
        assert _resolve_phase_bits(None, eps) == math.ceil(math.log2(math.pi / eps)) + 2
    with pytest.raises(ValueError, match=rf"would need a 21-bit phase register \(cap {MAX_PHASE_BITS}\)"):
        _resolve_phase_bits(None, 1e-5)
    # an explicit width lies in [2, MAX_PHASE_BITS]
    assert _resolve_phase_bits(2, None) == 2
    assert _resolve_phase_bits(MAX_PHASE_BITS, None) == MAX_PHASE_BITS
    for bad in (0, 1, MAX_PHASE_BITS + 1):
        with pytest.raises(ValueError, match=rf"phase_bits must lie in \[2, {MAX_PHASE_BITS}\]"):
            _resolve_phase_bits(bad, None)
    # an explicit width is an integer: numpy's too, but no float and no bool
    assert _resolve_phase_bits(np.int64(9), None) == _resolve_phase_bits(np.uint8(9), None) == 9
    for bad in (9.7, 9.0, np.float64(9.0), True, np.bool_(True)):
        with pytest.raises(ValueError, match="phase_bits must be an integer"):
            _resolve_phase_bits(bad, None)
    with pytest.raises(ValueError, match="at least one bit"):
        phase_estimate(np.eye(2), from_vector("q", [1, 0]), 0)
    # the public swap-test entry points take an accuracy in (0, 1)
    x = from_vector("x", [1.0, 0.0])
    calls = (
        lambda eps: inner_product_estimate(x, x, eps),
        lambda eps: complex_inner_product(x, x, eps),
        lambda eps: generalized_swap_test(x, x, lambda s: s, eps),
        lambda eps: coefficient_tag(x, lambda s: s, eps),
    )
    for call in calls:
        for eps in (0.0, -0.5, math.nan, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"lie in \(0, 1\)"):
                call(eps)


@pytest.mark.parametrize("t", range(1, 13))
def test_swap_value_is_exactly_even(t):
    # mirrored labels y and 2^t - y decode to the same float, and labels up
    # to 2^t / 2 keep the plain formula bit for bit
    T = 1 << t
    y = np.arange(T)
    vals = swap_value(y, t)
    assert np.array_equal(vals, vals[(-y) % T])
    low = y[: T // 2 + 1]
    assert np.array_equal(vals[: T // 2 + 1], 2.0 * np.sin(np.pi * low / T) ** 2 - 1.0)
    assert swap_value(T - 1, t) == vals[T - 1]


# ---------------------------------------------------------------------------
# Grover rotation

def _plane_phases(g, phi, theta):
    """Eigenphases of g restricted to the branch plane of phi."""
    half = phi.amplitudes.size // 2
    u = phi.amplitudes[:half]
    v = phi.amplitudes[half:]
    b1 = np.concatenate([u, np.zeros(half)])
    nu = np.linalg.norm(b1)
    b1 = b1 / nu if nu > 0 else None
    b2 = np.concatenate([np.zeros(half), v])
    nv = np.linalg.norm(b2)
    b2 = b2 / nv if nv > 0 else None
    basis = np.stack([b for b in (b1, b2) if b is not None], axis=1)
    block = basis.conj().T @ g @ basis
    return np.sort(np.angle(np.linalg.eigvals(block)))


def test_grover_rotation_quarter_angle():
    # theta = pi/4: eigenvalues +-i on the plane
    phi = superposed_pair_state(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    g = grover_rotation(phi)
    phases = _plane_phases(g, phi, math.pi / 4)
    assert np.allclose(phases, [-math.pi / 2, math.pi / 2], atol=1e-10)


def test_grover_rotation_degenerate_branch():
    # theta = 0: phi = |1>|v>, the plane collapses and G fixes it
    x = np.array([1.0, 0.0])
    phi = superposed_pair_state(x, -x)  # |0> branch vanishes
    g = grover_rotation(phi)
    assert np.linalg.norm(g @ phi.amplitudes - phi.amplitudes) < 1e-10


def test_grover_rotation_random_plane_angles():
    # oracle: dense eigensolver on the plane vs 2*arcsin(|0>-branch norm)
    rng = np.random.default_rng(13)
    amps = rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    phi = Statevector((("ctrl", 1), ("data", 2)), amps)
    theta = math.asin(np.linalg.norm(amps[:4]))
    g = grover_rotation(phi)
    phases = _plane_phases(g, phi, theta)
    assert np.allclose(phases, [-2 * theta, 2 * theta], atol=1e-10)


def test_grover_rotation_plane_invariance():
    rng = np.random.default_rng(29)
    amps = rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    phi = Statevector((("ctrl", 1), ("data", 2)), amps)
    g = grover_rotation(phi)
    u = np.concatenate([amps[:4], np.zeros(4)])
    v = np.concatenate([np.zeros(4), amps[4:]])
    basis = np.stack([u / np.linalg.norm(u), v / np.linalg.norm(v)], axis=1)
    proj = basis @ basis.conj().T
    for vec in basis.T:
        image = g @ vec
        assert np.linalg.norm(image - proj @ image) < 1e-10


def test_grover_rotation_rejects_denormalized():
    bad = Statevector.__new__(Statevector)
    with pytest.raises((ValueError, AttributeError)):
        grover_rotation(bad)


# ---------------------------------------------------------------------------
# phase estimation

def test_phase_estimate_pauli_z_eigenphase_pi():
    led = CostLedger()
    out = phase_estimate(np.diag([1.0, -1.0]), from_vector("q", [0, 1]), 3, led)
    probs = marginal_probabilities(out, "phase")
    assert np.argmax(probs) == 4
    assert abs(probs[4] - 1.0) < 1e-12
    assert led.controlled_oracle_calls == 7
    assert led.phase_bits_used == 3


def test_phase_estimate_identity_stays_zero():
    out = phase_estimate(np.eye(2), from_vector("q", [1, 1]), 3)
    probs = marginal_probabilities(out, "phase")
    assert abs(probs[0] - 1.0) < 1e-12


def test_phase_estimate_matches_closed_form_kernel():
    # oracle: the closed-form estimation kernel, on one eigenvector of a
    # random phase and on the two-branch Grover state
    t = 8
    phase = 2.35 / (2 * math.pi) * 2 * math.pi / 7.0  # irrational-ish
    u = np.diag([np.exp(1j * phase), np.exp(-1j * phase)])
    out = phase_estimate(u, from_vector("q", [1, 0]), t)
    probs = marginal_probabilities(out, "phase")
    assert np.allclose(probs, qpe_kernel(phase, t), atol=1e-12)


def test_phase_estimate_two_branch_mass_on_nearest_labels():
    # theta = pi/8 sits exactly on the grid for t = 8; each branch then puts
    # all its mass on its label, comfortably above the 8/pi^2 floor
    theta = math.pi / 8
    x = np.array([1.0, 0.0])
    y = np.array([math.cos(2 * theta), math.sin(2 * theta)])
    s = float(x @ y)
    phi = superposed_pair_state(x, y)
    assert abs(math.asin(math.sqrt((1 + s) / 2)) - (math.pi / 2 - theta)) < 1e-12
    g = grover_rotation(phi)
    t = 8
    out = phase_estimate(g, phi, t)
    probs = marginal_probabilities(out, "phase")
    T = 1 << t
    label = round((math.pi - 2 * theta) * T / (2 * math.pi))
    mass = probs[label] + probs[(T - label) % T]
    assert mass >= 8 / math.pi**2
    assert mass > 1 - 1e-10


def test_phase_estimate_exact_phase_recovered_with_certainty():
    # any exactly representable eigenphase is read with probability 1
    t = 5
    for k in (1, 7, 16, 29):
        phase = 2 * math.pi * k / (1 << t)
        out = phase_estimate(np.array([[np.exp(1j * phase)]]), from_vector("q", [1.0], pad=False), t)
        probs = marginal_probabilities(out, "phase")
        assert abs(probs[k] - 1.0) < 1e-12


def masked_powers(rows: np.ndarray, u: np.ndarray, t: int) -> np.ndarray:
    """Reference controlled powers: for each bit k, multiply the rows whose
    label has bit k set by u^(2^k), the power built by repeated squaring."""
    rows = rows.copy()
    labels = np.arange(1 << t)
    p = u.copy()
    for k in range(t):
        mask = (labels >> k) & 1 == 1
        rows[mask] = rows[mask] @ p.T
        p = p @ p
    return rows


@st.composite
def kernel_cases(draw):
    t = draw(st.integers(1, 12))
    dim = draw(st.sampled_from([1, 2, 4, 8]))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(k, dim, dim)) + 1j * rng.normal(size=(k, dim, dim))
    us = np.linalg.qr(g)[0]
    psis = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
    return t, us, psis / np.linalg.norm(psis, axis=1, keepdims=True)


@settings(max_examples=80)
@given(kernel_cases())
def test_controlled_powers_doubling_matches_masked_loop(case):
    t, us, psis = case
    u, psi = us[0], psis[0]
    T = 1 << t
    start = psi[None, :] / math.sqrt(T)
    kept = start.copy()
    want = masked_powers(np.repeat(start, T, axis=0), u, t)
    got = _controlled_powers(start, u, t)
    assert got.shape == (psi.size, T)  # label axis last
    assert np.array_equal(start, kept)
    assert np.max(np.abs(got.T - want)) <= 1e-15
    # a (k, 1, dim) stack of start rows: every block is its own single-row call
    starts = psis[:, None, :] / math.sqrt(T)
    kept = starts.copy()
    stacked = _controlled_powers(starts, us, t)
    assert stacked.shape == (len(us), psi.size, T)
    assert np.array_equal(starts, kept)
    for r in range(len(us)):
        assert np.array_equal(stacked[r], _controlled_powers(starts[r], us[r], t))
    # the inverse estimation applies the masked loop's powers of u^dag
    rows = np.random.default_rng(t).normal(size=(T, psi.size)) + 0j
    assert np.array_equal(_inverse_powers(rows.copy(), u, t), masked_powers(rows, u.conj().T, t))
    # both forward estimations start from the single row psi/sqrt(2^t)
    want_rows = np.fft.fft(want, axis=0) / math.sqrt(T)
    assert np.max(np.abs(_qpe_rows(u, psi, t) - want_rows)) <= 1e-15
    stacked_rows = _qpe_rows(us, psis, t)
    for r in range(len(us)):
        assert np.array_equal(stacked_rows[r], _qpe_rows(us[r], psis[r], t))
    s = Statevector((("q", psi.size.bit_length() - 1),), psi)
    out = phase_estimate(u, s, t)
    assert np.array_equal(s.amplitudes, psi)
    assert np.max(np.abs(out.amplitudes - want_rows.reshape(-1))) <= 1e-15


def test_invert_phase_estimate_roundtrip():
    rng = np.random.default_rng(4)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = Statevector((("q", 2),), amps / np.linalg.norm(amps))
    z = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=4)))
    est = phase_estimate(z, s, 5)
    back = invert_phase_estimate(est, z)
    ps = postselect(back, "phase", 0)
    assert ps.success_probability > 1 - 1e-12
    assert fidelity(ps.state, s) > 1 - 1e-12


# ---------------------------------------------------------------------------
# even-function tagging

def test_tag_constant_function_is_exact():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=8)
    phi = Statevector((("ctrl", 1), ("data", 2)), amps / np.linalg.norm(amps))
    g = grover_rotation(phi)
    t = 6
    est = phase_estimate(g, phi, t)
    led = CostLedger()
    tagged = tag_even_function(est, lambda y: 1.0, g, ledger=led)
    assert tagged.layout[0] == ("tag", t + 2)
    # tag register exactly |enc(1)>, machinery restored exactly
    code = encode_fixed(1.0, t, t + 2)
    probs = marginal_probabilities(tagged, "tag")
    assert abs(probs[code] - 1.0) < 1e-12
    assert abs(led.postselect_probability - 1.0) < 1e-12
    rest = postselect(tagged, "tag", code).state
    assert fidelity(rest, phi) > 1 - 1e-12


def test_tag_cosine_of_known_phase():
    # theta = pi/4 on-grid: tag holds cos(2 theta) = 0 exactly
    t = 6
    phi = superposed_pair_state(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    g = grover_rotation(phi)
    est = phase_estimate(g, phi, t)
    tagged = tag_even_function(est, lambda y: math.cos(2 * math.pi * y / (1 << t)), g)
    probs = marginal_probabilities(tagged, "tag")
    code = encode_fixed(0.0, t, t + 2)
    assert abs(probs[code] - 1.0) < 1e-10


def test_tag_rejects_odd_function():
    phi = superposed_pair_state(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    g = grover_rotation(phi)
    est = phase_estimate(g, phi, 4)
    with pytest.raises(ValueError, match="even"):
        tag_even_function(est, lambda y: float(y), g)
    assert wrap_even(lambda y: math.cos(2 * math.pi * y / 16), 4)
    assert not wrap_even(lambda y: float(y), 4)


def test_tag_product_fidelity_high_on_random_state():
    # fidelity of the tagged output with (ideal tag bin) x (input state)
    rng = np.random.default_rng(17)
    amps = rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    phi = Statevector((("ctrl", 1), ("data", 2)), amps)
    g = grover_rotation(phi)
    t = 10
    est = phase_estimate(g, phi, t)
    f = lambda y: math.cos(2 * math.pi * y / (1 << t))
    tagged = tag_even_function(est, f, g, tag_frac_bits=6)
    theta = math.asin(np.linalg.norm(amps[:4]))
    ideal_code = encode_fixed(math.cos(2 * theta), 6, 8)
    ideal = tensor(basis_state((("tag", 8),), {"tag": ideal_code}), phi)
    assert fidelity(tagged, ideal) >= 0.99


def test_tag_fidelity_monotone_in_phase_bits():
    # fixed input and tag resolution: theta = pi/3 keeps the same fractional
    # grid position at every t, so extra phase bits sharpen the label
    # distribution inside one tag bin and the product fidelity climbs
    rng = np.random.default_rng(170)
    theta = math.pi / 3
    u = rng.normal(size=4)
    v = rng.normal(size=4)
    amps = np.concatenate(
        [math.sin(theta) * u / np.linalg.norm(u), math.cos(theta) * v / np.linalg.norm(v)]
    )
    phi = Statevector((("ctrl", 1), ("data", 2)), amps)
    g = grover_rotation(phi)
    fids = []
    for t in (6, 8, 10):
        est = phase_estimate(g, phi, t)
        f = lambda y: math.cos(2 * math.pi * y / (1 << t))
        tagged = tag_even_function(est, f, g, tag_frac_bits=5)
        code = encode_fixed(math.cos(2 * theta), 5, 7)
        ideal = tensor(basis_state((("tag", 7),), {"tag": code}), phi)
        fids.append(fidelity(tagged, ideal))
    assert fids[0] < fids[1] < fids[2]
    assert fids[2] > 0.95


# ---------------------------------------------------------------------------
# value rotation

def test_rotation_block_unitary_rotates_and_inverts():
    # |v>|0> -> |v>(val_v|0> + sqrt(1 - val_v^2)|1>), undone by the adjoint
    rng = np.random.default_rng(10)
    amps = rng.normal(size=4)
    s = Statevector((("v", 2),), amps / np.linalg.norm(amps))
    values = 0.3 * np.arange(4)
    u = rotation_block_unitary(values)
    out = apply_unitary(tensor(s, basis_state((("rot", 1),), {})), u, ["v", "rot"])
    probs = marginal_probabilities(out, "rot")
    assert abs(probs[0] - float(np.sum(np.abs(s.amplitudes) ** 2 * values**2))) < 1e-12
    undone = apply_unitary(out, u.conj().T, ["v", "rot"])
    ps = postselect(undone, "rot", 0)
    assert ps.success_probability > 1 - 1e-12
    assert fidelity(ps.state, s) > 1 - 1e-12
