import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmm.qpe import PhaseConfig, decode_fixed, grover_rotation, phase_estimate, swap_value
from qmm.statevector import CostLedger, from_vector, marginal_probabilities
from qmm.swaptest import (
    coefficient_tag,
    complex_inner_product,
    control_pair_state,
    discard_tag_fidelity,
    estimate_real_overlap,
    generalized_swap_test,
    inner_product_estimate,
    superposed_pair_state,
    tag_modal_value,
)
from helpers import dense_overlap_estimate


def unit(rng, n, complex_=False):
    v = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_ else 0.0)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# input states

def test_preparer_rejects_zero():
    with pytest.raises(ValueError, match="zero"):
        from_vector("x", np.zeros(4))


# ---------------------------------------------------------------------------
# inner product estimation

def test_inner_product_identical_states():
    x = unit(np.random.default_rng(1), 4)
    p = from_vector("x", x)
    assert abs(inner_product_estimate(p, p, 2**-5) - 1.0) <= 2**-5


def test_inner_product_orthogonal_states():
    px = from_vector("x", [1.0, 0.0])
    py = from_vector("x", [0.0, 1.0])
    assert abs(inner_product_estimate(px, py, 2**-5)) <= 2**-5


def test_inner_product_random_pair_seed21():
    # oracle: direct dot product by summation
    rng = np.random.default_rng(21)
    x, y = unit(rng, 8), unit(rng, 8)
    direct = float(sum(a * b for a, b in zip(x, y)))
    led = CostLedger()
    est = inner_product_estimate(
        from_vector("x", x), from_vector("x", y), 2**-8, led
    )
    assert abs(est - direct) <= 2**-8
    assert led.controlled_oracle_calls > 0


def test_inner_product_cost_scales_inverse_eps():
    x = unit(np.random.default_rng(2), 4)
    p = from_vector("x", x)
    costs = []
    for eps in (2**-4, 2**-5, 2**-6):
        led = CostLedger()
        inner_product_estimate(p, p, eps, led)
        costs.append(led.total_oracle_units())
    assert costs[1] / costs[0] == pytest.approx(2.0, rel=0.01)
    assert costs[2] / costs[1] == pytest.approx(2.0, rel=0.01)


def test_inner_product_estimator_bias_within_grid():
    # modal estimate stays within the pi/2^t grid resolution on all fixtures
    rng = np.random.default_rng(12)
    eps = 2**-6
    t = PhaseConfig.from_epsilon(eps).phase_bits
    for _ in range(10):
        x, y = unit(rng, 8), unit(rng, 8)
        est = inner_product_estimate(
            from_vector("x", x), from_vector("x", y), eps
        )
        assert abs(est - float(x @ y)) <= math.pi / (1 << t)


def test_inner_product_monotone_refinement():
    rng = np.random.default_rng(44)
    pairs = [(unit(rng, 8), unit(rng, 8)) for _ in range(6)]
    prev = None
    for eps in (2**-4, 2**-5, 2**-6, 2**-7):
        errs = []
        for x, y in pairs:
            est = inner_product_estimate(
                from_vector("x", x), from_vector("x", y), eps
            )
            errs.append(abs(est - float(x @ y)))
        if prev is not None:
            assert all(e <= p + 1e-15 for e, p in zip(errs, prev))
        prev = errs


@st.composite
def overlap_inputs(draw):
    dim = 1 << draw(st.integers(1, 5))
    is_complex = draw(st.booleans())
    kind = draw(st.sampled_from(["random", "equal", "negated", "basis", "near-tie", "exact"]))
    if kind in ("near-tie", "exact"):
        # x = |a>, y = s|a> + sqrt(1 - s^2)|b>: s within a few ulp of a
        # modal tie, 2^t theta / pi = k + 1/2 with sin^2(theta) = (1 + s)/2,
        # or s in {-1, 0, 1}
        eps = draw(st.floats(0.005, 0.5))
        T = 1 << PhaseConfig.from_epsilon(eps).phase_bits
        if kind == "near-tie":
            theta = math.pi * (draw(st.integers(0, T // 2 - 1)) + 0.5) / T
            s = -math.cos(2.0 * (theta + draw(st.integers(-4, 4)) * math.ulp(theta)))
        else:
            s = draw(st.sampled_from([-1.0, 0.0, 1.0]))
        a, b = draw(st.permutations(range(dim)))[:2]
        x, y = np.zeros(dim, dtype=complex), np.zeros(dim, dtype=complex)
        x[a], y[a] = 1.0, s
        y[b] = math.sqrt(1.0 - s * s) * (1j if is_complex else 1.0)
        return x, y, eps
    part = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)

    def unit_vector():
        v = np.array(draw(part), dtype=complex)
        if is_complex:
            v = v + 1j * np.array(draw(part))
        norm = np.linalg.norm(v)
        assume(norm > 1e-3)
        return v / norm

    x = unit_vector()
    if kind == "random":
        y = unit_vector()
    elif kind == "equal":
        y = x.copy()
    elif kind == "negated":
        y = -x
    else:
        y = np.zeros(dim, dtype=complex)
        y[draw(st.integers(0, dim - 1))] = 1.0
    return x, y, draw(st.floats(0.005, 0.5))


@settings(max_examples=200)
@given(overlap_inputs())
def test_plane_overlap_estimate_matches_dense_register(case):
    x, y, eps = case
    led_plane, led_dense = CostLedger(), CostLedger()
    got = estimate_real_overlap(x, y, eps, led_plane)
    want = dense_overlap_estimate(x, y, eps, led_dense)
    assert got == want
    assert led_plane == led_dense


def test_overlap_estimate_rejects_non_unit_inputs():
    with pytest.raises(ValueError, match="norm"):
        estimate_real_overlap(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 0.05)


def test_overlap_estimate_respects_qubit_budget(monkeypatch):
    x = np.array([1.0, 0.0, 0.0, 0.0])
    # t = 8 phase bits + 3 register qubits at eps = 0.05
    monkeypatch.setenv("QMM_MAX_QUBITS", "10")
    with pytest.raises(ValueError, match="needs 11 qubits, over the budget of 10"):
        estimate_real_overlap(x, x, 0.05)
    monkeypatch.setenv("QMM_MAX_QUBITS", "11")
    assert estimate_real_overlap(x, x, 0.05) == pytest.approx(1.0)


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError, match="different dimensions"):
        inner_product_estimate(
            from_vector("x", [1.0, 0.0]),
            from_vector("x", [1.0, 0.0, 0.0, 0.0]),
            0.1,
        )


# ---------------------------------------------------------------------------
# complex inner product

def test_complex_inner_product_of_state_with_i_times_itself():
    # oracle: direct complex dot, conjugate on the first argument
    rng = np.random.default_rng(4)
    x = unit(rng, 4, complex_=True)
    got = complex_inner_product(
        from_vector("x", x), from_vector("x", 1j * x), 2**-6
    )
    direct = complex(np.vdot(x, 1j * x))
    assert abs(got.real - direct.real) <= 2**-6
    assert abs(got.imag - direct.imag) <= 2**-6
    assert abs(direct - 1j) < 1e-12


def test_complex_inner_product_real_pair_has_no_imag():
    x = unit(np.random.default_rng(5), 4)
    got = complex_inner_product(
        from_vector("x", x), from_vector("x", x), 2**-6
    )
    assert abs(got.imag) <= 2**-6


def test_complex_inner_product_orthogonal_complex_pair():
    rng = np.random.default_rng(4)
    x = unit(rng, 4, complex_=True)
    y = unit(rng, 4, complex_=True)
    y = y - np.vdot(x, y) * x
    y /= np.linalg.norm(y)
    got = complex_inner_product(
        from_vector("x", x), from_vector("x", y), 2**-6
    )
    assert abs(got.real) <= 2**-6
    assert abs(got.imag) <= 2**-6


# ---------------------------------------------------------------------------
# generalized swap test

def test_generalized_swap_test_identical_states():
    x = unit(np.random.default_rng(6), 4)
    p = from_vector("x", x)
    out = generalized_swap_test(p, p, lambda s: s, 2**-5)
    assert abs(tag_modal_value(out) - 1.0) <= 2**-5
    ref = control_pair_state(p.amplitudes, p.amplitudes)
    assert discard_tag_fidelity(out, ref) > 1 - 2**-5


def test_generalized_swap_test_orthogonal_squared():
    px = from_vector("x", [1.0, 0.0])
    py = from_vector("x", [0.0, 1.0])
    out = generalized_swap_test(px, py, lambda s: s * s, 2**-5)
    assert abs(tag_modal_value(out)) <= 2**-5


def test_generalized_swap_test_random_pair_seed8():
    rng = np.random.default_rng(8)
    x, y = unit(rng, 8), unit(rng, 8)
    out = generalized_swap_test(
        from_vector("x", x), from_vector("x", y), lambda s: s, 2**-6
    )
    assert abs(tag_modal_value(out) - float(x @ y)) <= 2**-6


def test_generalized_swap_test_restores_control_state_exactly():
    # discarding the tag returns (|0>|x> + |1>|y>)/sqrt(2); the even-tag
    # structure makes this exact, not just within eps
    rng = np.random.default_rng(9)
    x, y = unit(rng, 4), unit(rng, 4)
    out = generalized_swap_test(
        from_vector("x", x), from_vector("x", y), lambda s: s, 2**-5
    )
    ref = control_pair_state(x, y)
    assert discard_tag_fidelity(out, ref) > 1 - 1e-10


def test_generalized_swap_test_ledger_scales():
    x = unit(np.random.default_rng(7), 4)
    p = from_vector("x", x)
    led1, led2 = CostLedger(), CostLedger()
    generalized_swap_test(p, p, lambda s: s, 2**-4, ledger=led1)
    generalized_swap_test(p, p, lambda s: s, 2**-5, ledger=led2)
    assert led2.total_oracle_units() == pytest.approx(2 * led1.total_oracle_units(), rel=0.01)


# ---------------------------------------------------------------------------
# coefficient tagging

def test_coefficient_tag_basis_state():
    vals = np.zeros(8)
    vals[5] = 1.0
    out = coefficient_tag(from_vector("x", vals), lambda s: s, 2**-5)
    probs = np.abs(out.reshaped()) ** 2
    j, code = np.unravel_index(np.argmax(probs), probs.shape)
    width = out.register_size("tag")
    assert j == 5
    assert abs(decode_fixed(int(code), width - 2, width) - 1.0) <= 2**-5


def test_coefficient_tag_uniform_state():
    out = coefficient_tag(from_vector("x", np.ones(4)), lambda s: s, 2**-6)
    width = out.register_size("tag")
    tens = out.reshaped()
    for j in range(4):
        code = int(np.argmax(np.abs(tens[j]) ** 2))
        assert abs(decode_fixed(code, width - 2, width) - 0.5) <= 2**-6


def test_coefficient_tag_random_state_seed30():
    # oracle: the amplitudes themselves, read directly
    rng = np.random.default_rng(30)
    psi = unit(rng, 8)
    led = CostLedger()
    out = coefficient_tag(from_vector("x", psi), lambda s: s, 2**-7, ledger=led)
    width = out.register_size("tag")
    tens = out.reshaped()
    for j in range(8):
        probs = np.abs(tens[j]) ** 2
        if probs.sum() < 1e-12:
            continue
        code = int(np.argmax(probs))
        assert abs(decode_fixed(code, width - 2, width) - psi[j]) <= 2**-7
    assert led.postselect_probability < 1.0 + 1e-12


def test_coefficient_tag_index_marginal_matches_concentration_weights():
    # the phase-0 postselection reweights branch j by the squared norm of
    # its binned label-mass profile; oracle: that profile computed from the
    # per-pair estimation run directly
    from qmm.qpe import encode_fixed, grover_rotation, phase_estimate, swap_value
    from qmm.swaptest import superposed_pair_state

    rng = np.random.default_rng(30)
    psi = unit(rng, 8)
    eps = 2**-7
    out = coefficient_tag(from_vector("x", psi), lambda s: s, eps)
    index_probs = marginal_probabilities(out, "index")

    cfg = PhaseConfig.from_epsilon(eps)
    t = cfg.phase_bits
    width = t + 2
    svals = swap_value(np.arange(1 << t), t)
    codes = np.array([encode_fixed(float(v), t, width) for v in svals])
    weights = np.zeros(8)
    for j in range(8):
        basis = np.zeros(8)
        basis[j] = 1.0
        phi = superposed_pair_state(basis, psi)
        est = phase_estimate(grover_rotation(phi), phi, cfg)
        label_probs = marginal_probabilities(est, "phase")
        prof = np.zeros(1 << width)
        np.add.at(prof, codes, label_probs)
        weights[j] = psi[j] ** 2 * float(np.sum(prof**2))
    assert np.allclose(index_probs, weights / weights.sum(), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([2**-3, 2**-5, 2**-7]))
def test_coefficient_tag_matches_dense_register(qubits, seed, sparse, eps):
    # oracle: branch j carries psi[j] times the dense swap test of |j>
    # against psi, its phase-label distribution binned by tag code
    from qmm.qpe import encode_fixed

    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << qubits)
    if sparse:
        psi[rng.random(psi.size) < 0.5] = 0.0
    assume(np.any(psi != 0.0))
    psi /= np.linalg.norm(psi)
    out = coefficient_tag(from_vector("x", psi), lambda s: s, eps)

    cfg = PhaseConfig.from_epsilon(eps)
    t = cfg.phase_bits
    codes = np.array([encode_fixed(float(v), t, t + 2) for v in swap_value(np.arange(1 << t), t)])
    want = np.zeros((psi.size, 1 << (t + 2)))
    for j in np.flatnonzero(psi):
        phi = superposed_pair_state(np.eye(psi.size)[j], psi)
        np.add.at(want[j], codes, marginal_probabilities(phase_estimate(grover_rotation(phi), phi, cfg), "phase"))
        want[j] *= psi[j]
    assert np.allclose(out.reshaped(), want / np.linalg.norm(want), rtol=0.0, atol=1e-12)


def test_coefficient_tag_rejects_complex():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="real"):
        coefficient_tag(
            from_vector("x", unit(rng, 4, complex_=True)), lambda s: s, 0.05
        )
