import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmm.linalg import compute_svd, exact_product, pad_dim, vectorize
from qmm.matmul import (
    PipelineResult,
    SupportViolationError,
    SupportViolationWarning,
    SVEOperators,
    _phase0_after_undo,
    _qpe_rows,
    matmul_hhl,
    matmul_lcu,
    matmul_swaptest,
    matmul_sve,
    rank_one_product,
    sigma_register_decode,
    sve_transform,
    walk_plane_eigenphases,
)
from qmm.qpe import (
    PhaseConfig,
    _controlled_powers,
    grover_rotation,
    invert_phase_estimate,
    phase_estimate,
    rotation_block_unitary,
    swap_value,
)
from qmm.statevector import (
    CostLedger,
    Statevector,
    aligned_distance,
    apply_unitary,
    basis_state,
    charge_amplification,
    marginal_probabilities,
    postselect,
    tensor,
)
from qmm.swaptest import superposed_pair_state


def rand_matrix(seed, shape=(4, 4), shift=0.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape)
    if shift:
        a = a + shift * np.eye(*shape)
    return a


def exact_state_distance(state: Statevector, reference: Statevector) -> float:
    """Direct 2-norm difference after aligning the global phase."""
    overlap = np.vdot(reference.amplitudes, state.amplitudes)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(state.amplitudes / phase - reference.amplitudes))


def complete_isometry(columns: np.ndarray, slots) -> np.ndarray:
    """Unitary whose column at slots[k] equals columns[:, k] (orthonormal),
    other columns filled with a deterministic completion."""
    dim, k = columns.shape
    used = list(slots)
    basis = [columns[:, i] for i in range(k)]
    drop = set()
    for vec in basis:
        drop.add(int(np.argmax(np.abs(vec))))
    fillers = [np.eye(dim)[:, j] for j in range(dim) if j not in drop][: dim - k]
    q, r = np.linalg.qr(np.stack(basis + fillers, axis=1))
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    out = np.zeros((dim, dim), dtype=complex)
    free = [j for j in range(dim) if j not in used]
    for i, slot in enumerate(used):
        out[:, slot] = q[:, i]
    for i, slot in enumerate(free):
        out[:, slot] = q[:, k + i]
    return out


# ---------------------------------------------------------------------------
# walk operator

def test_sve_operators_isometries_and_cross_product():
    a = rand_matrix(2)
    ops = SVEOperators.from_matrix(a)
    m, n = ops.iso_m, ops.iso_n
    assert np.max(np.abs(m.conj().T @ m - np.eye(4))) < 1e-10
    assert np.max(np.abs(n.conj().T @ n - np.eye(4))) < 1e-10
    assert np.max(np.abs(m.conj().T @ n - a / np.linalg.norm(a))) < 1e-10
    walk = ops.walk
    assert np.max(np.abs(walk.conj().T @ walk - np.eye(16))) < 1e-10


def test_walk_plane_eigenphases_encode_singular_values():
    for seed in range(5):
        a = rand_matrix(seed, (3, 3))
        ops = SVEOperators.from_matrix(a)
        bundle = compute_svd(np.pad(a, ((0, 1), (0, 1))))
        frob = np.linalg.norm(a)
        for k in range(4):
            phases = walk_plane_eigenphases(
                ops, bundle.left_vectors[:, k], bundle.right_vectors[:, k]
            )
            theta = phases[-1]
            assert abs(math.cos(theta / 2.0) - bundle.sigmas[k] / frob) < 1e-8


def test_walk_plane_invariance():
    a = rand_matrix(7, (2, 2))
    ops = SVEOperators.from_matrix(a)
    bundle = compute_svd(a)
    for k in range(2):
        basis = ops.plane_basis(bundle.left_vectors[:, k], bundle.right_vectors[:, k])
        proj = basis @ basis.conj().T
        image = ops.walk @ basis
        assert np.max(np.abs(image - proj @ image)) < 1e-10


def test_zero_rows_pin_conditional_state():
    a = np.array([[1.0, 2.0], [0.0, 0.0]])
    ops = SVEOperators.from_matrix(a)
    assert np.max(np.abs(ops.iso_m.conj().T @ ops.iso_m - np.eye(2))) < 1e-12
    assert np.max(np.abs(ops.iso_m.conj().T @ ops.iso_n - a / np.linalg.norm(a))) < 1e-12


# ---------------------------------------------------------------------------
# closed-form inversion helper

def test_phase0_closed_form_matches_gate_inversion():
    rng = np.random.default_rng(1)
    t = 6
    T = 1 << t
    for angle in (0.0, 0.37, math.pi / 2, math.pi):
        c, s = math.cos(angle), math.sin(angle)
        u = np.array([[c, s], [-s, c]])
        rows = (rng.normal(size=(T, 2)) + 1j * rng.normal(size=(T, 2))) / T
        # oracle: gate-by-gate inversion of the estimation circuit
        from qmm.qpe import _unnormalized_invert

        expect = _unnormalized_invert(rows.copy(), u, t)[0]
        got = _phase0_after_undo(rows, u, t).sum(axis=0)
        assert np.max(np.abs(got - expect)) < 1e-11


# ---------------------------------------------------------------------------
# swap-test pipeline

def test_matmul_swaptest_identity_pair():
    res = matmul_swaptest(np.eye(2), np.eye(2), eps=0.05)
    table = res.state.state.reshaped()
    expected = np.zeros((2, 2))
    expected[0, 0] = expected[1, 1] = 1 / math.sqrt(2)
    assert np.max(np.abs(table - expected)) < 1e-10
    assert res.success_probability == pytest.approx(0.5, abs=1e-10)
    assert res.expected_success_probability == pytest.approx(0.5, abs=1e-12)
    assert res.realized_error <= res.predicted_bound


def test_matmul_swaptest_random_times_identity():
    a = rand_matrix(2)
    res = matmul_swaptest(a, np.eye(4), phase_bits=10)
    assert res.realized_error <= res.predicted_bound
    assert exact_state_distance(res.state.state, vectorize(a)) < 0.05


def test_matmul_swaptest_nilpotent_product_rejected():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="AB = 0"):
        matmul_swaptest(n, n, eps=0.05)


def test_matmul_swaptest_bound_holds_on_seeded_instances():
    for seed in range(8):
        a, b = rand_matrix(seed), rand_matrix(seed + 100)
        for t in (8, 10):
            res = matmul_swaptest(a, b, phase_bits=t)
            assert res.realized_error <= res.predicted_bound
            eps_inner = math.pi / (1 << t)
            r2 = (np.linalg.norm(a) * np.linalg.norm(b) / np.linalg.norm(a @ b)) ** 2
            assert res.predicted_bound == pytest.approx(
                math.sqrt(2 * r2 + 2 * r2 * r2) * eps_inner
            )


def test_matmul_swaptest_success_formula():
    for seed in (3, 4, 5):
        a, b = rand_matrix(seed, shift=1.0), rand_matrix(seed + 50, shift=1.0)
        res = matmul_swaptest(a, b, phase_bits=8)
        assert res.success_probability == pytest.approx(
            res.expected_success_probability, rel=0.05
        )


def test_matmul_swaptest_ledger_slope_vs_inverse_eps():
    a, b = rand_matrix(12), rand_matrix(13)
    costs = []
    eps_grid = [2.0**-k for k in range(4, 9)]
    for eps in eps_grid:
        res = matmul_swaptest(a, b, eps=eps)
        costs.append(res.ledger.total_oracle_units())
    slope = np.polyfit(np.log(1.0 / np.asarray(eps_grid)), np.log(costs), 1)[0]
    assert abs(slope - 1.0) <= 0.15


# ---------------------------------------------------------------------------
# rank one and linear combination

def test_rank_one_basis_states():
    res = rank_one_product(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert np.allclose(res.state.state.amplitudes, [1, 0, 0, 0])
    assert res.realized_error < 1e-12


def test_rank_one_three_four_five():
    res = rank_one_product(np.array([3.0, 4.0]) / 5.0, np.array([1.0, 0.0]))
    assert np.allclose(res.state.state.amplitudes, [0.6, 0.0, 0.8, 0.0], atol=1e-12)


def test_rank_one_random_pair_fidelity():
    rng = np.random.default_rng(6)
    a = rng.normal(size=4)
    b = rng.normal(size=8)
    res = rank_one_product(a, b, eps=0.05)
    outer = np.outer(a / np.linalg.norm(a), b / np.linalg.norm(b))
    assert exact_state_distance(res.state.state, vectorize(outer)) <= 1e-10
    assert res.success_probability == pytest.approx(1.0, abs=1e-10)
    assert res.ledger.amplification_rounds == 1


def test_rank_one_cost_independent_of_scale():
    a, b = np.array([1.0, 2.0]), np.array([3.0, 1.0])
    r1 = rank_one_product(a, b, eps=0.05)
    r2 = rank_one_product(100.0 * a, 0.01 * b, eps=0.05)
    assert r1.ledger.total_oracle_units() == r2.ledger.total_oracle_units()
    assert r1.ledger.amplification_rounds == r2.ledger.amplification_rounds


def test_rank_one_rejects_zero_vector():
    with pytest.raises(ValueError, match="nonzero"):
        rank_one_product(np.zeros(2), np.array([1.0, 0.0]))


def test_matmul_lcu_identity_pair():
    res = matmul_lcu(np.eye(2), np.eye(2), eps=0.05)
    assert res.realized_error <= res.predicted_bound
    table = res.state.state.reshaped()
    assert abs(table[0, 0] - 1 / math.sqrt(2)) < 1e-10


def test_matmul_lcu_single_term_reduces_to_rank_one():
    a_vec = np.array([2.0, 1.0])
    b_vec = np.array([1.0, 3.0])
    a = np.outer(a_vec, [1.0, 0.0])  # only column 0 nonzero
    b = np.outer([1.0, 0.0], b_vec)  # only row 0 nonzero
    res = matmul_lcu(a, b, eps=0.05)
    ref = rank_one_product(a_vec, b_vec, eps=0.05)
    assert exact_state_distance(res.state.state, ref.state.state) < 1e-10


def test_matmul_lcu_random_pair_and_cheaper_ledger():
    a, b = rand_matrix(12), rand_matrix(112)
    res = matmul_lcu(a, b, eps=0.05)
    c = exact_product(a, b)
    assert 1 - res.realized_error**2 / 2 >= 1 - 0.05  # fidelity >= 1 - eps
    assert exact_state_distance(res.state.state, vectorize(c)) < 1e-10
    swap = matmul_swaptest(a, b, eps=0.05)
    lcu_cost = res.ledger.total_oracle_units() * res.ledger.amplification_rounds
    swap_cost = swap.ledger.total_oracle_units() * swap.ledger.amplification_rounds
    assert lcu_cost <= swap_cost


def test_matmul_lcu_rejects_scalar_product():
    with pytest.raises(ValueError, match="1x1"):
        matmul_lcu(np.array([[1.0, 2.0]]), np.array([[1.0], [1.0]]), eps=0.05)


@st.composite
def lcu_instances(draw):
    l, m, n = (draw(st.integers(1, 8)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(l, m))
    b = rng.normal(size=(m, n))
    a[:, draw(st.lists(st.booleans(), min_size=m, max_size=m))] = 0.0  # zero columns of A
    b[draw(st.lists(st.booleans(), min_size=m, max_size=m)), :] = 0.0  # zero rows of B
    return a, b, draw(st.floats(0.01, 0.5))


@settings(max_examples=60)
@given(lcu_instances())
def test_matmul_lcu_matches_simulated_rank_one_terms(case):
    a, b, eps = case
    l, n = a.shape[0], b.shape[1]
    c = exact_product(a, b)
    assume(l * n > 1 and np.linalg.norm(c) > 1e-14)
    res = matmul_lcu(a, b, eps=eps)

    # oracle: every live term simulated gate by gate, then combined
    lam = np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=1)
    combined = np.zeros((l, n))
    for j in np.flatnonzero(lam):
        table = rank_one_product(a[:, j], b[j], eps=eps).state.state.reshaped()
        combined += lam[j] * table[:l, :n].real
    table = res.state.state.reshaped()
    assert np.max(np.abs(table[:l, :n] - combined / np.linalg.norm(combined))) <= 1e-12
    assert np.all(table[l:] == 0) and np.all(table[:, n:] == 0)

    # ledger, bound and success probability as charged before the direct assembly
    success = float(np.linalg.norm(c)) ** 2 / float(np.sum(lam)) ** 2
    t = max(math.ceil(math.log2(math.pi / eps)) + 2, 2)
    ledger = CostLedger()
    ledger.charge_oracle(2)
    ledger.charge_controlled(4 * ((1 << t) - 1))
    ledger.use_phase_bits(t)
    ledger.record_postselect(success)
    charge_amplification(ledger, success)
    assert res.ledger.to_dict() == ledger.to_dict()
    assert res.phase_bits == t
    assert res.predicted_bound == eps
    assert res.success_probability == res.expected_success_probability == success
    assert res.details == {"weight_sum": float(np.sum(lam))}
    assert res.realized_error <= res.predicted_bound


@pytest.mark.parametrize(
    "a, b, match",
    [
        ([[1.0, 2.0]], [[1.0], [1.0]], "1x1"),  # l * n = 1
        ([[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [1.0, 3.0]], "AB = 0"),  # every term vanishes
        ([[1.0, 1.0], [2.0, 2.0]], [[1.0, 3.0], [-1.0, -3.0]], "AB = 0"),  # live terms cancel
    ],
    ids=["scalar", "terms-vanish", "terms-cancel"],
)
def test_matmul_lcu_rejects_undefined_products(a, b, match):
    with pytest.raises(ValueError, match=match):
        matmul_lcu(np.array(a), np.array(b), eps=0.05)


def test_matmul_lcu_keeps_a_term_too_small_for_its_own_pipeline():
    # the term's own product has norm 1e-16, which matmul_swaptest would
    # reject as AB = 0; the combination is well defined
    a = np.array([[1.0, 1e-8], [2.0, 1e-8]])
    b = np.array([[1.0, 2.0], [1e-8, 1e-8]])
    res = matmul_lcu(a, b, eps=0.05)
    assert exact_state_distance(res.state.state, vectorize(exact_product(a, b))) < 1e-12


# ---------------------------------------------------------------------------
# singular value transform

def test_sve_transform_rank_one_diagonal():
    out = sve_transform(np.diag([1.0, 0.0]), np.array([1.0, 0.0]), phase_bits=8)
    probs = np.abs(out.reshaped()) ** 2
    i, code = np.unravel_index(np.argmax(probs), probs.shape)
    assert i == 0
    assert abs(sigma_register_decode(int(code), 8, 1.0) - 1.0) < 2**-7


def test_sve_transform_scaled_rotation_peaks_at_walk_phase():
    # oracle: dense eigensolver on the walk operator
    angle = 0.7
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    a = rot / math.sqrt(2.0)
    ops = SVEOperators.from_matrix(a)
    bundle = compute_svd(a)
    t = 8
    phi = phase_estimate(ops.walk, Statevector((("vec", 2),), ops.iso_n @ bundle.right_vectors[:, 0]), PhaseConfig(t))
    probs = marginal_probabilities(phi, "phase")
    walk_angles = np.angle(np.linalg.eigvals(ops.walk))
    theta = np.min(np.abs(walk_angles[np.abs(walk_angles) > 1e-9]))
    label = int(np.argmax(probs))
    label_angle = 2 * math.pi * min(label, (1 << t) - label) / (1 << t)
    assert abs(label_angle - theta) <= 2 * math.pi / (1 << t)
    assert abs(math.cos(theta / 2) - bundle.sigmas[0] / np.linalg.norm(a)) < 1e-10


def test_sve_transform_sigma_accuracy_seed19():
    # oracle: singular values from the gauge-fixed decomposition
    rng = np.random.default_rng(19)
    a = rng.normal(size=(4, 4))
    x = rng.normal(size=4)
    frob = float(np.linalg.norm(a))
    bundle = compute_svd(a)
    t = 10
    out = sve_transform(a, x, phase_bits=t)
    eps_sigma = 2.0 * math.pi * frob / (1 << t)
    table = out.reshaped()
    alphas = bundle.right_vectors.conj().T @ (x / np.linalg.norm(x))
    for k in range(4):
        if abs(alphas[k]) < 1e-12:
            continue
        # weight of u_k rows, per sigma code
        profile = np.abs(bundle.left_vectors[:, k].conj() @ table) ** 2
        code = int(np.argmax(profile))
        sigma_read = sigma_register_decode(code, t, frob)
        assert abs(sigma_read - bundle.sigmas[k]) <= eps_sigma


def test_sve_transform_zero_matrix_rejected():
    with pytest.raises(ValueError, match="zero matrix"):
        sve_transform(np.zeros((2, 2)), np.array([1.0, 0.0]), phase_bits=6)


# ---------------------------------------------------------------------------
# sve pipeline

def test_matmul_sve_identity_pair():
    res = matmul_sve(np.eye(2), np.eye(2), phase_bits=8)
    assert res.realized_error <= res.predicted_bound
    # exact up to the sqrt-amplified float floor of the distance metric
    assert res.realized_error < 1e-7
    assert res.success_probability == pytest.approx(1.0, rel=1e-6)


def test_matmul_sve_diagonal_success_formula():
    a = np.diag([1.0, 0.5])
    res = matmul_sve(a, np.eye(2), phase_bits=10)
    # ||AB||^2 / (||B||^2 max sigma^2) = (1.25)/2
    assert res.expected_success_probability == pytest.approx(1.25 / 2.0, abs=1e-12)
    assert res.success_probability == pytest.approx(1.25 / 2.0, rel=0.02)


def test_matmul_sve_bound_holds_on_seeded_instances():
    for seed in range(6):
        a = rand_matrix(seed, shift=2.0)
        b = rand_matrix(seed + 200)
        res = matmul_sve(a, b, phase_bits=10)
        assert res.realized_error <= res.predicted_bound


def test_matmul_sve_per_component_sigma_accuracy():
    for seed in (1, 23, 77):
        a = rand_matrix(seed, shift=1.5)
        b = rand_matrix(seed + 31)
        res = matmul_sve(a, b, phase_bits=9)
        eff = np.asarray(res.details["sigma_eff"])
        exact = np.asarray(res.details["sigma_exact"])
        assert np.max(np.abs(eff - exact)) <= res.details["eps1_eff"]


def test_matmul_sve_single_column():
    a = rand_matrix(40, shift=2.0)
    b = rand_matrix(41)[:, :1]
    res = matmul_sve(a, b, phase_bits=9)
    target = (a @ b).reshape(-1)
    assert exact_state_distance(res.state.state, vectorize(target.reshape(-1, 1))) < 0.02


def test_matmul_sve_support_violation_modes():
    a = np.diag([1.0, 0.0])  # second right-singular direction is dead
    b = np.array([[1.0, 0.0], [1.0, 0.5]])
    with pytest.warns(SupportViolationWarning):
        res = matmul_sve(a, b, phase_bits=8)
    assert res.realized_error <= res.predicted_bound
    with pytest.raises(SupportViolationError):
        matmul_sve(a, b, phase_bits=8, strict_support=True)


# ---------------------------------------------------------------------------
# hhl pipeline

def test_matmul_hhl_identity_passes_through_columns():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(2, 1))
    res = matmul_hhl(np.eye(2), b, phase_bits=8)
    assert exact_state_distance(res.state.state, vectorize(b)) < 1e-8


def test_matmul_hhl_diagonal_reweights_by_sigma():
    a = np.diag([1.0, 0.5])
    v = np.array([[1.0], [1.0]])
    res = matmul_hhl(a, v, phase_bits=10)
    # oracle: direct formula, amplitudes proportional to sigma_k * v_k
    target = np.array([1.0, 0.5]) / math.sqrt(1.25)
    table = res.state.state.amplitudes
    assert np.max(np.abs(np.abs(table) - target)) < 1e-6


def test_matmul_hhl_bound_holds_on_seeded_instances():
    for seed in range(6):
        a = rand_matrix(seed + 27, shift=2.0)
        b = rand_matrix(seed + 327)
        res = matmul_hhl(a, b, phase_bits=10)
        assert res.realized_error <= res.predicted_bound
        eff = np.asarray(res.details["sigma_eff"])
        exact = np.asarray(res.details["sigma_exact"])
        assert np.max(np.abs(eff - exact)) <= res.details["eps1_eff"]


def test_matmul_hhl_success_formula():
    a = rand_matrix(51, shift=2.0)
    b = rand_matrix(52)
    res = matmul_hhl(a, b, phase_bits=10)
    assert res.success_probability == pytest.approx(
        res.expected_success_probability, rel=0.05
    )


# ---------------------------------------------------------------------------
# exact-phase oracle equivalence

@pytest.mark.parametrize("method", [matmul_swaptest, matmul_sve, matmul_hhl])
def test_exact_phase_mode_reproduces_exact_product(method):
    for seed in (0, 5, 9):
        a = rand_matrix(seed, shift=1.0)
        b = rand_matrix(seed + 77)
        res = method(a, b, phase_bits=6, exact_phase=True)
        ref = vectorize(exact_product(a, b))
        assert exact_state_distance(res.state.state, ref) < 1e-10


def test_exact_phase_mode_lcu():
    a, b = rand_matrix(3), rand_matrix(4)
    res = matmul_lcu(a, b, eps=0.05)
    assert exact_state_distance(res.state.state, vectorize(exact_product(a, b))) < 1e-10


PIPELINES_PINNED = json.loads((Path(__file__).parent / "data" / "pipelines_pinned.json").read_text())


@pytest.mark.parametrize(
    "case", PIPELINES_PINNED["cases"], ids=[f"{c['method']}-{i}" for i, c in enumerate(PIPELINES_PINNED["cases"])]
)
def test_value_estimation_pipelines_match_pinned_values(case):
    # values recorded from the separate matmul_sve and matmul_hhl bodies,
    # before the two routes shared one template
    fn = matmul_sve if case["method"] == "sve" else matmul_hhl
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportViolationWarning)
        res = fn(np.array(case["a"]), np.array(case["b"]), **case["kwargs"])
    assert res.phase_bits == case["phase_bits"]
    # the one float field is the success probability, compared below; the
    # closed-form components move it within the ledger identity tolerance
    ledger, want = res.ledger.to_dict(), dict(case["ledger"])
    assert ledger.pop("postselect_probability") == pytest.approx(want.pop("postselect_probability"), abs=1e-12)
    assert ledger == want
    assert np.max(np.abs(np.array(res.details["sigma_eff"]) - case["sigma_eff"])) <= 1e-12
    for key in ("success_probability", "expected_success_probability"):
        assert getattr(res, key) == pytest.approx(case[key], abs=1e-12)
    assert res.predicted_bound == pytest.approx(case["bound"], abs=1e-12)
    # the realized error is sqrt(2 - 2 fidelity): compare what is under the root
    assert res.realized_error**2 == pytest.approx(case["realized_error"] ** 2, abs=1e-12)


# ---------------------------------------------------------------------------
# full-register circuit cross-validation

def test_swaptest_pipeline_matches_full_circuit():
    """The factored per-entry simulation must agree exactly with an
    unfactored simulation of the whole pipeline on one register bank."""
    rng = np.random.default_rng(77)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    t = 4
    T = 1 << t
    row_norms = np.linalg.norm(a, axis=1)
    col_norms = np.linalg.norm(b, axis=0)
    fa, fb = np.linalg.norm(a), np.linalg.norm(b)

    # initial state: sum_ij w_ij |i,j> phi_ij on (ij, ctrl, data)
    amps = np.zeros((4, 4), dtype=complex)
    blocks = []
    preps = []
    for i in range(2):
        for j in range(2):
            phi = superposed_pair_state(a[i] / row_norms[i], b[:, j] / col_norms[j])
            amps[2 * i + j] = (row_norms[i] * col_norms[j] / (fa * fb)) * phi.amplitudes
            blocks.append(grover_rotation(phi))
            preps.append(complete_isometry(phi.amplitudes[:, None], [0]))
    state = Statevector((("ij", 2), ("ctrl", 1), ("data", 1)), amps.reshape(-1))
    g_block = np.zeros((16, 16), dtype=complex)
    p_block = np.zeros((16, 16), dtype=complex)
    for k in range(4):
        g_block[4 * k : 4 * k + 4, 4 * k : 4 * k + 4] = blocks[k]
        p_block[4 * k : 4 * k + 4, 4 * k : 4 * k + 4] = preps[k]

    est = phase_estimate(g_block, state, PhaseConfig(t))
    ext = tensor(est, basis_state((("rot", 1),), {}))
    svals = swap_value(np.arange(T), t)
    ext = apply_unitary(ext, rotation_block_unitary(svals), ["phase", "rot"])
    undone = invert_phase_estimate(ext, np.kron(g_block, np.eye(2)))
    ps = postselect(undone, "phase", 0)
    joint = ps.success_probability
    ps = postselect(ps.state, "rot", 0)
    joint *= ps.success_probability
    unprepped = apply_unitary(ps.state, p_block.conj().T, ["ij", "ctrl", "data"])
    ps = postselect(unprepped, "ctrl", 0)
    joint *= ps.success_probability
    ps = postselect(ps.state, "data", 0)
    joint *= ps.success_probability
    full_state = ps.state  # on the ij register

    res = matmul_swaptest(a, b, phase_bits=t)
    factored = res.state.state.amplitudes  # (row, col) = same ij ordering
    assert np.max(np.abs(full_state.amplitudes - factored)) < 1e-10
    assert joint == pytest.approx(res.success_probability, abs=1e-12)


def test_sve_pipeline_matches_full_circuit():
    """Factored singular-triple simulation against the unfactored walk
    pipeline with explicit row-isometry uncomputation."""
    rng = np.random.default_rng(78)
    a = rng.normal(size=(2, 2)) + np.eye(2)
    bvec = rng.normal(size=2)
    bvec /= np.linalg.norm(bvec)
    t = 4
    T = 1 << t
    frob = np.linalg.norm(a)
    ops = SVEOperators.from_matrix(a)
    bundle = compute_svd(a)

    state = Statevector((("row", 1), ("col", 1)), ops.iso_n @ bvec)
    est = phase_estimate(ops.walk, state, PhaseConfig(t))
    # half-angle phase shift per label
    y = np.arange(T)
    ytilde = np.where(y <= T // 2, y, y - T)
    mu = np.exp(1j * np.pi * ytilde / T)
    est = apply_unitary(est, np.diag(mu), ["phase"])
    # rotation by the decoded singular value over the ceiling scale
    dec = frob * np.abs(np.cos(np.pi * y / T))
    sigma_max = bundle.sigmas[0]
    theta_top = 2.0 * math.acos(min(sigma_max / frob, 1.0))
    ceiling = frob * abs(math.cos(math.pi * math.floor(theta_top * T / (2 * math.pi)) / T))
    weights = np.clip(dec / ceiling, 0.0, 1.0)
    ext = tensor(est, basis_state((("rot", 1),), {}))
    ext = apply_unitary(ext, rotation_block_unitary(weights), ["phase", "rot"])
    undone = invert_phase_estimate(ext, np.kron(ops.walk, np.eye(2)))
    ps = postselect(undone, "phase", 0)
    joint = ps.success_probability
    ps = postselect(ps.state, "rot", 0)
    joint *= ps.success_probability
    # uncompute the row isometry: U_M maps |i>|0> to M e_i
    u_m = complete_isometry(ops.iso_m, [0, 2])
    unprepped = apply_unitary(ps.state, u_m.conj().T, ["row", "col"])
    ps = postselect(unprepped, "col", 0)
    joint *= ps.success_probability
    full_state = ps.state

    res = matmul_sve(a, bvec.reshape(-1, 1), phase_bits=t)
    assert np.max(np.abs(full_state.amplitudes - res.state.state.amplitudes)) < 1e-9
    assert joint == pytest.approx(res.success_probability, rel=1e-9)


def test_hhl_pipeline_matches_full_circuit():
    """Factored dilation-eigenpair simulation against the unfactored
    phase-estimated evolution of the dilated matrix."""
    rng = np.random.default_rng(79)
    a = rng.normal(size=(2, 2)) + np.eye(2)
    bvec = rng.normal(size=2)
    bvec /= np.linalg.norm(bvec)
    t = 5
    T = 1 << t
    bundle = compute_svd(a)
    sigma_max = bundle.sigmas[0]
    t0 = math.pi / (2.0 * sigma_max)
    from qmm.linalg import hermitian_dilation

    dil = hermitian_dilation(a)
    vals, vecs = np.linalg.eigh(dil)
    evo = vecs @ np.diag(np.exp(1j * vals * t0)) @ vecs.conj().T

    # (0, b): bottom block of the dilation space
    amps = np.concatenate([np.zeros(2), bvec])
    state = Statevector((("dflag", 1), ("vec", 1)), amps)
    est = phase_estimate(evo, state, PhaseConfig(t))
    y = np.arange(T)
    ytilde = np.where(y <= T // 2, y, y - T)
    lam = (2.0 * np.pi * ytilde / T) / t0
    ceiling = abs(lam[min(math.ceil(sigma_max * t0 * T / (2 * math.pi)), T // 2)])
    weights = np.clip(lam / ceiling, -1.0, 1.0)
    ext = tensor(est, basis_state((("rot", 1),), {}))
    ext = apply_unitary(ext, rotation_block_unitary(weights), ["phase", "rot"])
    undone = invert_phase_estimate(ext, np.kron(evo, np.eye(2)))
    ps = postselect(undone, "phase", 0)
    joint = ps.success_probability
    ps = postselect(ps.state, "rot", 0)
    joint *= ps.success_probability
    ps = postselect(ps.state, "dflag", 0)  # top block holds A b
    joint *= ps.success_probability
    full_state = ps.state

    res = matmul_hhl(a, bvec.reshape(-1, 1), phase_bits=t)
    assert np.max(np.abs(full_state.amplitudes - res.state.state.amplitudes)) < 1e-9
    assert joint == pytest.approx(res.success_probability, rel=1e-9)
